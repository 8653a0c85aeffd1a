"""RIS-assisted free-space MISO link modeling: physics-based channels,
closed-form and SVD beamforming, panel orientation/position optimization,
and reproducible simulation studies.

The oracles of `validation` load on first use of one of their names
(PEP 562), so that a study does not import them."""

__version__ = "1.0.0"

from .config import (SceneConfig, SweepRanges, db_to_linear, dbm_to_watts,
                     linear_to_db, load_config, watts_to_dbm)
from .em import (ChannelSet, RadioParams, amplitude_gain_tir,
                 direct_channel, exact_channel, farfield_channel,
                 farfield_power, friis_amplitude, radiation_pattern,
                 received_power, tir_delta)
from .errors import (AmbiguousSignWarning, ConfigError, DegenerateGeometry,
                     DegenerateTriangle, DimensionMismatch, DomainError,
                     EmptyFeasible, FarFieldViolation, FarFieldWarning,
                     RegionDWarning, RislinkError, ShadowedPanel, TooLarge,
                     ZeroChannel)
from .geometry import (LinkAngles, PanelPoses, RisPanel, TransmitterArray,
                       UlaLayout, UpaLayout, antenna_positions,
                       element_positions, far_field_check, link_angles)
from .placement import (PlacementResult, PlaneScene, QuasiconvexityReport,
                        f_object, optimal_orientation, plane_objective,
                        position_search_plane, quasiconvexity_report,
                        region_d_membership)
from .solvers import (GridDesign, Method, Solution, anti_decay_design,
                      closed_form_predicted_power, closed_form_solution,
                      mrt_beamforming, power_upper_bound, svd_solution,
                      two_path_o, two_path_power_closed_form,
                      two_path_solution)

_VALIDATION = ("GridArgmax", "dense_position_grid", "exhaustive_phase_search",
               "random_feasible_solutions")

__all__ = [
    "AmbiguousSignWarning", "ChannelSet", "ConfigError", "DegenerateGeometry",
    "DegenerateTriangle", "DimensionMismatch", "DomainError", "EmptyFeasible",
    "FarFieldViolation", "FarFieldWarning", "GridDesign", "LinkAngles",
    "Method", "PanelPoses", "PlacementResult", "PlaneScene",
    "QuasiconvexityReport", "RadioParams", "RegionDWarning", "RisPanel",
    "RislinkError", "SceneConfig", "ShadowedPanel", "Solution",
    "SweepRanges", "TooLarge", "TransmitterArray", "UlaLayout", "UpaLayout",
    "ZeroChannel", "amplitude_gain_tir", "antenna_positions",
    "anti_decay_design", "closed_form_predicted_power",
    "closed_form_solution", "db_to_linear", "dbm_to_watts",
    "direct_channel", "element_positions", "exact_channel", "f_object",
    "far_field_check", "farfield_channel", "farfield_power",
    "friis_amplitude", "linear_to_db", "link_angles", "load_config",
    "mrt_beamforming", "optimal_orientation", "plane_objective",
    "position_search_plane", "power_upper_bound", "quasiconvexity_report",
    "radiation_pattern", "received_power", "region_d_membership",
    "svd_solution", "tir_delta", "two_path_o", "two_path_power_closed_form",
    "two_path_solution", "watts_to_dbm", *_VALIDATION]

def __getattr__(name):
    if name in _VALIDATION:
        from . import validation
        return getattr(validation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
