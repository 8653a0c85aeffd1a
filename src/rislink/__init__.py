"""RIS-assisted free-space MISO link modeling: physics-based channels,
closed-form and SVD beamforming, panel orientation/position optimization,
and reproducible simulation studies."""

__version__ = "1.0.0"

from .config import (SceneConfig, SweepRanges, db_to_linear, dbm_to_watts,
                     linear_to_db, load_config, watts_to_dbm)
from .em import (ChannelSet, RadioParams, TirGain, amplitude_gain_tir,
                 direct_channel, exact_channel, farfield_channel,
                 farfield_power, friis_amplitude, radiation_pattern,
                 received_power, tir_delta)
from .errors import (AmbiguousSignWarning, ConfigError, DegenerateGeometry,
                     DegenerateTriangle, DimensionMismatch, DomainError,
                     EmptyFeasible, FarFieldViolation, FarFieldWarning,
                     RegionDWarning, RislinkError, ShadowedPanel, TooLarge,
                     ZeroChannel)
from .geometry import (FarFieldCheck, LinkAngles, PanelPoses, RisPanel,
                       TransmitterArray, UlaLayout, UpaLayout,
                       antenna_positions, element_positions, far_field_check,
                       link_angles)
from .placement import (PlacementResult, PlaneScene, QuasiconvexityReport,
                        f_object, optimal_orientation, plane_objective,
                        position_search_plane, quasiconvexity_report,
                        region_d_membership)
from .solvers import (GridDesign, Method, Solution, TwoPathTerms,
                      anti_decay_design, closed_form_phases,
                      closed_form_predicted_power, closed_form_solution,
                      mrt_beamforming, power_upper_bound, svd_solution,
                      two_path_o, two_path_power_closed_form,
                      two_path_solution, two_path_terms)
from .validation import (GridArgmax, dense_position_grid,
                         exhaustive_phase_search, random_feasible_solutions)
