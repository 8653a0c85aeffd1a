"""The record and value types, and the start-up contract of the CLI: a
fresh `import rislink.cli` builds no dataclass and leaves the oracles of
`rislink.validation` unloaded, while every exported name still resolves."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rislink.em import ChannelSet, RadioParams
from rislink.errors import DimensionMismatch, DomainError
from rislink.geometry import (PanelPoses, RisPanel, TransmitterArray,
                              UlaLayout, UpaLayout)
from rislink.placement import PlaneScene

from test_geometry import EX, EY, EZ

ROOT = Path(__file__).resolve().parents[1]

# Every name `from rislink import *` gave before the oracles loaded lazily,
# less TwoPathTerms, two_path_terms and closed_form_phases, which are gone.
EXPORTS = (
    "AmbiguousSignWarning", "ChannelSet", "ConfigError", "DegenerateGeometry",
    "DegenerateTriangle", "DimensionMismatch", "DomainError", "EmptyFeasible",
    "FarFieldViolation", "FarFieldWarning", "GridArgmax", "GridDesign",
    "LinkAngles", "Method", "PanelPoses", "PlacementResult", "PlaneScene",
    "QuasiconvexityReport", "RadioParams", "RegionDWarning", "RisPanel",
    "RislinkError", "SceneConfig", "ShadowedPanel", "Solution",
    "SweepRanges", "TooLarge", "TransmitterArray", "UlaLayout", "UpaLayout",
    "ZeroChannel", "amplitude_gain_tir", "antenna_positions",
    "anti_decay_design", "closed_form_predicted_power",
    "closed_form_solution", "db_to_linear", "dbm_to_watts",
    "dense_position_grid", "direct_channel", "element_positions",
    "exact_channel", "exhaustive_phase_search", "f_object",
    "far_field_check", "farfield_channel", "farfield_power",
    "friis_amplitude", "linear_to_db", "link_angles", "load_config",
    "mrt_beamforming", "optimal_orientation", "plane_objective",
    "position_search_plane", "power_upper_bound", "quasiconvexity_report",
    "radiation_pattern", "random_feasible_solutions", "received_power",
    "region_d_membership", "svd_solution", "tir_delta", "two_path_o",
    "two_path_power_closed_form", "two_path_solution", "watts_to_dbm",
)

_STARTUP = """
import dataclasses, inspect, json, sys
import rislink.cli
loaded = sorted(n for n in sys.modules if n.split(".")[0] == "rislink")
built = [f"{n}.{k}" for n in loaded for k, v in vars(sys.modules[n]).items()
         if inspect.isclass(v) and dataclasses.is_dataclass(v)]
validation_before = "rislink.validation" in sys.modules
import rislink
names = json.loads(sys.argv[1])
missing = [n for n in names if n not in dir(rislink)]
for name in names:
    exec(f"from rislink import {name}")
print(json.dumps({"loaded": loaded, "dataclasses": built,
                  "validation_before": validation_before,
                  "missing_from_dir": missing}))
"""

_STAR = """
import json, sys
from rislink import *
print(json.dumps(sorted(n for n in globals() if not n.startswith("_"))))
"""


def _fresh(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120,
                          stdin=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_builds_no_dataclass_and_loads_no_oracle():
    """In a fresh interpreter `import rislink.cli` builds no dataclass and
    leaves rislink.validation unloaded; every exported name is then listed
    by dir(rislink) and imports by name, the oracles' on first use."""
    report = json.loads(_fresh(_STARTUP, json.dumps(EXPORTS)))
    assert "rislink.experiments" in report["loaded"]
    assert "rislink.validation" not in report["loaded"]
    assert not report["validation_before"]
    assert report["dataclasses"] == []
    assert report["missing_from_dir"] == []


def test_star_import_keeps_every_export():
    """`from rislink import *` in a fresh interpreter binds every exported
    name, the lazily loaded oracles included, and no deleted one."""
    names = set(json.loads(_fresh(_STAR)))
    assert set(EXPORTS) <= names
    assert not names & {"TwoPathTerms", "two_path_terms",
                        "closed_form_phases"}


def _frame_stack(p=2):
    return [np.tile(a, (p, 1)) for a in (EZ, EX, EY)]


# (type, valid constructor arguments, [(bad changes, error, message)]): one
# bad value for each rejection of the type's constructor
_CASES = [
    (UlaLayout, dict(count=4, spacing=0.5, axis=EX), [
        (dict(count=0), DomainError, "antenna count"),
        (dict(spacing=0.0), DomainError, "antenna spacing"),
        (dict(axis=[1.0, 0.0]), DomainError, "3-vector"),
        (dict(axis=[np.nan, 0.0, 0.0]), DomainError, "finite"),
        (dict(axis=2 * EX), DomainError, "ULA axis must be unit-norm"),
    ]),
    (UpaLayout, dict(rows=2, cols=3, spacing_x=0.5, spacing_y=0.4,
                     axis_x=EX, axis_y=EY), [
        (dict(cols=0), DomainError, "UPA rows and cols"),
        (dict(spacing_y=-1.0), DomainError, "UPA spacings"),
        (dict(axis_x=2 * EX), DomainError, "UPA axis_x must be unit-norm"),
        (dict(axis_y=2 * EY), DomainError, "UPA axis_y must be unit-norm"),
        (dict(axis_y=EX), DomainError, "UPA axes must be orthogonal"),
    ]),
    (TransmitterArray, dict(center=np.zeros(3),
                            layout=UlaLayout(4, 0.5, EX)), [
        (dict(center=[0.0, 0.0]), DomainError, "3-vector"),
        (dict(element_gain=-1.0), DomainError, "element gain"),
    ]),
    (RisPanel, dict(center=np.zeros(3), rows=2, cols=2, d_x=0.01, d_y=0.01,
                    normal=EZ, axis_x=EX, axis_y=EY), [
        (dict(normal=[0.0, np.inf, 1.0]), DomainError, "finite"),
        (dict(rows=0), DomainError, "panel rows and cols"),
        (dict(d_y=0.0), DomainError, "element sizes"),
        (dict(normal=2 * EZ), DomainError, "panel normal must be unit-norm"),
        (dict(axis_y=EX), DomainError, "panel frame not orthogonal"),
        (dict(reflection_coeff=1.5), DomainError, "reflection coefficient"),
        (dict(pattern_exponent=-1.0), DomainError, "pattern exponent"),
    ]),
    (PanelPoses, dict(zip(("center", "normal", "axis_x", "axis_y"),
                          [np.zeros((2, 3)), *_frame_stack()])), [
        (dict(center=np.zeros((2, 2))), DomainError, "expected"),
        (dict(center=np.zeros((3, 3))), DomainError, "disagree in shape"),
        (dict(center=np.full((2, 3), np.nan)), DomainError, "finite"),
        (dict(axis_x=2 * _frame_stack()[1]), DomainError,
         "panel axis_x must be unit-norm"),
        (dict(axis_y=_frame_stack()[1]), DomainError,
         "panel frame not orthogonal"),
    ]),
    (RadioParams, dict(wavelength=0.0286, tx_power=0.001, rx_gain=2.0), [
        (dict(wavelength=0.0), DomainError, "wavelength"),
        (dict(tx_power=-1.0), DomainError, "power and gain"),
        (dict(rx_gain=-1.0), DomainError, "power and gain"),
    ]),
    (ChannelSet, dict(h_ti=np.ones((4, 2), dtype=complex),
                      h_tr=np.ones(2, dtype=complex)), [
        (dict(h_ti=np.ones(4, dtype=complex)), DimensionMismatch, "h_ti"),
        (dict(h_tr=np.ones(3, dtype=complex)), DimensionMismatch, "h_tr"),
    ]),
    (PlaneScene, dict(h1=10.0, h2=10.0, separation=60.0,
                      feasible=[[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]]), [
        (dict(h1=-1.0), DomainError, "heights and separation"),
        (dict(separation=np.nan), DomainError, "heights and separation"),
        (dict(d_tr=0.0), DomainError, "d_tr"),
        (dict(feasible=[[(0.0, 0.0), (1.0, 0.0)]]), DomainError,
         "polygons must be"),
        (dict(feasible=[[(0.0, 0.0), (1.0, np.inf), (0.0, 1.0)]]),
         DomainError, "polygon vertices"),
    ]),
]


@pytest.mark.parametrize(
    "cls, good, bad, error, message",
    [(cls, good, bad, error, message) for cls, good, rejections in _CASES
     for bad, error, message in rejections],
    ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_value_types_check_construction_and_copies(cls, good, bad, error,
                                                   message):
    """A bad value raises the same error on construction and through
    `_replace`, which copies with changes through the constructor."""
    value = cls(**good)
    with pytest.raises(error, match=message) as built:
        cls(**{**good, **bad})
    with pytest.raises(error, match=message) as copied:
        value._replace(**bad)
    assert str(copied.value) == str(built.value)


@pytest.mark.parametrize("cls, good", [(c, g) for c, g, _ in _CASES],
                         ids=lambda v: v.__name__ if isinstance(v, type)
                         else None)
def test_value_types_are_immutable(cls, good):
    """Assigning or deleting a field raises AttributeError, as on a frozen
    dataclass; a copy with changes is a new, checked value."""
    value = cls(**good)
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    copy = value._replace()
    assert type(copy) is cls and copy is not value
    assert repr(copy).startswith(f"{cls.__name__}(")
