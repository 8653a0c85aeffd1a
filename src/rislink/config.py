"""Scene configuration: YAML profile loading, unit conversion, validation.

Powers are entered in dBm and gains in dB; everything is converted to linear
watts/ratios at the configuration boundary and stays linear internally.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(x: float) -> float:
    if x <= 0:
        raise ConfigError("cannot express a nonpositive ratio in dB")
    return 10.0 * math.log10(x)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(w):
    """Power in dBm, -inf for w <= 0; scalars give floats, arrays arrays."""
    w = np.asarray(w, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        dbm = np.where(w > 0, 10.0 * np.log10(w) + 30.0, -np.inf)
    return float(dbm) if dbm.ndim == 0 else dbm


@dataclass(frozen=True)
class SweepRanges:
    distance_min: float = 20.0
    distance_max: float = 200.0
    distance_points: int = 91
    plane_x: tuple[float, float] = (-50.0, 250.0)
    plane_y: tuple[float, float] = (0.0, 120.0)
    plane_points: int = 101
    wavelength_max: float = 0.0286
    wavelength_octaves: float = 1.0
    wavelength_points: int = 25
    element_ratio: float = 1.0 / 3.0
    total_area: float = 9.0
    robustness_extent: float = 10.0
    robustness_points: int = 41


@dataclass(frozen=True)
class SceneConfig:
    """Validated scene parameters in linear units (watts, ratios, meters)."""

    tx_power: float
    wavelength: float
    tx_gain: float
    rx_gain: float
    ris_rows: int
    ris_cols: int
    element_size_x: float
    element_size_y: float
    ris_gain: float
    reflection_coeff: float
    pattern_exponent: float
    antennas: int
    spacing: float
    d_tr: float
    height: float
    direct_link: bool
    far_field_mode: str
    sweeps: SweepRanges
    config_hash: str = ""


def default_config_text() -> str:
    return (resources.files("rislink.data") / "default.yaml").read_text()


# Every key load_config reads, by section in the order it unpacks them; a
# mapping holds subsections.
_PROFILE_KEYS = {
    "radio": ("tx_power_dbm", "wavelength_m", "tx_gain_db", "rx_gain_db"),
    "ris": ("rows", "cols", "paper_scale_rows", "paper_scale_cols",
            "element_size_x_m", "element_size_y_m", "gain_db",
            "reflection_coeff", "pattern_exponent"),
    "transmitter": ("antennas", "spacing_wavelengths"),
    "geometry": ("d_tr_m", "height_m"),
    "flags": ("direct_link", "far_field_mode"),
    "sweeps": {
        "distance": ("min_m", "max_m", "points"),
        "plane": ("x_min_m", "x_max_m", "y_min_m", "y_max_m", "points"),
        "wavelength": ("max_m", "octaves", "points", "element_ratio",
                       "total_area_m2"),
        "robustness": ("extent_m", "points"),
    },
}


def _check_keys(section, known, where: str = "") -> None:
    """Reject a key the loader would not read (a typo would otherwise fall
    back to its default silently), naming the key and its section."""
    if not isinstance(section, dict):
        raise ConfigError(f"section {where!r} must be a mapping")
    for key, value in section.items():
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in section {where!r}"
                              if where else f"unknown section {key!r}")
        if isinstance(known, dict):
            _check_keys(value, known[key], f"{where}.{key}" if where else key)


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in section {where!r}")
    return section[key]


def load_config(path: str | Path | None = None, *,
                paper_scale: bool = False,
                direct_link: bool | None = None,
                strict_far_field: bool = False,
                grid_override: int | None = None) -> SceneConfig:
    """Load and validate a YAML profile; `None` loads the bundled default.

    CLI-level switches (paper scale, direct link, strict far field, sweep
    grid size) override the file values.
    """
    if path is None:
        text = default_config_text()
    else:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        text = p.read_text()
    try:
        # libyaml's safe loader where PyYAML was built with it: the same
        # dicts and YAMLError subclasses as the pure-Python SafeLoader, and
        # about 5x faster on the bundled profile
        raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader",
                                             yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(raw, _PROFILE_KEYS)

    radio, ris, tx, geo, flags, sweeps = (raw.get(name, {})
                                          for name in _PROFILE_KEYS)

    try:
        wavelength = float(_require(radio, "wavelength_m", "radio"))
        cfg_rows = int(_require(ris, "rows", "ris"))
        cfg_cols = int(_require(ris, "cols", "ris"))
        paper_rows = int(ris.get("paper_scale_rows", 100))
        paper_cols = int(ris.get("paper_scale_cols", 100))
        dist, plane, wl, rob = (sweeps.get(name, {})
                                for name in _PROFILE_KEYS["sweeps"])
        ranges = SweepRanges(
            distance_min=float(dist.get("min_m", 20.0)),
            distance_max=float(dist.get("max_m", 200.0)),
            distance_points=int(dist.get("points", 91)),
            plane_x=(float(plane.get("x_min_m", -50.0)),
                     float(plane.get("x_max_m", 250.0))),
            plane_y=(float(plane.get("y_min_m", 0.0)),
                     float(plane.get("y_max_m", 120.0))),
            plane_points=int(plane.get("points", 101)),
            wavelength_max=float(wl.get("max_m", wavelength)),
            wavelength_octaves=float(wl.get("octaves", 1.0)),
            wavelength_points=int(wl.get("points", 25)),
            element_ratio=float(wl.get("element_ratio", 1.0 / 3.0)),
            total_area=float(wl.get("total_area_m2", 9.0)),
            robustness_extent=float(rob.get("extent_m", 10.0)),
            robustness_points=int(rob.get("points", 41)),
        )
        if grid_override is not None:
            if grid_override < 2:
                raise ConfigError("--grid must be >= 2")
            ranges = replace(ranges, distance_points=grid_override,
                             plane_points=grid_override,
                             wavelength_points=grid_override,
                             robustness_points=grid_override)

        mode = str(flags.get("far_field_mode", "warn"))
        if strict_far_field:
            mode = "strict"
        if mode not in ("warn", "strict", "off"):
            raise ConfigError(f"unknown far_field_mode {mode!r}")

        cfg = SceneConfig(
            tx_power=dbm_to_watts(float(_require(radio, "tx_power_dbm",
                                                 "radio"))),
            wavelength=wavelength,
            tx_gain=db_to_linear(float(_require(radio, "tx_gain_db",
                                                "radio"))),
            rx_gain=db_to_linear(float(_require(radio, "rx_gain_db",
                                                "radio"))),
            ris_rows=paper_rows if paper_scale else cfg_rows,
            ris_cols=paper_cols if paper_scale else cfg_cols,
            element_size_x=float(_require(ris, "element_size_x_m", "ris")),
            element_size_y=float(_require(ris, "element_size_y_m", "ris")),
            ris_gain=db_to_linear(float(_require(ris, "gain_db", "ris"))),
            reflection_coeff=float(ris.get("reflection_coeff", 1.0)),
            pattern_exponent=float(ris.get("pattern_exponent", 3.0)),
            antennas=int(_require(tx, "antennas", "transmitter")),
            spacing=float(_require(tx, "spacing_wavelengths",
                                   "transmitter")) * wavelength,
            d_tr=float(_require(geo, "d_tr_m", "geometry")),
            height=float(_require(geo, "height_m", "geometry")),
            direct_link=bool(flags.get("direct_link", False))
            if direct_link is None else direct_link,
            far_field_mode=mode,
            sweeps=ranges,
            config_hash=hashlib.sha256(text.encode()).hexdigest(),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config value error: {exc}") from exc

    _validate(cfg)
    return cfg


def _validate(cfg: SceneConfig) -> None:
    checks = [
        (cfg.wavelength > 0, "wavelength must be > 0"),
        (cfg.tx_power >= 0, "transmit power must be >= 0"),
        (cfg.ris_rows >= 1 and cfg.ris_cols >= 1, "panel grid must be >= 1x1"),
        (cfg.element_size_x > 0 and cfg.element_size_y > 0,
         "element sizes must be > 0"),
        (0.0 <= cfg.reflection_coeff <= 1.0,
         "reflection coefficient must lie in [0, 1]"),
        (cfg.pattern_exponent >= 0, "pattern exponent must be >= 0"),
        (cfg.antennas >= 1, "antenna count must be >= 1"),
        (cfg.spacing > 0, "antenna spacing must be > 0"),
        (cfg.d_tr > 0, "d_TR must be > 0"),
        (cfg.height >= 0, "height must be >= 0"),
        (cfg.sweeps.distance_points >= 2, "distance sweep needs >= 2 points"),
        (cfg.sweeps.plane_points >= 2, "plane sweep needs >= 2 points"),
        (cfg.sweeps.wavelength_points >= 2,
         "wavelength sweep needs >= 2 points"),
        (cfg.sweeps.wavelength_octaves >= 0,
         "wavelength sweep octaves must be >= 0"),
        (cfg.sweeps.robustness_points >= 2,
         "robustness sweep needs >= 2 points"),
        (cfg.sweeps.robustness_extent > 0,
         "robustness sweep extent must be > 0"),
    ]
    for ok, msg in checks:
        if not ok:
            raise ConfigError(msg)
