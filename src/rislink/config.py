"""Scene configuration: YAML profile loading, unit conversion, validation.

Powers are entered in dBm and gains in dB; everything is converted to linear
watts/ratios at the configuration boundary and stays linear internally.
"""

from __future__ import annotations

import functools
import hashlib
import math
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from .errors import ConfigError, DomainError
from .solvers import anti_decay_design


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(w):
    """Power in dBm, -inf for w <= 0; scalars give floats, arrays arrays."""
    w = np.asarray(w, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        dbm = np.where(w > 0, 10.0 * np.log10(w) + 30.0, -np.inf)
    return float(dbm) if dbm.ndim == 0 else dbm


class SweepRanges(NamedTuple):
    """Sweep ranges and point counts; load_config holds the defaults."""

    distance_min: float
    distance_max: float
    distance_points: int
    plane_x: tuple[float, float]
    plane_y: tuple[float, float]
    plane_points: int
    wavelength_max: float
    wavelength_octaves: float
    wavelength_points: int
    element_ratio: float
    total_area: float
    robustness_extent: float
    robustness_points: int

    @property
    def wavelength_min(self) -> float:
        """The shortest wavelength of the sweep, max_m / 2**octaves; an
        OverflowError where 2**octaves does not fit in a float."""
        return self.wavelength_max / 2.0 ** self.wavelength_octaves


class SceneConfig(NamedTuple):
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
    config_hash: str


def default_config_text() -> str:
    return (resources.files("rislink.data") / "default.yaml").read_text()


# Every key load_config reads, by section; a mapping holds subsections.
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


def _read(raw: dict, name: str, kind=float, default=None):
    """The profile value at the dotted `name` ("radio.wavelength_m",
    "sweeps.distance.points") as `kind` (float, int, bool, or db_to_linear
    or dbm_to_watts of a dB value), or `default` where the key is absent; a
    missing key with no default is an error.  A number must be finite, not
    a YAML boolean and, in dB, not overflow; an int must not drop a
    fraction, and a bool must be a YAML boolean.  Each error names the
    key."""
    *path, key = name.split(".")
    section = raw
    for part in path:
        section = section.get(part, {})
    if key not in section:
        if default is None:
            raise ConfigError(f"missing key {key!r} in section "
                              f"{'.'.join(path)!r}")
        return default
    value = section[key]
    if kind is bool or isinstance(value, bool):
        if kind is bool and isinstance(value, bool):
            return value
        want = "true or false" if kind is bool else "a number"
        raise ConfigError(f"{name} must be {want}, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if kind is int:
        if not number.is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return int(number)
    try:
        return kind(number)
    except OverflowError:
        raise ConfigError(f"{name} is too large: {value!r} overflows as a "
                          "linear value") from None


def _parse(text: str) -> dict:
    """The profile mapping of YAML text, its keys checked."""
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
    return raw


@functools.cache
def _bundled_profile() -> tuple[str, dict]:
    """The bundled profile's text and mapping, which nothing mutates."""
    text = default_config_text()
    return text, _parse(text)


def load_config(path: str | Path | None = None, *,
                paper_scale: bool = False,
                direct_link: bool | None = None,
                strict_far_field: bool = False,
                grid_override: int | None = None) -> SceneConfig:
    """Load and validate a YAML profile; `None` loads the bundled default,
    read and parsed once per process, and a file at `path` is read and
    parsed on every call, as it may change between calls.

    CLI-level switches (paper scale, direct link, strict far field, sweep
    grid size) override the file values.
    """
    if path is None:
        text, raw = _bundled_profile()
    else:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        text = p.read_text()
        raw = _parse(text)

    wavelength = _read(raw, "radio.wavelength_m")
    cfg_rows, cfg_cols = (_read(raw, f"ris.{k}", int)
                          for k in ("rows", "cols"))
    paper_rows, paper_cols = (_read(raw, f"ris.paper_scale_{k}", int, 100)
                              for k in ("rows", "cols"))
    ranges = SweepRanges(
        distance_min=_read(raw, "sweeps.distance.min_m", float, 20.0),
        distance_max=_read(raw, "sweeps.distance.max_m", float, 200.0),
        distance_points=_read(raw, "sweeps.distance.points", int, 91),
        plane_x=(_read(raw, "sweeps.plane.x_min_m", float, -50.0),
                 _read(raw, "sweeps.plane.x_max_m", float, 250.0)),
        plane_y=(_read(raw, "sweeps.plane.y_min_m", float, 0.0),
                 _read(raw, "sweeps.plane.y_max_m", float, 120.0)),
        plane_points=_read(raw, "sweeps.plane.points", int, 101),
        wavelength_max=_read(raw, "sweeps.wavelength.max_m", float,
                             wavelength),
        wavelength_octaves=_read(raw, "sweeps.wavelength.octaves", float, 1.0),
        wavelength_points=_read(raw, "sweeps.wavelength.points", int, 25),
        element_ratio=_read(raw, "sweeps.wavelength.element_ratio", float,
                            1.0 / 3.0),
        total_area=_read(raw, "sweeps.wavelength.total_area_m2", float, 9.0),
        robustness_extent=_read(raw, "sweeps.robustness.extent_m", float,
                                10.0),
        robustness_points=_read(raw, "sweeps.robustness.points", int, 41),
    )
    if grid_override is not None:
        if grid_override < 2:
            raise ConfigError("--grid must be >= 2")
        ranges = ranges._replace(distance_points=grid_override,
                                 plane_points=grid_override,
                                 wavelength_points=grid_override,
                                 robustness_points=grid_override)

    mode = raw.get("flags", {}).get("far_field_mode", "warn")
    mode = "off" if mode is False else mode  # YAML 1.1 reads `off` as false
    if mode not in ("warn", "strict", "off"):
        raise ConfigError("flags.far_field_mode must be warn, strict or off, "
                          f"got {mode!r}")
    if strict_far_field:
        mode = "strict"
    profile_direct = _read(raw, "flags.direct_link", bool, False)

    cfg = SceneConfig(
        tx_power=_read(raw, "radio.tx_power_dbm", dbm_to_watts),
        wavelength=wavelength,
        tx_gain=_read(raw, "radio.tx_gain_db", db_to_linear),
        rx_gain=_read(raw, "radio.rx_gain_db", db_to_linear),
        ris_rows=paper_rows if paper_scale else cfg_rows,
        ris_cols=paper_cols if paper_scale else cfg_cols,
        element_size_x=_read(raw, "ris.element_size_x_m"),
        element_size_y=_read(raw, "ris.element_size_y_m"),
        ris_gain=_read(raw, "ris.gain_db", db_to_linear),
        reflection_coeff=_read(raw, "ris.reflection_coeff", float, 1.0),
        pattern_exponent=_read(raw, "ris.pattern_exponent", float, 3.0),
        antennas=_read(raw, "transmitter.antennas", int),
        spacing=_read(raw, "transmitter.spacing_wavelengths") * wavelength,
        d_tr=_read(raw, "geometry.d_tr_m"),
        height=_read(raw, "geometry.height_m"),
        direct_link=profile_direct if direct_link is None else direct_link,
        far_field_mode=mode,
        sweeps=ranges,
        config_hash=hashlib.sha256(text.encode()).hexdigest(),
    )

    _validate(cfg)
    return cfg


def _validate(cfg: SceneConfig) -> None:
    sw = cfg.sweeps
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
        (cfg.height > 0, "geometry.height_m must be > 0: at 0 the "
         "transmitter and receiver sit on the panel's plane"),
        (sw.distance_min > 0, "sweeps.distance.min_m must be > 0"),
        (sw.distance_max > sw.distance_min,
         "sweeps.distance.max_m must be > sweeps.distance.min_m"),
        (sw.plane_x[1] > sw.plane_x[0],
         "sweeps.plane.x_max_m must be > sweeps.plane.x_min_m"),
        (sw.plane_y[1] > sw.plane_y[0],
         "sweeps.plane.y_max_m must be > sweeps.plane.y_min_m"),
        (sw.distance_points >= 2, "distance sweep needs >= 2 points"),
        (sw.plane_points >= 2, "plane sweep needs >= 2 points"),
        (sw.wavelength_points >= 2, "wavelength sweep needs >= 2 points"),
        (sw.wavelength_octaves >= 0, "wavelength sweep octaves must be >= 0"),
        (sw.wavelength_max > 0, "sweeps.wavelength.max_m must be > 0"),
        (sw.element_ratio > 0, "sweeps.wavelength.element_ratio must be > 0"),
        (sw.total_area > 0, "sweeps.wavelength.total_area_m2 must be > 0"),
        (sw.robustness_points >= 2, "robustness sweep needs >= 2 points"),
        (sw.robustness_extent > 0, "robustness sweep extent must be > 0"),
    ]
    for ok, msg in checks:
        if not ok:
            raise ConfigError(msg)
    key = "sweeps.wavelength."
    try:
        shortest = sw.wavelength_min
    except OverflowError:
        raise ConfigError(
            f"{key}octaves is too large: 2**{sw.wavelength_octaves} "
            "overflows a float") from None
    # the design's own rule at both ends of the sweep: the longest
    # wavelength has the largest element, the shortest the largest grid
    for lam, name in ((sw.wavelength_max, "max_m"),
                      (shortest, f"max_m / 2**{key}octaves")):
        try:
            anti_decay_design(lam, sw.element_ratio, sw.total_area)
        except DomainError as exc:
            raise ConfigError(
                f"{key}total_area_m2 ({sw.total_area} m^2) and "
                f"{key}element_ratio * {key}{name} "
                f"({sw.element_ratio} * {lam} m): {exc}") from None
