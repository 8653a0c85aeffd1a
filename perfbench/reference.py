"""Closed-form received powers computed from the scene profile alone.

These formulas are written out here, apart from `rislink`, so that the
benchmark's output checks do not trust the code they check.  All powers are
in watts; distances in metres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml


@dataclass(frozen=True)
class Profile:
    """The parts of a YAML scene profile the checks need, in linear units."""

    tx_power: float
    wavelength: float
    tx_gain: float
    rx_gain: float
    ris_gain: float
    rows: int
    cols: int
    paper_rows: int
    paper_cols: int
    d_x: float
    d_y: float
    reflection: float
    k: float
    antennas: int
    d_tr: float
    height: float
    distance: tuple[float, float, int]
    plane_x: tuple[float, float]
    plane_y: tuple[float, float]
    robustness: tuple[float, int]

    def elements(self, paper_scale: bool) -> int:
        if paper_scale:
            return self.paper_rows * self.paper_cols
        return self.rows * self.cols


def load_profile(path: Path) -> Profile:
    raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    radio, ris, geo = raw["radio"], raw["ris"], raw["geometry"]
    sweeps = raw["sweeps"]
    dist, plane, rob = sweeps["distance"], sweeps["plane"], sweeps["robustness"]
    return Profile(
        tx_power=10 ** ((radio["tx_power_dbm"] - 30) / 10),
        wavelength=radio["wavelength_m"],
        tx_gain=10 ** (radio["tx_gain_db"] / 10),
        rx_gain=10 ** (radio["rx_gain_db"] / 10),
        ris_gain=10 ** (ris["gain_db"] / 10),
        rows=ris["rows"], cols=ris["cols"],
        paper_rows=ris["paper_scale_rows"], paper_cols=ris["paper_scale_cols"],
        d_x=ris["element_size_x_m"], d_y=ris["element_size_y_m"],
        reflection=ris["reflection_coeff"], k=ris["pattern_exponent"],
        antennas=raw["transmitter"]["antennas"],
        d_tr=geo["d_tr_m"], height=geo["height_m"],
        distance=(dist["min_m"], dist["max_m"], dist["points"]),
        plane_x=(plane["x_min_m"], plane["x_max_m"]),
        plane_y=(plane["y_min_m"], plane["y_max_m"]),
        robustness=(rob["extent_m"], rob["points"]),
    )


def ris_power(p: Profile, elements: int, d_ti, d_ir, d_tr):
    """RIS-only power of the far-field closed-form design at the specular
    orientation: N * L^2 * a_TIR^2 * P_t with
    a_TIR^2 = G_t G_r G d_x d_y l^2 F* Gamma^2 / (64 pi^3 d_TI^2 d_IR^2)
    and F* = ((d_TI^2 + d_IR^2 - d_TR^2) / (4 d_TI d_IR) + 1/2)^k."""
    d_ti = np.asarray(d_ti, dtype=float)
    d_ir = np.asarray(d_ir, dtype=float)
    base = (d_ti**2 + d_ir**2 - d_tr**2) / (4 * d_ti * d_ir) + 0.5
    f_star = np.clip(base, 0.0, 1.0) ** p.k
    a2 = (p.tx_gain * p.rx_gain * p.ris_gain * p.d_x * p.d_y
          * p.wavelength**2 * f_star * p.reflection**2
          / (64 * math.pi**3 * d_ti**2 * d_ir**2))
    return p.antennas * elements**2 * a2 * p.tx_power


def direct_power(p: Profile, d_tr: float) -> float:
    """Friis power of the direct path with an MRT beamformer:
    N * G_t G_r l^2 / (4 pi d_TR)^2 * P_t."""
    return (p.antennas * p.tx_gain * p.rx_gain * p.wavelength**2
            / (4 * math.pi * d_tr) ** 2 * p.tx_power)


def dbm(watts):
    return 10 * np.log10(watts) + 30
