"""Beamforming and phase-shift solutions: MRT, closed-form far-field designs
(with and without direct link), SVD-based projected solutions, and the
received-power upper bound."""

from __future__ import annotations

import warnings
from enum import Enum
from typing import NamedTuple

import numpy as np

from .em import (ChannelSet, RadioParams, _array_factor, _FarFieldLink,
                 _farfield_link, _panel_phasors, _tx_axes, direct_channel)
from .errors import AmbiguousSignWarning, DomainError, ZeroChannel
from .geometry import RisPanel, TransmitterArray, UlaLayout, _as_vec3, _norm

_FEAS_POWER_SLACK = 1e-9
_UNIT_TOL = 1e-12


class Method(Enum):
    CLOSED_FORM = "closed-form"
    CLOSED_FORM_TWO_PATH = "closed-form-two-path"
    SVD_PROJECTED = "svd-projected"


class Solution(NamedTuple):
    """One joint design: beamformer v, unit-modulus phases theta, and the
    power the method predicts for itself."""

    v: np.ndarray
    theta: np.ndarray
    predicted_power: float
    method: Method


def _check_feasible(v: np.ndarray, theta: np.ndarray, p_t: float) -> None:
    power = float(np.vdot(v, v).real)
    if power > p_t * (1 + _FEAS_POWER_SLACK) + _FEAS_POWER_SLACK:
        raise DomainError(f"beamformer power {power} exceeds budget {p_t}")
    if np.max(np.abs(np.abs(theta) - 1.0)) > _UNIT_TOL:
        raise DomainError("phase vector entries must be unit-modulus")


def mrt_beamforming(h_eff: np.ndarray, p_t: float) -> np.ndarray:
    """Maximum-ratio transmission against an effective 1 x N channel row:
    v = sqrt(P_t) * conj(h_eff) / ||h_eff||."""
    h_eff = np.asarray(h_eff)
    norm = np.linalg.norm(h_eff)
    if norm == 0.0:
        raise ZeroChannel("effective channel is zero")
    return np.sqrt(p_t) * np.conj(h_eff) / norm


def _link_steering(ris: RisPanel,
                   link: _FarFieldLink) -> tuple[np.ndarray, np.ndarray]:
    """The steering pair (g_y, g_x) = (axis_y . u_0, axis_x . u_0) of the
    panel's own far-field link (P = 1), u_0 = u_TI + u_IR: the panel-axis
    components of the two-hop direction that the closed-form phases steer
    toward."""
    u = link.angles.u_ti[0] + link.angles.u_ir[0]
    return np.vecdot(ris.axis_y, u), np.vecdot(ris.axis_x, u)


def closed_form_predicted_power(a_tir, n: int, l: int, p_t: float):
    """Received power achieved by the far-field closed form,
    N * L^2 * a_TIR^2 * P_t; a_tir may be an array."""
    return n * l**2 * a_tir**2 * p_t


def _closed_form_design(tx: TransmitterArray, ris: RisPanel,
                        link: _FarFieldLink):
    """The closed-form design of the panel's own far-field link as the two
    steerings em.farfield_power takes: the pair of _link_steering for the
    phases, and for the beamformer of closed_form_solution axis . u_TI
    along each axis of em._tx_axes (a scalar for a ULA, a pair for a UPA)."""
    tx_steering = [np.vecdot(axis, link.angles.u_ti[0])
                   for _, _, axis in _tx_axes(tx)]
    return (_link_steering(ris, link),
            tx_steering[0] if len(tx_steering) == 1 else tuple(tx_steering))


def closed_form_solution(tx: TransmitterArray, ris: RisPanel, rx_position,
                         radio: RadioParams) -> Solution:
    """The far-field closed-form design of one scene, whose steerings
    _closed_form_design gives: the phases, one unit-modulus entry per
    element, are the conjugate of the channel's two-hop element phasor
    d_vec (em._panel_phasors toward u_TI + u_IR of the far-field link), and
    the beamformer is v = sqrt(P_t/N) * conj(b_vec).  A panel that does not
    see both ends raises ShadowedPanel."""
    link = _farfield_link(tx, ris, rx_position, radio)
    theta = np.conj(_panel_phasors(
        ris, link.angles.u_ti[0] + link.angles.u_ir[0], link.wavenum))
    v = np.sqrt(radio.tx_power / tx.count) * np.conj(link.b_vec()[0])
    predicted = closed_form_predicted_power(float(link.a_tir[0]), tx.count,
                                            ris.count, radio.tx_power)
    _check_feasible(v, theta, radio.tx_power)
    return Solution(v=v, theta=theta, predicted_power=predicted,
                    method=Method.CLOSED_FORM)


def two_path_o(n: int, spacing: float, cos_mu_ti, cos_mu_tr,
               wavelength: float):
    """Coherence factor O = sin(N*u) / (N*sin(u)) between the RIS and
    direct paths, u = spacing*(cos(mu_TI) - cos(mu_TR))*pi/l, from the
    cosines of the angles between the array axis and the arrival
    directions at the transmitter (I->T and R->T).

    It is the ULA's em._array_factor at cos(mu_TI) against cos(mu_TR),
    over N: exactly 1 where the cosines agree, +-1 at the zeros of sin(u).
    The cosines broadcast as numpy arrays; scalars give a float, and a NaN
    cosine gives NaN.
    """
    if n < 1:
        raise DomainError("antenna count must be >= 1")
    o = _array_factor(n, spacing, cos_mu_ti, cos_mu_tr,
                      2 * np.pi / wavelength) / n
    return float(o) if np.ndim(o) == 0 else o


def two_path_power_closed_form(a_tir, a_tr, o, n: int, l: int, p_t: float):
    """Received power of the optimal two-path design:
    N*L^2*a_TIR^2*P_t + N*a_TR^2*P_t + 2*N*L*a_TR*a_TIR*|O|*P_t (the sign
    fold in the phases turns the cross term positive).  Amplitudes and O
    broadcast as numpy arrays; scalars give a float."""
    if np.any(a_tir < 0) or np.any(a_tr < 0):
        raise DomainError("amplitudes must be nonnegative")
    power = (closed_form_predicted_power(a_tir, n, l, p_t) + n * a_tr**2 * p_t
             + 2 * n * l * a_tr * a_tir * np.abs(o) * p_t)
    return float(power) if np.ndim(power) == 0 else power


def two_path_solution(tx: TransmitterArray, ris: RisPanel, rx_position,
                      radio: RadioParams) -> Solution:
    """Two-path closed-form design: the RIS-only phases rotated by the
    constant offset pi/2*(O/|O| - 1) - (2*pi/l)*(d_TI + d_IR - d_TR), which
    phase-aligns the RIS path with the direct path, with O of two_path_o,
    and an MRT beamformer against the far-field effective channel row.
    Where |O| < 1e-12 the sign fold is undefined: the +1 branch is taken
    with an AmbiguousSignWarning (the cross term vanishes).

    The hop distances and cos(mu_TI) = axis . u_TI come from the far-field
    link, and d_TR and cos(mu_TR) from the one vector T - R.  The row is
    formed from the rank-one factors in O(N), with no L x N channel:
    a_TIR * exp(j*k*(d_TI + d_IR)) * (theta . d_vec) * b_vec + h_TR with
    the far-field direct row h_TR, where theta . d_vec is L times the
    offset rotation, as the RIS-only phases steer toward the link's own
    steering pair.  A UPA transmitter raises DomainError; no far-field
    condition is checked.
    """
    lay = tx.layout
    if not isinstance(lay, UlaLayout):
        raise DomainError("two-path closed form is derived for ULA layouts")
    link = _farfield_link(tx, ris, rx_position, radio)
    h_tr = direct_channel(tx, rx_position, radio, farfield=True)
    to_t = tx.center - _as_vec3(rx_position)
    d_ti, d_ir = float(link.angles.d_ti[0]), float(link.angles.d_ir[0])
    d_tr = float(_norm(to_t))
    o = two_path_o(lay.count, lay.spacing,
                   float(lay.axis @ link.angles.u_ti[0]),
                   float(lay.axis @ to_t) / d_tr, radio.wavelength)
    if abs(o) < 1e-12:
        warnings.warn("O = 0: sign fold undefined, using +1 branch "
                      "(cross term vanishes)", AmbiguousSignWarning)
        sign = 1.0
    else:
        sign = np.sign(o)
    offset = (np.pi / 2 * (sign - 1.0)
              - 2 * np.pi / radio.wavelength * (d_ti + d_ir - d_tr))
    rotation = np.exp(1j * float(offset))
    theta = np.conj(_panel_phasors(
        ris, link.angles.u_ti[0] + link.angles.u_ir[0],
        link.wavenum)) * rotation
    a_tir = float(link.a_tir[0])
    ris_amp = (a_tir * np.exp(1j * link.wavenum * (d_ti + d_ir))
               * (rotation * ris.count))
    row = ris_amp * link.b_vec()[0] + h_tr
    v = mrt_beamforming(row, radio.tx_power)
    a_tr = float(np.abs(h_tr[0]))
    predicted = two_path_power_closed_form(a_tir, a_tr, o,
                                           tx.count, ris.count,
                                           radio.tx_power)
    _check_feasible(v, theta, radio.tx_power)
    return Solution(v=v, theta=theta, predicted_power=predicted,
                    method=Method.CLOSED_FORM_TWO_PATH)


def svd_solution(channels: ChannelSet, p_t: float) -> Solution:
    """SVD-based design: project the leading left singular vector u_1 of the
    cascade channel onto unit-modulus phases, theta = conj(u_1) / |u_1|
    (1 where u_1 is 0), then MRT against the effective row
    theta @ C (+ h_TR)."""
    u1, _ = channels.leading_pair
    mag = np.abs(u1)
    theta = np.ones(len(u1), dtype=complex)
    np.divide(np.conj(u1), mag, out=theta, where=mag != 0)
    row = theta @ channels.h_ti
    if channels.h_tr is not None:
        row = row + channels.h_tr
    v = mrt_beamforming(row, p_t)
    _check_feasible(v, theta, p_t)
    # row is the design's effective channel, so |row v|^2 is its power
    return Solution(v=v, theta=theta,
                    predicted_power=float(np.abs(row @ v) ** 2),
                    method=Method.SVD_PROJECTED)


def power_upper_bound(channels: ChannelSet, p_t: float) -> float:
    """Received-power ceiling over unit-modulus phases and ||v||^2 <= P_t.

    RIS link only: |theta^T C v| <= sqrt(L) * sigma_max(C) * ||v|| gives
    L * sigma_max^2 * P_t.  With the direct row h_TR the triangle inequality
    gives |theta^T C v + h_TR v| <= (sqrt(L) * sigma_max + ||h_TR||) * ||v||,
    so (sqrt(L) * sigma_max + ||h_TR||)^2 * P_t.
    """
    _, sigma = channels.leading_pair
    if channels.h_tr is None:
        return float(channels.num_elements * sigma**2 * p_t)
    amp = np.sqrt(channels.num_elements) * sigma + np.linalg.norm(channels.h_tr)
    return float(amp**2 * p_t)


class GridDesign(NamedTuple):
    """Panel grid produced by the anti-decay design rule."""

    rows: int
    cols: int
    d_x: float
    d_y: float

    @property
    def count(self) -> int:
        return self.rows * self.cols


def anti_decay_design(wavelength: float, ratio: float,
                      total_area: float) -> GridDesign:
    """Wavelength-tracking panel design that keeps the RIS-link power flat:
    element side = ratio * wavelength, and the square grid is the largest
    one that fits the total area (rounded down).  Each argument must be
    finite and > 0, and the area must hold one element and finitely many."""
    # written so that NaN fails the check
    if not all(0 < v < np.inf for v in (wavelength, ratio, total_area)):
        raise DomainError("wavelength, ratio and total area must be finite "
                          "and > 0")
    d = ratio * wavelength
    with np.errstate(over="ignore", divide="ignore"):
        side = np.floor(np.sqrt(total_area) / d)
    if side == np.inf:
        raise DomainError("the element side is too small for a finite grid")
    if side < 1:
        raise DomainError("the area is too small for one element")
    return GridDesign(rows=int(side), cols=int(side), d_x=d, d_y=d)
