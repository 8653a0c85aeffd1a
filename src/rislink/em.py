"""Channel construction: radiation pattern, amplitude gains, exact and
far-field approximated channels, direct link, and received power.

Conventions.  `ChannelSet.h_ti` stores the L x N matrix whose (q, p) entry is
the cascaded-path coefficient with positive geometric phase exp(+j*2*pi*d/l),
i.e. the matrix that multiplies the beamformer in the received-power formula.
`h_ir` is the matching length-L row and `h_tr` the optional length-N direct
row.  The far-field amplitude split between the T->I and I->R hops is not
observable; the whole product a_TIR is carried on `h_ti` and `h_ir` entries
have unit amplitude.

The far-field link of a scene (its hop distances, a_TIR, the directions
u_TI and u_IR and the antenna phasors b_vec) is written once, in
`_farfield_link`; `farfield_channel`, `farfield_power` and the closed-form
designs of `solvers` all read it from there.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateGeometry, DimensionMismatch, DomainError,
                     FarFieldViolation, FarFieldWarning, ShadowedPanel)
from .geometry import (LinkAngles, PanelPoses, RisPanel, TransmitterArray,
                       _as_vec3, _axis_offsets, _element_planes, _norm,
                       antenna_positions, far_field_ratios, link_angles)


@dataclass(frozen=True)
class RadioParams:
    """Link-level radio constants: wavelength (m), transmit power budget (W),
    receive antenna gain (linear power ratio)."""

    wavelength: float
    tx_power: float = 1.0
    rx_gain: float = 1.0

    def __post_init__(self):
        if self.wavelength <= 0:
            raise DomainError("wavelength must be > 0")
        if self.tx_power < 0 or self.rx_gain < 0:
            raise DomainError("power and gain must be nonnegative")


def _leading_singular_pair(h_ti: np.ndarray, h_ir: np.ndarray,
                           mirrored: bool) -> tuple[np.ndarray, float]:
    """Leading left singular vector u and singular value sigma of the
    cascade C = diag(h_ir) @ h_ti (L x N), from `eigh` of its N x N Gram
    matrix G = C^H C = sum_q |h_ir[q]|^2 h_ti[q, :]^H h_ti[q, :], with no
    L x N cascade formed: the rows of w = conj(h_ti[:, :top]) * |h_ir|^2
    times h_ti give the first `top` rows of G.

    With `mirrored` (the symmetry of a mirror-symmetric exact channel,
    see `_mirrored`: column N-1-p of h_ti is column p with its panel rows
    reversed, and h_ir is invariant under that reversal), G[N-1-a, N-1-b]
    = G[a, b], so only the first ceil(N/2) rows are multiplied out and the
    rest are copies; `eigh` reads only the lower triangle.  Otherwise
    top = N.

    sigma = sqrt(max(lambda_max, 0)) and u = h_ir * (h_ti @ v_1) / sigma,
    normalized; the global phase of u makes its first significant entry
    real-positive.  A zero cascade gives sigma = 0 and u = e_1, which is
    then a leading singular vector like any other unit vector.
    """
    n = h_ti.shape[1]
    top = (n + 1) // 2 if mirrored else n
    w = np.conj(h_ti[:, :top])
    w *= np.square(np.abs(h_ir))[:, None]
    gram = np.empty((n, n), dtype=complex)
    np.matmul(w.T, h_ti, out=gram[:top])
    gram[top:] = gram[:n - top][::-1, ::-1]
    lam, vecs = np.linalg.eigh(gram)
    sigma = float(np.sqrt(max(lam[-1], 0.0)))
    if sigma == 0.0:
        u = np.zeros(h_ti.shape[0], dtype=complex)
        u[0] = 1.0
        return u, 0.0
    u = h_ir * (h_ti @ vecs[:, -1]) / sigma
    u /= np.linalg.norm(u)
    mag = np.abs(u)
    idx = int(np.argmax(mag > 1e-12 * mag.max()))
    return u * np.exp(-1j * np.angle(u[idx])), sigma


def _unit_phasors(phase: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """exp(j*phase) as cos(phase) + j*sin(phase), written into the real and
    imaginary parts of the complex array `out` (a new one if None), with no
    complex temporaries; the bits are those of np.exp(1j * phase)."""
    if out is None:
        out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


@dataclass(frozen=True)
class ChannelSet:
    """Assembled channel matrices for one scene.

    The cascade and its leading singular pair are computed on first use and
    kept, read-only; the channel arrays must not be changed after that.
    The leading pair is computed from h_ti and h_ir without the cascade.
    `mirrored` states that the channel has the symmetry of a mirror-
    symmetric exact channel (see `_leading_singular_pair`); only
    `exact_channel` sets it, from its `_mirrored` check.
    """

    h_ti: np.ndarray            # (L, N) cascaded T->RIS coefficients
    h_ir: np.ndarray            # (L,)   RIS->R coefficients
    wavelength: float
    h_tr: np.ndarray | None = None  # (N,) direct T->R row, if present
    mirrored: bool = field(default=False, kw_only=True)

    def __post_init__(self):
        if self.h_ti.ndim != 2 or self.h_ir.ndim != 1:
            raise DimensionMismatch("h_ti must be (L, N) and h_ir (L,)")
        if self.h_ti.shape[0] != self.h_ir.shape[0]:
            raise DimensionMismatch("h_ti and h_ir disagree on L")
        if self.h_tr is not None and self.h_tr.shape != (self.h_ti.shape[1],):
            raise DimensionMismatch("h_tr must have length N")
        if self.wavelength <= 0:
            raise DomainError("wavelength must be > 0")

    @property
    def num_elements(self) -> int:
        return self.h_ti.shape[0]

    @property
    def num_antennas(self) -> int:
        return self.h_ti.shape[1]

    @cached_property
    def _cascade(self) -> np.ndarray:
        cascade = self.h_ir[:, None] * self.h_ti
        cascade.flags.writeable = False
        return cascade

    def cascade(self) -> np.ndarray:
        """L x N cascade matrix (read-only): row q is h_ir[q] * h_ti[q, :]."""
        return self._cascade

    @cached_property
    def leading_pair(self) -> tuple[np.ndarray, float]:
        """(u_1, sigma_max) of the cascade: its leading left singular vector
        (read-only, first significant entry real-positive) and singular
        value, shared by the SVD design and the power bound."""
        u, sigma = _leading_singular_pair(self.h_ti, self.h_ir,
                                          self.mirrored)
        u.flags.writeable = False
        return u, sigma


@dataclass(frozen=True)
class TirGain:
    delta: float       # distance-free amplitude factor
    amplitude: float   # delta / (d_TI * d_IR)


def radiation_pattern(theta, k: float):
    """Normalized power pattern cos(theta)**k on the front half-space.

    Returns cos(theta)**k for theta in [0, pi/2] and 0 on (pi/2, pi];
    continuous at pi/2 for k > 0.  Accepts scalars or arrays.
    """
    if k < 0:
        raise DomainError("pattern exponent must be >= 0")
    t = np.asarray(theta, dtype=float)
    if np.any(t < 0) or np.any(t > np.pi):
        raise DomainError("pattern angle must lie in [0, pi]")
    front = t <= np.pi / 2
    out = np.where(front, np.cos(np.where(front, t, 0.0)) ** k, 0.0)
    return float(out) if np.isscalar(theta) or np.ndim(theta) == 0 else out


def tir_delta(g_t, g_r, g_ris, d_x, d_y, wavelength, f_t, f_r, gamma):
    """Distance-free T->RIS->R amplitude, arrays broadcast:
    delta = sqrt(G_t*G_r*G*d_x*d_y*l^2*F(theta_t)*F(theta_r)*Gamma^2
                 / (64*pi^3)).
    A pattern product known only as a whole (F*) goes in as f_t, f_r = 1."""
    return np.sqrt(g_t * g_r * g_ris * d_x * d_y * wavelength**2
                   * f_t * f_r * gamma**2 / (64 * np.pi**3))


def friis_amplitude(g_t, g_r, wavelength, d_tr):
    """Free-space amplitude sqrt(G_t*G_r)*l/(4*pi*d_TR); arrays broadcast."""
    return np.sqrt(g_t * g_r) * wavelength / (4 * np.pi * d_tr)


def _pattern_delta(tx: TransmitterArray, ris: RisPanel, radio: RadioParams,
                   theta_t, theta_r):
    """`tir_delta` of the link at the pattern angles theta_t and theta_r
    (floats, or arrays that broadcast), and where the panel sees both ends,
    F(theta_t) * F(theta_r) != 0.  Elsewhere delta is 0."""
    k = ris.pattern_exponent
    f_t = radiation_pattern(theta_t, k)
    f_r = radiation_pattern(theta_r, k)
    delta = tir_delta(tx.element_gain, radio.rx_gain, ris.element_gain,
                      ris.d_x, ris.d_y, radio.wavelength, f_t, f_r,
                      ris.reflection_coeff)
    return delta, f_t * f_r != 0.0


def _require_lit(lit) -> None:
    if not np.all(lit):
        raise ShadowedPanel("pattern gain vanishes; panel does not see both ends")


def amplitude_gain_tir(angles: LinkAngles, tx: TransmitterArray,
                       ris: RisPanel, radio: RadioParams) -> TirGain:
    """Combined per-element amplitude gain of the T->RIS->R link: `tir_delta`
    at the link's pattern angles and amplitude = delta / (d_TI * d_IR)."""
    delta, lit = _pattern_delta(tx, ris, radio, angles.theta_t,
                                angles.theta_r)
    _require_lit(lit)
    return TirGain(delta=float(delta),
                   amplitude=float(delta / (angles.d_ti * angles.d_ir)))


def _panel_phasors(ris: RisPanel, axis_x: np.ndarray, axis_y: np.ndarray,
                   u: np.ndarray,
                   wavenum: float) -> tuple[np.ndarray, np.ndarray]:
    """Column and row phasors (e_x, e_y) of the panel grid of `ris` in the
    frame (axis_x, axis_y) toward direction `u`.

    The linearized phasor exp(-j*k*(x_m*axis_x + y_n*axis_y) . u) of element
    q = n*cols + m separates into e_y[n] * e_x[m], so the L element phasors
    are outer(e_y, e_x).ravel() in row-major order.  `u` need not be unit:
    the sum u_TI + u_IR gives the two-hop phasor d_vec.  Frames and
    directions of shape (3,) give (cols,) and (rows,) phasors; (P, 3) stacks
    give one row per pose, (P, cols) and (P, rows).
    """
    return (_centred_phasors(wavenum * np.vecdot(axis_x, u), ris.cols,
                             ris.d_x),
            _centred_phasors(wavenum * np.vecdot(axis_y, u), ris.rows,
                             ris.d_y))


def _centred_phasors(scale, count: int, pitch: float) -> np.ndarray:
    """exp(-j*scale*o_i) over the centred offsets o_i of `_axis_offsets`,
    (..., count) for `scale` of shape (...).

    The offsets are exact negatives of each other, o_{count-1-i} = -o_i, so
    the phases are too: only the first ceil(count/2) phasors are evaluated,
    as `_unit_phasors` of the negated phase, and the rest are their mirrored
    conjugates.  The middle phasor of an odd count is evaluated with the
    first half: conjugating it would flip the sign of its zero imaginary
    part.  The bits are those of np.exp(-1j * (scale * offsets))."""
    offsets = _axis_offsets(count, pitch)
    half = (count + 1) // 2
    out = np.empty(np.shape(scale) + (count,), dtype=complex)
    _unit_phasors(-(scale[..., None] * offsets[:half]), out=out[..., :half])
    np.conjugate(out[..., :count // 2][..., ::-1], out=out[..., half:])
    return out


def _enforce_far_field(tx, ris, d_ti, d_ir, mode: str) -> None:
    """Apply the far-field policy to P poses at hop distances d_ti, d_ir
    (P,): "strict" raises and "warn" warns once if any pose fails the
    check, "off" skips it."""
    if mode not in ("strict", "warn", "off"):
        raise DomainError(f"unknown far-field mode {mode!r}")
    if mode == "off":
        return
    ratios = np.stack(far_field_ratios(tx, ris, d_ti, d_ir), axis=-1)
    failing = np.any(ratios < 1.0, axis=-1)
    if not failing.any():
        return
    count = (f" at {failing.sum()} of {len(failing)} poses"
             if len(failing) > 1 else "")
    msg = (f"far-field conditions fail{count}: "
           f"ratios {tuple(ratios[np.argmax(failing)].tolist())}")
    if mode == "strict":
        raise FarFieldViolation(msg)
    warnings.warn(msg, FarFieldWarning)


# Poses per block of the pose-stack sums (_theta_dot_d, farfield_power):
# their (poses, rows), (poses, cols) and (poses, N) phasor temporaries stay
# this many poses long for a map of any size.  On the paper-scale robustness
# map, 32 raised peak memory by under 1 % over row-sized calls; 64 was 2 ms
# faster per map and raised it by 1.5 %.
_POSE_BLOCK = 32


def _pose_blocks(count: int) -> list[slice]:
    """Consecutive slices of at most _POSE_BLOCK poses that cover `count`."""
    return [slice(start, start + _POSE_BLOCK)
            for start in range(0, count, _POSE_BLOCK)]


class _FarFieldLink(NamedTuple):
    """Far-field factorization pieces of P panel poses; see _farfield_link."""

    poses: PanelPoses
    d_ti: np.ndarray      # (P,)
    d_ir: np.ndarray      # (P,)
    a_tir: np.ndarray     # (P,), 0 where the panel does not see both ends
    u_ti: np.ndarray      # (P, 3)
    u_ir: np.ndarray      # (P, 3)
    antennas: np.ndarray  # (N, 3) antenna offsets from the array center
    wavenum: float

    def b_vec(self, block: slice = slice(None)) -> np.ndarray:
        """Antenna phasors b_vec = exp(j*k*Delta d^I_{T,p}) of the poses in
        `block`, (poses, N), with Delta d^I_{T,p} = (antenna_p - T) . u_TI,
        one (N, 3) @ (3, 1) product per pose, so that a pose's bits do not
        depend on the other poses of the block."""
        offsets = np.matmul(self.antennas, self.u_ti[block, :, None])[..., 0]
        return np.exp(1j * self.wavenum * offsets)


def _farfield_link(tx: TransmitterArray, ris: RisPanel, rx_position,
                   radio: RadioParams, mode: str,
                   poses: PanelPoses | None = None) -> _FarFieldLink:
    """The part of the far-field factorization shared by farfield_channel,
    farfield_power and the closed-form and two-path designs of `solvers`,
    for the grid of `ris` at P `poses`, after the far-field policy `mode` is
    applied to every pose.

    Per pose: the hop distances d_TI and d_IR, the TIR amplitude a_TIR and
    the unit directions u_TI and u_IR from the center toward T and R; also
    the antenna offsets that give the phasors b_vec, and k = 2*pi/lambda.
    The elevations are the dot products of the normals with u_TI and u_IR.
    A pose whose panel does not see both ends gets a_TIR = 0.  With `poses`
    None the link is that of `ris` itself (P = 1), and such a panel raises
    ShadowedPanel instead; closed_form_solution calls it with mode "off"
    and relies on this check for its ShadowedPanel.
    """
    rx = _as_vec3(rx_position)
    one = poses is None
    if one:
        poses = PanelPoses.of(ris)
    to_t = tx.center - poses.center
    to_r = rx - poses.center
    d_ti, d_ir = _norm(to_t), _norm(to_r)
    if np.min(d_ti) == 0.0 or np.min(d_ir) == 0.0:
        raise DegenerateGeometry("a panel center coincides with T or R")
    _enforce_far_field(tx, ris, d_ti, d_ir, mode)
    u_ti, u_ir = to_t / d_ti[:, None], to_r / d_ir[:, None]
    elevation = [np.arccos(np.clip(np.vecdot(poses.normal, u), -1.0, 1.0))
                 for u in (u_ti, u_ir)]
    delta, lit = _pattern_delta(tx, ris, radio, *elevation)
    if one:
        _require_lit(lit)
    return _FarFieldLink(poses=poses, d_ti=d_ti, d_ir=d_ir,
                         a_tir=delta / (d_ti * d_ir), u_ti=u_ti, u_ir=u_ir,
                         antennas=antenna_positions(tx) - tx.center,
                         wavenum=2 * np.pi / radio.wavelength)


def _theta_dot_d(ris: RisPanel, link: _FarFieldLink,
                 theta: np.ndarray) -> np.ndarray:
    """theta . d_vec for every pose of the link, (P,): the panel phasors
    toward u_TI + u_IR summed against the phases as
    ((e_y @ Theta) * e_x).sum(1), in O(L) per pose and one _pose_blocks
    block at a time.

    Each pose takes its own (1, rows) @ Theta product, the same call in a
    stack of any size, so its bits do not depend on the other poses; one
    (poses, rows) @ Theta product would round otherwise than a lone row."""
    phases = theta.reshape(ris.rows, ris.cols)
    u = link.u_ti + link.u_ir
    sums = []
    for block in _pose_blocks(len(u)):
        e_x, e_y = _panel_phasors(ris, link.poses.axis_x[block],
                                  link.poses.axis_y[block], u[block],
                                  link.wavenum)
        sums.append((np.matmul(e_y[:, None, :], phases)[:, 0] * e_x)
                    .sum(axis=1))
    return np.concatenate(sums)


def farfield_channel(tx: TransmitterArray, ris: RisPanel, rx_position,
                     radio: RadioParams, *, direct: bool = False,
                     mode: str = "warn") -> ChannelSet:
    """Rank-one far-field channel, assembled from the phasors and a_TIR of
    _farfield_link.

    h_ti = a_TIR * exp(j*2*pi*d_TI/l) * outer(a_vec, b_vec) and
    h_ir = exp(j*2*pi*d_IR/l) * c_vec, with a_vec and c_vec the panel
    phasors toward u_TI and u_IR.  `mode` controls far-field enforcement:
    "strict" raises, "warn" (default) warns, "off" skips.
    """
    rx = np.asarray(rx_position, dtype=float)
    link = _farfield_link(tx, ris, rx, radio, mode)
    wavenum = link.wavenum
    e_x_t, e_y_t = _panel_phasors(ris, ris.axis_x, ris.axis_y, link.u_ti[0],
                                  wavenum)
    e_x_r, e_y_r = _panel_phasors(ris, ris.axis_x, ris.axis_y, link.u_ir[0],
                                  wavenum)
    a_vec = np.outer(e_y_t, e_x_t).ravel()   # exp(j*k*Delta d^T_{I,q})
    c_vec = np.outer(e_y_r, e_x_r).ravel()   # exp(j*k*Delta d^R_{I,q})
    phase_ti = complex(np.exp(1j * wavenum * link.d_ti[0]))
    phase_ir = complex(np.exp(1j * wavenum * link.d_ir[0]))

    h_ti = float(link.a_tir[0]) * phase_ti * np.outer(a_vec, link.b_vec()[0])
    h_ir = phase_ir * c_vec

    h_tr = direct_channel(tx, rx, radio, farfield=True) if direct else None
    return ChannelSet(h_ti=h_ti, h_ir=h_ir, wavelength=radio.wavelength,
                      h_tr=h_tr)


def farfield_power(tx: TransmitterArray, ris: RisPanel, rx_position,
                   radio: RadioParams, theta: np.ndarray, v: np.ndarray, *,
                   poses: PanelPoses | None = None, mode: str = "warn"):
    """Received power of the far-field RIS link in watts, built from the
    rank-one factors without the L x N channel.

    Equals received_power(farfield_channel(..., direct=False), theta, v)
    as a_TIR^2 * |theta . d_vec|^2 * |b_vec . v|^2, where
    theta . d_vec = e_y @ theta.reshape(rows, cols) @ e_x for the panel
    phasors toward u_TI + u_IR.  That takes rows + cols + N exponentials and
    O(L + N) arithmetic.

    With `poses` the grid of `ris` is evaluated at each of the P poses and
    the result is a (P,) array; a pose whose panel does not see both ends
    gets 0 W.  The distances, far-field check, elevations and a_TIR are
    computed for all P poses at once, and the phasor sums theta . d_vec and
    b_vec . v for _POSE_BLOCK poses at a time, so one call takes a stack of
    any size while its phasor temporaries stay _POSE_BLOCK poses long;
    callers need not split it.  A pose gets the same bits in a stack of any
    size or split as in a call of its own (see _FarFieldLink.b_vec and
    _theta_dot_d).  Without `poses` the result is the float power of `ris`
    itself, and such a panel raises ShadowedPanel as farfield_channel does.
    `mode` is the far-field policy of farfield_channel, checked on every
    pose: "strict" raises if any pose fails and "warn" warns once.
    """
    theta = np.asarray(theta)
    v = np.asarray(v)
    if theta.shape != (ris.count,):
        raise DimensionMismatch(f"theta must have length {ris.count}")
    if v.shape != (tx.count,):
        raise DimensionMismatch(f"v must have length {tx.count}")
    link = _farfield_link(tx, ris, rx_position, radio, mode, poses)
    b_dot_v = np.concatenate([(link.b_vec(block) * v).sum(axis=1)
                              for block in _pose_blocks(len(link.u_ti))])
    power = (link.a_tir**2 * np.abs(_theta_dot_d(ris, link, theta))**2
             * np.abs(b_dot_v)**2)
    return float(power[0]) if poses is None else power


# Entries per block of the exact channel build (exact_channel): a block is
# as many whole antenna rows of the antenna-major (N, L) channel as fit, and
# at least one, so its distance, phase and amplitude buffers stay this size
# for a panel of any size.  The default 16 x 400 channel is one block; the
# paper-scale 16 x 10 000 one goes one row per block, and a call's traced
# peak memory, the channel included, is 1.31 times the channel's size.  One
# row per block at every scale made the default-scale distance sweep about
# 20 % slower.
_CHANNEL_BLOCK = 16384


def _plane_distances(points: np.ndarray, planes: np.ndarray,
                     out: np.ndarray, work: np.ndarray,
                     shared: dict[int, np.ndarray]) -> np.ndarray:
    """Distances from each of the points (P, 3) to every column of the
    coordinate planes (3, L), written into `out` (P, L) with `work` of
    the same shape: the squared per-axis differences are summed x + y + z,
    in the order np.linalg.norm(..., axis=-1) sums them, so the bits match
    it.  `shared` maps each axis on which every point has the same
    coordinate to its squared-difference plane (L,), which is then read
    instead of formed again."""
    def square(c, dest):
        if c in shared:
            return shared[c]
        diff = np.subtract(points[:, c, None], planes[c], out=dest)
        return np.multiply(diff, diff, out=diff)

    np.add(square(0, out), square(1, work), out=out)
    out += square(2, work)
    return np.sqrt(out, out=out)


def _mirrored(points: np.ndarray, planes: np.ndarray, rows: int,
              rx: np.ndarray) -> bool:
    """Whether reflection through a coordinate plane c = 0 maps the scene
    onto itself exactly: each point p of `points` (N, 3) onto point N-1-p,
    panel row n of the row-major element planes (3, L) of a `rows`-row panel
    onto row rows-1-n, and `rx` onto itself.

    Then, for element q and its image q' (q with its panel row reversed),
    every difference along c of a mirrored pair is the negated difference
    of the original pair, and along the two other axes the same difference,
    so the squared differences, and every distance, phase and amplitude of
    exact_channel formed from them, are equal bit for bit: row N-1-p of
    the channel is row p with its panel rows reversed, and d_IR of q' is
    that of q.  A signed zero changes no square, so +0 and -0 count as
    equal here.  The cheapest facts are checked first, on views with no
    copy: R's coordinate, then the antennas, then half the element planes
    against their reversed rows."""
    grid = planes.reshape(3, rows, -1)
    half = (rows + 1) // 2

    def reflects(a, b, c):
        return all(np.array_equal(a[i], -b[i] if i == c else b[i])
                   for i in range(3))

    return any(rx[c] == 0.0
               and reflects(points.T, points[::-1].T, c)
               and reflects(grid[:, :half], grid[:, ::-1][:, :half], c)
               for c in range(3))


def _copy_mirrored_rows(values: np.ndarray, rows: int, copied: int) -> None:
    """Write the last `copied` panel rows of the row-major (L,) `values` of
    a `rows`-row panel as its first `copied` rows in reverse order."""
    grid = values.reshape(rows, -1)
    grid[rows - copied:] = grid[:copied][::-1]


def exact_channel(tx: TransmitterArray, ris: RisPanel, rx_position,
                  radio: RadioParams, *, direct: bool = False) -> ChannelSet:
    """Per-pair geometric channel used as the validation oracle.

    Entry (q, p) of h_ti carries the exact phase 2*pi*d_{TI,p,q}/l and the
    per-pair amplitude delta / (d_{TI,p,q} * d_{IR,q}); pattern angles are
    evaluated at the panel center.
    """
    rx = np.asarray(rx_position, dtype=float)
    angles = link_angles(tx, ris, rx)  # raises on coincident centers
    gain = amplitude_gain_tir(angles, tx, ris, radio)
    lam = radio.wavelength
    wavenum = 2 * np.pi / lam

    elems = _element_planes(ris)               # (3, L)
    ants = antenna_positions(tx)               # (N, 3)
    count = ris.count
    # The channel is built antenna-major, (N, L), so that every inner loop
    # runs over the L elements, one _CHANNEL_BLOCK block of antenna rows at
    # a time; ChannelSet gets the (L, N) transpose view.  Distances come
    # from the element coordinate planes into two block-sized buffers made
    # once per call (the distances, and a work plane for the squared
    # differences, then k*d, then d*d_IR, and last k*d_IR); an axis on
    # which all antennas agree, two of three for a ULA along a coordinate
    # axis, gets one squared-difference plane for every row.  _unit_phasors
    # writes exp(j*k*d) straight into the block's rows, which are then
    # scaled by the real amplitude delta / (d_ti * d_ir) in place.  In a
    # mirror-symmetric scene (_mirrored; every equilateral scene of the
    # studies) the loop builds only the first ceil(N/2) antenna rows and
    # d_IR and h_IR only their first ceil(rows/2) panel rows: the last N//2
    # antenna rows and rows//2 panel rows are copies of their mirror images
    # with the panel rows reversed, and equal to what the build would give.
    # The ChannelSet records that as `mirrored`, so that the leading pair
    # multiplies out only half the Gram rows.
    mirror = _mirrored(ants, elems, ris.rows, rx)
    ants_copied = len(ants) // 2 if mirror else 0
    built = len(ants) - ants_copied
    rows_copied = ris.rows // 2 if mirror else 0
    evaluated = count - rows_copied * ris.cols
    step = min(built, max(1, _CHANNEL_BLOCK // count))
    dist, work = np.empty((step, count)), np.empty((step, count))
    d_ir = np.empty(count)
    _plane_distances(rx[None, :], elems[:, :evaluated],
                     d_ir[None, :evaluated], work[:1, :evaluated], {})
    _copy_mirrored_rows(d_ir, ris.rows, rows_copied)
    if np.min(d_ir) == 0.0:
        raise DegenerateGeometry("element and receiver positions coincide")
    shared = {c: np.square(ants[0, c] - elems[c]) for c in range(3)
              if np.all(ants[:, c] == ants[0, c])}
    h_ti = np.empty((len(ants), count), dtype=complex)
    for start in range(0, built, step):
        rows = h_ti[start:min(start + step, built)]
        d_ti = _plane_distances(ants[start:start + len(rows)], elems,
                                dist[:len(rows)], work[:len(rows)],
                                shared)
        if np.min(d_ti) == 0.0:
            raise DegenerateGeometry("antenna and element positions coincide")
        phase = np.multiply(wavenum, d_ti, out=work[:len(rows)])
        _unit_phasors(phase, out=rows)
        amp = np.multiply(d_ti, d_ir, out=phase)
        np.divide(gain.delta, amp, out=amp)
        rows *= amp
    panels = h_ti.reshape(len(ants), ris.rows, ris.cols)
    panels[built:] = panels[:ants_copied][::-1, ::-1]
    h_ir = np.empty(count, dtype=complex)
    _unit_phasors(np.multiply(wavenum, d_ir[:evaluated],
                              out=work[0, :evaluated]),
                  out=h_ir[:evaluated])
    _copy_mirrored_rows(h_ir, ris.rows, rows_copied)

    h_tr = direct_channel(tx, rx, radio, farfield=False) if direct else None
    return ChannelSet(h_ti=h_ti.T, h_ir=h_ir, wavelength=lam, h_tr=h_tr,
                      mirrored=mirror)


def direct_channel(tx: TransmitterArray, rx_position, radio: RadioParams,
                   *, farfield: bool = False) -> np.ndarray:
    """Direct T->R row, length N: entry p is a_TR * exp(j*2*pi*d_{TR,p}/l)
    with the Friis amplitude a_TR = sqrt(G_t*G_r)*l/(4*pi*d_TR).

    The far-field variant linearizes the per-antenna distances as
    d_TR + (antenna_p - T) . (T - R) / d_TR, the offsets of
    _FarFieldLink.b_vec toward R.
    """
    rx = np.asarray(rx_position, dtype=float)
    d_tr = float(np.linalg.norm(rx - tx.center))
    if d_tr == 0.0:
        raise DegenerateGeometry("transmitter and receiver coincide")
    lam = radio.wavelength
    a_tr = friis_amplitude(tx.element_gain, radio.rx_gain, lam, d_tr)
    ants = antenna_positions(tx)
    if farfield:
        d_p = d_tr + (ants - tx.center) @ ((tx.center - rx) / d_tr)
    else:
        d_p = np.linalg.norm(rx[None, :] - ants, axis=1)
    return a_tr * np.exp(1j * 2 * np.pi * d_p / lam)


def received_power(channels: ChannelSet, theta: np.ndarray,
                   v: np.ndarray) -> float:
    """Received useful power |h_IR^H Theta H_TI^H v (+ h_TR^H v)|^2 in watts.

    Caller guarantees unit-modulus theta and a beamformer within the power
    budget; shapes are checked here.
    """
    theta = np.asarray(theta)
    v = np.asarray(v)
    if theta.shape != (channels.num_elements,):
        raise DimensionMismatch(
            f"theta must have length {channels.num_elements}")
    if v.shape != (channels.num_antennas,):
        raise DimensionMismatch(f"v must have length {channels.num_antennas}")
    amp = (channels.h_ir * theta) @ channels.h_ti @ v
    if channels.h_tr is not None:
        amp = amp + channels.h_tr @ v
    return float(np.abs(amp) ** 2)
