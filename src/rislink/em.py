"""Channel construction: radiation pattern, amplitude gains, exact and
far-field approximated channels, direct link, and received power.

Conventions.  `ChannelSet.h_ti` stores the whole L x N cascade C =
diag(h_IR) H_TI: its (q, p) entry is the coefficient of the path from
antenna p through element q to R, with the positive geometric phase
exp(+j*2*pi*(d_TI + d_IR)/l) of the two hops, so the RIS link's amplitude
is theta @ C @ v.  No separate h_IR factor is kept: the received power
depends on the RIS link only through C.  `h_tr` is the optional length-N
direct row.

The scene route (`scene_route`, a `SceneRoute`) is the line-of-sight
geometry of one scene with the panel at its own pose, `geometry.link_angles`,
then `amplitude_gain_tir` (the distance-free amplitude delta), with the
antenna phasors b_vec and the transmitter, panel, receiver and radio it was
built from.  A caller routes a scene once and passes the route to
`exact_channel`, which reads its delta, to `farfield_channel`, and to the
closed-form and two-path designs of `solvers`.  `farfield_power` alone
takes a stack of P panel poses besides the route: it evaluates the route's
closed-form design, whose steerings `_design_steering` gives, with the
panel moved to each pose.  None of them checks the far-field conditions;
`geometry.far_field_check` is that check.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateGeometry, DimensionMismatch, DomainError,
                     ShadowedPanel)
from .geometry import (LinkAngles, PanelPoses, RisPanel, TransmitterArray,
                       UlaLayout, _antenna_offsets, _as_vec3, _axis_offsets,
                       _Value, antenna_positions, element_positions,
                       link_angles)


class RadioParams(_Value):
    """Link-level radio constants: wavelength (m), transmit power budget (W),
    receive antenna gain (linear power ratio)."""

    wavelength: float
    tx_power: float
    rx_gain: float

    def __init__(self, wavelength: float, tx_power: float = 1.0,
                 rx_gain: float = 1.0):
        if wavelength <= 0:
            raise DomainError("wavelength must be > 0")
        if tx_power < 0 or rx_gain < 0:
            raise DomainError("power and gain must be nonnegative")
        self.__dict__.update(wavelength=wavelength, tx_power=tx_power,
                             rx_gain=rx_gain)


def _leading_singular_pair(c: np.ndarray,
                           mirrored: bool) -> tuple[np.ndarray, float]:
    """Leading left singular vector u and singular value sigma of the
    cascade C (L x N), from `eigh` of its N x N Gram matrix G = C^H C: the
    rows of conj(C[:, :top]).T times C are the first `top` rows of G.

    With `mirrored` (the symmetry of a mirror-symmetric exact channel,
    see `_mirrored`: column N-1-p of C is column p with its panel rows
    reversed), G[N-1-a, N-1-b] = G[a, b], so only the first ceil(N/2) rows
    are multiplied out and the rest are copies; `eigh` reads only the lower
    triangle.  Otherwise top = N.

    sigma = sqrt(max(lambda_max, 0)) and u = C @ v_1 / sigma, normalized;
    the global phase of u makes its first significant entry real-positive.
    A zero cascade gives sigma = 0 and u = e_1, which is then a leading
    singular vector like any other unit vector.  The two quotients by a
    real are products by its reciprocal on the real and imaginary parts
    (_scale_parts), which have the bits of numpy's complex quotient.
    """
    n = c.shape[1]
    top = (n + 1) // 2 if mirrored else n
    gram = np.empty((n, n), dtype=complex)
    np.matmul(np.conj(c[:, :top]).T, c, out=gram[:top])
    gram[top:] = gram[:n - top][::-1, ::-1]
    lam, vecs = np.linalg.eigh(gram)
    sigma = float(np.sqrt(max(lam[-1], 0.0)))
    if sigma == 0.0:
        u = np.zeros(c.shape[0], dtype=complex)
        u[0] = 1.0
        return u, 0.0
    u = _scale_parts(c @ vecs[:, -1], 1 / sigma)
    _scale_parts(u, 1 / np.linalg.norm(u))
    # u is unit-norm, so no entry exceeds 2 and an entry 0 above 2e-12 is
    # above 1e-12 times the largest: the scan is needed only below that
    idx = 0
    if not abs(u[0]) > 2e-12:
        mag = np.abs(u)
        idx = int(np.argmax(mag > 1e-12 * mag.max()))
    return u * np.exp(-1j * np.angle(u[idx])), sigma


def _scale_parts(z: np.ndarray, r) -> np.ndarray:
    """The complex vector z with its real and imaginary parts multiplied in
    place by the real r (a scalar, or an array of z's length), returned.
    With r = 1/s this is numpy's quotient z / s by a real s: numpy divides
    by s + 0j on the branch of Smith's method with ratio 0, which forms
    (re + im*0) * (1/s) and (im - re*0) * (1/s), so only a part that is an
    exact zero can differ, and only in its sign."""
    # a scalar scales both parts in one contiguous pass
    for part in ((z.view(float),) if np.ndim(r) == 0 else (z.real, z.imag)):
        part *= r
    return z


class ChannelSet(_Value):
    """Assembled channel matrices for one scene: the one L x N cascade C
    and the optional direct row.

    The leading singular pair of C is computed on first use and kept,
    read-only; the channel arrays must not be changed after that.
    `mirrored` states that the channel has the symmetry of a mirror-
    symmetric exact channel (see `_leading_singular_pair`); only
    `exact_channel` sets it, from its `_mirrored` check.  The scene route
    a channel was built from is not kept: a caller that designs for the
    scene passes the same `SceneRoute` to the design.
    """

    h_ti: np.ndarray  # (L, N) cascade C, (q, p): antenna p -> element q -> R
    h_tr: np.ndarray | None  # (N,) direct T->R row, if present
    mirrored: bool

    def __init__(self, h_ti: np.ndarray, h_tr: np.ndarray | None = None, *,
                 mirrored: bool = False):
        self.__dict__.update(h_ti=h_ti, h_tr=h_tr, mirrored=mirrored)
        self.__post_init__()

    def __post_init__(self):
        """The shape checks of the fields; a method of its own, so that the
        benchmark's tracer can count the entries of every channel built."""
        if self.h_ti.ndim != 2:
            raise DimensionMismatch("h_ti must be (L, N)")
        if self.h_tr is not None and self.h_tr.shape != (self.h_ti.shape[1],):
            raise DimensionMismatch("h_tr must have length N")

    @property
    def num_elements(self) -> int:
        return self.h_ti.shape[0]

    @property
    def num_antennas(self) -> int:
        return self.h_ti.shape[1]

    def cascade(self) -> np.ndarray:
        """The L x N cascade C as a read-only view of h_ti, no copy."""
        view = self.h_ti.view()
        view.flags.writeable = False
        return view

    @cached_property
    def leading_pair(self) -> tuple[np.ndarray, float]:
        """(u_1, sigma_max) of the cascade: its leading left singular vector
        (read-only, first significant entry real-positive) and singular
        value, shared by the SVD design and the power bound."""
        u, sigma = _leading_singular_pair(self.h_ti, self.mirrored)
        u.flags.writeable = False
        return u, sigma


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
    With f_t = f_r = 1 it is the delta_1 of the studies' specular power."""
    return np.sqrt(g_t * g_r * g_ris * d_x * d_y * wavelength**2
                   * f_t * f_r * gamma**2 / (64 * np.pi**3))


def friis_amplitude(g_t, g_r, wavelength, d_tr):
    """Free-space amplitude sqrt(G_t*G_r)*l/(4*pi*d_TR); arrays broadcast."""
    return np.sqrt(g_t * g_r) * wavelength / (4 * np.pi * d_tr)


def amplitude_gain_tir(angles: LinkAngles, tx: TransmitterArray,
                       ris: RisPanel, radio: RadioParams) -> np.ndarray:
    """The distance-free amplitude delta (`tir_delta`) of the T->RIS->R
    link at the pattern angles of each pose of `angles`, (P,); a pose's
    a_TIR is delta / (d_TI * d_IR).  A pose that does not see both ends,
    F(theta_t) * F(theta_r) = 0, gets 0 in a stack, and a lone panel
    (P = 1) raises ShadowedPanel."""
    k = ris.pattern_exponent
    f_t = radiation_pattern(angles.theta_t, k)
    f_r = radiation_pattern(angles.theta_r, k)
    if len(f_t) == 1 and f_t[0] * f_r[0] == 0.0:
        raise ShadowedPanel("pattern gain vanishes; panel does not see both ends")
    return tir_delta(tx.element_gain, radio.rx_gain, ris.element_gain,
                     ris.d_x, ris.d_y, radio.wavelength, f_t, f_r,
                     ris.reflection_coeff)


def _panel_phasors(route: SceneRoute) -> np.ndarray:
    """The linearized two-hop element phasors d_vec of the route,
    exp(-j*k*(x_m*axis_x + y_n*axis_y) . (u_TI + u_IR)), (L,) in row-major
    order: the phasor of element q = n*cols + m is e_y[n] * e_x[m], each
    axis exp(-j*k*g*o_i) over the centred offsets o_i of `_axis_offsets`
    at the panel steering (g_y, g_x) of _design_steering."""
    (g_y, g_x), _ = _design_steering(route)
    ris, wavenum = route.ris, route.wavenum
    e_y, e_x = (np.exp(-1j * (wavenum * g * _axis_offsets(count, pitch)))
                for g, count, pitch in ((g_y, ris.rows, ris.d_y),
                                        (g_x, ris.cols, ris.d_x)))
    return np.outer(e_y, e_x).ravel()


class SceneRoute(NamedTuple):
    """The line-of-sight route of one scene, the panel at its own pose, and
    the part of the far-field factorization built on it; see scene_route."""

    tx: TransmitterArray
    ris: RisPanel
    rx: np.ndarray      # (3,) receiver position, checked by _as_vec3
    radio: RadioParams
    d_ti: float         # center-to-T distance
    d_ir: float         # center-to-R distance
    u_ti: np.ndarray    # (3,) unit direction from the center toward T
    u_ir: np.ndarray    # (3,) unit direction from the center toward R
    delta: float        # amplitude_gain_tir, the distance-free a_TIR
    a_tir: float        # delta / (d_TI * d_IR)
    b_vec: np.ndarray   # (N,) antenna phasors exp(j*k*(antenna_p - T) . u_TI)
    wavenum: float


def scene_route(tx: TransmitterArray, ris: RisPanel, rx_position,
                radio: RadioParams) -> SceneRoute:
    """The scene route of `ris` at its own pose (link_angles, then
    amplitude_gain_tir), which exact_channel, farfield_channel,
    farfield_power and the closed-form and two-path designs of `solvers`
    read, so that a scene is routed once for all of them.

    The hop distances, delta, a_TIR and the directions u_TI and u_IR of
    the route; the antenna phasors b_vec, from the antenna offsets
    antenna_p - T of _antenna_offsets; and k = 2*pi/lambda.  A panel that
    does not see both ends raises ShadowedPanel, and a center on T or R
    DegenerateGeometry.
    """
    rx = _as_vec3(rx_position)
    ang = link_angles(tx, rx, PanelPoses.of(ris))
    delta = amplitude_gain_tir(ang, tx, ris, radio)
    wavenum = 2 * np.pi / radio.wavelength
    offsets = np.matmul(_antenna_offsets(tx), ang.u_ti[:, :, None])[..., 0]
    return SceneRoute(tx, ris, rx, radio, ang.d_ti[0], ang.d_ir[0],
                      ang.u_ti[0], ang.u_ir[0], delta[0],
                      (delta / (ang.d_ti * ang.d_ir))[0],
                      np.exp(1j * wavenum * offsets)[0], wavenum)


def _sin_ratio(y: np.ndarray) -> np.ndarray:
    """sin(y)/y elementwise, 1 at y = 0."""
    return np.divide(np.sin(y), y, out=np.ones_like(y), where=y != 0)


def _array_factor(n: int, pitch: float, c, g, wavenum: float) -> np.ndarray:
    """The real uniform-array sum sum_i exp(-j*k*(c - g)*o_i) over the n
    centred offsets o_i of `_axis_offsets(n, pitch)`, elementwise in `c`:
    the panel-axis sum of phasors toward steering component c against
    phases that steer toward g.

    It is sin(n*u)/sin(u) with u = k*pitch*(c - g)/2 (the uniform-array
    factor).  u is folded into [-pi/2, pi/2] as u' = u - m*pi, m the
    nearest integer to u/pi, which multiplies the sum by (-1)^(m*(n-1)),
    and the sum is written n * f(n*u')/f(u') with f = _sin_ratio: exactly n
    at u' = 0, and f(u') >= 2/pi never vanishes.  The sign is read from
    the integer parities of m and n - 1; a NaN u gives NaN."""
    u = wavenum * pitch * (np.asarray(c, dtype=float) - g) / 2
    m = np.rint(u / np.pi)
    u -= m * np.pi
    with np.errstate(invalid="ignore"):  # a NaN m casts to some integer
        sign = 1 - 2 * (m.astype(np.int64) & (n - 1) & 1)
    return sign * n * _sin_ratio(n * u) / _sin_ratio(u)


def _tx_axes(tx: TransmitterArray) -> list[tuple[int, float, np.ndarray]]:
    """(count, spacing, axis) of each axis of the transmit array, in the
    order of its steering components axis . u_TI: a ULA's one axis, or a
    UPA's rows along axis_y and cols along axis_x."""
    lay = tx.layout
    if isinstance(lay, UlaLayout):
        return [(lay.count, lay.spacing, lay.axis)]
    return [(lay.rows, lay.spacing_y, lay.axis_y),
            (lay.cols, lay.spacing_x, lay.axis_x)]


def _design_steering(route: SceneRoute):
    """The two steerings of the closed-form design of the route, real
    scalars: the phases steer toward [axis_y . u_0, axis_x . u_0] of
    u_0 = u_TI + u_IR, and the beamformer toward axis . u_TI along each
    axis of _tx_axes."""
    u = route.u_ti + route.u_ir
    return ([np.vecdot(route.ris.axis_y, u), np.vecdot(route.ris.axis_x, u)],
            [np.vecdot(axis, route.u_ti) for _, _, axis in _tx_axes(route.tx)])


def _axis_factors(axes, u, steering, wavenum: float) -> np.ndarray:
    """A phasor sum over a uniform grid that separates along its axes: the
    product over the axes (count, pitch, axis) of _array_factor at axis . u
    against the matching steering component.  Elementwise over stacks of
    directions and axes (P, 3), so a pose's bits do not depend on the
    others."""
    return math.prod(_array_factor(count, pitch, np.vecdot(axis, u), g,
                                   wavenum)
                     for (count, pitch, axis), g in zip(axes, steering))


def _theta_dot_d(ris: RisPanel, poses: PanelPoses, angles: LinkAngles,
                 steering, wavenum: float) -> np.ndarray:
    """theta . d_vec of the grid of `ris` at each of the P `poses`, (P,),
    real, from their link_angles `angles`, for the closed-form phases of
    the steering pair (g_y, g_x), the conjugate panel phasors toward a
    direction with those panel-axis components: theta and each pose's
    d_vec (_panel_phasors toward its u_TI + u_IR) separate along the panel
    axes, so this is _axis_factors of the pose's axes at u_TI + u_IR,
    exactly L at the design's own pose."""
    return _axis_factors([(ris.rows, ris.d_y, poses.axis_y),
                          (ris.cols, ris.d_x, poses.axis_x)],
                         angles.u_ti + angles.u_ir, steering, wavenum)


def farfield_channel(route: SceneRoute, *, direct: bool = False) -> ChannelSet:
    """Rank-one far-field channel of the scene of `route`, assembled from
    the route's phasors and a_TIR.

    C = a_TIR * exp(j*2*pi*(d_TI + d_IR)/l) * outer(d_vec, b_vec), with
    d_vec the panel phasors toward u_TI + u_IR, built whether or not the
    scene meets the far-field conditions.
    """
    d_vec = _panel_phasors(route)
    hops = complex(np.exp(1j * route.wavenum * (route.d_ti + route.d_ir)))
    h_ti = float(route.a_tir) * hops * np.outer(d_vec, route.b_vec)
    h_tr = (direct_channel(route.tx, route.rx, route.radio, farfield=True)
            if direct else None)
    return ChannelSet(h_ti=h_ti, h_tr=h_tr)


def farfield_power(route: SceneRoute, poses: PanelPoses) -> np.ndarray:
    """Received power in watts, (P,), of the closed-form design of the
    route (the theta and v of solvers.closed_form_solution), with the grid
    of the route's panel placed at each of the P `poses`, without the
    L x N channel.

    The design's two steerings come from the route (_design_steering), and
    the poses get their own link_angles and amplitude_gain_tir.  A pose's
    power equals received_power(farfield_channel(route), theta, v) of the
    panel moved to that pose, as
    a_TIR^2 * (theta . d_vec)^2 * (sqrt(P_t/N) * AF_T)^2: theta . d_vec
    (_theta_dot_d) and the antenna sum AF_T = b_vec . conj(b_0), exactly L
    and N at the design's own pose, are _axis_factors in closed form, O(1)
    per pose, so a pose gets the same bits in a stack of any size as
    alone.  A pose whose panel does not see both ends gets 0 W, also in a
    stack of one pose.
    """
    tx, ris, radio = route.tx, route.ris, route.radio
    steering, tx_steering = _design_steering(route)
    angles = link_angles(tx, route.rx, poses)
    try:
        delta = amplitude_gain_tir(angles, tx, ris, radio)
    except ShadowedPanel:
        delta = np.zeros(1)   # a stack of one pose, which is shadowed
    a_tir = delta / (angles.d_ti * angles.d_ir)
    b_dot_v = (np.sqrt(radio.tx_power / tx.count)
               * _axis_factors(_tx_axes(tx), angles.u_ti, tx_steering,
                               route.wavenum))
    theta_dot_d = _theta_dot_d(ris, poses, angles, steering, route.wavenum)
    return a_tir**2 * theta_dot_d**2 * b_dot_v**2


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


def _tangent_phasors(half: np.ndarray, den: np.ndarray, scale: float,
                     out: np.ndarray) -> np.ndarray:
    """scale / den * exp(2j*half) written into the complex `out` of half's
    shape, from t = tan(half) alone: cos 2h = (1 - t**2)/(1 + t**2) and
    sin 2h = 2t/(1 + t**2), the factor 1/(1 + t**2) folded into the real
    amplitude scale / den; `half` and `den` are overwritten.

    numpy computes float64 cos and sin one value at a time through libm,
    but tan through its SIMD kernels, so the one tangent costs a fraction
    of the cos/sin pair.  Each entry is within 4 eps of its modulus of
    scale / den * np.exp(2j*half) (at most 2.97 eps over 10 million random
    phases up to 1e9 rad).  1 + t**2 cannot overflow: the closest a double comes to an
    odd multiple of pi/2 is about 4.7e-19, where |t| is 2.13e18
    (tan(6381956970095103 * 2**797)), so t**2 stays below 5e36."""
    t = np.tan(half, out=half)
    t_sq = np.multiply(t, t, out=out.real)
    den *= np.add(t_sq, 1.0, out=out.imag)
    amp = np.divide(scale, den, out=den)
    np.subtract(1.0, t_sq, out=out.real)
    out.real *= amp
    t += t
    np.multiply(t, amp, out=out.imag)
    return out


def exact_channel(route: SceneRoute, *, direct: bool = False) -> ChannelSet:
    """Per-pair geometric channel of the scene of `route`, used as the
    validation oracle.

    Entry (q, p) of the cascade carries the exact phase
    2*pi*(d_{TI,p,q} + d_{IR,q})/l of its two hops and the per-pair
    amplitude delta / (d_{TI,p,q} * d_{IR,q}); pattern angles are evaluated
    at the panel center, by the route, whose delta this reads.
    """
    tx, ris, rx, radio = route.tx, route.ris, route.rx, route.radio
    delta, wavenum = route.delta, route.wavenum

    elems = element_positions(ris)             # (3, L)
    ants = antenna_positions(tx)               # (N, 3)
    count = ris.count
    # The channel is built antenna-major, (N, L), so that every inner loop
    # runs over the L elements, one _CHANNEL_BLOCK block of antenna rows at
    # a time; ChannelSet gets the (L, N) transpose view.  Distances come
    # from the element coordinate planes into two block-sized buffers made
    # once per call (the distances, then d*d_IR, and a work plane for the
    # squared differences, then the half phase k/2*(d + d_IR)); an axis on
    # which all antennas agree, two of three for a ULA along a coordinate
    # axis, gets one squared-difference plane for every row.  The phasors
    # times the amplitude delta / (d * d_IR) go straight into the real and
    # imaginary parts of the block's rows from the tangent of the half
    # phase (_tangent_phasors), with no complex temporaries.  In a
    # mirror-symmetric scene (_mirrored; every equilateral scene of the
    # studies) the loop builds only the first ceil(N/2) antenna rows: the
    # last N//2 are copies of their mirror images with the panel rows
    # reversed, and equal to what the build would give.  The ChannelSet
    # records that as `mirrored`, so that the leading pair multiplies out
    # only half the Gram rows.
    mirror = _mirrored(ants, elems, ris.rows, rx)
    ants_copied = len(ants) // 2 if mirror else 0
    built = len(ants) - ants_copied
    step = min(built, max(1, _CHANNEL_BLOCK // count))
    dist, work = np.empty((step, count)), np.empty((step, count))
    d_ir = _plane_distances(rx[None, :], elems, np.empty((1, count)),
                            work[:1], {})[0]
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
        half = np.add(d_ti, d_ir, out=work[:len(rows)])
        half *= wavenum / 2
        _tangent_phasors(half, np.multiply(d_ti, d_ir, out=d_ti), delta,
                         rows)
    panels = h_ti.reshape(len(ants), ris.rows, ris.cols)
    panels[built:] = panels[:ants_copied][::-1, ::-1]

    h_tr = direct_channel(tx, rx, radio, farfield=False) if direct else None
    return ChannelSet(h_ti=h_ti.T, h_tr=h_tr, mirrored=mirror)


def direct_channel(tx: TransmitterArray, rx_position, radio: RadioParams,
                   *, farfield: bool = False) -> np.ndarray:
    """Direct T->R row, length N: entry p is a_TR * exp(j*2*pi*d_{TR,p}/l)
    with the Friis amplitude a_TR = sqrt(G_t*G_r)*l/(4*pi*d_TR).

    The far-field variant linearizes the per-antenna distances as
    d_TR + (antenna_p - T) . (T - R) / d_TR, with the offsets
    antenna_p - T of _antenna_offsets, as scene_route's b_vec takes them.
    """
    rx = np.asarray(rx_position, dtype=float)
    d_tr = float(np.linalg.norm(rx - tx.center))
    if d_tr == 0.0:
        raise DegenerateGeometry("transmitter and receiver coincide")
    lam = radio.wavelength
    a_tr = friis_amplitude(tx.element_gain, radio.rx_gain, lam, d_tr)
    if farfield:
        d_p = d_tr + _antenna_offsets(tx) @ ((tx.center - rx) / d_tr)
    else:
        d_p = np.linalg.norm(rx[None, :] - antenna_positions(tx), axis=1)
    return a_tr * np.exp(1j * 2 * np.pi * d_p / lam)


def received_power(channels: ChannelSet, theta: np.ndarray,
                   v: np.ndarray) -> float:
    """Received useful power |theta @ C @ v (+ h_TR @ v)|^2 in watts, with
    the cascade C of the ChannelSet.

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
    amp = theta @ channels.h_ti @ v
    if channels.h_tr is not None:
        amp = amp + channels.h_tr @ v
    return float(np.abs(amp) ** 2)
