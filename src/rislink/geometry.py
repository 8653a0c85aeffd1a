"""Scene geometry: array/panel element positions, link angles, far-field checks.

All positions are 3-D numpy vectors in meters.  The RIS carries an
orthonormal frame (normal, in-plane x, in-plane y); elevation angles are
measured from the panel normal and azimuths counterclockwise from the
in-plane x axis, range [0, 2*pi).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometry, DomainError

Vec3 = np.ndarray

_UNIT_TOL = 1e-12


def _as_vec3(v) -> Vec3:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise DomainError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("vector components must be finite")
    return a


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis.  `np.vecdot` takes the same BLAS
    dot as `np.linalg.norm` of one vector, so a (3,) vector and each row of
    a (P, 3) stack give the same bits."""
    return np.sqrt(np.vecdot(v, v))


def _check_unit(v: Vec3, name: str) -> Vec3:
    v = _as_vec3(v)
    if abs(np.linalg.norm(v) - 1.0) > _UNIT_TOL:
        raise DomainError(f"{name} must be unit-norm within {_UNIT_TOL}")
    return v


def _check_frame(normal: np.ndarray, axis_x: np.ndarray,
                 axis_y: np.ndarray) -> None:
    """Check one panel frame (3,) or a stack of them (P, 3): unit norm and
    pairwise orthogonality within _UNIT_TOL."""
    for v, name in ((normal, "normal"), (axis_x, "axis_x"),
                    (axis_y, "axis_y")):
        if np.any(np.abs(_norm(v) - 1.0) > _UNIT_TOL):
            raise DomainError(f"panel {name} must be unit-norm within "
                              f"{_UNIT_TOL}")
    for a, b, nm in ((normal, axis_x, "normal/axis_x"),
                     (normal, axis_y, "normal/axis_y"),
                     (axis_x, axis_y, "axis_x/axis_y")):
        if np.any(np.abs(np.vecdot(a, b)) > _UNIT_TOL):
            raise DomainError(f"panel frame not orthogonal: {nm}")


@dataclass(frozen=True)
class UlaLayout:
    """Uniform linear array: `count` antennas spaced `spacing` along `axis`."""

    count: int
    spacing: float
    axis: Vec3

    def __post_init__(self):
        if self.count < 1:
            raise DomainError("antenna count must be >= 1")
        if self.spacing <= 0:
            raise DomainError("antenna spacing must be > 0")
        object.__setattr__(self, "axis", _check_unit(self.axis, "ULA axis"))


@dataclass(frozen=True)
class UpaLayout:
    """Uniform planar array on two orthonormal in-plane axes."""

    rows: int
    cols: int
    spacing_x: float
    spacing_y: float
    axis_x: Vec3
    axis_y: Vec3

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DomainError("UPA rows and cols must be >= 1")
        if self.spacing_x <= 0 or self.spacing_y <= 0:
            raise DomainError("UPA spacings must be > 0")
        ax = _check_unit(self.axis_x, "UPA axis_x")
        ay = _check_unit(self.axis_y, "UPA axis_y")
        if abs(np.dot(ax, ay)) > _UNIT_TOL:
            raise DomainError("UPA axes must be orthogonal")
        object.__setattr__(self, "axis_x", ax)
        object.__setattr__(self, "axis_y", ay)

    @property
    def count(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class TransmitterArray:
    """Transmit array: a center point, a ULA or UPA layout, and element gain."""

    center: Vec3
    layout: UlaLayout | UpaLayout
    element_gain: float = 1.0  # linear power ratio

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vec3(self.center))
        if self.element_gain < 0:
            raise DomainError("element gain must be nonnegative")

    @property
    def count(self) -> int:
        return self.layout.count


@dataclass(frozen=True)
class RisPanel:
    """Reflective panel: rows x cols elements of size d_x x d_y on a rigid frame.

    `normal`, `axis_x`, `axis_y` form an orthonormal frame; elements are laid
    out on the axis_x/axis_y plane centered on `center`.
    """

    center: Vec3
    rows: int
    cols: int
    d_x: float
    d_y: float
    normal: Vec3
    axis_x: Vec3
    axis_y: Vec3
    reflection_coeff: float = 1.0
    pattern_exponent: float = 3.0
    element_gain: float = 1.0  # linear power ratio

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vec3(self.center))
        if self.rows < 1 or self.cols < 1:
            raise DomainError("panel rows and cols must be >= 1")
        if self.d_x <= 0 or self.d_y <= 0:
            raise DomainError("element sizes must be > 0")
        n, ax, ay = (_as_vec3(v) for v in (self.normal, self.axis_x,
                                            self.axis_y))
        _check_frame(n, ax, ay)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "axis_x", ax)
        object.__setattr__(self, "axis_y", ay)
        if not 0.0 <= self.reflection_coeff <= 1.0:
            raise DomainError("reflection coefficient must lie in [0, 1]")
        if self.pattern_exponent < 0:
            raise DomainError("pattern exponent must be >= 0")

    @property
    def count(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class PanelPoses:
    """P rigid poses of one panel grid: the centers and the orthonormal
    frames (normal, in-plane x, in-plane y), each a (P, 3) array, checked
    like the frame of a RisPanel."""

    center: np.ndarray
    normal: np.ndarray
    axis_x: np.ndarray
    axis_y: np.ndarray

    def __post_init__(self):
        arrays = [np.asarray(getattr(self, name), dtype=float)
                  for name in ("center", "normal", "axis_x", "axis_y")]
        shape = arrays[0].shape
        if len(shape) != 2 or shape[0] < 1 or shape[1] != 3:
            raise DomainError(f"expected (P, 3) pose arrays, got {shape}")
        if any(a.shape != shape for a in arrays):
            raise DomainError("pose arrays disagree in shape")
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise DomainError("pose components must be finite")
        _check_frame(*arrays[1:])
        for name, a in zip(("center", "normal", "axis_x", "axis_y"), arrays):
            object.__setattr__(self, name, a)

    @classmethod
    def of(cls, ris: RisPanel) -> PanelPoses:
        """The panel's own pose, P = 1."""
        return cls(center=ris.center[None], normal=ris.normal[None],
                   axis_x=ris.axis_x[None], axis_y=ris.axis_y[None])


@dataclass(frozen=True)
class LinkAngles:
    """Center-to-center distances and the elevations of T and R from the
    panel normal, which set the exact channel's amplitude."""

    d_ti: float
    d_ir: float
    d_tr: float
    theta_t: float
    theta_r: float


def _axis_offsets(count: int, pitch: float) -> np.ndarray:
    """Centered offsets along one grid axis: (i - (count+1)/2) * pitch for
    the 1-based index i = 1..count."""
    return (np.arange(1, count + 1) - (count + 1) / 2) * pitch


def _grid_offsets(rows: int, cols: int, d_x: float, d_y: float):
    """Centered row-major grid offsets; row index is the major axis.

    Element q (0-based) has 1-based column m_q = q % cols + 1 and row
    n_q = q // cols + 1; its in-plane offset is
    (m_q - (cols+1)/2) * d_x  and  (n_q - (rows+1)/2) * d_y.
    """
    return (np.tile(_axis_offsets(cols, d_x), rows),
            np.repeat(_axis_offsets(rows, d_y), cols))


def antenna_positions(tx: TransmitterArray) -> np.ndarray:
    """Positions of every transmit antenna, shape (N, 3).

    ULA antenna p (1-based) sits at center + ((N+1)/2 - p) * spacing * axis,
    so positions are symmetric about the center.
    """
    lay = tx.layout
    if isinstance(lay, UlaLayout):
        off = -_axis_offsets(lay.count, lay.spacing)
        return tx.center[None, :] + off[:, None] * lay.axis[None, :]
    xo, yo = _grid_offsets(lay.rows, lay.cols, lay.spacing_x, lay.spacing_y)
    return (tx.center[None, :]
            + xo[:, None] * lay.axis_x[None, :]
            + yo[:, None] * lay.axis_y[None, :])


def _element_planes(ris: RisPanel) -> np.ndarray:
    """Element coordinates as a (3, L) array, one contiguous plane per axis,
    in row-major element order.

    Element q = n*cols + m sits at center + x_m * axis_x + y_n * axis_y,
    summed in that order; center + x_m * axis_x is formed once per column
    and y_n * axis_y once per row, and only the sum runs over all L.
    """
    x = _axis_offsets(ris.cols, ris.d_x)
    y = _axis_offsets(ris.rows, ris.d_y)
    planes = ((ris.center[:, None] + ris.axis_x[:, None] * x)[:, None, :]
              + (ris.axis_y[:, None] * y)[:, :, None])
    return planes.reshape(3, ris.count)


def element_positions(ris: RisPanel) -> np.ndarray:
    """Positions of every reflective element, shape (L, 3), row-major order:
    the C-ordered transpose of _element_planes."""
    return _element_planes(ris).T.copy()


def _angle_between(u: Vec3, v: Vec3) -> float:
    c = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def cos_theta_0(d_ti, d_ir, d_tr):
    """Law of cosines: cos of the angle theta_0 at the RIS in the T-I-R
    triangle, from the three center distances (scalars or arrays)."""
    return (d_ti**2 + d_ir**2 - d_tr**2) / (2 * d_ti * d_ir)


def link_angles(tx: TransmitterArray, ris: RisPanel, rx_position) -> LinkAngles:
    """Derive the link angles and center distances for one scene."""
    rx = _as_vec3(rx_position)
    r_t, r_i = tx.center, ris.center
    d_ti = float(np.linalg.norm(r_t - r_i))
    d_ir = float(np.linalg.norm(rx - r_i))
    d_tr = float(np.linalg.norm(rx - r_t))
    if min(d_ti, d_ir, d_tr) == 0.0:
        raise DegenerateGeometry("two of T, I, R coincide")

    # elevations of T and R from the panel normal
    theta_t = _angle_between(ris.normal, r_t - r_i)
    theta_r = _angle_between(ris.normal, rx - r_i)
    return LinkAngles(d_ti=d_ti, d_ir=d_ir, d_tr=d_tr, theta_t=theta_t,
                      theta_r=theta_r)


@dataclass(frozen=True)
class FarFieldCheck:
    ok: bool
    ratios: tuple[float, float, float]


def _tx_aperture_scale(tx: TransmitterArray) -> float:
    lay = tx.layout
    if isinstance(lay, UlaLayout):
        return lay.count * lay.spacing
    return lay.count * max(lay.spacing_x, lay.spacing_y)


_STRICTNESS = 2.0  # encodes the "much greater than" in the validity conditions


def far_field_check(tx: TransmitterArray, ris: RisPanel,
                    rx_position) -> FarFieldCheck:
    """Check the three far-field validity conditions.

    The conditions require the hop distances to strictly dominate the array
    scales: ok iff d_TI >= 2 * N * spacing, d_TI >= 2 * L * hypot(d_x, d_y)
    and the same for d_IR; the factor of two encodes the strict dominance.
    `ratios` reports each left/right quotient (larger is safer).
    """
    rx = _as_vec3(rx_position)
    ratios = far_field_ratios(tx, ris,
                              float(np.linalg.norm(tx.center - ris.center)),
                              float(np.linalg.norm(rx - ris.center)))
    return FarFieldCheck(ok=all(r >= 1.0 for r in ratios), ratios=ratios)


def far_field_ratios(tx: TransmitterArray, ris: RisPanel, d_ti, d_ir):
    """The three quotients of far_field_check at the hop distances d_TI and
    d_IR (floats, or arrays of P panel poses that broadcast):
    d_TI / (2 * N * spacing), d_TI / (2 * L * hypot(d_x, d_y)) and
    d_IR / (2 * L * hypot(d_x, d_y)).  The conditions hold where all three
    are >= 1."""
    panel_scale = ris.count * float(np.hypot(ris.d_x, ris.d_y))
    return (d_ti / (_STRICTNESS * _tx_aperture_scale(tx)),
            d_ti / (_STRICTNESS * panel_scale),
            d_ir / (_STRICTNESS * panel_scale))
