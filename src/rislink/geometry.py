"""Scene geometry: array/panel element positions, link angles, far-field checks.

All positions are 3-D numpy vectors in meters.  The RIS carries an
orthonormal frame (normal, in-plane x, in-plane y); elevation angles are
measured from the panel normal and azimuths counterclockwise from the
in-plane x axis, range [0, 2*pi).

`link_angles` (hop distances, directions and elevations of P panel poses)
and `far_field_check` are the geometry `em.scene_route` and the studies read.
"""

from __future__ import annotations

from typing import NamedTuple

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


class _Value:
    """Base of the checked value types, declared like a frozen record: the
    annotations of a subclass name its fields, in order, and its
    constructor checks the arguments and stores the fields.  Assigning or
    deleting an attribute raises AttributeError, and `_replace` copies
    with changes through the constructor, so a copy is checked like a new
    value.  Equality and hashing are those of object, by identity, as
    the fields hold arrays; repr goes by the fields."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()),
                                 **changes))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class UlaLayout(_Value):
    """Uniform linear array: `count` antennas spaced `spacing` along `axis`."""

    count: int
    spacing: float
    axis: Vec3

    def __init__(self, count: int, spacing: float, axis: Vec3):
        if count < 1:
            raise DomainError("antenna count must be >= 1")
        if spacing <= 0:
            raise DomainError("antenna spacing must be > 0")
        self.__dict__.update(count=count, spacing=spacing,
                             axis=_check_unit(axis, "ULA axis"))


class UpaLayout(_Value):
    """Uniform planar array on two orthonormal in-plane axes."""

    rows: int
    cols: int
    spacing_x: float
    spacing_y: float
    axis_x: Vec3
    axis_y: Vec3

    def __init__(self, rows: int, cols: int, spacing_x: float,
                 spacing_y: float, axis_x: Vec3, axis_y: Vec3):
        if rows < 1 or cols < 1:
            raise DomainError("UPA rows and cols must be >= 1")
        if spacing_x <= 0 or spacing_y <= 0:
            raise DomainError("UPA spacings must be > 0")
        ax = _check_unit(axis_x, "UPA axis_x")
        ay = _check_unit(axis_y, "UPA axis_y")
        if abs(np.dot(ax, ay)) > _UNIT_TOL:
            raise DomainError("UPA axes must be orthogonal")
        self.__dict__.update(rows=rows, cols=cols, spacing_x=spacing_x,
                             spacing_y=spacing_y, axis_x=ax, axis_y=ay)

    @property
    def count(self) -> int:
        return self.rows * self.cols


class TransmitterArray(_Value):
    """Transmit array: a center point, a ULA or UPA layout, and element gain."""

    center: Vec3
    layout: UlaLayout | UpaLayout
    element_gain: float  # linear power ratio

    def __init__(self, center: Vec3, layout: UlaLayout | UpaLayout,
                 element_gain: float = 1.0):
        center = _as_vec3(center)
        if element_gain < 0:
            raise DomainError("element gain must be nonnegative")
        self.__dict__.update(center=center, layout=layout,
                             element_gain=element_gain)

    @property
    def count(self) -> int:
        return self.layout.count


class RisPanel(_Value):
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
    reflection_coeff: float
    pattern_exponent: float
    element_gain: float  # linear power ratio

    def __init__(self, center: Vec3, rows: int, cols: int, d_x: float,
                 d_y: float, normal: Vec3, axis_x: Vec3, axis_y: Vec3,
                 reflection_coeff: float = 1.0,
                 pattern_exponent: float = 3.0, element_gain: float = 1.0):
        center, normal, axis_x, axis_y = (
            _as_vec3(v) for v in (center, normal, axis_x, axis_y))
        if rows < 1 or cols < 1:
            raise DomainError("panel rows and cols must be >= 1")
        if d_x <= 0 or d_y <= 0:
            raise DomainError("element sizes must be > 0")
        _check_frame(normal, axis_x, axis_y)
        if not 0.0 <= reflection_coeff <= 1.0:
            raise DomainError("reflection coefficient must lie in [0, 1]")
        if pattern_exponent < 0:
            raise DomainError("pattern exponent must be >= 0")
        self.__dict__.update(center=center, rows=rows, cols=cols, d_x=d_x,
                             d_y=d_y, normal=normal, axis_x=axis_x,
                             axis_y=axis_y, reflection_coeff=reflection_coeff,
                             pattern_exponent=pattern_exponent,
                             element_gain=element_gain)

    @property
    def count(self) -> int:
        return self.rows * self.cols


class PanelPoses(_Value):
    """P rigid poses of one panel grid: the centers and the orthonormal
    frames (normal, in-plane x, in-plane y), each a (P, 3) array, checked
    like the frame of a RisPanel."""

    center: np.ndarray
    normal: np.ndarray
    axis_x: np.ndarray
    axis_y: np.ndarray

    def __init__(self, center: np.ndarray, normal: np.ndarray,
                 axis_x: np.ndarray, axis_y: np.ndarray):
        arrays = [np.asarray(a, dtype=float)
                  for a in (center, normal, axis_x, axis_y)]
        shape = arrays[0].shape
        if len(shape) != 2 or shape[0] < 1 or shape[1] != 3:
            raise DomainError(f"expected (P, 3) pose arrays, got {shape}")
        if any(a.shape != shape for a in arrays):
            raise DomainError("pose arrays disagree in shape")
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise DomainError("pose components must be finite")
        _check_frame(*arrays[1:])
        self.__dict__.update(zip(self._fields, arrays))

    @classmethod
    def of(cls, ris: RisPanel) -> PanelPoses:
        """The panel's own pose, P = 1.  RisPanel has checked the frame, so
        it is not checked again: every channel of a scene builds this pose."""
        poses = object.__new__(cls)
        poses.__dict__.update((name, getattr(ris, name)[None])
                              for name in cls._fields)
        return poses


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


def _antenna_offsets(tx: TransmitterArray) -> np.ndarray:
    """Offsets of every transmit antenna from the array center, shape
    (N, 3), from the layout alone, with no center subtracted: ULA antenna
    p (1-based) sits at ((N+1)/2 - p) * spacing * axis, so the offsets are
    symmetric about the center, and UPA antenna q at x_m * axis_x +
    y_n * axis_y over the centered row-major grid offsets."""
    lay = tx.layout
    if isinstance(lay, UlaLayout):
        return -_axis_offsets(lay.count, lay.spacing)[:, None] * lay.axis
    xo, yo = _grid_offsets(lay.rows, lay.cols, lay.spacing_x, lay.spacing_y)
    return xo[:, None] * lay.axis_x + yo[:, None] * lay.axis_y


def antenna_positions(tx: TransmitterArray) -> np.ndarray:
    """Positions of every transmit antenna, shape (N, 3): the center plus
    the offsets of _antenna_offsets."""
    return tx.center + _antenna_offsets(tx)


def element_positions(ris: RisPanel) -> np.ndarray:
    """Element coordinates as a (3, L) array, one contiguous plane per axis,
    in row-major element order; its transpose lists the (L, 3) positions.

    Element q = n*cols + m sits at center + x_m * axis_x + y_n * axis_y,
    summed in that order; center + x_m * axis_x is formed once per column
    and y_n * axis_y once per row, and only the sum runs over all L.
    """
    x = _axis_offsets(ris.cols, ris.d_x)
    y = _axis_offsets(ris.rows, ris.d_y)
    planes = ((ris.center[:, None] + ris.axis_x[:, None] * x)[:, None, :]
              + (ris.axis_y[:, None] * y)[:, :, None])
    return planes.reshape(3, ris.count)


def cos_theta_0(d_ti, d_ir, d_tr):
    """Law of cosines: cos of the angle theta_0 at the RIS in the T-I-R
    triangle, from the three center distances (scalars or arrays)."""
    return (d_ti**2 + d_ir**2 - d_tr**2) / (2 * d_ti * d_ir)


class LinkAngles(NamedTuple):
    """Line-of-sight geometry of P panel poses; see link_angles."""

    d_ti: np.ndarray     # (P,) center-to-T distance
    d_ir: np.ndarray     # (P,) center-to-R distance
    u_ti: np.ndarray     # (P, 3) unit direction from the center toward T
    u_ir: np.ndarray     # (P, 3) unit direction from the center toward R
    theta_t: np.ndarray  # (P,) elevation of T from the panel normal
    theta_r: np.ndarray  # (P,) elevation of R from the panel normal


def link_angles(tx: TransmitterArray, rx_position,
                poses: PanelPoses) -> LinkAngles:
    """The line-of-sight geometry at each of the P `poses`: the hop
    distances d_TI and d_IR, the unit directions u_TI and u_IR from the
    center toward T and R, and their elevations arccos(normal . u), with
    the bits of each pose alone.  A center on T or R is DegenerateGeometry.
    """
    rx = _as_vec3(rx_position)
    to_t = tx.center - poses.center
    to_r = rx - poses.center
    d_ti, d_ir = _norm(to_t), _norm(to_r)
    if np.min(d_ti) == 0.0 or np.min(d_ir) == 0.0:
        raise DegenerateGeometry("a panel center coincides with T or R")
    u_ti, u_ir = to_t / d_ti[:, None], to_r / d_ir[:, None]
    theta_t, theta_r = (
        np.arccos(np.clip(np.vecdot(poses.normal, u), -1.0, 1.0))
        for u in (u_ti, u_ir))
    return LinkAngles(d_ti, d_ir, u_ti, u_ir, theta_t, theta_r)


_STRICTNESS = 2.0  # encodes the "much greater than" in the validity conditions


def _far_field_thresholds(tx: TransmitterArray,
                          ris: RisPanel) -> tuple[float, float]:
    """The hop distances at which the far-field quotients reach 1: the
    array's 2 * N * spacing and the panel's 2 * L * hypot(d_x, d_y)."""
    lay = tx.layout
    aperture = lay.count * (lay.spacing if isinstance(lay, UlaLayout)
                            else max(lay.spacing_x, lay.spacing_y))
    panel_scale = ris.count * float(np.hypot(ris.d_x, ris.d_y))
    return _STRICTNESS * aperture, _STRICTNESS * panel_scale


def far_field_check(tx: TransmitterArray, ris: RisPanel, d_ti,
                    d_ir) -> np.ndarray:
    """The quotients (..., 3) of the three far-field conditions at the hop
    distances d_TI and d_IR (floats, or (P,) arrays of poses), larger is
    safer: d_TI / (2 * N * spacing), d_TI / (2 * L * hypot(d_x, d_y)) and
    d_IR / (2 * L * hypot(d_x, d_y)), the factor of two encoding the
    strict dominance.  The conditions hold where all three are >= 1."""
    array, panel = _far_field_thresholds(tx, ris)
    return np.stack((d_ti / array, d_ti / panel, d_ir / panel), axis=-1)
