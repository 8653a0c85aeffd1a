"""RIS orientation and the position objective on a plane.

Plane scenes use the projection coordinates of Fig.-4-style setups: T' is the
origin, R' sits at (separation, 0), and the line l through them is the x
axis.  The transmitter hangs h1 above the plane, the receiver h2 above it.
The boundary-reduced search over such a plane is `position_search`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateTriangle, DomainError
from .geometry import _Value, cos_theta_0

_TRIANGLE_TOL = 1e-9


def _specular_pattern(cos_t0, k: float):
    """Pattern term of the specular orientation, F* = clip(cos(theta_0)/2
    + 1/2, 0, 1)^k = clip((d_TI^2 + d_IR^2 - d_TR^2)/(4 d_TI d_IR) + 1/2,
    0, 1)^k; the clamp matters only for distances no triangle realizes.
    It stays apart from em.radiation_pattern, which takes an angle: this
    takes cos(theta_0) of distance triples, with a clamp, and
    F(theta_0/2)^2 = ((1 + cos(theta_0))/2)^k holds only in exact
    arithmetic, so a merge would move the bits of the plane map and the
    robustness map."""
    return np.clip(cos_t0 / 2 + 0.5, 0.0, 1.0) ** k


def _check_distances(*distances) -> None:
    """DomainError unless every distance is finite and > 0: one min and one
    max reduction per argument, both NaN-propagating, so that a NaN fails
    the check too."""
    if not all(0 < np.min(d) and np.max(d) < np.inf for d in distances):
        raise DomainError("distances must be finite and > 0")


def _triangle_cos(d_ti, d_ir, d_tr):
    """cos(theta_0) of the distance triples, after the checks that
    optimal_orientation and experiments._ris_terms raise from."""
    d_ti, d_ir, d_tr = (np.asarray(d, dtype=float) for d in (d_ti, d_ir, d_tr))
    _check_distances(d_ti, d_ir, d_tr)
    d_ti, d_ir, d_tr = np.broadcast_arrays(d_ti, d_ir, d_tr)
    cos_t0 = cos_theta_0(d_ti, d_ir, d_tr)
    bad = np.abs(cos_t0) > 1 + _TRIANGLE_TOL
    if np.any(bad):
        i = np.argmax(bad)
        raise DegenerateTriangle(
            f"distances ({d_ti.flat[i]}, {d_ir.flat[i]}, {d_tr.flat[i]}) "
            "violate the triangle inequality")
    return cos_t0


def optimal_orientation(d_ti, d_ir, d_tr, k: float):
    """Specular-reflection optimum: theta_t = theta_r = theta_0 / 2.

    Returns (theta_t, theta_r, F*); the distances broadcast as numpy arrays
    and scalars give floats.  Raises DomainError for a distance that is
    not finite and > 0, and DegenerateTriangle if any distance triple
    violates the triangle inequality.
    """
    cos_t0 = _triangle_cos(d_ti, d_ir, d_tr)
    half = np.arccos(np.clip(cos_t0, -1.0, 1.0)) / 2
    out = (half, half, _specular_pattern(cos_t0, k))
    return tuple(map(float, out)) if half.ndim == 0 else out


def _position_factor(cos_t0, d_ti, d_ir, k: float):
    """F* * d_TI^-2 * d_IR^-2 from cos(theta_0) of the distance triples:
    the expression of f_object, which experiments._ris_terms evaluates on
    the cos(theta_0) of its own _triangle_cos."""
    return _specular_pattern(cos_t0, k) * d_ti**-2 * d_ir**-2


def f_object(d_ti, d_ir, d_tr: float, k: float):
    """Position-only factor of the optimally-oriented received power,
    F* * d_TI^-2 * d_IR^-2, which the studies' specular power and the
    placement search both read.  Vectorized over d_ti / d_ir; unlike
    optimal_orientation it accepts distance pairs that no triangle
    realizes, where the clamped pattern term applies.  A distance that is
    not finite and > 0 raises DomainError.
    """
    d_ti = np.asarray(d_ti, dtype=float)
    d_ir = np.asarray(d_ir, dtype=float)
    _check_distances(d_ti, d_ir, d_tr)
    val = _position_factor(cos_theta_0(d_ti, d_ir, d_tr), d_ti, d_ir, k)
    return float(val) if val.ndim == 0 else val


class PlaneScene(_Value):
    """Placement plane: T/R heights, projected separation, feasible polygons.

    `feasible` is a union of simple polygons given as (n, 2) vertex arrays in
    plane coordinates.  T and R sit on the same side of the plane, so
    d_TR = hypot(separation, h1 - h2).
    """

    h1: float
    h2: float
    separation: float
    feasible: Sequence[np.ndarray]

    def __init__(self, h1: float, h2: float, separation: float,
                 feasible: Sequence[np.ndarray] = ()):
        self.__dict__.update(h1=h1, h2=h2, separation=separation)
        # written so that NaN fails every check
        if not all(0 <= v < np.inf for v in (h1, h2, separation)):
            raise DomainError("heights and separation must be finite, >= 0")
        # T = R (h1 == h2, separation 0) gives 0, and hypot can overflow
        with np.errstate(over="ignore"):
            d_tr = self.t_r_distance
        if not 0 < d_tr < np.inf:
            raise DomainError("d_tr = hypot(separation, h1 - h2) must be "
                              "finite and > 0")
        polys = tuple(np.asarray(p, dtype=float) for p in feasible)
        for p in polys:
            if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 3:
                raise DomainError("polygons must be (n>=3, 2) vertex arrays")
            if not np.all(np.isfinite(p)):
                raise DomainError("polygon vertices must be finite")
        self.__dict__["feasible"] = polys

    @property
    def t_r_distance(self) -> float:
        return float(np.hypot(self.separation, self.h1 - self.h2))

    def hops(self, x, y):
        """Hop distances (d_TI, d_IR) of the RIS at plane points (x, y),
        which broadcast as numpy arrays."""
        return (np.sqrt(x**2 + y**2 + self.h1**2),
                np.sqrt((x - self.separation)**2 + y**2 + self.h2**2))

    def contains(self, xy) -> np.ndarray:
        """Union membership over the feasible polygons, each by the even-odd
        rule (boundary inclusive up to floating point)."""
        x, y = _columns(xy)
        inside = np.zeros(len(x), dtype=bool)
        for poly in self.feasible:
            odd = np.zeros(len(x), dtype=bool)
            for (x1, y1), (x2, y2) in zip(poly, np.roll(poly, -1, axis=0)):
                crosses = (y1 > y) != (y2 > y)
                with np.errstate(divide="ignore", invalid="ignore"):
                    x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                odd ^= crosses & (x < np.where(crosses, x_cross, np.inf))
            inside |= odd
        return inside


def _columns(xy):
    """x and y of one plane point (2,) or of a stack of them (n, 2)."""
    return np.atleast_2d(np.asarray(xy, dtype=float)).T


def plane_objective(scene: PlaneScene, k: float) -> Callable[[np.ndarray], np.ndarray]:
    """f_object over plane coordinates for the given pattern exponent."""
    d_tr = scene.t_r_distance

    def objective(xy: np.ndarray) -> np.ndarray:
        return f_object(*scene.hops(*_columns(xy)), d_tr, k)

    return objective
