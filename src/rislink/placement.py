"""RIS orientation and position optimization.

Plane scenes use the projection coordinates of Fig.-4-style setups: T' is the
origin, R' sits at (separation, 0), and the line l through them is the x
axis.  The transmitter hangs h1 above the plane, the receiver h2 above it.
The boundary-reduction theory restricts the position search to the feasible
boundary plus the feasible trace of line l, except inside region D where a
dense-grid fallback is used.
"""

from __future__ import annotations

import warnings
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (DegenerateTriangle, DomainError, EmptyFeasible,
                     RegionDWarning)
from .geometry import _Value, cos_theta_0

_TRIANGLE_TOL = 1e-9


def _specular_pattern(cos_t0, k: float):
    """Pattern term of the specular orientation, F* = clip(cos(theta_0)/2
    + 1/2, 0, 1)^k = clip((d_TI^2 + d_IR^2 - d_TR^2)/(4 d_TI d_IR) + 1/2,
    0, 1)^k; the clamp matters only for distances no triangle realizes."""
    return np.clip(cos_t0 / 2 + 0.5, 0.0, 1.0) ** k


def optimal_orientation(d_ti, d_ir, d_tr, k: float):
    """Specular-reflection optimum: theta_t = theta_r = theta_0 / 2.

    Returns (theta_t, theta_r, F*); the distances broadcast as numpy arrays
    and scalars give floats.  Raises DegenerateTriangle if any distance
    triple violates the triangle inequality.
    """
    d_ti, d_ir, d_tr = np.broadcast_arrays(
        *(np.asarray(d, dtype=float) for d in (d_ti, d_ir, d_tr)))
    if min(d_ti.min(), d_ir.min(), d_tr.min()) <= 0:
        raise DomainError("distances must be > 0")
    cos_t0 = cos_theta_0(d_ti, d_ir, d_tr)
    bad = np.abs(cos_t0) > 1 + _TRIANGLE_TOL
    if np.any(bad):
        i = np.argmax(bad)
        raise DegenerateTriangle(
            f"distances ({d_ti.flat[i]}, {d_ir.flat[i]}, {d_tr.flat[i]}) "
            "violate the triangle inequality")
    half = np.arccos(np.clip(cos_t0, -1.0, 1.0)) / 2
    out = (half, half, _specular_pattern(cos_t0, k))
    return tuple(map(float, out)) if half.ndim == 0 else out


def f_object(d_ti, d_ir, d_tr: float, k: float):
    """Position-only factor of the optimally-oriented received power:
    F* * d_TI^-2 * d_IR^-2.  Vectorized over d_ti / d_ir; unlike
    optimal_orientation it accepts distance pairs that no triangle
    realizes, where the clamped pattern term applies.
    """
    d_ti = np.asarray(d_ti, dtype=float)
    d_ir = np.asarray(d_ir, dtype=float)
    if np.any(d_ti <= 0) or np.any(d_ir <= 0) or d_tr <= 0:
        raise DomainError("distances must be > 0")
    val = (_specular_pattern(cos_theta_0(d_ti, d_ir, d_tr), k)
           * d_ti**-2 * d_ir**-2)
    return float(val) if val.ndim == 0 else val


class PlaneScene(_Value):
    """Placement plane: T/R heights, projected separation, feasible polygons.

    `feasible` is a union of simple polygons given as (n, 2) vertex arrays in
    plane coordinates.  `d_tr` defaults to hypot(separation, h1 - h2), which
    assumes T and R on the same side of the plane; pass it explicitly for
    slices running between the endpoint heights.
    """

    h1: float
    h2: float
    separation: float
    feasible: Sequence[np.ndarray]
    d_tr: float | None

    def __init__(self, h1: float, h2: float, separation: float,
                 feasible: Sequence[np.ndarray] = (),
                 d_tr: float | None = None):
        self.__dict__.update(h1=h1, h2=h2, separation=separation, d_tr=d_tr)
        # written so that NaN fails every check
        if not all(0 <= v < np.inf for v in (h1, h2, separation)):
            raise DomainError("heights and separation must be finite, >= 0")
        if not 0 < self.t_r_distance < np.inf:
            raise DomainError("d_tr must be finite and > 0")
        polys = tuple(np.asarray(p, dtype=float) for p in feasible)
        for p in polys:
            if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 3:
                raise DomainError("polygons must be (n>=3, 2) vertex arrays")
            if not np.all(np.isfinite(p)):
                raise DomainError("polygon vertices must be finite")
        self.__dict__["feasible"] = polys

    @property
    def t_r_distance(self) -> float:
        if self.d_tr is not None:
            return self.d_tr
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


def _box(scene: PlaneScene) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners (x, y) of the feasible polygons' bounding
    box."""
    if not scene.feasible:
        raise EmptyFeasible("scene has no feasible polygons")
    verts = np.vstack(scene.feasible)
    return verts.min(axis=0), verts.max(axis=0)


def _box_grid(scene: PlaneScene, resolution: int):
    """The (resolution**2, 2) grid over the feasible polygons' bounding box,
    y outer and x inner, and its x and y axes."""
    lo, hi = _box(scene)
    xs = np.linspace(lo[0], hi[0], resolution)
    ys = np.linspace(lo[1], hi[1], resolution)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()]), xs, ys


def _polygon_edges(poly: np.ndarray):
    """Edge vectors of the closed polygon, their lengths, and the arc length
    at each vertex: 0 at the first vertex, the perimeter last."""
    seg = np.diff(np.vstack([poly, poly[:1]]), axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    return seg, seg_len, np.concatenate([[0.0], np.cumsum(seg_len)])


def _polygon_boundary_points(poly: np.ndarray, s) -> np.ndarray:
    """Points at arc lengths `s` (any shape) along the closed polygon
    boundary, measured from the first vertex and wrapped modulo the
    perimeter; returns shape s.shape + (2,)."""
    seg, seg_len, cum = _polygon_edges(poly)
    s = np.asarray(s, dtype=float) % cum[-1]
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seg) - 1)
    frac = (s - cum[idx]) / np.where(seg_len[idx] > 0, seg_len[idx], 1.0)
    return poly[idx] + frac[..., None] * seg[idx]


def region_d_membership(scene: PlaneScene, xy,
                        variant: str = "D") -> np.ndarray:
    """Membership test for region D (both hops shorter than d_TR) or its
    direct-link variant D1 (transmit hop shorter than d_TR).  D1 needs no
    other change to the search: the feasible trace of the plane through the
    array axis and line l, which a direct link adds, is line l here."""
    d_tr = scene.t_r_distance
    d_ti, d_ir = scene.hops(*_columns(xy))
    if variant == "D1":
        return d_ti <= d_tr
    if variant == "D":
        return (d_ti <= d_tr) & (d_ir <= d_tr)
    raise DomainError(f"unknown region variant {variant!r}")


def _box_reaches_region_d(scene: PlaneScene, lo: np.ndarray,
                          hi: np.ndarray) -> bool:
    """Whether the box [lo, hi] may hold a point of region D or D1, both of
    which need d_TI <= d_TR: d_TI at the box point nearest T' (the origin)
    is the least over the box.  The margin, 1e-9 of d_TR plus the largest
    coordinate, covers the rounding of d_TI and of grid points built inside
    the box, so a box that fails holds no grid point in either region."""
    d_tr = scene.t_r_distance
    d_ti, _ = scene.hops(*np.clip(0.0, lo, hi))
    return bool(d_ti <= d_tr + 1e-9 * (d_tr + np.max(np.abs([lo, hi]))))


_INV_PHI = (np.sqrt(5.0) - 1) / 2


def _golden_max(fun: Callable[[float], float], a: float, b: float,
                tol: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal function on [a, b]."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fun(d)
    x = (a + b) / 2
    return x, fun(x)


class PlacementResult(NamedTuple):
    position: np.ndarray
    value: float
    search_set: str
    region_d_fallback: bool = False


# The fixed sampling of position_search_plane: samples per candidate curve,
# region-D grid points per axis, line l's reach past the feasible box and
# the endpoints (a share of their span), and the golden-section tolerance;
# and the points of the quasiconvexity_report scan.
_CURVE_SAMPLES = 2000
_REGION_D_GRID = 200
_LINE_EXTENSION = 0.25
_REFINE_TOL = 1e-6
_SCAN_POINTS = 10_000


def position_search_plane(scene: PlaneScene,
                          objective: Callable[[np.ndarray], np.ndarray], *,
                          variant: str = "D") -> PlacementResult:
    """Boundary-reduced position search on one plane.

    The candidate curves are line l (the x axis) by x, where only feasible
    points count, and every feasible boundary by arc length.  The best of
    their samples is refined by golden section along its curve.  Where the
    feasible region overlaps region D (or D1) the theorem does not apply,
    so a dense grid over the overlap joins in, flagged on the result and
    warned with RegionDWarning.  A bounding box that cannot reach the
    regions (_box_reaches_region_d) skips that grid.
    """
    lo, hi = _box(scene)
    if variant not in ("D", "D1"):
        raise DomainError(f"unknown region variant {variant!r}")
    span = max(hi[0] - lo[0], scene.separation, 1.0)
    x_lo = min(lo[0], 0.0) - _LINE_EXTENSION * span
    x_hi = max(hi[0], scene.separation) + _LINE_EXTENSION * span
    n = _CURVE_SAMPLES
    xs = np.linspace(x_lo, x_hi, n)
    dx = xs[1] - xs[0]
    # each curve: (points at parameters, sample parameters, feasible points
    # only, refinement bracket of sample i, clipped on line l or wrapping)
    curves = [(lambda x: np.stack([x, np.zeros_like(x)], axis=-1), xs, True,
               lambda i: (max(xs[i] - dx, x_lo), min(xs[i] + dx, x_hi)))]
    for poly in scene.feasible:
        total = float(_polygon_edges(poly)[2][-1])
        curves.append((partial(_polygon_boundary_points, poly),
                       np.linspace(0.0, total, n, endpoint=False), False,
                       lambda i, t=total: (t * i / n - t / n,
                                           t * i / n + t / n)))

    best, best_val = None, -np.inf
    for at, ts, feasible_only, bracket in curves:
        pts = at(ts)
        feasible = scene.contains(pts) if feasible_only else np.ones(n, bool)
        vals = np.full(n, -np.inf)
        if feasible.any():
            vals[feasible] = objective(pts[feasible])
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best = at, feasible_only, bracket(i)
            best_val, best_point = float(vals[i]), pts[i]
    if best is None:
        raise EmptyFeasible("no candidate point lies inside the feasible region")

    at, feasible_only, (a, b) = best

    def along(t: float) -> float:
        p = at(np.array([t]))
        if feasible_only and not scene.contains(p)[0]:
            return -np.inf
        return float(objective(p)[0])

    t, val = _golden_max(along, a, b, _REFINE_TOL)
    if val > best_val:
        best_point, best_val = at(t), val

    fallback = False
    if _box_reaches_region_d(scene, lo, hi):
        grid = _box_grid(scene, _REGION_D_GRID)[0]
        in_d = region_d_membership(scene, grid, variant) & scene.contains(grid)
        fallback = bool(in_d.any())
        if fallback:
            warnings.warn("feasible region overlaps region D; dense-grid "
                          "fallback evaluated there", RegionDWarning)
            d_vals = objective(grid[in_d])
            j = int(np.argmax(d_vals))
            if d_vals[j] > best_val:
                best_point, best_val = grid[in_d][j], float(d_vals[j])
    search_set = "line-l + boundary" + (" + region-D grid" if fallback else "")
    return PlacementResult(best_point, best_val, search_set, fallback)


class QuasiconvexityReport(NamedTuple):
    """Scan summary of F(x) = f_object with one distance fixed."""

    xs: np.ndarray
    values: np.ndarray
    n_local_maxima: int
    n_interior_strict_minima: int
    monotone_decreasing: bool

    @property
    def quasiconvex(self) -> bool:
        """No interior strict local minimum: at most one rise-then-fall."""
        return self.n_interior_strict_minima == 0


def quasiconvexity_report(d_tr: float, k: float, d_fixed: float,
                          which: str = "fix_d_ti") -> QuasiconvexityReport:
    """Log-grid scan of the placement objective in one distance, at
    _SCAN_POINTS points from d_TR / 100 to 4 (d_fixed + d_TR).

    For k > 0 the quasi-convexity claim needs d_fixed > d_TR; for k = 0 the
    objective must be strictly decreasing in the free distance.
    """
    if which not in ("fix_d_ti", "fix_d_ir"):
        raise DomainError(f"unknown scan variant {which!r}")
    xs = np.logspace(np.log10(1e-2 * d_tr), np.log10(4.0 * (d_fixed + d_tr)),
                     _SCAN_POINTS)
    values = (f_object(d_fixed, xs, d_tr, k) if which == "fix_d_ti"
              else f_object(xs, d_fixed, d_tr, k))

    diffs = np.diff(values)
    rel = np.max(np.abs(values)) * 1e-12
    # strict interior extrema sit where consecutive non-flat moves (+1
    # rising, -1 falling) change direction
    turns = np.diff(np.sign(diffs[np.abs(diffs) > rel]))
    return QuasiconvexityReport(
        xs=xs, values=values, n_local_maxima=int(np.sum(turns < 0)),
        n_interior_strict_minima=int(np.sum(turns > 0)),
        monotone_decreasing=not np.any(diffs > rel))
