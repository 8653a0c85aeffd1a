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
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (DegenerateTriangle, DomainError, EmptyFeasible,
                     RegionDWarning)
from .geometry import cos_theta_0

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


@dataclass(frozen=True)
class PlaneScene:
    """Placement plane: T/R heights, projected separation, feasible polygons.

    `feasible` is a union of simple polygons given as (n, 2) vertex arrays in
    plane coordinates.  `d_tr` defaults to hypot(separation, h1 - h2), which
    assumes T and R on the same side of the plane; pass it explicitly for
    slices running between the endpoint heights.
    """

    h1: float
    h2: float
    separation: float
    feasible: Sequence[np.ndarray] = field(default_factory=list)
    d_tr: float | None = None

    def __post_init__(self):
        if self.h1 < 0 or self.h2 < 0:
            raise DomainError("heights must be >= 0")
        if self.separation < 0:
            raise DomainError("separation must be >= 0")
        polys = tuple(np.asarray(p, dtype=float) for p in self.feasible)
        for p in polys:
            if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 3:
                raise DomainError("polygons must be (n>=3, 2) vertex arrays")
        object.__setattr__(self, "feasible", polys)

    @property
    def t_r_distance(self) -> float:
        if self.d_tr is not None:
            return self.d_tr
        return float(np.hypot(self.separation, self.h1 - self.h2))

    def d_ti(self, xy) -> np.ndarray:
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        return np.sqrt(xy[:, 0]**2 + xy[:, 1]**2 + self.h1**2)

    def d_ir(self, xy) -> np.ndarray:
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        return np.sqrt((xy[:, 0] - self.separation)**2 + xy[:, 1]**2
                       + self.h2**2)

    def contains(self, xy) -> np.ndarray:
        """Union membership over the feasible polygons (boundary inclusive
        up to floating point)."""
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        if not self.feasible:
            return np.zeros(xy.shape[0], dtype=bool)
        inside = np.zeros(xy.shape[0], dtype=bool)
        for poly in self.feasible:
            inside |= _points_in_polygon(xy, poly)
        return inside


def plane_objective(scene: PlaneScene, k: float) -> Callable[[np.ndarray], np.ndarray]:
    """f_object over plane coordinates for the given pattern exponent."""
    d_tr = scene.t_r_distance

    def objective(xy: np.ndarray) -> np.ndarray:
        return f_object(scene.d_ti(xy), scene.d_ir(xy), d_tr, k)

    return objective


def _points_in_polygon(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd-rule containment test, vectorized over points."""
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < np.where(crosses, x_cross, np.inf))
    return inside


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
    direct-link variant D1 (transmit hop shorter than d_TR).

    With a direct link the search would also keep the feasible trace of the
    plane spanned by the array axis and line l; for the line-l scenes of
    this module that trace is line l itself, already a candidate, so D1
    needs no other adjustment."""
    d_tr = scene.t_r_distance
    in_d1 = scene.d_ti(xy) <= d_tr
    if variant == "D1":
        return in_d1
    if variant == "D":
        return in_d1 & (scene.d_ir(xy) <= d_tr)
    raise DomainError(f"unknown region variant {variant!r}")


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


@dataclass(frozen=True)
class PlacementResult:
    position: np.ndarray
    value: float
    search_set: str
    region_d_fallback: bool = False
    slice_index: int | None = None


def position_search_plane(scene: PlaneScene,
                          objective: Callable[[np.ndarray], np.ndarray], *,
                          variant: str = "D",
                          region_d_check: bool = True,
                          line_points: int = 2000,
                          boundary_points: int = 2000,
                          region_d_resolution: int = 200,
                          line_extension: float = 0.25,
                          refine_tol: float = 1e-6) -> PlacementResult:
    """Boundary-reduced position search on one plane.

    Candidates are the feasible trace of line l (the x axis) and every
    feasible-region boundary, refined by golden section around the best
    sample.  If the feasible region overlaps region D the theorem does not
    apply there, so a dense grid over the overlap is added (flagged on the
    result).
    """
    if not scene.feasible:
        raise EmptyFeasible("scene has no feasible polygons")

    all_verts = np.vstack(scene.feasible)
    lo = all_verts.min(axis=0)
    hi = all_verts.max(axis=0)
    span = max(hi[0] - lo[0], scene.separation, 1.0)
    x_lo = min(lo[0], 0.0) - line_extension * span
    x_hi = max(hi[0], scene.separation) + line_extension * span

    best_x: float | None = None
    best_val = -np.inf
    best_refiner: Callable[[], tuple[np.ndarray, float]] | None = None
    best_point: np.ndarray | None = None

    def eval_masked(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mask = scene.contains(points)
        vals = np.full(points.shape[0], -np.inf)
        if np.any(mask):
            vals[mask] = objective(points[mask])
        return vals, mask

    # candidate set (i): line l
    xs = np.linspace(x_lo, x_hi, line_points)
    line_pts = np.column_stack([xs, np.zeros_like(xs)])
    line_vals, line_mask = eval_masked(line_pts)
    if np.any(line_mask):
        i = int(np.argmax(line_vals))
        if line_vals[i] > best_val:
            best_val = float(line_vals[i])
            best_point = line_pts[i]
            step = xs[1] - xs[0]

            def refine_line(i=i, step=step):
                def fun(x):
                    p = np.array([[x, 0.0]])
                    if not scene.contains(p)[0]:
                        return -np.inf
                    return float(objective(p)[0])
                a = max(xs[i] - step, x_lo)
                b = min(xs[i] + step, x_hi)
                x, val = _golden_max(fun, a, b, refine_tol)
                return np.array([x, 0.0]), val

            best_refiner = refine_line

    # candidate set (ii): feasible boundaries
    for poly in scene.feasible:
        total = float(_polygon_edges(poly)[2][-1])
        pts = _polygon_boundary_points(
            poly, np.linspace(0.0, total, boundary_points, endpoint=False))
        vals, mask = eval_masked(pts)
        # boundary points are feasible by construction; containment can be
        # lost to rounding, evaluate those directly
        if not np.all(mask):
            vals[~mask] = objective(pts[~mask])
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_point = pts[i]
            s_i = total * i / len(pts)
            step = total / len(pts)

            def refine_boundary(poly=poly, s_i=s_i, step=step):
                def fun(s):
                    return float(objective(
                        _polygon_boundary_points(poly, [s]))[0])
                s, val = _golden_max(fun, s_i - step, s_i + step, refine_tol)
                return _polygon_boundary_points(poly, s), val

            best_refiner = refine_boundary

    if best_point is None:
        raise EmptyFeasible("no candidate point lies inside the feasible region")

    if best_refiner is not None:
        point, val = best_refiner()
        if val > best_val:
            best_point, best_val = point, val

    # region-D fallback: dense grid over the feasible/D overlap.  Only
    # relevant for k > 0 (pass region_d_check=False for k = 0, where the
    # boundary theorem holds on the whole plane).
    fallback = False
    if region_d_check:
        grid_x = np.linspace(lo[0], hi[0], region_d_resolution)
        grid_y = np.linspace(lo[1], hi[1], region_d_resolution)
        gx, gy = np.meshgrid(grid_x, grid_y)
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        in_d = region_d_membership(scene, grid, variant) & scene.contains(grid)
    else:
        in_d = np.zeros(1, dtype=bool)
        grid = np.zeros((1, 2))
    if np.any(in_d):
        fallback = True
        warnings.warn("feasible region overlaps region D; dense-grid "
                      "fallback evaluated there", RegionDWarning)
        d_vals = objective(grid[in_d])
        j = int(np.argmax(d_vals))
        if d_vals[j] > best_val:
            best_val = float(d_vals[j])
            best_point = grid[in_d][j]

    return PlacementResult(position=np.asarray(best_point, dtype=float),
                           value=best_val,
                           search_set="line-l + boundary"
                                      + (" + region-D grid" if fallback else ""),
                           region_d_fallback=fallback)


def position_search_3d(slices: Sequence[PlaneScene],
                       objective_factory: Callable[[PlaneScene],
                                                   Callable[[np.ndarray],
                                                            np.ndarray]],
                       **plane_kwargs) -> PlacementResult:
    """Per-slice boundary search across parallel plane slices.

    Each slice carries its own heights and feasible cross-section; the
    optimum over the sliced feasible space lies on its surface, which the
    per-slice boundary/line candidates cover.
    """
    if not slices:
        raise EmptyFeasible("no slices provided")
    best: PlacementResult | None = None
    for idx, scene in enumerate(slices):
        if not scene.feasible:
            continue
        try:
            res = position_search_plane(scene, objective_factory(scene),
                                        **plane_kwargs)
        except EmptyFeasible:
            continue
        if best is None or res.value > best.value:
            best = PlacementResult(position=res.position, value=res.value,
                                   search_set=res.search_set,
                                   region_d_fallback=res.region_d_fallback,
                                   slice_index=idx)
    if best is None:
        raise EmptyFeasible("every slice was empty")
    return best


@dataclass(frozen=True)
class QuasiconvexityReport:
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
                          which: str = "fix_d_ti", *,
                          points: int = 10_000,
                          x_range: tuple[float, float] | None = None,
                          ) -> QuasiconvexityReport:
    """Log-grid scan of the placement objective in one distance.

    For k > 0 the quasi-convexity claim needs d_fixed > d_TR; for k = 0 the
    objective must be strictly decreasing in the free distance.
    """
    if which not in ("fix_d_ti", "fix_d_ir"):
        raise DomainError(f"unknown scan variant {which!r}")
    if x_range is None:
        x_range = (1e-2 * d_tr, 4.0 * (d_fixed + d_tr))
    xs = np.logspace(np.log10(x_range[0]), np.log10(x_range[1]), points)
    if which == "fix_d_ti":
        values = f_object(d_fixed, xs, d_tr, k)
    else:
        values = f_object(xs, d_fixed, d_tr, k)

    diffs = np.diff(values)
    rel = np.max(np.abs(values)) * 1e-12
    # strict interior extrema sit where consecutive non-flat moves (+1
    # rising, -1 falling) change direction
    turns = np.diff(np.sign(diffs[np.abs(diffs) > rel]))
    return QuasiconvexityReport(
        xs=xs, values=values, n_local_maxima=int(np.sum(turns < 0)),
        n_interior_strict_minima=int(np.sum(turns > 0)),
        monotone_decreasing=not np.any(diffs > rel))
