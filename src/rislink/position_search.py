"""Boundary-reduced RIS position search on a plane, and the quasiconvexity
scan behind it.  No study reads them: `rislink validate` and library
callers load this module."""

from __future__ import annotations

import warnings
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, EmptyFeasible, RegionDWarning
from .placement import PlaneScene, _check_distances, _columns, f_object


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
    _check_distances(d_tr, d_fixed)   # before np.logspace warns on them
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
