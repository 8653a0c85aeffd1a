import numpy as np
import pytest

from rislink.errors import (DegenerateTriangle, DomainError, EmptyFeasible,
                            RegionDWarning)
from rislink.placement import (PlaneScene, QuasiconvexityReport,
                               _golden_max, _polygon_boundary_points,
                               f_object, optimal_orientation,
                               plane_objective, position_search_plane,
                               quasiconvexity_report, region_d_membership)
from rislink.validation import dense_position_grid


def rect(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)


def test_optimal_orientation_specular_and_frozen_value():
    t_t, t_r, f_star = optimal_orientation(100.0, 150.0, 200.0, 3.0)
    assert t_t == pytest.approx(t_r)
    assert t_t == pytest.approx(1.8234765819369753 / 2, rel=1e-12)
    # independently computed with 40-digit arithmetic
    assert f_star == pytest.approx(0.052734375, rel=1e-12)
    # k = 0 flattens the pattern factor entirely
    assert optimal_orientation(100.0, 150.0, 200.0, 0.0)[2] == 1.0


def test_optimal_orientation_never_beaten_by_split_grid():
    rng = np.random.default_rng(42)
    for _ in range(50):
        d_ti, d_ir = rng.uniform(10.0, 300.0, 2)
        lo, hi = abs(d_ti - d_ir) * 1.01 + 1e-6, (d_ti + d_ir) * 0.99
        if lo >= hi:
            continue
        d_tr = rng.uniform(lo, hi)
        for k in (0.0, 1.0, 2.0, 3.0):
            _, _, f_star = optimal_orientation(d_ti, d_ir, d_tr, k)
            theta_0 = np.arccos((d_ti**2 + d_ir**2 - d_tr**2)
                                / (2 * d_ti * d_ir))
            tt = np.linspace(0.0, theta_0, 301)
            split = (np.cos(np.clip(tt, 0, np.pi / 2)) ** k
                     * np.cos(np.clip(theta_0 - tt, 0, np.pi / 2)) ** k)
            assert np.max(split) <= f_star + 1e-12


def test_degenerate_triangle_raises():
    with pytest.raises(DegenerateTriangle):
        optimal_orientation(10.0, 10.0, 100.0, 3.0)
    with pytest.raises(DomainError):
        optimal_orientation(0.0, 10.0, 10.0, 3.0)
    # one bad entry in an array is enough
    with pytest.raises(DegenerateTriangle, match="10.0, 10.0, 100.0"):
        optimal_orientation(np.array([100.0, 10.0]), 10.0, 100.0, 3.0)


def test_optimal_orientation_arrays_match_scalar_calls():
    d_ti = np.array([100.0, 150.0, 80.0])
    d_ir = np.array([150.0, 150.0, 190.0])
    for k in (0.0, 3.0):
        got = optimal_orientation(d_ti, d_ir, 200.0, k)
        want = [optimal_orientation(a, b, 200.0, k)
                for a, b in zip(d_ti, d_ir)]
        assert all(isinstance(v, float) for v in want[0])
        for j in range(3):
            # F* = base**k rounds differently on numpy scalars and arrays
            np.testing.assert_allclose(got[j], [w[j] for w in want],
                                       rtol=1e-15)
        # F* is the f_object pattern term
        assert np.array_equal(got[2] * d_ti**-2 * d_ir**-2,
                              f_object(d_ti, d_ir, 200.0, k))


def test_boundary_points_by_arc_length():
    poly = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])   # 3-4-5 triangle
    vertices_at = np.array([0.0, 3.0, 7.0])
    np.testing.assert_array_equal(_polygon_boundary_points(poly, vertices_at),
                                  poly)
    # s wraps modulo the perimeter 12, in both directions
    np.testing.assert_allclose(
        _polygon_boundary_points(poly, vertices_at + 12.0), poly, atol=1e-12)
    np.testing.assert_allclose(
        _polygon_boundary_points(poly, vertices_at - 24.0), poly, atol=1e-12)
    # midpoints of the edges; a scalar arc length gives one point
    np.testing.assert_allclose(
        _polygon_boundary_points(poly, [1.5, 5.0, 9.5]),
        [[1.5, 0.0], [3.0, 2.0], [1.5, 2.0]], atol=1e-12)
    assert _polygon_boundary_points(poly, 5.0).shape == (2,)


def test_f_object_values_and_clamp():
    # symmetric point: base = 1/2 + (2d^2 - d^2)/(4d^2) = 3/4
    val = f_object(100.0, 100.0, 100.0, 1.0)
    assert val == pytest.approx(0.75 / 100.0**4, rel=1e-12)
    # incompatible distances clamp to zero instead of going negative
    assert f_object(1.0, 1.0, 100.0, 3.0) == 0.0
    arr = f_object(np.array([100.0, 1.0]), np.array([100.0, 1.0]), 100.0, 3.0)
    assert arr.shape == (2,)
    with pytest.raises(DomainError):
        f_object(-1.0, 10.0, 10.0, 3.0)


def test_plane_scene_distances_and_membership():
    scene = PlaneScene(h1=80.0, h2=80.0, separation=200.0,
                       feasible=[rect(-50, 0, 250, 120)])
    assert scene.t_r_distance == pytest.approx(200.0)
    d_ti, d_ir = scene.hops(np.array([0.0, 200.0]), np.array([0.0, 0.0]))
    np.testing.assert_allclose(d_ti, [80.0, np.hypot(200.0, 80.0)])
    np.testing.assert_allclose(d_ir, [np.hypot(200.0, 80.0), 80.0])
    # scalars broadcast against arrays
    np.testing.assert_allclose(scene.hops(100.0, np.array([0.0, 60.0]))[0],
                               [np.hypot(100.0, 80.0), np.sqrt(20000.0)])
    assert scene.contains([[0.0, 50.0]])[0]
    assert not scene.contains([[-60.0, 50.0]])[0]
    override = PlaneScene(h1=80.0, h2=80.0, separation=200.0, d_tr=123.0)
    assert override.t_r_distance == 123.0


@pytest.mark.parametrize("kwargs", [
    dict(d_tr=-3.0), dict(d_tr=0.0), dict(d_tr=np.nan), dict(d_tr=np.inf),
    dict(h1=np.nan), dict(h2=-1.0), dict(h2=np.inf), dict(separation=np.nan),
    dict(separation=-1.0), dict(h1=5.0, h2=5.0, separation=0.0),
    dict(feasible=[rect(0.0, 0.0, np.nan, 10.0)]),
    dict(feasible=[rect(0.0, -np.inf, 10.0, 10.0)]),
    dict(feasible=[np.zeros((2, 2))]),
])
def test_plane_scene_rejects_invalid_input(kwargs):
    args = dict(h1=5.0, h2=5.0, separation=20.0,
                feasible=[rect(0.0, 0.0, 10.0, 10.0)]) | kwargs
    with pytest.raises(DomainError):
        PlaneScene(**args)


def test_region_d_membership_variants():
    scene = PlaneScene(h1=0.0, h2=0.0, separation=100.0,
                       feasible=[rect(-10, -10, 110, 110)])
    mid = [[50.0, 0.0]]
    far = [[300.0, 0.0]]
    assert region_d_membership(scene, mid, "D")[0]
    assert not region_d_membership(scene, far, "D")[0]
    near_t = [[10.0, 0.0]]       # d_ti = 10 <= 100 but d_ir = 90 <= 100 too
    assert region_d_membership(scene, near_t, "D1")[0]
    behind_t = [[-50.0, 0.0]]    # d_ti = 50 <= 100 but d_ir = 150 > 100
    assert region_d_membership(scene, behind_t, "D1")[0]
    assert not region_d_membership(scene, behind_t, "D")[0]
    with pytest.raises(DomainError):
        region_d_membership(scene, mid, "D2")


def test_golden_max_quadratic():
    x, val = _golden_max(lambda x: -(x - 1.3) ** 2, 0.0, 3.0, 1e-9)
    assert x == pytest.approx(1.3, abs=1e-6)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_boundary_search_matches_dense_grid_far_from_region_d():
    # feasible patch far from both endpoints: theorem applies, boundary or
    # line-l candidates contain the optimum
    scene = PlaneScene(h1=20.0, h2=20.0, separation=50.0,
                       feasible=[rect(120.0, 10.0, 180.0, 60.0)])
    obj = plane_objective(scene, 3.0)
    res = position_search_plane(scene, obj)
    assert not res.region_d_fallback
    ref = dense_position_grid(scene, obj, 301)
    assert res.value >= ref.value * (1 - 1e-6)


def test_line_l_optimum_found_when_feasible_straddles_it():
    scene = PlaneScene(h1=30.0, h2=30.0, separation=100.0,
                       feasible=[rect(110.0, -40.0, 200.0, 40.0)])
    obj = plane_objective(scene, 2.0)
    res = position_search_plane(scene, obj)
    # symmetric feasible region about line l: the best point is on it
    assert abs(res.position[1]) < 1e-3
    ref = dense_position_grid(scene, obj, 401)
    assert res.value >= ref.value * (1 - 1e-6)


def test_region_d_fallback_warns_and_recovers_interior_optimum():
    scene = PlaneScene(h1=5.0, h2=5.0, separation=100.0,
                       feasible=[rect(20.0, 5.0, 80.0, 40.0)])
    obj = plane_objective(scene, 3.0)
    with pytest.warns(RegionDWarning):
        res = position_search_plane(scene, obj)
    assert res.region_d_fallback
    ref = dense_position_grid(scene, obj, 301)
    assert res.value >= ref.value * (1 - 1e-4)


def test_empty_feasible_raises():
    scene = PlaneScene(h1=10.0, h2=10.0, separation=50.0)
    with pytest.raises(EmptyFeasible):
        position_search_plane(scene, plane_objective(scene, 3.0))


def test_quasiconvexity_scan_k_positive():
    for k in (0.5, 1.0, 2.0, 3.0, 5.0):
        rep = quasiconvexity_report(100.0, k, 150.0, "fix_d_ti")
        assert isinstance(rep, QuasiconvexityReport)
        assert rep.quasiconvex
        assert rep.n_local_maxima <= 1


def test_quasiconvexity_scan_k_zero_monotone():
    rep = quasiconvexity_report(100.0, 0.0, 150.0, "fix_d_ti")
    assert rep.monotone_decreasing
    rep2 = quasiconvexity_report(100.0, 0.0, 150.0, "fix_d_ir")
    assert rep2.monotone_decreasing
    with pytest.raises(DomainError):
        quasiconvexity_report(100.0, 0.0, 150.0, "fix_everything")


def star_polygon(rng, center, radius):
    """Simple polygon: 3-9 vertices at sorted random angles and random radii
    in [0.3, 1] * radius about `center`."""
    n = int(rng.integers(3, 10))
    ang = np.sort(rng.uniform(0.0, 2 * np.pi, n))
    r = radius * rng.uniform(0.3, 1.0, n)
    return np.column_stack([center[0] + r * np.cos(ang),
                            center[1] + r * np.sin(ang)])


def random_plane_scene(rng, near_d):
    """1-3 star polygons on a random plane scene: kept out of the
    d_TI <= d_TR disk, which holds region D, or one of them centred on the
    midpoint of T'R', which lies in region D."""
    sep = rng.uniform(20.0, 100.0)
    h = rng.uniform(2.0, 0.5 * sep)     # equal heights: d_TR = sep
    polys = []
    for j in range(int(rng.integers(1, 4))):
        if near_d and j == 0:
            polys.append(star_polygon(rng, (sep / 2, 0.0), 0.4 * sep))
            continue
        ang = rng.uniform(0.0, 2 * np.pi)
        radius = sep * rng.uniform(0.1, 0.5)
        dist = sep + radius + sep * rng.uniform(0.05, 1.5)
        polys.append(star_polygon(rng, (dist * np.cos(ang),
                                        dist * np.sin(ang)), radius))
    return PlaneScene(h1=h, h2=h, separation=sep, feasible=polys)


def boundary_distance(poly, p):
    """Distance from the point p to the closed polygon's edges."""
    a, ab = poly, np.roll(poly, -1, axis=0) - poly
    t = np.clip(np.sum((p - a) * ab, axis=1) / np.sum(ab * ab, axis=1), 0, 1)
    return np.min(np.linalg.norm(a + t[:, None] * ab - p, axis=1))


def test_search_reaches_dense_grid_on_random_polygons():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        scene = random_plane_scene(rng, near_d=False)
        obj = plane_objective(scene, float(rng.choice([0.0, 1.0, 3.0])))
        res = position_search_plane(scene, obj)
        assert not res.region_d_fallback
        # a feasible point, boundary points up to rounding, and its value
        p = res.position
        assert scene.contains(p)[0] or min(
            boundary_distance(poly, p) for poly in scene.feasible) < 1e-9
        assert res.value == pytest.approx(obj(p)[0], rel=1e-12, abs=0)
        ref = dense_position_grid(scene, obj, 201)
        assert res.value >= ref.value * (1 - 1e-9)


def test_search_falls_back_where_polygons_overlap_region_d():
    rng = np.random.default_rng(2025)
    for _ in range(10):
        scene = random_plane_scene(rng, near_d=True)
        with pytest.warns(RegionDWarning):
            res = position_search_plane(scene, plane_objective(scene, 3.0))
        assert res.region_d_fallback
        assert res.search_set == "line-l + boundary + region-D grid"
