import numpy as np
import pytest

from rislink.errors import DegenerateGeometry, DomainError
from rislink.geometry import (PanelPoses, RisPanel, TransmitterArray,
                              UlaLayout, UpaLayout, _far_field_thresholds,
                              antenna_positions, element_positions,
                              far_field_check, far_field_holds, link_angles)

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def make_panel(center=(0.0, 0.0, 0.0), rows=2, cols=2, d=0.01,
               normal=EZ, ax=EX, ay=EY, **kw):
    return RisPanel(center=np.array(center, dtype=float), rows=rows,
                    cols=cols, d_x=d, d_y=d, normal=normal, axis_x=ax,
                    axis_y=ay, **kw)


def make_ula(center=(0.0, 0.0, 10.0), count=4, spacing=0.5, axis=EX):
    return TransmitterArray(center=np.array(center, dtype=float),
                            layout=UlaLayout(count=count, spacing=spacing,
                                             axis=axis))


def test_ula_positions_symmetric_about_center():
    tx = make_ula(center=(1.0, 2.0, 3.0), count=4, spacing=0.5)
    pos = antenna_positions(tx)
    assert pos.shape == (4, 3)
    np.testing.assert_allclose(pos.mean(axis=0), [1.0, 2.0, 3.0], atol=1e-12)
    # antenna p = 1 sits at +((N+1)/2 - 1) * spacing = +0.75 along the axis
    np.testing.assert_allclose(pos[0], [1.75, 2.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(pos[-1], [0.25, 2.0, 3.0], atol=1e-12)


def test_single_antenna_sits_at_center():
    tx = make_ula(count=1)
    np.testing.assert_allclose(antenna_positions(tx), [[0.0, 0.0, 10.0]])


def test_element_positions_row_major_grid():
    ris = make_panel(rows=2, cols=3, d=1.0)
    planes = element_positions(ris)
    assert planes.shape == (3, 6)
    assert all(plane.flags.c_contiguous for plane in planes)
    pos = planes.T
    # first element: column m=1, row n=1 -> offsets (-1, -0.5)
    np.testing.assert_allclose(pos[0], [-1.0, -0.5, 0.0], atol=1e-12)
    # q=1 moves along columns first
    np.testing.assert_allclose(pos[1], [0.0, -0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(pos[-1], [1.0, 0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(pos.mean(axis=0), [0.0, 0.0, 0.0], atol=1e-12)


def test_upa_positions_count_and_center():
    lay = UpaLayout(rows=3, cols=2, spacing_x=0.1, spacing_y=0.2,
                    axis_x=EX, axis_y=EY)
    tx = TransmitterArray(center=np.zeros(3), layout=lay)
    pos = antenna_positions(tx)
    assert pos.shape == (6, 3)
    np.testing.assert_allclose(pos.mean(axis=0), np.zeros(3), atol=1e-12)


def test_frame_must_be_orthonormal():
    with pytest.raises(DomainError):
        make_panel(normal=EZ * 2.0)
    with pytest.raises(DomainError):
        make_panel(ax=EZ)  # parallel to normal
    with pytest.raises(DomainError):
        UlaLayout(count=2, spacing=0.1, axis=np.array([1.0, 1.0, 0.0]))


def test_invalid_counts_and_sizes():
    with pytest.raises(DomainError):
        make_panel(rows=0)
    with pytest.raises(DomainError):
        make_panel(d=0.0)
    with pytest.raises(DomainError):
        UlaLayout(count=0, spacing=0.1, axis=EX)
    with pytest.raises(DomainError):
        make_panel(reflection_coeff=1.5)


def test_link_angles_right_triangle():
    # T overhead, R along +x on the panel plane level
    tx = make_ula(center=(0.0, 0.0, 10.0), axis=EY)
    ris = make_panel()
    rx = np.array([10.0, 0.0, 10.0])
    ang = link_angles(tx, rx, PanelPoses.of(ris))
    assert all(a.shape == (1,) for a in (ang.d_ti, ang.d_ir, ang.theta_t,
                                         ang.theta_r))
    assert ang.d_ti[0] == pytest.approx(10.0)
    assert ang.d_ir[0] == pytest.approx(np.sqrt(200.0))
    assert ang.theta_t[0] == pytest.approx(0.0, abs=1e-12)
    assert ang.theta_r[0] == pytest.approx(np.pi / 4)
    np.testing.assert_allclose(ang.u_ti, [EZ], atol=1e-15)
    np.testing.assert_allclose(ang.u_ir, [[np.sqrt(0.5), 0.0, np.sqrt(0.5)]],
                               atol=1e-15)


def test_coincident_points_raise():
    tx = make_ula(center=(0.0, 0.0, 0.0))
    ris = make_panel(center=(0.0, 0.0, 0.0))
    with pytest.raises(DegenerateGeometry):
        link_angles(tx, np.array([1.0, 1.0, 1.0]), PanelPoses.of(ris))
    # a stack fails if any of its centers lies on R
    rx = np.array([1.0, 1.0, 1.0])
    with pytest.raises(DegenerateGeometry):
        link_angles(make_ula(), rx, PanelPoses(
            np.array([[0.0, 0.0, 0.0], rx]), *(np.array([a, a]) for a in
                                               (EZ, EX, EY))))


def far_field_quotients(tx, ris, rx):
    """far_field_check of a lone panel at the hop distances of its own
    pose, (3,)."""
    ang = link_angles(tx, rx, PanelPoses.of(ris))
    return far_field_check(tx, ris, ang.d_ti, ang.d_ir)[0]


def test_far_field_check_huge_distance_passes():
    tx = make_ula(center=(0.0, 0.0, 1e6))
    ris = make_panel()
    ratios = far_field_quotients(tx, ris, np.array([1e6, 0.0, 1e6]))
    assert ratios.shape == (3,)
    assert np.all(ratios >= 1.0)


def test_far_field_check_large_panel_fails_at_200m():
    # 100 x 100 panel of 1 cm elements has scale L*sqrt(2)*0.01 ~ 141 m
    tx = make_ula(center=(0.0, 0.0, 200.0), count=16, spacing=0.0143)
    big = make_panel(rows=100, cols=100)
    small = make_panel(rows=20, cols=20)
    rx = np.array([200.0, 0.0, 200.0])
    assert not np.all(far_field_quotients(tx, big, rx) >= 1.0)
    assert np.all(far_field_quotients(tx, small, rx) >= 1.0)


def test_far_field_check_over_poses_matches_single_panels():
    """A stack of poses gives, entry by entry, the quotients of the panel
    at each pose alone."""
    tx = make_ula(center=(0.0, 0.0, 200.0), count=16, spacing=0.0143)
    ris = make_panel(rows=100, cols=100)
    rx = np.array([200.0, 0.0, 200.0])
    heights = [-500.0, 0.0, 150.0]
    panels = [make_panel(center=(0.0, 0.0, z), rows=100, cols=100)
              for z in heights]
    poses = PanelPoses(np.array([p.center for p in panels]),
                       *(np.tile(a, (len(panels), 1)) for a in
                         (ris.normal, ris.axis_x, ris.axis_y)))
    ang = link_angles(tx, rx, poses)
    ratios = far_field_check(tx, ris, ang.d_ti, ang.d_ir)
    assert ratios.shape == (len(panels), 3)
    for row, panel in zip(ratios, panels):
        assert np.array_equal(row, far_field_quotients(tx, panel, rx))
    assert np.all(ratios[0] >= 1.0)
    assert not np.all(ratios[2] >= 1.0)


def test_far_field_holds_is_the_quotients_verdict():
    """far_field_holds reads like np.all(far_field_check(...) >= 1) with
    hops on and one ulp either side of each threshold, at random hops,
    with a nan hop and with no poses."""
    tx = make_ula(count=16, spacing=0.0143)
    ris = make_panel(rows=20, cols=20)
    rng = np.random.default_rng(33)
    thresholds = _far_field_thresholds(tx, ris)
    assert thresholds[0] != thresholds[1]
    edges = [np.nextafter(t, toward) for t in thresholds
             for toward in (0.0, t, np.inf)]
    hops = np.concatenate([edges, rng.uniform(0.8, 4.0, 100)
                           * max(thresholds), [np.nan]])

    def verdicts(d_ti, d_ir):
        return (far_field_holds(tx, ris, d_ti, d_ir),
                bool(np.all(far_field_check(tx, ris, d_ti, d_ir) >= 1.0)))

    for d_ti in edges + [np.nan]:
        for d_ir in edges + [np.nan]:
            got, want = verdicts(np.array([d_ti]), np.array([d_ir]))
            assert got == want, (d_ti, d_ir)
    for _ in range(200):
        got, want = verdicts(rng.choice(hops, 3), rng.choice(hops, 3))
        assert got == want
    assert verdicts(np.empty(0), np.empty(0)) == (True, True)


def _random_scene(rng):
    def unit():
        v = rng.standard_normal(3)
        return v / np.linalg.norm(v)

    axis = unit()
    n = unit()
    ax = unit()
    ax = ax - np.dot(ax, n) * n
    ax /= np.linalg.norm(ax)
    ay = np.cross(n, ax)
    tx = TransmitterArray(center=rng.uniform(-50, 50, 3),
                          layout=UlaLayout(count=4, spacing=0.3, axis=axis))
    ris = RisPanel(center=rng.uniform(-50, 50, 3), rows=2, cols=3,
                   d_x=0.01, d_y=0.02, normal=n, axis_x=ax, axis_y=ay)
    rx = rng.uniform(-50, 50, 3)
    return tx, ris, rx


def _angles_tuple(tx, ris, rx):
    a = link_angles(tx, rx, PanelPoses.of(ris))
    return np.concatenate([a.d_ti, a.d_ir, a.theta_t, a.theta_r])


def test_link_angles_translation_invariant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        tx, ris, rx = _random_scene(rng)
        base = _angles_tuple(tx, ris, rx)
        t = rng.uniform(-100, 100, 3)
        tx2 = TransmitterArray(center=tx.center + t, layout=tx.layout)
        ris2 = RisPanel(center=ris.center + t, rows=ris.rows, cols=ris.cols,
                        d_x=ris.d_x, d_y=ris.d_y, normal=ris.normal,
                        axis_x=ris.axis_x, axis_y=ris.axis_y)
        np.testing.assert_allclose(_angles_tuple(tx2, ris2, rx + t), base,
                                   atol=1e-9)


def test_link_angles_rotation_invariant():
    rng = np.random.default_rng(12)
    for _ in range(20):
        tx, ris, rx = _random_scene(rng)
        base = _angles_tuple(tx, ris, rx)
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1

        def rot(v):
            return q @ v

        tx2 = TransmitterArray(center=rot(tx.center),
                               layout=UlaLayout(count=4, spacing=0.3,
                                                axis=rot(tx.layout.axis)))
        ris2 = RisPanel(center=rot(ris.center), rows=ris.rows, cols=ris.cols,
                        d_x=ris.d_x, d_y=ris.d_y, normal=rot(ris.normal),
                        axis_x=rot(ris.axis_x), axis_y=rot(ris.axis_y))
        np.testing.assert_allclose(_angles_tuple(tx2, ris2, rot(rx)), base,
                                   atol=1e-9)


def test_ula_offsets_bounded_by_half_aperture():
    tx = make_ula(count=7, spacing=0.4)
    pos = antenna_positions(tx)
    off = np.linalg.norm(pos - tx.center, axis=1)
    assert np.max(off) == pytest.approx((7 - 1) * 0.4 / 2)


def test_element_neighbor_spacing():
    ris = make_panel(rows=3, cols=4, d=0.01)
    pos = element_positions(ris).T.reshape(3, 4, 3)
    row_gaps = np.linalg.norm(np.diff(pos, axis=1), axis=2)
    col_gaps = np.linalg.norm(np.diff(pos, axis=0), axis=2)
    np.testing.assert_allclose(row_gaps, 0.01, atol=1e-12)
    np.testing.assert_allclose(col_gaps, 0.01, atol=1e-12)
