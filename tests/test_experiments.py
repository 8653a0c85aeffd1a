from contextlib import nullcontext

import numpy as np
import pytest

from rislink import em, experiments
from rislink.config import load_config, watts_to_dbm
from rislink.em import RadioParams, farfield_channel, received_power
from rislink.errors import FarFieldViolation, FarFieldWarning, ShadowedPanel
from rislink.experiments import (_BLOCK_ROWS, _panel_at, _plane_point_power,
                                 analytic_point_power,
                                 equilateral_scene, plane_endpoints,
                                 robustness, solve, specular_frame,
                                 sweep_distance, sweep_plane, validate_suite)
from rislink.geometry import link_angles
from rislink.solvers import closed_form_solution

from dataclasses import replace

from test_geometry import EX, EY, EZ


def small_cfg(**kw):
    cfg = load_config()
    sweeps = replace(cfg.sweeps, distance_points=4, plane_points=4,
                     wavelength_points=4, robustness_points=5,
                     robustness_extent=4.0)
    return replace(cfg, sweeps=sweeps, **kw)


def test_specular_frame_is_orthonormal_and_bisecting():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = rng.uniform(-10, 10, 3)
        t = p + rng.uniform(1, 20) * _unit(rng)
        r = p + rng.uniform(1, 20) * _unit(rng)
        normal, ax, ay = specular_frame(p, t, r)
        for u, v in ((normal, ax), (normal, ay), (ax, ay)):
            assert abs(np.dot(u, v)) < 1e-12
        u_t = (t - p) / np.linalg.norm(t - p)
        u_r = (r - p) / np.linalg.norm(r - p)
        # equal elevation on both sides of the normal
        assert np.dot(u_t, normal) == pytest.approx(np.dot(u_r, normal),
                                                    abs=1e-12)


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def test_specular_frame_stack_equals_one_point_frames():
    """A (P, 3) stack of positions gives each row's one-point frame bit for
    bit.  Regular rows are mixed with both degenerate branches: T and R
    exactly opposite (the normal is taken from z, or from x when T is
    overhead), and T and R on one ray from the panel (the in-plane axis is
    taken from x, or from y when the normal is along x)."""
    rng = np.random.default_rng(11)
    horizontal = (np.array([0.0, 0.0, 80.0]), np.array([200.0, 0.0, 80.0]))
    vertical = (np.array([0.0, 0.0, 10.0]), np.array([0.0, 0.0, -10.0]))
    stacks = [
        (horizontal, [[100.0, 0.0, 80.0],    # opposite: normal from z
                      [300.0, 0.0, 80.0],    # one ray, normal -x: axis y
                      [37.5, 0.0, 80.0],     # opposite
                      [-50.0, 0.0, 80.0]]),  # one ray, normal +x: axis y
        (vertical, [[0.0, 0.0, 0.0],         # opposite, T overhead: from x
                    [0.0, 0.0, 30.0],        # one ray, normal -z: axis x
                    [0.0, 0.0, 3.0]]),       # opposite
    ]
    expected = {(100.0, 0.0, 80.0): (EZ, None), (300.0, 0.0, 80.0): (-EX, EY),
                (-50.0, 0.0, 80.0): (EX, EY), (0.0, 0.0, 0.0): (EX, None),
                (0.0, 0.0, 30.0): (-EZ, EX)}
    for (t, r), special in stacks:
        rows = np.array([p for pair in zip(rng.uniform(-20, 20, (4, 3)),
                                           special) for p in pair])
        stack = specular_frame(rows, t, r)
        assert all(a.shape == rows.shape for a in stack)
        for i, p in enumerate(rows):
            one = specular_frame(p, t, r)
            for a, b in zip(stack, one):
                assert b.shape == (3,)
                assert np.array_equal(a[i], b)
            normal, ax, ay = one
            for u, w in ((normal, ax), (normal, ay), (ax, ay)):
                assert abs(np.dot(u, w)) < 1e-12
            want_normal, want_ax = expected.get(tuple(p), (None, None))
            if want_normal is not None:
                assert np.array_equal(normal, want_normal)
            if want_ax is not None:
                assert np.array_equal(ax, want_ax)



def test_equilateral_scene_angles():
    cfg = small_cfg()
    tx, ris, rx = equilateral_scene(cfg, 120.0)
    ang = link_angles(tx, ris, rx)
    assert ang.d_ti == pytest.approx(120.0)
    assert ang.d_ir == pytest.approx(120.0)
    assert ang.d_tr == pytest.approx(120.0)
    assert ang.theta_t == pytest.approx(np.pi / 6)
    assert ang.theta_r == pytest.approx(np.pi / 6)


def test_analytic_point_power_matches_solver_prediction():
    cfg = small_cfg()
    radio = RadioParams(wavelength=cfg.wavelength, tx_power=cfg.tx_power,
                        rx_gain=cfg.rx_gain)
    tx, ris, rx = equilateral_scene(cfg, 150.0)
    sol = closed_form_solution(tx, ris, rx, radio)
    p = analytic_point_power(cfg, 150.0, 150.0, 150.0, cos_mu_ti=0.0,
                             cos_mu_tr=0.0)
    assert p["ris"] == pytest.approx(sol.predicted_power, rel=1e-12)


def test_analytic_point_power_arrays_match_scalar_calls():
    cfg = small_cfg()   # spacing lambda/2
    d_ti = np.array([150.0, 120.0, 90.0, 200.0, 150.0])
    d_ir = np.array([150.0, 100.0, 130.0, 60.0, 160.0])
    # entries 0 and 3 sit on the removable singularity of O:
    # mu_TI = 0 and mu_TR = pi give u = pi
    cos_ti = np.array([1.0, 0.3, 0.8, 1.0, -0.2])
    cos_tr = np.array([-1.0, 0.0, 0.1, -1.0, 0.5])
    p = analytic_point_power(cfg, d_ti, d_ir, 150.0, cos_mu_ti=cos_ti,
                             cos_mu_tr=cos_tr)
    scalar = [analytic_point_power(cfg, *args, cos_mu_ti=ct, cos_mu_tr=cr)
              for *args, ct, cr in zip(d_ti, d_ir, [150.0] * 5, cos_ti,
                                       cos_tr)]
    assert all(isinstance(v, float) for v in scalar[0].values())
    for key in ("ris", "direct", "combined", "o"):
        assert p[key].shape == (5,)
        assert np.array_equal(p[key], [q[key] for q in scalar]), key
    assert p["o"][0] == pytest.approx(-1.0, rel=1e-9)


def test_sweep_distance_monotone_decreasing():
    res = sweep_distance(small_cfg())
    assert len(res) == 4
    closed = res.columns["closed_form_w"]
    assert np.all(closed[:-1] > closed[1:])
    # far-field valid throughout
    assert res.columns["far_field_ok"].tolist() == [1, 1, 1, 1]


@pytest.mark.parametrize("paper_scale", [False, True])
def test_distance_scenes_take_mirror_build(paper_scale, monkeypatch):
    """Every equilateral scene of sweep-distance and solve, at the default
    and at the paper-scale panel, is mirror-symmetric about y = 0 exactly,
    so exact_channel builds it from half its rows and its ChannelSet
    carries the `mirrored` flag, which halves the Gram of the leading pair.
    A change of frame that loses an exact zero, or a channel that loses the
    flag, fails here instead of doubling the work."""
    check, seen = em._mirrored, []
    monkeypatch.setattr(em, "_mirrored",
                        lambda *args: seen.append(check(*args)) or seen[-1])
    build, channels = experiments.exact_channel, []
    monkeypatch.setattr(experiments, "exact_channel",
                        lambda *args, **kw: channels.append(
                            build(*args, **kw)) or channels[-1])
    cfg = load_config(paper_scale=paper_scale)
    cfg = replace(cfg, sweeps=replace(cfg.sweeps, distance_points=5))
    sweep_distance(cfg)
    # the paper-scale two-path design is near-field and warns
    with (pytest.warns(FarFieldWarning) if paper_scale else nullcontext()):
        solve(replace(cfg, direct_link=True))
    assert seen == [True] * 6
    assert [c.mirrored for c in channels] == [True] * 6


# the paper-scale two-path design of solve warns that it is near-field
@pytest.mark.filterwarnings("ignore::rislink.errors.FarFieldWarning")
@pytest.mark.parametrize("paper_scale", [False, True])
def test_study_spectral_path_forms_no_cascade(paper_scale, monkeypatch):
    """sweep-distance and solve with the direct link take the SVD design
    and the bound from h_ti and h_ir: a study that builds the L x N cascade
    fails here instead of paying for it at every point."""
    def no_cascade(self):
        raise AssertionError("the L x N cascade was formed")

    monkeypatch.setattr(em.ChannelSet, "_cascade", property(no_cascade))
    cfg = load_config(paper_scale=paper_scale)
    cfg = replace(cfg, sweeps=replace(cfg.sweeps, distance_points=3))
    assert len(sweep_distance(cfg)) == 3
    assert solve(replace(cfg, direct_link=True)).columns["method"][-2:] == [
        "svd-projected", "upper-bound"]


def test_sweep_plane_direct_link_adds_columns():
    blocked = sweep_plane(small_cfg(direct_link=False))
    assert blocked.header == ("x_m", "y_m", "ris_dbm")
    with_direct = sweep_plane(small_cfg(direct_link=True))
    assert with_direct.header == ("x_m", "y_m", "ris_dbm", "direct_dbm",
                                  "total_dbm", "abs_o")
    col = with_direct.columns
    assert np.all(col["total_dbm"]
                  >= np.maximum(col["ris_dbm"], col["direct_dbm"]) - 1e-9)


def test_robustness_zero_at_assumed_position():
    res = robustness(small_cfg())
    col = res.columns
    center = (col["x_m"] == 0.0) & (col["y_m"] == 0.0)
    assert center.sum() == 1
    assert col["deviation"][center][0] == pytest.approx(0.0, abs=1e-9)
    assert np.all((col["deviation"] >= 0.0) & (col["deviation"] <= 1.0))


def test_robustness_matches_dense_channel_evaluation():
    """Each row agrees with the dense far-field channel and received_power:
    `ideal_dbm` exactly, `estimated_dbm` as written to the CSV (the two
    powers differ in the last bits), and the deviation within 1e-12 (it is
    a difference of two nearly equal powers)."""
    cfg = small_cfg()
    res = robustness(cfg)
    radio = RadioParams(wavelength=cfg.wavelength, tx_power=cfg.tx_power,
                        rx_gain=cfg.rx_gain)
    tx, rx = plane_endpoints(cfg)
    assumed = np.zeros(3)
    est = closed_form_solution(
        tx, _panel_at(cfg, assumed, specular_frame(assumed, tx.center, rx)),
        rx, radio)
    assert res.header == ("x_m", "y_m", "deviation", "estimated_dbm",
                          "ideal_dbm")
    assert len(res) == 25
    for x, y, deviation, estimated_dbm, ideal_dbm in zip(
            *(res.columns[name].tolist() for name in res.header)):
        pos = np.array([x, y, 0.0])
        ris = _panel_at(cfg, pos, specular_frame(pos, tx.center, rx))
        try:
            channels = farfield_channel(tx, ris, rx, radio, mode="off")
            dense = received_power(channels, est.theta, est.v)
        except ShadowedPanel:
            dense = 0.0
        d_ti = float(np.linalg.norm(tx.center - pos))
        d_ir = float(np.linalg.norm(rx - pos))
        ideal = analytic_point_power(cfg, d_ti, d_ir, cfg.d_tr,
                                     cos_mu_ti=cfg.height / d_ti,
                                     cos_mu_tr=0.0)["ris"]
        assert ideal_dbm == watts_to_dbm(ideal)
        assert "%.9g" % estimated_dbm == "%.9g" % watts_to_dbm(dense)
        assert estimated_dbm == pytest.approx(watts_to_dbm(dense),
                                              rel=1e-12, abs=1e-12)
        assert deviation == pytest.approx(abs(dense - ideal)
                                          / max(dense, ideal), abs=1e-12)


def test_robustness_evaluates_grid_in_one_call(monkeypatch):
    """The whole map is evaluated in one farfield_power call, with one
    RisPanel (the assumed pose) and no panel per point."""
    calls = {"panel": 0, "power": 0}
    panel, power = experiments.RisPanel, experiments.farfield_power

    def counted_panel(*args, **kwargs):
        calls["panel"] += 1
        return panel(*args, **kwargs)

    def counted_power(*args, **kwargs):
        calls["power"] += 1
        return power(*args, **kwargs)

    monkeypatch.setattr(experiments, "RisPanel", counted_panel)
    monkeypatch.setattr(experiments, "farfield_power", counted_power)
    sweeps = replace(small_cfg().sweeps, robustness_points=7)
    res = robustness(replace(small_cfg(), sweeps=sweeps))
    assert len(res) == 49
    assert calls["panel"] <= 1
    assert calls["power"] == 1


def test_robustness_honours_strict_far_field():
    """Under far_field_mode "strict" a true position that fails the
    far-field check is an error; a scene that passes it writes the same
    map as without the check."""
    cfg = small_cfg()
    strict = robustness(replace(cfg, far_field_mode="strict"))
    loose = robustness(cfg)
    for name in loose.header:
        assert np.array_equal(strict.columns[name], loose.columns[name])
    # the 100 x 100 panel needs d_TI >= 283 m; the map sits 80 m below T
    big = replace(cfg, ris_rows=100, ris_cols=100)
    with pytest.raises(FarFieldViolation):
        robustness(replace(big, far_field_mode="strict"))
    assert len(robustness(replace(big, far_field_mode="warn"))) == 25


def test_sweep_plane_blocks_equal_one_whole_grid_call():
    """The plane map is evaluated in blocks of _BLOCK_ROWS points; every
    column equals one model call on the whole flattened grid, across block
    boundaries and in the last, partial block."""
    cfg = load_config(direct_link=True, grid_override=91)
    res = sweep_plane(cfg)
    assert len(res) == 91 * 91 > 2 * _BLOCK_ROWS
    assert len(res) % _BLOCK_ROWS
    x, y = res.columns["x_m"], res.columns["y_m"]
    xs = np.linspace(*cfg.sweeps.plane_x, 91)
    ys = np.linspace(*cfg.sweeps.plane_y, 91)
    assert np.array_equal(x, np.tile(xs, 91))
    assert np.array_equal(y, np.repeat(ys, 91))
    whole = _plane_point_power(cfg, x, y)
    want = {"ris_dbm": watts_to_dbm(whole["ris"]),
            "direct_dbm": watts_to_dbm(whole["direct"]),
            "total_dbm": watts_to_dbm(whole["combined"]),
            "abs_o": np.abs(whole["o"])}
    for name, column in want.items():
        assert np.array_equal(res.columns[name], column), name


def test_solve_reports_all_methods():
    res = solve(small_cfg(direct_link=False))
    assert res.columns["method"] == ["closed-form", "svd-projected",
                                     "upper-bound"]


def test_validate_suite_all_pass():
    checks = validate_suite(small_cfg())
    assert len(checks) == 7
    assert all(ok for _, ok, _ in checks)


def test_plane_endpoints_heights():
    cfg = small_cfg()
    tx, rx = plane_endpoints(cfg)
    assert tx.center[2] == pytest.approx(cfg.height)
    assert rx[2] == pytest.approx(cfg.height)
    assert np.linalg.norm(rx - tx.center) == pytest.approx(cfg.d_tr)
