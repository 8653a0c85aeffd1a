import tracemalloc
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rislink import em, experiments
from rislink.cli import main
from rislink.config import default_config_text, load_config, watts_to_dbm
from rislink.em import (RadioParams, farfield_channel, received_power,
                        scene_route)
from rislink.errors import (DegenerateTriangle, DomainError,
                            FarFieldViolation, FarFieldWarning, ShadowedPanel)
from rislink.experiments import (_BLOCK_ROWS, _enforce_far_field, _panel_at,
                                 _plane_point_power,
                                 analytic_point_power,
                                 equilateral_scene, plane_endpoints,
                                 ris_point_power, robustness, solve,
                                 specular_frame, sweep_distance, sweep_plane)
from rislink.geometry import PanelPoses, far_field_check, link_angles
from rislink.placement import PlaneScene, f_object
from rislink.solvers import closed_form_predicted_power, closed_form_solution
from rislink.validation import validate_suite

from test_em import random_poses
from test_geometry import EX, EY, EZ, make_panel, make_ula


def small_cfg(**kw):
    cfg = load_config()
    sweeps = cfg.sweeps._replace(distance_points=4, plane_points=4,
                                 wavelength_points=4, robustness_points=5,
                                 robustness_extent=4.0)
    return cfg._replace(sweeps=sweeps, **kw)


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


def test_specular_frame_stack_without_degenerate_poses():
    """The robustness grid's stack of specular frames, where no pose has T
    and R opposite or on one ray, gives each row its one-point frame bit
    for bit."""
    cfg = load_config(paper_scale=True)
    tx, rx = plane_endpoints(cfg)
    offs = np.linspace(-cfg.sweeps.robustness_extent,
                       cfg.sweeps.robustness_extent,
                       cfg.sweeps.robustness_points)
    x, y = (g.ravel() for g in np.meshgrid(offs, offs))
    rows = np.stack([x, y, np.zeros_like(x)], axis=1)
    u_t, u_r = ((end - rows) / np.linalg.norm(end - rows, axis=1)[:, None]
                for end in (tx.center, rx))
    # T and R never opposite (-1) nor on one ray (+1)
    assert np.abs(np.vecdot(u_t, u_r)).max() < 0.99
    stack = specular_frame(rows, tx.center, rx)
    for i, p in enumerate(rows):
        for a, b in zip(stack, specular_frame(p, tx.center, rx)):
            assert np.array_equal(a[i], b)


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
    ang = link_angles(tx, rx, PanelPoses.of(ris))
    assert ang.d_ti[0] == pytest.approx(120.0)
    assert ang.d_ir[0] == pytest.approx(120.0)
    assert np.linalg.norm(rx - tx.center) == pytest.approx(120.0)
    assert ang.theta_t[0] == pytest.approx(np.pi / 6)
    assert ang.theta_r[0] == pytest.approx(np.pi / 6)


def test_analytic_point_power_matches_solver_prediction():
    cfg = small_cfg()
    radio = RadioParams(wavelength=cfg.wavelength, tx_power=cfg.tx_power,
                        rx_gain=cfg.rx_gain)
    tx, ris, rx = equilateral_scene(cfg, 150.0)
    sol = closed_form_solution(scene_route(tx, ris, rx, radio))
    p = analytic_point_power(cfg, 150.0, 150.0, 150.0, cos_mu_ti=0.0,
                             cos_mu_tr=0.0)
    assert p["ris"] == pytest.approx(sol.predicted_power, rel=1e-12)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(points=st.lists(st.tuples(st.floats(-50.0, 250.0),
                                 st.floats(0.0, 120.0)),
                       min_size=1, max_size=6),
       k=st.floats(0.5, 8.0))
def test_ris_point_power_is_the_ris_term_of_analytic_point_power(points, k):
    """At plane-S points, ris_point_power equals analytic_point_power's
    "ris" bit for bit, on arrays and on scalars, and both equal the paper's
    N * L^2 * P_t * delta^2 * F* / (d_TI * d_IR)^2 with F* = cos^(2k) of
    half the angle at the RIS, taken here from the positions themselves."""
    cfg = load_config()._replace(pattern_exponent=k)
    x, y = np.array(points).T
    d_ti, d_ir = PlaneScene(cfg.height, cfg.height, cfg.d_tr).hops(x, y)
    full = analytic_point_power(cfg, d_ti, d_ir, cfg.d_tr,
                                cos_mu_ti=cfg.height / d_ti,
                                cos_mu_tr=0.0)["ris"]
    ris = ris_point_power(cfg, d_ti, d_ir, cfg.d_tr)
    assert ris.shape == full.shape == x.shape
    assert np.array_equal(ris, full)
    for a, b, want in zip(d_ti.tolist(), d_ir.tolist(), full.tolist()):
        got = ris_point_power(cfg, a, b, cfg.d_tr)
        assert type(got) is float and got == want
        assert got == analytic_point_power(cfg, a, b, cfg.d_tr,
                                           cos_mu_ti=cfg.height / a,
                                           cos_mu_tr=0.0)["ris"]
    ris_at = np.stack([x, y, np.zeros_like(x)], axis=1)
    to_t = np.array([0.0, 0.0, cfg.height]) - ris_at
    to_r = np.array([cfg.d_tr, 0.0, cfg.height]) - ris_at
    r_t, r_r = np.linalg.norm(to_t, axis=1), np.linalg.norm(to_r, axis=1)
    half = np.arccos(np.vecdot(to_t, to_r) / (r_t * r_r)) / 2
    delta_sq = (cfg.tx_gain * cfg.rx_gain * cfg.ris_gain
                * cfg.element_size_x * cfg.element_size_y * cfg.wavelength**2
                * cfg.reflection_coeff**2 / (64 * np.pi**3))
    l = cfg.ris_rows * cfg.ris_cols
    want = (cfg.antennas * l**2 * cfg.tx_power * delta_sq
            * np.cos(half)**(2 * k) / (r_t * r_r)**2)
    np.testing.assert_allclose(ris, want, rtol=1e-10)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sides=st.lists(st.tuples(st.floats(1.0, 500.0), st.floats(1.0, 500.0),
                                st.floats(0.01, 0.99)),
                      min_size=1, max_size=8),
       k=st.floats(0.5, 8.0))
def test_ris_point_power_is_delta_power_times_f_object(sides, k):
    """On valid triangles, ris_point_power is closed_form_predicted_power of
    delta_1 (tir_delta with the pattern set to 1) times f_object, bit for
    bit: the model evaluates f_object's expression on the cos(theta_0) of
    its own triangle check."""
    cfg = small_cfg()._replace(pattern_exponent=k)
    d_ti, d_ir, t = np.array(sides).T
    # d_TR strictly between |d_TI - d_IR| and d_TI + d_IR
    low = np.abs(d_ti - d_ir)
    d_tr = low + t * (d_ti + d_ir - low)
    delta = em.tir_delta(cfg.tx_gain, cfg.rx_gain, cfg.ris_gain,
                         cfg.element_size_x, cfg.element_size_y,
                         cfg.wavelength, 1.0, 1.0, cfg.reflection_coeff)
    want = closed_form_predicted_power(
        delta, cfg.antennas, cfg.ris_rows * cfg.ris_cols,
        cfg.tx_power) * f_object(d_ti, d_ir, d_tr, k)
    assert np.array_equal(ris_point_power(cfg, d_ti, d_ir, d_tr), want)


def _outcome(fn):
    """fn's result, or the type and message of the model error it raises."""
    try:
        return fn()
    except (DomainError, DegenerateTriangle) as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(d=st.tuples(*[st.one_of(st.floats(-20.0, 0.0),
                                st.floats(1.0, 300.0))] * 3),
       as_array=st.booleans())
@example(d=(0.0, 150.0, 200.0), as_array=False)
@example(d=(150.0, -1.0, 200.0), as_array=True)
@example(d=(60.0, 100.0, 200.0), as_array=True)
@example(d=(100.0, 100.0, 200.0), as_array=False)
def test_ris_point_power_fails_like_analytic_point_power(d, as_array):
    """On any distances, valid or not, ris_point_power returns the bits of
    analytic_point_power's "ris" or raises the same DomainError (a distance
    at or below 0) or DegenerateTriangle (no triangle has the three
    distances) with the same message."""
    cfg = small_cfg()
    args = [np.array([v]) for v in d] if as_array else list(d)
    ris = _outcome(lambda: ris_point_power(cfg, *args))
    full = _outcome(lambda: analytic_point_power(
        cfg, *args, cos_mu_ti=0.5, cos_mu_tr=0.0)["ris"])
    if isinstance(full, tuple):
        assert ris == full
    else:
        assert np.array_equal(ris, full) and np.shape(ris) == np.shape(full)


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


def test_sweep_distance_far_field_ok_flips_inside_the_sweep(tmp_path):
    """With a 50 x 50 panel the far-field threshold, d >= 2 * L *
    hypot(d_x, d_y) ~ 70.7 m, lies inside the distance sweep: the written
    `far_field_ok` column is 0 before, and 1 from, the first d where all
    three quotients of the README conditions are >= 1, computed here from
    the triangle's corners with np.linalg.norm."""
    text = default_config_text()
    for old, new in (("  rows: 20 ", "  rows: 50 "), ("  cols: 20\n",
                                                       "  cols: 50\n")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    profile = tmp_path / "panel50.yaml"
    profile.write_text(text)
    out = tmp_path / "out"
    assert main(["sweep-distance", "--config", str(profile), "--grid", "19",
                 "--out", str(out)]) == 0
    table = np.genfromtxt(out / "sweep_distance.csv", delimiter=",",
                          names=True)
    d = np.linspace(20.0, 200.0, 19)
    np.testing.assert_allclose(table["d_m"], d, rtol=1e-9)
    zeros = np.zeros_like(d)
    t = np.stack([-d / 2, zeros, zeros], axis=1)
    r = np.stack([d / 2, zeros, zeros], axis=1)
    i = np.stack([zeros, zeros, np.sqrt(3) / 2 * d], axis=1)
    d_ti = np.linalg.norm(t - i, axis=1)
    d_ir = np.linalg.norm(r - i, axis=1)
    cfg = load_config(profile)
    panel = 2 * 50 * 50 * np.hypot(cfg.element_size_x, cfg.element_size_y)
    quotients = np.stack([d_ti / (2 * cfg.antennas * cfg.spacing),
                          d_ti / panel, d_ir / panel], axis=1)
    first = int(np.argmax(np.all(quotients >= 1.0, axis=1)))
    assert d[first] == 80.0
    assert table["far_field_ok"].tolist() == [0] * first + [1] * (len(d)
                                                                  - first)


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
    cfg = cfg._replace(sweeps=cfg.sweeps._replace(distance_points=5))
    sweep_distance(cfg)
    # the paper-scale two-path design is near-field and warns
    with (pytest.warns(FarFieldWarning) if paper_scale else nullcontext()):
        solve(cfg._replace(direct_link=True))
    assert seen == [True] * 6
    assert [c.mirrored for c in channels] == [True] * 6


def test_one_scene_route_per_scene(monkeypatch):
    """Each scene of sweep-distance and solve runs its route (link_angles,
    then amplitude_gain_tir) once, in scene_route: the closed-form and
    two-path designs and the far-field verdict of the direct link read the
    route the channel is built from.  link_angles is counted at every
    module that binds it."""
    import sys
    from rislink import geometry
    route, calls = geometry.link_angles, []

    def counted(*args, **kw):
        calls.append(1)
        return route(*args, **kw)

    for name, module in list(sys.modules.items()):
        if name.startswith("rislink") and \
                getattr(module, "link_angles", None) is route:
            monkeypatch.setattr(module, "link_angles", counted)
    cfg = small_cfg()
    cfg = cfg._replace(sweeps=cfg.sweeps._replace(distance_points=5))
    sweep_distance(cfg)
    assert len(calls) == 5
    for direct_link in (True, False):
        calls.clear()
        solve(cfg._replace(direct_link=direct_link))
        assert len(calls) == 1


@pytest.mark.parametrize("paper_scale", [False, True])
def test_stacked_scenes_equal_one_point_scenes(paper_scale):
    """The sweep's scenes, built from one specular_frame call over the
    stacked T, R and RIS centres of every distance of the bundled sweep,
    equal equilateral_scene at each distance bit for bit, and its frame
    that of a one-point specular_frame call on the scene's (3,) points."""
    cfg = load_config(paper_scale=paper_scale)
    sw = cfg.sweeps
    ds = np.linspace(sw.distance_min, sw.distance_max, sw.distance_points)
    scenes = experiments._equilateral_scenes(cfg, ds)
    assert len(scenes) == len(ds)

    def bits(*arrays):
        return [np.asarray(a, dtype=float).tobytes() for a in arrays]

    for d, (tx, ris, rx) in zip(ds.tolist(), scenes):
        one_tx, one_ris, one_rx = equilateral_scene(cfg, d)
        t = np.array([-d / 2, 0.0, 0.0])
        r = np.array([d / 2, 0.0, 0.0])
        i = np.array([0.0, 0.0, np.sqrt(3) / 2 * d])
        frame = (ris.normal, ris.axis_x, ris.axis_y)
        assert bits(tx.center, rx, ris.center, *frame) == bits(
            one_tx.center, one_rx, one_ris.center, one_ris.normal,
            one_ris.axis_x, one_ris.axis_y)
        assert bits(tx.center, rx, ris.center, *frame) == bits(
            t, r, i, *specular_frame(i, t, r))


# the paper-scale two-path design of solve warns that it is near-field
@pytest.mark.filterwarnings("ignore::rislink.errors.FarFieldWarning")
@pytest.mark.parametrize("paper_scale", [False, True])
def test_study_spectral_path_forms_no_cascade(paper_scale, monkeypatch):
    """sweep-distance and solve with the direct link take the SVD design
    and the bound from the one stored cascade: cascade() is a read-only
    view of h_ti, and at paper scale the traced peak of solve, the channel
    included, stays under twice the channel's size, so a solver path that
    forms a second L x N matrix (theta[:, None] * h_ti, say) fails here
    instead of paying for it at every point."""
    build, channels = experiments.exact_channel, []
    monkeypatch.setattr(experiments, "exact_channel",
                        lambda *args, **kw: channels.append(
                            build(*args, **kw)) or channels[-1])
    cfg = load_config(paper_scale=paper_scale)
    cfg = cfg._replace(sweeps=cfg.sweeps._replace(distance_points=3))
    assert len(sweep_distance(cfg)) == 3
    cfg = cfg._replace(direct_link=True)
    assert solve(cfg).columns["method"][-2:] == ["svd-projected",
                                                 "upper-bound"]
    cascade = channels[-1].cascade()
    assert np.shares_memory(cascade, channels[-1].h_ti)
    assert not cascade.flags.writeable
    if paper_scale:
        channels.clear()
        tracemalloc.start()
        try:
            solve(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * channels[0].h_ti.nbytes


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
    est = closed_form_solution(scene_route(
        tx, _panel_at(cfg, assumed, specular_frame(assumed, tx.center, rx)),
        rx, radio))
    assert res.header == ("x_m", "y_m", "deviation", "estimated_dbm",
                          "ideal_dbm")
    assert len(res) == 25
    for x, y, deviation, estimated_dbm, ideal_dbm in zip(
            *(np.ravel(res.columns[name]).tolist() for name in res.header)):
        pos = np.array([x, y, 0.0])
        ris = _panel_at(cfg, pos, specular_frame(pos, tx.center, rx))
        try:
            channels = farfield_channel(scene_route(tx, ris, rx, radio))
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
    RisPanel (the assumed pose) and no panel per point: the call takes the
    assumed panel and the stack of all 49 true poses, and no steering."""
    calls = {"panel": 0, "power": 0}
    panel, power = experiments.RisPanel, experiments.farfield_power

    def counted_panel(*args, **kwargs):
        calls["panel"] += 1
        return panel(*args, **kwargs)

    def counted_power(route, poses):
        calls["power"] += 1
        assert len(poses.center) == 49
        return power(route, poses)

    monkeypatch.setattr(experiments, "RisPanel", counted_panel)
    monkeypatch.setattr(experiments, "farfield_power", counted_power)
    sweeps = small_cfg().sweeps._replace(robustness_points=7)
    res = robustness(small_cfg()._replace(sweeps=sweeps))
    assert len(res) == 49
    assert calls["panel"] <= 1
    assert calls["power"] == 1


@pytest.mark.parametrize("paper_scale", [False, True])
def test_robustness_theta_dot_d_is_the_panel_size(monkeypatch, paper_scale):
    """The panel takes the specular frame at every true position, so the
    map's u_TI + u_IR lies along its normal and theta . d_vec is exactly
    L at every one of its 41 x 41 poses: the deviation measures only the
    a_TIR and b_vec . v mismatch."""
    cfg = load_config()
    if paper_scale:
        cfg = cfg._replace(ris_rows=100, ris_cols=100)
    seen = []
    theta_dot_d = em._theta_dot_d

    def recorded(link, steering):
        sums = theta_dot_d(link, steering)
        seen.append((link.ris.count, sums))
        return sums

    monkeypatch.setattr(em, "_theta_dot_d", recorded)
    # the 100 x 100 panel fails the far-field check at every position
    with (pytest.warns(FarFieldWarning) if paper_scale else nullcontext()):
        robustness(cfg)
    [(count, sums)] = seen
    assert count == cfg.ris_rows * cfg.ris_cols
    assert sums.shape == (41 * 41,)
    assert np.all(sums == count)


def test_robustness_honours_strict_far_field():
    """Under far_field_mode "strict" a true position that fails the
    far-field check is an error, and "warn" warns and writes the map; a
    scene that passes it writes the same map as without the check."""
    cfg = small_cfg()
    strict = robustness(cfg._replace(far_field_mode="strict"))
    loose = robustness(cfg)
    for name in loose.header:
        assert np.array_equal(strict.columns[name], loose.columns[name])
    # the 100 x 100 panel needs d_TI >= 283 m; the map sits 80 m below T
    big = cfg._replace(ris_rows=100, ris_cols=100)
    with pytest.raises(FarFieldViolation):
        robustness(big._replace(far_field_mode="strict"))
    with pytest.warns(FarFieldWarning, match="fail at 25 of 25 poses"):
        assert len(robustness(big._replace(far_field_mode="warn"))) == 25


def near_field_ratios(*heights):
    """A 2-antenna ULA, a 20 x 20 panel and the far-field quotients of the
    panel at each of the heights: it needs d_TI and d_IR >= 11.3 m, and at
    height 0 its center is 5 m from T and 7.1 m from R."""
    tx = make_ula(center=(0.0, 0.0, 5.0), count=2, spacing=0.0143, axis=EY)
    ris = make_panel(rows=20, cols=20)
    z = np.array(heights, dtype=float)
    centers = np.stack([np.zeros_like(z), np.zeros_like(z), z], axis=1)
    poses = PanelPoses(centers, *(np.tile(a, (len(z), 1))
                                  for a in (EZ, EX, EY)))
    ang = link_angles(tx, np.array([5.0, 0.0, 5.0]), poses)
    return far_field_check(tx, ris, ang.d_ti, ang.d_ir)


def enforce(ratios, mode):
    """The far-field policy under a profile of the given far_field_mode."""
    _enforce_far_field(load_config()._replace(far_field_mode=mode), ratios)


def test_enforce_far_field_modes():
    """On one pose that fails the check, "strict" raises, "warn" warns
    once, "off" checks nothing, and an unknown mode is a DomainError."""
    ratios = near_field_ratios(0.0)
    with pytest.raises(FarFieldViolation,
                       match=r"far-field conditions fail: ratios \("):
        enforce(ratios, "strict")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        enforce(ratios, "warn")
    assert [w.category for w in caught] == [FarFieldWarning]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        enforce(ratios, "off")
    with pytest.raises(DomainError, match="unknown far-field mode 'loud'"):
        enforce(ratios, "loud")


def test_enforce_far_field_guards_farfield_power():
    """A study judges the panel at every pose of a random_poses stack, then
    farfield_power computes the design of the panel's own pose there:
    "strict" raises before any power, "warn" warns once and leaves the
    powers as computed without a check, and "loud" is a DomainError."""
    tx = make_ula(center=(0.0, 0.0, 5.0), count=2, spacing=0.0143, axis=EY)
    ris = make_panel(rows=20, cols=20)
    rx = np.array([5.0, 0.0, 5.0])
    radio = RadioParams(wavelength=0.0286, tx_power=0.001)
    poses = random_poses(np.random.default_rng(2), ris, 4)
    ang = link_angles(tx, rx, poses)
    ratios = far_field_check(tx, ris, ang.d_ti, ang.d_ir)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unchecked = em.farfield_power(scene_route(tx, ris, rx, radio), poses)
    assert unchecked[0] > 0.0
    with pytest.raises(FarFieldViolation, match="far-field conditions fail"):
        enforce(ratios, "strict")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        enforce(ratios, "warn")
        warned = em.farfield_power(scene_route(tx, ris, rx, radio), poses)
    assert [w.category for w in caught] == [FarFieldWarning]
    assert np.array_equal(warned, unchecked)
    with pytest.raises(DomainError, match="unknown far-field mode 'loud'"):
        enforce(ratios, "loud")


def test_enforce_far_field_across_poses():
    """Over a stack of poses, "strict" raises if any pose fails the check
    and names how many, "warn" warns once for all failing poses, "off"
    checks nothing, and poses that all pass raise and warn nothing."""
    far = near_field_ratios(-20.0, -30.0)   # d_TI, d_IR >= 25 m
    mixed = near_field_ratios(-20.0, 0.0, -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        enforce(far, "strict")
        enforce(far, "warn")
        enforce(mixed, "off")
    with pytest.raises(FarFieldViolation, match="2 of 3 poses"):
        enforce(mixed, "strict")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        enforce(mixed, "warn")
    assert [w.category for w in caught] == [FarFieldWarning]
    assert "2 of 3 poses" in str(caught[0].message)


def test_studies_whose_poses_pass_reject_an_unknown_mode():
    """The studies that build the far-field quotients only when a pose
    fails still reject an unknown far_field_mode where every pose
    passes."""
    for study, cfg in ((sweep_plane, small_cfg(direct_link=True)),
                       (robustness, small_cfg()),
                       (solve, small_cfg(direct_link=True))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            study(cfg)
        with pytest.raises(DomainError,
                           match="unknown far-field mode 'loud'"):
            study(cfg._replace(far_field_mode="loud"))


def test_sweep_plane_blocks_equal_one_whole_grid_call():
    """The plane map is evaluated in blocks of _BLOCK_ROWS points; every
    column equals one model call on the whole flattened grid, across block
    boundaries and in the last, partial block."""
    cfg = load_config(direct_link=True, grid_override=91)
    res = sweep_plane(cfg)
    assert len(res) == 91 * 91 > 2 * _BLOCK_ROWS
    assert len(res) % _BLOCK_ROWS
    x, y = (np.ravel(res.columns[name]) for name in ("x_m", "y_m"))
    xs = np.linspace(*cfg.sweeps.plane_x, 91)
    ys = np.linspace(*cfg.sweeps.plane_y, 91)
    assert np.array_equal(x, np.tile(xs, 91))
    assert np.array_equal(y, np.repeat(ys, 91))
    whole = _plane_point_power(
        cfg, *PlaneScene(cfg.height, cfg.height, cfg.d_tr).hops(x, y))
    want = {"ris_dbm": watts_to_dbm(whole["ris"]),
            "direct_dbm": watts_to_dbm(whole["direct"]),
            "total_dbm": watts_to_dbm(whole["combined"]),
            "abs_o": np.abs(whole["o"])}
    for name, column in want.items():
        assert np.array_equal(np.ravel(res.columns[name]), column), name


def test_sweep_plane_columns_are_grid_shaped_with_broadcast_axes():
    """The map's columns have the grid's shape (y outer, x inner); x_m and
    y_m are broadcast views of the axes and direct_dbm of its one value,
    with zero strides, while the model's columns are dense."""
    cfg = load_config(direct_link=True, grid_override=5)
    res = sweep_plane(cfg)
    col = res.columns
    assert all(c.shape == (5, 5) for c in col.values())
    assert col["x_m"].strides == (0, 8) and col["y_m"].strides == (8, 0)
    assert col["direct_dbm"].strides == (0, 0)
    for name in ("ris_dbm", "total_dbm", "abs_o"):
        assert 0 not in col[name].strides
    assert np.array_equal(col["x_m"][0], np.linspace(*cfg.sweeps.plane_x, 5))
    assert np.array_equal(col["y_m"][:, 0],
                          np.linspace(*cfg.sweeps.plane_y, 5))
    rob = robustness(small_cfg())
    assert rob.columns["x_m"].strides == (0, 8)
    assert rob.columns["y_m"].strides == (8, 0)


def test_sweep_plane_memory_stays_below_seven_columns():
    """One sweep_plane call at --direct-link --grid 201 holds less than
    seven full-grid float64 columns at its traced peak: the two hop arrays
    and the three written columns make five, and one block's temporaries
    about 1.6 more.  The far-field verdict's (P, 3) quotients, three
    columns and their three stacked parts, or a full-grid x, y, watt or O
    array built beside the written columns would add one or more."""
    cfg = load_config(direct_link=True, grid_override=201)
    sweep_plane(cfg)
    tracemalloc.start()
    try:
        sweep_plane(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 * 201 * 201 * 8


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
