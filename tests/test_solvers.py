import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rislink.em import (ChannelSet, RadioParams, _leading_singular_pair,
                        _scale_parts, exact_channel, farfield_channel,
                        farfield_power, friis_amplitude, received_power,
                        scene_route)
from rislink.errors import (AmbiguousSignWarning, DomainError,
                            ShadowedPanel, ZeroChannel)
from rislink.geometry import (PanelPoses, UlaLayout, UpaLayout,
                              element_positions, far_field_check,
                              link_angles)
from rislink.experiments import specular_frame
from rislink.solvers import (Method, anti_decay_design,
                             closed_form_predicted_power,
                             closed_form_solution, mrt_beamforming,
                             power_upper_bound, svd_solution, two_path_o,
                             two_path_power_closed_form, two_path_solution)
from rislink.validation import random_feasible_solutions

from test_em import (RADIO, equilateral, moved_panel, offsets_toward,
                     random_poses, random_scene, scene_args)
from test_geometry import EX, EY, make_panel, make_ula

P_T = RADIO.tx_power


def test_mrt_direction_and_budget():
    h = np.array([1.0 + 1j, 2.0, -1j])
    v = mrt_beamforming(h, 2.0)
    assert np.vdot(v, v).real == pytest.approx(2.0, rel=1e-12)
    # aligned: |h v| equals ||h|| * ||v||
    assert abs(h @ v) == pytest.approx(np.linalg.norm(h) * np.sqrt(2.0),
                                       rel=1e-12)
    with pytest.raises(ZeroChannel):
        mrt_beamforming(np.zeros(3), 1.0)


def _trig_phases(tx, ris, rx, wavelength):
    """Closed-form phases from the elevations theta and azimuths phi of T
    and R seen from the panel:
    phi_q = (2*pi/l) * [(sin(t_t)cos(p_t) + sin(t_r)cos(p_r)) * x_offset_q
                        + (sin(t_t)sin(p_t) + sin(t_r)sin(p_r)) * y_offset_q]
    """
    def elevation_azimuth(direction):
        d = direction / np.linalg.norm(direction)
        theta = np.arccos(np.clip(d @ ris.normal, -1.0, 1.0))
        x, y = d @ ris.axis_x, d @ ris.axis_y
        return theta, (np.arctan2(y, x) if x or y else 0.0)

    t_t, p_t = elevation_azimuth(tx.center - ris.center)
    t_r, p_r = elevation_azimuth(rx - ris.center)
    q = np.arange(ris.count)
    xo = (q % ris.cols + 1 - (ris.cols + 1) / 2) * ris.d_x
    yo = (q // ris.cols + 1 - (ris.rows + 1) / 2) * ris.d_y
    gx = np.sin(t_t) * np.cos(p_t) + np.sin(t_r) * np.cos(p_r)
    gy = np.sin(t_t) * np.sin(p_t) + np.sin(t_r) * np.sin(p_r)
    return np.exp(1j * 2 * np.pi / wavelength * (gx * xo + gy * yo))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**scene_args)
@example(rows=3, cols=4, upa=False, seed=0)
def test_closed_form_phases_conjugate_channel_phasor(rows, cols, upa, seed):
    """The phases are the conjugate of the far-field two-hop phasor d_vec
    and match the elevation/azimuth formula, an independent reference.  The
    two formulas round differently, by an error that grows with the phase,
    so the unit-modulus entries are held to 1e-12."""
    tx, ris, rx, radio, _ = random_scene(rows, cols, upa, seed)
    theta = closed_form_solution(scene_route(tx, ris, rx, radio)).theta
    wavenum = 2 * np.pi / radio.wavelength
    elems = element_positions(ris).T
    d_vec = np.exp(1j * wavenum
                   * (offsets_toward(elems, ris.center, tx.center)
                      + offsets_toward(elems, ris.center, rx)))
    np.testing.assert_allclose(np.abs(theta), 1.0, atol=1e-12)
    np.testing.assert_allclose(theta, np.conj(d_vec), rtol=0, atol=1e-12)
    np.testing.assert_allclose(theta, _trig_phases(tx, ris, rx,
                                                   radio.wavelength),
                               rtol=0, atol=1e-12)


def test_closed_form_achieves_predicted_power_on_farfield_channel():
    tx, ris, rx = equilateral(200.0, rows=3, cols=3, count=4)
    channels = farfield_channel(scene_route(tx, ris, rx, RADIO))
    sol = closed_form_solution(scene_route(tx, ris, rx, RADIO))
    achieved = received_power(channels, sol.theta, sol.v)
    assert achieved == pytest.approx(sol.predicted_power, rel=1e-12, abs=0)
    a_tir = scene_route(tx, ris, rx, RADIO).a_tir
    assert sol.predicted_power == pytest.approx(
        closed_form_predicted_power(a_tir, 4, 9, P_T), rel=1e-12, abs=0)
    assert sol.method is Method.CLOSED_FORM


def test_closed_form_frozen_regression_value():
    # Table-II-style parameters on the 200 m equilateral scene; expected
    # power computed independently with 40-digit arithmetic
    from rislink.geometry import RisPanel, TransmitterArray
    d = 200.0
    tx = TransmitterArray(center=np.array([-d / 2, 0.0, 0.0]),
                          layout=UlaLayout(count=16, spacing=0.0143, axis=EY),
                          element_gain=10**2.1)
    ris = RisPanel(center=np.array([0.0, 0.0, np.sqrt(3) / 2 * d]),
                   rows=20, cols=20, d_x=0.01, d_y=0.01,
                   normal=np.array([0.0, 0.0, -1.0]), axis_x=EX, axis_y=-EY,
                   element_gain=10**0.903)
    radio = RadioParams(wavelength=0.0286, tx_power=0.001, rx_gain=10**2.1)
    sol = closed_form_solution(scene_route(
        tx, ris, rx_position=np.array([d / 2, 0, 0]), radio=radio))
    assert sol.predicted_power == pytest.approx(3.5270063942897986e-12,
                                                rel=1e-12, abs=0)


# the scene strategy of test_bound_is_at_least_every_design as one value,
# (tx, ris, rx, radio), so that a fixed scene can be given as an @example
scenes = st.builds(lambda **kw: random_scene(**kw)[:4], **scene_args)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scene=scenes)
@example(scene=(*equilateral(150.0, rows=2, cols=3, count=3), RADIO))
def test_closed_form_dominates_random_designs(scene):
    tx, ris, rx, radio = scene
    channels = farfield_channel(scene_route(tx, ris, rx, radio))
    sol = closed_form_solution(scene_route(tx, ris, rx, radio))
    best = received_power(channels, sol.theta, sol.v)
    for theta, v in random_feasible_solutions((ris.count, tx.count),
                                              radio.tx_power, 500, seed=5):
        assert received_power(channels, theta, v) <= best * (1 + 1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scene=scenes)
@example(scene=(*equilateral(200.0, rows=3, cols=3, count=4), RADIO))
def test_closed_form_predicts_its_farfield_power(scene):
    """The predicted N * L^2 * a_TIR^2 * P_t takes a_TIR from the far-field
    link, as the far-field power of the design does: at the panel's own
    pose the two agree to 1e-12 relative error.  Moved to random_poses,
    the panel does no better with the design of its own pose than with
    the closed-form design of the moved panel, to 1e-12, and a pose that
    does not see both ends gets 0 W."""
    tx, ris, rx, radio = scene
    sol = closed_form_solution(scene_route(tx, ris, rx, radio))
    own = farfield_power(scene_route(tx, ris, rx, radio), PanelPoses.of(ris))
    assert own[0] == pytest.approx(sol.predicted_power, rel=1e-12, abs=0)
    poses = random_poses(np.random.default_rng(11), ris, 20)
    power = farfield_power(scene_route(tx, ris, rx, radio), poses)
    assert power[-1] == 0.0
    for i, p in enumerate(power.tolist()):
        try:
            best = closed_form_solution(scene_route(
                tx, moved_panel(ris, poses, i), rx, radio)).predicted_power
        except ShadowedPanel:
            assert p == 0.0
            continue
        assert p <= best * (1 + 1e-12)


def test_closed_form_solution_raises_on_shadowed_panel():
    tx, ris, rx = equilateral(100.0)
    behind = np.array([0.0, 0.0, 2000.0])  # on the panel's back side
    with pytest.raises(ShadowedPanel):
        closed_form_solution(scene_route(tx, ris, behind, RADIO))
    with pytest.raises(ShadowedPanel):
        closed_form_solution(scene_route(tx._replace(center=behind), ris,
                                         rx, RADIO))


def test_ula_and_general_beamformer_agree():
    tx, ris, rx = equilateral(200.0)
    # decoupled ULA closed form:
    # v_p = sqrt(P_t/N) * exp(-j*(2*pi/l)*((N+1)/2 - p)*spacing*cos(mu_TI))
    # with mu_TI the angle between the array axis and the direction I->T
    to_t = tx.center - ris.center
    cos_mu_ti = tx.layout.axis @ to_t / np.linalg.norm(to_t)
    n, spacing = tx.layout.count, tx.layout.spacing
    p = np.arange(1, n + 1)
    v1 = np.sqrt(P_T / n) * np.exp(
        -1j * 2 * np.pi / RADIO.wavelength * ((n + 1) / 2 - p) * spacing
        * cos_mu_ti)
    # the closed-form design takes its beamformer from the far-field link,
    # which covers any layout; both maximize the same rank-one channel, so
    # they are equal up to a global phase
    v2 = closed_form_solution(scene_route(tx, ris, rx, RADIO)).v
    c = np.vdot(v1, v2)
    np.testing.assert_allclose(v2, v1 * c / abs(c), atol=1e-9)


def test_scaling_laws_analytic():
    a, n, l = 3.7e-8, 16, 400
    base = closed_form_predicted_power(a, n, l, P_T)
    assert closed_form_predicted_power(a, 2 * n, l, P_T) == pytest.approx(
        2 * base, rel=1e-12)
    assert closed_form_predicted_power(a, n, 2 * l, P_T) == pytest.approx(
        4 * base, rel=1e-12)


def test_scaling_laws_numeric_fixed_amplitude():
    # synthetic rank-one far-field channels with fixed per-element amplitude
    rng = np.random.default_rng(2)
    a_tir = 1e-6

    def power(l, n):
        a = np.exp(1j * rng.uniform(0, 2 * np.pi, l))
        b = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        c = np.exp(1j * rng.uniform(0, 2 * np.pi, l))
        from rislink.em import ChannelSet
        ch = ChannelSet(h_ti=a_tir * np.outer(a * c, b))
        theta = np.conj(a * c)
        v = mrt_beamforming(theta @ ch.cascade(), P_T)
        return received_power(ch, theta, v)

    base = power(8, 4)
    assert power(8, 8) == pytest.approx(2 * base, rel=1e-9)
    assert power(16, 4) == pytest.approx(4 * base, rel=1e-9)


def test_two_path_o_frozen_value_and_limits():
    lam = 0.0286
    o = two_path_o(16, lam / 2, 0.3, 0.0, lam)
    assert o == pytest.approx(0.13093012365357484, rel=1e-12)
    # coincident directions: fully coherent
    assert two_path_o(16, lam / 2, 0.3, 0.3, lam) == pytest.approx(1.0)
    assert two_path_o(1, lam / 2, 0.1, -0.4, lam) == pytest.approx(1.0)
    # a zero of sin(u): u = pi, where the sum is -1 for N = 16
    o2 = two_path_o(16, lam / 2, 1.0, -1.0, lam)
    assert o2 == pytest.approx(-1.0, rel=1e-9)


def test_two_path_o_propagates_nan_without_warning():
    """A NaN cosine gives O = NaN in its own entry only, and no warning."""
    lam = 0.0286
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(two_path_o(16, lam / 2, np.nan, 0.3, lam))
        assert np.isnan(two_path_o(15, lam / 2, 0.3, np.nan, lam))
        o = two_path_o(16, lam / 2, np.array([np.nan, 0.3, 1.0]),
                       np.array([0.0, np.nan, -1.0]), lam)
    assert np.isnan(o[:2]).all() and o[2] == pytest.approx(-1.0, rel=1e-9)


def test_two_path_o_arrays_match_scalar_calls():
    lam, n = 0.0286, 16
    # entries 0 and 3 sit on a zero of sin(u) (u = pi)
    cos_ti = np.array([1.0, 0.3, 0.3, 1.0, 0.36])
    cos_tr = np.array([-1.0, 0.3, 0.0, -1.0, -0.42])
    o = two_path_o(n, lam / 2, cos_ti, cos_tr, lam)
    want = np.array([two_path_o(n, lam / 2, a, b, lam)
                     for a, b in zip(cos_ti, cos_tr)])
    assert isinstance(want[0], float) and isinstance(
        two_path_o(n, lam / 2, 1.0, -1.0, lam), float)
    assert np.array_equal(o, want)
    assert o[0] == pytest.approx(-1.0, rel=1e-9)
    # broadcasting a scalar cosine against an array, and 2-d inputs
    assert np.array_equal(two_path_o(n, lam / 2, cos_ti, -1.0, lam),
                          [two_path_o(n, lam / 2, a, -1.0, lam)
                           for a in cos_ti])
    assert np.array_equal(two_path_o(n, lam / 2, cos_ti.reshape(5, 1),
                                     cos_tr.reshape(5, 1), lam),
                          want.reshape(5, 1))
    # spacing lambda: two different zeros of sin(u), u = pi and u = 2*pi
    cos_ti, cos_tr = np.array([1.0, 0.3, 1.0]), np.array([0.0, 0.54, -1.0])
    o = two_path_o(n, lam, cos_ti, cos_tr, lam)
    assert np.array_equal(o, [two_path_o(n, lam, a, b, lam)
                              for a, b in zip(cos_ti, cos_tr)])
    np.testing.assert_allclose(o[[0, 2]], [-1.0, 1.0], rtol=1e-9)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cos_ti=st.floats(-1.0, 1.0), cos_tr=st.floats(-1.0, 1.0),
       n=st.integers(1, 64), pitch=st.floats(0.05, 2.0))
@example(cos_ti=1.0, cos_tr=-1.0, n=16, pitch=0.5)   # u = pi, sin(u) = 0
@example(cos_ti=0.3, cos_tr=0.3, n=64, pitch=2.0)    # u = 0
def test_two_path_o_matches_direct_sum(cos_ti, cos_tr, n, pitch):
    """O equals the mean (1/N) * sum_p cos(K_p), K_p = 2*u*(p - (N+1)/2),
    of the N antenna terms, an oracle apart from the folded array factor.
    The error is held to 1e-13 / max(|sinc(u)|, 1e-9), a rule that is
    looser near the zeros of sin(u)."""
    lam = 0.0286
    o = two_path_o(n, pitch * lam, cos_ti, cos_tr, lam)
    u = pitch * lam * (cos_ti - cos_tr) * np.pi / lam
    p = np.arange(1, n + 1)
    ref = np.mean(np.cos(2 * u * (p - (n + 1) / 2)))
    assert abs(o - ref) * max(abs(np.sinc(u / np.pi)), 1e-9) <= 1e-13


def test_two_path_power_closed_form_arrays_match_scalar_calls():
    a_tir = np.array([1e-8, 2e-8, 0.0])
    o = np.array([0.5, -0.25, 1.0])
    power = two_path_power_closed_form(a_tir, 1e-5, o, 16, 400, P_T)
    want = [two_path_power_closed_form(float(a), 1e-5, float(b), 16, 400,
                                       P_T) for a, b in zip(a_tir, o)]
    assert isinstance(want[0], float)
    # numpy rounds x**2 on Python floats and on arrays differently
    np.testing.assert_allclose(power, want, rtol=1e-15)
    with pytest.raises(DomainError):
        two_path_power_closed_form(np.array([1e-8, -1e-8]), 1e-5, 0.5, 16,
                                   400, P_T)


def test_two_path_terms_sign_fold_and_warning():
    """two_path_solution rotates the RIS-only phases by the constant offset
    pi/2*(O/|O| - 1) - k*(d_TI + d_IR - d_TR).  The ULA axis is normal to
    T - R, so cos(mu_TR) = 0, and the panel sits where cos(mu_TI) = 1/8,
    u = pi/16, which zeroes the numerator sinc only: O = 0 takes the +1
    branch with an AmbiguousSignWarning.  At cos(mu_TI) = 3/16 O is
    negative and folds a -pi offset in, with no warning."""
    lam, spacing = RADIO.wavelength, 0.0143
    tx = make_ula(center=(0.0, 0.0, 0.0), count=16, spacing=spacing, axis=EY)
    rx = np.array([150.0, 0.0, 0.0])
    for cos_mu_ti, fold in ((1 / 8, 0.0), (3 / 16, -np.pi)):
        center = 100.0 * np.array([np.sqrt(1 - cos_mu_ti**2), -cos_mu_ti,
                                   0.0])
        ris = make_panel(center, 3, 3, 0.01,
                         *specular_frame(center, tx.center, rx))
        o = two_path_o(16, spacing, cos_mu_ti, 0.0, lam)
        with (pytest.warns(AmbiguousSignWarning) if fold == 0.0
              else nullcontext()):
            sol = two_path_solution(scene_route(tx, ris, rx, RADIO))
        if fold == 0.0:
            assert o == pytest.approx(0.0, abs=1e-12)
        else:
            assert o < 0
        rotation = sol.theta / closed_form_solution(
            scene_route(tx, ris, rx, RADIO)).theta
        expected = fold - 2 * np.pi / lam * (
            np.linalg.norm(center) + np.linalg.norm(rx - center) - 150.0)
        np.testing.assert_allclose(rotation, np.exp(1j * expected), rtol=0,
                                   atol=1e-12 * abs(expected))


def test_two_path_solution_achieves_predicted_power():
    tx, ris, rx = equilateral(300.0, rows=3, cols=3, count=8)
    channels = farfield_channel(scene_route(tx, ris, rx, RADIO), direct=True)
    sol = two_path_solution(scene_route(tx, ris, rx, RADIO))
    achieved = received_power(channels, sol.theta, sol.v)
    assert achieved == pytest.approx(sol.predicted_power, rel=1e-12, abs=0)
    assert sol.method is Method.CLOSED_FORM_TWO_PATH
    # the prediction reads a_TR from the Friis formula at d_TR = 300 m, not
    # from a rounded phasor of the direct row; the ULA axis is normal to
    # T - R, so cos(mu_TR) = 0
    link = scene_route(tx, ris, rx, RADIO)
    o = two_path_o(8, 0.0143, float(EY @ link.u_ti), 0.0,
                   RADIO.wavelength)
    a_tr = friis_amplitude(tx.element_gain, RADIO.rx_gain, RADIO.wavelength,
                           300.0)
    assert sol.predicted_power == two_path_power_closed_form(
        float(link.a_tir), a_tr, o, 8, 9, P_T)
    # and it beats the single-path design evaluated on the same channel
    single = closed_form_solution(scene_route(tx, ris, rx, RADIO))
    assert achieved >= received_power(channels, single.theta, single.v) * (
        1 - 1e-12)


@pytest.mark.parametrize("tilt", [0.1, 0.4, 0.7, 1.15])
def test_two_path_solution_uses_arrival_directions_at_transmitter(tilt):
    """With the ULA axis in the T-I-R plane the RIS and direct paths are
    partly coherent, and the design achieves its predicted power on the
    far-field channel only if mu_TI and mu_TR are the angles between the
    axis and the arrival directions at T (I->T and R->T): reversing either
    direction changes O, and with it the prediction and the sign fold."""
    tx, ris, rx = equilateral(300.0, rows=3, cols=3, count=8)
    axis = np.array([np.cos(tilt), 0.0, np.sin(tilt)])
    tx = tx._replace(layout=tx.layout._replace(axis=axis))
    to_i, to_r = tx.center - ris.center, tx.center - rx
    o = two_path_o(8, tx.layout.spacing, axis @ to_i / np.linalg.norm(to_i),
                   axis @ to_r / np.linalg.norm(to_r), RADIO.wavelength)
    assert 0.05 < abs(o) < 0.95
    channels = farfield_channel(scene_route(tx, ris, rx, RADIO), direct=True)
    sol = two_path_solution(scene_route(tx, ris, rx, RADIO))
    achieved = received_power(channels, sol.theta, sol.v)
    assert achieved == pytest.approx(sol.predicted_power, rel=1e-12, abs=0)


def test_two_path_solution_rejects_upa_before_far_field_check():
    """A UPA transmitter is a DomainError, also on a scene that fails the
    far-field conditions, where a ULA gets its design: the solver checks
    no far-field condition."""
    tx, ris, rx = equilateral(2.0, rows=30, cols=30)
    ang = link_angles(tx, rx, PanelPoses.of(ris))
    assert np.any(far_field_check(tx, ris, ang.d_ti, ang.d_ir) < 1.0)
    assert two_path_solution(
        scene_route(tx, ris, rx, RADIO)).predicted_power > 0.0
    upa = tx._replace(layout=UpaLayout(rows=2, cols=2, spacing_x=0.0143,
                                       spacing_y=0.0143, axis_x=EX,
                                       axis_y=EY))
    with pytest.raises(DomainError):
        two_path_solution(scene_route(upa, ris, rx, RADIO))


def test_two_path_power_formula_uses_coherence_magnitude():
    p_pos = two_path_power_closed_form(1e-8, 1e-5, 0.5, 16, 400, P_T)
    p_neg = two_path_power_closed_form(1e-8, 1e-5, -0.5, 16, 400, P_T)
    assert p_pos == pytest.approx(p_neg, rel=1e-15)
    with pytest.raises(DomainError):
        two_path_power_closed_form(-1e-8, 1e-5, 0.5, 16, 400, P_T)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(rows=st.integers(1, 6), cols=st.integers(1, 7), n=st.integers(1, 8),
       rank=st.integers(0, 8), mirrored=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(rows=3, cols=4, n=5, rank=1, mirrored=False, seed=0)
@example(rows=3, cols=4, n=5, rank=3, mirrored=False, seed=1)
@example(rows=2, cols=3, n=4, rank=0, mirrored=False, seed=2)
@example(rows=3, cols=4, n=5, rank=3, mirrored=True, seed=3)
@example(rows=5, cols=2, n=1, rank=1, mirrored=True, seed=4)
@example(rows=4, cols=3, n=8, rank=8, mirrored=True, seed=5)
@example(rows=1, cols=1, n=3, rank=2, mirrored=True, seed=6)
def test_leading_singular_pair_matches_dense_svd(rows, cols, n, rank,
                                                 mirrored, seed):
    """The Gram `eigh` kernel against dense SVD of a cascade
    C = h_ir[:, None] * h_ti, with h_ti a random complex L x N matrix of the
    drawn rank (capped at min(L, N); 0 is the zero matrix), L = rows * cols
    panel elements, and its rows scaled by the h_ir of random moduli, about
    a fifth of them 0.

    A `mirrored` input has the symmetry of a mirror-symmetric exact
    channel and is passed with the flag: a random half reflected, so that
    column N-1-p of C is column p with the panel rows reversed (odd N and
    odd rows have a middle column and panel row that map onto
    themselves).

    sigma is held to 1e-12 relative.  u is compared up to a global phase;
    its error scales with the spectral gap sigma_1^2 / (sigma_1^2 -
    sigma_2^2), so the tolerance does too."""
    rng = np.random.default_rng(seed)
    l = rows * cols
    rank = min(rank, l, n)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    h_ti = gauss(l, rank) @ gauss(rank, n)
    h_ir = rng.uniform(0.0, 2.0, l) * np.exp(2j * np.pi * rng.random(l))
    h_ir[rng.random(l) < 0.2] = 0.0
    if mirrored:
        # the (antenna, panel row) pairs in antenna-major order map onto
        # the same list reversed: copy the reversed first half onto the last
        pairs = h_ti.T.reshape(n * rows, cols)
        pairs[len(pairs) - len(pairs) // 2:] = pairs[:len(pairs) // 2][::-1]
        h_ti = pairs.reshape(n, l).T
        panel = h_ir.reshape(rows, cols)
        panel[rows - rows // 2:] = panel[:rows // 2][::-1]
    c = h_ir[:, None] * h_ti
    if mirrored:
        assert np.array_equal(c[:, ::-1],
                              c.reshape(rows, cols, n)[::-1].reshape(l, n))
    u, sigma = _leading_singular_pair(c, mirrored)
    u_ref, s_ref, _ = np.linalg.svd(c)
    assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)
    if s_ref[0] == 0.0:
        assert sigma == 0.0
        return
    assert sigma == pytest.approx(s_ref[0], rel=1e-12)
    s2 = s_ref[1] if len(s_ref) > 1 else 0.0
    gap = s_ref[0]**2 / (s_ref[0]**2 - s2**2)
    u0 = u_ref[:, 0]
    c = np.vdot(u0, u)
    np.testing.assert_allclose(u, u0 * c / abs(c), rtol=0, atol=1e-10 * gap)
    # deterministic phase: first significant entry real-positive
    idx = int(np.argmax(np.abs(u) > 1e-12 * np.max(np.abs(u))))
    assert abs(u[idx].imag) <= 1e-15
    assert u[idx].real > 0


def test_reciprocal_product_is_numpys_quotient_by_a_real():
    """The spectral path divides complex vectors by reals as products by
    the reciprocal on the real and imaginary parts (em._scale_parts),
    which must give numpy's quotient x / s element for element.  numpy
    divides by s + 0j on the branch of Smith's method with ratio 0 and
    forms (re + im*0) * (1/s): only a part that is an exact zero can
    differ from re * (1/s), and only in its sign, which == ignores.  A
    numpy whose complex division changes fails here, not in the goldens.
    The parts include 0, -0, subnormals and 1e300, so products overflow
    to inf and underflow to 0 on both sides."""
    rng = np.random.default_rng(35)
    special = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0])
    n = 4000
    re, im = (np.where(rng.random(n) < 0.3, rng.choice(special, n),
                       rng.standard_normal(n)
                       * 10.0**rng.uniform(-300, 300, n))
              for _ in range(2))
    x = np.empty(n, dtype=complex)
    x.real, x.imag = re, im   # the parts as drawn, signed zeros included
    divisors = 10.0**rng.uniform(-300, 300, 64)
    with np.errstate(over="ignore", under="ignore"):
        for s in [1e-300, 1e300, *divisors]:
            want = x / s
            inv = 1 / s
            scaled = _scale_parts(x.copy(), inv)
            for got in ((x.real * inv, x.imag * inv),
                        (scaled.real, scaled.imag)):
                for part, ref in zip(got, (want.real, want.imag)):
                    assert np.all(part == ref)
                    assert np.all((np.signbit(part) == np.signbit(ref))
                                  | (part == 0))
        # a real array of divisors, as theta = conj(u_1) / |u_1| takes it
        s = 10.0**rng.uniform(-300, 300, n)
        want = x / s
        got = _scale_parts(x.copy(), 1 / s)
        assert np.all(got.real == want.real) and np.all(got.imag == want.imag)


def test_svd_theta_is_numpys_quotient_with_one_at_zero_entries():
    """svd_solution's theta equals the quotient conj(u_1) / |u_1| that
    numpy forms, with 1 where u_1 is 0: a zero row of the cascade gives u_1
    an exact zero there."""
    rng = np.random.default_rng(7)
    h_ti = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    h_ti[[0, 5]] = 0.0
    channels = ChannelSet(h_ti=h_ti)
    u1, _ = channels.leading_pair
    mag = abs(u1)
    assert mag[0] == 0.0 and mag[5] == 0.0
    want = np.divide(np.conj(u1), mag, out=np.ones(len(u1), dtype=complex),
                     where=mag != 0)
    theta = svd_solution(channels, P_T).theta
    assert np.all(theta.real == want.real) and np.all(theta.imag == want.imag)
    assert theta[0] == 1.0 and theta[5] == 1.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scene=scenes)
@example(scene=(*equilateral(200.0, rows=3, cols=3, count=4), RADIO))
def test_svd_solution_matches_closed_form_on_farfield_channel(scene):
    tx, ris, rx, radio = scene
    p_t = radio.tx_power
    channels = farfield_channel(scene_route(tx, ris, rx, radio))
    svd = svd_solution(channels, p_t)
    closed = closed_form_solution(scene_route(tx, ris, rx, radio))
    p_closed = received_power(channels, closed.theta, closed.v)
    assert svd.predicted_power == pytest.approx(p_closed, rel=1e-9, abs=0)
    # rank-one channel: the projected solution attains the bound exactly
    assert svd.predicted_power == pytest.approx(
        power_upper_bound(channels, p_t), rel=1e-9, abs=0)
    np.testing.assert_allclose(np.abs(svd.theta), 1.0, atol=1e-12)
    assert np.vdot(svd.v, svd.v).real <= p_t * (1 + 1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=scene_args["rows"], cols=scene_args["cols"],
       seed=scene_args["seed"])
@example(rows=2, cols=2, seed=0)
def test_two_path_row_matches_dense_farfield_channel(rows, cols, seed):
    """The two-path MRT row formed from the rank-one factors equals the row
    theta @ C + h_tr of the dense far-field channel, so the
    beamformer is the MRT of that row."""
    tx, ris, rx, radio, _ = random_scene(rows, cols, False, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AmbiguousSignWarning)
        sol = two_path_solution(scene_route(tx, ris, rx, radio))
    channels = farfield_channel(scene_route(tx, ris, rx, radio), direct=True)
    row = sol.theta @ channels.h_ti + channels.h_tr
    np.testing.assert_allclose(sol.v, mrt_beamforming(row, radio.tx_power),
                               rtol=0, atol=1e-12 * np.sqrt(radio.tx_power))


def test_solution_ordering_near_field():
    # compact scene where the far-field formulas are stressed
    tx, ris, rx = equilateral(5.0, rows=4, cols=4, count=4)
    channels = exact_channel(scene_route(tx, ris, rx, RADIO))
    closed = closed_form_solution(scene_route(tx, ris, rx, RADIO))
    p_closed = received_power(channels, closed.theta, closed.v)
    p_svd = svd_solution(channels, P_T).predicted_power
    bound = power_upper_bound(channels, P_T)
    assert p_closed <= p_svd * (1 + 1e-9)
    assert p_svd <= bound * (1 + 1e-9)


def test_power_upper_bound_zero_channel():
    ch = ChannelSet(h_ti=np.zeros((4, 2), dtype=complex))
    assert power_upper_bound(ch, 1.0) == 0.0
    # with a direct row the ceiling is the direct path's alone
    direct = ChannelSet(h_ti=ch.h_ti, h_tr=np.array([3e-4, 4e-4j]))
    assert power_upper_bound(direct, 2.0) == pytest.approx(2.0 * 25e-8,
                                                           rel=1e-15)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(direct=st.booleans(), **scene_args)
@example(direct=True, rows=4, cols=4, upa=False, seed=5)
def test_bound_is_at_least_every_design(direct, rows, cols, upa, seed):
    """On the exact channel of a random scene, with and without the direct
    link, no design (closed form, two-path on ULA scenes, SVD) evaluates
    above power_upper_bound."""
    tx, ris, rx, radio, _ = random_scene(rows, cols, upa, seed)
    channels = exact_channel(scene_route(tx, ris, rx, radio), direct=direct)
    sols = [closed_form_solution(scene_route(tx, ris, rx, radio)),
            svd_solution(channels, radio.tx_power)]
    if direct and not upa:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AmbiguousSignWarning)
            sols.append(two_path_solution(scene_route(tx, ris, rx, radio)))
    bound = power_upper_bound(channels, radio.tx_power)
    for sol in sols:
        assert received_power(channels, sol.theta, sol.v) <= bound * (1 + 1e-9)


def test_anti_decay_fix_area_design():
    d1 = anti_decay_design(0.0286, 1 / 3, 9.0)
    assert (d1.rows, d1.cols) == (314, 314)
    assert d1.d_x == pytest.approx(0.0286 / 3)
    assert d1.rows * d1.cols * d1.d_x * d1.d_y <= 9.0
    d2 = anti_decay_design(0.0143, 1 / 3, 9.0)
    assert (d2.rows, d2.cols) == (629, 629)
    # the flatness invariant: L * d_x * d_y * wavelength^2 nearly constant
    k1 = d1.count * d1.d_x * d1.d_y
    k2 = d2.count * d2.d_x * d2.d_y
    assert k1 == pytest.approx(k2, rel=5e-3)


def test_anti_decay_design_rejects_bad_inputs():
    """A wavelength, ratio or total area that is not finite and > 0 raises
    DomainError, NaN included, and so does an area too small for one
    element or an element side so small that the grid side reaches 2**64
    or overflows (or the side itself underflows to 0); no RuntimeWarning
    escapes on the way."""
    for bad in (0.0, -1.0, np.nan, np.inf):
        for args in ((bad, 1 / 3, 9.0), (0.0286, bad, 9.0),
                     (0.0286, 1 / 3, bad)):
            with pytest.raises(DomainError, match="finite and > 0"):
                anti_decay_design(*args)
    with pytest.raises(DomainError, match="too small for one element"):
        anti_decay_design(10.0, 1 / 3, 9.0)
    for wavelength, ratio in ((1e-20, 1e-300), (1e-30, 1e-300),
                              (1e-7, 1e-300), (1e-19, 1 / 3)):
        with pytest.raises(DomainError, match="too small for a finite grid"):
            anti_decay_design(wavelength, ratio, 9.0)
    # the largest grid side allowed fits a 64-bit integer array
    side = anti_decay_design(0.0286 / 2**55, 1 / 3, 9.0).rows
    assert 2**63 < side < 2**64
    assert np.array([side]).dtype == np.uint64
