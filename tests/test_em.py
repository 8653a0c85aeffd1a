import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rislink import em
from rislink.em import (ChannelSet, RadioParams,
                        amplitude_gain_tir, direct_channel, exact_channel,
                        farfield_channel, farfield_power, radiation_pattern,
                        received_power, scene_route)
from rislink.errors import (DegenerateGeometry, DimensionMismatch,
                            DomainError, ShadowedPanel)
from rislink.geometry import (PanelPoses, RisPanel, TransmitterArray,
                              UlaLayout, UpaLayout, antenna_positions,
                              element_positions, far_field_check,
                              link_angles)
from rislink.solvers import closed_form_solution

from test_geometry import EX, EY, EZ, make_panel, make_ula

RADIO = RadioParams(wavelength=0.0286, tx_power=0.001)


def offsets_toward(points, center, target):
    """Reference linearized path-length change of each point (K, 3) toward a
    far target: -(point - center) . unit(target - center)."""
    u = target - center
    return -(points - center) @ (u / np.linalg.norm(u))


def equilateral(d=200.0, rows=2, cols=2, count=2, **panel_kw):
    """T, panel, R on an equilateral triangle; panel faces the midpoint."""
    tx = make_ula(center=(-d / 2, 0.0, 0.0), count=count, spacing=0.0143,
                  axis=EY)
    normal = np.array([0.0, 0.0, -1.0])
    ris = make_panel(center=(0.0, 0.0, np.sqrt(3) / 2 * d), rows=rows,
                     cols=cols, normal=normal, ax=EX, ay=-EY, **panel_kw)
    rx = np.array([d / 2, 0.0, 0.0])
    return tx, ris, rx


def test_radiation_pattern_values():
    assert radiation_pattern(0.0, 3) == pytest.approx(1.0)
    assert radiation_pattern(np.pi / 3, 3) == pytest.approx(0.125)
    assert radiation_pattern(np.pi / 2, 3) == pytest.approx(0.0)
    assert radiation_pattern(2.0, 3) == 0.0          # behind the panel
    assert radiation_pattern(np.pi / 3, 0) == pytest.approx(1.0)
    arr = radiation_pattern(np.array([0.0, np.pi / 4, 3.0]), 2)
    np.testing.assert_allclose(arr, [1.0, 0.5, 0.0], atol=1e-15)


def test_radiation_pattern_domain_errors():
    with pytest.raises(DomainError):
        radiation_pattern(-0.1, 3)
    with pytest.raises(DomainError):
        radiation_pattern(3.5, 3)
    with pytest.raises(DomainError):
        radiation_pattern(0.5, -1.0)


def test_amplitude_gain_frozen_value():
    # Gt=Gr=10**2.1, G=10**0.903, dx=dy=0.01, l=0.0286, Gamma=1, k=3,
    # theta_t=theta_r=pi/6, d_TI=d_IR=200 (independently computed, 40-digit
    # arithmetic)
    from rislink.geometry import TransmitterArray, UlaLayout
    _, ris, rx = equilateral(200.0, element_gain=10**0.903)
    tx = TransmitterArray(center=np.array([-100.0, 0.0, 0.0]),
                          layout=UlaLayout(count=2, spacing=0.0143, axis=EY),
                          element_gain=10**2.1)
    radio = RadioParams(wavelength=0.0286, rx_gain=10**2.1)
    ang = link_angles(tx, rx, PanelPoses.of(ris))
    assert ang.theta_t[0] == pytest.approx(np.pi / 6)
    assert ang.theta_r[0] == pytest.approx(np.pi / 6)
    delta = amplitude_gain_tir(ang, tx, ris, radio)
    assert delta.shape == (1,)
    assert delta[0] == pytest.approx(0.0014847151229886238, rel=1e-14)
    # the far-field link's a_TIR = delta / (d_TI * d_IR)
    a_tir = scene_route(tx, ris, rx, radio).a_tir[0]
    assert a_tir == pytest.approx(3.7117878074715594e-8, rel=1e-14)


def test_shadowed_panel_raises():
    tx, ris, rx = equilateral(100.0)
    behind = np.array([0.0, 0.0, 2000.0])  # on the panel's back side
    ang = link_angles(tx, behind, PanelPoses.of(ris))
    with pytest.raises(ShadowedPanel):
        amplitude_gain_tir(ang, tx, ris, RADIO)


def test_farfield_channel_rank_one_and_factors():
    tx, ris, rx = equilateral(200.0)
    channels = farfield_channel(scene_route(tx, ris, rx, RADIO))
    assert channels.h_ti.shape == (4, 2)
    # rank-one: every 2x2 minor vanishes
    s = np.linalg.svd(channels.h_ti, compute_uv=False)
    assert s[1] <= s[0] * 1e-12
    a_tir = scene_route(tx, ris, rx, RADIO).a_tir[0]
    np.testing.assert_allclose(np.abs(channels.h_ti), a_tir, rtol=1e-12)
    # each cascade column is d_vec, the conjugate of the closed-form
    # phases, times one constant
    d_vec = np.conj(
        closed_form_solution(scene_route(tx, ris, rx, RADIO)).theta)
    column = channels.cascade()[:, 0]
    np.testing.assert_allclose(column, d_vec * (column[0] / d_vec[0]),
                               rtol=1e-12)


def test_exact_channel_matches_farfield_at_long_range():
    tx, ris, rx = equilateral(500.0)
    ff = farfield_channel(scene_route(tx, ris, rx, RADIO))
    ex = exact_channel(scene_route(tx, ris, rx, RADIO))
    # same order of amplitude and phase agreement to a fraction of a radian
    np.testing.assert_allclose(np.abs(ex.h_ti), np.abs(ff.h_ti), rtol=1e-4)
    dphase = np.angle(ex.h_ti * np.conj(ff.h_ti))
    assert np.max(np.abs(dphase)) < 0.05


def test_phase_discrepancy_shrinks_with_scale():
    errs = []
    for scale in (1e2, 1e3, 1e4):
        tx, ris, rx = equilateral(float(scale))
        ff = farfield_channel(scene_route(tx, ris, rx, RADIO))
        ex = exact_channel(scene_route(tx, ris, rx, RADIO))
        full_ff = ff.cascade()
        full_ex = ex.cascade()
        errs.append(np.max(np.abs(np.angle(full_ex * np.conj(full_ff)))))
    assert errs[0] >= errs[1] >= errs[2]


def test_amplitude_inverse_square_scaling():
    tx1, ris1, rx1 = equilateral(100.0)
    tx2, ris2, rx2 = equilateral(1000.0)
    a1 = np.abs(exact_channel(scene_route(tx1, ris1, rx1, RADIO)).h_ti)
    a2 = np.abs(exact_channel(scene_route(tx2, ris2, rx2, RADIO)).h_ti)
    np.testing.assert_allclose(a2 * 100.0, a1, rtol=1e-3)


def test_direct_channel_friis_amplitude_and_phase():
    tx = make_ula(center=(0.0, 0.0, 0.0), count=2, spacing=0.5, axis=EY)
    rx = np.array([100.0, 0.0, 0.0])
    h = direct_channel(tx, rx, RADIO)
    a_tr = RADIO.wavelength / (4 * np.pi * 100.0)
    np.testing.assert_allclose(np.abs(h), a_tr, rtol=1e-12)
    d_p = np.linalg.norm(rx - np.array([[0.0, 0.25, 0.0], [0.0, -0.25, 0.0]]),
                         axis=1)
    np.testing.assert_allclose(np.angle(h),
                               np.angle(np.exp(2j * np.pi * d_p / 0.0286)),
                               atol=1e-9)


def test_farfield_functions_check_no_far_field_condition():
    """The far-field channel and power are built on a scene that fails the
    far-field conditions (a panel too large for the distance) at every
    pose of a random_poses stack, with no warning: only the studies apply a
    far-field policy."""
    tx = make_ula(center=(0.0, 0.0, 5.0), count=2, spacing=0.0143, axis=EY)
    ris = make_panel(rows=20, cols=20)
    rx = np.array([5.0, 0.0, 5.0])
    poses = random_poses(np.random.default_rng(1), ris, 4)
    ang = link_angles(tx, rx, poses)
    assert np.all(far_field_check(tx, ris, ang.d_ti, ang.d_ir)[:, 1:] < 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        channels = farfield_channel(scene_route(tx, ris, rx, RADIO),
                                    direct=True)
        power = farfield_power(scene_route(tx, ris, rx, RADIO), poses)
    assert np.all(np.isfinite(channels.h_ti))
    assert np.all(np.isfinite(power)) and power[0] > 0.0


def test_received_power_matches_manual_product():
    """|theta @ C @ v + h_TR @ v|^2, with the cascade C written out by
    dense_exact_channel and summed over every path."""
    tx, ris, rx = equilateral(300.0)
    ch = exact_channel(scene_route(tx, ris, rx, RADIO), direct=True)
    rng = np.random.default_rng(3)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, ris.count))
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c = dense_exact_channel(antenna_positions(tx), element_positions(ris).T,
                            rx, lone_delta(tx, ris, rx, RADIO),
                            RADIO.wavelength)
    amp = np.einsum("q,qp,p->", theta, c, v) + ch.h_tr @ v
    assert received_power(ch, theta, v) == pytest.approx(abs(amp) ** 2,
                                                         rel=1e-12)


def test_received_power_scales_quadratically_in_v():
    tx, ris, rx = equilateral(300.0)
    ch = exact_channel(scene_route(tx, ris, rx, RADIO))
    theta = np.ones(ris.count, dtype=complex)
    v = np.array([1.0 + 0.5j, -0.25j])
    p1 = received_power(ch, theta, v)
    p2 = received_power(ch, theta, 3.0 * v)
    assert p2 == pytest.approx(9.0 * p1, rel=1e-12)


def test_shape_mismatches_raise():
    tx, ris, rx = equilateral(300.0)
    ch = exact_channel(scene_route(tx, ris, rx, RADIO))
    with pytest.raises(DimensionMismatch):
        received_power(ch, np.ones(3, dtype=complex), np.ones(2))
    with pytest.raises(DimensionMismatch):
        received_power(ch, np.ones(4, dtype=complex), np.ones(5))
    with pytest.raises(DimensionMismatch):
        ChannelSet(h_ti=np.ones(4, dtype=complex))
    with pytest.raises(DimensionMismatch):
        ChannelSet(h_ti=np.ones((4, 2), dtype=complex),
                   h_tr=np.ones(3, dtype=complex))


def test_radio_params_validation():
    with pytest.raises(DomainError):
        RadioParams(wavelength=0.0)
    with pytest.raises(DomainError):
        RadioParams(wavelength=0.01, tx_power=-1.0)


def _frame(rng):
    """Random orthonormal triple (normal, axis_x, axis_y)."""
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return q[:, 0], q[:, 1], q[:, 2]


def random_scene(rows, cols, upa, seed):
    """A panel of rows x cols elements (d_x != d_y) near the origin in a
    random frame, a ULA or UPA transmitter and a receiver 20-200 m away on
    the panel's front side, plus the generator for the design draws."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.01, 0.1)
    normal, ax, ay = _frame(rng)
    ris = RisPanel(center=rng.uniform(-2.0, 2.0, 3), rows=rows, cols=cols,
                   d_x=lam * rng.uniform(0.1, 0.5),
                   d_y=lam * rng.uniform(0.1, 0.5),
                   normal=normal, axis_x=ax, axis_y=ay)

    def front_point():
        el, az = rng.uniform(0.0, 1.2), rng.uniform(0.0, 2 * np.pi)
        u = (np.cos(el) * normal
             + np.sin(el) * (np.cos(az) * ax + np.sin(az) * ay))
        return ris.center + rng.uniform(20.0, 200.0) * u

    if upa:
        _, tx_ax, tx_ay = _frame(rng)
        layout = UpaLayout(rows=int(rng.integers(1, 5)),
                           cols=int(rng.integers(1, 5)),
                           spacing_x=lam / 2,
                           spacing_y=lam * rng.uniform(0.3, 1.0),
                           axis_x=tx_ax, axis_y=tx_ay)
    else:
        layout = UlaLayout(count=int(rng.integers(1, 9)),
                           spacing=lam * rng.uniform(0.3, 1.0),
                           axis=_frame(rng)[0])
    tx = TransmitterArray(center=front_point(), layout=layout)
    rx = front_point()
    radio = RadioParams(wavelength=lam, tx_power=rng.uniform(0.1, 2.0))
    return tx, ris, rx, radio, rng


def random_steering(rng, ris):
    """A random steering pair (g_y, g_x): the panel-axis components of
    u_a + u_b for two random unit vectors, as a closed-form design takes
    them from its own u_TI + u_IR."""
    u = sum(w / np.linalg.norm(w) for w in rng.standard_normal((2, 3)))
    return ris.axis_y @ u, ris.axis_x @ u


def moved_panel(ris, poses, i):
    """The panel `ris` moved to pose i of the stack."""
    return ris._replace(center=poses.center[i], normal=poses.normal[i],
                        axis_x=poses.axis_x[i], axis_y=poses.axis_y[i])


def design_power(tx, ris, rx, radio, sol):
    """received_power of the design `sol` on the dense far-field channel
    of the scene."""
    return received_power(farfield_channel(scene_route(tx, ris, rx, radio)),
                          sol.theta, sol.v)


scene_args = dict(rows=st.integers(1, 7), cols=st.integers(1, 7),
                  upa=st.booleans(), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**scene_args)
@example(rows=2, cols=5, upa=False, seed=1)
@example(rows=4, cols=1, upa=True, seed=2)
def test_farfield_power_matches_dense_channel(rows, cols, upa, seed):
    """At the panel's own pose the factored power is that of its
    closed-form design, a (1,) array: the design's predicted
    N * L^2 * a_TIR^2 * P_t, and received_power of its theta and v on the
    dense far-field channel, each to 1e-12 relative error."""
    tx, ris, rx, radio, _ = random_scene(rows, cols, upa, seed)
    sol = closed_form_solution(scene_route(tx, ris, rx, radio))
    power = farfield_power(scene_route(tx, ris, rx, radio), PanelPoses.of(ris))
    assert power.shape == (1,)
    assert power[0] == pytest.approx(sol.predicted_power, rel=1e-12, abs=0)
    assert power[0] == pytest.approx(design_power(tx, ris, rx, radio, sol),
                                     rel=1e-12, abs=0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**scene_args)
@example(rows=3, cols=6, upa=True, seed=3)
def test_farfield_factors_match_element_positions(rows, cols, upa, seed):
    """The far-field cascade equals its factorization built from the
    per-element and per-antenna linearized offsets of the (L, 3) element
    positions and of the (N, 3) antenna offsets of the layout (the antenna
    positions of the array moved to the origin), in row-major element
    order: the separable panel phasors toward u_TI + u_IR are the products
    of the element phasors toward T and R, and the link's b_vec covers ULA
    and UPA layouts."""
    tx, ris, rx, radio, _ = random_scene(rows, cols, upa, seed)
    channels = farfield_channel(scene_route(tx, ris, rx, radio))
    link = scene_route(tx, ris, rx, radio)
    wavenum = 2 * np.pi / radio.wavelength
    elems = element_positions(ris).T
    d_ref = np.exp(1j * wavenum * (offsets_toward(elems, ris.center,
                                                  tx.center)
                                   + offsets_toward(elems, ris.center, rx)))
    layout = antenna_positions(tx._replace(center=np.zeros(3)))
    b_ref = np.exp(1j * wavenum * offsets_toward(
        layout, np.zeros(3), ris.center - tx.center))
    cascade = (link.a_tir[0]
               * np.exp(1j * wavenum * (link.angles.d_ti[0]
                                        + link.angles.d_ir[0]))
               * np.outer(d_ref, b_ref))
    np.testing.assert_allclose(channels.h_ti, cascade, rtol=0,
                               atol=1e-12 * link.a_tir[0])


def mirrored_scene(rows, cols, seed):
    """A scene that reflection through y = 0 maps onto itself: the panel
    center, T and R lie in that plane, the panel normal and axis_x in it
    too, the panel rows and a ULA of 1-8 antennas run along y.  Each of the
    y coordinates of the panel center and R is 0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.01, 0.1)
    a = rng.uniform(0.0, 2 * np.pi)
    normal = np.array([np.cos(a), 0.0, np.sin(a)])
    ax = np.array([-np.sin(a), 0.0, np.cos(a)])
    center = np.array([rng.uniform(-2, 2), rng.choice([0.0, -0.0]),
                       rng.uniform(-2, 2)])
    ris = RisPanel(center=center, rows=rows, cols=cols,
                   d_x=lam * rng.uniform(0.1, 0.5),
                   d_y=lam * rng.uniform(0.1, 0.5),
                   normal=normal, axis_x=ax, axis_y=-EY)

    def front_point():
        el = rng.uniform(-1.2, 1.2)
        return center + rng.uniform(20.0, 200.0) * (np.cos(el) * normal
                                                    + np.sin(el) * ax)

    tx = TransmitterArray(center=front_point(),
                          layout=UlaLayout(count=int(rng.integers(1, 9)),
                                           spacing=lam * rng.uniform(0.3, 1),
                                           axis=EY))
    rx = front_point()
    rx[1] = rng.choice([0.0, -0.0])
    return tx, ris, rx, RadioParams(wavelength=lam), rng


def takes_mirror_build(tx, ris, rx):
    """Whether exact_channel builds this scene from half its rows."""
    return em._mirrored(antenna_positions(tx), element_positions(ris),
                        ris.rows, rx)


def lone_delta(tx, ris, rx, radio):
    """The distance-free amplitude delta of the panel at its own pose."""
    return amplitude_gain_tir(link_angles(tx, rx, PanelPoses.of(ris)), tx,
                              ris, radio)[0]


def dense_exact_channel(ants, elems, rx, delta, wavelength):
    """The cascade (L, N) of the exact channel written out from the (N, 3)
    antenna and (L, 3) element positions: the per-pair distances by
    np.linalg.norm of the (L, N, 3) differences, the amplitude
    delta / (d * d_IR) and the phasor np.exp(j*k*(d + d_IR))."""
    wavenum = 2 * np.pi / wavelength
    d_ti = np.linalg.norm(elems[:, None, :] - ants[None, :, :], axis=2)
    d_ir = np.linalg.norm(rx[None, :] - elems, axis=1)[:, None]
    return delta / (d_ti * d_ir) * np.exp(1j * wavenum * (d_ti + d_ir))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**scene_args, block_rows=st.sampled_from([None, 1, 2, 3]),
       aligned=st.booleans(), mirrored=st.booleans())
@example(rows=5, cols=3, upa=False, seed=4, block_rows=None, aligned=False,
         mirrored=False)
@example(rows=2, cols=6, upa=True, seed=5, block_rows=None, aligned=False,
         mirrored=False)
@example(rows=3, cols=4, upa=False, seed=0, block_rows=2,     # N = 7
         aligned=False, mirrored=False)
@example(rows=1, cols=5, upa=True, seed=25, block_rows=2,     # N = 9
         aligned=False, mirrored=False)
@example(rows=7, cols=7, upa=False, seed=6, block_rows=1, aligned=True,
         mirrored=False)
@example(rows=4, cols=3, upa=True, seed=7, block_rows=1, aligned=True,
         mirrored=False)
@example(rows=5, cols=2, upa=False, seed=3, block_rows=None,  # N = 5
         aligned=False, mirrored=True)
@example(rows=4, cols=3, upa=False, seed=1, block_rows=1,     # N = 8
         aligned=False, mirrored=True)
@example(rows=1, cols=4, upa=False, seed=0, block_rows=2,     # N = 1
         aligned=False, mirrored=True)
@example(rows=3, cols=5, upa=False, seed=8, block_rows=3,     # N = 7
         aligned=False, mirrored=True)
@example(rows=7, cols=3, upa=False, seed=7, block_rows=2,     # N = 2
         aligned=False, mirrored=True)
def test_exact_channel_matches_norm_formula(rows, cols, upa, seed,
                                            block_rows, aligned, mirrored):
    """The per-axis distance planes and the cos/sin phasor give the same
    bits as the (L, N, 3) norm and np.exp formula of dense_exact_channel.
    That holds with the channel in one block (`block_rows` None), one
    antenna row per block as at paper scale, or blocks of two or three rows
    with a shorter last block; with the array along coordinate axes
    (`aligned`), where all antennas share a coordinate on one or two axes;
    and in a scene mirrored through y = 0 (`mirrored`, from
    mirrored_scene: odd and even N and panel rows, and -0.0 coordinates),
    whose channel is built from half its antenna and panel rows and carries
    the `mirrored` flag that lets the leading pair use half the Gram."""
    if mirrored:
        tx, ris, rx, radio, _ = mirrored_scene(rows, cols, seed)
    else:
        tx, ris, rx, radio, _ = random_scene(rows, cols, upa, seed)
    if aligned and not mirrored:
        axes = (dict(axis_x=EX, axis_y=EZ) if upa else dict(axis=EY))
        tx = tx._replace(layout=tx.layout._replace(**axes))
    assert takes_mirror_build(tx, ris, rx) == mirrored
    with pytest.MonkeyPatch.context() as mp:
        if block_rows:
            mp.setattr(em, "_CHANNEL_BLOCK", block_rows * ris.count)
        channels = exact_channel(scene_route(tx, ris, rx, radio))
    assert channels.mirrored == mirrored
    assert np.array_equal(channels.h_ti, dense_exact_channel(
        antenna_positions(tx), element_positions(ris).T, rx,
        lone_delta(tx, ris, rx, radio), radio.wavelength))


@pytest.mark.parametrize("nudged", ["rx", "element", "antenna"])
def test_exact_channel_near_mirror_takes_full_build(nudged, monkeypatch):
    """A mirrored scene with R, one element or one antenna a single ulp off
    its mirror image fails the symmetry check, is built row by row and
    still matches dense_exact_channel on the positions it was given."""
    tx, ris, rx, radio, _ = mirrored_scene(5, 4, seed=3)
    assert takes_mirror_build(tx, ris, rx)
    planes = element_positions(ris)
    ants = antenna_positions(tx)
    if nudged == "rx":
        rx[1] = np.nextafter(0.0, 1.0)
    elif nudged == "element":
        planes[1, 6] = np.nextafter(planes[1, 6], np.inf)
    else:
        ants[0, 2] = np.nextafter(ants[0, 2], np.inf)
    monkeypatch.setattr(em, "element_positions", lambda _: planes)
    monkeypatch.setattr(em, "antenna_positions", lambda _: ants)
    assert not em._mirrored(ants, planes, ris.rows, rx)
    channels = exact_channel(scene_route(tx, ris, rx, radio))
    assert not channels.mirrored
    assert np.array_equal(channels.h_ti, dense_exact_channel(
        ants, planes.T, rx, lone_delta(tx, ris, rx, radio),
        radio.wavelength))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.integers(1, 8), cols=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
@example(rows=7, cols=4, seed=0)
@example(rows=1, cols=1, seed=1)
def test_panel_phasors_bits_match_exp(rows, cols, seed):
    """_panel_phasors gives the bits, signs of zero included, of the
    row-major outer product of np.exp(-1j * k*(axis . u) * offsets) along
    axis_y and axis_x, u = u_TI + u_IR of the panel's far-field link, for
    odd and even counts, with the offsets formed here from their formula
    and not from _axis_offsets."""
    tx, ris, rx, radio, _ = random_scene(rows, cols, False, seed)
    link = scene_route(tx, ris, rx, radio)
    u = link.angles.u_ti[0] + link.angles.u_ir[0]
    wavenum = 2 * np.pi / radio.wavelength
    got = em._panel_phasors(link)
    e_y, e_x = (np.exp(-1j * (wavenum * np.vecdot(axis, u)
                              * ((np.arange(1, count + 1) - (count + 1) / 2)
                                 * pitch)))
                for axis, count, pitch in ((ris.axis_y, rows, ris.d_y),
                                           (ris.axis_x, cols, ris.d_x)))
    ref = np.outer(e_y, e_x).ravel()
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def test_exact_channel_working_memory_is_block_sized():
    """A paper-scale channel (L = 10 000, N = 16) is built one antenna row
    at a time: the traced peak of the call, the returned channel included,
    stays under twice the channel's own size."""
    tx, ris, rx = equilateral(50.0, rows=100, cols=100, count=16)
    # first call: imports and caches
    exact_channel(scene_route(tx, ris, rx, RADIO))
    tracemalloc.start()
    try:
        channels = exact_channel(scene_route(tx, ris, rx, RADIO))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * channels.h_ti.nbytes


def test_exact_channel_raises_on_coincident_antenna_and_element(monkeypatch):
    """An antenna on a panel element away from both centres passes
    link_angles but not the channel build, also when that antenna lies in
    a later block than the first."""
    ris = make_panel(rows=3, cols=3, d=0.5)
    # antennas at z = 3, 2, 1, 0 above the element at (0.5, 0.5, 0)
    tx = make_ula(center=(0.5, 0.5, 1.5), count=4, spacing=1.0, axis=EZ)
    assert np.array_equal(antenna_positions(tx)[3],
                          element_positions(ris)[:, 8])
    rx = np.array([5.0, 0.0, 5.0])
    link_angles(tx, rx, PanelPoses.of(ris))
    monkeypatch.setattr(em, "_CHANNEL_BLOCK", 2 * ris.count)
    with pytest.raises(DegenerateGeometry):
        exact_channel(scene_route(tx, ris, rx, RADIO))


def test_channel_set_cascade_is_a_view_and_leading_pair_read_only():
    """cascade() is h_ti itself as a read-only view, no copy; the leading
    pair is computed once and kept read-only."""
    tx, ris, rx = equilateral(50.0, rows=3, cols=2, count=3)
    channels = exact_channel(scene_route(tx, ris, rx, RADIO))
    cascade = channels.cascade()
    assert np.shares_memory(cascade, channels.h_ti)
    np.testing.assert_array_equal(cascade, channels.h_ti)
    u1, sigma = channels.leading_pair
    assert channels.leading_pair[0] is u1
    assert sigma == pytest.approx(np.linalg.svd(cascade,
                                                compute_uv=False)[0],
                                  rel=1e-12)
    for arr in (cascade, u1):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_farfield_power_checks_shapes_and_shadowing():
    """The power is a (P,) array.  A design panel that does not see both
    ends raises ShadowedPanel, as closed_form_solution does; a pose of a
    stack whose panel does not see both ends gets 0 W, and the others the
    bits of a call of their own."""
    tx, ris, rx = equilateral(300.0, rows=2, cols=3)
    behind = np.array([0.0, 0.0, 2000.0])  # on the panel's back side
    with pytest.raises(ShadowedPanel):
        farfield_power(scene_route(tx, ris, behind, RADIO), PanelPoses.of(ris))
    own = PanelPoses.of(ris)
    flipped = PanelPoses(np.tile(ris.center, (2, 1)),
                         np.stack([ris.normal, -ris.normal]),
                         np.tile(ris.axis_x, (2, 1)),
                         np.stack([ris.axis_y, -ris.axis_y]))
    power = farfield_power(scene_route(tx, ris, rx, RADIO), flipped)
    assert power.shape == (2,)
    assert power[1] == 0.0
    assert np.array_equal(
        power[:1], farfield_power(scene_route(tx, ris, rx, RADIO), own))
    assert power[0] > 0.0


def test_farfield_power_checks_transmitter_steering():
    """The design's transmitter steering is one scalar for a ULA and a
    pair for a UPA, and either stands for the beamformer of
    closed_form_solution: at the panel's own pose the power is the
    design's predicted power to 1e-12 relative error."""
    tx, ris, rx = equilateral(300.0, rows=2, cols=3)
    upa = tx._replace(layout=UpaLayout(rows=2, cols=3, spacing_x=0.0143,
                                       spacing_y=0.02, axis_x=EX, axis_y=EY))
    for array, components in ((tx, 1), (upa, 2)):
        link = scene_route(array, ris, rx, RADIO)
        _, tx_steering = em._design_steering(link)
        assert len(tx_steering) == components
        power = farfield_power(scene_route(array, ris, rx, RADIO),
                               PanelPoses.of(ris))
        assert power.shape == (1,) and power[0] > 0.0
        assert power[0] == pytest.approx(
            closed_form_solution(
                scene_route(array, ris, rx, RADIO)).predicted_power,
            rel=1e-12, abs=0)


def test_panel_poses_are_checked_like_a_panel_frame():
    _, ris, _ = equilateral(200.0)
    one = PanelPoses.of(ris)
    assert one.center.shape == (1, 3)
    assert np.array_equal(one.normal, ris.normal[None])
    frame = dict(normal=one.normal, axis_x=one.axis_x, axis_y=one.axis_y)
    with pytest.raises(DomainError, match="unit-norm"):
        PanelPoses(one.center, **{**frame, "normal": 2 * one.normal})
    with pytest.raises(DomainError, match="orthogonal"):
        PanelPoses(one.center, **{**frame, "axis_x": one.axis_y})
    with pytest.raises(DomainError):
        PanelPoses(one.center[0], **frame)                  # not (P, 3)
    with pytest.raises(DomainError):
        PanelPoses(np.zeros((2, 3)), **frame)               # P disagrees
    with pytest.raises(DomainError):
        PanelPoses(np.full((1, 3), np.nan), **frame)


def random_poses(rng, ris, count):
    """`count` poses of the panel: centers within 2 m of its own, the first
    half in its own frame and the rest in random frames, and last its own
    pose facing away, so that T and R are behind it."""
    own = [(ris.normal, ris.axis_x, ris.axis_y)] * ((count + 1) // 2)
    frames = own + [_frame(rng) for _ in range(count // 2)]
    frames.append((-ris.normal, ris.axis_x, -ris.axis_y))
    centers = ris.center + rng.uniform(-2.0, 2.0, (count + 1, 3))
    centers[-1] = ris.center
    return PanelPoses(centers, *(np.array(a) for a in zip(*frames)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**scene_args)
@example(rows=2, cols=5, upa=False, seed=1)
@example(rows=4, cols=1, upa=True, seed=2)
def test_farfield_power_over_poses_matches_dense_channel(rows, cols, upa,
                                                         seed):
    """Each pose of a stack gives received_power of the closed-form design
    of the panel's own pose on the dense far-field channel of the panel
    moved to that pose; a pose whose panel does not see both ends gives
    0 W, where the dense channel raises ShadowedPanel.

    The rounding error is absolute in the element and antenna sums, so it
    is held to 1e-12 of the larger of the power and the power of a design
    whose sums do not cancel, a_TIR^2 * L * N * ||v||^2.  A power that is
    not a strong cancellation (at least 1e-6 of that maximum) is held to
    1e-12 relative error.
    """
    tx, ris, rx, radio, rng = random_scene(rows, cols, upa, seed)
    sol = closed_form_solution(scene_route(tx, ris, rx, radio))
    poses = random_poses(rng, ris, 6)
    power = farfield_power(scene_route(tx, ris, rx, radio), poses)
    assert power.shape == (len(poses.center),)
    assert power[-1] == 0.0
    for i, p in enumerate(power.tolist()):
        panel = moved_panel(ris, poses, i)
        try:
            dense = design_power(tx, panel, rx, radio, sol)
        except ShadowedPanel:
            assert p == 0.0
            continue
        a_tir = scene_route(tx, panel, rx, radio).a_tir[0]
        scale = a_tir**2 * ris.count * tx.count * np.vdot(sol.v, sol.v).real
        assert abs(p - dense) <= 1e-12 * max(dense, scale)
        if dense >= 1e-6 * scale:
            assert abs(p - dense) <= 1e-12 * dense


def test_farfield_power_pose_blocks_equal_row_groups():
    """A stack of 117 poses, its last pose shadowed, gives the bits of the
    same poses evaluated 41 at a time, the grid-row groups the robustness
    map used to call with."""
    tx, ris, rx, radio, rng = random_scene(12, 10, False, 5)
    poses = random_poses(rng, ris, 116)
    count = len(poses.center)
    whole = farfield_power(scene_route(tx, ris, rx, radio), poses)
    groups = [farfield_power(scene_route(tx, ris, rx, radio),
                             PanelPoses(poses.center[s:s + 41],
                                        poses.normal[s:s + 41],
                                        poses.axis_x[s:s + 41],
                                        poses.axis_y[s:s + 41]))
              for s in range(0, count, 41)]
    assert whole[-1] == 0.0 and np.count_nonzero(whole) > count // 2
    assert np.array_equal(whole, np.concatenate(groups))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**scene_args, count=st.integers(1, 40))
@example(rows=7, cols=7, upa=True, seed=6, count=40)
def test_farfield_power_pose_bits_do_not_depend_on_batch(rows, cols, upa,
                                                         seed, count):
    """Every pose of a stack, whole or cut at random points, gets the bits of
    its own one-pose call."""
    tx, ris, rx, radio, rng = random_scene(rows, cols, upa, seed)
    poses = random_poses(rng, ris, count)
    n = len(poses.center)
    cuts = np.sort(rng.choice(np.arange(1, n), replace=False,
                              size=int(rng.integers(0, min(n - 1, 3) + 1))))
    bounds = [0, *cuts.tolist(), n]

    def power(start, stop):
        part = PanelPoses(poses.center[start:stop], poses.normal[start:stop],
                          poses.axis_x[start:stop], poses.axis_y[start:stop])
        return farfield_power(scene_route(tx, ris, rx, radio), part)

    alone = np.concatenate([power(i, i + 1) for i in range(n)])
    assert np.array_equal(power(0, n), alone)
    assert np.array_equal(
        np.concatenate([power(a, b) for a, b in zip(bounds, bounds[1:])]),
        alone)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=st.integers(1, 8), cols=st.integers(1, 8), upa=st.booleans(),
       seed=st.integers(0, 2**32 - 1),
       count=st.sampled_from([1, 31, 32, 33, 70]))
@example(rows=8, cols=3, upa=False, seed=4, count=70)
def test_theta_dot_d_factor_form_matches_dense_sum(rows, cols, upa, seed,
                                                   count):
    """theta . d_vec as the product of two closed-form array factors equals
    the dense sum of the phases that steer toward (g_y, g_x) against the
    element phasors of each pose, both built from the (L, 3) element
    positions, to 1e-12 * L, for stacks of 1 to 70 poses.  Each
    pose gets the bits of its own one-pose call."""
    tx, ris, rx, radio, rng = random_scene(rows, cols, upa, seed)
    g_y, g_x = random_steering(rng, ris)
    poses = random_poses(rng, ris, count - 1)
    assert len(poses.center) == count
    link = scene_route(tx, ris, rx, radio, poses)
    sums = em._theta_dot_d(link, (g_y, g_x))
    assert sums.shape == (count,)
    wavenum = 2 * np.pi / radio.wavelength
    theta = np.exp(1j * wavenum * ((element_positions(ris).T - ris.center)
                                   @ (g_x * ris.axis_x + g_y * ris.axis_y)))
    for i in range(count):
        one = PanelPoses(poses.center[i:i + 1], poses.normal[i:i + 1],
                         poses.axis_x[i:i + 1], poses.axis_y[i:i + 1])
        alone = em._theta_dot_d(scene_route(tx, ris, rx, radio, one),
                                (g_y, g_x))
        assert np.array_equal(alone, sums[i:i + 1])
        panel = moved_panel(ris, poses, i)
        elems = element_positions(panel).T
        d_vec = np.exp(1j * wavenum
                       * (offsets_toward(elems, panel.center, tx.center)
                          + offsets_toward(elems, panel.center, rx)))
        assert abs(sums[i] - theta @ d_vec) <= 1e-12 * ris.count


def _array_sum(n, u):
    """sum_i cos(2u(i - (n-1)/2)), i = 0..n-1, summed exactly (fsum)."""
    return math.fsum(math.cos(2 * u * (i - (n - 1) / 2)) for i in range(n))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 128),
       u=st.one_of(st.floats(-4 * np.pi, 4 * np.pi),
                   st.integers(-4, 4).map(lambda m: m * np.pi)))
@example(n=1, u=0.0)
@example(n=128, u=4 * np.pi)
@example(n=127, u=-3 * np.pi)
@example(n=64, u=np.pi / 2)
@example(n=100, u=np.nextafter(np.pi, 0.0))
def test_array_factor_matches_direct_sum(n, u):
    """_array_factor, the closed-form uniform-array factor folded into
    [-pi/2, pi/2], equals the direct sum of its n cosines to 1e-13 * n,
    exact multiples of pi included; with pitch 2 and k = 1 its u is the
    given u.  At u = 0 it is exactly n, for a scalar and for an array."""
    got = em._array_factor(n, 2.0, np.array([u]), 0.0, 1.0)
    assert got.shape == (1,)
    assert abs(got[0] - _array_sum(n, u)) <= 1e-13 * n
    assert em._array_factor(n, 2.0, 0.0, 0.0, 1.0) == n
    assert np.array_equal(em._array_factor(n, 0.3, np.full(3, 0.7), 0.7,
                                           50.0), np.full(3, float(n)))


_SIDE = st.sampled_from([-1.0, 1.0])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(n=st.integers(1, 20), m=st.integers(-4, 4), g=st.floats(-1.0, 1.0),
       offset=st.one_of(
           st.just(0.0),
           st.tuples(_SIDE, st.floats(-16.0, 0.0)).map(
               lambda t: t[0] * 10.0**t[1]),
           st.tuples(_SIDE, _SIDE, st.floats(-16.0, -1.0)).map(
               lambda t: t[0] * (np.pi / 2 + t[1] * 10.0**t[2]))))
@example(n=20, m=-4, g=0.0, offset=-np.pi / 2)
@example(n=2, m=-1, g=0.3, offset=1e-12)
@example(n=17, m=3, g=-0.5, offset=-1e-15)
def test_array_factor_straddles_fold_points(n, m, g, offset):
    """Near the fold points u = m*pi, on both sides and at distances from
    1e-16 to 1, and on both sides of the half-points (m + 1/2)*pi where the
    fold switches m, _array_factor at c - g = m*pi + offset equals the
    direct sum of cos(k*(c - g)*o_i) over the n centred offsets, summed
    exactly, to 2e-14 * n.  With pitch 2 and k = 1, u is c - g.  The worst
    error of 200 000 draws of this kind was 7.7e-15 * n, at n = 20, u
    near -4.5*pi: the fold subtracts m * fl(pi), which is off by
    |m| * 1.2e-16, and sin(n*u) scales that by n."""
    c = g + (m * np.pi + offset)
    got = em._array_factor(n, 2.0, np.array([c]), g, 1.0)
    assert abs(got[0] - _array_sum(n, c - g)) <= 2e-14 * n
