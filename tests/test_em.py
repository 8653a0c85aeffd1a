import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rislink import em
from rislink.em import (_POSE_BLOCK, ChannelSet, RadioParams,
                        amplitude_gain_tir, direct_channel, exact_channel,
                        farfield_channel, farfield_power, radiation_pattern,
                        received_power)
from rislink.errors import (DegenerateGeometry, DimensionMismatch,
                            DomainError, FarFieldViolation,
                            FarFieldWarning, ShadowedPanel)
from rislink.geometry import (PanelPoses, RisPanel, TransmitterArray,
                              UlaLayout, UpaLayout, antenna_positions,
                              element_positions, link_angles)
from rislink.solvers import closed_form_phases

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
    ang = link_angles(tx, ris, rx)
    assert ang.theta_t == pytest.approx(np.pi / 6)
    assert ang.theta_r == pytest.approx(np.pi / 6)
    gain = amplitude_gain_tir(ang, tx, ris, radio)
    assert gain.delta == pytest.approx(0.0014847151229886238, rel=1e-14)
    assert gain.amplitude == pytest.approx(3.7117878074715594e-8, rel=1e-14)


def test_shadowed_panel_raises():
    tx, ris, rx = equilateral(100.0)
    behind = np.array([0.0, 0.0, 2000.0])  # on the panel's back side
    ang = link_angles(tx, ris, behind)
    with pytest.raises(ShadowedPanel):
        amplitude_gain_tir(ang, tx, ris, RADIO)


def test_farfield_channel_rank_one_and_factors():
    tx, ris, rx = equilateral(200.0)
    channels = farfield_channel(tx, ris, rx, RADIO)
    assert channels.h_ti.shape == (4, 2)
    # rank-one: every 2x2 minor vanishes
    s = np.linalg.svd(channels.h_ti, compute_uv=False)
    assert s[1] <= s[0] * 1e-12
    a_tir = em._farfield_link(tx, ris, rx, RADIO, "off").a_tir[0]
    np.testing.assert_allclose(np.abs(channels.h_ti), a_tir, rtol=1e-12)
    np.testing.assert_allclose(np.abs(channels.h_ir), 1.0, atol=1e-12)
    # each cascade column is d_vec = c_vec * a_vec, the conjugate of the
    # closed-form phases, times one constant
    d_vec = np.conj(closed_form_phases(tx, ris, rx, RADIO.wavelength))
    column = channels.cascade()[:, 0]
    np.testing.assert_allclose(column, d_vec * (column[0] / d_vec[0]),
                               rtol=1e-12)


def test_exact_channel_matches_farfield_at_long_range():
    tx, ris, rx = equilateral(500.0)
    ff = farfield_channel(tx, ris, rx, RADIO, mode="off")
    ex = exact_channel(tx, ris, rx, RADIO)
    # same order of amplitude and phase agreement to a fraction of a radian
    np.testing.assert_allclose(np.abs(ex.h_ti), np.abs(ff.h_ti), rtol=1e-4)
    dphase = np.angle(ex.h_ti * np.conj(ff.h_ti))
    assert np.max(np.abs(dphase)) < 0.05


def test_phase_discrepancy_shrinks_with_scale():
    errs = []
    for scale in (1e2, 1e3, 1e4):
        tx, ris, rx = equilateral(float(scale))
        ff = farfield_channel(tx, ris, rx, RADIO, mode="off")
        ex = exact_channel(tx, ris, rx, RADIO)
        full_ff = ff.cascade()
        full_ex = ex.cascade()
        errs.append(np.max(np.abs(np.angle(full_ex * np.conj(full_ff)))))
    assert errs[0] >= errs[1] >= errs[2]


def test_amplitude_inverse_square_scaling():
    tx1, ris1, rx1 = equilateral(100.0)
    tx2, ris2, rx2 = equilateral(1000.0)
    a1 = np.abs(exact_channel(tx1, ris1, rx1, RADIO).h_ti)
    a2 = np.abs(exact_channel(tx2, ris2, rx2, RADIO).h_ti)
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


def test_far_field_enforcement_modes():
    # panel too large for the distance
    tx = make_ula(center=(0.0, 0.0, 5.0), count=2, spacing=0.0143, axis=EY)
    ris = make_panel(rows=20, cols=20)
    rx = np.array([5.0, 0.0, 5.0])
    with pytest.raises(FarFieldViolation):
        farfield_channel(tx, ris, rx, RADIO, mode="strict")
    with pytest.warns(FarFieldWarning):
        farfield_channel(tx, ris, rx, RADIO, mode="warn")
    import warnings as _w
    with _w.catch_warnings():
        _w.simplefilter("error", FarFieldWarning)
        farfield_channel(tx, ris, rx, RADIO, mode="off")
    with pytest.raises(DomainError):
        farfield_channel(tx, ris, rx, RADIO, mode="loud")


def test_received_power_matches_manual_product():
    tx, ris, rx = equilateral(300.0)
    ch = exact_channel(tx, ris, rx, RADIO, direct=True)
    rng = np.random.default_rng(3)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, ris.count))
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amp = (ch.h_ir * theta) @ ch.h_ti @ v + ch.h_tr @ v
    assert received_power(ch, theta, v) == pytest.approx(abs(amp) ** 2,
                                                         rel=1e-12)


def test_received_power_scales_quadratically_in_v():
    tx, ris, rx = equilateral(300.0)
    ch = exact_channel(tx, ris, rx, RADIO)
    theta = np.ones(ris.count, dtype=complex)
    v = np.array([1.0 + 0.5j, -0.25j])
    p1 = received_power(ch, theta, v)
    p2 = received_power(ch, theta, 3.0 * v)
    assert p2 == pytest.approx(9.0 * p1, rel=1e-12)


def test_shape_mismatches_raise():
    tx, ris, rx = equilateral(300.0)
    ch = exact_channel(tx, ris, rx, RADIO)
    with pytest.raises(DimensionMismatch):
        received_power(ch, np.ones(3, dtype=complex), np.ones(2))
    with pytest.raises(DimensionMismatch):
        received_power(ch, np.ones(4, dtype=complex), np.ones(5))
    with pytest.raises(DimensionMismatch):
        ChannelSet(h_ti=np.ones((4, 2), dtype=complex),
                   h_ir=np.ones(3, dtype=complex), wavelength=0.0286)
    with pytest.raises(DimensionMismatch):
        ChannelSet(h_ti=np.ones((4, 2), dtype=complex),
                   h_ir=np.ones(4, dtype=complex), wavelength=0.0286,
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


def random_design(rng, ris, tx, p_t):
    """Unit-modulus phases and a beamformer within the power budget."""
    theta = np.exp(1j * rng.uniform(0.0, 2 * np.pi, ris.count))
    v = rng.standard_normal(tx.count) + 1j * rng.standard_normal(tx.count)
    return theta, v * np.sqrt(p_t * rng.uniform(0.1, 1.0)) / np.linalg.norm(v)


scene_args = dict(rows=st.integers(1, 7), cols=st.integers(1, 7),
                  upa=st.booleans(), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**scene_args)
@example(rows=2, cols=5, upa=False, seed=1)
@example(rows=4, cols=1, upa=True, seed=2)
def test_farfield_power_matches_dense_channel(rows, cols, upa, seed):
    """The factored power equals the dense far-field evaluation.

    The rounding error is absolute in the element and antenna sums, so it
    is held to 1e-12 of the larger of the power and the power of a design
    whose sums do not cancel, a_TIR^2 * L * N * ||v||^2.  A power that is
    not a strong cancellation (at least 1e-6 of that maximum) is held to
    1e-12 relative error.
    """
    tx, ris, rx, radio, rng = random_scene(rows, cols, upa, seed)
    theta, v = random_design(rng, ris, tx, radio.tx_power)
    channels = farfield_channel(tx, ris, rx, radio, direct=False, mode="off")
    dense = received_power(channels, theta, v)
    power = farfield_power(tx, ris, rx, radio, theta, v, mode="off")
    a_tir = em._farfield_link(tx, ris, rx, radio, "off").a_tir[0]
    scale = a_tir**2 * ris.count * tx.count * np.vdot(v, v).real
    assert abs(power - dense) <= 1e-12 * max(dense, scale)
    if dense >= 1e-6 * scale:
        assert abs(power - dense) <= 1e-12 * dense


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**scene_args)
@example(rows=3, cols=6, upa=True, seed=3)
def test_farfield_factors_match_element_positions(rows, cols, upa, seed):
    """The far-field channel equals its factorization built from the
    per-element and per-antenna linearized offsets of the (L, 3) element and
    (N, 3) antenna positions, in row-major element order: the separable
    panel phasors are the element phasors a_vec and c_vec, and the link's
    b_vec covers ULA and UPA layouts."""
    tx, ris, rx, radio, _ = random_scene(rows, cols, upa, seed)
    channels = farfield_channel(tx, ris, rx, radio, mode="off")
    link = em._farfield_link(tx, ris, rx, radio, "off")
    wavenum = 2 * np.pi / radio.wavelength
    elems = element_positions(ris)
    a_ref = np.exp(1j * wavenum * offsets_toward(elems, ris.center,
                                                 tx.center))
    c_ref = np.exp(1j * wavenum * offsets_toward(elems, ris.center, rx))
    b_ref = np.exp(1j * wavenum * offsets_toward(antenna_positions(tx),
                                                 tx.center, ris.center))
    h_ti = (link.a_tir[0] * np.exp(1j * wavenum * link.d_ti[0])
            * np.outer(a_ref, b_ref))
    np.testing.assert_allclose(channels.h_ti, h_ti, rtol=0,
                               atol=1e-12 * link.a_tir[0])
    np.testing.assert_allclose(channels.h_ir,
                               np.exp(1j * wavenum * link.d_ir[0]) * c_ref,
                               rtol=0, atol=1e-12)


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
    return em._mirrored(antenna_positions(tx), em._element_planes(ris),
                        ris.rows, rx)


def dense_exact_channel(ants, elems, rx, delta, wavelength):
    """h_ti and h_ir of the exact channel written out from the (N, 3)
    antenna and (L, 3) element positions: the per-pair distances by
    np.linalg.norm of the (L, N, 3) differences, the amplitude
    delta / (d * d_IR) and the phasor np.exp(j*k*d)."""
    wavenum = 2 * np.pi / wavelength
    d_ti = np.linalg.norm(elems[:, None, :] - ants[None, :, :], axis=2)
    d_ir = np.linalg.norm(rx[None, :] - elems, axis=1)
    h_ti = delta / (d_ti * d_ir[:, None]) * np.exp(1j * wavenum * d_ti)
    return h_ti, np.exp(1j * wavenum * d_ir)


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
        tx = replace(tx, layout=replace(tx.layout, **axes))
    assert takes_mirror_build(tx, ris, rx) == mirrored
    with pytest.MonkeyPatch.context() as mp:
        if block_rows:
            mp.setattr(em, "_CHANNEL_BLOCK", block_rows * ris.count)
        channels = exact_channel(tx, ris, rx, radio)
    assert channels.mirrored == mirrored
    delta = amplitude_gain_tir(link_angles(tx, ris, rx), tx, ris,
                               radio).delta
    h_ti, h_ir = dense_exact_channel(antenna_positions(tx),
                                     element_positions(ris), rx, delta,
                                     radio.wavelength)
    assert np.array_equal(channels.h_ti, h_ti)
    assert np.array_equal(channels.h_ir, h_ir)


@pytest.mark.parametrize("nudged", ["rx", "element", "antenna"])
def test_exact_channel_near_mirror_takes_full_build(nudged, monkeypatch):
    """A mirrored scene with R, one element or one antenna a single ulp off
    its mirror image fails the symmetry check, is built row by row and
    still matches dense_exact_channel on the positions it was given."""
    tx, ris, rx, radio, _ = mirrored_scene(5, 4, seed=3)
    assert takes_mirror_build(tx, ris, rx)
    planes = em._element_planes(ris)
    ants = antenna_positions(tx)
    if nudged == "rx":
        rx[1] = np.nextafter(0.0, 1.0)
    elif nudged == "element":
        planes[1, 6] = np.nextafter(planes[1, 6], np.inf)
    else:
        ants[0, 2] = np.nextafter(ants[0, 2], np.inf)
    monkeypatch.setattr(em, "_element_planes", lambda _: planes)
    monkeypatch.setattr(em, "antenna_positions", lambda _: ants)
    assert not em._mirrored(ants, planes, ris.rows, rx)
    channels = exact_channel(tx, ris, rx, radio)
    assert not channels.mirrored
    delta = amplitude_gain_tir(link_angles(tx, ris, rx), tx, ris,
                               radio).delta
    h_ti, h_ir = dense_exact_channel(ants, planes.T, rx, delta,
                                     radio.wavelength)
    assert np.array_equal(channels.h_ti, h_ti)
    assert np.array_equal(channels.h_ir, h_ir)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.integers(1, 8), cols=st.integers(1, 8),
       poses=st.sampled_from([None, 1, 3]), seed=st.integers(0, 2**32 - 1))
@example(rows=7, cols=4, poses=None, seed=0)
@example(rows=1, cols=1, poses=3, seed=1)
def test_panel_phasors_bits_match_exp(rows, cols, poses, seed):
    """_panel_phasors evaluates half of each axis and conjugates the rest,
    and still gives the bits, signs of zero included, of
    np.exp(-1j * k*(axis . u) * offsets) for odd and even counts, for one
    frame and for a stack of poses."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.01, 0.1)
    ris = RisPanel(center=np.zeros(3), rows=rows, cols=cols,
                   d_x=lam * rng.uniform(0.1, 0.5),
                   d_y=lam * rng.uniform(0.1, 0.5),
                   normal=EZ, axis_x=EX, axis_y=EY)
    shape = (3,) if poses is None else (poses, 3)
    frames = [np.linalg.qr(rng.standard_normal((3, 3)))[0]
              for _ in range(poses or 1)]
    axis_x = np.array([f[:, 0] for f in frames]).reshape(shape)
    axis_y = np.array([f[:, 1] for f in frames]).reshape(shape)
    u = rng.standard_normal(shape)
    wavenum = 2 * np.pi / lam
    e_x, e_y = em._panel_phasors(ris, axis_x, axis_y, u, wavenum)
    for got, axis, count, pitch in ((e_x, axis_x, cols, ris.d_x),
                                    (e_y, axis_y, rows, ris.d_y)):
        offsets = (np.arange(1, count + 1) - (count + 1) / 2) * pitch
        ref = np.exp(-1j * (wavenum * np.vecdot(axis, u)[..., None]
                            * offsets))
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_exact_channel_working_memory_is_block_sized():
    """A paper-scale channel (L = 10 000, N = 16) is built one antenna row
    at a time: the traced peak of the call, the returned channel included,
    stays under twice the channel's own size."""
    tx, ris, rx = equilateral(50.0, rows=100, cols=100, count=16)
    exact_channel(tx, ris, rx, RADIO)   # first call: imports and caches
    tracemalloc.start()
    try:
        channels = exact_channel(tx, ris, rx, RADIO)
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
    assert np.array_equal(antenna_positions(tx)[3], element_positions(ris)[8])
    rx = np.array([5.0, 0.0, 5.0])
    link_angles(tx, ris, rx)
    monkeypatch.setattr(em, "_CHANNEL_BLOCK", 2 * ris.count)
    with pytest.raises(DegenerateGeometry):
        exact_channel(tx, ris, rx, RADIO)


def test_channel_set_caches_cascade_and_leading_pair_read_only():
    tx, ris, rx = equilateral(50.0, rows=3, cols=2, count=3)
    channels = exact_channel(tx, ris, rx, RADIO)
    cascade = channels.cascade()
    assert channels.cascade() is cascade
    np.testing.assert_array_equal(cascade,
                                  channels.h_ir[:, None] * channels.h_ti)
    u1, sigma = channels.leading_pair
    assert channels.leading_pair[0] is u1
    assert sigma == pytest.approx(np.linalg.svd(cascade,
                                                compute_uv=False)[0],
                                  rel=1e-12)
    for arr in (cascade, u1):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_farfield_power_checks_shapes_and_shadowing():
    tx, ris, rx = equilateral(300.0, rows=2, cols=3)
    theta = np.ones(6, dtype=complex)
    v = np.ones(2, dtype=complex)
    with pytest.raises(DimensionMismatch):
        farfield_power(tx, ris, rx, RADIO, theta[:5], v)
    with pytest.raises(DimensionMismatch):
        farfield_power(tx, ris, rx, RADIO, theta, np.ones(3))
    behind = np.array([0.0, 0.0, 2000.0])  # on the panel's back side
    with pytest.raises(ShadowedPanel):
        farfield_power(tx, ris, behind, RADIO, theta, v, mode="off")


def test_farfield_power_applies_far_field_policy():
    tx = make_ula(center=(0.0, 0.0, 5.0), count=2, spacing=0.0143, axis=EY)
    ris = make_panel(rows=20, cols=20)
    rx = np.array([5.0, 0.0, 5.0])
    theta = np.ones(ris.count, dtype=complex)
    v = np.ones(2, dtype=complex)
    with pytest.raises(FarFieldViolation):
        farfield_power(tx, ris, rx, RADIO, theta, v, mode="strict")
    with pytest.warns(FarFieldWarning):
        farfield_power(tx, ris, rx, RADIO, theta, v, mode="warn")
    with pytest.raises(DomainError):
        farfield_power(tx, ris, rx, RADIO, theta, v, mode="loud")


def test_farfield_power_applies_far_field_policy_across_poses():
    """Over a stack of poses, "strict" raises if any pose fails the check,
    "warn" warns once for all failing poses and "off" checks nothing."""
    tx = make_ula(center=(0.0, 0.0, 5.0), count=2, spacing=0.0143, axis=EY)
    ris = make_panel(rows=20, cols=20)
    rx = np.array([5.0, 0.0, 5.0])
    theta = np.ones(ris.count, dtype=complex)
    v = np.ones(2, dtype=complex)

    def poses(*heights):
        z = np.array(heights, dtype=float)
        centers = np.stack([np.zeros_like(z), np.zeros_like(z), z], axis=1)
        return PanelPoses(centers, *(np.tile(a, (len(z), 1))
                                     for a in (EZ, EX, EY)))

    far = poses(-20.0, -30.0)      # d_TI >= 25 m > 2 * L * hypot(d_x, d_y)
    mixed = poses(-20.0, 0.0, -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", FarFieldWarning)
        power = farfield_power(tx, ris, rx, RADIO, theta, v, poses=far,
                               mode="strict")
    assert power.shape == (2,) and np.all(power > 0.0)
    with pytest.raises(FarFieldViolation, match="2 of 3 poses"):
        farfield_power(tx, ris, rx, RADIO, theta, v, poses=mixed,
                       mode="strict")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warned = farfield_power(tx, ris, rx, RADIO, theta, v, poses=mixed,
                                mode="warn")
    assert [w.category for w in caught] == [FarFieldWarning]
    with warnings.catch_warnings():
        warnings.simplefilter("error", FarFieldWarning)
        off = farfield_power(tx, ris, rx, RADIO, theta, v, poses=mixed,
                             mode="off")
    assert np.array_equal(warned, off)


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
    """Each pose of a stack gives the dense far-field evaluation of the
    panel at that pose, to the tolerance of
    test_farfield_power_matches_dense_channel; a pose whose panel does not
    see both ends gives 0 W, where the dense channel raises ShadowedPanel."""
    tx, ris, rx, radio, rng = random_scene(rows, cols, upa, seed)
    theta, v = random_design(rng, ris, tx, radio.tx_power)
    poses = random_poses(rng, ris, 6)
    power = farfield_power(tx, ris, rx, radio, theta, v, poses=poses,
                           mode="off")
    assert power.shape == (len(poses.center),)
    assert power[-1] == 0.0
    for i, p in enumerate(power.tolist()):
        panel = replace(ris, center=poses.center[i], normal=poses.normal[i],
                        axis_x=poses.axis_x[i], axis_y=poses.axis_y[i])
        try:
            channels = farfield_channel(tx, panel, rx, radio, mode="off")
        except ShadowedPanel:
            assert p == 0.0
            continue
        dense = received_power(channels, theta, v)
        a_tir = em._farfield_link(tx, panel, rx, radio, "off").a_tir[0]
        scale = a_tir**2 * ris.count * tx.count * np.vdot(v, v).real
        assert abs(p - dense) <= 1e-12 * max(dense, scale)
        if dense >= 1e-6 * scale:
            assert abs(p - dense) <= 1e-12 * dense


def test_farfield_power_pose_blocks_equal_row_groups():
    """A stack of three full _POSE_BLOCK blocks and a partial one, its last
    pose shadowed, gives the bits of the same poses evaluated 41 at a time,
    the grid-row groups the robustness map used to call with."""
    tx, ris, rx, radio, rng = random_scene(12, 10, False, 5)
    theta, v = random_design(rng, ris, tx, radio.tx_power)
    poses = random_poses(rng, ris, 3 * _POSE_BLOCK + 20)
    count = len(poses.center)
    assert count > 3 * _POSE_BLOCK and count % _POSE_BLOCK
    whole = farfield_power(tx, ris, rx, radio, theta, v, poses=poses,
                           mode="off")
    groups = [farfield_power(tx, ris, rx, radio, theta, v,
                             poses=PanelPoses(poses.center[s:s + 41],
                                              poses.normal[s:s + 41],
                                              poses.axis_x[s:s + 41],
                                              poses.axis_y[s:s + 41]),
                             mode="off")
              for s in range(0, count, 41)]
    assert whole[-1] == 0.0 and np.count_nonzero(whole) > count // 2
    assert np.array_equal(whole, np.concatenate(groups))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**scene_args, count=st.integers(1, 40))
@example(rows=7, cols=7, upa=True, seed=6, count=40)
def test_farfield_power_pose_bits_do_not_depend_on_batch(rows, cols, upa,
                                                         seed, count):
    """Every pose of a stack, whole or cut at random points, gets the bits of
    its own one-pose call, with pose blocks of 1, 3 and _POSE_BLOCK poses."""
    tx, ris, rx, radio, rng = random_scene(rows, cols, upa, seed)
    theta, v = random_design(rng, ris, tx, radio.tx_power)
    poses = random_poses(rng, ris, count)
    n = len(poses.center)
    cuts = np.sort(rng.choice(np.arange(1, n), replace=False,
                              size=int(rng.integers(0, min(n - 1, 3) + 1))))
    bounds = [0, *cuts.tolist(), n]

    def power(start, stop):
        part = PanelPoses(poses.center[start:stop], poses.normal[start:stop],
                          poses.axis_x[start:stop], poses.axis_y[start:stop])
        return farfield_power(tx, ris, rx, radio, theta, v, poses=part,
                              mode="off")

    alone = np.concatenate([power(i, i + 1) for i in range(n)])
    for block in (_POSE_BLOCK, 1, 3):
        with mock.patch.object(em, "_POSE_BLOCK", block):
            assert np.array_equal(power(0, n), alone)
            assert np.array_equal(
                np.concatenate([power(a, b)
                                for a, b in zip(bounds, bounds[1:])]), alone)
