"""Acceptance gate: one test per headline claim, each printing a PASS/FAIL
line with the measured quantity."""

import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from rislink.config import load_config, watts_to_dbm
from rislink.em import (RadioParams, exact_channel, farfield_channel,
                        received_power)
from rislink.errors import FarFieldWarning
from rislink.experiments import robustness, sweep_wavelength
from rislink.geometry import PanelPoses, far_field_check, link_angles
from rislink.placement import f_object, optimal_orientation, quasiconvexity_report
from rislink.solvers import (closed_form_predicted_power, closed_form_solution,
                             mrt_beamforming, power_upper_bound, svd_solution,
                             two_path_o, two_path_solution)
from rislink.validation import dense_position_grid, exhaustive_phase_search

import sys
sys.path.insert(0, str(Path(__file__).parent))
from test_em import RADIO, equilateral  # noqa: E402
from test_placement import rect  # noqa: E402
from rislink.placement import PlaneScene, plane_objective  # noqa: E402


def report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_closed_form_matches_exhaustive_oracle():
    tx, ris, rx = equilateral(200.0, rows=2, cols=2, count=2)
    t0 = time.time()

    channels = farfield_channel(tx, ris, rx, RADIO)
    sol = closed_form_solution(tx, ris, rx, RADIO)
    power = received_power(channels, sol.theta, sol.v)
    best, _ = exhaustive_phase_search(channels, RADIO.tx_power, levels=256)
    gap1 = abs(best - power) / best

    channels2 = farfield_channel(tx, ris, rx, RADIO, direct=True)
    sol2 = two_path_solution(tx, ris, rx, RADIO)
    power2 = received_power(channels2, sol2.theta, sol2.v)
    best2, _ = exhaustive_phase_search(channels2, RADIO.tx_power,
                                       levels=256)
    gap2 = abs(best2 - power2) / best2

    elapsed = time.time() - t0
    ok = gap1 <= 5e-3 and gap2 <= 5e-3 and elapsed < 30.0
    report("closed form vs 256-level exhaustive oracle (L=4, N=2)", ok,
           f"single-path gap {gap1:.2e}, two-path gap {gap2:.2e}, "
           f"{elapsed:.1f} s")


def test_02_upper_bound_attainment_over_distance():
    cfg = load_config()
    radio = RadioParams(wavelength=cfg.wavelength, tx_power=cfg.tx_power,
                        rx_gain=cfg.rx_gain)
    t0 = time.time()
    worst_closed = worst_svd = 0.0
    checked = 0
    for d in np.linspace(20.0, 200.0, 91):
        tx, ris, rx = equilateral(float(d), rows=20, cols=20, count=16,
                                  element_gain=cfg.ris_gain)
        from rislink.geometry import TransmitterArray
        tx = TransmitterArray(center=tx.center, layout=tx.layout,
                              element_gain=cfg.tx_gain)
        ang = link_angles(tx, rx, PanelPoses.of(ris))
        if not np.all(far_field_check(tx, ris, ang.d_ti, ang.d_ir) >= 1.0):
            continue
        channels = exact_channel(tx, ris, rx, radio)
        sol = closed_form_solution(tx, ris, rx, radio)
        p_closed = received_power(channels, sol.theta, sol.v)
        p_svd = svd_solution(channels, cfg.tx_power).predicted_power
        bound = power_upper_bound(channels, cfg.tx_power)
        worst_closed = max(worst_closed,
                           abs(watts_to_dbm(bound) - watts_to_dbm(p_closed)))
        worst_svd = max(worst_svd,
                        abs(watts_to_dbm(bound) - watts_to_dbm(p_svd)))
        checked += 1
    elapsed = time.time() - t0
    ok = (checked > 0 and worst_closed <= 0.1 and worst_svd <= 0.1
          and elapsed < 60.0)
    report("closed-form and SVD designs within 0.1 dB of the upper bound",
           ok, f"{checked}/91 far-field-valid points, worst closed "
           f"{worst_closed:.4f} dB, worst SVD {worst_svd:.4f} dB, "
           f"{elapsed:.1f} s")


def test_03_power_scaling_laws():
    a_tir, p_t = 3.7e-8, 1e-3
    base = closed_form_predicted_power(a_tir, 16, 400, p_t)
    rel_n = abs(closed_form_predicted_power(a_tir, 32, 400, p_t)
                - 2 * base) / (2 * base)
    rel_l = abs(closed_form_predicted_power(a_tir, 16, 800, p_t)
                - 4 * base) / (4 * base)

    # numeric counterpart on synthetic rank-one channels at fixed a_TIR
    from rislink.em import ChannelSet
    rng = np.random.default_rng(1)

    def numeric(l, n):
        a = np.exp(1j * rng.uniform(0, 2 * np.pi, l))
        b = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        c = np.exp(1j * rng.uniform(0, 2 * np.pi, l))
        ch = ChannelSet(h_ti=a_tir * np.outer(a * c, b))
        theta = np.conj(a * c)
        v = mrt_beamforming(theta @ ch.cascade(), p_t)
        return received_power(ch, theta, v)

    nb = numeric(400, 16)
    rel_n2 = abs(numeric(400, 32) - 2 * nb) / (2 * nb)
    rel_l2 = abs(numeric(800, 16) - 4 * nb) / (4 * nb)
    worst = max(rel_n, rel_l, rel_n2, rel_l2)
    report("received power doubles in N and quadruples in L",
           worst <= 1e-9, f"worst relative error {worst:.2e}")


def test_04_specular_orientation_never_beaten():
    rng = np.random.default_rng(7)
    worst = -np.inf
    trials = 0
    while trials < 100:
        d_ti, d_ir = rng.uniform(10.0, 500.0, 2)
        lo = abs(d_ti - d_ir) * 1.001 + 1e-9
        hi = (d_ti + d_ir) * 0.999
        if lo >= hi:
            continue
        d_tr = rng.uniform(lo, hi)
        theta_0 = np.arccos(np.clip((d_ti**2 + d_ir**2 - d_tr**2)
                                    / (2 * d_ti * d_ir), -1, 1))
        tt = np.linspace(0.0, theta_0, 721)
        for k in (0.0, 1.0, 2.0, 3.0):
            _, _, f_star = optimal_orientation(d_ti, d_ir, d_tr, k)
            def pat(x):
                return np.where(x <= np.pi / 2, np.cos(np.minimum(x, np.pi / 2)), 0.0) ** k
            split = pat(tt) * pat(theta_0 - tt)
            worst = max(worst, float(np.max(split) - f_star))
        trials += 1
    report("specular orientation optimal over 100 random triangles, "
           "k in {0,1,2,3}", worst <= 1e-12,
           f"max grid advantage over F* is {worst:.2e}")


def test_05_boundary_reduction_on_random_scenes():
    rng = np.random.default_rng(19)
    violations = 0
    for _ in range(500):
        sep = rng.uniform(20.0, 100.0)
        h1, h2 = rng.uniform(5.0, 50.0, 2)
        # rectangle kept outside the d_TI <= d_TR disk so region D is avoided
        ang = rng.uniform(0.0, 2 * np.pi)
        r0 = sep * rng.uniform(1.1, 2.5)
        cx, cy = r0 * np.cos(ang), r0 * np.sin(ang)
        w, hgt = rng.uniform(0.1 * sep, 0.6 * sep, 2)
        poly = rect(cx, cy, cx + w, cy + hgt)
        d_tr = float(np.hypot(sep, h1 - h2))
        if np.min(np.hypot(poly[:, 0], poly[:, 1])) <= d_tr:
            poly += np.array([[2.0 * d_tr, 0.0]])
        scene = PlaneScene(h1=h1, h2=h2, separation=sep, feasible=[poly])
        res = dense_position_grid(scene, plane_objective(scene, 3.0), 41)
        x, y = res.position
        cell = float(np.hypot(*res.cell_size))
        x0, y0 = poly.min(axis=0)
        x1, y1 = poly.max(axis=0)
        to_boundary = min(x - x0, x1 - x, y - y0, y1 - y)
        on_line_l = abs(y) <= res.cell_size[1] + 1e-9
        if to_boundary > cell + 1e-9 and not on_line_l:
            violations += 1

    # separation-scale scene covering both projections: argmax on line l
    scene = PlaneScene(h1=80.0, h2=80.0, separation=200.0,
                       feasible=[rect(-50.0, 0.0, 250.0, 120.0)])
    res = dense_position_grid(scene, plane_objective(scene, 3.0), 101)
    x, y = res.position
    near_endpoints = min(abs(x), abs(x - 200.0)) <= 0.25 * 200.0
    on_line = abs(y) <= res.cell_size[1] / 2
    ok = violations == 0 and on_line and near_endpoints
    report("position argmax on feasible boundary or line l",
           ok, f"{violations}/500 interior argmaxes; full-plane argmax at "
           f"({x:.1f}, {y:.1f})")


def test_06_objective_quasiconvex_in_each_distance():
    bad = []
    for k in (0.5, 1.0, 2.0, 3.0, 5.0):
        rep = quasiconvexity_report(100.0, k, 150.0, "fix_d_ti")
        if not rep.quasiconvex:
            bad.append(("fix_d_ti", k))
        rep = quasiconvexity_report(100.0, k, 150.0, "fix_d_ir")
        if not rep.quasiconvex:
            bad.append(("fix_d_ir", k))
    rep0 = quasiconvexity_report(100.0, 0.0, 150.0, "fix_d_ti")
    mono = rep0.monotone_decreasing
    ok = not bad and mono
    report("placement objective quasiconvex (k > 0), "
           "monotone decreasing (k = 0)", ok,
           f"violations {bad or 'none'}, k=0 monotone: {mono}")


def test_07_two_path_ripple_count_half_of_antennas():
    lam, h, n = 0.0286, 80.0, 16
    xs = np.linspace(0.0, 1000.0, 20001)
    env = np.abs(two_path_o(n, lam / 2, h / np.hypot(h, xs), 0.0, lam))
    count = 0
    for i in range(len(env)):
        left = env[i - 1] if i > 0 else -np.inf
        right = env[i + 1] if i < len(env) - 1 else -np.inf
        if env[i] > left and env[i] > right:
            count += 1
    report("ripple ridges along line l equal N/2", count == n // 2,
           f"counted {count} local maxima of |O| for N={n}")


def test_08_anti_decay_keeps_ris_power_flat():
    cfg = load_config()
    # the fixed-area 9 m^2 panels fail the far-field check at R'
    with pytest.warns(FarFieldWarning):
        result = sweep_wavelength(cfg)
    lams, ris, direct = (result.columns[name]
                         for name in ("wavelength_m", "ris_w", "direct_w"))
    flatness = float((ris.max() - ris.min()) / ris.max())
    lo, hi = int(np.argmin(lams)), int(np.argmax(lams))
    drop_db = 10 * np.log10(direct[hi] / direct[lo])
    ok = flatness <= 0.02 and abs(drop_db - 6.02) <= 0.1
    report("anti-decay design: flat RIS power, direct link loses 6.02 dB "
           "per octave", ok,
           f"RIS flatness {100 * flatness:.2f}%, direct drop {drop_db:.3f} dB")


def test_09_robust_region_contains_5m_square():
    cfg = load_config()
    result = robustness(cfg)
    col = result.columns
    square = (np.abs(col["x_m"]) <= 2.5) & (np.abs(col["y_m"]) <= 2.5)
    worst = float(col["deviation"][square].max())
    square_ok = worst < 0.1
    report("normalized power deviation < 0.1 on a 5 m x 5 m square around "
           "the assumed position", square_ok,
           f"max deviation on the square {worst:.4f}")


# the default sweep-wavelength's 9 m^2 panels fail the far-field check
@pytest.mark.filterwarnings("ignore::rislink.errors.FarFieldWarning")
def test_10_cli_experiments_deterministic(tmp_path):
    from rislink.cli import main
    mismatches = []
    for command in ("solve", "sweep-distance", "sweep-plane",
                    "sweep-wavelength", "robustness"):
        args = [command, "--grid", "4"]
        assert main(args + ["--out", str(tmp_path / command / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / command / "b")]) == 0
        name = command.replace("-", "_") + ".csv"
        a = (tmp_path / command / "a" / name).read_bytes()
        b = (tmp_path / command / "b" / name).read_bytes()
        if a != b:
            mismatches.append(command)
    report("CLI reruns produce byte-identical CSV output", not mismatches,
           f"mismatches: {mismatches or 'none'}")


# golden file of each case whose name is not the command's CSV name
_GOLDEN_NAMES = {("solve", "--direct-link"): "solve_direct_link.csv",
                 ("robustness", "--paper-scale", "--grid", "7"):
                 "robustness_paper_scale.csv",
                 ("sweep-distance", "--paper-scale", "--grid", "5"):
                 "sweep_distance_paper_scale.csv",
                 ("solve", "--paper-scale", "--direct-link"):
                 "solve_paper_scale_direct_link.csv"}
# the cases whose far-field model is near-field and warns: the two-path
# design and the robustness map of the 100 x 100 panel, and the fixed-area
# 9 m^2 panels of the wavelength sweep
_NEAR_FIELD = {("solve", "--paper-scale", "--direct-link"),
               ("sweep-wavelength", "--grid", "7"),
               ("robustness", "--paper-scale", "--grid", "7")}


@pytest.mark.parametrize("argv", [
    ("sweep-plane", "--direct-link", "--grid", "7"),
    ("sweep-wavelength", "--grid", "7"),
    ("sweep-distance", "--grid", "7"),
    ("solve", "--paper-scale"),
    ("robustness", "--grid", "7"),
    ("solve", "--direct-link"),
    ("robustness", "--paper-scale", "--grid", "7"),
    ("sweep-distance", "--paper-scale", "--grid", "5"),
    ("solve", "--paper-scale", "--direct-link"),
])
def test_10b_cli_analytic_studies_match_golden_csv(argv, tmp_path):
    """The studies reproduce the checked-in CSVs byte for byte.  tests/golden/
    holds the analytic model's studies (sweep-plane, sweep-wavelength) as
    written before the model took arrays, the exact-channel studies
    (sweep-distance, solve) as written before the per-axis distance planes,
    the cached cascade and the Gram `eigh` kernel, the robustness map
    and the two-path solve as written before the studies built columns, and
    the paper-scale robustness map as written once a pose's far-field power
    stopped depending on the poses evaluated with it (its origin deviation,
    rounding noise around 0, then moved from 3.65e-16 to 1.82e-16).  The
    paper-scale distance sweep, whose channel goes one antenna row per
    block, is pinned as written before the channel took its element
    coordinates as (3, L) planes, and the paper-scale solve with the direct
    row h_TR beside the cascade as written before the channel was built
    from half its mirrored rows."""
    from rislink.cli import main
    with (pytest.warns(FarFieldWarning) if argv in _NEAR_FIELD
          else nullcontext()):
        assert main([*argv, "--out", str(tmp_path)]) == 0
    name = argv[0].replace("-", "_") + ".csv"
    golden = (Path(__file__).parent / "golden"
              / _GOLDEN_NAMES.get(argv, name)).read_bytes()
    fresh = (tmp_path / name).read_bytes()
    report(f"{argv[0]} CSV matches the golden file", fresh == golden,
           f"{len(fresh)} bytes vs {len(golden)} golden")
