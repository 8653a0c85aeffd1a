"""Independent brute-force oracles: exhaustive phase-grid search on tiny
scenes, dense position grids, and random feasible-solution sampling, and
validate_suite, the checks of `rislink validate` built on them.

These certify the closed-form designs on small instances; they are not meant
for production sizes.  Only `rislink validate` loads this module: no study
reads it.
"""

from __future__ import annotations

import itertools
import warnings
from typing import NamedTuple

import numpy as np

from .config import SceneConfig
from .em import (ChannelSet, exact_channel, farfield_channel, farfield_power,
                 received_power, scene_route)
from .errors import EmptyFeasible, RegionDWarning, TooLarge
from .experiments import (_EX, _EY, _EZ, _panel_at, _radio, _reject, _unit,
                          equilateral_scene)
from .geometry import PanelPoses, TransmitterArray, UpaLayout
from .placement import PlaneScene, plane_objective
from .position_search import _box_grid, position_search_plane
from .solvers import (closed_form_solution, power_upper_bound,
                      two_path_solution)

_ENUM_BUDGET = 10**9


def exhaustive_phase_search(channels: ChannelSet, p_t: float,
                            levels: int = 256) -> tuple[float, np.ndarray]:
    """Exact maximum received power over the grid of `levels` equally
    spaced phases, with MRT applied per candidate.  Returns (best_power,
    best_theta).

    The phase grid is a cyclic group, so every grid point factors as a
    global rotation times a vector whose first entry is 1.  The rotation is
    optimized in closed form per candidate, which cuts the enumeration from
    levels**L to levels**(L-1) without changing the result.
    """
    if levels < 2:
        raise ValueError("levels must be >= 2")
    l = channels.num_elements
    if l > 6:
        raise TooLarge(f"exhaustive search limited to L <= 6, got {l}")
    if levels ** max(l - 1, 0) > _ENUM_BUDGET:
        raise TooLarge(f"{levels}**{l - 1} candidates exceed the budget")

    cascade = channels.cascade()                     # (L, N)
    e = channels.h_tr
    e_power = float(np.vdot(e, e).real) if e is not None else 0.0
    step = 2 * np.pi / levels
    phases = np.exp(1j * step * np.arange(levels))

    contribs = [phases[:, None] * cascade[q] for q in range(1, l)]
    if len(contribs) >= 2:
        block = (contribs[-2][:, None, :] + contribs[-1][None, :, :]
                 ).reshape(levels * levels, -1)
        block_shape = (levels, levels)
    elif len(contribs) == 1:
        block = contribs[-1]
        block_shape = (levels,)
    else:
        block = np.zeros((1, cascade.shape[1]), dtype=complex)
        block_shape = (1,)
    outer = contribs[:-2]

    best_power = -np.inf
    best_outer: tuple[int, ...] = ()
    best_block = 0
    best_rotation = 0

    for outer_idx in itertools.product(range(levels), repeat=len(outer)):
        s0 = cascade[0] + sum(c[i] for c, i in zip(outer, outer_idx))
        s = s0[None, :] + block
        ris_power = np.einsum("ij,ij->i", s, s.conj()).real
        if e is None:
            total = ris_power
            rot = np.zeros(len(s), dtype=int)
        else:
            c = s @ e.conj()
            # best grid rotation x maximizes Re(exp(jx) * c)
            target = (-np.angle(c)) / step
            rot = np.round(target).astype(int) % levels
            total = (ris_power + e_power
                     + 2 * np.abs(c) * np.cos(step * rot + np.angle(c)))
        j = int(np.argmax(total))
        if total[j] > best_power:
            best_power = float(total[j])
            best_outer = outer_idx
            best_block = j
            best_rotation = int(rot[j])

    # reconstruct the winning phase vector
    idx = np.zeros(l, dtype=int)
    for pos, i in enumerate(best_outer):
        idx[pos + 1] = i
    if l >= 2:
        rem = np.unravel_index(best_block, block_shape)
        for pos, i in enumerate(rem):
            idx[l - len(rem) + pos] = int(i)
    theta = phases[idx] * phases[best_rotation]
    return best_power * p_t, theta


class GridArgmax(NamedTuple):
    position: np.ndarray
    value: float
    runner_up_margin: float
    cell_size: tuple[float, float]


def dense_position_grid(scene: PlaneScene, objective, resolution: int,
                        ) -> GridArgmax:
    """Full-grid argmax of `objective` over the feasible bounding box.

    Ties break toward the first cell in row-major (y then x) order; the
    argmax is invariant to positive scaling of the objective.
    """
    pts, xs, ys = _box_grid(scene, resolution)
    mask = scene.contains(pts)
    if not np.any(mask):
        raise EmptyFeasible("no grid cell falls in the feasible region")
    vals = np.full(len(pts), -np.inf)
    vals[mask] = objective(pts[mask])
    best = int(np.argmax(vals))
    margin = float(vals[best] - np.delete(vals, best).max(initial=-np.inf))
    cell = (xs[1] - xs[0], ys[1] - ys[0]) if resolution > 1 else (0.0, 0.0)
    return GridArgmax(position=pts[best], value=float(vals[best]),
                      runner_up_margin=margin, cell_size=cell)


def random_feasible_solutions(dims: tuple[int, int], p_t: float, count: int,
                              seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """`count` reproducible feasible (theta, v) pairs: uniform random phases
    and complex-Gaussian beamformers scaled to the full power budget."""
    if count < 1:
        raise ValueError("count must be >= 1")
    l, n = dims
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        theta = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=l))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v *= np.sqrt(p_t) / np.linalg.norm(v)
        out.append((theta, v))
    return out


def validate_suite(cfg: SceneConfig) -> list[tuple[str, bool, str]]:
    """Small oracle suite: returns (name, passed, detail) triples."""
    tiny = cfg._replace(ris_rows=2, ris_cols=2, antennas=2)
    radio = _radio(tiny)
    tx, ris, rx = equilateral_scene(tiny, 50.0)
    checks: list[tuple[str, bool, str]] = []

    route = scene_route(tx, ris, rx, radio)
    channels = farfield_channel(route)
    sol = closed_form_solution(route)
    closed = received_power(channels, sol.theta, sol.v)
    best, _ = exhaustive_phase_search(channels, tiny.tx_power, levels=64)
    rel = abs(closed - best) / best
    checks.append(("closed-form vs phase-grid oracle", rel < 5e-3,
                   f"relative gap {rel:.2e}"))

    channels2 = farfield_channel(route, direct=True)
    sol2 = two_path_solution(route)
    closed2 = received_power(channels2, sol2.theta, sol2.v)
    best2, _ = exhaustive_phase_search(channels2, tiny.tx_power, levels=64)
    rel2 = abs(closed2 - best2) / best2
    checks.append(("two-path closed form vs oracle", rel2 < 5e-3,
                   f"relative gap {rel2:.2e}"))

    samples = random_feasible_solutions((ris.count, tx.count), tiny.tx_power,
                                        200, seed=7)
    dominated = all(received_power(channels, th, v) <= closed * (1 + 1e-9)
                    for th, v in samples)
    checks.append(("closed form dominates random designs", dominated,
                   "200 samples"))

    bound = power_upper_bound(channels, tiny.tx_power)
    checks.append(("closed form within bound", closed <= bound * (1 + 1e-9),
                   f"power {closed:.3e} bound {bound:.3e}"))

    # the factored power of the closed form against the dense far-field
    # channel, for a tilted 3 x 4 panel (d_x != d_y) and a 2 x 3 UPA
    # (spacing_x != spacing_y) at the origin, all steering components
    # nonzero, at poses moved off the design's pose: theta . d_vec falls
    # below L and AF_T below N, each a dense sum over the route and the
    # channel of the panel moved to the pose
    normal = _unit(np.array([0.15, 0.25, -1.0]))
    ax, tx_ax = _unit(_reject(_EX, normal)), _unit(np.array([1.0, 0.3, 0.4]))
    panel = _panel_at(tiny._replace(ris_rows=3, ris_cols=4,
                                    element_size_y=1.5 * tiny.element_size_x),
                      [25.0, 0.0, 25.0 * np.sqrt(3)],
                      (normal, ax, np.cross(normal, ax)))
    upa = TransmitterArray(np.zeros(3), UpaLayout(
        2, 3, tiny.spacing, 1.4 * tiny.spacing, tx_ax,
        _unit(_reject(_EY + _EZ, tx_ax))), tiny.tx_gain)
    far_rx = np.array([50.0, 0.0, 0.0])
    own = scene_route(upa, panel, far_rx, radio)
    design = closed_form_solution(own)
    u_0 = own.u_ti + own.u_ir
    steering = [panel.axis_y @ u_0, panel.axis_x @ u_0,
                upa.layout.axis_y @ own.u_ti, upa.layout.axis_x @ own.u_ti]
    shifts = np.array([[0.0, 0.0, 0.0], [30.0, 0.0, 0.0], [0.0, 30.0, 0.0],
                       [-12.0, 8.0, 6.0], [-20.0, -10.0, 0.0]])
    poses = PanelPoses(panel.center + shifts, *(
        np.tile(a, (len(shifts), 1))
        for a in (panel.normal, panel.axis_x, panel.axis_y)))
    factored = farfield_power(own, poses)
    gaps, ratios, agree = [], [], min(map(abs, steering)) > 0.05
    for center, power in zip(poses.center, factored):
        at = scene_route(upa, panel._replace(center=center), far_rx, radio)
        channels_at = farfield_channel(at)
        dense = received_power(channels_at, design.theta, design.v)
        # column 0 of C is a_TIR * d_vec times a unit phasor
        ratios.append((abs(design.theta @ channels_at.h_ti[:, 0])
                       / at.a_tir / panel.count,
                       abs(at.b_vec @ np.conj(own.b_vec)) / upa.count))
        scale = at.a_tir**2 * panel.count * upa.count * tiny.tx_power
        err = abs(power - dense)
        agree &= (err <= 1e-12 * max(dense, scale)
                  and (dense < 1e-6 * scale or err <= 1e-12 * dense))
        gaps.append(err / dense)
    weakest = np.min(ratios, axis=0)
    checks.append(("factored far-field power vs dense channel",
                   agree and max(weakest) < 0.9,
                   f"{len(shifts)} poses, |theta.d_vec|/L down to "
                   f"{weakest[0]:.2f}, |AF_T|/N down to {weakest[1]:.2f}, "
                   f"relative gap up to {max(gaps):.1e}"))

    # the exact channel of the symmetric scene takes the half-Gram path
    exact = exact_channel(route)
    u1, sigma = exact.leading_pair
    u_ref, s_ref, _ = np.linalg.svd(exact.cascade())
    sigma_err = abs(sigma - s_ref[0]) / s_ref[0]
    c = np.vdot(u_ref[:, 0], u1)
    u_err = float(np.linalg.norm(u1 - u_ref[:, 0] * c / abs(c)))
    checks.append(("leading singular pair vs dense SVD",
                   exact.mirrored and sigma_err < 1e-12 and u_err < 1e-10,
                   f"sigma relative error {sigma_err:.1e}, u error "
                   f"{u_err:.1e}, mirrored {exact.mirrored}"))

    # the placement theorem on the sweep-plane window, which overlaps
    # region D: the search's RegionDWarning is counted, not printed
    (x0, x1), (y0, y1) = cfg.sweeps.plane_x, cfg.sweeps.plane_y
    plane = PlaneScene(cfg.height, cfg.height, cfg.d_tr,
                       [[(x0, y0), (x1, y0), (x1, y1), (x0, y1)]])
    objective = plane_objective(plane, cfg.pattern_exponent)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RegionDWarning)
        found = position_search_plane(plane, objective)
    grid = dense_position_grid(plane, objective, 101)
    x, y = found.position
    checks.append(("placement search vs dense position grid",
                   found.value >= grid.value * (1 - 1e-9),
                   f"search {found.value:.5e} at ({x:.2f}, {y:.2f}), "
                   f"101 x 101 grid {grid.value:.5e}, "
                   f"{sum(w.category is RegionDWarning for w in caught)} "
                   "RegionDWarning"))
    return checks
