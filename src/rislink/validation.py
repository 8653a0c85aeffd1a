"""Independent brute-force oracles: exhaustive phase-grid search on tiny
scenes, dense position grids, and random feasible-solution sampling.

These certify the closed-form designs on small instances; they are not meant
for production sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .em import ChannelSet
from .errors import EmptyFeasible, TooLarge
from .placement import PlaneScene

_ENUM_BUDGET = 10**9


@dataclass(frozen=True)
class OracleConfig:
    phase_levels: int = 256

    def __post_init__(self):
        if self.phase_levels < 2:
            raise ValueError("phase_levels must be >= 2")


def exhaustive_phase_search(channels: ChannelSet, p_t: float,
                            cfg: OracleConfig = OracleConfig(),
                            ) -> tuple[float, np.ndarray]:
    """Exact maximum received power over the discrete phase grid, with MRT
    applied per candidate.  Returns (best_power, best_theta).

    The phase grid is a cyclic group, so every grid point factors as a
    global rotation times a vector whose first entry is 1.  The rotation is
    optimized in closed form per candidate, which cuts the enumeration from
    levels**L to levels**(L-1) without changing the result.
    """
    l = channels.num_elements
    levels = cfg.phase_levels
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


@dataclass(frozen=True)
class GridArgmax:
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
    if not scene.feasible:
        raise EmptyFeasible("scene has no feasible polygons")
    verts = np.vstack(scene.feasible)
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    xs = np.linspace(lo[0], hi[0], resolution)
    ys = np.linspace(lo[1], hi[1], resolution)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    mask = scene.contains(pts)
    if not np.any(mask):
        raise EmptyFeasible("no grid cell falls in the feasible region")
    vals = np.full(len(pts), -np.inf)
    vals[mask] = objective(pts[mask])
    order = np.argsort(vals)[::-1]
    best = order[0]
    margin = float(vals[best] - vals[order[1]]) if len(order) > 1 else np.inf
    cell = ((xs[1] - xs[0]) if resolution > 1 else 0.0,
            (ys[1] - ys[0]) if resolution > 1 else 0.0)
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
