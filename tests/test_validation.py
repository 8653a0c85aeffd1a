import itertools

import numpy as np
import pytest

from rislink.em import ChannelSet
from rislink.errors import EmptyFeasible, TooLarge
from rislink.placement import PlaneScene, plane_objective
from rislink.validation import (GridArgmax, dense_position_grid,
                                exhaustive_phase_search,
                                random_feasible_solutions)

from test_placement import rect


def random_channels(l, n, seed, direct=False):
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    h_tr = 0.3 * cplx(n) if direct else None
    return ChannelSet(h_ti=cplx(l, n) * cplx(l)[:, None], h_tr=h_tr)


def naive_search(channels, p_t, levels):
    """Reference enumeration over the full levels**L grid with MRT."""
    l = channels.num_elements
    phases = np.exp(2j * np.pi * np.arange(levels) / levels)
    cascade = channels.cascade()
    best = -np.inf
    for combo in itertools.product(range(levels), repeat=l):
        row = phases[list(combo)] @ cascade
        if channels.h_tr is not None:
            row = row + channels.h_tr
        best = max(best, float(np.linalg.norm(row) ** 2))
    return best * p_t


@pytest.mark.parametrize("l,n,direct", [(1, 2, False), (2, 2, False),
                                        (3, 2, False), (2, 3, True),
                                        (3, 2, True)])
def test_exhaustive_search_matches_naive_enumeration(l, n, direct):
    channels = random_channels(l, n, seed=l * 10 + n + direct, direct=direct)
    best, theta = exhaustive_phase_search(channels, 2.0, levels=16)
    assert best == pytest.approx(naive_search(channels, 2.0, 16), rel=1e-12)
    # returned theta reproduces the reported power and lies on the grid
    row = theta @ channels.h_ti
    if channels.h_tr is not None:
        row = row + channels.h_tr
    assert float(np.linalg.norm(row) ** 2) * 2.0 == pytest.approx(best,
                                                                  rel=1e-12)
    steps = np.angle(theta) / (2 * np.pi / 16)
    np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)


def test_exhaustive_search_budget_guards():
    with pytest.raises(TooLarge):
        exhaustive_phase_search(random_channels(7, 2, seed=0), 1.0,
                                levels=4)
    with pytest.raises(TooLarge):
        exhaustive_phase_search(random_channels(6, 2, seed=0), 1.0,
                                levels=4096)


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        exhaustive_phase_search(random_channels(2, 2, seed=0), 1.0, levels=1)


def test_exhaustive_search_more_levels_never_worse():
    channels = random_channels(3, 2, seed=9)
    p8, _ = exhaustive_phase_search(channels, 1.0, levels=8)
    p16, _ = exhaustive_phase_search(channels, 1.0, levels=16)
    assert p16 >= p8 * (1 - 1e-12)


def test_dense_position_grid_argmax():
    scene = PlaneScene(h1=10.0, h2=10.0, separation=50.0,
                       feasible=[rect(60.0, 1.0, 90.0, 30.0)])
    obj = plane_objective(scene, 2.0)
    res = dense_position_grid(scene, obj, 201)
    assert isinstance(res, GridArgmax)
    assert scene.contains(res.position[None, :])[0]
    assert res.value == pytest.approx(float(obj(res.position[None, :])[0]))
    assert res.runner_up_margin >= 0.0
    # rerun is deterministic
    res2 = dense_position_grid(scene, obj, 201)
    np.testing.assert_array_equal(res.position, res2.position)


def test_dense_position_grid_ties_break_to_first_cell():
    scene = PlaneScene(h1=10.0, h2=10.0, separation=50.0,
                       feasible=[np.array([[0.0, 0.0], [1.0, 0.0],
                                           [1.0, 1.0], [0.0, 1.0]])])
    for resolution in (3, 4, 201):
        res = dense_position_grid(scene, lambda xy: np.ones(len(xy)),
                                  resolution)
        np.testing.assert_array_equal(res.position, [0.0, 0.0])
        assert res.runner_up_margin == 0.0
    single = dense_position_grid(scene, lambda xy: np.ones(len(xy)), 1)
    assert single.runner_up_margin == np.inf
    assert single.cell_size == (0.0, 0.0)


def test_dense_position_grid_empty_scene():
    with pytest.raises(EmptyFeasible):
        dense_position_grid(PlaneScene(h1=1.0, h2=1.0, separation=10.0),
                            lambda xy: xy[:, 0], 50)


def test_random_feasible_solutions_reproducible_and_feasible():
    a = random_feasible_solutions((5, 3), 2.0, 10, seed=4)
    b = random_feasible_solutions((5, 3), 2.0, 10, seed=4)
    c = random_feasible_solutions((5, 3), 2.0, 10, seed=5)
    assert len(a) == 10
    for (ta, va), (tb, vb) in zip(a, b):
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(va, vb)
    assert not np.allclose(a[0][1], c[0][1])
    for theta, v in a:
        np.testing.assert_allclose(np.abs(theta), 1.0, atol=1e-12)
        assert np.vdot(v, v).real == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        random_feasible_solutions((5, 3), 2.0, 0, seed=4)
