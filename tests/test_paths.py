import math

import numpy as np
import pytest

from hedgelab.paths import (
    BrownianPath,
    GbmParams,
    TimeGrid,
    gbm_batch,
    generate_brownian,
    gbm_path,
    refine,
    uniform_grid,
)

from conftest import make_market


def test_uniform_grid_spacing():
    assert np.array_equal(uniform_grid(1.0, 4).times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(uniform_grid(2.0, 1).times, [0.0, 2.0])
    assert np.array_equal(uniform_grid(0.5, 2).times, [0.0, 0.25, 0.5])


def test_uniform_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        uniform_grid(0.0, 4)
    with pytest.raises(ValueError):
        uniform_grid(-1.0, 4)
    with pytest.raises(ValueError):
        uniform_grid(1.0, 0)


def test_time_grid_invariants():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.1, 0.5]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, np.inf]))


def test_brownian_determinism_and_independence():
    grid = uniform_grid(1.0, 32)
    w1 = generate_brownian(grid, seed=1, path_index=0)
    w2 = generate_brownian(grid, seed=1, path_index=0)
    assert np.array_equal(w1.increments, w2.increments)
    w3 = generate_brownian(grid, seed=1, path_index=1)
    assert not np.array_equal(w1.increments, w3.increments)
    w4 = generate_brownian(grid, seed=2, path_index=0)
    assert not np.array_equal(w1.increments, w4.increments)


def test_brownian_increment_variance_matches_step():
    # law of large numbers: 1e6 draws with dt = 0.01
    grid = uniform_grid(10_000.0, 1_000_000)
    w = generate_brownian(grid, seed=123)
    var = float(np.var(w.increments))
    assert abs(var - 0.01) < 0.01 * 0.01, f"sample variance {var} not within 1% of 0.01"


def test_gbm_deterministic_limit():
    # sigma = 0 collapses to s0 * exp(mu * t)
    mp = make_market(sigma=0.0, mu=0.1, r=0.0, steps=8)
    expected = 100.0 * math.exp(0.1)
    assert mp.stock[-1] == pytest.approx(expected, rel=1e-12)
    expected_path = 100.0 * np.exp(0.1 * mp.grid.times)
    np.testing.assert_allclose(mp.stock, expected_path, rtol=1e-12)


def test_gbm_zero_noise_carries_vol_drag():
    grid = uniform_grid(1.0, 4)
    w = BrownianPath(grid, np.zeros(4))
    params = GbmParams(s0=100.0, mu=0.0, sigma=0.2, r=0.0)
    mp = gbm_path(params, w, "physical")
    assert mp.stock[-1] == pytest.approx(100.0 * math.exp(-0.02), rel=1e-12)


def test_risk_neutral_measure_substitutes_drift():
    grid = uniform_grid(1.0, 16)
    w = generate_brownian(grid, seed=5)
    rn = gbm_path(GbmParams(100.0, 0.3, 0.0, 0.05), w, "risk_neutral")
    phys = gbm_path(GbmParams(100.0, 0.05, 0.0, 0.05), w, "physical")
    assert np.array_equal(rn.stock, phys.stock)
    with pytest.raises(ValueError):
        gbm_path(GbmParams(100.0, 0.3, 0.0, 0.05), w, "real_world")


def test_bond_ratio_invariant(market):
    r = 0.05
    ratios = market.bond[1:] / market.bond[:-1]
    np.testing.assert_allclose(ratios, np.exp(r * market.grid.dt), rtol=1e-12)
    assert market.bond[0] == 1.0


def test_gbm_matches_step_recurrence(market):
    # closed form vs explicit per-step compounding
    params = GbmParams(100.0, 0.05, 0.2, 0.05)
    inc = market.brownian.increments
    s = [100.0]
    for dt, dw in zip(market.grid.dt, inc):
        s.append(s[-1] * math.exp((params.mu - 0.5 * params.sigma**2) * dt + params.sigma * dw))
    np.testing.assert_allclose(market.stock, s, rtol=1e-12)


def test_refine_requires_factor_two():
    grid = uniform_grid(1.0, 4)
    w = generate_brownian(grid, 0)
    with pytest.raises(ValueError):
        refine(grid, w, 1)


def test_refine_keeps_original_knots_and_totals():
    grid = uniform_grid(1.0, 8)
    w = generate_brownian(grid, seed=3)
    fine_grid, fine_w = refine(grid, w, 4)
    assert fine_grid.n_points == 8 * 4 + 1
    assert np.array_equal(fine_grid.times[::4], grid.times)
    sums = fine_w.increments.reshape(8, 4).sum(axis=1)
    np.testing.assert_allclose(sums, w.increments, rtol=1e-12, atol=1e-15)


def test_refine_unit_step_bridge_constraint():
    grid = TimeGrid(np.array([0.0, 1.0]))
    w = BrownianPath(grid, np.array([0.5]))
    _, fine = refine(grid, w, 2)
    assert fine.increments.size == 2
    assert fine.increments.sum() == pytest.approx(0.5, rel=1e-12)


def test_refine_is_deterministic():
    grid = uniform_grid(1.0, 4)
    w = generate_brownian(grid, seed=9, path_index=2)
    _, f1 = refine(grid, w, 2)
    _, f2 = refine(grid, w, 2)
    assert np.array_equal(f1.increments, f2.increments)
    _, f3 = refine(grid, w, 3)
    assert f3.increments.size != f1.increments.size


def test_bridge_conditional_variance():
    # conditional on a fixed step total, the first sub-increment of a split
    # unit step has variance dt_sub * (1 - dt_sub) = 0.25
    grid = TimeGrid(np.array([0.0, 1.0]))
    total = np.array([0.5])
    firsts = []
    for i in range(100_000):
        w = BrownianPath(grid, total, key=(77, i))
        _, fine = refine(grid, w, 2)
        firsts.append(fine.increments[0])
    var = float(np.var(firsts))
    assert abs(var - 0.25) < 0.02 * 0.25, f"bridge variance {var} not within 2% of 0.25"
    assert abs(np.mean(firsts) - 0.25) < 0.01


def test_refine_subsample_reproduces_stock():
    # sigma = 0: bitwise agreement at shared instants
    params0 = GbmParams(100.0, 0.07, 0.0, 0.03)
    grid = uniform_grid(1.0, 16)
    w = generate_brownian(grid, seed=21)
    coarse = gbm_path(params0, w, "physical")
    fine_grid, fine_w = refine(grid, w, 4)
    fine = gbm_path(params0, fine_w, "physical")
    assert np.array_equal(fine.stock[::4], coarse.stock)

    # sigma > 0: relative error <= 1e-12
    params = GbmParams(100.0, 0.07, 0.25, 0.03)
    coarse = gbm_path(params, w, "physical")
    fine = gbm_path(params, fine_w, "physical")
    np.testing.assert_allclose(fine.stock[::4], coarse.stock, rtol=1e-12)


def test_gbm_params_invariants():
    with pytest.raises(ValueError):
        GbmParams(s0=0.0, mu=0.0, sigma=0.2, r=0.0)
    with pytest.raises(ValueError):
        GbmParams(s0=100.0, mu=0.0, sigma=-0.1, r=0.0)


def test_values_are_immutable(market):
    with pytest.raises(ValueError):
        market.stock[0] = 1.0
    with pytest.raises(ValueError):
        market.grid.times[0] = 1.0


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 + 5, 2**70 + 3])
def test_gbm_batch_is_bitwise_the_per_path_reference(seed):
    # seeds above 2**32 take several SeedSequence entropy words; with the
    # bridge salt, 2**70 + 3 overflows the 4-word pool
    params = GbmParams(100.0, 0.07, 0.3, 0.03)
    for factor in (1, 2, 3, 16):
        for measure in ("physical", "risk_neutral"):
            for steps, n_paths in ((7, 5), (4, 1)):
                grid = uniform_grid(1.0, steps)
                fine_grid, stock = gbm_batch(params, grid, factor, n_paths, seed, measure)
                assert stock.shape == (n_paths, fine_grid.n_points)
                for i in range(n_paths):
                    ref_grid, w = grid, generate_brownian(grid, seed, i)
                    if factor > 1:
                        ref_grid, w = refine(grid, w, factor)
                    assert np.array_equal(gbm_path(params, w, measure).stock, stock[i])
                assert np.array_equal(fine_grid.times, ref_grid.times)


def test_gbm_batch_underflow_is_rejected_like_market_path():
    params = GbmParams(100.0, 0.05, 40.0, 0.05)
    grid = uniform_grid(1.0, 8)
    with pytest.raises(ValueError, match="stock values must be positive and finite"):
        gbm_path(params, generate_brownian(grid, 0), "physical")
    with pytest.raises(ValueError, match="stock values must be positive and finite"):
        gbm_batch(params, grid, 1, 4, 0, "physical")
