import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from hedgelab.experiments import (
    ExperimentConfig,
    StrategySpec,
    _batch_market,
    buy_and_hold_spec,
    cash_injection_spec,
    constant_mix_spec,
    defect_refinement_study,
    delta_hedge_spec,
    hedging_convergence,
    martingale_test,
    write_result_csv,
)
from hedgelab.calculus import SampledSeries
from hedgelab.cli import _default_martingale_roster
from hedgelab.ledger import complete_bond, defect_series, enforce_self_financing, self_financing_defect
from hedgelab.paths import GbmParams, generate_brownian, gbm_path, refine, uniform_grid
from hedgelab.strategies import (
    EuropeanCall,
    HoldingsSchedule,
    constant_mix,
    delta_hedge,
    delta_stock_holdings,
)


def small_cfg(**overrides):
    base = dict(
        params=GbmParams(100.0, 0.08, 0.2, 0.05),
        horizon=1.0,
        base_steps=16,
        refinement_factors=(1, 2, 4),
        n_paths=200,
        seed=99,
        hedge=EuropeanCall(100.0, 1.0),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_invariants():
    with pytest.raises(ValueError):
        small_cfg(n_paths=0)
    with pytest.raises(ValueError):
        small_cfg(refinement_factors=(4, 2))
    with pytest.raises(ValueError):
        small_cfg(refinement_factors=(0, 2))
    with pytest.raises(ValueError):
        small_cfg(tolerances={"no_such_tolerance": 1.0})
    cfg = small_cfg(tolerances={"defect": 1e-8})
    assert cfg.tolerances["defect"] == 1e-8
    assert cfg.tolerances["stderr_mult"] == 3.0


def test_batch_kernels_match_single_path_ledger():
    # the kernels run on a batch must reproduce the per-path API bitwise
    cfg = small_cfg(n_paths=16, base_steps=24)
    grid = uniform_grid(cfg.horizon, cfg.base_steps)
    mkt = _batch_market(cfg.params, grid, 1, cfg.n_paths, cfg.seed, "physical")
    a, y0 = delta_stock_holdings(cfg.hedge, mkt.stock, mkt.times, mkt.rate, cfg.params.sigma)
    b = complete_bond(a, mkt.stock, mkt.bond, y0)
    _, _, defect = defect_series(a, b, mkt.stock, mkt.bond)
    # shared (n,) holdings against (P, n) stock, as buy_and_hold_spec and
    # cash_injection_spec build them
    a_shared, b_shared = cash_injection_spec(5.0, a0=0.5, b0=20.0).build(mkt)
    _, _, shared_defect = defect_series(a_shared, b_shared, mkt.stock, mkt.bond)
    ramp = np.linspace(0.5, 1.5, grid.n_points)
    ramp_b = complete_bond(ramp, mkt.stock, mkt.bond, 100.0)
    for i in range(cfg.n_paths):
        mp = gbm_path(cfg.params, generate_brownian(grid, cfg.seed, i), "physical")
        assert np.array_equal(mp.stock, mkt.stock[i])
        h = delta_hedge(cfg.hedge, mp, cfg.params.sigma)
        assert np.array_equal(h.a, a[i])
        assert np.array_equal(h.b, b[i])
        rep = self_financing_defect(h, mp)
        assert np.array_equal(rep.defect, defect[i])
        shared = self_financing_defect(HoldingsSchedule(grid, a_shared, b_shared), mp)
        assert np.array_equal(shared.defect, shared_defect[i])
        enforced = enforce_self_financing(SampledSeries(grid, ramp), mp, 100.0)
        assert np.array_equal(enforced.b, ramp_b[i])


def test_batch_constant_mix_matches_single_path():
    cfg = small_cfg(n_paths=8)
    grid = uniform_grid(cfg.horizon, cfg.base_steps)
    mkt = _batch_market(cfg.params, grid, 1, cfg.n_paths, cfg.seed, "risk_neutral")
    a, b = constant_mix_spec(0.6, 100.0).build(mkt)
    for i in range(cfg.n_paths):
        mp = gbm_path(cfg.params, generate_brownian(grid, cfg.seed, i), "risk_neutral")
        h = constant_mix(mp, 0.6, 100.0)
        assert np.array_equal(h.a, a[i])
        assert np.array_equal(h.b, b[i])


def test_batch_market_refinement_shares_brownian():
    cfg = small_cfg(n_paths=4, base_steps=8)
    grid = uniform_grid(cfg.horizon, cfg.base_steps)
    base = _batch_market(cfg.params, grid, 1, cfg.n_paths, cfg.seed, "physical")
    fine = _batch_market(cfg.params, grid, 4, cfg.n_paths, cfg.seed, "physical")
    np.testing.assert_allclose(fine.stock[:, ::4], base.stock, rtol=1e-12)
    # same as refining each path by hand
    for i in range(cfg.n_paths):
        w = generate_brownian(grid, cfg.seed, i)
        _, fw = refine(grid, w, 4)
        mp = gbm_path(cfg.params, fw, "physical")
        assert np.array_equal(mp.stock, fine.stock[i])


def test_defect_refinement_study_passes_and_reports_levels():
    cfg = small_cfg(n_paths=64)
    res = defect_refinement_study(cfg)
    assert res.verdict == "pass"
    assert len(res.rows) == 2 * len(cfg.refinement_factors)
    enforced = [r for r in res.rows if "enforced" in r.param]
    frozen = [r for r in res.rows if "frozen_bond" in r.param]
    assert all(r.statistic <= cfg.tolerances["defect"] for r in enforced)
    assert all(r.statistic > 10 * cfg.tolerances["defect"] for r in frozen)
    assert all(r.status == "expected-fail" for r in frozen)
    assert [r.param.split()[0] for r in enforced] == ["N=16", "N=32", "N=64"]


def test_defect_refinement_study_requires_hedge():
    with pytest.raises(ValueError):
        defect_refinement_study(small_cfg(hedge=None))


def test_defect_refinement_study_sigma_zero_is_degenerate_pass():
    cfg = small_cfg(params=GbmParams(120.0, 0.0, 0.0, 0.0), n_paths=8)
    res = defect_refinement_study(cfg)
    assert res.verdict == "pass"
    assert all(r.statistic == 0.0 for r in res.rows)


def test_martingale_test_requires_strategies():
    with pytest.raises(ValueError):
        martingale_test(small_cfg(), [])


def test_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        small_cfg(seed=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        dataclasses.replace(small_cfg(), seed=-1)


def test_martingale_test_requires_two_paths():
    with pytest.raises(ValueError, match="n_paths >= 2"):
        martingale_test(small_cfg(n_paths=1), [buy_and_hold_spec(1.0, 0.0)])


def test_martingale_buy_and_hold_tracks_lognormal_mean():
    cfg = small_cfg(n_paths=20_000, base_steps=16)
    res = martingale_test(cfg, [buy_and_hold_spec(1.0, 0.0)])
    row = res.rows[0]
    # oracle: discounted exact-scheme GBM has E[S_T e^{-rT}] = S_0 exactly
    assert abs(row.statistic - 100.0) <= 3.0 * row.stderr
    assert res.verdict == "pass"


def test_martingale_deterministic_market_degenerate_band():
    cfg = small_cfg(params=GbmParams(100.0, 0.05, 0.0, 0.05), n_paths=50)
    res = martingale_test(cfg, [buy_and_hold_spec(1.0, 0.0), constant_mix_spec(0.5, 100.0)])
    for row in res.rows:
        assert row.stderr == 0.0
        assert row.status == "pass"


def test_martingale_cash_injection_control_shifts_by_discounted_amount():
    cfg = small_cfg(n_paths=10_000, base_steps=16)
    amount, index = 10.0, 8
    res = martingale_test(cfg, [cash_injection_spec(amount, index)])
    row = res.rows[0]
    t_inj = index / 16.0
    expected_shift = amount * math.exp(-cfg.params.r * t_inj)
    assert row.status == "expected-fail"
    assert row.statistic - 100.0 == pytest.approx(expected_shift, abs=4.0 * row.stderr)
    # a control that sneaks inside the band is a real failure
    tiny = martingale_test(cfg, [cash_injection_spec(0.0, index)])
    assert tiny.rows[0].status == "fail"
    assert tiny.verdict == "fail"


def test_martingale_full_roster_verdict():
    cfg = small_cfg(n_paths=4000)
    res = martingale_test(
        cfg,
        [
            buy_and_hold_spec(1.0, 0.0),
            constant_mix_spec(0.6, 100.0),
            delta_hedge_spec(cfg.hedge),
            cash_injection_spec(10.0),
        ],
    )
    assert res.verdict == "pass"
    statuses = [r.status for r in res.rows]
    assert statuses == ["pass", "pass", "pass", "expected-fail"]


def test_martingale_property_for_random_enforced_schedules():
    # any bounded predictable stock schedule, once enforced, must earn the
    # risk-free rate: the 3-stderr band holds in >= 99 of 100 meta-runs
    cfg = small_cfg(n_paths=1000, base_steps=16, seed=0)
    hits = 0
    meta_rng = np.random.default_rng(314)
    for run in range(100):
        thresholds = np.sort(meta_rng.uniform(80.0, 120.0, size=3))
        levels = meta_rng.uniform(-1.5, 1.5, size=4)

        def build(mkt, thresholds=thresholds, levels=levels):
            a = levels[np.searchsorted(thresholds, mkt.stock)]
            a[:, -1] = a[:, -2]
            b = complete_bond(a, mkt.stock, mkt.bond, 100.0)
            return a, b

        spec = StrategySpec(f"random_step_{run}", build)
        res = martingale_test(
            ExperimentConfig(
                params=cfg.params, horizon=cfg.horizon, base_steps=cfg.base_steps,
                refinement_factors=cfg.refinement_factors, n_paths=cfg.n_paths,
                seed=run, hedge=cfg.hedge,
            ),
            [spec],
        )
        hits += res.rows[0].status == "pass"
    assert hits >= 99, f"martingale band held in only {hits}/100 meta-runs"


def test_hedging_convergence_slope_near_half():
    cfg = small_cfg(
        params=GbmParams(100.0, 0.05, 0.2, 0.0),
        base_steps=4,
        refinement_factors=(1, 4, 16, 64),
        n_paths=2000,
    )
    res = hedging_convergence(cfg)
    assert res.verdict == "pass"
    slope_row = res.rows[-1]
    assert -0.65 <= slope_row.statistic <= -0.35
    levels = [r.statistic for r in res.rows[:-1]]
    assert levels == sorted(levels, reverse=True), f"RMS not decreasing: {levels}"


def test_hedging_convergence_validation():
    with pytest.raises(ValueError):
        hedging_convergence(small_cfg(refinement_factors=(1, 2)))
    with pytest.raises(ValueError):
        hedging_convergence(small_cfg(hedge=None))


def test_hedging_convergence_sigma_zero_exact_replication():
    cfg = small_cfg(params=GbmParams(120.0, 0.0, 0.0, 0.0), n_paths=16)
    res = hedging_convergence(cfg)
    assert res.verdict == "pass"
    assert all(r.statistic == 0.0 for r in res.rows[:-1])
    assert "exact replication" in res.rows[-1].param


def test_results_are_reproducible_bit_for_bit():
    cfg = small_cfg(n_paths=128)
    roster = lambda: [buy_and_hold_spec(1.0, 0.0), cash_injection_spec(5.0)]
    assert martingale_test(cfg, roster()) == martingale_test(cfg, roster())
    assert defect_refinement_study(cfg) == defect_refinement_study(cfg)
    assert hedging_convergence(cfg) == hedging_convergence(cfg)


def test_verdict_is_a_pure_function_of_rows():
    cfg = small_cfg(n_paths=256)
    for res in (
        defect_refinement_study(cfg),
        hedging_convergence(cfg),
        martingale_test(cfg, [buy_and_hold_spec(1.0, 0.0), cash_injection_spec(10.0)]),
    ):
        rederived = "pass" if all(r.status != "fail" for r in res.rows) else "fail"
        assert res.verdict == rederived


def test_result_csv_format(tmp_path):
    cfg = small_cfg(n_paths=64)
    res = defect_refinement_study(cfg)
    dest = tmp_path / "res.csv"
    write_result_csv(res, dest)
    lines = dest.read_text().splitlines()
    assert lines[0] == "name,param,statistic,stderr,verdict"
    assert len(lines) == len(res.rows) + 1
    assert all(line.startswith("defect_refinement,") for line in lines[1:])


def _peak_bytes(fn) -> int:
    """Peak traced memory of fn(), above what was allocated before the call."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.mark.parametrize(
    "study, steps_per_path, bound",
    [
        (defect_refinement_study, 64 * 16, 7.52),
        (hedging_convergence, 64 * 16, 6.54),
        (lambda cfg: martingale_test(cfg, _default_martingale_roster(cfg)), 64, 10.14),
    ],
    ids=["defect_refinement_study", "hedging_convergence", "martingale_test"],
)
def test_study_peak_memory_in_full_size_arrays(study, steps_per_path, bound):
    # Unit: one n_paths x n_points float64 array at the finest grid. Each
    # bound is the study's measured peak (7.507, 6.528 and 10.133 arrays)
    # plus under 0.01, so one more full-size temporary at the peak fails.
    cfg = ExperimentConfig(
        n_paths=400, base_steps=64, refinement_factors=(1, 4, 16), seed=3,
        hedge=EuropeanCall(100.0, 1.0),
    )
    peak = _peak_bytes(lambda: study(cfg)) / (cfg.n_paths * (steps_per_path + 1) * 8)
    assert peak <= bound, f"peak {peak:.2f} full-size arrays > {bound}"
