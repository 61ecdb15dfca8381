import dataclasses
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest

from hedgelab import accum, experiments
from hedgelab.experiments import (
    DEFAULT_TOLERANCES,
    ExperimentConfig,
    StrategySpec,
    _market,
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
from conftest import fail_in_blocks_3_and_5
from hedgelab.strategies import (
    EuropeanCall,
    HoldingsSchedule,
    broken_strategy,
    buy_and_hold,
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
        strike=100.0,
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


@pytest.mark.parametrize(
    "key, value",
    [("n_paths", 20.5), ("base_steps", 16.0), ("seed", 1.5), ("refinement_factors", (1, 2.5, 4))],
)
def test_config_rejects_non_integral_counts(key, value):
    with pytest.raises(ValueError, match=rf"{key} must be an integer"):
        small_cfg(**{key: value})


def test_config_path_count_fits_the_uint32_path_keys():
    # Construction only: nothing is simulated at these sizes.
    assert small_cfg(n_paths=2**32).n_paths == 2**32
    with pytest.raises(ValueError, match=r"n_paths must be <= 2\*\*32"):
        small_cfg(n_paths=2**32 + 1)


def test_config_counts_are_python_ints():
    cfg = small_cfg(n_paths=np.int64(20), base_steps=np.int32(8), seed=np.uint64(7),
                    refinement_factors=np.array([1, 2, 4]))
    assert [type(v) for v in (cfg.n_paths, cfg.base_steps, cfg.seed, *cfg.refinement_factors)] == [int] * 6
    assert cfg == small_cfg(n_paths=20, base_steps=8, seed=7, refinement_factors=(1, 2, 4))


def test_batch_kernels_match_single_path_ledger():
    # the kernels run on a batch must reproduce the per-path API bitwise
    cfg = small_cfg(n_paths=16, base_steps=24)
    grid = uniform_grid(cfg.horizon, cfg.base_steps)
    mkt = _market(cfg, grid, 1, range(cfg.n_paths), "physical")
    a, y0 = delta_stock_holdings(cfg.hedge, mkt.stock, mkt.grid.times, mkt.rate, cfg.params.sigma)
    b = complete_bond(a, mkt.stock, mkt.bond, y0)
    _, _, defect = defect_series(a, b, mkt.stock, mkt.bond)
    # shared (n,) holdings against (P, n) stock, as buy_and_hold_spec and
    # cash_injection_spec build them
    a_shared, b_shared = cash_injection_spec(5.0).build(mkt)
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
        # the same control through the single-path API, at the spec's default index
        broken = broken_strategy(
            buy_and_hold(grid, 1.0, 0.0), "cash_injection", amount=5.0, at_index=grid.n_points // 2, path=mp
        )
        assert np.array_equal(broken.a, a_shared)
        assert np.array_equal(broken.b, b_shared)
        enforced = enforce_self_financing(SampledSeries(grid, ramp), mp, 100.0)
        assert np.array_equal(enforced.b, ramp_b[i])


def test_batch_constant_mix_matches_single_path():
    cfg = small_cfg(n_paths=8)
    grid = uniform_grid(cfg.horizon, cfg.base_steps)
    mkt = _market(cfg, grid, 1, range(cfg.n_paths), "risk_neutral")
    a, b = constant_mix_spec(0.6, 100.0).build(mkt)
    for i in range(cfg.n_paths):
        mp = gbm_path(cfg.params, generate_brownian(grid, cfg.seed, i), "risk_neutral")
        h = constant_mix(mp, 0.6, 100.0)
        assert np.array_equal(h.a, a[i])
        assert np.array_equal(h.b, b[i])


def test_block_market_refinement_shares_brownian():
    cfg = small_cfg(n_paths=4, base_steps=8)
    grid = uniform_grid(cfg.horizon, cfg.base_steps)
    base = _market(cfg, grid, 1, range(cfg.n_paths), "physical")
    fine = _market(cfg, grid, 4, range(cfg.n_paths), "physical")
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
    assert all(r.statistic <= DEFAULT_TOLERANCES["defect"] for r in enforced)
    assert all(r.statistic > 10 * DEFAULT_TOLERANCES["defect"] for r in frozen)
    assert all(r.status == "expected-fail" for r in frozen)
    assert [r.param.split()[0] for r in enforced] == ["N=16", "N=32", "N=64"]


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
    res = martingale_test(cfg, [cash_injection_spec(amount)])
    row = res.rows[0]
    t_inj = index / 16.0
    expected_shift = amount * math.exp(-cfg.params.r * t_inj)
    assert row.status == "expected-fail"
    assert row.statistic - 100.0 == pytest.approx(expected_shift, abs=4.0 * row.stderr)
    # a control that sneaks inside the band is a real failure
    tiny = martingale_test(cfg, [cash_injection_spec(0.0)])
    assert tiny.rows[0].status == "fail"
    assert tiny.verdict == "fail"


def test_martingale_full_roster_verdict():
    cfg = small_cfg(n_paths=4000)
    res = martingale_test(
        cfg,
        [
            buy_and_hold_spec(1.0, 0.0),
            constant_mix_spec(0.6, 100.0),
            delta_hedge_spec(cfg.hedge, cfg.params.sigma),
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

        def build(mkt, out=None, thresholds=thresholds, levels=levels):
            a = levels[np.searchsorted(thresholds, mkt.stock)]
            a[:, -1] = a[:, -2]
            b = complete_bond(a, mkt.stock, mkt.bond, 100.0)
            return a, b

        spec = StrategySpec(f"random_step_{run}", build)
        res = martingale_test(
            ExperimentConfig(
                params=cfg.params, horizon=cfg.horizon, base_steps=cfg.base_steps,
                refinement_factors=cfg.refinement_factors, n_paths=cfg.n_paths,
                seed=run, strike=cfg.strike,
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


@pytest.mark.parametrize("study", [defect_refinement_study, hedging_convergence])
def test_studies_hedge_to_a_replaced_horizon(study):
    # the hedge is derived from strike and horizon, so it expires at the new horizon
    cfg = dataclasses.replace(small_cfg(n_paths=32), horizon=2.0)
    assert cfg.hedge == EuropeanCall(100.0, 2.0)
    res = study(cfg)
    levels = [r for r in res.rows if r.param.startswith("N=")]
    assert {r.param.split()[0] for r in levels} == {"N=16", "N=32", "N=64"}
    assert all(r.status != "fail" for r in levels)
    assert res == study(small_cfg(n_paths=32, horizon=2.0))


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
        (defect_refinement_study, 64 * 16, 6.495),
        (hedging_convergence, 64 * 16, 4.75),
        (lambda cfg: martingale_test(cfg, _default_martingale_roster(cfg)), 64, 9.135),
    ],
    ids=["defect_refinement_study", "hedging_convergence", "martingale_test"],
)
def test_study_peak_memory_in_full_size_arrays(study, steps_per_path, bound):
    # Unit: one n_paths x n_points float64 array at the finest grid. Each
    # bound is the study's measured peak (6.488, 4.742 and 9.130 arrays)
    # plus under 0.01, so one more full-size temporary at the peak fails.
    cfg = ExperimentConfig(
        n_paths=400, base_steps=64, refinement_factors=(1, 4, 16), seed=3, strike=100.0,
    )
    peak = _peak_bytes(lambda: study(cfg)) / (cfg.n_paths * (steps_per_path + 1) * 8)
    assert peak <= bound, f"peak {peak:.2f} full-size arrays > {bound}"


_STUDIES = {
    "defect_refinement_study": defect_refinement_study,
    "hedging_convergence": hedging_convergence,
    "martingale_test": lambda cfg: martingale_test(cfg, _default_martingale_roster(cfg)),
}


@pytest.mark.parametrize("study", _STUDIES.values(), ids=_STUDIES.keys())
def test_study_csv_does_not_depend_on_the_block_size(tmp_path, monkeypatch, study):
    # 53 paths on 9-, 17- and 33-point grids. BUDGET 1 gives one path a
    # block; 7 * 33 gives 25, 13 and 7 paths a block, a ragged last block
    # at every level; 53 * 33 puts every path in one block.
    cfg = small_cfg(n_paths=53, base_steps=8, refinement_factors=(1, 2, 4))
    csvs = []
    for budget in (1, 7 * 33, 53 * 33):
        monkeypatch.setattr(experiments, "BUDGET", budget)
        dest = tmp_path / f"{budget}.csv"
        write_result_csv(study(cfg), dest)
        csvs.append(dest.read_bytes())
    assert csvs[0] == csvs[1] == csvs[2]


@pytest.mark.parametrize(
    "name, kept_vectors",
    [("defect_refinement_study", 2), ("hedging_convergence", 1), ("martingale_test", 4)],
)
def test_study_memory_grows_only_by_its_per_path_scalars(monkeypatch, name, kept_vectors):
    # With 8192-element blocks, 500 and 5000 paths both span two or more
    # blocks at every level, so their block arrays are the same size. Between
    # blocks a study keeps `kept_vectors` float64 values per path: max |D|
    # enforced and frozen-bond, the squared hedge error, or the discounted
    # terminal value of each of the four strategies.
    monkeypatch.setattr(experiments, "BUDGET", 8192)
    allowance = kept_vectors * (5000 - 500) * 8 + 4096
    # The smaller run goes first, so one-time allocations land outside the growth.
    study = _STUDIES[name]
    small = _peak_bytes(lambda: study(small_cfg(n_paths=500)))
    growth = _peak_bytes(lambda: study(small_cfg(n_paths=5000))) - small
    assert growth <= allowance, f"peak grew by {growth} B > {allowance} B"


def _single_path_market(cfg, factor, i, measure):
    grid = uniform_grid(cfg.horizon, cfg.base_steps)
    w = generate_brownian(grid, cfg.seed, i)
    if factor > 1:
        grid, w = refine(grid, w, factor)
    return gbm_path(cfg.params, w, measure)


def _defect_oracle(cfg, factor, i):
    mp = _single_path_market(cfg, factor, i, "physical")
    h = delta_hedge(cfg.hedge, mp, cfg.params.sigma)
    frozen = broken_strategy(h, "frozen_bond")
    return [np.max(np.abs(self_financing_defect(x, mp).defect)) for x in (h, frozen)]


def _hedge_oracle(cfg, factor, i):
    mp = _single_path_market(cfg, factor, i, "physical")
    h = delta_hedge(cfg.hedge, mp, cfg.params.sigma)
    terminal = h.a[-1] * mp.stock[-1] + h.b[-1] * mp.bond[-1]
    return [np.square(terminal - np.maximum(mp.stock[-1] - cfg.strike, 0.0))]


def _martingale_oracle(cfg, factor, i):
    # The default roster, strategy by strategy, through the single-path API.
    mp = _single_path_market(cfg, factor, i, "risk_neutral")
    grid = mp.grid
    schedules = [
        buy_and_hold(grid, 1.0, 0.0),
        constant_mix(mp, 0.6, cfg.params.s0),
        delta_hedge(cfg.hedge, mp, cfg.params.sigma),
        broken_strategy(
            buy_and_hold(grid, 1.0, 0.0), "cash_injection", amount=10.0, at_index=grid.n_points // 2, path=mp
        ),
    ]
    return [self_financing_defect(h, mp).value[-1] / mp.bond[-1] for h in schedules]


@pytest.mark.parametrize(
    "study, factors, oracle",
    [
        (defect_refinement_study, (1, 2, 3), _defect_oracle),
        (hedging_convergence, (1, 2, 3), _hedge_oracle),
        (lambda cfg: martingale_test(cfg, _default_martingale_roster(cfg)), (1,), _martingale_oracle),
    ],
    ids=_STUDIES.keys(),
)
def test_per_path_values_are_the_single_path_apis(monkeypatch, study, factors, oracle):
    # 23 paths on 9-, 17- and 25-point grids with BUDGET 100: 11, 5 and 4
    # paths a block, so every level has three or more blocks and a short
    # last one. A row left over from the previous block would show here.
    # 64-element comp_cumsum blocks split each study block's rows again.
    cfg = small_cfg(n_paths=23, base_steps=8, refinement_factors=(1, 2, 3))
    monkeypatch.setattr(experiments, "BUDGET", 100)
    monkeypatch.setattr(accum, "BLOCK_ELEMENTS", 64)
    levels = []
    per_path = experiments._per_path

    def recording(cfg, factor, *args, **kwargs):
        values, flag, head = per_path(cfg, factor, *args, **kwargs)
        levels.append((factor, values.copy()))
        return values, flag, head

    monkeypatch.setattr(experiments, "_per_path", recording)
    study(cfg)
    assert [factor for factor, _ in levels] == list(factors)
    for factor, values in levels:
        want = np.array([oracle(cfg, factor, i) for i in range(cfg.n_paths)]).T
        assert values.tobytes() == want.tobytes()


def test_block_market_and_work_arrays_live_in_the_level_buffers(monkeypatch):
    # 23 paths, 5 a block: each block's market and work arrays must be views of
    # the same level buffers, not copies, and read-only where they are the
    # market's.
    cfg = small_cfg(n_paths=23, base_steps=8)
    monkeypatch.setattr(experiments, "BUDGET", 5 * 33)
    seen = []

    def fn(mkt, work, out):
        seen.append((mkt, work))
        out[0] = mkt.stock[:, -1]
        return False, None

    values, _, _ = experiments._per_path(cfg, 4, "physical", fn, 1, n_work=2)
    assert len(seen) == 5
    first_mkt, first_work = seen[0]
    for mkt, work in seen:
        assert np.shares_memory(mkt.stock, first_mkt.stock)
        assert not mkt.stock.flags.writeable
        assert all(np.shares_memory(w, w0) for w, w0 in zip(work, first_work))
    assert values[0].tobytes() == _market(cfg, uniform_grid(1.0, 8), 4, range(23), "physical").stock[:, -1].tobytes()


def test_each_lane_reuses_its_own_level_buffers(monkeypatch):
    # 23 paths on a 33-point grid, 6 a block at one lane (4 blocks), and 3,
    # 2 and 1 a block at 2, 3 and 4 lanes. Each lane allocates its
    # buffers once, so the blocks' stocks start at exactly `lanes` addresses.
    # Holding every stock keeps a finished lane's buffer from being freed and
    # its address handed to a lane that starts later. The head is the first
    # block's even when that block finishes last.
    cfg = small_cfg(n_paths=23, base_steps=8)
    monkeypatch.setattr(experiments, "BUDGET", 6 * 33)
    monkeypatch.setattr(accum, "BLOCK_ELEMENTS", 1)
    for lanes in (2, 3, 4):
        stocks = []

        def fn(mkt, work, out):
            stocks.append(mkt.stock)
            out[0] = mkt.stock[:, -1]
            start = (out.ctypes.data - out.base.ctypes.data) // out.itemsize
            if start == 0:
                time.sleep(0.05)
            return False, start

        monkeypatch.setattr(experiments, "_usable_cpus", lambda: lanes)
        _, _, head = experiments._per_path(cfg, 4, "physical", fn, 1, n_work=2)
        assert len({stock.__array_interface__["data"][0] for stock in stocks}) == lanes
        assert head == 0


@pytest.mark.parametrize("budget, lanes", [(20, 1), (60, 1), (66, 2), (100, 3), (7 * 33, 3)])
def test_lane_blocks_together_stay_within_the_budget(monkeypatch, budget, lanes):
    # 23 paths on a 33-point grid with three usable CPUs. Below 66 elements
    # a second lane's one-path block would overflow BUDGET, so the level
    # runs serially, also at 20 where one path alone is over BUDGET; from
    # 66 on, all lanes' blocks together stay within it. Holding every stock
    # keeps each lane's buffer address its own.
    cfg = small_cfg(n_paths=23, base_steps=8)
    monkeypatch.setattr(experiments, "BUDGET", budget)
    monkeypatch.setattr(accum, "BLOCK_ELEMENTS", 1)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
    stocks = []

    def fn(mkt, work, out):
        stocks.append(mkt.stock)
        out[0] = mkt.stock[:, -1]
        return False, None

    experiments._per_path(cfg, 4, "physical", fn, 1, n_work=2)
    assert len({stock.__array_interface__["data"][0] for stock in stocks}) == lanes
    if lanes > 1:
        assert lanes * max(len(stock) for stock in stocks) * 33 <= budget


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "study, steps_per_path, bound",
    [
        (defect_refinement_study, 64 * 16, 6.495),
        (hedging_convergence, 64 * 16, 4.75),
        (lambda cfg: martingale_test(cfg, _default_martingale_roster(cfg)), 64, 9.135),
    ],
    ids=["defect_refinement_study", "hedging_convergence", "martingale_test"],
)
def test_study_peak_memory_bound_holds_on_one_and_two_lanes(monkeypatch, cpus, study, steps_per_path, bound):
    # The serial bounds of test_study_peak_memory_in_full_size_arrays, on
    # one usable CPU and on two. In the refinement and hedging studies the
    # 1025-point level's two serial blocks become two lanes of half-size
    # blocks, whose buffers and temporaries together are no larger than one
    # serial block's; the martingale study's one level fits one block.
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    cfg = ExperimentConfig(
        n_paths=400, base_steps=64, refinement_factors=(1, 4, 16), seed=3, strike=100.0,
    )
    peak = _peak_bytes(lambda: study(cfg)) / (cfg.n_paths * (steps_per_path + 1) * 8)
    assert peak <= bound, f"peak {peak:.2f} full-size arrays > {bound}"


_LEVEL_FNS = {
    "defects": (4, "physical", lambda cfg: partial(experiments._block_defects, cfg), 2, 5),
    "hedge_errors": (2, "physical", lambda cfg: partial(experiments._block_hedge_errors, cfg), 1, 2),
    "discounted": (
        1, "risk_neutral",
        lambda cfg: partial(experiments._block_discounted, _default_martingale_roster(cfg)), 4, 2,
    ),
}


@pytest.mark.parametrize("level", _LEVEL_FNS.values(), ids=_LEVEL_FNS.keys())
def test_per_path_is_bitwise_equal_at_any_lane_count(monkeypatch, level):
    # The block-size test's 53 paths and budgets. Single-row comp_cumsum
    # blocks leave the lane count uncapped by BUDGET // BLOCK_ELEMENTS
    # wherever the level has more than one block: at 7 * 33, 2 and 3 lanes
    # run blocks of 3 and 2 paths on the 33-point grid, a short last one
    # included.
    factor, measure, make_fn, n_values, n_work = level
    cfg = small_cfg(n_paths=53, base_steps=8)
    monkeypatch.setattr(accum, "BLOCK_ELEMENTS", 1)
    runs = []
    for budget in (1, 7 * 33, 53 * 33):
        monkeypatch.setattr(experiments, "BUDGET", budget)
        for lanes in (1, 2, 3):
            monkeypatch.setattr(experiments, "_usable_cpus", lambda: lanes)
            values, flag, head = experiments._per_path(cfg, factor, measure, make_fn(cfg), n_values, n_work)
            runs.append((values.tobytes(), flag, head))
    assert all(run == runs[0] for run in runs)


def test_martingale_csv_at_real_block_sizes_is_the_same_on_one_and_two_lanes(tmp_path, monkeypatch):
    # 64-step blocks of 4032 paths at one lane and 2016 at two, plus the
    # 1216-path last block of a 100k-path run; comp_cumsum's row blocks of
    # 1009 lines, and of 505 at the former 2**15-element size.
    cfg = ExperimentConfig(n_paths=2 * (experiments.BUDGET // 65) + 1216, seed=5)
    csvs = []
    for lanes, block_elements in ((1, accum.BLOCK_ELEMENTS), (2, accum.BLOCK_ELEMENTS), (2, 1 << 15)):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: lanes)
        monkeypatch.setattr(accum, "BLOCK_ELEMENTS", block_elements)
        dest = tmp_path / f"{lanes}-{block_elements}.csv"
        write_result_csv(martingale_test(cfg, _default_martingale_roster(cfg)), dest)
        csvs.append(dest.read_bytes())
    assert csvs[0] == csvs[1] == csvs[2]


@pytest.mark.parametrize("lanes", [1, 2, experiments.BUDGET // accum.BLOCK_ELEMENTS])
def test_64_step_lane_blocks_accumulate_over_more_than_500_complex_rows(monkeypatch, lanes):
    # numpy (2.4.6) releases the interpreter lock in a 2-D accumulate along
    # axis 1 only over more than 500 rows, and comp_cumsum holds two lines a
    # complex row. Both comp_cumsum calls of a 64-step martingale block
    # (gbm_path's and the delta hedge's complete_bond), at 1 and 2 lanes and
    # at the lane cap, are 1002 lines or more, and each of their row blocks,
    # as comp_cumsum plans them at the real BLOCK_ELEMENTS, is over 500
    # complex rows. (At 3 lanes a 1344-line block splits 1009 + 335.)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: lanes)
    plans = []
    block_lines = accum._block_lines

    def recording(m, n):
        plans.append((m, n))
        return block_lines(m, n)

    monkeypatch.setattr(accum, "_block_lines", recording)
    cfg = ExperimentConfig(n_paths=4 * (experiments.BUDGET // 65), seed=5)
    martingale_test(cfg, _default_martingale_roster(cfg))
    assert {m for m, _ in plans} == {experiments.BUDGET // lanes // 65}
    for m, n in set(plans):
        b = block_lines(m, n)
        assert n == 64 and m >= 1002
        assert all(-(-min(b, m - lo) // 2) > 500 for lo in range(0, m, b))


def test_more_lanes_than_cpus_under_rapid_switching_give_the_serial_values(monkeypatch):
    # Six lanes of one path a block each on 53 paths, switching threads
    # every microsecond: a block written to the wrong columns, or a flag
    # lost between lanes, would show against the serial run.
    cfg = small_cfg(n_paths=53, base_steps=8)
    monkeypatch.setattr(experiments, "BUDGET", 8 * 33)
    monkeypatch.setattr(accum, "BLOCK_ELEMENTS", 1)
    fn = partial(experiments._block_defects, cfg)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    values, flag, head = experiments._per_path(cfg, 4, "physical", fn, 2, n_work=5)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = experiments._per_path(cfg, 4, "physical", fn, 2, n_work=5)
    finally:
        sys.setswitchinterval(interval)
    assert (got[0].tobytes(), got[1], got[2]) == (values.tobytes(), flag, head)
    assert flag


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_lanes_raise_the_lowest_failing_blocks_error(monkeypatch, lanes):
    # 6 * 9-element blocks at one lane: 6, 3 and 2 paths a block at 1, 2
    # and 3 lanes, and paths 18 and 35 land on different lanes. Every path
    # below 18 still runs, and block 3's error is the one raised, as in a
    # serial run.
    cfg = small_cfg(n_paths=48, base_steps=8)
    monkeypatch.setattr(experiments, "BUDGET", 6 * 9)
    monkeypatch.setattr(accum, "BLOCK_ELEMENTS", 1)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: lanes)
    ran = []
    with pytest.raises(ValueError, match="block 3"):
        experiments._per_path(cfg, 1, "physical", partial(fail_in_blocks_3_and_5, ran), 1)
    assert set(range(18)) <= {i for paths in ran for i in paths}


@pytest.mark.skipif(sys.platform == "win32", reason="os.kill cannot send this process a SIGINT on Windows")
@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_interrupt_returns_after_every_lane_has_left_its_blocks(monkeypatch, lanes):
    # 4800 paths in blocks of 6, 3 and 2 at 1, 2 and 3 lanes. The block
    # holding path `trigger` sends this process a real SIGINT and stays in
    # its block a while longer; the trigger moves between repeats, so it
    # lands on every lane. When KeyboardInterrupt reaches the caller, no
    # lane thread is in a block, and no block starts after that. The main
    # thread's blocks are not counted: the interrupt is raised in them.
    # The lanes stop within a few blocks, long before the middle path.
    cfg = small_cfg(n_paths=4800, base_steps=8)
    monkeypatch.setattr(experiments, "BUDGET", 6 * 9)
    monkeypatch.setattr(accum, "BLOCK_ELEMENTS", 1)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: lanes)
    lock = threading.Lock()
    for trigger in range(30, 50):
        state = {"in_flight": 0, "caught": False, "late": 0, "last": 0}

        def fn(mkt, work, out):
            counted = threading.current_thread() is not threading.main_thread()
            start = (out.ctypes.data - out.base.ctypes.data) // out.itemsize
            with lock:
                state["in_flight"] += counted
                state["late"] += state["caught"]
                state["last"] = max(state["last"], start)
            try:
                if start <= trigger < start + out.shape[-1]:
                    os.kill(os.getpid(), signal.SIGINT)
                    time.sleep(0.02)
                time.sleep(0.001)
                out[...] = 0.0
                return False, None
            finally:
                with lock:
                    state["in_flight"] -= counted

        with pytest.raises(KeyboardInterrupt):
            experiments._per_path(cfg, 1, "physical", fn, 1)
        with lock:
            in_flight = state["in_flight"]
            state["caught"] = True
        time.sleep(0.05)
        assert (in_flight, state["late"]) == (0, 0), f"trigger path {trigger}"
        assert state["last"] < cfg.n_paths // 2
