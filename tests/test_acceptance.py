"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Tolerances are pinned here; the runtime budgets guard desk-scale
usability.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

from hedgelab.calculus import SampledSeries, SmoothFunction, ito_doblin_residual
from hedgelab.experiments import (
    ExperimentConfig,
    buy_and_hold_spec,
    cash_injection_spec,
    constant_mix_spec,
    delta_hedge_spec,
    hedging_convergence,
    martingale_test,
)
from hedgelab.ledger import enforce_self_financing, ito_expansion_terms, self_financing_defect
from hedgelab.paths import GbmParams, generate_brownian, gbm_path, uniform_grid
from hedgelab.strategies import EuropeanCall, HoldingsSchedule, broken_strategy, delta_hedge

DEFECT_TOL = 1e-9
CONTROL_FLOOR = 1e-3


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def market(seed, steps, sigma=0.2, mu=0.05, r=0.05, s0=100.0, measure="physical"):
    grid = uniform_grid(1.0, steps)
    return gbm_path(GbmParams(s0, mu, sigma, r), generate_brownian(grid, seed), measure)


def test_criterion_1_exact_discrete_product_rule():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        mp = market(seed=i, steps=256)
        h = HoldingsSchedule(
            mp.grid,
            rng.uniform(-2.0, 2.0, mp.grid.n_points),
            rng.uniform(-2.0, 2.0, mp.grid.n_points),
        )
        defect = self_financing_defect(h, mp).defect
        term_sum = sum(t.values for t in ito_expansion_terms(h, mp))
        worst = max(worst, float(np.max(np.abs(defect - term_sum))))
    elapsed = time.perf_counter() - start
    ok = worst <= DEFECT_TOL and elapsed < 10.0
    report(
        "criterion 1 (exact discrete product rule)",
        ok,
        f"max |D - sum(terms)| = {worst:.3e} over 1000 instances in {elapsed:.1f}s",
    )


def test_criterion_2_self_financing_zero_defect():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst_enforced = 0.0
    weakest_control = math.inf
    for i in range(1000):
        mp = market(seed=10_000 + i, steps=256)
        # bounded predictable stock schedule, guaranteed to rebalance
        c0, c1 = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
        a = SampledSeries(mp.grid, c0 + c1 * np.tanh((mp.stock - 100.0) / 20.0))
        h = enforce_self_financing(a, mp, 100.0)
        worst_enforced = max(
            worst_enforced, float(np.max(np.abs(self_financing_defect(h, mp).defect)))
        )
        frozen = broken_strategy(h, "frozen_bond")
        weakest_control = min(
            weakest_control, float(np.max(np.abs(self_financing_defect(frozen, mp).defect)))
        )
    elapsed = time.perf_counter() - start
    ok = worst_enforced <= DEFECT_TOL and weakest_control > CONTROL_FLOOR and elapsed < 10.0
    report(
        "criterion 2 (self-financing zero defect)",
        ok,
        f"enforced max |D| = {worst_enforced:.3e}, weakest control |D| = "
        f"{weakest_control:.3e}, {elapsed:.1f}s",
    )


def test_criterion_3_cancellation_not_vanishing():
    call = EuropeanCall(strike=100.0, expiry=1.0)
    nonvanishing = 0
    worst_sum = 0.0
    for i in range(100):
        mp = market(seed=20_000 + i, steps=1024, r=0.0, mu=0.0)
        h = delta_hedge(call, mp, 0.2)
        terms = ito_expansion_terms(h, mp)
        nonvanishing += abs(terms[1].values[-1]) > 0.01  # cumulative da*dS at T
        total = sum(t.values for t in terms)
        worst_sum = max(worst_sum, float(np.max(np.abs(total))))
    ok = nonvanishing >= 95 and worst_sum <= DEFECT_TOL
    report(
        "criterion 3 (cancellation, not vanishing)",
        ok,
        f"|da*dS| series exceeded 0.01 on {nonvanishing}/100 paths while the "
        f"four-term sum stayed <= {worst_sum:.3e}",
    )


def test_criterion_4_risk_neutral_equal_rate_of_return():
    cfg = ExperimentConfig(
        params=GbmParams(100.0, 0.1, 0.2, 0.05),
        base_steps=64,
        n_paths=100_000,
        seed=404,
        strike=100.0,
    )
    start = time.perf_counter()
    res = martingale_test(
        cfg,
        [
            buy_and_hold_spec(1.0, 0.0),
            constant_mix_spec(0.6, 100.0),
            delta_hedge_spec(cfg.hedge, cfg.params.sigma),
            cash_injection_spec(10.0),
        ],
    )
    elapsed = time.perf_counter() - start
    statuses = [r.status for r in res.rows]
    ok = (
        res.verdict == "pass"
        and statuses == ["pass", "pass", "pass", "expected-fail"]
        and elapsed < 60.0
    )
    detail = ", ".join(f"{r.param.split(' ')[0]}={r.statistic:.4f}+-{r.stderr:.4f}" for r in res.rows)
    report(
        "criterion 4 (equal rate of return under risk-neutral measure)",
        ok,
        f"{detail} in {elapsed:.1f}s",
    )


def test_criterion_5_hedging_error_scaling():
    cfg = ExperimentConfig(
        params=GbmParams(100.0, 0.05, 0.2, 0.0),
        base_steps=4,
        refinement_factors=(1, 4, 16, 64),
        n_paths=10_000,
        seed=505,
        strike=100.0,
    )
    start = time.perf_counter()
    res = hedging_convergence(cfg)
    elapsed = time.perf_counter() - start
    slope = res.rows[-1].statistic
    ok = res.verdict == "pass" and -0.65 <= slope <= -0.35 and elapsed < 60.0
    report(
        "criterion 5 (hedging-error scaling)",
        ok,
        f"fitted slope {slope:.3f} over N in (4,16,64,256) in {elapsed:.1f}s",
    )


def test_criterion_6_ito_doblin_checker():
    square = SmoothFunction(
        f=lambda t, s: s**2,
        df_dt=lambda t, s: 0.0,
        df_ds=lambda t, s: 2.0 * s,
        d2f_ds2=lambda t, s: 2.0,
    )
    log = SmoothFunction(
        f=lambda t, s: np.log(s),
        df_dt=lambda t, s: 0.0,
        df_ds=lambda t, s: 1.0 / s,
        d2f_ds2=lambda t, s: -1.0 / s**2,
    )
    worst_square = max(
        abs(ito_doblin_residual(square, market(seed=30_000 + i, steps=512))) for i in range(100)
    )
    rms = []
    for steps in (64, 256, 1024):
        residuals = [
            ito_doblin_residual(log, market(seed=40_000 + i, steps=steps)) for i in range(100)
        ]
        rms.append(math.sqrt(np.mean(np.square(residuals))))
    ok = worst_square <= 1e-9 and rms[0] > rms[1] > rms[2]
    report(
        "criterion 6 (second-order expansion checker)",
        ok,
        f"quadratic residual <= {worst_square:.3e}; log RMS {rms[0]:.2e} > {rms[1]:.2e} > {rms[2]:.2e}",
    )


def test_criterion_7_determinism_across_runs_and_thread_counts(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "n_paths = 40\nbase_steps = 8\nrefinement_factors = 1,2,4\nseed = 12\n"
    )
    driver = (
        "from hedgelab.cli import main\n"
        "import sys\n"
        "cfg, out = sys.argv[1], sys.argv[2]\n"
        "for cmd in ('simulate', 'verify', 'hedge', 'martingale'):\n"
        "    code = main([cmd, '--config', cfg, '--out', f'{out}/{cmd}'])\n"
        "    assert code == 0, (cmd, code)\n"
    )

    def one_run(label, threads):
        out = tmp_path / label
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        subprocess.run(
            [sys.executable, "-c", driver, str(config), str(out)],
            check=True,
            env=env,
            capture_output=True,
        )
        return {
            f"{sub.name}/{f.name}": f.read_bytes()
            for sub in sorted(out.iterdir())
            for f in sorted(sub.iterdir())
        }

    first = one_run("t1_a", threads=1)
    second = one_run("t1_b", threads=1)
    third = one_run("t8", threads=8)
    assert first.keys() == second.keys() == third.keys()
    mismatched = [k for k in first if not (first[k] == second[k] == third[k])]
    ok = not mismatched and len(first) >= 8
    report(
        "criterion 7 (byte-identical outputs)",
        ok,
        f"{len(first)} files identical across 2 runs and thread counts 1/8"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )
