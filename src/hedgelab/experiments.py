"""Batch experiments: defect refinement studies, the risk-neutral
equal-rate-of-return (martingale) test, and hedging-error convergence.

Paths are independent work units indexed by path number; every statistic
is reduced in path-index order with deterministic numpy kernels, so a
given ExperimentConfig always reproduces the same result rows bit for bit
no matter how the work is scheduled. All paths of a study are simulated
in one batched pass (paths.gbm_batch), which reproduces the per-path
default_rng([seed, i]) streams, and so the single-path API's stock values,
bit for bit.

The studies run the path-axis kernels of the ledger and strategies modules
(complete_bond, defect_series, constant_mix_holdings, delta_stock_holdings)
on the whole (n_paths, n_points) stock array; the single-path API runs the
same kernels on one path.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .ledger import complete_bond, defect_series
from .paths import GbmParams, TimeGrid, gbm_batch, uniform_grid
from .strategies import EuropeanCall, constant_mix_holdings, delta_stock_holdings

# Unused here, but the traced benchmark run (perfbench/tracing.py) wraps
# these names as attributes of this module and fails if one is missing.
from .accum import comp_cumsum  # noqa: F401
from .paths import gbm_path, generate_brownian, refine  # noqa: F401
from .strategies import bs_delta  # noqa: F401

DEFAULT_TOLERANCES: Mapping[str, float] = {
    # Absolute defect budget: floating-point noise for currency values of
    # order 100 accumulated with compensation stays orders below this.
    "defect": 1e-9,
    # A genuine control violation must clear the defect budget by this factor.
    "control_factor": 10.0,
    # Monte Carlo acceptance band half-width in standard errors.
    "stderr_mult": 3.0,
    # Absolute floor on the band so zero-variance degenerate markets do not
    # fail on rounding alone.
    "value_atol": 1e-9,
    # Acceptable log-log slope range for RMS hedging error vs rebalance count.
    "slope_min": -0.65,
    "slope_max": -0.35,
}


@dataclass(frozen=True)
class ExperimentConfig:
    params: GbmParams = GbmParams(s0=100.0, mu=0.05, sigma=0.2, r=0.05)
    horizon: float = 1.0
    base_steps: int = 64
    refinement_factors: tuple[int, ...] = (1, 4, 16)
    n_paths: int = 10_000
    seed: int = 42
    hedge: EuropeanCall | None = None
    tolerances: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be > 0")
        if int(self.base_steps) < 1:
            raise ValueError("base_steps must be >= 1")
        if int(self.n_paths) < 1:
            raise ValueError("n_paths must be >= 1")
        if int(self.seed) < 0:
            raise ValueError("seed must be >= 0")
        factors = tuple(int(f) for f in self.refinement_factors)
        if not factors or any(f < 1 for f in factors):
            raise ValueError("refinement_factors must be >= 1")
        if any(b <= a for a, b in zip(factors, factors[1:])):
            raise ValueError("refinement_factors must be strictly increasing")
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ValueError(f"unknown tolerance names: {sorted(unknown)}")
        object.__setattr__(self, "refinement_factors", factors)
        object.__setattr__(self, "tolerances", {**DEFAULT_TOLERANCES, **self.tolerances})


@dataclass(frozen=True)
class ResultRow:
    param: str
    statistic: float
    stderr: float
    status: str  # "pass" | "fail" | "expected-fail"


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    rows: tuple[ResultRow, ...]
    verdict: str  # "pass" | "fail"


def _verdict(rows) -> str:
    return "pass" if all(row.status != "fail" for row in rows) else "fail"


# ---------------------------------------------------------------------------
# Batch market
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BatchMarket:
    """Stacked market paths: stock is (n_paths, n_points), bond is shared."""

    times: np.ndarray
    stock: np.ndarray
    bond: np.ndarray
    rate: float
    sigma: float


@dataclass(frozen=True)
class StrategySpec:
    """A named holdings builder for the martingale test.

    `build` maps a BatchMarket to (a, b) holdings arrays, each either
    (n_points,) shared across paths or (n_paths, n_points). Controls are
    expected to violate the martingale band and are reported as
    expected-fail when they do.
    """

    name: str
    build: Callable[[BatchMarket], tuple[np.ndarray, np.ndarray]]
    control: bool = False


def _batch_market(
    params: GbmParams,
    base_grid: TimeGrid,
    factor: int,
    n_paths: int,
    seed: int,
    measure: str,
) -> BatchMarket:
    """Simulate n_paths market paths, refining the base grid by `factor`.

    Path i uses the counter (seed, i); refinement keys extend the counter,
    so all levels of a refinement study share Brownian motion with the base
    resolution at the shared instants.
    """
    grid, stock = gbm_batch(params, base_grid, factor, n_paths, seed, measure)
    bond = np.exp(params.r * grid.times)
    return BatchMarket(grid.times, stock, bond, params.r, params.sigma)


def _delta_hedge(mkt: BatchMarket, option: EuropeanCall, hedge_vol: float):
    """Self-financing delta-hedge holdings (a, b) of every path."""
    a, y0 = delta_stock_holdings(option, mkt.stock, mkt.times, mkt.rate, hedge_vol)
    return a, complete_bond(a, mkt.stock, mkt.bond, y0)


def _max_abs_defect(a: np.ndarray, b: np.ndarray, mkt: BatchMarket) -> float:
    # Indexing drops the value and gain series before np.abs allocates.
    defect = defect_series(a, b, mkt.stock, mkt.bond)[2]
    return float(np.max(np.abs(defect)))


# ---------------------------------------------------------------------------
# Strategy specs for the martingale test
# ---------------------------------------------------------------------------


def buy_and_hold_spec(a0: float, b0: float) -> StrategySpec:
    def build(mkt: BatchMarket):
        n = mkt.times.size
        return np.full(n, float(a0)), np.full(n, float(b0))

    return StrategySpec(f"buy_and_hold(a0={a0:g},b0={b0:g})", build)


def constant_mix_spec(stock_weight: float, initial_wealth: float) -> StrategySpec:
    def build(mkt: BatchMarket):
        return constant_mix_holdings(mkt.stock, mkt.bond, stock_weight, initial_wealth)

    return StrategySpec(f"constant_mix(w={stock_weight:g})", build)


def delta_hedge_spec(option: EuropeanCall, hedge_vol: float | None = None) -> StrategySpec:
    def build(mkt: BatchMarket):
        vol = mkt.sigma if hedge_vol is None else float(hedge_vol)
        return _delta_hedge(mkt, option, vol)

    return StrategySpec(f"delta_hedge(K={option.strike:g})", build)


def cash_injection_spec(
    amount: float, at_index: int | None = None, a0: float = 1.0, b0: float = 0.0
) -> StrategySpec:
    """Buy-and-hold plus external money appearing at one rebalance (control)."""

    def build(mkt: BatchMarket):
        n = mkt.times.size
        j = n // 2 if at_index is None else int(at_index)
        if not 0 <= j < n:
            raise ValueError("injection index out of range")
        a = np.full(n, float(a0))
        b = np.full(n, float(b0))
        b[j:] += float(amount) / mkt.bond[j]
        return a, b

    return StrategySpec(f"cash_injection(amount={amount:g})", build, control=True)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def defect_refinement_study(cfg: ExperimentConfig) -> ExperimentResult:
    """Max self-financing defect across paths and refinement levels.

    For each level the enforced delta hedge must stay within the defect
    budget while the frozen-bond control (same stock trades, rebalances
    never funded) must exceed it by `control_factor`. A degenerate market
    with no rebalances (sigma = 0) leaves the control vacuous and it is
    reported as a pass.
    """
    if cfg.hedge is None:
        raise ValueError("defect refinement study requires a hedge target")
    tol = cfg.tolerances["defect"]
    control_bar = cfg.tolerances["control_factor"] * tol
    base_grid = uniform_grid(cfg.horizon, cfg.base_steps)
    rows = []
    for factor in cfg.refinement_factors:
        mkt = _batch_market(cfg.params, base_grid, factor, cfg.n_paths, cfg.seed, "physical")
        a, b = _delta_hedge(mkt, cfg.hedge, cfg.params.sigma)
        n_steps = mkt.times.size - 1

        max_enforced = _max_abs_defect(a, b, mkt)
        status = "pass" if max_enforced <= tol else "fail"
        rows.append(ResultRow(f"N={n_steps} enforced", max_enforced, 0.0, status))

        frozen_b = np.broadcast_to(b[:, :1], b.shape)
        max_frozen = _max_abs_defect(a, frozen_b, mkt)
        rebalances = bool(np.any(np.diff(a, axis=-1) != 0.0))
        if not rebalances:
            status = "pass"  # nothing to break: control is vacuous
        elif max_frozen > control_bar:
            status = "expected-fail"
        else:
            status = "fail"
        rows.append(ResultRow(f"N={n_steps} frozen_bond", max_frozen, 0.0, status))
    rows = tuple(rows)
    return ExperimentResult("defect_refinement", rows, _verdict(rows))


def martingale_test(cfg: ExperimentConfig, strategies: list[StrategySpec]) -> ExperimentResult:
    """Equal rate of return under the risk-neutral measure.

    Estimates E[Y_T / beta_T] per strategy over risk-neutral paths. A
    self-financing strategy must land within stderr_mult standard errors of
    its initial value Y_0; a control must land outside that band.
    """
    if not strategies:
        raise ValueError("martingale test needs at least one strategy")
    if cfg.n_paths < 2:
        raise ValueError("martingale test needs n_paths >= 2 for a standard error")
    mult = cfg.tolerances["stderr_mult"]
    atol = cfg.tolerances["value_atol"]
    grid = uniform_grid(cfg.horizon, cfg.base_steps)
    mkt = _batch_market(cfg.params, grid, 1, cfg.n_paths, cfg.seed, "risk_neutral")
    n_paths = mkt.stock.shape[0]
    rows = []
    for spec in strategies:
        a, b = spec.build(mkt)
        a2 = np.broadcast_to(a, mkt.stock.shape)
        b2 = np.broadcast_to(b, mkt.stock.shape)
        y0 = float(a2[0, 0] * mkt.stock[0, 0] + b2[0, 0] * mkt.bond[0])
        discounted = (a2[:, -1] * mkt.stock[:, -1] + b2[:, -1] * mkt.bond[-1]) / mkt.bond[-1]
        estimate = float(np.mean(discounted))
        stderr = float(np.std(discounted, ddof=1) / math.sqrt(n_paths))
        inside = abs(estimate - y0) <= mult * stderr + atol
        if spec.control:
            status = "fail" if inside else "expected-fail"
        else:
            status = "pass" if inside else "fail"
        rows.append(ResultRow(f"{spec.name} Y0={format(y0, '.17g')}", estimate, stderr, status))
    rows = tuple(rows)
    return ExperimentResult("martingale", rows, _verdict(rows))


def hedging_convergence(cfg: ExperimentConfig) -> ExperimentResult:
    """RMS terminal hedging error vs rebalance count, with fitted slope.

    Rebalance counts are base_steps * refinement_factors with Brownian
    motion shared across levels. The verdict checks the fitted log-log
    slope against [slope_min, slope_max]; exact replication at every level
    (deterministic markets) passes with a degenerate slope row.
    """
    if cfg.hedge is None:
        raise ValueError("hedging convergence requires a hedge target")
    if len(cfg.refinement_factors) < 3:
        raise ValueError("need at least 3 refinement levels to fit a slope")
    atol = cfg.tolerances["value_atol"]
    base_grid = uniform_grid(cfg.horizon, cfg.base_steps)
    rows = []
    counts = []
    rms_values = []
    for factor in cfg.refinement_factors:
        mkt = _batch_market(cfg.params, base_grid, factor, cfg.n_paths, cfg.seed, "physical")
        a, b = _delta_hedge(mkt, cfg.hedge, cfg.params.sigma)
        terminal = a[:, -1] * mkt.stock[:, -1] + b[:, -1] * mkt.bond[-1]
        payoff = np.maximum(mkt.stock[:, -1] - cfg.hedge.strike, 0.0)
        err_sq = (terminal - payoff) ** 2
        rms = math.sqrt(float(np.mean(err_sq)))
        if rms > 0.0 and cfg.n_paths > 1:
            stderr = float(np.std(err_sq, ddof=1)) / (2.0 * rms * math.sqrt(cfg.n_paths))
        else:
            stderr = 0.0
        n_steps = mkt.times.size - 1
        counts.append(n_steps)
        rms_values.append(rms)
        rows.append(ResultRow(f"N={n_steps}", rms, stderr, "pass"))

    if max(rms_values) <= atol:
        rows.append(ResultRow("slope (exact replication)", 0.0, 0.0, "pass"))
    else:
        slope = _loglog_slope(counts, rms_values)
        ok = cfg.tolerances["slope_min"] <= slope <= cfg.tolerances["slope_max"]
        rows.append(ResultRow("slope", slope, 0.0, "pass" if ok else "fail"))
    rows = tuple(rows)
    return ExperimentResult("hedging_convergence", rows, _verdict(rows))


def _loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) on log(x), closed form (no BLAS)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mx = math.fsum(lx) / n
    my = math.fsum(ly) / n
    sxx = math.fsum((x - mx) ** 2 for x in lx)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(lx, ly))
    return sxy / sxx


def write_result_csv(result: ExperimentResult, dest) -> None:
    """CSV export: one row per result row, 17 significant digits."""
    with open(dest, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "param", "statistic", "stderr", "verdict"])
        for row in result.rows:
            writer.writerow(
                [
                    result.name,
                    row.param,
                    format(row.statistic, ".17g"),
                    format(row.stderr, ".17g"),
                    row.status,
                ]
            )
