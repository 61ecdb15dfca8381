"""Batch experiments: defect refinement studies, the risk-neutral
equal-rate-of-return (martingale) test, and hedging-error convergence.

Paths are independent work units indexed by path number; every statistic
is reduced in path-index order with deterministic numpy kernels, so a
given ExperimentConfig always reproduces the same result rows bit for bit
whatever the block size or the order the blocks run in. Each study
simulates its paths in fixed blocks of consecutive path indices, one batch
MarketPath a block (generate_brownian(grid, seed, range(...)), refine,
gbm_path: the rows are bit for bit the single-path API's markets), and
keeps only per-path scalars between blocks. It reduces those once, over
all n_paths, so no output depends on the block size, and memory is one
block plus the per-path scalars whatever n_paths is.

One block loop, _per_path, runs the blocks of a study level. It allocates the
level's block buffers once and reuses them for every block: the market is
drawn and built in them without a copy, and the study's holdings and
ledger series are written into its work arrays through the kernels' out=
arguments (delta_hedge_holdings, constant_mix_holdings, defect_series),
the same kernels the single-path API runs on one path. A block's market
and work arrays are valid only during that block: the next block rewrites
them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .ledger import defect_series
from .paths import (
    GbmParams,
    MarketPath,
    TimeGrid,
    _integer,
    _seed,
    gbm_path,
    generate_brownian,
    refine,
    uniform_grid,
)
from .strategies import EuropeanCall, constant_mix_holdings, delta_hedge_holdings, inject_cash

# Unused here, but the traced benchmark run (perfbench/tracing.py) wraps
# these names as attributes of this module and fails if one is missing.
from .accum import comp_cumsum  # noqa: F401
from .strategies import bs_delta  # noqa: F401

DEFAULT_TOLERANCES = {
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

# Float64 elements per (paths, n_points) array of a study block: a block
# holds max(1, BUDGET // n_points) consecutive paths. No output depends on
# it; it bounds the studies' memory whatever n_paths is.
BUDGET = 2**18


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run. The fields are exactly the keys of the config
    document (cli.parse_config), with `params` holding s0, mu, sigma and r,
    so a manifest records everything that determines the outputs. The hedge
    target is derived: an at-`strike` call expiring at the horizon.
    """

    params: GbmParams = GbmParams(s0=100.0, mu=0.05, sigma=0.2, r=0.05)
    horizon: float = 1.0
    base_steps: int = 64
    refinement_factors: tuple[int, ...] = (1, 4, 16)
    n_paths: int = 10_000
    seed: int = 42
    strike: float = 100.0

    def __post_init__(self):
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be > 0")
        for name in ("base_steps", "n_paths"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "seed", _seed(self.seed))
        if self.base_steps < 1:
            raise ValueError("base_steps must be >= 1")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.n_paths > 2**32:
            raise ValueError("n_paths must be <= 2**32 (path indices must be below 2**32)")
        factors = tuple(_integer("refinement_factors", f) for f in self.refinement_factors)
        if not factors or any(f < 1 for f in factors):
            raise ValueError("refinement_factors must be >= 1")
        if any(b <= a for a, b in zip(factors, factors[1:])):
            raise ValueError("refinement_factors must be strictly increasing")
        object.__setattr__(self, "refinement_factors", factors)
        self.hedge  # EuropeanCall validates the strike; the horizon is checked above

    @property
    def hedge(self) -> EuropeanCall:
        return EuropeanCall(self.strike, self.horizon)


@dataclass(frozen=True)
class ResultRow:
    """One study statistic; one past float64 range (inf, or nan) is refused."""

    param: str
    statistic: float
    stderr: float
    status: str  # "pass" | "fail" | "expected-fail"

    def __post_init__(self):
        if not (math.isfinite(self.statistic) and math.isfinite(self.stderr)):
            raise ValueError(f"result row {self.param!r} is not finite: {self.statistic!r} +- {self.stderr!r}")


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    rows: tuple[ResultRow, ...]
    verdict: str  # "pass" | "fail"


def _verdict(rows) -> str:
    return "pass" if all(row.status != "fail" for row in rows) else "fail"


# ---------------------------------------------------------------------------
# Block markets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategySpec:
    """A named holdings builder for the martingale test.

    `build(mkt, out=None)` maps a batch MarketPath to (a, b) holdings
    arrays, each either (n_points,) shared across paths or (paths,
    n_points), for the paths of the market it is given: one block of a
    study. `out`, when given, is a pair of (paths, n_points) float64 work
    arrays that the build may fill with its holdings and return, instead of
    allocating them. The market and `out` are valid only during the call:
    the next block rewrites them. Controls are expected to violate the
    martingale band and are reported as expected-fail when they do.
    """

    name: str
    build: Callable[..., tuple[np.ndarray, np.ndarray]]
    control: bool = False


def _market(cfg: ExperimentConfig, grid: TimeGrid, factor: int, block: range, measure: str, out=None) -> MarketPath:
    """The batch market of the path indices in `block`, on `grid` refined by
    `factor`. Path i is keyed (cfg.seed, i); refinement keys extend it, so
    every level of a refinement study shares Brownian motion with the base
    resolution at the shared instants.

    `out`, if given, is the pair of block buffers the chain runs in: the
    base draw and the stock. The level's increments are drawn (or bridged)
    into the stock's entries 1.., where gbm_path accumulates them in place.
    """
    base, stock = (None, None) if out is None else out
    level = None if stock is None else stock[:, 1:]
    if factor == 1:
        w = generate_brownian(grid, cfg.seed, block, out=level)
    else:
        grid, w = refine(grid, generate_brownian(grid, cfg.seed, block, out=base), factor, out=level)
    return gbm_path(cfg.params, w, measure, out=stock)


def _per_path(cfg: ExperimentConfig, factor: int, measure: str, fn, n_values: int, n_work: int = 0):
    """Run fn on every block of one study level and gather its per-path values.

    The level's grid is the base grid refined by `factor`, n_points points.
    A block holds rows = min(max(1, BUDGET // n_points), n_paths)
    consecutive path indices (fewer in the last). It allocates the
    level's buffers once, rows paths each: the base draw, the stock (which
    also holds the level's draw, see _market) and `n_work`
    (rows, n_points) float64 work arrays. Every block reuses them, so no
    block allocates, or faults in, block-sized memory again.

    fn(mkt, work, out) gets the block's market, built on the buffers
    without a copy, the row slices of the work arrays, and the block's
    columns of the (n_values, n_paths) result to write its per-path values
    into. The market and the work arrays are valid only during the call:
    the next block rewrites them. fn returns (flag, head), a bool and any
    block-level value.

    Returns the (n_values, n_paths) values, the flags OR-ed over blocks and
    the head of the first block, the one holding path 0.
    """
    grid = uniform_grid(cfg.horizon, cfg.base_steps)
    n_steps = cfg.base_steps * factor
    rows = min(max(1, BUDGET // (n_steps + 1)), cfg.n_paths)
    base = np.empty((rows, cfg.base_steps)) if factor > 1 else None
    stock = np.empty((rows, n_steps + 1))
    work = [np.empty((rows, n_steps + 1)) for _ in range(n_work)]
    values = np.empty((n_values, cfg.n_paths))
    flag, head = False, None
    for start in range(0, cfg.n_paths, rows):
        block = range(start, min(start + rows, cfg.n_paths))
        k = len(block)
        mkt = _market(cfg, grid, factor, block, measure, (None if base is None else base[:k], stock[:k]))
        moved, block_head = fn(mkt, [buf[:k] for buf in work], values[:, block.start : block.stop])
        flag |= moved
        if start == 0:
            head = block_head
    return values, flag, head


def _max_abs_defect(a: np.ndarray, b: np.ndarray, mkt: MarketPath, series, out: np.ndarray) -> None:
    """max |D| of each path into `out`; `series` holds the three work
    arrays of defect_series."""
    defect = defect_series(a, b, mkt.stock, mkt.bond, out=series)[2]
    np.max(np.abs(defect, out=defect), axis=-1, out=out)


# The block functions below are the studies' fn for _per_path.


def _block_defects(cfg: ExperimentConfig, mkt: MarketPath, work, out):
    """Each path's max |D| for the enforced delta hedge and for its
    frozen-bond control, and whether any path of the block rebalances.
    """
    a, b, *series = work
    delta_hedge_holdings(cfg.hedge, mkt, cfg.params.sigma, out=(a, b))
    _max_abs_defect(a, b, mkt, series, out[0])
    _max_abs_defect(a, np.broadcast_to(b[:, :1], b.shape), mkt, series, out[1])
    return bool(np.any(a[:, 1:] != a[:, :-1])), None


def _block_hedge_errors(cfg: ExperimentConfig, mkt: MarketPath, work, out):
    """Each path's squared terminal error of the delta hedge against the payoff."""
    a, b = delta_hedge_holdings(cfg.hedge, mkt, cfg.params.sigma, out=work)
    terminal = a[:, -1] * mkt.stock[:, -1] + b[:, -1] * mkt.bond[-1]
    payoff = np.maximum(mkt.stock[:, -1] - cfg.strike, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan is refused by its ResultRow
        np.square(terminal - payoff, out=out[0])
    return False, None


def _discounted_terminal(spec: StrategySpec, mkt: MarketPath, work, out: np.ndarray) -> float:
    """Y_T / beta_T of each path into `out`, and Y_0 of the market's first
    path. The build gets the pair `work` for its holdings; one it allocates
    itself dies on return, before the next strategy's is built.
    """
    a, b = spec.build(mkt, out=work)
    a2 = np.broadcast_to(a, mkt.stock.shape)
    b2 = np.broadcast_to(b, mkt.stock.shape)
    np.divide(a2[:, -1] * mkt.stock[:, -1] + b2[:, -1] * mkt.bond[-1], mkt.bond[-1], out=out)
    return float(a2[0, 0] * mkt.stock[0, 0] + b2[0, 0] * mkt.bond[0])


def _block_discounted(strategies: list[StrategySpec], mkt: MarketPath, work, out):
    """Each path's Y_T / beta_T for each strategy, and the strategies' Y_0."""
    return False, [_discounted_terminal(spec, mkt, work, row) for spec, row in zip(strategies, out)]


# ---------------------------------------------------------------------------
# Strategy specs for the martingale test
# ---------------------------------------------------------------------------


def buy_and_hold_spec(a0: float, b0: float) -> StrategySpec:
    def build(mkt: MarketPath, out=None):
        n = mkt.grid.n_points
        return np.full(n, float(a0)), np.full(n, float(b0))

    return StrategySpec(f"buy_and_hold(a0={a0:g},b0={b0:g})", build)


def constant_mix_spec(stock_weight: float, initial_wealth: float) -> StrategySpec:
    def build(mkt: MarketPath, out=None):
        return constant_mix_holdings(mkt.stock, mkt.bond, stock_weight, initial_wealth, out=out)

    return StrategySpec(f"constant_mix(w={stock_weight:g})", build)


def delta_hedge_spec(option: EuropeanCall, vol: float) -> StrategySpec:
    def build(mkt: MarketPath, out=None):
        return delta_hedge_holdings(option, mkt, vol, out=out)

    return StrategySpec(f"delta_hedge(K={option.strike:g})", build)


def cash_injection_spec(
    amount: float, at_index: int | None = None, a0: float = 1.0, b0: float = 0.0
) -> StrategySpec:
    """Buy-and-hold plus external money appearing at one rebalance (control)."""

    def build(mkt: MarketPath, out=None):
        n = mkt.grid.n_points
        j = n // 2 if at_index is None else at_index
        return np.full(n, float(a0)), inject_cash(np.full(n, float(b0)), mkt.bond, amount, j)

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
    tol = DEFAULT_TOLERANCES["defect"]
    control_bar = DEFAULT_TOLERANCES["control_factor"] * tol
    fn = partial(_block_defects, cfg)
    rows = []
    for factor in cfg.refinement_factors:
        n_steps = cfg.base_steps * factor
        (enforced, frozen), rebalances, _ = _per_path(cfg, factor, "physical", fn, 2, n_work=5)
        max_enforced = float(np.max(enforced))
        max_frozen = float(np.max(frozen))
        del enforced, frozen  # freed before the next level's buffers are allocated

        status = "pass" if max_enforced <= tol else "fail"
        rows.append(ResultRow(f"N={n_steps} enforced", max_enforced, 0.0, status))

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
    mult = DEFAULT_TOLERANCES["stderr_mult"]
    atol = DEFAULT_TOLERANCES["value_atol"]
    fn = partial(_block_discounted, strategies)
    discounted, _, y0s = _per_path(cfg, 1, "risk_neutral", fn, len(strategies), n_work=2)  # Y_0 is path 0's
    rows = []
    for spec, y0, values in zip(strategies, y0s, discounted):
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan is refused by its ResultRow
            estimate = float(np.mean(values))
            stderr = float(np.std(values, ddof=1) / math.sqrt(cfg.n_paths))
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
    if len(cfg.refinement_factors) < 3:
        raise ValueError("need at least 3 refinement levels to fit a slope")
    atol = DEFAULT_TOLERANCES["value_atol"]
    fn = partial(_block_hedge_errors, cfg)
    rows = []
    counts = []
    rms_values = []
    for factor in cfg.refinement_factors:
        n_steps = cfg.base_steps * factor
        (err_sq,), _, _ = _per_path(cfg, factor, "physical", fn, 1, n_work=2)
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan is refused by its ResultRow
            rms = math.sqrt(float(np.mean(err_sq)))
            if rms > 0.0 and cfg.n_paths > 1:
                stderr = float(np.std(err_sq, ddof=1)) / (2.0 * rms * math.sqrt(cfg.n_paths))
            else:
                stderr = 0.0
        del err_sq  # freed before the next level's buffers are allocated
        counts.append(n_steps)
        rms_values.append(rms)
        rows.append(ResultRow(f"N={n_steps}", rms, stderr, "pass"))

    if max(rms_values) <= atol:
        rows.append(ResultRow("slope (exact replication)", 0.0, 0.0, "pass"))
    else:
        slope = _loglog_slope(counts, rms_values)
        ok = DEFAULT_TOLERANCES["slope_min"] <= slope <= DEFAULT_TOLERANCES["slope_max"]
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
