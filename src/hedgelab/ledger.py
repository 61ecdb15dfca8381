"""Exact discrete-time portfolio accounting.

The central identity: for any holdings (a, b) on any market path,

    Y_{k+1} - Y_k = a_k dS_k + b_k dbeta_k
                  + S_k da_k + da_k dS_k + beta_k db_k + db_k dbeta_k

with dX_k = X_{k+1} - X_k. The first two terms are the gain from holding
positions; the remaining four are the per-step self-financing defect and
equal da_k * S_{k+1} + db_k * beta_{k+1}: a rebalance settles at the new
prices, so value appears (or vanishes) exactly when a rebalance is not
funded by an offsetting transfer. A strategy is self-financing iff these
four terms cancel at every step, which `enforce_self_financing` achieves
by construction.

Timing convention: holdings entry k applies over [t_k, t_{k+1}); the
rebalance da_k = a_{k+1} - a_k executes at t_{k+1}, so its defect lands in
the cumulative series at index k+1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .accum import comp_cumsum
from .calculus import SampledSeries
from .paths import MarketPath, TimeGrid, _readonly
from .strategies import HoldingsSchedule

LEDGER_CSV_COLUMNS = (
    "index", "t", "S", "beta", "a", "b", "Y", "G", "D",
    "term_Sda", "term_dadS", "term_bdb", "term_dbdbeta",
)


class StepTerms(NamedTuple):
    """Per-step defect decomposition, one entry per grid interval."""

    s_da: np.ndarray
    da_ds: np.ndarray
    beta_db: np.ndarray
    db_dbeta: np.ndarray


@dataclass(frozen=True, eq=False)
class LedgerReport:
    """Value, gain, cumulative defect, and the per-step defect quadruple."""

    grid: TimeGrid
    value: np.ndarray
    gain: np.ndarray
    defect: np.ndarray
    step_terms: StepTerms

    def __post_init__(self):
        n = self.grid.n_points
        for name in ("value", "gain", "defect"):
            arr = _readonly(getattr(self, name))
            if arr.shape != (n,):
                raise ValueError(f"{name} series needs one value per grid point")
            object.__setattr__(self, name, arr)
        terms = StepTerms(*(_readonly(t) for t in self.step_terms))
        if any(t.shape != (n - 1,) for t in terms):
            raise ValueError("step terms need one entry per grid interval")
        object.__setattr__(self, "step_terms", terms)


# Kernels: holdings and stock are one path (n_points,) or a batch
# (..., n_points); the bond series is shared. Every path of a batch gets the
# same IEEE operations as a 1-D call.


def gain_series(a, b, stock, bond) -> np.ndarray:
    """G_0 = 0, G_{k+1} = G_k + a_k * dS_k + b_k * dbeta_k, along the last axis."""
    terms = a[..., :-1] * np.diff(stock, axis=-1) + b[..., :-1] * np.diff(bond)
    return comp_cumsum(terms, axis=-1)


def defect_series(a, b, stock, bond) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value Y = a S + b beta, gain G and cumulative defect D = Y - Y_0 - G."""
    value = a * stock + b * bond
    gain = gain_series(a, b, stock, bond)
    return value, gain, value - value[..., :1] - gain


def complete_bond(a, stock, bond, y0: float) -> np.ndarray:
    """The unique self-financing bond holdings for stock holdings `a`.

    b_0 = (y0 - a_0 * S_0) / beta_0, and every rebalance transfers value
    between the accounts at the new prices:
    b_{k+1} = b_k + (a_k - a_{k+1}) * S_{k+1} / beta_{k+1}.
    """
    transfers = (a[..., :-1] - a[..., 1:]) * stock[..., 1:] / bond[1:]
    b0 = (float(y0) - a[..., 0] * stock[..., 0]) / bond[0]
    b = comp_cumsum(transfers, axis=-1)
    b += b0[..., None]  # bitwise b0 + sum: IEEE + commutes
    b[..., 0] = b0  # 0.0 + b0 would turn a -0.0 start into +0.0
    return b


def portfolio_value(h: HoldingsSchedule, m: MarketPath) -> SampledSeries:
    """Y_k = a_k * S_k + b_k * beta_k."""
    h.grid.require_same(m.grid)
    return SampledSeries(h.grid, h.a * m.stock + h.b * m.bond)


def gain_process(h: HoldingsSchedule, m: MarketPath) -> SampledSeries:
    """Cumulative profit from holding positions, left-endpoint sampled.

    G_0 = 0, G_{k+1} = G_k + a_k * dS_k + b_k * dbeta_k.
    """
    h.grid.require_same(m.grid)
    return SampledSeries(h.grid, gain_series(h.a, h.b, m.stock, m.bond))


def _step_terms(h: HoldingsSchedule, m: MarketPath) -> StepTerms:
    da = np.diff(h.a)
    db = np.diff(h.b)
    return StepTerms(
        s_da=m.stock[:-1] * da,
        da_ds=da * np.diff(m.stock),
        beta_db=m.bond[:-1] * db,
        db_dbeta=db * np.diff(m.bond),
    )


def self_financing_defect(h: HoldingsSchedule, m: MarketPath) -> LedgerReport:
    """Full ledger: D_k = Y_k - Y_0 - G_k plus the per-step quadruple.

    D is identically zero iff the strategy is self-financing; otherwise it
    measures the external value created or destroyed up to t_k, and equals
    the running sum of the four step terms (exact discrete product rule).
    """
    h.grid.require_same(m.grid)
    value, gain, defect = defect_series(h.a, h.b, m.stock, m.bond)
    return LedgerReport(h.grid, value, gain, defect, _step_terms(h, m))


def ito_expansion_terms(
    h: HoldingsSchedule, m: MarketPath
) -> tuple[SampledSeries, SampledSeries, SampledSeries, SampledSeries]:
    """Cumulative series of the four extra expansion terms.

    Their pointwise sum equals the defect series of `self_financing_defect`;
    for a self-financing strategy the four series cancel at every index
    without being individually zero.
    """
    h.grid.require_same(m.grid)
    return tuple(SampledSeries(h.grid, comp_cumsum(terms)) for terms in _step_terms(h, m))


def enforce_self_financing(a: SampledSeries, m: MarketPath, y0: float) -> HoldingsSchedule:
    """Complete a stock schedule with the unique self-financing bond account
    (see `complete_bond`). The resulting defect is zero up to
    compensated-summation rounding.
    """
    a.grid.require_same(m.grid)
    return HoldingsSchedule(m.grid, a.values, complete_bond(a.values, m.stock, m.bond, y0))


def write_ledger_csv(h: HoldingsSchedule, m: MarketPath, dest) -> Path:
    """Write the full ledger, one row per grid point, 17 significant digits.

    The term columns at row k hold the per-step quadruple of the rebalance
    executed at t_k (row 0 is zero), so the D column is the running sum of
    the term columns.
    """
    report = self_financing_defect(h, m)
    dest = Path(dest)
    with open(dest, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LEDGER_CSV_COLUMNS)
        terms = report.step_terms
        for k in range(h.grid.n_points):
            step = (0.0, 0.0, 0.0, 0.0) if k == 0 else tuple(t[k - 1] for t in terms)
            row = (
                m.grid.times[k], m.stock[k], m.bond[k], h.a[k], h.b[k],
                report.value[k], report.gain[k], report.defect[k], *step,
            )
            writer.writerow([k] + [format(float(x), ".17g") for x in row])
    return dest
