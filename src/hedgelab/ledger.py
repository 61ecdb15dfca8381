"""Exact discrete-time portfolio accounting.

The central identity: for any holdings (a, b) on any market path,

    Y_{k+1} - Y_k = a_k dS_k + b_k dbeta_k
                  + S_k da_k + da_k dS_k + beta_k db_k + db_k dbeta_k

with dX_k = X_{k+1} - X_k. The first two terms are the gain from holding
positions; the remaining four are the per-step self-financing defect and
equal da_k * S_{k+1} + db_k * beta_{k+1}: a rebalance settles at the new
prices, so value appears (or vanishes) exactly when a rebalance is not
funded by an offsetting transfer. A strategy is self-financing iff these
four terms cancel at every step, which `strategies.complete_bond` achieves
by construction for `enforce_self_financing` and the delta hedge.

Each quantity has one source: `self_financing_defect` gives the value Y,
the gain G and the cumulative defect D = Y - Y_0 - G, and
`ito_expansion_terms` gives the four rebalancing terms, cumulated.

Timing convention: holdings entry k applies over [t_k, t_{k+1}); the
rebalance da_k = a_{k+1} - a_k executes at t_{k+1}, so its defect lands in
the cumulative series at index k+1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .accum import _out, comp_cumsum
from .calculus import SampledSeries
from .paths import MarketPath, TimeGrid, _freeze, _Owned
from .strategies import HoldingsSchedule, complete_bond

LEDGER_CSV_COLUMNS = (
    "index", "t", "S", "beta", "a", "b", "Y", "G", "D",
    "term_Sda", "term_dadS", "term_bdb", "term_dbdbeta",
)


@dataclass(frozen=True, eq=False)
class LedgerReport:
    """Value Y, gain G and cumulative defect D of one path, one entry per grid point."""

    grid: TimeGrid
    value: np.ndarray
    gain: np.ndarray
    defect: np.ndarray

    def __post_init__(self):
        _freeze(self, ("value", "gain", "defect"), self.grid.n_points, rule=None)


# Kernels: holdings and stock are one path (n_points,) or a batch
# (..., n_points); the bond series is shared. Every path of a batch gets the
# same IEEE operations as a 1-D call.


def defect_series(a, b, stock, bond, out=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value Y = a S + b beta, gain G and cumulative defect D = Y - Y_0 - G,
    in three new arrays or in the three of `out` (see accum._out).

    G_0 = 0, G_{k+1} = G_k + a_k * dS_k + b_k * dbeta_k, along the last axis.
    """
    shape = np.broadcast(a, b, stock).shape
    value, gain, defect = (None, None, None) if out is None else out
    value = _out(value, shape, a, b, stock, bond)
    defect = _out(defect, shape, a, b, stock, bond, value)
    if gain is not None:  # comp_cumsum allocates it otherwise
        _out(gain, shape, a, b, stock, bond, value, defect)
    # The gain's step terms a dS + b dbeta are built in the defect's entries
    # (the b dbeta half in the value's), each product with its operands
    # swapped (IEEE * commutes), so no path-sized temporary is allocated.
    steps = np.subtract(stock[..., 1:], stock[..., :-1], out=defect[..., :-1])  # dS
    steps *= a[..., :-1]
    steps += np.multiply(b[..., :-1], bond[1:] - bond[:-1], out=value[..., :-1])
    gain = comp_cumsum(steps, out=gain)
    np.multiply(a, stock, out=value)
    value += np.multiply(b, bond, out=defect)
    np.subtract(value, value[..., :1], out=defect)
    defect -= gain
    return value, gain, defect


def _step_terms(h: HoldingsSchedule, m: MarketPath, out: np.ndarray) -> np.ndarray:
    """The four rebalancing terms of each grid interval, written into the
    rows of `out`, shape (4, n_points - 1), and returned: S_k da_k,
    da_k dS_k, beta_k db_k and db_k dbeta_k."""
    s_da, da_ds, beta_db, db_dbeta = out
    # da and db are built in the rows that end as da dS and db dbeta.
    da = np.subtract(h.a[1:], h.a[:-1], out=da_ds)
    np.multiply(m.stock[:-1], da, out=s_da)
    da *= m.stock[1:] - m.stock[:-1]
    db = np.subtract(h.b[1:], h.b[:-1], out=db_dbeta)
    np.multiply(m.bond[:-1], db, out=beta_db)
    db *= m.bond[1:] - m.bond[:-1]
    return out


def self_financing_defect(h: HoldingsSchedule, m: MarketPath) -> LedgerReport:
    """Full ledger: Y_k = a_k S_k + b_k beta_k, G_k and D_k = Y_k - Y_0 - G_k.

    D is identically zero iff the strategy is self-financing; otherwise it
    measures the external value created or destroyed up to t_k, and equals
    the sum of the four `ito_expansion_terms` (exact discrete product rule).
    """
    h.grid.require_same(m.grid)
    return LedgerReport(h.grid, *map(_Owned, defect_series(h.a, h.b, m.stock, m.bond)))


def ito_expansion_terms(
    h: HoldingsSchedule, m: MarketPath
) -> tuple[SampledSeries, SampledSeries, SampledSeries, SampledSeries]:
    """Cumulative series of the four extra expansion terms, in the order
    S da, da dS, beta db, db dbeta.

    Their pointwise sum equals the defect series of `self_financing_defect`;
    for a self-financing strategy the four series cancel at every index
    without being individually zero.
    """
    h.grid.require_same(m.grid)
    terms = _step_terms(h, m, np.empty((4, h.grid.n_points - 1)))
    return tuple([SampledSeries(h.grid, _Owned(row)) for row in comp_cumsum(terms)])


def enforce_self_financing(a: SampledSeries, m: MarketPath, y0: float) -> HoldingsSchedule:
    """Complete a stock schedule with the unique self-financing bond account
    (see `complete_bond`). The resulting defect is zero up to
    compensated-summation rounding.
    """
    a.grid.require_same(m.grid)
    return HoldingsSchedule(m.grid, a.values, _Owned(complete_bond(a.values, m.stock, m.bond, y0)))


def write_ledger_csv(h: HoldingsSchedule, m: MarketPath, dest) -> Path:
    """Write the full ledger, one row per grid point, 17 significant digits.

    The term columns at row k hold the per-step quadruple of the rebalance
    executed at t_k (row 0 is zero), so the D column is the running sum of
    the term columns.
    """
    report = self_financing_defect(h, m)
    steps = np.zeros((4, h.grid.n_points))
    _step_terms(h, m, steps[:, 1:])
    columns = (m.grid.times, m.stock, m.bond, h.a, h.b, report.value, report.gain, report.defect, *steps)
    dest = Path(dest)
    with open(dest, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LEDGER_CSV_COLUMNS)
        for k, row in enumerate(zip(*columns)):
            writer.writerow([k] + [format(float(x), ".17g") for x in row])
    return dest
