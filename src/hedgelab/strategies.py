"""Predictable holdings schedules: buy-and-hold, constant-mix, delta hedging,
and deliberately broken (non-self-financing) variants for negative controls.

Holdings entry k is the position held over the interval starting at t_k,
i.e. the position immediately after the rebalance at t_k. Every built-in
strategy decides entry k from path values at indices <= k only (no use of
the future). Holdings at the final grid point govern no interval; they are
set equal to the penultimate entry so all series share the grid length.

`complete_bond` turns the self-financing rule into holdings: it completes
any stock holdings with the unique bond account whose every rebalance is
funded by the other account. `delta_hedge_holdings` builds every delta
hedge, of one path or a block, from the delta and `complete_bond`, and
ledger's `enforce_self_financing` completes a given stock schedule with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .accum import _out, comp_cumsum
from .paths import MarketPath, TimeGrid, _extremes, _freeze, _integer, _Owned

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class HoldingsSchedule:
    """Stock holding a_k (shares) and bond holding b_k (units) per grid point."""

    grid: TimeGrid
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        _freeze(self, ("a", "b"), self.grid.n_points)


@dataclass(frozen=True)
class EuropeanCall:
    strike: float
    expiry: float

    def __post_init__(self):
        if not (self.strike > 0.0 and math.isfinite(self.strike)):
            raise ValueError("strike must be > 0")
        if not (self.expiry > 0.0 and math.isfinite(self.expiry)):
            raise ValueError("expiry must be > 0")


def buy_and_hold(grid: TimeGrid, a0: float, b0: float) -> HoldingsSchedule:
    """Constant holdings; trivially self-financing (no rebalances)."""
    n = grid.n_points
    return HoldingsSchedule(grid, _Owned(np.full(n, float(a0))), _Owned(np.full(n, float(b0))))


# Kernels: stock and holdings are one path (n_points,) or a batch
# (..., n_points); bond and times are shared. Every path of a batch gets the
# same IEEE operations as a 1-D call. delta_stock_holdings calls bs_delta
# over whole rows, complete_bond runs over the flat rows of a contiguous
# block, and constant_mix_holdings runs each step over one column of every
# path, through two reused step buffers.


def constant_mix_holdings(stock, bond, w: float, wealth0: float, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Holdings (a, b) that rebalance to stock fraction w of the wealth at
    every grid point, starting from wealth0, in two new arrays or in the
    pair `out` (see accum._out)."""
    w = float(w)
    a_out, b_out = (None, None) if out is None else out
    a = _out(a_out, stock.shape, stock, bond)
    b = _out(b_out, stock.shape, stock, bond, a)
    wealth0 = float(wealth0)
    a[..., 0] = w * wealth0 / stock[..., 0]
    b[..., 0] = (1.0 - w) * wealth0 / bond[0]
    # Each step's wealth = a_{k-1} S_k + b_{k-1} beta_k, then a_k = w *
    # wealth / S_k and b_k = (1 - w) * wealth / beta_k, one operation at a
    # time through two step buffers straight into column k.
    wealth, scaled = np.empty(stock.shape[:-1]), np.empty(stock.shape[:-1])
    for k in range(1, stock.shape[-1] - 1):
        np.multiply(a[..., k - 1], stock[..., k], out=wealth)
        np.multiply(b[..., k - 1], bond[k], out=scaled)
        wealth += scaled
        np.multiply(w, wealth, out=scaled)
        np.divide(scaled, stock[..., k], out=a[..., k])
        np.multiply(1.0 - w, wealth, out=scaled)
        np.divide(scaled, bond[k], out=b[..., k])
    a[..., -1] = a[..., -2]
    b[..., -1] = b[..., -2]
    return a, b


def inject_cash(b, bond, amount: float, at_index: int) -> np.ndarray:
    """Bond holdings b plus `amount` of external money (amount / beta_j bond
    units) held from grid index j = at_index on."""
    j = _integer("at_index", at_index)
    if not 0 <= j < b.shape[-1]:
        raise ValueError("injection index out of range")
    b = np.array(b, dtype=float)
    b[..., j:] += float(amount) / bond[j]
    return b


def constant_mix(path: MarketPath, stock_weight: float, initial_wealth: float) -> HoldingsSchedule:
    """Rebalance at every grid point to a fixed stock fraction of wealth.

    Each rebalance conserves the pre-rebalance wealth (value only moves
    between the stock and bond accounts), so the schedule is self-financing
    up to floating-point rounding.
    """
    a, b = constant_mix_holdings(path.stock, path.bond, stock_weight, initial_wealth)
    return HoldingsSchedule(path.grid, _Owned(a), _Owned(b))


def _check_bs_args(s, strike: float, vol: float, rate: float, tau) -> None:
    """The argument rules of `bs_price` and `bs_delta`; s and tau may be arrays.

    An array obeys a bound when its least or greatest value does. NaN fails
    every comparison, so it is refused with the rule it breaks.
    """
    s_least, _ = _extremes(s)
    tau_least, tau_greatest = _extremes(tau)
    if not s_least > 0.0:
        raise ValueError("spot must be > 0")
    if not strike > 0.0:
        raise ValueError("strike must be > 0")
    if not vol >= 0.0:
        raise ValueError("vol must be >= 0")
    if not tau_least >= 0.0:
        raise ValueError("tau must be >= 0")
    if not math.isfinite(rate):
        raise ValueError("rate must be finite")
    if math.isinf(vol) or tau_greatest == math.inf:
        raise ValueError("Black-Scholes value undefined for infinite vol or tau")


def bs_price(s: float, strike: float, vol: float, rate: float, tau: float) -> float:
    """Black-Scholes value of a European call.

    At tau = 0 this is the payoff max(s - strike, 0); at vol = 0 it is the
    deterministic forward value max(s - strike * exp(-rate * tau), 0). Where
    vol^2 * tau overflows it is the vol -> infinity limit, the spot s; where
    vol * sqrt(tau) underflows, to 0 or so far that d1 overflows, it is the
    vol -> 0 limit, the vol = 0 value. Where s / strike underflows to 0, d1
    takes the log of the moneyness as log(s) - log(strike), so a call that
    far out of the money is worth 0 unless the variance is large enough to
    outweigh that log.
    """
    _check_bs_args(s, strike, vol, rate, tau)
    try:
        discount = math.exp(-rate * tau)
    except OverflowError:
        raise ValueError(f"discount factor exp(-rate * tau) overflows at rate={rate!r}, tau={tau!r}") from None
    if vol == 0.0 or tau == 0.0:
        return max(s - strike * discount, 0.0)
    srt = vol * math.sqrt(tau)
    moneyness = s / strike
    # Where s is so far below the strike that s / strike underflows to 0,
    # its log is still finite: log(s) - log(strike).
    log_moneyness = math.log(moneyness) if moneyness > 0.0 else math.log(s) - math.log(strike)
    numerator = log_moneyness + (rate + 0.5 * vol * vol) * tau
    if not math.isfinite(numerator):
        # vol * vol * tau overflowed, where d1 - srt would keep d2 at +inf:
        # the total variance is past float range, so d1 -> inf and
        # d2 -> -inf, and the call is worth its vol -> infinity limit, the spot.
        return s
    d1 = numerator / srt if srt > 0.0 else math.inf
    if not math.isfinite(d1):
        # srt underflowed, to 0 or so far that d1 overflows: d1 and d2 go to
        # +-inf with the sign of the numerator, which is the sign of
        # log(s / (strike * discount)), so the call is worth its vol -> 0
        # limit, the forward value.
        return max(s - strike * discount, 0.0)
    d2 = d1 - srt
    return s * _norm_cdf(d1) - strike * discount * _norm_cdf(d2)


def bs_delta(s, strike: float, vol: float, rate: float, tau, out=None):
    """Call delta Phi(d1), elementwise over spot/expiry arrays, in a new
    array (a float for scalar arguments) or in `out` (see accum._out).

    Degenerate limits resolve by sign: when vol * sqrt(tau) = 0 the delta
    is the indicator of s > strike * exp(-rate * tau). Exactly on that kink
    with vol = 0 and tau > 0 (a sigma = 0 market started on the discounted
    strike) the delta is 1/2: on the kink d1 = vol * sqrt(tau) / 2, so
    Phi(d1) -> 1/2 as vol -> 0. At expiry (tau = 0) on the strike the
    option has expired on its payoff kink, the delta is undefined, and a
    ValueError is raised.
    """
    s_arr = np.asarray(s, dtype=float)
    tau_arr = np.asarray(tau, dtype=float)
    _check_bs_args(s_arr, strike, vol, rate, tau_arr)
    srt = vol * np.sqrt(tau_arr)
    d1 = _out(out, np.broadcast(s_arr, tau_arr).shape, s_arr, tau_arr)
    # (log(s / strike) + (rate + vol^2 / 2) * tau) / srt, one operation at a time in d1.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(s_arr, strike, out=d1)
        np.log(d1, out=d1)
        d1 += (rate + 0.5 * vol * vol) * tau_arr
        d1 /= srt
    # d1 is 0/0 on the kink, where srt = 0. Off the kink a NaN is inf - inf
    # (s / strike underflowing to 0 against vol * vol overflowing).
    if math.isnan(_extremes(d1)[0]):
        kink = np.isnan(d1)
        if (kink & (srt != 0.0)).any():
            raise ValueError("delta undefined: d1 is inf - inf")
        if (kink & (tau_arr == 0.0)).any():
            raise ValueError("delta undefined at expiry on the strike (tau = 0 and s = strike)")
        d1[kink] = 0.0  # the vol -> 0 limit of d1 = srt / 2
    ndtr(d1, out=d1)
    return float(d1) if out is None and d1.ndim == 0 else d1


def delta_stock_holdings(option: EuropeanCall, stock, times, rate: float, vol: float, out=None):
    """Delta stock holdings a, in a new array or in `out` (see accum._out),
    and the Black-Scholes price y0 of the call.

    a_k = bs_delta(S_k, strike, vol, rate, T - t_k) over each interval; the
    last interval uses the time-to-expiry at its start. y0 is priced at the
    first path's initial spot: every path of a batch starts at s0.

    bs_delta runs once over whole rows, the final point at the last
    interval's time-to-expiry, so each of its passes is one loop over
    contiguous memory rather than one per path. That entry is then
    overwritten by the last interval's, so the call never sees tau = 0;
    bs_delta's checks see S_T too, like every S_k.
    """
    if not math.isclose(option.expiry, float(times[-1]), rel_tol=1e-12, abs_tol=0.0):
        raise ValueError("option expiry must equal the grid horizon")
    a = _out(out, stock.shape, stock, times)
    tau = option.expiry - times
    tau[-1] = tau[-2]
    bs_delta(stock, option.strike, vol, rate, tau, out=a)
    a[..., -1] = a[..., -2]
    y0 = bs_price(stock.item(0), option.strike, vol, rate, option.expiry)
    return a, y0


def complete_bond(a, stock, bond, y0: float, out=None) -> np.ndarray:
    """The unique self-financing bond holdings for stock holdings `a`, in a
    new array or in `out` (see accum._out).

    b_0 = (y0 - a_0 * S_0) / beta_0, and every rebalance transfers value
    between the accounts at the new prices:
    b_{k+1} = b_k + (a_k - a_{k+1}) * S_{k+1} / beta_{k+1}.

    Where a, stock and the result are C-contiguous blocks of paths of one
    shape (a study block), the difference and the product by S run as one
    pass each over the flat rows instead of one per path; otherwise they run
    over the arrays themselves, so a 1-D path skips the ravels.
    """
    b = _out(out, np.broadcast(a, stock).shape, a, stock, bond)
    b0 = (float(y0) - a[..., 0] * stock[..., 0]) / bond[0]  # b overlaps neither a nor stock
    # The transfers are built in b's entries 1.. and accumulated in place.
    transfers = tail = b[..., 1:]
    ra, rs = a, stock
    if b.ndim > 1 and a.shape == stock.shape == b.shape and all(x.flags.c_contiguous for x in (a, stock, b)):
        # Flat entry p gets a_{p-1} - a_p, so each row's entry 0 gets the
        # difference across the row boundary; comp_cumsum's out_0 and b0
        # overwrite it.
        ra, rs, tail = a.ravel(), stock.ravel(), b.ravel()[1:]
    np.subtract(ra[..., :-1], ra[..., 1:], out=tail)
    tail *= rs[..., 1:]
    transfers /= bond[1:]
    comp_cumsum(transfers, out=b)
    b += b0[..., None]  # bitwise b0 + sum: IEEE + commutes
    b[..., 0] = b0  # 0.0 + b0 would turn a -0.0 start into +0.0
    return b


def delta_hedge_holdings(option: EuropeanCall, path: MarketPath, vol: float, out=None):
    """Delta-hedge holdings (a, b) of the call at volatility `vol` along the
    path, or every path of a batch market, in two new arrays or in the pair
    `out` (see accum._out): the delta stock holdings (see
    `delta_stock_holdings`) and the bond account completed so the schedule
    is self-financing and starts at the Black-Scholes price.
    """
    a_out, b_out = (None, None) if out is None else out
    a, y0 = delta_stock_holdings(option, path.stock, path.grid.times, path.rate, vol, out=a_out)
    return a, complete_bond(a, path.stock, path.bond, y0, out=b_out)


def delta_hedge(option: EuropeanCall, path: MarketPath, vol: float) -> HoldingsSchedule:
    """Delta-hedge the call along the path (see `delta_hedge_holdings`)."""
    return HoldingsSchedule(path.grid, *map(_Owned, delta_hedge_holdings(option, path, vol)))


def broken_strategy(
    base: HoldingsSchedule,
    mode: str,
    *,
    amount: float = 0.0,
    at_index: int = 0,
    path: MarketPath | None = None,
) -> HoldingsSchedule:
    """Negative controls that violate self-financing on purpose.

    mode="frozen_bond" keeps b pinned at b_0 while a rebalances unfunded;
    mode="cash_injection" adds `amount` of external money (amount / beta_k
    bond units) at grid index `at_index`, which requires `path` for the
    bond price.
    """
    if mode == "frozen_bond":
        return HoldingsSchedule(base.grid, _Owned(base.a), _Owned(np.full_like(base.b, base.b[0])))
    if mode == "cash_injection":
        if path is None:
            raise ValueError("cash_injection needs the market path for the bond price")
        base.grid.require_same(path.grid)
        return HoldingsSchedule(base.grid, _Owned(base.a), _Owned(inject_cash(base.b, path.bond, amount, at_index)))
    raise ValueError(f"unknown mode {mode!r}")


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)
