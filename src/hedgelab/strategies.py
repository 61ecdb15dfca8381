"""Predictable holdings schedules: buy-and-hold, constant-mix, delta hedging,
and deliberately broken (non-self-financing) variants for negative controls.

Holdings entry k is the position held over the interval starting at t_k,
i.e. the position immediately after the rebalance at t_k. Every built-in
strategy decides entry k from path values at indices <= k only (no use of
the future). Holdings at the final grid point govern no interval; they are
set equal to the penultimate entry so all series share the grid length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .calculus import SampledSeries
from .paths import MarketPath, TimeGrid, _readonly

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class HoldingsSchedule:
    """Stock holding a_k (shares) and bond holding b_k (units) per grid point."""

    grid: TimeGrid
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _readonly(self.a)
        b = _readonly(self.b)
        n = self.grid.n_points
        if a.shape != (n,) or b.shape != (n,):
            raise ValueError("holdings need one entry per grid point")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("holdings must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


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
    return HoldingsSchedule(grid, np.full(n, float(a0)), np.full(n, float(b0)))


# Kernels: stock is one path (n_points,) or a batch (..., n_points); bond
# and times are shared. Every path of a batch gets the same IEEE operations
# as a 1-D call.


def constant_mix_holdings(stock, bond, w: float, wealth0: float) -> tuple[np.ndarray, np.ndarray]:
    """Holdings (a, b) that rebalance to stock fraction w of the wealth at
    every grid point, starting from wealth0."""
    w = float(w)
    a = np.empty(stock.shape)
    b = np.empty(stock.shape)
    wealth = float(wealth0)
    a[..., 0] = w * wealth / stock[..., 0]
    b[..., 0] = (1.0 - w) * wealth / bond[0]
    for k in range(1, stock.shape[-1] - 1):
        wealth = a[..., k - 1] * stock[..., k] + b[..., k - 1] * bond[k]
        a[..., k] = w * wealth / stock[..., k]
        b[..., k] = (1.0 - w) * wealth / bond[k]
    a[..., -1] = a[..., -2]
    b[..., -1] = b[..., -2]
    return a, b


def constant_mix(path: MarketPath, stock_weight: float, initial_wealth: float) -> HoldingsSchedule:
    """Rebalance at every grid point to a fixed stock fraction of wealth.

    Each rebalance conserves the pre-rebalance wealth (value only moves
    between the stock and bond accounts), so the schedule is self-financing
    up to floating-point rounding.
    """
    a, b = constant_mix_holdings(path.stock, path.bond, stock_weight, initial_wealth)
    return HoldingsSchedule(path.grid, a, b)


def bs_price(s: float, strike: float, vol: float, rate: float, tau: float) -> float:
    """Black-Scholes value of a European call.

    At tau = 0 this is the payoff max(s - strike, 0); at vol = 0 it is the
    deterministic forward value max(s - strike * exp(-rate * tau), 0).
    """
    if not s > 0.0:
        raise ValueError("spot must be > 0")
    if not strike > 0.0:
        raise ValueError("strike must be > 0")
    if vol < 0.0:
        raise ValueError("vol must be >= 0")
    if tau < 0.0:
        raise ValueError("tau must be >= 0")
    if vol == 0.0 or tau == 0.0:
        return max(s - strike * math.exp(-rate * tau), 0.0)
    srt = vol * math.sqrt(tau)
    d1 = (math.log(s / strike) + (rate + 0.5 * vol * vol) * tau) / srt
    d2 = d1 - srt
    return s * _norm_cdf(d1) - strike * math.exp(-rate * tau) * _norm_cdf(d2)


def bs_delta(s, strike: float, vol: float, rate: float, tau):
    """Call delta Phi(d1), elementwise over spot/expiry arrays.

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
    if not np.all(s_arr > 0.0):
        raise ValueError("spot must be > 0")
    if not strike > 0.0:
        raise ValueError("strike must be > 0")
    if vol < 0.0:
        raise ValueError("vol must be >= 0")
    if not np.all(tau_arr >= 0.0):
        raise ValueError("tau must be >= 0")
    if not math.isfinite(rate):
        raise ValueError("rate must be finite")
    srt = vol * np.sqrt(tau_arr)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (np.log(s_arr / strike) + (rate + 0.5 * vol * vol) * tau_arr) / srt
    # d1 is 0/0 on the kink, where srt = 0; inf/inf (infinite vol or tau)
    # is no kink.
    kink = np.isnan(d1)
    if np.any(kink):
        if np.any(kink & (srt != 0.0)):
            raise ValueError("delta undefined for infinite vol or tau")
        if np.any(kink & (tau_arr == 0.0)):
            raise ValueError("delta undefined at expiry on the strike (tau = 0 and s = strike)")
        d1 = np.where(kink, 0.0, d1)  # the vol -> 0 limit of d1 = srt / 2
    out = ndtr(d1)
    return float(out) if np.ndim(s) == 0 and np.ndim(tau) == 0 else out


def delta_stock_holdings(option: EuropeanCall, stock, times, rate: float, vol: float):
    """Delta stock holdings a and the Black-Scholes price y0 of the call.

    a_k = bs_delta(S_k, strike, vol, rate, T - t_k) over each interval; the
    last interval uses the time-to-expiry at its start. y0 is priced at the
    first path's initial spot: every path of a batch starts at s0.
    """
    if not math.isclose(option.expiry, float(times[-1]), rel_tol=1e-12, abs_tol=0.0):
        raise ValueError("option expiry must equal the grid horizon")
    head = bs_delta(stock[..., :-1], option.strike, vol, rate, option.expiry - times[:-1])
    a = np.concatenate([head, head[..., -1:]], axis=-1)
    y0 = bs_price(float(stock.flat[0]), option.strike, vol, rate, option.expiry)
    return a, y0


def delta_hedge(option: EuropeanCall, path: MarketPath, hedge_vol: float) -> HoldingsSchedule:
    """Delta-hedge the call along the path, bond account completed so the
    schedule is self-financing and starts at the Black-Scholes price
    (see `delta_stock_holdings`).
    """
    a, y0 = delta_stock_holdings(option, path.stock, path.grid.times, path.rate, hedge_vol)

    from .ledger import enforce_self_financing  # deferred: ledger imports this module

    return enforce_self_financing(SampledSeries(path.grid, a), path, y0)


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
        return HoldingsSchedule(base.grid, base.a, np.full_like(base.b, base.b[0]))
    if mode == "cash_injection":
        if path is None:
            raise ValueError("cash_injection needs the market path for the bond price")
        base.grid.require_same(path.grid)
        if not 0 <= int(at_index) < base.grid.n_points:
            raise ValueError("injection index out of range")
        b = base.b.copy()
        b[int(at_index):] += float(amount) / path.bond[int(at_index)]
        return HoldingsSchedule(base.grid, base.a, b)
    raise ValueError(f"unknown mode {mode!r}")


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)
