import math
import warnings

import numpy as np
import pytest

from hedgelab.ledger import self_financing_defect
from hedgelab.paths import GbmParams, gbm_path, generate_brownian, uniform_grid
from hedgelab.strategies import (
    EuropeanCall,
    broken_strategy,
    bs_delta,
    bs_price,
    buy_and_hold,
    constant_mix,
    constant_mix_holdings,
    delta_hedge,
    delta_stock_holdings,
)

from conftest import hand_market, make_market


def norm_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def test_buy_and_hold_constant_series():
    grid = uniform_grid(1.0, 8)
    h = buy_and_hold(grid, 1.0, 0.0)
    assert np.all(h.a == 1.0) and np.all(h.b == 0.0)
    h = buy_and_hold(grid, 0.0, 0.0)
    assert np.all(h.a == 0.0) and np.all(h.b == 0.0)
    h = buy_and_hold(grid, 2.0, -1.0)
    assert np.all(h.a == 2.0) and np.all(h.b == -1.0)


def test_bs_price_values():
    # at-the-money, one year, rate 0: 100 * (Phi(0.1) - Phi(-0.1)) = 100 * erf(0.1/sqrt(2))
    oracle = 100.0 * math.erf(0.1 / math.sqrt(2.0))
    assert bs_price(100.0, 100.0, 0.2, 0.0, 1.0) == pytest.approx(oracle, abs=1e-12)
    assert bs_price(100.0, 100.0, 0.2, 0.0, 1.0) == pytest.approx(7.9656, abs=5e-5)
    assert bs_price(120.0, 100.0, 0.2, 0.0, 0.0) == 20.0
    assert bs_price(90.0, 100.0, 0.0, 0.0, 1.0) == 0.0
    assert bs_price(110.0, 100.0, 0.0, 0.05, 1.0) == pytest.approx(110.0 - 100.0 * math.exp(-0.05))
    with pytest.raises(ValueError):
        bs_price(-1.0, 100.0, 0.2, 0.0, 1.0)
    with pytest.raises(ValueError):
        bs_price(100.0, 0.0, 0.2, 0.0, 1.0)


def test_bs_delta_values_and_limits():
    assert bs_delta(100.0, 100.0, 0.2, 0.0, 1.0) == pytest.approx(norm_cdf(0.1), abs=1e-12)
    assert bs_delta(100.0, 100.0, 0.2, 0.0, 1.0) == pytest.approx(0.5398, abs=5e-5)
    assert abs(bs_delta(1e6, 100.0, 0.2, 0.0, 1.0) - 1.0) < 1e-12
    assert bs_delta(1.0, 100.0, 0.2, 0.0, 1.0) < 1e-6
    # expiry: indicator away from the kink, undefined on it
    assert bs_delta(120.0, 100.0, 0.2, 0.0, 0.0) == 1.0
    assert bs_delta(80.0, 100.0, 0.2, 0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        bs_delta(100.0, 100.0, 0.2, 0.0, 0.0)


def test_bs_delta_bounded_and_monotone():
    spots = np.linspace(5.0, 400.0, 800)
    deltas = bs_delta(spots, 100.0, 0.2, 0.03, 0.7)
    assert np.all((deltas >= 0.0) & (deltas <= 1.0))
    assert np.all(np.diff(deltas) >= 0.0)


def test_bs_price_delta_finite_difference():
    for s in (60.0, 95.0, 100.0, 140.0):
        h = 1e-4 * s
        fd = (bs_price(s + h, 100.0, 0.2, 0.05, 0.8) - bs_price(s - h, 100.0, 0.2, 0.05, 0.8)) / (2 * h)
        assert fd == pytest.approx(bs_delta(s, 100.0, 0.2, 0.05, 0.8), abs=1e-6)


def test_delta_hedge_deterministic_markets():
    call = EuropeanCall(strike=100.0, expiry=1.0)
    itm = make_market(sigma=0.0, mu=0.0, r=0.0, s0=120.0, steps=16)
    h = delta_hedge(call, itm, 0.0)
    assert np.all(h.a == 1.0)
    otm = make_market(sigma=0.0, mu=0.0, r=0.0, s0=80.0, steps=16)
    h = delta_hedge(call, otm, 0.0)
    assert np.all(h.a == 0.0)
    # no rebalances means zero defect regardless of bond completion
    rep = self_financing_defect(h, otm)
    assert np.max(np.abs(rep.defect)) == 0.0


def test_delta_hedge_initial_holding_and_wealth():
    call = EuropeanCall(strike=100.0, expiry=1.0)
    mp = make_market(sigma=0.2, mu=0.0, r=0.0, steps=32)
    h = delta_hedge(call, mp, 0.2)
    assert h.a[0] == pytest.approx(norm_cdf(0.1), abs=1e-12)
    y0 = h.a[0] * mp.stock[0] + h.b[0] * mp.bond[0]
    assert y0 == pytest.approx(bs_price(100.0, 100.0, 0.2, 0.0, 1.0), rel=1e-12)


def test_delta_hedge_requires_matching_expiry():
    call = EuropeanCall(strike=100.0, expiry=2.0)
    mp = make_market(steps=8)
    with pytest.raises(ValueError):
        delta_hedge(call, mp, 0.2)


def test_delta_hedge_final_entry_repeats_penultimate():
    call = EuropeanCall(strike=100.0, expiry=1.0)
    mp = make_market(steps=16)
    h = delta_hedge(call, mp, 0.2)
    assert h.a[-1] == h.a[-2]


def test_constant_mix_holds_target_weight():
    mp = make_market(seed=6, steps=32)
    h = constant_mix(mp, 0.6, 100.0)
    wealth = h.a * mp.stock + h.b * mp.bond
    # every rebalanced point sits exactly on the target weight
    np.testing.assert_allclose(h.a[:-1] * mp.stock[:-1] / wealth[:-1], 0.6, rtol=1e-12)
    rep = self_financing_defect(h, mp)
    assert np.max(np.abs(rep.defect)) < 1e-9


def test_broken_strategy_frozen_bond_on_buy_and_hold_is_noop():
    grid = uniform_grid(1.0, 8)
    base = buy_and_hold(grid, 1.0, 2.0)
    frozen = broken_strategy(base, "frozen_bond")
    assert np.array_equal(frozen.a, base.a)
    assert np.array_equal(frozen.b, base.b)


def test_broken_strategy_cash_injection_hand_ledger():
    mp = hand_market([100.0, 110.0, 105.0])
    base = buy_and_hold(mp.grid, 1.0, 0.0)
    bumped = broken_strategy(base, "cash_injection", amount=10.0, at_index=1, path=mp)
    assert bumped.b[0] == 0.0 and bumped.b[1] == 10.0 and bumped.b[2] == 10.0
    rep = self_financing_defect(bumped, mp)
    np.testing.assert_allclose(rep.defect, [0.0, 10.0, 10.0], atol=1e-12)


def test_broken_strategy_frozen_delta_hedge_has_defect():
    call = EuropeanCall(strike=100.0, expiry=1.0)
    mp = make_market(seed=3, steps=16)
    h = delta_hedge(call, mp, 0.2)
    frozen = broken_strategy(h, "frozen_bond")
    rep = self_financing_defect(frozen, mp)
    assert np.max(np.abs(rep.defect)) > 1e-3


def test_broken_strategy_validation():
    grid = uniform_grid(1.0, 4)
    base = buy_and_hold(grid, 1.0, 0.0)
    with pytest.raises(ValueError):
        broken_strategy(base, "cash_injection", amount=1.0, at_index=0)
    mp = make_market(steps=4)
    with pytest.raises(ValueError):
        broken_strategy(base, "cash_injection", amount=1.0, at_index=99, path=mp)
    with pytest.raises(ValueError):
        broken_strategy(base, "reinvest_dividends")


def test_predictability_no_use_of_the_future():
    # rebuilding each strategy on a path with a perturbed future must leave
    # holdings up to the perturbation point bitwise unchanged
    params = GbmParams(100.0, 0.05, 0.2, 0.05)
    grid = uniform_grid(1.0, 32)
    w = generate_brownian(grid, seed=10)
    mp = gbm_path(params, w, "physical")

    cut = 17
    other = generate_brownian(grid, seed=11).increments
    mixed = w.increments.copy()
    mixed[cut:] = other[cut:]
    from hedgelab.paths import BrownianPath

    mp2 = gbm_path(params, BrownianPath(grid, mixed), "physical")
    assert np.array_equal(mp.stock[: cut + 1], mp2.stock[: cut + 1])

    call = EuropeanCall(strike=100.0, expiry=1.0)
    builders = [
        lambda m: buy_and_hold(m.grid, 1.5, -0.5),
        lambda m: constant_mix(m, 0.4, 100.0),
        lambda m: delta_hedge(call, m, 0.2),
    ]
    for build in builders:
        h1 = build(mp)
        h2 = build(mp2)
        assert np.array_equal(h1.a[: cut + 1], h2.a[: cut + 1])
        assert np.array_equal(h1.b[: cut + 1], h2.b[: cut + 1])


def test_bs_delta_on_the_sigma_zero_kink_is_the_vol_limit():
    # s = strike * exp(-rate * tau) with vol = 0 < tau: d1 is 0/0, and its
    # limit as vol -> 0 along the kink is 0, so the delta is Phi(0) = 1/2.
    assert bs_delta(100.0, 100.0, 0.0, 0.0, 1.0) == 0.5
    assert bs_delta(100.0, 100.0, 1e-9, 0.0, 1.0) == pytest.approx(0.5, abs=1e-9)
    deltas = bs_delta(np.array([100.0, 120.0, 80.0]), 100.0, 0.0, 0.0, np.full(3, 0.5))
    assert deltas.tolist() == [0.5, 1.0, 0.0]
    with pytest.raises(ValueError, match="expiry"):
        bs_delta(np.array([100.0, 120.0]), 100.0, 0.0, 0.0, np.array([0.0, 0.5]))
    with pytest.raises(ValueError, match="infinite"):
        bs_delta(100.0, 100.0, math.inf, 0.0, 1.0)  # inf/inf, not the kink


def test_bs_delta_whose_moneyness_overflows_is_its_limit_without_a_warning():
    # s / strike overflows to inf for a subnormal strike, so d1 = +inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bs_delta(100.0, 5e-324, 0.2, 0.05, 1.0) == 1.0
        assert bs_delta(np.array([100.0, 1e-300]), 5e-324, 0.2, 0.05, 1.0).tolist() == [1.0, 1.0]


@pytest.mark.parametrize("fn", [bs_price, bs_delta])
@pytest.mark.parametrize(
    "vol, rate, tau",
    [(math.nan, 0.05, 1.0), (0.2, 0.05, math.nan), (0.2, math.nan, 1.0), (math.inf, 0.05, 1.0), (0.2, math.inf, 1.0)],
    ids=["nan vol", "nan tau", "nan rate", "infinite vol", "infinite rate"],
)
def test_bs_price_and_delta_refuse_the_same_arguments(fn, vol, rate, tau):
    with pytest.raises(ValueError):
        fn(100.0, 100.0, vol, rate, tau)


_BAD_SPOT_OR_TAU = [
    ("s", math.nan, "spot must be > 0"),
    ("s", -math.inf, "spot must be > 0"),
    ("s", -1.0, "spot must be > 0"),
    ("s", -0.0, "spot must be > 0"),
    ("tau", math.nan, "tau must be >= 0"),
    ("tau", -math.inf, "tau must be >= 0"),
    ("tau", -1.0, "tau must be >= 0"),
    ("tau", math.inf, "Black-Scholes value undefined for infinite vol or tau"),
]
# A bad value as a Python float, a 0-d array, a 1-D array, and beside a good value.
_FORMS = {
    "float": lambda x: x,
    "0-d": np.array,
    "1-D": lambda x: np.array([x]),
    "beside a good value": lambda x: np.array([1.0, x]),
}


@pytest.mark.parametrize("form", _FORMS)
@pytest.mark.parametrize("arg, value, message", _BAD_SPOT_OR_TAU)
@pytest.mark.parametrize("fn", [bs_price, bs_delta])
def test_bad_spot_or_tau_gets_one_message_in_every_form(fn, arg, value, message, form):
    args = {"s": 100.0, "strike": 100.0, "vol": 0.2, "rate": 0.05, "tau": 1.0}
    args[arg] = _FORMS[form](value)
    with pytest.raises(ValueError, match=f"^{message}$"):
        fn(**args)


def test_infinite_spot_is_not_refused():
    assert bs_price(math.inf, 100.0, 0.2, 0.05, 1.0) == math.inf
    assert bs_delta(math.inf, 100.0, 0.2, 0.05, 1.0) == 1.0
    assert bs_delta(np.array([math.inf]), 100.0, 0.2, 0.05, np.array([1.0])).tolist() == [1.0]


def test_empty_bs_delta_is_empty():
    for tau in (np.array([]), 1.0):
        deltas = bs_delta(np.array([]), 100.0, 0.2, 0.05, tau)
        assert deltas.shape == (0,)


# Parent values of bs_price(s, 100, vol, 0.05, 0.75): no vol here overflows,
# so the vol -> infinity limit must leave every bit as it was.
_BS_PRICES = {
    (0.05, 80.0): 7.3178591642605265e-06, (0.05, 100.0): 4.134529513870945, (0.05, 120.0): 23.680558392512836,
    (0.2, 80.0): 1.100089876545793, (0.2, 100.0): 8.772268259756935, (0.2, 120.0): 24.58318546864733,
    (1.0, 80.0): 22.005781629465993, (1.0, 100.0): 34.752181612352295, (1.0, 120.0): 49.15795710546971,
    (5.0, 80.0): 77.33484051690414, (5.0, 100.0): 97.01824081753206, (5.0, 120.0): 116.7367868918411,
    (1e150, 80.0): 80.0, (1e150, 100.0): 100.0, (1e150, 120.0): 120.0,
}


def test_bs_price_at_ordinary_vols_is_bitwise_unchanged():
    for (vol, s), want in _BS_PRICES.items():
        assert bs_price(s, 100.0, vol, 0.05, 0.75) == want, (vol, s)


@pytest.mark.parametrize("vol", [1.4e154, 1e200, 1e300])
def test_bs_price_where_the_variance_overflows_is_the_spot(vol):
    # vol -> infinity: d1 -> inf and d2 -> -inf, so the call is worth s; an
    # overflowed d1 - srt would leave d2 at +inf and give s - K exp(-r tau).
    assert bs_price(100.0, 100.0, vol, 0.05, 1.0) == 100.0
    assert bs_price(80.0, 100.0, vol, 0.05, 1.0) == 80.0


def test_bs_price_where_the_moneyness_underflows():
    # s / strike underflows to 0; log(s) - log(strike) puts d1 below -3000,
    # where bs_delta's d1 = -inf also gives delta 0, and the call is worth 0.
    assert bs_price(1e-300, 1e30, 0.2, 0.05, 1.0) == 0.0
    assert bs_price(5e-324, 100.0, 0.2, 0.05, 1.0) == 0.0
    assert bs_delta(1e-300, 1e30, 0.2, 0.05, 1.0) == 0.0
    # A variance large enough to outweigh the log still gives the spot.
    for vol in (1.4e154, 1e200):
        assert bs_price(1e-300, 1e30, vol, 0.05, 1.0) == 1e-300


def test_bs_price_where_the_vol_underflows_is_the_vol_zero_value():
    # srt = vol * sqrt(tau) is so small that d1 overflows, or it is 0: the
    # vol -> 0 limit is max(s - K exp(-r tau), 0), what vol = 0 returns.
    assert bs_price(80.0, 100.0, 1e-320, 0.05, 1.0) == 0.0
    assert bs_price(120.0, 100.0, 1e-320, 0.05, 1.0) == 24.877057549928594
    assert bs_price(120.0, 100.0, 0.0, 0.05, 1.0) == 24.877057549928594
    assert bs_price(120.0, 100.0, 5e-324, 0.05, 0.25) == bs_price(120.0, 100.0, 0.0, 0.05, 0.25)
    assert bs_price(80.0, 100.0, 5e-324, 0.05, 0.25) == 0.0


@pytest.mark.parametrize("vol", [0.2, 0.0])
def test_bs_price_refuses_a_discount_factor_that_overflows(vol):
    # exp(-rate * tau) = exp(1000) is past float range.
    with pytest.raises(ValueError, match="discount factor"):
        bs_price(100.0, 100.0, vol, -1000.0, 1.0)


def _block_market(seed, n_paths, steps, s0=100.0, mu=0.05, sigma=0.2, r=0.05):
    params = GbmParams(s0=s0, mu=mu, sigma=sigma, r=r)
    return gbm_path(params, generate_brownian(uniform_grid(1.0, steps), seed, range(n_paths)), "physical")


def _delta_by_interval(option, stock, times, rate, vol):
    """delta_stock_holdings as one bs_delta call over the interval starts."""
    a = np.empty(stock.shape)
    bs_delta(stock[..., :-1], option.strike, vol, rate, option.expiry - times[:-1], out=a[..., :-1])
    a[..., -1] = a[..., -2]
    return a


@pytest.mark.parametrize(
    "market, vol",
    [
        (_block_market(5, 40, 64), 0.2),
        (_block_market(5, 40, 64), 0.35),  # a hedge at another vol than the market's
        (make_market(seed=5, steps=64), 0.2),
        (_block_market(6, 3, 1), 0.2),  # one interval
        # sigma = 0, r = 0 and s0 = strike: every S_k, S_T too, sits on the
        # strike, and no call to bs_delta may see tau = 0 there
        (_block_market(7, 4, 16, mu=0.0, sigma=0.0, r=0.0), 0.0),
        (make_market(seed=7, steps=16, mu=0.0, sigma=0.0, r=0.0), 0.0),
    ],
    ids=["block", "block-other-vol", "one-path", "one-interval", "sigma0-block", "sigma0-one-path"],
)
def test_delta_stock_holdings_is_the_per_interval_bs_delta(market, vol):
    option = EuropeanCall(strike=100.0, expiry=1.0)
    times = market.grid.times
    want = _delta_by_interval(option, market.stock, times, market.rate, vol)
    got, y0 = delta_stock_holdings(option, market.stock, times, market.rate, vol)
    assert got.tobytes() == want.tobytes()
    assert y0 == bs_price(100.0, 100.0, vol, market.rate, 1.0)
    strided = np.empty(market.stock.shape[::-1]).T
    assert delta_stock_holdings(option, market.stock, times, market.rate, vol, out=strided)[0] is strided
    assert strided.tobytes() == want.tobytes()  # tobytes reads the elements in C order, whatever the layout
    if vol == 0.0:
        assert set(got.ravel().tolist()) == {0.5}


def _constant_mix_by_path(stock, bond, w, wealth0):
    """constant_mix_holdings as a scalar loop, one path at a time."""
    a, b = np.empty(stock.shape), np.empty(stock.shape)
    for row in np.ndindex(stock.shape[:-1]):
        s, ar, br = stock[row].tolist(), a[row], b[row]
        wealth = wealth0
        ar[0] = w * wealth / s[0]
        br[0] = (1.0 - w) * wealth / float(bond[0])
        for k in range(1, len(s) - 1):
            wealth = float(ar[k - 1]) * s[k] + float(br[k - 1]) * float(bond[k])
            ar[k] = w * wealth / s[k]
            br[k] = (1.0 - w) * wealth / float(bond[k])
        ar[-1], br[-1] = ar[-2], br[-2]
    return a, b


@pytest.mark.parametrize(
    "market", [_block_market(8, 30, 32), make_market(seed=8, steps=32), _block_market(9, 5, 1)],
    ids=["block", "one-path", "one-interval"],
)
@pytest.mark.parametrize("w", [0.6, 0.0, 1.5])
def test_constant_mix_holdings_is_the_per_path_scalar_loop(market, w):
    want_a, want_b = _constant_mix_by_path(market.stock, market.bond, w, 100.0)
    a, b = constant_mix_holdings(market.stock, market.bond, w, 100.0)
    assert a.tobytes() == want_a.tobytes() and b.tobytes() == want_b.tobytes()
    out = (np.empty(market.stock.shape[::-1]).T, np.empty(market.stock.shape))  # a strided and a contiguous one
    assert all(x is y for x, y in zip(constant_mix_holdings(market.stock, market.bond, w, 100.0, out=out), out))
    assert out[0].tobytes() == want_a.tobytes() and out[1].tobytes() == want_b.tobytes()
