import numpy as np
import pytest

from hedgelab.accum import comp_cumsum
from hedgelab.calculus import SampledSeries, SmoothFunction, ito_doblin_residual, ito_integral
from hedgelab.ledger import (
    LEDGER_CSV_COLUMNS,
    complete_bond,
    enforce_self_financing,
    ito_expansion_terms,
    self_financing_defect,
    write_ledger_csv,
)
from hedgelab.paths import GbmParams, gbm_path, generate_brownian, uniform_grid
from hedgelab.strategies import (
    EuropeanCall,
    HoldingsSchedule,
    broken_strategy,
    buy_and_hold,
    constant_mix,
    delta_hedge,
)

from conftest import hand_market, make_market


def random_holdings(grid, rng):
    return HoldingsSchedule(grid, rng.uniform(-2.0, 2.0, grid.n_points),
                            rng.uniform(-2.0, 2.0, grid.n_points))


def test_report_value_hand_cases():
    mp = hand_market([50.0, 50.0, 50.0])
    zero = buy_and_hold(mp.grid, 0.0, 0.0)
    assert np.all(self_financing_defect(zero, mp).value == 0.0)

    stock_only = buy_and_hold(mp.grid, 1.0, 0.0)
    np.testing.assert_array_equal(self_financing_defect(stock_only, mp).value, mp.stock)

    mixed = buy_and_hold(mp.grid, 2.0, 3.0)
    assert np.all(self_financing_defect(mixed, mp).value == 103.0)


def test_report_gain_hand_cases():
    mp = hand_market([100.0, 110.0, 105.0])
    hold = buy_and_hold(mp.grid, 1.0, 0.0)
    np.testing.assert_allclose(self_financing_defect(hold, mp).gain, mp.stock - mp.stock[0], atol=1e-15)

    bond_only = buy_and_hold(mp.grid, 0.0, 1.0)
    assert np.all(self_financing_defect(bond_only, mp).gain == 0.0)

    varying = HoldingsSchedule(mp.grid, np.array([1.0, 2.0, 2.0]), np.zeros(3))
    np.testing.assert_allclose(self_financing_defect(varying, mp).gain, [0.0, 10.0, 0.0], atol=1e-15)


def test_grid_mismatch_rejected():
    mp = make_market(steps=8)
    other = buy_and_hold(uniform_grid(1.0, 9), 1.0, 0.0)
    for op in (self_financing_defect, ito_expansion_terms):
        with pytest.raises(ValueError):
            op(other, mp)


def test_buy_and_hold_has_zero_defect_and_terms():
    mp = make_market(seed=5)
    h = buy_and_hold(mp.grid, 2.0, -1.0)
    rep = self_financing_defect(h, mp)
    assert np.max(np.abs(rep.defect)) <= 1e-9
    for term in ito_expansion_terms(h, mp):
        assert np.all(term.values == 0.0)


def test_unfunded_rebalance_hand_ledger():
    # stock jumps 1 -> 2 at t_1 with the bond frozen: the rebalance settles
    # at S_1 = 110 unfunded, so 110 of value appears at index 1 and persists
    mp = hand_market([100.0, 110.0, 105.0])
    h = HoldingsSchedule(mp.grid, np.array([1.0, 2.0, 2.0]), np.zeros(3))
    rep = self_financing_defect(h, mp)
    np.testing.assert_array_equal(rep.value, [100.0, 220.0, 210.0])
    np.testing.assert_allclose(rep.gain, [0.0, 10.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(rep.defect, [0.0, 110.0, 110.0], atol=1e-15)
    # per-step quadruple of the t_1 rebalance: S_0*da + da*dS = 100 + 10
    s_da, da_ds, beta_db, db_dbeta = (t.values[1] for t in ito_expansion_terms(h, mp))
    assert s_da == 100.0
    assert da_ds == 10.0
    assert beta_db == 0.0 and db_dbeta == 0.0


def test_enforce_self_financing_hand_ledger():
    mp = hand_market([100.0, 110.0, 105.0], times=[0.0, 0.5, 1.0])
    a = SampledSeries(mp.grid, np.array([1.0, 2.0, 2.0]))
    h = enforce_self_financing(a, mp, 100.0)
    np.testing.assert_array_equal(h.b, [0.0, -110.0, -110.0])
    rep = self_financing_defect(h, mp)
    assert rep.value[-1] == 100.0
    assert np.max(np.abs(rep.defect)) == 0.0


def test_enforce_self_financing_edge_cases():
    mp = make_market(seed=9)
    n = mp.grid.n_points
    const = enforce_self_financing(SampledSeries(mp.grid, np.full(n, 1.5)), mp, 120.0)
    expected_b0 = (120.0 - 1.5 * mp.stock[0]) / mp.bond[0]
    assert np.all(const.b == expected_b0)

    fully_invested = enforce_self_financing(SampledSeries(mp.grid, np.full(n, 2.0)), mp, 2.0 * mp.stock[0])
    assert fully_invested.b[0] == 0.0

    # a -0.0 starting bond keeps its sign
    flat = enforce_self_financing(SampledSeries(mp.grid, np.zeros(n)), mp, -0.0)
    assert np.signbit(flat.b[0])

    # two-point grid: one interval, no rebalance, trivially zero defect
    tiny = make_market(steps=1)
    h = enforce_self_financing(SampledSeries(tiny.grid, np.array([3.0, 3.0])), tiny, 100.0)
    assert np.max(np.abs(self_financing_defect(h, tiny).defect)) <= 1e-9


def test_exact_discrete_product_rule_random_instances():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(200):
        mp = make_market(seed=i, steps=128)
        h = random_holdings(mp.grid, rng)
        rep = self_financing_defect(h, mp)
        total = sum(t.values for t in ito_expansion_terms(h, mp))
        worst = max(worst, float(np.max(np.abs(rep.defect - total))))
    assert worst <= 1e-9, f"product rule violated by {worst}"


def test_internal_consistency_of_report():
    mp = make_market(seed=42)
    h = random_holdings(mp.grid, np.random.default_rng(7))
    rep = self_financing_defect(h, mp)
    np.testing.assert_array_equal(rep.value, h.a * mp.stock + h.b * mp.bond)
    np.testing.assert_array_equal(rep.defect, rep.value - rep.value[0] - rep.gain)


def test_enforced_terms_cancel_without_vanishing():
    call = EuropeanCall(strike=100.0, expiry=1.0)
    mp = make_market(seed=15, steps=256, r=0.0, mu=0.0)
    h = delta_hedge(call, mp, 0.2)
    terms = ito_expansion_terms(h, mp)
    total = sum(t.values for t in terms)
    assert np.max(np.abs(total)) <= 1e-9
    # the stock-side series are individually far from zero
    assert abs(terms[0].values[-1]) > 0.01
    assert abs(terms[1].values[-1]) > 0.01


def test_frozen_bond_defect_matches_two_routes():
    call = EuropeanCall(strike=100.0, expiry=1.0)
    mp = make_market(seed=31, steps=64)
    frozen = broken_strategy(delta_hedge(call, mp, 0.2), "frozen_bond")
    rep = self_financing_defect(frozen, mp)
    total = sum(t.values for t in ito_expansion_terms(frozen, mp))
    assert np.max(np.abs(rep.defect)) > 1e-3
    np.testing.assert_allclose(total, rep.defect, atol=1e-9)


def test_report_gain_matches_ito_integral():
    # two implementations, one answer
    mp = make_market(seed=23)
    h = random_holdings(mp.grid, np.random.default_rng(23))
    g_ledger = self_financing_defect(h, mp).gain
    g_calc = (
        ito_integral(SampledSeries(mp.grid, h.a), SampledSeries(mp.grid, mp.stock)).values
        + ito_integral(SampledSeries(mp.grid, h.b), SampledSeries(mp.grid, mp.bond)).values
    )
    scale = max(1.0, float(np.max(np.abs(g_ledger))))
    np.testing.assert_allclose(g_ledger, g_calc, rtol=1e-12, atol=1e-12 * scale)


def test_ledger_csv_round_trip(tmp_path):
    call = EuropeanCall(strike=100.0, expiry=1.0)
    mp = make_market(seed=1, steps=16)
    h = delta_hedge(call, mp, 0.2)
    dest = tmp_path / "ledger.csv"
    write_ledger_csv(h, mp, dest)
    lines = dest.read_text().splitlines()
    assert lines[0] == ",".join(LEDGER_CSV_COLUMNS)
    assert len(lines) == mp.grid.n_points + 1

    # D column equals the running sum of the four term columns
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    cols = {name: data[:, i] for i, name in enumerate(LEDGER_CSV_COLUMNS)}
    running = np.cumsum(
        cols["term_Sda"] + cols["term_dadS"] + cols["term_bdb"] + cols["term_dbdbeta"]
    )
    np.testing.assert_allclose(cols["D"], running, atol=1e-9)

    # 17 significant digits round-trip the exact doubles
    rep = self_financing_defect(h, mp)
    np.testing.assert_array_equal(cols["Y"], rep.value)
    np.testing.assert_array_equal(cols["D"], rep.defect)


@pytest.mark.parametrize("steps", [1, 64, 1024])
@pytest.mark.parametrize("strategy", ["delta_hedge", "frozen_bond", "cash_injection"])
def test_expansion_terms_are_compensated_sums_of_the_textbook_terms(strategy, steps, tmp_path):
    mp = make_market(seed=steps, steps=steps)
    h = delta_hedge(EuropeanCall(strike=100.0, expiry=1.0), mp, 0.2)
    if strategy != "delta_hedge":
        h = broken_strategy(h, strategy, amount=5.0, at_index=(steps + 1) // 2, path=mp)
    da, db = np.diff(h.a), np.diff(h.b)
    textbook = (mp.stock[:-1] * da, da * np.diff(mp.stock), mp.bond[:-1] * db, db * np.diff(mp.bond))
    for series, term in zip(ito_expansion_terms(h, mp), textbook, strict=True):
        assert series.values.tobytes() == comp_cumsum(term).tobytes()

    # the CSV's term columns hold the same per-step terms, row 0 zero
    dest = write_ledger_csv(h, mp, tmp_path / "ledger.csv")
    data = np.loadtxt(dest, delimiter=",", skiprows=1, ndmin=2)
    first = LEDGER_CSV_COLUMNS.index("term_Sda")
    for col, term in zip(data.T[first:], textbook, strict=True):
        assert col.tobytes() == np.concatenate(([0.0], term)).tobytes()


# partials that ignore s, so no shape clash stops the batch before the check
_LINEAR_IN_T = SmoothFunction(
    f=lambda t, s: t, df_dt=lambda t, s: 1.0, df_ds=lambda t, s: 0.0, d2f_ds2=lambda t, s: 0.0
)


@pytest.mark.parametrize(
    "call",
    [
        lambda mkt, h, dest: delta_hedge(EuropeanCall(100.0, 1.0), mkt, 0.2),
        lambda mkt, h, dest: constant_mix(mkt, 0.6, 100.0),
        lambda mkt, h, dest: self_financing_defect(h, mkt),
        lambda mkt, h, dest: ito_expansion_terms(h, mkt),
        lambda mkt, h, dest: write_ledger_csv(h, mkt, dest),
        lambda mkt, h, dest: ito_doblin_residual(_LINEAR_IN_T, mkt),
    ],
    ids=[
        "delta_hedge", "constant_mix", "self_financing_defect",
        "ito_expansion_terms", "write_ledger_csv", "ito_doblin_residual",
    ],
)
def test_single_path_api_refuses_a_multi_path_market(call, tmp_path):
    grid = uniform_grid(1.0, 8)
    mkt = gbm_path(GbmParams(100.0, 0.05, 0.2, 0.05), generate_brownian(grid, 3, range(3)), "physical")
    dest = tmp_path / "ledger.csv"
    with pytest.raises(ValueError):
        call(mkt, buy_and_hold(grid, 1.0, 0.0), dest)
    assert not dest.exists()


def _complete_bond_by_views(a, stock, bond, y0):
    """complete_bond with every pass on the [..., :-1] and [..., 1:] views."""
    b = np.empty(np.broadcast(a, stock).shape)
    transfers = np.subtract(a[..., :-1], a[..., 1:], out=b[..., 1:])
    transfers *= stock[..., 1:]
    transfers /= bond[1:]
    b0 = (float(y0) - a[..., 0] * stock[..., 0]) / bond[0]
    comp_cumsum(transfers, out=b)
    b += b0[..., None]
    b[..., 0] = b0
    return b


def _bond_cases():
    rng = np.random.default_rng(12)
    params = GbmParams(s0=100.0, mu=0.05, sigma=0.2, r=0.05)
    grid = uniform_grid(1.0, 64)
    block = gbm_path(params, generate_brownian(grid, 4, range(40)), "physical")
    one = make_market(seed=4, steps=64)
    a = rng.uniform(-2.0, 2.0, block.stock.shape)
    a[::3, 10:20] = 0.5  # runs without rebalances
    a[1::4, 0] = -0.0
    f_stock = np.asfortranarray(block.stock)
    return {
        "block": (a, block.stock, block.bond, None),
        "one-path": (a[3], one.stock, one.bond, None),
        "broadcast-a": (a[5], block.stock, block.bond, None),
        "strided-out": (a, block.stock, block.bond, np.empty(block.stock.shape[::-1]).T),
        "column-out": (a, block.stock, block.bond, np.empty((40, 66))[:, 1:]),
        "fortran-stock": (a, f_stock, block.bond, None),
        "one-row-block": (a[:1], block.stock[:1], block.bond, None),
        "one-interval": (a[:, :2].copy(), block.stock[:, :2].copy(), block.bond[:2], None),
    }


@pytest.mark.parametrize("case", list(_bond_cases()))
def test_complete_bond_is_the_view_formulation(case):
    a, stock, bond, out = _bond_cases()[case]
    want = _complete_bond_by_views(a, stock, bond, 10.45)
    got = complete_bond(a, stock, bond, 10.45, out=out)
    assert out is None or got is out
    assert got.tobytes() == want.tobytes()
