"""A complete-market oracle: the paper's claims checked on
Cox-Ross-Rubinstein trees (Cox, Ross & Rubinstein, JFE 7(3), 1979) with
every path enumerated.

On a finite probability space (Harrison & Pliska 1981) a self-financing
strategy's discounted value is a martingale under the risk-neutral measure
Q exactly, the replicating strategy pays the claim on every path, and E_Q
is a finite sum over the 2**n paths. Each claim therefore holds to
rounding, not to Monte Carlo error, at any s0: the holdings kernels, the
bond completion and the defect kernel are run on all paths of the tree at
once and must meet each claim on every path, within 1e-9 per price of
order 100.
"""

import math

import numpy as np
import pytest

from hedgelab.ledger import complete_bond, defect_series
from hedgelab.paths import MarketPath, uniform_grid
from hedgelab.strategies import EuropeanCall, constant_mix_holdings, delta_hedge_holdings, inject_cash

SIGMA, RATE = 0.2, 0.05
CASES = pytest.mark.parametrize("n, s0", [(n, s0) for n in (1, 2, 12, 16) for s0 in (1.0, 100.0, 1e7)])


class Tree:
    """The CRR market of n steps on [0, 1] with strike = s0: every path as
    one row of a batch MarketPath, the up moves of each path up to each grid
    point, and the one-step quantities u, d = 1 / u, R = exp(r dt) and the
    risk-neutral up probability q = (R - d) / (u - d)."""

    def __init__(self, n: int, s0: float):
        self.n, self.s0 = n, s0
        dt = 1.0 / n
        self.u = math.exp(SIGMA * math.sqrt(dt))
        self.d = 1.0 / self.u
        self.growth = math.exp(RATE * dt)
        self.q = (self.growth - self.d) / (self.u - self.d)
        moves = (np.arange(2**n)[:, None] >> np.arange(n)) & 1  # move k of path p is bit k of p
        self.ups = np.zeros((2**n, n + 1), dtype=np.int64)
        np.cumsum(moves, axis=1, out=self.ups[:, 1:])
        grid = uniform_grid(1.0, n)
        stock = self.node_stock(self.ups, np.arange(n + 1))
        self.market = MarketPath(grid, stock, np.exp(RATE * grid.times), RATE)
        self.weights = self.q ** self.ups[:, -1] * (1.0 - self.q) ** (n - self.ups[:, -1])
        self.budget = 1e-9 * max(1.0, s0 / 100.0)

    def node_stock(self, ups, k):
        """S at the node of `ups` up moves after k steps: s0 u^ups d^(k - ups)."""
        return self.s0 * self.u ** (2 * ups - k).astype(float)

    def discounted_mean(self, value) -> float:
        """E_Q[Y_T / beta_T], summed exactly over the paths."""
        return math.fsum((self.weights * (value[:, -1] / self.market.bond[-1])).tolist())

    def replicating_hedge(self):
        """Holdings (a, b) that replicate the call struck at s0: a_k by
        backward induction, the stock that makes both successor nodes worth
        their value, and b completed by `complete_bond` at y0 = V_0."""
        n, stock, bond = self.n, self.market.stock, self.market.bond
        value = np.maximum(self.node_stock(np.arange(n + 1), n) - self.s0, 0.0)  # V_n at 0..n up moves
        a = np.empty(stock.shape)
        for k in range(n - 1, -1, -1):
            s_next = self.node_stock(np.arange(k + 2), k + 1)
            delta = (value[1:] - value[:-1]) / (s_next[1:] - s_next[:-1])
            a[:, k] = delta[self.ups[:, k]]
            value = (self.q * value[1:] + (1.0 - self.q) * value[:-1]) / self.growth
        a[:, n] = a[:, n - 1]
        return a, complete_bond(a, stock, bond, value[0])

    def self_financing(self):
        """name -> holdings (a, b) of each self-financing strategy."""
        stock, bond, s0 = self.market.stock, self.market.bond, self.s0
        return {
            "buy_and_hold": (np.ones(stock.shape), np.full(stock.shape, 0.5 * s0)),
            "constant_mix": constant_mix_holdings(stock, bond, 0.6, s0),
            "delta_hedge": delta_hedge_holdings(EuropeanCall(s0, 1.0), self.market, SIGMA),
            "replicating": self.replicating_hedge(),
        }


@CASES
def test_self_financing_strategies_have_no_defect_and_are_exact_martingales(n, s0):
    tree = Tree(n, s0)
    for name, (a, b) in tree.self_financing().items():
        value, _, defect = defect_series(a, b, tree.market.stock, tree.market.bond)
        assert np.max(np.abs(defect)) <= tree.budget, name
        assert abs(tree.discounted_mean(value) - value[0, 0]) <= tree.budget, name


@CASES
def test_replicating_hedge_pays_the_claim_on_every_path(n, s0):
    tree = Tree(n, s0)
    a, b = tree.replicating_hedge()
    stock, bond = tree.market.stock, tree.market.bond
    payoff = np.maximum(stock[:, -1] - s0, 0.0)
    assert np.max(np.abs(a[:, -1] * stock[:, -1] + b[:, -1] * bond[-1] - payoff)) <= tree.budget


@CASES
def test_cash_injection_is_shifted_by_its_discounted_amount(n, s0):
    tree = Tree(n, s0)
    stock, bond = tree.market.stock, tree.market.bond
    j, amount = (n + 1) // 2, 0.1 * s0
    b = inject_cash(np.zeros(stock.shape), bond, amount, j)
    value, _, defect = defect_series(np.ones(stock.shape), b, stock, bond)
    assert np.max(np.abs(defect[:, :j])) <= tree.budget
    assert np.max(np.abs(defect[:, j:] - amount)) <= tree.budget
    assert abs(tree.discounted_mean(value) - value[0, 0] - amount / bond[j]) <= tree.budget
