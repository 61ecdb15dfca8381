import time

import numpy as np
import pytest

from hedgelab.paths import GbmParams, MarketPath, TimeGrid, generate_brownian, gbm_path, uniform_grid


def make_market(seed=0, path_index=0, steps=64, horizon=1.0, s0=100.0, mu=0.05,
                sigma=0.2, r=0.05, measure="physical"):
    params = GbmParams(s0=s0, mu=mu, sigma=sigma, r=r)
    grid = uniform_grid(horizon, steps)
    w = generate_brownian(grid, seed, path_index)
    return gbm_path(params, w, measure)


def hand_market(stock, bond=None, times=None):
    """Market path from explicit values (bond defaults to a flat account)."""
    stock = np.asarray(stock, dtype=float)
    n = stock.size
    if times is None:
        times = np.linspace(0.0, 1.0, n)
    grid = TimeGrid(np.asarray(times, dtype=float))
    bond = np.ones(n) if bond is None else np.asarray(bond, dtype=float)
    return MarketPath(grid, stock, bond, rate=0.0)


@pytest.fixture
def market():
    return make_market()


def fail_in_blocks_3_and_5(ran, mkt, work, out):
    """A block function for 48 paths in 8 blocks of 6 at one lane: the
    blocks holding path 18 (block 3) and path 35 (block 5) raise, each its
    own error, block 3's after a pause so that block 5's can come first.
    Records the path indices of every block it is given."""
    start = (out.ctypes.data - out.base.ctypes.data) // out.itemsize
    paths = range(start, start + out.shape[-1])
    ran.append(paths)
    if 35 in paths:
        raise ValueError("block 5")
    if 18 in paths:
        time.sleep(0.05)
        raise ValueError("block 3")
    out[...] = 0.0
    return False, None
