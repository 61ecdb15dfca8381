"""Time grids, Brownian increments, and market (stock + money-market) paths.

The stock follows geometric Brownian motion simulated with the exact
log-scheme, so the sampled path has no discretization bias of its own:
any self-financing defect observed downstream is attributable to discrete
trading, not to the simulator. The money-market account is deterministic,
beta_k = exp(r * t_k).

Randomness is counter-based: every increment sequence is a pure function
of (seed, path_index, grid), so Monte Carlo results are reproducible under
any execution order. Refinement keys extend the counter so a refined path
is likewise a pure function of its inputs. Path (seed, i) draws from the
PCG64 stream of default_rng([seed, i]); the batch builder `gbm_batch`
derives every path's PCG64 state at once and reproduces those streams bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accum import comp_cumsum

# Salt mixed into the bridge RNG stream so refinement noise can never
# collide with the base increment stream for any (seed, path_index).
_BRIDGE_SALT = 0x42524447

# SeedSequence's hash constants (numpy.random.bit_generator) and PCG64's
# 128-bit LCG multiplier. NumPy's stream-compatibility policy fixes both,
# which is what lets _pcg64_states reproduce default_rng's seeding.
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_L = 0xCA01F9DD
_SS_MIX_R = 0x4973F715
_SS_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing instants in years, from 0 to the horizon T > 0."""

    times: np.ndarray

    def __post_init__(self):
        t = _readonly(self.times)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("time grid needs at least 2 points")
        if not np.all(np.isfinite(t)):
            raise ValueError("time grid values must be finite")
        if t[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("time grid must be strictly increasing")
        object.__setattr__(self, "times", t)

    @property
    def n_points(self) -> int:
        return int(self.times.size)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def dt(self) -> np.ndarray:
        """Step lengths, one per interval."""
        return np.diff(self.times)

    def require_same(self, other: "TimeGrid") -> None:
        """Raise unless `other` holds the same instants (operands must share a grid)."""
        if not (self is other or np.array_equal(self.times, other.times)):
            raise ValueError("operands live on different time grids")


@dataclass(frozen=True)
class GbmParams:
    """Geometric Brownian motion parameters plus the risk-free rate."""

    s0: float
    mu: float
    sigma: float
    r: float

    def __post_init__(self):
        if not (self.s0 > 0.0 and math.isfinite(self.s0)):
            raise ValueError("s0 must be > 0")
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be >= 0")
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not math.isfinite(self.r):
            raise ValueError("r must be finite")


@dataclass(frozen=True, eq=False)
class BrownianPath:
    """Brownian increments on a grid, one N(0, dt_k) draw per interval.

    `increments` holds one path, shape (n_steps,), or a batch of paths
    stacked along a leading axis, shape (n_paths, n_steps). `key` records
    the counter lineage ((seed, path_index), extended by each refinement)
    so derived randomness stays reproducible; in a batch, path_index is the
    integer array of the rows' path indices.
    """

    grid: TimeGrid
    increments: np.ndarray
    key: tuple = (0,)

    def __post_init__(self):
        inc = _readonly(self.increments)
        if inc.ndim not in (1, 2) or inc.shape[-1] != self.grid.n_points - 1:
            raise ValueError("need exactly one increment per grid interval")
        if not np.all(np.isfinite(inc)):
            raise ValueError("increments must be finite")
        object.__setattr__(self, "increments", inc)


def _require_positive(values: np.ndarray, name: str) -> None:
    if not (np.all(values > 0.0) and np.all(np.isfinite(values))):
        raise ValueError(f"{name} values must be positive and finite")


@dataclass(frozen=True, eq=False)
class MarketPath:
    """Sampled stock and bond values on a grid, with the driving increments."""

    grid: TimeGrid
    stock: np.ndarray
    bond: np.ndarray
    brownian: BrownianPath
    rate: float = 0.0

    def __post_init__(self):
        s = _readonly(self.stock)
        b = _readonly(self.bond)
        n = self.grid.n_points
        if s.shape != (n,) or b.shape != (n,):
            raise ValueError("stock and bond must have one value per grid point")
        _require_positive(s, "stock")
        _require_positive(b, "bond")
        if abs(b[0] - 1.0) > 1e-12:
            raise ValueError("bond must be normalized to 1 at t=0")
        object.__setattr__(self, "stock", s)
        object.__setattr__(self, "bond", b)


def uniform_grid(horizon: float, steps: int) -> TimeGrid:
    """Equally spaced grid of `steps` intervals on [0, horizon]."""
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ValueError("horizon must be > 0")
    if int(steps) < 1:
        raise ValueError("steps must be >= 1")
    return TimeGrid(np.linspace(0.0, float(horizon), int(steps) + 1))


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence reads it."""
    if n < 0:
        raise ValueError("RNG key entries must be non-negative")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _pcg64_states(entropy: list[np.ndarray]):
    """Yield the PCG64 (state, inc) of default_rng(words) for many word lists.

    `entropy` lists the uint32 entropy words as arrays, element j of every
    array belonging to stream j. The SeedSequence hash runs on the arrays
    with uint32 wraparound; PCG64 then seeds itself from
    generate_state(4, np.uint64) as (initstate, initseq) = (w0:w1, w2:w3)
    followed by two LCG steps (pcg_setseq_128_srandom_r).
    """
    hash_const = _SS_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_SS_POOL)]
    for i_src in range(_SS_POOL):
        for i_dst in range(_SS_POOL):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_SS_POOL:]:
        for i_dst in range(_SS_POOL):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _SS_INIT_B
    state_words = []
    for i in range(2 * _SS_POOL):
        value = pool[i % _SS_POOL] ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state_words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    seeds = [(lo | (hi << np.uint64(32))).tolist() for lo, hi in zip(state_words[::2], state_words[1::2])]

    for s_hi, s_lo, q_hi, q_lo in zip(*seeds):
        inc = (((q_hi << 64) | q_lo) << 1 | 1) & _MASK128
        yield ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128, inc


def _keyed_normals(key: tuple, shape: tuple) -> np.ndarray:
    """Standard normals from the stream of default_rng(list(key)).

    One entry of `key` may be an integer array of path indices instead of
    an int: the result then stacks one stream per index along a new
    leading axis, each bit for bit what default_rng gives for that index.
    """
    batch = [k for k in key if isinstance(k, np.ndarray)]
    if not batch:
        return np.random.default_rng([int(k) for k in key]).standard_normal(shape)
    (n_paths,) = batch[0].shape
    entropy = []
    for k in key:
        if isinstance(k, np.ndarray):
            if k.size and not 0 <= int(k.min()) <= int(k.max()) <= _MASK32:
                raise ValueError("batched path indices must be in [0, 2**32)")
            entropy.append(k.astype(np.uint32))
        else:
            entropy.extend(np.full(n_paths, w, dtype=np.uint32) for w in _uint32_words(int(k)))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    out = np.empty((n_paths, *shape))
    for row, (state, inc) in zip(out, _pcg64_states(entropy)):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(out=row)
    return out


def _brownian(grid: TimeGrid, key: tuple) -> BrownianPath:
    z = _keyed_normals(key, (grid.n_points - 1,))
    z *= np.sqrt(grid.dt)
    return BrownianPath(grid, z, key=key)


def generate_brownian(grid: TimeGrid, seed: int, path_index: int = 0) -> BrownianPath:
    """Draw the increment sequence for one path.

    The stream is keyed by (seed, path_index): the same pair always yields
    bit-identical increments, and distinct pairs yield independent streams,
    regardless of call order or thread schedule.
    """
    return _brownian(grid, (int(seed), int(path_index)))


def _gbm_stock(params: GbmParams, w: BrownianPath, measure: str) -> np.ndarray:
    """s0 * exp((d - sigma^2/2) * t_k + sigma * W_k) for one path or a batch."""
    if measure == "physical":
        drift = params.mu
    elif measure == "risk_neutral":
        drift = params.r
    else:
        raise ValueError(f"measure must be 'physical' or 'risk_neutral', got {measure!r}")
    t = w.grid.times
    x = np.zeros((*w.increments.shape[:-1], t.size))
    x[..., 1:] = comp_cumsum(w.increments, axis=-1)
    # In place, with each product and sum's operands swapped: IEEE + and *
    # commute, so this is bitwise the textbook formula.
    x *= params.sigma
    x += (drift - 0.5 * params.sigma**2) * t
    np.exp(x, out=x)
    x *= params.s0
    return x


def gbm_path(params: GbmParams, w: BrownianPath, measure: str) -> MarketPath:
    """Exact-scheme GBM stock path plus deterministic bond path.

    measure: "physical" uses drift mu, "risk_neutral" substitutes r.
    S_k = s0 * exp((d - sigma^2/2) * t_k + sigma * W_k) reproduces the
    step recurrence S_{k+1} = S_k * exp((d - sigma^2/2) dt_k + sigma dW_k)
    without compounding per-step rounding.
    """
    stock = _gbm_stock(params, w, measure)
    bond = np.exp(params.r * w.grid.times)
    return MarketPath(grid=w.grid, stock=stock, bond=bond, brownian=w, rate=params.r)


def _bridge(xi: np.ndarray, h: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """Turn iid N(0, 1) draws xi[..., k, :] into sub-increments of step k.

    Scales to N(0, h_k/m) and conditions on the known step total
    increments[..., k], in place.
    """
    m = xi.shape[-1]
    xi *= np.sqrt(h / m)[:, None]
    excess = (xi.sum(axis=-1) - increments) / m
    xi -= excess[..., None]
    return xi


def refine(grid: TimeGrid, w: BrownianPath, factor: int) -> tuple[TimeGrid, BrownianPath]:
    """Split every interval into `factor` pieces, bridging the increments.

    The sub-increments of each original step are drawn conditionally on
    summing to the original increment (Brownian bridge), so the refined
    path and the coarse path describe the same Brownian motion at shared
    instants. Original knots are kept bitwise in the new grid. A batch `w`
    is refined path by path, each with its own bridge stream.
    """
    m = int(factor)
    if m < 2:
        raise ValueError("refinement factor must be >= 2")
    n_steps = grid.n_points - 1
    h = grid.dt
    key = (*w.key, m)
    sub = _bridge(_keyed_normals((_BRIDGE_SALT, *key), (n_steps, m)), h, w.increments)

    offsets = np.arange(m) / m
    fine = grid.times[:-1, None] + h[:, None] * offsets[None, :]
    times = np.append(fine.reshape(-1), grid.times[-1])
    new_grid = TimeGrid(times)
    return new_grid, BrownianPath(new_grid, sub.reshape(*w.increments.shape[:-1], -1), key=key)


def gbm_batch(
    params: GbmParams, grid: TimeGrid, factor: int, n_paths: int, seed: int, measure: str
) -> tuple[TimeGrid, np.ndarray]:
    """Stock values of paths 0..n_paths-1, refined by `factor`, in one pass.

    Row i is bit for bit the stock of
    gbm_path(params, refine(grid, generate_brownian(grid, seed, i), factor)[1], measure)
    (no refinement for factor 1), and the same checks apply. Returns the
    (refined) grid and the (n_paths, n_points) stock array.
    """
    w = _brownian(grid, (int(seed), np.arange(int(n_paths))))
    if int(factor) > 1:
        grid, w = refine(grid, w, int(factor))
    stock = _gbm_stock(params, w, measure)
    _require_positive(stock, "stock")
    return grid, stock
