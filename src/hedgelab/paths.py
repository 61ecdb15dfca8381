"""Time grids, Brownian increments, and market (stock + money-market) paths.

The stock follows geometric Brownian motion simulated with the exact
log-scheme, so the sampled path has no discretization bias of its own:
any self-financing defect observed downstream is attributable to discrete
trading, not to the simulator. The money-market account is deterministic,
beta_k = exp(r * t_k).

Randomness is counter-based (stream 2, after Salmon et al., "Parallel
Random Numbers: As Easy as 1, 2, 3", SC'11): every increment sequence is a
pure function of (seed, path_index, grid), so Monte Carlo results are
reproducible under any execution order. The seed, in [0, 2**128), is the
Philox key. A draw of n normals a path groups the path indices into chunks
of K = max(1, CHUNK_NORMALS // n) consecutive indices, and path i is row
i % K of the standard normals of chunk i // K, the Philox counter block
[0, i // K, tag]. The tag is 0 for base increments; a bridge's tag is fixed
by its refinement lineage, so a refined path is likewise a pure function of
its inputs. A batch is drawn by passing a range of path indices,
generate_brownian(grid, seed, range(...)): it draws each chunk it touches
once, and each row is bit for bit the single-path draw. refine and gbm_path
take the batch as they take one path.

Every value type's arrays are checked and frozen by one rule, _freeze.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .accum import _out, comp_cumsum

# The stream layout (module docstring) is versioned, and manifest.json
# records STREAM. CHUNK_NORMALS is part of the layout, not a tuning knob:
# changing it changes every stochastic output and needs a new STREAM.
STREAM = 2
CHUNK_NORMALS = 1024

# Salt mixed into the bridge tags so refinement noise can never collide
# with the base increment stream for any (seed, path_index).
_BRIDGE_SALT = 0x42524447


def _integer(name: str, value) -> int:
    """`value` as an int; a float or other non-integer raises instead of truncating."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class _Owned:
    """A float64 array the library has just built, handed to a value type's
    constructor without the copy a caller's array gets: nothing else writes
    it. The object keeps a read-only view of it, so an object built on a
    buffer (`out=` of generate_brownian, refine and gbm_path, a study
    block's buffers) is valid only until that buffer is rewritten."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = values


def _readonly(values) -> np.ndarray:
    """A read-only copy of `values`, or a read-only view of an `_Owned` array."""
    arr = values.values.view() if isinstance(values, _Owned) else np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _freeze(obj, names: tuple[str, ...], points: int, *, batch: bool = False, rule: str | None = "finite") -> None:
    """The one array check of the value types: set each field in `names` of
    the frozen `obj` to its `_readonly` form, which must hold one value per
    grid point (or interval), shape (points,), or (n_paths, points) when
    `batch`, and obey `rule`: "finite", "positive" (positive and finite)
    or None. Each error names the field."""
    for name in names:
        arr = _readonly(getattr(obj, name))
        if arr.shape[-1:] != (points,) or arr.ndim not in ((1, 2) if batch else (1,)):
            shape = f"({points},) or (n_paths, {points})" if batch else f"({points},)"
            raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
        if rule == "positive" and not (np.all(arr > 0.0) and np.all(np.isfinite(arr))):
            raise ValueError(f"{name} values must be positive and finite")
        if rule == "finite" and not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} values must be finite")
        object.__setattr__(obj, name, arr)


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
    the stream lineage ((seed, path_index), extended by each refinement
    factor) so derived randomness stays reproducible; in a batch, path_index
    is the integer array of the rows' path indices.
    """

    grid: TimeGrid
    increments: np.ndarray
    key: tuple = (0, 0)

    def __post_init__(self):
        _freeze(self, ("increments",), self.grid.n_points - 1, batch=True)


@dataclass(frozen=True, eq=False)
class MarketPath:
    """Sampled stock and bond values on a grid.

    `stock` holds one path, shape (n_points,), or a batch of paths stacked
    along a leading axis, shape (n_paths, n_points); the bond, shape
    (n_points,), is shared by every path.
    """

    grid: TimeGrid
    stock: np.ndarray
    bond: np.ndarray
    rate: float = 0.0

    def __post_init__(self):
        _freeze(self, ("stock",), self.grid.n_points, batch=True, rule="positive")
        _freeze(self, ("bond",), self.grid.n_points, rule="positive")
        if abs(self.bond[0] - 1.0) > 1e-12:
            raise ValueError("bond must be normalized to 1 at t=0")


def uniform_grid(horizon: float, steps: int) -> TimeGrid:
    """Equally spaced grid of `steps` intervals on [0, horizon]."""
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ValueError("horizon must be > 0")
    steps = _integer("steps", steps)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return TimeGrid(np.linspace(0.0, float(horizon), steps + 1))


def _seed(value) -> int:
    """`value` as a stream seed: an integer in [0, 2**128), the Philox key."""
    seed = _integer("seed", value)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if seed >= 2**128:
        raise ValueError("seed must be < 2**128 (it is the 128-bit Philox key)")
    return seed


class _PhiloxKey(ISeedSequence):
    """A seed's 128-bit Philox key as the seed sequence a Philox is built
    from: Philox reads its key from generate_state(2, np.uint64), so the
    key words pass through as they are. Philox(key=...) gives the same
    generator but also builds, and drops, an entropy SeedSequence, which
    costs more than a chunk's whole draw."""

    __slots__ = ("words",)

    def __init__(self, seed: int):
        self.words = np.array([seed % 2**64, seed >> 64], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _chunk_normals(key: _PhiloxKey, j: int, tag: tuple, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous `out` with the first out.size normals of chunk j
    of the stream (key, tag), and return it."""
    bitgen = np.random.Philox(key, counter=[0, j, *tag])
    return np.random.Generator(bitgen).standard_normal(out=out)


def _keyed_normals(key: tuple, shape: tuple, out=None) -> np.ndarray:
    """Standard normals of `shape` for the BrownianPath key (seed,
    path_index, *refinement lineage), in a new array or in `out` (C-contiguous
    rows; see accum._out): base increments for an empty lineage, else the
    bridge normals of its last refinement.

    path_index may be an integer array instead of an int: the result then
    stacks one row per index along a new leading axis, each bit for bit the
    single-path draw of that index. Each run of consecutive indices in one
    chunk draws that chunk once, up to the last row it needs, into a scratch
    of at most max(CHUNK_NORMALS, n) normals, and copies its rows out. One
    path draws its chunk only up to its own row.
    """
    seed, index, *lineage = key
    philox_key = _PhiloxKey(seed)
    tag = (0, 0)
    if lineage:
        tag = tuple(np.random.SeedSequence([_BRIDGE_SALT, *lineage]).generate_state(2, np.uint64).tolist())
    n = math.prod(shape)
    per_chunk = max(1, CHUNK_NORMALS // n)
    batch = isinstance(index, np.ndarray)
    out = _out(out, (*index.shape, *shape) if batch else shape)
    if not batch:
        if not 0 <= index < 2**32:
            raise ValueError("path indices must be in [0, 2**32)")
        j, row = divmod(index, per_chunk)
        if row == 0:
            return _chunk_normals(philox_key, j, tag, out)
        drawn = _chunk_normals(philox_key, j, tag, np.empty((row + 1) * n))
        out[...] = drawn[row * n :].reshape(shape)
        return out
    (n_paths,) = index.shape
    if n_paths and not 0 <= int(index.min()) <= int(index.max()) < 2**32:
        raise ValueError("path indices must be in [0, 2**32)")
    rows = np.reshape(out, (n_paths, n), copy=False)  # raises unless a view
    chunk, row = np.divmod(index, per_chunk)
    scratch = np.empty((per_chunk, n))
    starts = np.flatnonzero(np.diff(chunk, prepend=-1))
    ends = [*starts[1:].tolist(), n_paths]
    tops = np.maximum.reduceat(row, starts) + 1
    for a, b, j, top in zip(starts.tolist(), ends, chunk[starts].tolist(), tops.tolist()):
        if b - a == 1 and row[a] == 0:  # one path, its chunk's first row: no copy
            _chunk_normals(philox_key, j, tag, rows[a])
        else:
            rows[a:b] = _chunk_normals(philox_key, j, tag, scratch[:top])[row[a:b]]
    return out


def generate_brownian(grid: TimeGrid, seed: int, path_index: int | range = 0, *, out=None) -> BrownianPath:
    """Draw the increment sequence for one path, or for a range of paths.

    The draw is keyed by (seed, path_index), seed in [0, 2**128) and
    path_index in [0, 2**32): the same pair always yields bit-identical
    increments, and distinct pairs yield independent normals, regardless of
    call order or thread schedule. A range of path indices
    gives the batch BrownianPath whose row j is bit for bit the draw of
    path index path_index[j]. Given `out` (see accum._out), the increments
    are drawn into it and the BrownianPath is built on it without a copy,
    so it is valid only until `out` is rewritten.
    """
    if isinstance(path_index, range):
        index = np.arange(path_index.start, path_index.stop, path_index.step)
    else:
        index = _integer("path_index", path_index)
    key = (_seed(seed), index)
    z = _keyed_normals(key, (grid.n_points - 1,), out)
    z *= np.sqrt(grid.dt)
    return BrownianPath(grid, _Owned(z), key=key)


def _gbm_stock(params: GbmParams, w: BrownianPath, measure: str, out=None) -> np.ndarray:
    """s0 * exp((d - sigma^2/2) * t_k + sigma * W_k) for one path or a batch,
    in a new array or in `out` (see accum._out)."""
    if measure == "physical":
        drift = params.mu
    elif measure == "risk_neutral":
        drift = params.r
    else:
        raise ValueError(f"measure must be 'physical' or 'risk_neutral', got {measure!r}")
    t = w.grid.times
    x = comp_cumsum(w.increments, axis=-1, out=out)
    # In place, with each product and sum's operands swapped: IEEE + and *
    # commute, so this is bitwise the textbook formula.
    x *= params.sigma
    x += (drift - 0.5 * (params.sigma * params.sigma)) * t
    np.exp(x, out=x)
    x *= params.s0
    return x


def gbm_path(params: GbmParams, w: BrownianPath, measure: str, *, out=None) -> MarketPath:
    """Exact-scheme GBM stock path plus deterministic bond path.

    measure: "physical" uses drift mu, "risk_neutral" substitutes r.
    S_k = s0 * exp((d - sigma^2/2) * t_k + sigma * W_k) reproduces the
    step recurrence S_{k+1} = S_k * exp((d - sigma^2/2) dt_k + sigma dW_k)
    without compounding per-step rounding. A batch `w` gives the batch
    market of its paths. Given `out` (see accum._out), the stock is built
    in it and the MarketPath holds it without a copy, so it is valid only
    until `out` is rewritten.
    """
    # An overflow to inf, or the nan of inf * 0 at t = 0 that a sigma * sigma
    # overflow brings, is reported once, by MarketPath's positive-and-finite checks.
    with np.errstate(over="ignore", invalid="ignore"):
        stock = _gbm_stock(params, w, measure, out)
        bond = np.exp(params.r * w.grid.times)
    return MarketPath(grid=w.grid, stock=_Owned(stock), bond=_Owned(bond), rate=params.r)


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


def refine(grid: TimeGrid, w: BrownianPath, factor: int, *, out=None) -> tuple[TimeGrid, BrownianPath]:
    """Split every interval into `factor` pieces, bridging the increments.

    The sub-increments of each original step are drawn conditionally on
    summing to the original increment (Brownian bridge), so the refined
    path and the coarse path describe the same Brownian motion at shared
    instants. Original knots are kept bitwise in the new grid. A batch `w`
    is refined path by path, each with its own bridge normals. Given `out`
    (see accum._out), the sub-increments are drawn and bridged in it, and
    the refined BrownianPath is built on it without a copy, so it is valid
    only until `out` is rewritten.
    """
    grid.require_same(w.grid)
    m = _integer("factor", factor)
    if m < 2:
        raise ValueError("refinement factor must be >= 2")
    n_steps = grid.n_points - 1
    h = grid.dt
    key = (*w.key, m)
    lead = w.increments.shape[:-1]
    sub = _out(out, (*lead, n_steps * m), w.increments)
    xi = np.reshape(sub, (*lead, n_steps, m), copy=False)  # raises unless a view
    _bridge(_keyed_normals(key, (n_steps, m), xi), h, w.increments)

    offsets = np.arange(m) / m
    fine = grid.times[:-1, None] + h[:, None] * offsets[None, :]
    times = np.append(fine.reshape(-1), grid.times[-1])
    new_grid = TimeGrid(times)
    return new_grid, BrownianPath(new_grid, _Owned(sub), key=key)
