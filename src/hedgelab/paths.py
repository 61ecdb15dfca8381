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
i % K of the standard normals of chunk i // K, drawn from the Philox
counter [0, i // K, tag_0, tag_1] (four uint64 words). The tag is (0, 0)
for base increments; a bridge's tag is fixed by its refinement lineage, so
a refined path is likewise a pure function of its inputs. The bridge tag
words are SeedSequence([_BRIDGE_SALT, *lineage]).generate_state(2, uint64),
except that where either word is >= 2**63 both are rounded to the nearest
double and cast back to uint64: the stream was first drawn with the
counter passed to Philox as a list of ints, which numpy builds as float64
then, and the words keep those values (see _bridge_tag). A batch is drawn
by passing a range of consecutive ascending path indices,
generate_brownian(grid, seed, range(...)), and one path i is drawn as the
range(i, i + 1): every draw is the same walk over the chunks its indices
touch, drawing each once from one Philox generator, built before the
walk, whose counter is set for every chunk, so each row of a batch is bit
for bit the single-path draw. refine and gbm_path take the batch as they
take one path.

Every value type's arrays are checked and frozen by one rule, _freeze.

A TimeGrid keeps what depends on it alone, computed on first use: its
step lengths dt, their square roots and the bond path of the last rate
asked. `grid.dt` is therefore read-only and the same array on every read;
a caller that writes step lengths copies them first.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

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
    """A float64 array the library has just built, or the read-only array of
    another value, handed to a value type's constructor without the copy a
    caller's array gets: nothing else writes it. The object keeps a read-only view of it, so an object built on a
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


def _extremes(values) -> tuple:
    """The least and greatest of a number or an array of any shape: NaN
    if it holds a NaN (argmin and argmax stop at the first), and
    (inf, -inf) when it is empty. Cheaper than a ufunc reduction."""
    if isinstance(values, (int, float)):
        return values, values
    arr = np.asarray(values, dtype=float)
    if not arr.size:
        return math.inf, -math.inf
    return arr.item(arr.argmin()), arr.item(arr.argmax())


# The value rules of _freeze: the bound every value must exceed, and what
# the rule is called in its error.
_RULES = {"finite": (-math.inf, "finite"), "positive": (0.0, "positive and finite")}


def _freeze(obj, names: tuple[str, ...], points: int, *, batch: bool = False, rule: str | None = "finite") -> None:
    """The one array check of the value types: set each field in `names` of
    the frozen `obj` to its `_readonly` form, which must hold one value per
    grid point (or interval), shape (points,), or (n_paths, points) when
    `batch`, and obey `rule`: "finite", "positive" (positive and finite)
    or None. Each error names the field."""
    ndims = (1, 2) if batch else (1,)
    for name in names:
        arr = _readonly(getattr(obj, name))
        if arr.ndim not in ndims or arr.shape[-1] != points:
            shape = f"({points},) or (n_paths, {points})" if batch else f"({points},)"
            raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
        if rule is not None:
            bound, called = _RULES[rule]
            least, greatest = _extremes(arr)
            if not (least > bound and greatest < math.inf):
                raise ValueError(f"{name} values must be {called}")
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing instants in years, from 0 to the horizon T > 0.

    A grid is immutable, so what depends on it alone is computed once and
    kept on it: `n_points`, the read-only step lengths `dt`, their square
    roots, and the bond path of the last rate asked.
    """

    times: np.ndarray

    def __post_init__(self):
        t = _readonly(self.times)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("time grid needs at least 2 points")
        least, greatest = _extremes(t)
        if not (least > -math.inf and greatest < math.inf):
            raise ValueError("time grid values must be finite")
        if t[0] != 0.0:
            raise ValueError("time grid must start at 0")
        object.__setattr__(self, "times", t)
        if not _extremes(self.dt)[0] > 0.0:
            raise ValueError("time grid must be strictly increasing")

    @cached_property
    def n_points(self) -> int:
        return int(self.times.size)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @cached_property
    def dt(self) -> np.ndarray:
        """Step lengths, one per interval (read-only, the same array on every read)."""
        return _readonly(_Owned(self.times[1:] - self.times[:-1]))

    @cached_property
    def _sqrt_dt(self) -> np.ndarray:
        return _readonly(_Owned(np.sqrt(self.dt)))

    def _bond(self, rate: float) -> np.ndarray:
        """The read-only money-market path exp(rate * t_k), kept for the last
        rate asked (a race between threads computes the same bits twice)."""
        kept = self.__dict__.get("_kept_bond")
        if kept is None or kept[0] != rate:
            kept = (rate, _readonly(_Owned(np.exp(rate * self.times))))
            self.__dict__["_kept_bond"] = kept  # as cached_property stores, past the frozen __setattr__
        return kept[1]

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
    is the range of the rows' path indices. A malformed key raises
    ValueError (see _check_key).
    """

    grid: TimeGrid
    increments: np.ndarray
    key: tuple = (0, 0)

    def __post_init__(self):
        _freeze(self, ("increments",), self.grid.n_points - 1, batch=True)
        object.__setattr__(self, "key", _check_key(self.key))


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


def _path_indices(value) -> range:
    """`value`, a path index or a range of them, as the range of path
    indices it draws: an index in [0, 2**32), or a range of consecutive
    ascending ones below 2**32 (empty ranges draw nothing)."""
    if isinstance(value, range):
        paths = value
    else:
        index = _integer("path_index", value)
        paths = range(index, index + 1)
    if paths.step != 1:
        raise ValueError(f"a range of path indices must be consecutive and ascending, got {paths!r}")
    if paths and not 0 <= paths.start < paths.stop <= 2**32:
        raise ValueError("path indices must be in [0, 2**32)")
    return paths


def _check_key(key) -> tuple:
    """A BrownianPath key (seed, path_index, *factors) with its entries as
    ints: the seed in [0, 2**128), the path index or range of
    `_path_indices`, and each refinement factor an integer >= 2. Anything
    else raises a ValueError that names the key."""
    try:
        if not (isinstance(key, tuple) and len(key) >= 2):
            raise ValueError("must be a tuple (seed, path_index, *factors)")
        seed, index, *factors = key
        paths = _path_indices(index)
        checked = [_seed(seed), index if isinstance(index, range) else paths.start]
        for m in factors:
            m = _integer("refinement factor", m)
            if m < 2:
                raise ValueError("refinement factors must be >= 2")
            checked.append(m)
        return tuple(checked)
    except ValueError as exc:
        raise ValueError(f"key {key!r}: {exc}") from None


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


def _bridge_tag(lineage) -> tuple[int, int]:
    """The two counter words of the bridge normals of a refinement lineage
    (see the module docstring): SeedSequence([_BRIDGE_SALT, *lineage])'s two
    uint64 words, both rounded to the nearest double where either is
    >= 2**63, as numpy read them from the counter list they were first
    drawn with."""
    words = np.random.SeedSequence([_BRIDGE_SALT, *lineage]).generate_state(2, np.uint64)
    if words.max() >= 2**63:
        words = words.astype(np.float64).astype(np.uint64)
    return tuple(words.tolist())


def _chunk_normals(generator: np.random.Generator, words, j: int, tag: tuple, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous `out` with the first out.size normals of chunk j
    of the stream of key `words` and `tag`, and return it.

    The Philox `generator` is set to the state a Philox built at the
    counter [0, j, *tag] starts in: the key, that counter and an empty
    output buffer. It then draws the same normals as that new Philox, for a
    third of the cost of a build.
    """
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, j, *tag], "key": words},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # empty: the next draw computes a new block
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator.standard_normal(out=out)


def _keyed_normals(key: tuple, shape: tuple, out=None) -> np.ndarray:
    """Standard normals of `shape` for the BrownianPath key (seed,
    path_index, *refinement lineage), in a new array or in `out` (see
    accum._out): base increments for an empty lineage, else the bridge
    normals of its last refinement.

    path_index may be a range of consecutive ascending indices instead of
    an int: the result then stacks one row per index along a new leading
    axis. One path i is the range(i, i + 1), so every draw is one walk over
    the chunks its indices touch, each drawn once, up to the last row it
    needs: straight into the rows of `out` when the run starts on the
    chunk's first row and those rows are C-contiguous, else into a scratch
    whose rows from the run's first one are copied out. The draw builds one
    Philox generator before the walk and sets it to every chunk's counter
    (see _chunk_normals). A stepped or descending range raises ValueError
    before anything is drawn.
    """
    seed, index, *lineage = key
    paths = _path_indices(index)
    philox_key = _PhiloxKey(seed)
    generator = np.random.Generator(np.random.Philox(philox_key))
    tag = _bridge_tag(lineage) if lineage else (0, 0)
    n = math.prod(shape)
    per_chunk = max(1, CHUNK_NORMALS // n)
    out = _out(out, (len(paths), *shape) if isinstance(index, range) else shape)
    rows = out.reshape(len(paths), n, copy=False)  # raises unless a view
    # The chunks from the first index's to the last's; none for an empty range, range(5, 3) too.
    for j in range(paths.start // per_chunk, -(-paths.stop // per_chunk) if paths else 0):
        first = j * per_chunk
        lo, hi = max(paths.start, first), min(paths.stop, first + per_chunk)
        dest = rows[lo - paths.start : hi - paths.start]
        if lo == first and dest.flags.c_contiguous:
            _chunk_normals(generator, philox_key.words, j, tag, dest)
        else:
            dest[...] = _chunk_normals(generator, philox_key.words, j, tag, np.empty((hi - first, n)))[lo - first :]
    return out


def generate_brownian(grid: TimeGrid, seed: int, path_index: int | range = 0, *, out=None) -> BrownianPath:
    """Draw the increment sequence for one path, or for a range of paths.

    The draw is keyed by (seed, path_index), seed in [0, 2**128) and
    path_index in [0, 2**32): the same pair always yields bit-identical
    increments, and distinct pairs yield independent normals, regardless of
    call order or thread schedule. A range of consecutive ascending path
    indices gives the batch BrownianPath whose row j is bit for bit the
    draw of path index path_index[j]; a stepped or descending range raises
    ValueError. Given `out` (see accum._out), the increments are drawn into
    it and the BrownianPath is built on it without a copy, so it is valid
    only until `out` is rewritten.
    """
    key = (_seed(seed), path_index)
    z = _keyed_normals(key, (grid.n_points - 1,), out)  # checks path_index before drawing
    z *= grid._sqrt_dt
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
    x = comp_cumsum(w.increments, out=out)
    # In place, with each product and sum's operands swapped: IEEE + and *
    # commute, so this is bitwise the textbook formula.
    x *= params.sigma
    x += (drift - 0.5 * (params.sigma * params.sigma)) * t
    np.exp(x, out=x)
    x *= params.s0
    return x


# An overflow to inf, or the nan of inf * 0 at t = 0 that a sigma * sigma
# overflow brings, is reported once, by MarketPath's positive-and-finite checks.
@np.errstate(over="ignore", invalid="ignore")
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
    stock = _gbm_stock(params, w, measure, out)
    return MarketPath(grid=w.grid, stock=_Owned(stock), bond=_Owned(w.grid._bond(params.r)), rate=params.r)


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
