"""The `out=` contract of the kernels and the ownership rule of the value types.

A kernel given `out` writes there the bits it would allocate, returns `out`
itself, and refuses a wrong shape or dtype, or an `out` that overlaps an
input, before writing anything. A public constructor copies the caller's
array; only the library's builders hand over an array they just made.
"""

import numpy as np
import pytest

from hedgelab import accum
from hedgelab.accum import comp_cumsum
from hedgelab.calculus import SampledSeries
from hedgelab.ledger import LedgerReport, complete_bond, defect_series
from hedgelab.paths import (
    BrownianPath,
    GbmParams,
    MarketPath,
    TimeGrid,
    _gbm_stock,
    _keyed_normals,
    _Owned,
    gbm_path,
    generate_brownian,
    refine,
    uniform_grid,
)
from hedgelab.strategies import (
    EuropeanCall,
    HoldingsSchedule,
    bs_delta,
    constant_mix_holdings,
    delta_hedge_holdings,
    delta_stock_holdings,
)

PARAMS = GbmParams(100.0, 0.05, 0.2, 0.03)
GRID = uniform_grid(1.0, 16)
OPTION = EuropeanCall(100.0, 1.0)
RNG = np.random.default_rng(5)


def _batch():
    """A writable three-path market: stock, bond, delta holdings a, bond holdings b, y0."""
    mkt = gbm_path(PARAMS, generate_brownian(GRID, 7, range(3)), "physical")
    stock, bond = mkt.stock.copy(), mkt.bond.copy()
    a, y0 = delta_stock_holdings(OPTION, stock, GRID.times, PARAMS.r, PARAMS.sigma)
    return stock, bond, a, complete_bond(a, stock, bond, y0), y0


STOCK, BOND, A, B, Y0 = _batch()
TAU = OPTION.expiry - GRID.times[:-1]


def _shared_buffer(x):
    """A writable copy of x and a (x.size + 8,) array whose memory holds it."""
    buf = np.empty(x.size + 8)
    held = buf[: x.size].reshape(x.shape)
    held[...] = x
    return held, buf


# name -> (call(inputs, out), inputs, out shapes). The inputs are writable
# arrays, so an overlapping out can be built from their memory.
KERNELS = {
    "comp_cumsum-1d": (lambda x, out: comp_cumsum(x[0], out=out), [RNG.standard_normal(9)], [(10,)]),
    "comp_cumsum-2d": (lambda x, out: comp_cumsum(x[0], out=out), [RNG.standard_normal((4, 9))], [(4, 10)]),
    "comp_cumsum-3d": (lambda x, out: comp_cumsum(x[0], out=out), [RNG.standard_normal((2, 3, 9))], [(2, 3, 10)]),
    "bs_delta": (
        lambda x, out: bs_delta(x[0], OPTION.strike, PARAMS.sigma, PARAMS.r, TAU, out=out),
        [STOCK[:, :-1].copy()], [STOCK[:, :-1].shape],
    ),
    "delta_stock_holdings": (
        lambda x, out: delta_stock_holdings(OPTION, x[0], GRID.times, PARAMS.r, PARAMS.sigma, out=out)[0],
        [STOCK.copy()], [STOCK.shape],
    ),
    # The market holds the input stock without a copy, so an out can overlap it.
    "delta_hedge_holdings": (
        lambda x, out: delta_hedge_holdings(
            OPTION, MarketPath(GRID, _Owned(x[0]), BOND, PARAMS.r), PARAMS.sigma, out=out
        ),
        [STOCK.copy()], [STOCK.shape] * 2,
    ),
    "complete_bond": (lambda x, out: complete_bond(x[0], x[1], BOND, Y0, out=out), [A.copy(), STOCK.copy()], [A.shape]),
    "defect_series": (
        lambda x, out: defect_series(x[0], x[1], x[2], BOND, out=out),
        [A.copy(), B.copy(), STOCK.copy()], [A.shape] * 3,
    ),
    "constant_mix_holdings": (
        lambda x, out: constant_mix_holdings(x[0], BOND, 0.6, 100.0, out=out), [STOCK.copy()], [STOCK.shape] * 2,
    ),
}


def _pack(arrays):
    return arrays[0] if len(arrays) == 1 else tuple(arrays)


def _unpack(result):
    return list(result) if isinstance(result, tuple) else [result]


@pytest.mark.parametrize("name", KERNELS)
def test_out_gets_the_allocating_bits_and_is_returned(name):
    call, inputs, shapes = KERNELS[name]
    want = _unpack(call(inputs, None))
    outs = [np.full(shape, np.nan) for shape in shapes]
    got = _unpack(call(inputs, _pack(outs)))
    assert all(g is o for g, o in zip(got, outs))
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("name", KERNELS)
def test_out_of_wrong_shape_or_dtype_is_refused(name):
    call, inputs, shapes = KERNELS[name]
    for bad in ((*shapes[0][:-1], shapes[0][-1] + 1), None):
        outs = [np.empty(shape) for shape in shapes]
        outs[0] = np.empty(shapes[0], dtype=np.float32) if bad is None else np.empty(bad)
        with pytest.raises(ValueError, match="out must be a float64 array"):
            call(inputs, _pack(outs))


@pytest.mark.parametrize("name", KERNELS)
def test_out_overlapping_an_input_is_refused_before_writing(name):
    call, inputs, shapes = KERNELS[name]
    for i in range(len(inputs)):
        inputs_i = list(inputs)
        inputs_i[i], buf = _shared_buffer(inputs[i])
        before = buf.copy()
        # The last shape-sized window of the buffer: it overlaps the input
        # without being the in-place form comp_cumsum accepts.
        window = buf[buf.size - int(np.prod(shapes[0])) :].reshape(shapes[0])
        outs = [window] + [np.empty(shape) for shape in shapes[1:]]
        with pytest.raises(ValueError, match="overlap"):
            call(inputs_i, _pack(outs))
        assert buf.tobytes() == before.tobytes()


def test_defect_series_outs_must_not_overlap_each_other():
    outs = [np.empty(A.shape) for _ in range(3)]
    outs[2] = outs[0][::-1]
    with pytest.raises(ValueError, match="overlap"):
        defect_series(A, B, STOCK, BOND, out=tuple(outs))


def test_read_only_out_is_refused():
    out = np.empty(10)
    out.setflags(write=False)
    with pytest.raises(ValueError, match="writeable"):
        comp_cumsum(np.ones(9), out=out)


# The 3d-strided out is a 3-D view whose lines do not flatten in place: the
# sums are built in a copy of its lines and copied back. The last out is a
# 64-step study block at 2 lanes.
@pytest.mark.parametrize(
    "out_of",
    [
        lambda: np.empty(10),
        lambda: np.empty((7, 10)),
        lambda: np.empty((2, 3, 10)),
        lambda: np.empty((3, 2, 12)).transpose(1, 0, 2)[..., :10],
        lambda: np.empty((2016, 65)),
    ],
    ids=["1d", "2d", "3d", "3d-strided", "2016x64"],
)
@pytest.mark.parametrize(
    "block_elements", [16, 1 << 15, accum.BLOCK_ELEMENTS], ids=["2-row-blocks", "2**15", "one-block"]
)
def test_comp_cumsum_accumulates_terms_held_in_its_out(monkeypatch, out_of, block_elements):
    # 16-element blocks hold 2 rows of 10, so 7 lines end on a short block.
    # The 2016 lines of 64 terms run in blocks of 505 lines at 2**15, and of
    # 1009 and 1007 at BLOCK_ELEMENTS (one block for the smaller outs): the
    # bits are those of the allocating call at BLOCK_ELEMENTS whatever the
    # block size.
    out = out_of()
    out[...] = np.nan
    tail = out[..., 1:]
    terms = RNG.standard_normal(tail.shape) * 10.0 ** RNG.integers(-3, 4, size=tail.shape)
    want = comp_cumsum(terms)
    monkeypatch.setattr(accum, "BLOCK_ELEMENTS", block_elements)
    tail[...] = terms
    assert comp_cumsum(tail, out=out) is out
    assert out.tobytes() == want.tobytes()


def test_keyed_normals_out_gets_the_allocating_draw():
    for key, shape in (((3, range(4)), (5,)), ((3, 1), (5, 2))):
        want = _keyed_normals(key, shape)
        out = np.full(want.shape, np.nan)
        assert _keyed_normals(key, shape, out) is out
        assert out.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="out must be a float64 array"):
            _keyed_normals(key, shape, np.empty(want.shape, dtype=np.float32))


def test_gbm_stock_out_gets_the_allocating_bits_and_refuses_overlap():
    w = generate_brownian(GRID, 7, range(3))
    want = _gbm_stock(PARAMS, w, "physical")
    out = np.full(want.shape, np.nan)
    assert _gbm_stock(PARAMS, w, "physical", out) is out
    assert out.tobytes() == want.tobytes()
    # Increments drawn into the stock's entries 1.. are accumulated in place.
    buf = np.full(want.shape, np.nan)
    held = generate_brownian(GRID, 7, range(3), out=buf[:, 1:])
    assert _gbm_stock(PARAMS, held, "physical", buf) is buf
    assert buf.tobytes() == want.tobytes()
    # Any other overlap is refused.
    held = generate_brownian(GRID, 7, range(3), out=buf[:, :-1])
    with pytest.raises(ValueError, match="overlap"):
        _gbm_stock(PARAMS, held, "physical", buf)


def test_builders_draw_and_build_in_out_without_a_copy():
    _, fine = refine(GRID, generate_brownian(GRID, 7, range(3)), 4)
    market = gbm_path(PARAMS, fine, "physical")
    draw, bridge, stock = np.empty((3, 16)), np.empty((3, 64)), np.empty((3, 65))
    w = generate_brownian(GRID, 7, range(3), out=draw)
    _, w_fine = refine(GRID, w, 4, out=bridge)
    m = gbm_path(PARAMS, w_fine, "physical", out=stock)
    for built, buf, want in ((w_fine.increments, bridge, fine.increments), (m.stock, stock, market.stock)):
        assert np.shares_memory(built, buf)
        assert not built.flags.writeable
        assert built.tobytes() == want.tobytes()
    assert np.shares_memory(w.increments, draw)
    buf = np.empty((3, 80))
    w = generate_brownian(GRID, 7, range(3), out=buf[:, :16])
    with pytest.raises(ValueError, match="overlap"):
        refine(GRID, w, 4, out=buf[:, 10:74])


def _mutated_after_construction(make, field, values):
    """Build with `values`, then rewrite them: the object must not change."""
    obj = make(values)
    before = getattr(obj, field).copy()
    values *= -1.0
    values += 7.0
    return getattr(obj, field), before


@pytest.mark.parametrize(
    "make, field, values",
    [
        (TimeGrid, "times", np.linspace(0.0, 1.0, 5)),
        (lambda v: BrownianPath(GRID, v), "increments", RNG.standard_normal(16)),
        (lambda v: BrownianPath(GRID, v), "increments", RNG.standard_normal((3, 16))),
        (lambda v: MarketPath(GRID, v, BOND), "stock", STOCK.copy()),
        (lambda v: MarketPath(GRID, STOCK[0], v), "bond", BOND.copy()),
        (lambda v: HoldingsSchedule(GRID, v, B[0]), "a", A[0].copy()),
        (lambda v: HoldingsSchedule(GRID, A[0], v), "b", B[0].copy()),
    ],
    ids=["grid", "brownian", "brownian-batch", "market-stock", "market-bond", "holdings-a", "holdings-b"],
)
def test_public_constructors_copy_the_callers_array(make, field, values):
    held, before = _mutated_after_construction(make, field, values)
    assert held.tobytes() == before.tobytes()
    assert not np.shares_memory(held, values)


# name -> (make(values), field, valid values, rule). Each builds one value
# type with `values` in that field and valid arrays in the others.
VALUE_FIELDS = {
    "brownian-increments": (lambda v: BrownianPath(GRID, v), "increments", RNG.standard_normal((3, 16)), "finite"),
    "market-stock": (lambda v: MarketPath(GRID, v, BOND), "stock", STOCK.copy(), "positive"),
    "market-bond": (lambda v: MarketPath(GRID, STOCK[0], v), "bond", BOND.copy(), "positive"),
    "series-values": (lambda v: SampledSeries(GRID, v), "values", A[0].copy(), "finite"),
    "holdings-a": (lambda v: HoldingsSchedule(GRID, v, B[0]), "a", A[0].copy(), "finite"),
    "holdings-b": (lambda v: HoldingsSchedule(GRID, A[0], v), "b", B[0].copy(), "finite"),
    "ledger-value": (lambda v: LedgerReport(GRID, v, A[0], B[0]), "value", A[0].copy(), None),
    "ledger-gain": (lambda v: LedgerReport(GRID, A[0], v, B[0]), "gain", A[0].copy(), None),
    "ledger-defect": (lambda v: LedgerReport(GRID, A[0], B[0], v), "defect", A[0].copy(), None),
}


@pytest.mark.parametrize("name", VALUE_FIELDS)
def test_one_freeze_rule_checks_every_value_field(name):
    make, field, good, rule = VALUE_FIELDS[name]
    assert getattr(make(good), field).tobytes() == good.tobytes()
    batch = good.ndim == 2
    wrong_shapes = [good[..., :-1], good[None], np.float64(1.0)] + ([] if batch else [np.stack([good, good])])
    for bad in wrong_shapes:
        with pytest.raises(ValueError, match=f"^{field} must have shape"):
            make(bad)
    for x in (np.nan, np.inf, -np.inf) + ((0.0, -1.0) if rule == "positive" else ()):
        bad = good.copy()
        bad[..., 1] = x
        if rule is None:
            assert getattr(make(bad), field).tobytes() == bad.tobytes()
            continue
        with pytest.raises(ValueError) as exc:
            make(bad)
        tail = "positive and finite" if rule == "positive" else "finite"
        # For the stock this is the CLI's "stock values must be positive and finite".
        assert str(exc.value) == f"{field} values must be {tail}"
