import math

import numpy as np
import pytest

from hedgelab import paths
from hedgelab.experiments import ExperimentConfig
from hedgelab.paths import (
    BrownianPath,
    GbmParams,
    MarketPath,
    TimeGrid,
    generate_brownian,
    gbm_path,
    refine,
    uniform_grid,
)
from hedgelab.strategies import inject_cash

from conftest import make_market


def test_uniform_grid_spacing():
    assert np.array_equal(uniform_grid(1.0, 4).times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(uniform_grid(2.0, 1).times, [0.0, 2.0])
    assert np.array_equal(uniform_grid(0.5, 2).times, [0.0, 0.25, 0.5])


def test_uniform_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        uniform_grid(0.0, 4)
    with pytest.raises(ValueError):
        uniform_grid(-1.0, 4)
    with pytest.raises(ValueError):
        uniform_grid(1.0, 0)


def test_time_grid_invariants():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.1, 0.5]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, np.inf]))


def test_time_grid_dt_is_one_read_only_array():
    grid = uniform_grid(1.0, 4)
    assert grid.dt is grid.dt
    assert np.array_equal(grid.dt, np.diff(grid.times))
    with pytest.raises(ValueError):
        grid.dt[0] = 1.0


def test_zero_path_batch_builds_empty_arrays():
    # The value rules pass an empty batch, as np.all of nothing is True.
    grid = uniform_grid(1.0, 8)
    w = generate_brownian(grid, 0, range(0))
    assert w.increments.shape == (0, 8)
    assert gbm_path(GbmParams(100.0, 0.05, 0.2, 0.05), w, "physical").stock.shape == (0, 9)


@pytest.mark.parametrize("batch", [False, True], ids=["path", "batch"])
@pytest.mark.parametrize(
    "value, positive",
    [(-0.0, False), (0.0, False), (5e-324, True), (-5e-324, False)],
    ids=["-0.0", "+0.0", "smallest subnormal", "negative subnormal"],
)
def test_stock_at_zero_and_at_the_smallest_subnormal(value, positive, batch):
    stock = np.full(5, 100.0)
    stock[3] = value
    if batch:
        stock = np.stack([np.full(5, 100.0), stock])
    grid, bond = uniform_grid(1.0, 4), np.ones(5)
    if positive:
        assert MarketPath(grid, stock, bond).stock.tobytes() == stock.tobytes()
    else:
        with pytest.raises(ValueError, match="^stock values must be positive and finite$"):
            MarketPath(grid, stock, bond)


def test_market_path_refuses_a_bond_not_normalized_to_one():
    grid = uniform_grid(1.0, 4)
    with pytest.raises(ValueError, match="^bond must be normalized to 1 at t=0$"):
        MarketPath(grid, np.full(5, 100.0), np.linspace(1.5, 2.0, 5))


def test_brownian_determinism_and_independence():
    grid = uniform_grid(1.0, 32)
    w1 = generate_brownian(grid, seed=1, path_index=0)
    w2 = generate_brownian(grid, seed=1, path_index=0)
    assert np.array_equal(w1.increments, w2.increments)
    w3 = generate_brownian(grid, seed=1, path_index=1)
    assert not np.array_equal(w1.increments, w3.increments)
    w4 = generate_brownian(grid, seed=2, path_index=0)
    assert not np.array_equal(w1.increments, w4.increments)


def test_brownian_increment_variance_matches_step():
    # law of large numbers: 1e6 draws with dt = 0.01
    grid = uniform_grid(10_000.0, 1_000_000)
    w = generate_brownian(grid, seed=123)
    var = float(np.var(w.increments))
    assert abs(var - 0.01) < 0.01 * 0.01, f"sample variance {var} not within 1% of 0.01"


def test_gbm_deterministic_limit():
    # sigma = 0 collapses to s0 * exp(mu * t)
    mp = make_market(sigma=0.0, mu=0.1, r=0.0, steps=8)
    expected = 100.0 * math.exp(0.1)
    assert mp.stock[-1] == pytest.approx(expected, rel=1e-12)
    expected_path = 100.0 * np.exp(0.1 * mp.grid.times)
    np.testing.assert_allclose(mp.stock, expected_path, rtol=1e-12)


def test_gbm_zero_noise_carries_vol_drag():
    grid = uniform_grid(1.0, 4)
    w = BrownianPath(grid, np.zeros(4))
    params = GbmParams(s0=100.0, mu=0.0, sigma=0.2, r=0.0)
    mp = gbm_path(params, w, "physical")
    assert mp.stock[-1] == pytest.approx(100.0 * math.exp(-0.02), rel=1e-12)


def test_risk_neutral_measure_substitutes_drift():
    grid = uniform_grid(1.0, 16)
    w = generate_brownian(grid, seed=5)
    rn = gbm_path(GbmParams(100.0, 0.3, 0.0, 0.05), w, "risk_neutral")
    phys = gbm_path(GbmParams(100.0, 0.05, 0.0, 0.05), w, "physical")
    assert np.array_equal(rn.stock, phys.stock)
    with pytest.raises(ValueError):
        gbm_path(GbmParams(100.0, 0.3, 0.0, 0.05), w, "real_world")


def test_bond_ratio_invariant(market):
    r = 0.05
    ratios = market.bond[1:] / market.bond[:-1]
    np.testing.assert_allclose(ratios, np.exp(r * market.grid.dt), rtol=1e-12)
    assert market.bond[0] == 1.0


def test_gbm_matches_step_recurrence(market):
    # closed form vs explicit per-step compounding
    params = GbmParams(100.0, 0.05, 0.2, 0.05)
    inc = generate_brownian(market.grid, 0, 0).increments
    s = [100.0]
    for dt, dw in zip(market.grid.dt, inc):
        s.append(s[-1] * math.exp((params.mu - 0.5 * params.sigma**2) * dt + params.sigma * dw))
    np.testing.assert_allclose(market.stock, s, rtol=1e-12)


def test_refine_requires_factor_two():
    grid = uniform_grid(1.0, 4)
    w = generate_brownian(grid, 0)
    with pytest.raises(ValueError):
        refine(grid, w, 1)


def test_refine_requires_the_paths_grid():
    w = generate_brownian(uniform_grid(1.0, 8), 1, 0)
    with pytest.raises(ValueError, match="operands live on different time grids"):
        refine(uniform_grid(4.0, 8), w, 4)


def test_refine_keeps_original_knots_and_totals():
    grid = uniform_grid(1.0, 8)
    w = generate_brownian(grid, seed=3)
    fine_grid, fine_w = refine(grid, w, 4)
    assert fine_grid.n_points == 8 * 4 + 1
    assert np.array_equal(fine_grid.times[::4], grid.times)
    sums = fine_w.increments.reshape(8, 4).sum(axis=1)
    np.testing.assert_allclose(sums, w.increments, rtol=1e-12, atol=1e-15)


def test_refine_unit_step_bridge_constraint():
    grid = TimeGrid(np.array([0.0, 1.0]))
    w = BrownianPath(grid, np.array([0.5]))
    _, fine = refine(grid, w, 2)
    assert fine.increments.size == 2
    assert fine.increments.sum() == pytest.approx(0.5, rel=1e-12)


def test_refine_is_deterministic():
    grid = uniform_grid(1.0, 4)
    w = generate_brownian(grid, seed=9, path_index=2)
    _, f1 = refine(grid, w, 2)
    _, f2 = refine(grid, w, 2)
    assert np.array_equal(f1.increments, f2.increments)
    _, f3 = refine(grid, w, 3)
    assert f3.increments.size != f1.increments.size


def test_bridge_conditional_variance():
    # conditional on a fixed step total, the first sub-increment of a split
    # unit step has variance dt_sub * (1 - dt_sub) = 0.25
    grid = TimeGrid(np.array([0.0, 1.0]))
    # one batch keyed by path index: row i draws what key (77, i) draws alone
    w = BrownianPath(grid, np.full((100_000, 1), 0.5), key=(77, range(100_000)))
    _, fine = refine(grid, w, 2)
    firsts = fine.increments[:, 0]
    var = float(np.var(firsts))
    assert abs(var - 0.25) < 0.02 * 0.25, f"bridge variance {var} not within 2% of 0.25"
    assert abs(np.mean(firsts) - 0.25) < 0.01


def test_refine_subsample_reproduces_stock():
    # sigma = 0: bitwise agreement at shared instants
    params0 = GbmParams(100.0, 0.07, 0.0, 0.03)
    grid = uniform_grid(1.0, 16)
    w = generate_brownian(grid, seed=21)
    coarse = gbm_path(params0, w, "physical")
    fine_grid, fine_w = refine(grid, w, 4)
    fine = gbm_path(params0, fine_w, "physical")
    assert np.array_equal(fine.stock[::4], coarse.stock)

    # sigma > 0: relative error <= 1e-12
    params = GbmParams(100.0, 0.07, 0.25, 0.03)
    coarse = gbm_path(params, w, "physical")
    fine = gbm_path(params, fine_w, "physical")
    np.testing.assert_allclose(fine.stock[::4], coarse.stock, rtol=1e-12)


def test_gbm_params_invariants():
    with pytest.raises(ValueError):
        GbmParams(s0=0.0, mu=0.0, sigma=0.2, r=0.0)
    with pytest.raises(ValueError):
        GbmParams(s0=100.0, mu=0.0, sigma=-0.1, r=0.0)


def test_values_are_immutable(market):
    with pytest.raises(ValueError):
        market.stock[0] = 1.0
    with pytest.raises(ValueError):
        market.grid.times[0] = 1.0


def _market(params, grid, factor, paths, seed, measure):
    """The batch market of `paths` on `grid` refined by `factor`, and its increments."""
    w = generate_brownian(grid, seed, paths)
    if factor > 1:
        grid, w = refine(grid, w, factor)
    return gbm_path(params, w, measure), w


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 + 5, 2**70 + 3])
def test_range_draw_is_bitwise_the_per_path_reference(seed):
    # seeds above 2**64 fill the high word of the 128-bit Philox key
    params = GbmParams(100.0, 0.07, 0.3, 0.03)
    for factor in (1, 2, 3, 16):
        for measure in ("physical", "risk_neutral"):
            for steps, n_paths in ((7, 5), (4, 1)):
                grid = uniform_grid(1.0, steps)
                mkt, _ = _market(params, grid, factor, range(n_paths), seed, measure)
                assert mkt.stock.shape == (n_paths, mkt.grid.n_points)
                for i in range(n_paths):
                    ref_grid, w = grid, generate_brownian(grid, seed, i)
                    if factor > 1:
                        ref_grid, w = refine(grid, w, factor)
                    ref = gbm_path(params, w, measure)
                    assert np.array_equal(ref.stock, mkt.stock[i])
                    assert np.array_equal(ref.bond, mkt.bond)
                assert np.array_equal(mkt.grid.times, ref_grid.times)


# range(40, 45) crosses a chunk boundary of the factor-4 bridge (42 paths a chunk).
@pytest.mark.parametrize("paths", [range(3, 9), range(40, 45), range(5, 6)])
def test_path_range_returns_each_paths_stock_and_increments(paths):
    params = GbmParams(100.0, 0.07, 0.3, 0.03)
    grid = uniform_grid(1.0, 6)
    for factor in (1, 4):
        for measure in ("physical", "risk_neutral"):
            mkt, drawn = _market(params, grid, factor, paths, 11, measure)
            assert mkt.stock.shape == (len(paths), mkt.grid.n_points)
            assert drawn.increments.shape == (len(paths), mkt.grid.n_points - 1)
            for row, i in enumerate(paths):
                w = generate_brownian(grid, 11, i)
                if factor > 1:
                    w = refine(grid, w, factor)[1]
                assert np.array_equal(drawn.increments[row], w.increments)
                assert np.array_equal(mkt.stock[row], gbm_path(params, w, measure).stock)


def test_batch_underflow_is_rejected_like_market_path():
    params = GbmParams(100.0, 0.05, 40.0, 0.05)
    grid = uniform_grid(1.0, 8)
    with pytest.raises(ValueError, match="stock values must be positive and finite"):
        gbm_path(params, generate_brownian(grid, 0), "physical")
    with pytest.raises(ValueError, match="stock values must be positive and finite"):
        gbm_path(params, generate_brownian(grid, 0, range(4)), "physical")


@pytest.mark.parametrize(
    "call",
    [
        lambda grid: uniform_grid(1.0, 2.5),
        lambda grid: refine(grid, generate_brownian(grid, 0), 2.9),
        lambda grid: generate_brownian(grid, 1.7),
        lambda grid: generate_brownian(grid, 1, 0.5),
        lambda grid: inject_cash(np.zeros(5), np.ones(5), 1.0, 2.9),
    ],
    ids=[
        "uniform_grid steps", "refine factor", "generate_brownian seed", "generate_brownian path_index",
        "inject_cash at_index",
    ],
)
def test_integer_arguments_refuse_non_integers(call):
    # int() would truncate each of these to a valid but different request
    with pytest.raises(ValueError, match="must be an integer"):
        call(uniform_grid(1.0, 4))


# Stream 2 pins: numpy does not promise that Generator.standard_normal stays
# the same across releases, so a silent change of the stream must fail here.
_GOLDEN = {
    0: [0.11934952954712309, -0.2765330142680371, -0.11173178124806517],
    15: [-0.18642327150445925, -0.08329524090099602, -0.03792779692816097],
    16: [0.5484658921954447, -0.017192284756747517, -0.14262120086889624],
    1023: [0.2522474266059989, -0.12803555172391523, -0.14522648003221786],
}
_GOLDEN_BRIDGE = [-0.239684243290461, 0.19271662518981775, -0.003486695887519615, 0.16980384353528596]


def test_stream_2_golden_increments():
    # 8 steps: 128 paths a chunk, so 0, 15 and 16 share chunk 0 and 1023 is
    # the last row of chunk 7
    grid = uniform_grid(1.0, 8)
    for i, want in _GOLDEN.items():
        assert generate_brownian(grid, 42, i).increments[:3].tolist() == want, i
    _, fine = refine(grid, generate_brownian(grid, 42, 0), 4)
    assert fine.increments[:4].tolist() == _GOLDEN_BRIDGE


@pytest.mark.parametrize(
    "steps, factor, paths",
    [
        (8, 1, range(100, 300)),  # 128 paths a chunk: starts and stops mid-chunk
        (8, 1, range(5, 700)),  # whole chunks between two partial ones
        (8, 1, range(128, 384)),  # two whole chunks
        (8, 1, range(127, 129)),  # the two rows either side of a chunk boundary
        (300, 1, range(1, 11)),  # 3 paths a chunk
        (1024, 1, range(3, 7)),  # one path a chunk
        (1500, 1, range(2, 9)),  # one path a chunk, longer than a chunk
        (8, 4, range(20, 90)),  # bridge of 32 normals a path: 32 paths a chunk
        (64, 16, range(0, 5)),  # bridge of 1024 normals a path: one a chunk
    ],
)
def test_batch_rows_are_the_single_path_draw_across_chunk_boundaries(steps, factor, paths):
    grid = uniform_grid(1.0, steps)
    w = generate_brownian(grid, 9, paths)
    if factor > 1:
        w = refine(grid, w, factor)[1]
    for row, i in enumerate(paths):
        single = generate_brownian(grid, 9, i)
        if factor > 1:
            single = refine(grid, single, factor)[1]
        assert w.increments[row].tobytes() == single.increments.tobytes(), i


def _recording_chunks(monkeypatch):
    """Patch paths._chunk_normals to record the `out` of every chunk drawn."""
    outs = []
    chunk_normals = paths._chunk_normals

    def recording(generator, words, j, tag, out):
        outs.append(out)
        return chunk_normals(generator, words, j, tag, out)

    monkeypatch.setattr(paths, "_chunk_normals", recording)
    return outs


@pytest.mark.parametrize(
    "steps, factor, index, drawn",
    [
        (8, 1, 0, 8),
        (8, 1, 127, 1024),  # the last row of a 128-path chunk
        (8, 1, 200, 73 * 8),
        (300, 1, 5, 900),
        (1500, 1, 4, 1500),
        (8, 4, 31, 1024),  # bridge: the last row of a 32-path chunk
        (64, 16, 3, 1024),
    ],
)
def test_single_path_draws_at_most_its_chunk_up_to_its_row(monkeypatch, steps, factor, index, drawn):
    grid = uniform_grid(1.0, steps)
    w = generate_brownian(grid, 4, index)
    outs = _recording_chunks(monkeypatch)
    if factor == 1:
        generate_brownian(grid, 4, index)
    else:
        refine(grid, w, factor)
    n = steps * factor
    assert [o.size for o in outs] == [drawn] and drawn <= max(paths.CHUNK_NORMALS, n)


def test_every_chunk_is_drawn_into_its_own_scratch(monkeypatch):
    grid = uniform_grid(1.0, 8)  # 128 paths a chunk
    outs = _recording_chunks(monkeypatch)
    w = generate_brownian(grid, 5, range(256, 556), out=np.empty((300, 8)))
    assert [o.size for o in outs] == [128 * 8, 128 * 8, 44 * 8]
    assert not any(np.shares_memory(o, w.increments) for o in outs)
    outs.clear()
    w = generate_brownian(grid, 5, range(100, 200), out=np.empty((100, 8)))
    assert [o.size for o in outs] == [128 * 8, 72 * 8]
    assert not any(np.shares_memory(o, w.increments) for o in outs)


@pytest.mark.parametrize(
    "indices, message",
    [
        (range(0, 10, 2), "consecutive and ascending"),
        (range(10, 0, -1), "consecutive and ascending"),
        (range(3, 4, 5), "consecutive and ascending"),  # one index, but stepped
        (-1, r"must be in \[0, 2\*\*32\)"),
        (2**32, r"must be in \[0, 2\*\*32\)"),
        (range(2**32 - 1, 2**32 + 1), r"must be in \[0, 2\*\*32\)"),
    ],
    ids=["stepped", "descending", "one-index-stepped", "negative", "2**32", "range-past-2**32"],
)
def test_bad_path_indices_are_refused_before_any_draw(monkeypatch, indices, message):
    grid = uniform_grid(1.0, 8)
    outs = _recording_chunks(monkeypatch)
    with pytest.raises(ValueError, match=message):
        generate_brownian(grid, 5, indices)
    increments = np.zeros((len(indices), 8) if isinstance(indices, range) else 8)
    with pytest.raises(ValueError, match=message):
        refine(grid, BrownianPath(grid, increments, key=(5, indices)), 2)
    assert outs == []


@pytest.mark.parametrize("indices", [range(0), range(5, 3)], ids=["range(0)", "range(5, 3)"])
def test_empty_range_draws_nothing(monkeypatch, indices):
    grid = uniform_grid(1.0, 8)
    outs = _recording_chunks(monkeypatch)
    w = generate_brownian(grid, 5, indices)
    _, fine = refine(grid, w, 2)
    assert w.increments.shape == (0, 8) and fine.increments.shape == (0, 16)
    assert outs == []


def test_seed_is_a_128_bit_key():
    grid = uniform_grid(1.0, 4)
    generate_brownian(grid, 2**128 - 1, range(3))
    for call in (
        lambda: generate_brownian(grid, 2**128),
        lambda: generate_brownian(grid, 2**128, range(3)),
        lambda: ExperimentConfig(seed=2**128),
    ):
        with pytest.raises(ValueError, match="seed must be < 2[*][*]128"):
            call()


@pytest.mark.parametrize(
    "key, message",
    [
        ((77, 1.5), "path_index must be an integer"),
        ((-1, 0), "seed must be >= 0"),
        ((77,), r"must be a tuple \(seed, path_index, \*factors\)"),
        ((77, np.arange(3)), "path_index must be an integer"),
        ((77, 0, 1), "refinement factors must be >= 2"),
        ((77, 0, 2.0), "refinement factor must be an integer"),
    ],
    ids=["float-index", "negative-seed", "no-index", "index-array", "factor-1", "float-factor"],
)
def test_malformed_key_is_refused_naming_the_key(key, message):
    grid = uniform_grid(1.0, 4)
    with pytest.raises(ValueError, match=rf"^key .*: {message}"):
        BrownianPath(grid, np.zeros(4), key=key)


def test_key_entries_are_stored_as_ints():
    grid = uniform_grid(1.0, 4)
    w = BrownianPath(grid, np.zeros(4), key=(np.uint64(77), np.int32(3), np.int64(4)))
    assert w.key == (77, 3, 4) and all(type(x) is int for x in w.key)
    assert BrownianPath(grid, np.zeros((2, 4)), key=(77, range(3, 5))).key == (77, range(3, 5))


def test_bridge_tag_words_are_the_rounded_counter_words():
    # Pinned: where either word is >= 2**63 both are the nearest doubles,
    # as numpy read them from the counter list [0, j, *words].
    assert paths._bridge_tag((4,)) == (15575308458515283968, 8756990620179758080)
    assert paths._bridge_tag((16,)) == (2240935543444884992, 14665857242226669568)
    assert paths._bridge_tag((64,)) == (13468189390977220608, 7523867620848180224)
    for lineage in [(2,), (4,), (16,), (64,), (1024,), (4, 4), (2, 8), (16, 64, 3)]:
        words = np.random.SeedSequence([paths._BRIDGE_SALT, *lineage]).generate_state(2, np.uint64).tolist()
        stored = np.random.Philox(0, counter=[0, 0, *words]).state["state"]["counter"][2:].tolist()
        assert paths._bridge_tag(lineage) == tuple(stored), lineage


def _per_chunk_normals(seed, indices, lineage, n):
    """The draw with a Philox built for every path from the counter list,
    as stream 2 was first drawn: rows of the normals of each path's chunk."""
    tag = [0, 0]
    if lineage:
        tag = np.random.SeedSequence([paths._BRIDGE_SALT, *lineage]).generate_state(2, np.uint64).tolist()
    per_chunk = max(1, paths.CHUNK_NORMALS // n)
    rows = []
    for i in indices:
        j, r = divmod(i, per_chunk)
        bitgen = np.random.Philox(paths._PhiloxKey(seed), counter=[0, j, *tag])
        rows.append(np.random.Generator(bitgen).standard_normal(out=np.empty((r + 1) * n))[r * n :])
    return np.array(rows)


@pytest.mark.parametrize(
    "indices, lineage, shape",
    [
        (range(100, 300), (), (8,)),  # 128 paths a chunk: starts and stops mid-chunk
        (range(0, 512), (), (8,)),  # four whole chunks
        (range(5, 700), (), (64,)),  # 16 paths a chunk
        (range(3, 9), (), (1500,)),  # one path a chunk, longer than a chunk
        (range(20, 90), (4,), (8, 4)),  # bridge, 32 paths a chunk
        (range(40, 45), (16,), (8, 16)),  # bridge, 8 paths a chunk
        (range(0, 5), (64,), (64, 64)),  # bridge of 4096 normals: one path a chunk
        (range(7, 130), (2, 4), (8, 4)),  # a second refinement's bridge
    ],
)
def test_one_generator_a_walk_draws_what_a_philox_a_chunk_draws(monkeypatch, indices, lineage, shape):
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return philox(*args, **kwargs)

    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", counting)
    got = paths._keyed_normals((11, indices, *lineage), shape)
    n = math.prod(shape)
    assert len(built) == 1  # one Philox for the whole walk
    monkeypatch.setattr(np.random, "Philox", philox)
    want = _per_chunk_normals(11, indices, lineage, n)
    assert got.reshape(len(indices), n).tobytes() == want.tobytes()


def test_a_one_chunk_draw_builds_one_philox_and_draws_its_chunks_bits(monkeypatch):
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(args)
        return philox(*args, **kwargs)

    # (key, shape, the chunk's counter, the path's row in its chunk)
    draws = [
        ((3, 40), (64,), [0, 2, 0, 0], 8),  # 16 paths a chunk
        ((3, 40, 16), (64, 16), [0, 40, *paths._bridge_tag((16,))], 0),  # 1024 normals: one path a chunk
        ((3, 40, 64), (64, 64), [0, 40, *paths._bridge_tag((64,))], 0),  # a 4096-normal bridge
    ]
    for key, shape, counter, row in draws:
        built.clear()
        monkeypatch.setattr(np.random, "Philox", counting)
        got = paths._keyed_normals(key, shape)
        monkeypatch.setattr(np.random, "Philox", philox)
        assert len(built) == 1, key
        n = math.prod(shape)
        bitgen = philox(paths._PhiloxKey(3), counter=np.array(counter, dtype=np.uint64))
        want = np.random.Generator(bitgen).standard_normal((row + 1) * n)[row * n :]
        assert got.tobytes() == want.tobytes(), key
