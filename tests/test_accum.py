import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgelab import accum
from hedgelab.accum import comp_cumsum


def mixed_terms(shape, seed=0):
    """Magnitudes from 1e-8 to 1e8 with random signs, so sums cancel."""
    rng = np.random.default_rng(seed)
    mags = 10.0 ** rng.uniform(-8.0, 8.0, size=shape)
    return np.where(rng.random(shape) < 0.5, -mags, mags)


def rowwise(terms):
    """Reference: the 1-D branch applied to every line (the last axis)."""
    out = np.empty((*terms.shape[:-1], terms.shape[-1] + 1))
    for idx in np.ndindex(terms.shape[:-1]):
        out[idx] = comp_cumsum(terms[idx])
    return out


def test_nd_matches_1d_branch_bitwise_on_2d():
    terms = mixed_terms((37, 200))
    before = terms.copy()
    got = comp_cumsum(terms)
    assert np.array_equal(got, rowwise(terms))
    assert np.array_equal(terms, before)  # input untouched


def test_nd_matches_1d_branch_bitwise_on_3d():
    terms = mixed_terms((5, 6, 7), seed=1)
    before = terms.copy()
    got = comp_cumsum(terms)
    assert got.shape == (5, 6, 8)
    assert np.array_equal(got, rowwise(terms))
    assert np.array_equal(terms, before)


@pytest.mark.parametrize("length", [0, 1])
def test_nd_short_accumulation_axis(length):
    terms = mixed_terms((4, length), seed=2)
    got = comp_cumsum(terms)
    assert got.shape == (4, length + 1)
    assert np.array_equal(got, rowwise(terms))
    assert np.array_equal(got[:, 0], np.zeros(4))
    assert np.array_equal(got[:, 1:], terms)  # a single term is its own prefix sum


def test_compensation_recovers_cancelled_terms():
    terms = np.array([[1e8, 1e-8, -1e8, 1e-8]] * 3)
    got = comp_cumsum(terms)
    assert np.array_equal(got[:, -1], np.full(3, 2 * 1e-8))
    assert np.cumsum(terms, axis=-1)[0, -1] != 2 * 1e-8  # naive summation drifts


def neumaier_loop(terms):
    """Reference: Neumaier's scalar loop, one Python step per element."""
    arr = np.asarray(terms, dtype=float)
    out = np.empty(arr.size + 1)
    s = 0.0
    c = 0.0
    out[0] = s + c
    for k, x in enumerate(arr.tolist(), start=1):
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
        out[k] = s + c
    return out


def assert_same_bits(got, want):
    """Bitwise equality: unlike np.array_equal, tells -0.0 from 0.0 and matches nan."""
    assert got.shape == want.shape
    assert np.array_equal(
        np.ascontiguousarray(got).view(np.int64), np.ascontiguousarray(want).view(np.int64)
    )


@pytest.mark.parametrize("length", [0, 1, 2, 1024, accum.BLOCK_ELEMENTS + 1000])
def test_matches_scalar_loop_bitwise(length):
    terms = mixed_terms(length, seed=length)
    assert_same_bits(comp_cumsum(terms), neumaier_loop(terms))


@pytest.mark.parametrize(
    "terms",
    [
        [-0.0, -0.0, 1.0, -1.0, -0.0],
        [-0.0],
        [1e308, 1e308, -1e308, 5.0],
        [np.inf, 1.0, -np.inf, 2.0],
        [np.nan, 1.0, 2.0],
        [5e-324, -5e-324, 1e-310, 2.5e-308, -1e-320],
    ],
    ids=["signed-zeros", "minus-zero", "overflow", "infinities", "nan", "subnormals"],
)
def test_matches_scalar_loop_on_special_values(terms):
    assert_same_bits(comp_cumsum(terms), neumaier_loop(terms))
    # Lines run in pairs: an inf, NaN or overflow in one part of a pair
    # must leave its partner's bits alone, in either part and in a block
    # that ends on an odd line.
    finite = mixed_terms(len(terms), seed=5).tolist()
    for lines in ([terms, terms[::-1]], [terms, finite], [finite, terms], [finite, terms, finite]):
        want = np.stack([neumaier_loop(line) for line in lines])
        assert_same_bits(comp_cumsum(np.array(lines)), want)


@pytest.mark.parametrize("shape", [(37, 11, 3)] + [(lines, n) for lines in (1, 2, 3, 5) for n in (12, 40)])
def test_rows_spanning_several_blocks_match_scalar_loop(monkeypatch, shape):
    # Tiny blocks split the 407 rows into 1 to 17 rows a block, with a
    # partial last block at 64 elements a block. The 1 to 5 lines of 12 or
    # 40 terms run in blocks of 1, 2, 3 or 5 lines, some of them ending on
    # an odd line. Each case also runs in place, with the terms in
    # out[..., 1:].
    terms = mixed_terms(shape, seed=3)
    want = np.apply_along_axis(neumaier_loop, -1, terms)
    out = np.full(want.shape, np.nan)
    tail = out[..., 1:]
    for block in (1, 8, 64):
        monkeypatch.setattr(accum, "BLOCK_ELEMENTS", block)
        assert_same_bits(comp_cumsum(terms), want)
        tail[...] = terms
        assert comp_cumsum(tail, out=out) is out
        assert_same_bits(out, want)


# Longer than a block, so each such line is a block of its own.
LONG = accum.BLOCK_ELEMENTS + 1000


@pytest.mark.parametrize(
    "shape",
    [(0,), (1,), (1024,), (1, 0), (1, 1), (1, 1024), (3, LONG), (2, 2, LONG)],
    ids=lambda shape: "x".join(map(str, shape)),
)
def test_lone_lines_match_scalar_loop_in_every_out_form(shape):
    # A 1-D call, a (1, n) call and lines longer than a block run one line a
    # block. Each out form is given the terms separately and holding them in
    # out[..., 1:]: a C-contiguous out; a strided one, whose 1-D form is a
    # line of stride 16 bytes; and for 2 x 2 lines a transposed out, whose
    # lines do not flatten in place, so the result is copied back.
    *lead, n = shape
    terms = mixed_terms(shape, seed=n + len(shape))
    want = np.apply_along_axis(neumaier_loop, -1, terms).reshape(*lead, n + 1)
    forms = {
        "contiguous": lambda: np.empty((*lead, n + 1)),
        "strided": lambda: np.empty((*lead, 2 * (n + 1)))[..., ::2],
    }
    if len(lead) == 2:
        forms["transposed"] = lambda: np.empty((lead[1], lead[0], n + 1)).transpose(1, 0, 2)
    for name, make in forms.items():
        for in_place in (False, True):
            out = make()
            out[...] = np.nan
            if in_place:
                out[..., 1:] = terms
            assert comp_cumsum(out[..., 1:] if in_place else terms, out=out) is out, name
            assert_same_bits(out, want)


@pytest.mark.parametrize("shape", [(1 << 16,), (3, LONG)], ids=["one-line", "three-long-lines"])
def test_lone_line_work_memory_is_two_float64_rows(shape):
    # The BLOCK_ELEMENTS bound for a block of one line: two float64 rows,
    # 16 * (n + 1) bytes, beside the out it was handed, whatever the number
    # of lines. Three long lines are three real one-line blocks.
    n = shape[-1]
    terms = mixed_terms(shape, seed=6)
    out = np.empty((*shape[:-1], n + 1))
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        comp_cumsum(terms, out=out)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 16 * (n + 1) + 4096


def same_bits_up_to_nan_payload(got, want):
    """Bitwise equality once every NaN reads as one NaN (see the accum docstring)."""
    assert_same_bits(np.where(np.isnan(got), np.nan, got), np.where(np.isnan(want), np.nan, want))


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, -1e-310]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), lines=st.integers(1, 7), n=st.integers(0, 40))
def test_every_line_matches_scalar_loop_whatever_its_partner(data, lines, n):
    value = st.one_of(st.floats(-1e8, 1e8), st.sampled_from(_SPECIAL), st.floats())
    terms = np.array(data.draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=lines, max_size=lines)))
    terms = terms.reshape(lines, n)
    got = comp_cumsum(terms)
    for line, row in zip(terms, got):
        same_bits_up_to_nan_payload(row, neumaier_loop(line))


def test_non_finite_input_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comp_cumsum([1e308, 1e308, -1e308, 5.0])
        comp_cumsum([np.inf, 1.0, -np.inf, np.nan])
        comp_cumsum(np.array([[np.inf, -np.inf], [1e308, 1e308], [np.inf, 1e308], [-np.inf, 1e308]]))


def test_accepts_any_array_like_and_leaves_it_untouched():
    base = mixed_terms((6, 10), seed=4)
    want = np.apply_along_axis(neumaier_loop, -1, base)
    frozen = base.copy()
    frozen.flags.writeable = False
    inputs = {
        "list": base.tolist(),
        "fortran": np.asfortranarray(base),
        "read-only": frozen,
    }
    for name, terms in inputs.items():
        before = np.array(terms, copy=True)
        got = comp_cumsum(terms)
        assert got.dtype == np.float64 and got.flags.writeable, name
        assert_same_bits(got, want)
        assert_same_bits(np.asarray(terms), before)

    strided = base[:, ::2]
    assert_same_bits(comp_cumsum(strided), np.apply_along_axis(neumaier_loop, -1, strided))

    ints = np.arange(-20, 20).reshape(4, 10)
    got = comp_cumsum(ints)
    assert got.dtype == np.float64 and got.flags.writeable
    want = np.concatenate([np.zeros((4, 1)), np.cumsum(ints, axis=-1)], axis=-1)
    assert_same_bits(got, want)
