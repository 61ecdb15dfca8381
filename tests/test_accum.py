import numpy as np
import pytest

from hedgelab.accum import comp_cumsum


def mixed_terms(shape, seed=0):
    """Magnitudes from 1e-8 to 1e8 with random signs, so sums cancel."""
    rng = np.random.default_rng(seed)
    mags = 10.0 ** rng.uniform(-8.0, 8.0, size=shape)
    return np.where(rng.random(shape) < 0.5, -mags, mags)


def rowwise(terms, axis):
    """Reference: the 1-D branch applied to every line along `axis`."""
    moved = np.moveaxis(terms, axis, -1)
    out = np.empty_like(moved)
    for idx in np.ndindex(moved.shape[:-1]):
        out[idx] = comp_cumsum(moved[idx])
    return np.moveaxis(out, -1, axis)


def test_nd_matches_1d_branch_bitwise_on_2d():
    terms = mixed_terms((37, 200))
    before = terms.copy()
    got = comp_cumsum(terms, axis=-1)
    assert np.array_equal(got, rowwise(terms, -1))
    assert np.array_equal(terms, before)  # input untouched


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_nd_matches_1d_branch_bitwise_on_3d(axis):
    terms = mixed_terms((5, 6, 7), seed=1)
    before = terms.copy()
    got = comp_cumsum(terms, axis=axis)
    assert got.shape == terms.shape
    assert np.array_equal(got, rowwise(terms, axis))
    assert np.array_equal(terms, before)


@pytest.mark.parametrize("length", [0, 1])
def test_nd_short_accumulation_axis(length):
    terms = mixed_terms((4, length), seed=2)
    got = comp_cumsum(terms, axis=-1)
    assert got.shape == (4, length)
    assert np.array_equal(got, rowwise(terms, -1))
    assert np.array_equal(got, terms)  # a single term is its own prefix sum


def test_compensation_recovers_cancelled_terms():
    terms = np.array([[1e8, 1e-8, -1e8, 1e-8]] * 3)
    got = comp_cumsum(terms, axis=-1)
    assert np.array_equal(got[:, -1], np.full(3, 2 * 1e-8))
    assert np.cumsum(terms, axis=-1)[0, -1] != 2 * 1e-8  # naive summation drifts
