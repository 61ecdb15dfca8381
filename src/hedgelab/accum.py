"""Compensated summation kernels.

Cumulative series built from millions of small increments drift by
O(sqrt(N)) ulps under naive accumulation; the running compensation here
keeps every prefix sum accurate to ~1 ulp of the true value, which is what
lets exact accounting identities be asserted at 1e-9 absolute tolerance.

The recurrence is Neumaier's (ZAMM 1974) with its error term taken by
Knuth's branch-free TwoSum. It starts from s_0 = c_0 = 0.0 and, per term
x_k (k = 1..n),

    s_k = s_{k-1} + x_k
    bb_k = s_k - s_{k-1}
    e_k = (s_{k-1} - (s_k - bb_k)) + (x_k - bb_k)
    c_k = c_{k-1} + e_k
    out_k = s_k + c_k

While s_k is finite, e_k is the exact rounding error of s_k, the same
value Neumaier's branch on |s_{k-1}| >= |x_k| computes, so the series is
bit-identical to his scalar loop, signed zeros and subnormals included.
Once a running sum overflows, TwoSum's error term is NaN where Neumaier's
can be an infinity; out_k is NaN either way, but a NaN's payload may
differ from the scalar loop's wherever no tested case pins it.

The result is the whole series out_0..out_n, one entry more than the
terms: out_0 = s_0 + c_0 = 0.0, so a cumulative series that is 0 at grid
index 0 (gain, log-price, expansion terms, integrals) is the result itself.

The error term e_k depends only on s_{k-1}, s_k and x_k, so the loop is two
plain running sums with an elementwise step between them: s is the running
sum of [0.0, x_1, x_2, ...], e is computed from neighbouring entries of s,
and c is the running sum of [0.0, e_1, e_2, ...]. `np.add.accumulate` adds
strictly left to right, one term at a time, and the prepended 0.0 makes its
first addition the loop's `0.0 + x_1` (signed zeros included), so every
element goes through the loop's exact IEEE-754 operation sequence and the
result is bit-identical to it. `np.sum`/`np.add.reduce` would not do: they
sum pairwise.
"""

from __future__ import annotations

import math

import numpy as np

# Elements per row block. The block's two work buffers stay in cache,
# and peak memory is the output plus one block.
BLOCK_ELEMENTS = 1 << 15


def _out(out, shape, *inputs) -> np.ndarray:
    """`out` checked as the destination of a float64 result of `shape`, or a
    new array when it is None.

    A kernel that takes `out=` writes its result there instead of
    allocating it, and returns `out` itself. A wrong shape or dtype, a
    read-only array, or memory that may overlap an input raises ValueError
    before anything is written: the kernels read their inputs after they
    start writing, so an overlap would corrupt the result.
    """
    if out is None:
        return np.empty(shape)
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == tuple(shape)):
        raise ValueError(f"out must be a float64 array of shape {tuple(shape)}")
    if not out.flags.writeable:
        raise ValueError("out must be writeable")
    for x in inputs:
        if np.may_share_memory(out, x):
            raise ValueError("out must not overlap an input")
    return out


def _same_view(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether x and y are the same elements in the same layout: same shape
    and strides, and first elements at one address (two aligned 8-byte
    items share memory only then). Unaligned views answer False."""
    if x.shape != y.shape or x.strides != y.strides or x.size == 0:
        return False
    if not (x.flags.aligned and y.flags.aligned):
        return False
    first = (slice(0, 1),) * x.ndim
    return np.may_share_memory(x[first], y[first])


# Overflow to inf and inf - inf are part of the recurrence's IEEE semantics,
# as in the scalar loop, not errors to report.
@np.errstate(over="ignore", invalid="ignore")
def comp_cumsum(terms, axis: int = -1, out=None) -> np.ndarray:
    """Running compensated sums from zero: out[..., k] = sum(terms[..., :k]).

    Accepts any array-like of rank >= 1; the accumulation runs along `axis`
    and is vectorized over the remaining axes. The result is a float64
    array with one more entry than `terms` along `axis`: out_0 = s_0 + c_0 =
    0.0, then the series bit-identical to running Neumaier's scalar loop on
    each line, up to NaN payloads (see the module docstring). It is a new
    array, or `out` when given (see `_out`). `out` may hold the terms
    themselves in its entries 1.. along `axis`, so a caller can build the
    terms there and accumulate them in place; any other overlap with
    `terms` raises.
    """
    full = np.asarray(terms, dtype=float)
    arr = full.swapaxes(axis, -1)
    *lines, n = arr.shape
    m = math.prod(lines)  # lines to accumulate
    rows = arr.reshape(m, n)
    copy_back = False
    if out is None:
        flat = np.empty((m, n + 1))
        result = flat.reshape(*lines, n + 1).swapaxes(axis, -1)
    else:
        shape = list(full.shape)
        shape[axis] += 1
        result = _out(out, shape)
        swapped = result.swapaxes(axis, -1)
        if not _same_view(swapped[..., 1:], arr) and np.may_share_memory(result, full):
            raise ValueError("out must not overlap an input")
        flat = swapped.reshape(m, n + 1)
        copy_back = not np.may_share_memory(flat, result)  # lines that do not flatten in place
    b = max(1, min(BLOCK_ELEMENTS // (n + 1) + 1, m))  # rows per block
    # Two work buffers, s and t. The compensation c is accumulated in the
    # result's own rows, then s is added to it there.
    s = np.zeros((b, n + 1))
    t = np.empty((b, n))
    flat[:, 0] = 0.0
    prev, cur = s[:, :-1], s[:, 1:]
    for lo in range(0, m, b):
        hi = min(lo + b, m)
        if hi - lo < b:  # rows are independent: the last block may be short
            s, t = s[: hi - lo], t[: hi - lo]
            prev, cur = s[:, :-1], s[:, 1:]
        # x may be the result's own rows (in place), which e overwrites
        # element by element as it reads them; x is not read after that.
        x = rows[lo:hi]
        c = flat[lo:hi]
        e = c[:, 1:]
        cur[...] = x
        np.add.accumulate(s, axis=1, out=s)
        np.subtract(cur, prev, out=t)  # bb = s - s_prev
        np.subtract(x, t, out=e)  # x - bb
        np.subtract(cur, t, out=t)  # s - bb
        np.subtract(prev, t, out=t)  # s_prev - (s - bb)
        e += t
        np.add.accumulate(c, axis=1, out=c)
        np.add(s, c, out=c)
    if copy_back:
        np.copyto(result, flat.reshape(*lines, n + 1).swapaxes(axis, -1))
    return result
