"""Compensated (Neumaier) summation kernels.

Cumulative series built from millions of small increments drift by
O(sqrt(N)) ulps under naive accumulation; the running compensation here
keeps every prefix sum accurate to ~1 ulp of the true value, which is what
lets exact accounting identities be asserted at 1e-9 absolute tolerance.

Neumaier's recurrence (ZAMM 1974) starts from s_0 = c_0 = 0.0 and, per term
x_k (k = 1..n),

    s_k = s_{k-1} + x_k
    e_k = (s_{k-1} - s_k) + x_k   if |s_{k-1}| >= |x_k|
          (x_k - s_k) + s_{k-1}   otherwise
    c_k = c_{k-1} + e_k
    out_k = s_k + c_k

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

# Elements per row block. The block's two running-sum buffers stay in
# cache, and peak memory is the output plus one block.
BLOCK_ELEMENTS = 1 << 15


def comp_cumsum(terms, axis: int = -1) -> np.ndarray:
    """Running compensated sums from zero: out[..., k] = sum(terms[..., :k]).

    Accepts any array-like of rank >= 1; the accumulation runs along `axis`
    and is vectorized over the remaining axes. The result is a new float64
    array with one more entry than `terms` along `axis`: out_0 = s_0 + c_0 =
    0.0, then the series bit-identical to running Neumaier's scalar loop on
    each line.
    """
    arr = np.asarray(terms, dtype=float).swapaxes(axis, -1)
    *lines, n = arr.shape
    m = math.prod(lines)  # lines to accumulate
    rows = arr.reshape(m, n)
    out = np.empty((m, n + 1))
    b = max(1, min(BLOCK_ELEMENTS // (n + 1) + 1, m))  # rows per block
    s = np.zeros((b, n + 1))
    c = np.zeros((b, n + 1))
    prev, cur, e = s[:, :-1], s[:, 1:], c[:, 1:]
    # Overflow to inf and inf - inf are part of the recurrence's IEEE
    # semantics, as in the scalar loop, not errors to report.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, m, b):
            # Rows are independent: the last block is shifted back to end at
            # row m, so every block has b rows and the overlap is rewritten
            # with the same bits.
            lo = min(lo, m - b)
            x = rows[lo : lo + b]
            d = out[lo : lo + b, 1:]  # working space until the block's result lands
            cur[...] = x
            np.add.accumulate(s, axis=1, out=s)
            big = np.abs(prev, out=d) >= np.abs(x, out=e)
            np.subtract(prev, cur, out=d)
            d += x  # (s_prev - s) + x
            np.subtract(x, cur, out=e)
            e += prev  # (x - s) + s_prev
            np.copyto(e, d, where=big)  # np.putmask would first copy the strided d
            np.add.accumulate(c, axis=1, out=c)
            np.add(s, c, out=out[lo : lo + b])
    return out.reshape(*lines, n + 1).swapaxes(axis, -1)
