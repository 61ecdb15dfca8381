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

A line is the last axis of the terms (the time axis of every caller),
and its result is the whole series out_0..out_n, one entry more than the
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

Each running sum waits on the one before it, so an accumulate runs at the
latency of one addition per element. numpy adds and subtracts complex128
numbers one part at a time, each part one IEEE-754 double operation, so
an accumulate over complex entries is two independent real accumulates at
the latency of one. `comp_cumsum` therefore holds the lines of a row block
in pairs, as the real and imaginary parts of complex work buffers, and
runs each pass once per pair. No pass mixes the parts (nothing multiplies
or divides), so each line gets exactly its own operations in its own
order, and its bits are those of the same passes in float64, NaN payloads
aside as above: an infinity or NaN in one line leaves its partner's bits
alone. A block of one line (a 1-D call, or a line longer than
BLOCK_ELEMENTS) has no partner, since pairing it with a zero line would
double its work: it runs the same passes as 1-D float64 passes over its
own result row and two float64 rows, with no work buffer or block views.
"""

from __future__ import annotations

import math

import numpy as np

# Elements per row block, lines times entries (n + 1 for n terms). The
# block's work buffers stay in cache, and peak memory is the output plus
# those buffers: three complex ones of half the block's lines, at most
# 24 * (BLOCK_ELEMENTS + 2 * (n + 1)) bytes (about 1.6 MB), or two float64
# rows, 16 * (n + 1) bytes, when a block is one line.
#
# numpy (2.4.6) releases the interpreter lock in an accumulate over a
# long 1-D operand, as a lone line's passes are, but in a 2-D accumulate
# along axis 1 only over more than 500 rows. A block holds two lines a
# complex row, so only a block of 1001 lines or more lets another thread
# run during its accumulates. On lines of up to 64 terms a block holds at
# least 1009 lines: a call of 1001 to 1009 such lines, and the 4032- and
# 2016-line blocks of a 64-step study at 1 and 2 lanes (3 x 1009 + 1005
# and 1009 + 1007), run every accumulate with the lock released. A call's
# short last block, and lines of 1024 or more terms (64 or fewer lines a
# block: verify's refined levels at 1025 and 4097 points), hold it. 2**16
# is the least power of two with such blocks for 64-term lines; at 2**17
# a call takes longer on one thread.
BLOCK_ELEMENTS = 1 << 16


def _block_lines(m: int, n: int) -> int:
    """Lines per row block of `comp_cumsum` over m lines of n terms."""
    return max(1, min(BLOCK_ELEMENTS // (n + 1) + 1, m))


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
def comp_cumsum(terms, out=None) -> np.ndarray:
    """Running compensated sums from zero: out[..., k] = sum(terms[..., :k]).

    Accepts any array-like of rank >= 1; the accumulation runs along the
    last axis and is vectorized over the leading ones. The result is a
    float64 array of shape (*terms.shape[:-1], n + 1) for n terms a line:
    out_0 = s_0 + c_0 = 0.0, then the series bit-identical to running
    Neumaier's scalar loop on each line, up to NaN payloads (see the module
    docstring). It is a new array, or `out` when given (see `_out`). `out`
    may hold the terms themselves in out[..., 1:], so a caller can build the
    terms there and accumulate them in place; any other overlap with
    `terms` raises. Work memory is that of one row block of about
    BLOCK_ELEMENTS elements, or of one line where a line is longer,
    whatever the number of lines (see BLOCK_ELEMENTS).
    """
    full = np.asarray(terms, dtype=float)
    *lines, n = full.shape
    if out is None:
        result = np.empty((*lines, n + 1))
    else:
        result = _out(out, (*lines, n + 1))
        if not _same_view(result[..., 1:], full) and np.may_share_memory(result, full):
            raise ValueError("out must not overlap an input")
    if full.ndim == 1:  # one line, whose row is the result itself, whatever its strides
        rows, flat, b, copy_back = (full,), (result,), 1, False
    else:
        m = math.prod(lines)  # lines to accumulate
        rows = full.reshape(m, n)
        flat = result.reshape(m, n + 1)  # a copy where out's lines do not flatten in place
        copy_back = out is not None and not np.may_share_memory(flat, result)
        b = _block_lines(m, n)
    if b == 1:
        # A block of one line runs 1-D passes over its own result row, which
        # holds its terms, then its errors, then its compensation, and over
        # two float64 rows: the running sums and a TwoSum temporary.
        s, t = np.empty(n + 1), np.empty(n)
        prev, cur = s[:-1], s[1:]
        for x, c in zip(rows, flat):
            e = c[1:]
            e[...] = x  # x may be e itself (in place)
            c[0] = 0.0
            np.add.accumulate(c, out=s)
            np.subtract(cur, prev, out=t)  # TwoSum, as for pairs below
            np.subtract(e, t, out=e)
            np.subtract(cur, t, out=t)
            np.subtract(prev, t, out=t)
            e += t
            np.add.accumulate(c, out=c)
            np.add(s, c, out=c)
    else:
        # A block of two or more lines runs in pairs: lines 2i and 2i + 1 of
        # the block are the real and imaginary parts of row i of complex work
        # buffers, so each pass below does two lines at once. The buffers
        # hold the running sums, a TwoSum temporary and the terms, which
        # become the errors and then the compensation.
        work = np.empty((3, -(-b // 2), n + 1), np.complex128)
        for lo in range(0, m, b):
            hi = min(lo + b, m)
            x, c = rows[lo:hi], flat[lo:hi]
            if lo == 0 or hi - lo < b:  # views of the first block and of a short last one
                q = -(-(hi - lo) // 2)  # buffer rows
                k = (hi - lo) // 2  # lines in the imaginary parts
                ws = work if lo == 0 else work[:, :q]
                s, t, xs = ws[0], ws[1].ravel()[1:], ws[2]
                sf, xf = s.ravel(), xs.ravel()
                prev, cur, e = sf[:-1], sf[1:], xf[1:]
                xs[:, 0] = 0.0
            # x may be the result's own rows (in place); it is copied before the
            # block's result rows are written.
            xs.real[:, 1:] = x[0::2]
            xs.imag[:k, 1:] = x[1::2]
            if k < q:  # an odd last line's partner: never read, but zeroed so that
                xs.imag[k:, 1:] = 0.0  # stale or subnormal values do not slow the passes
            np.add.accumulate(xs, axis=1, out=s)
            # TwoSum runs over each buffer as one flat series, cur_k = s_k and
            # prev_k = s_{k-1}, with e_k written over x_k. Where k starts a row,
            # prev is the previous row's last sum: those entries are reset to
            # c_0 = 0.0 before the compensation is accumulated.
            np.subtract(cur, prev, out=t)  # bb = s - s_prev
            np.subtract(e, t, out=e)  # x - bb
            np.subtract(cur, t, out=t)  # s - bb
            np.subtract(prev, t, out=t)  # s_prev - (s - bb)
            e += t
            if q > 1:
                xf[:: n + 1] = 0.0
            np.add.accumulate(xs, axis=1, out=xs)
            np.add(s.real, xs.real, out=c[0::2])
            np.add(s.imag[:k], xs.imag[:k], out=c[1::2])
    if copy_back:
        np.copyto(result, flat.reshape(result.shape))
    return result
