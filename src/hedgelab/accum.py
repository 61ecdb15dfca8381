"""Compensated (Neumaier) summation kernels.

Cumulative series built from millions of small increments drift by
O(sqrt(N)) ulps under naive accumulation; the running compensation here
keeps every prefix sum accurate to ~1 ulp of the true value, which is what
lets exact accounting identities be asserted at 1e-9 absolute tolerance.
"""

from __future__ import annotations

import numpy as np


def comp_cumsum(terms, axis: int = -1) -> np.ndarray:
    """Running compensated sums: out[..., k] = sum(terms[..., :k+1]).

    Accepts any array shape; the accumulation runs along `axis` and is
    vectorized over the remaining axes. A 1-D input takes a faster
    scalar path. Both paths perform the identical IEEE-754 operation
    sequence per element, so results agree bit-for-bit.
    """
    arr = np.asarray(terms, dtype=float)
    if arr.ndim == 1:
        out = np.empty_like(arr)
        s = 0.0
        c = 0.0
        for k, x in enumerate(arr.tolist()):
            t = s + x
            if abs(s) >= abs(x):
                c += (s - t) + x
            else:
                c += (x - t) + s
            s = t
            out[k] = s + c
        return out

    # Step k gathers column k into a contiguous buffer and runs the scalar
    # branch's operations as preallocated ufuncs, so no full-size
    # temporaries are made.
    arr = np.moveaxis(arr, axis, -1)
    out = np.empty_like(arr)
    s, c, t, x, d, e = (np.zeros(arr.shape[:-1]) for _ in range(6))
    s_big = np.empty(arr.shape[:-1], dtype=bool)
    for k in range(arr.shape[-1]):
        np.copyto(x, arr[..., k])
        np.add(s, x, out=t)
        np.greater_equal(np.abs(s, out=d), np.abs(x, out=e), out=s_big)
        np.subtract(s, t, out=d)
        d += x  # (s - t) + x
        np.subtract(x, t, out=e)
        e += s  # (x - t) + s
        np.copyto(e, d, where=s_big)
        c += e
        s, t = t, s
        np.add(s, c, out=out[..., k])
    return np.moveaxis(out, -1, axis)
