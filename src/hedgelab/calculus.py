"""Discrete stochastic-calculus kernels.

Left-endpoint (Ito) integrals, quadratic covariation, and a residual
checker for the discrete second-order chain-rule expansion. Left-endpoint
sampling is used everywhere: the integrand value applied over a step is
the one known at the step's start, never a midpoint or right-endpoint
value, which would introduce Stratonovich-style drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .accum import comp_cumsum
from .paths import MarketPath, TimeGrid, _freeze, _Owned


@dataclass(frozen=True, eq=False)
class SampledSeries:
    """One real value per grid point."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        _freeze(self, ("values",), self.grid.n_points)


@dataclass(frozen=True)
class SmoothFunction:
    """A function (t, s) -> real with its first/second partials.

    All four callables must broadcast over numpy arrays (scalar returns are
    fine for identically-zero partials).
    """

    f: Callable
    df_dt: Callable
    df_ds: Callable
    d2f_ds2: Callable


def ito_integral(integrand: SampledSeries, integrator: SampledSeries) -> SampledSeries:
    """Cumulative left-endpoint integral of `integrand` against `integrator`.

    G_0 = 0 and G_{k+1} = G_k + h_k * (X_{k+1} - X_k) with h sampled at the
    left endpoint of each step.
    """
    integrand.grid.require_same(integrator.grid)
    terms = integrand.values[:-1] * np.diff(integrator.values)
    return SampledSeries(integrand.grid, _Owned(comp_cumsum(terms)))


def quadratic_covariation(x: SampledSeries, y: SampledSeries) -> SampledSeries:
    """Cumulative sum of increment products, C_{k+1} = C_k + dx_k * dy_k."""
    x.grid.require_same(y.grid)
    terms = np.diff(x.values) * np.diff(y.values)
    return SampledSeries(x.grid, _Owned(comp_cumsum(terms)))


def ito_doblin_residual(f: SmoothFunction, path: MarketPath) -> float:
    """Residual of the discrete second-order expansion of f along the stock path.

    Returns f(T, S_T) - f(0, S_0) minus the left-sampled sum of
    f_t dt + f_s dS + (1/2) f_ss (dS)^2. For smooth f the residual
    vanishes under grid refinement; for quadratics in s it is an exact
    algebraic identity and only floating-point accumulation remains.
    """
    if path.stock.ndim != 1:
        raise ValueError("ito_doblin_residual needs a single-path market")
    t = path.grid.times
    s = path.stock
    tl, sl = t[:-1], s[:-1]
    dt = np.diff(t)
    ds = np.diff(s)
    terms = (
        np.asarray(f.df_dt(tl, sl), dtype=float) * dt
        + np.asarray(f.df_ds(tl, sl), dtype=float) * ds
        + 0.5 * np.asarray(f.d2f_ds2(tl, sl), dtype=float) * ds * ds
    )
    expansion = math.fsum(terms.tolist())
    return float(f.f(t[-1], s[-1])) - float(f.f(t[0], s[0])) - expansion
