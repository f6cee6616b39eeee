"""Reference formulas the tests compare the package against: the dealiased
box as a full-grid mask, and the quadrature L^p and H^s norms of a Field."""

import functools

import numpy as np

from gpilab.grid import Field, _hs_norm, forward_transform


def box(n, dim, K):
    """|k_j| <= K on every axis, k_j the integer wavenumber in FFT order."""
    keep = np.minimum(np.arange(n), n - np.arange(n)) <= K
    return functools.reduce(np.logical_and, [keep.reshape((n,) + (1,) * j)
                                             for j in range(dim)])


def sobolev_norm(f: Field, s: float) -> float:
    """H^s norm, (sum <xi>^{2s} |f_hat|^2)^{1/2}."""
    return _hs_norm(f.grid.xi_abs(), forward_transform(f), s)


def lp_norm(f: Field, p) -> float:
    """Quadrature L^p norm on the physical grid; p = inf gives the max norm."""
    if p != np.inf and p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    vals = np.abs(f.values)
    if p == np.inf:
        return float(vals.max())
    w = f.grid.dx ** f.grid.dim
    return float((np.sum(vals ** p) * w) ** (1.0 / p))
