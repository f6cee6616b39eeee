"""Reference formulas the tests compare the package against: the dealiased
box as a full-grid mask, the quadrature L^p and H^s norms of a Field, and
the Strang step and the record of `evolve` as fresh-array formulas."""

import functools
import math

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


def out_of_place_step(uh, half_phase, dt, mask):
    """The Strang step on raw fftn coefficients as fresh arrays, with the
    operand order of evolve's."""
    uh = uh * half_phase
    u = np.fft.ifftn(uh)
    theta = (np.abs(u) ** 2 + 2 * u.real) * dt
    uh = np.fft.fftn(u + (1 + u) * np.expm1(1j * theta)) * mask
    return uh * half_phase


def out_of_place_record(uh, m_N, scale, xi2, w):
    """||u||_{L^3}, then kinetic, potential, total and l2 of u and of each
    I_N u (m_N a sequence of multiplier arrays), one inverse transform per
    row, from raw fftn coefficients uh; and the physical u."""
    u = np.fft.ifftn(uh)
    vals = [float((np.sum(np.abs(u) ** 3) * w) ** (1.0 / 3))]
    rows = [(uh * scale, u)]
    for m in m_N:
        ch = uh * m
        v = np.fft.ifftn(ch)
        ch *= scale
        rows.append((ch, v))
    for coef, v in rows:
        c2 = np.abs(coef) ** 2
        kin = float(np.sum(xi2 * c2))
        pot = 0.5 * float(np.sum((np.abs(v) ** 2 + 2 * v.real) ** 2)) * w
        vals += [kin, pot, kin + pot, math.sqrt(float(np.sum(c2)))]
    return vals, u
