"""Reference formulas the tests compare the package against: the dealiased
box as a full-grid mask, the quadrature L^p and H^s norms of a Field, and
the Strang step and the record of `evolve` as fresh-array formulas, the
record in the package's record dtypes, and a bitwise table comparison; the
inputs that several test files share; and the patch of numpy's FFT entry
points that counts transforms or injects faults."""

import functools
import math
from fractions import Fraction

import numpy as np

from gpilab.dynamics import _ENERGY, _SNAPSHOT
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


def out_of_place_record(t, uh, m_N, scale, xi2, w):
    """The record at time t in the package's two dtypes, one inverse
    transform per row, from raw fftn coefficients uh: a `_SNAPSHOT` of t and
    ||u||_{L^3}, and the `_ENERGY` rows (kinetic, potential, total, l2) of u
    and of each I_N u (m_N a sequence of multiplier arrays); and the
    physical u.  The kinetic and l2 sums run over the raw coefficients and
    are then scaled to unitary ones, kinetic by scale^2 and l2 by scale, as
    evolve's are."""
    u = np.fft.ifftn(uh)
    snap = np.array((t, (np.sum(np.abs(u) ** 3) * w) ** (1.0 / 3)), _SNAPSHOT)
    energy = []
    for coef, v in [(uh, u)] + [(uh * m, np.fft.ifftn(uh * m)) for m in m_N]:
        c2 = np.abs(coef) ** 2
        kin = float(np.sum(xi2 * c2)) * scale ** 2
        pot = 0.5 * float(np.sum((np.abs(v) ** 2 + 2 * v.real) ** 2)) * w
        energy.append((kin, pot, kin + pot, math.sqrt(float(np.sum(c2))) * scale))
    return snap, np.array(energy, _ENERGY), u


def same_bits(a, b):
    """Whether a and b hold the same bits, field by field for record tables."""
    if a.dtype.names or b.dtype.names:
        return a.dtype == b.dtype and all(same_bits(a[c], b[c]) for c in a.dtype.names)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def smooth_datum(grid, amp=0.2):
    """A smooth Field of the wavenumbers ±1 and ±2 along axis 0."""
    x = grid.x_mesh()[0]
    return Field(grid, amp * np.exp(1j * x) + 0.5 * amp * np.cos(2 * x))


def rational_grid(count=10 ** 4):
    """The interior rationals k/(count+1), scaled into (1/2, 1)."""
    denom = count + 1
    return [Fraction(1, 2) + Fraction(k, 2 * denom) for k in range(1, denom)]


def patch_fft(monkeypatch, wrap):
    """Replace each of numpy's FFT entry points by wrap(real, inverse), real
    the entry point and inverse whether it is ifftn or ifft: the package
    calls fftn and ifftn for whole-grid transforms of a Field, and fft and
    ifft in every pass of the band-limited transforms."""
    for name, inverse in (("fftn", False), ("fft", False), ("ifftn", True), ("ifft", True)):
        monkeypatch.setattr(np.fft, name, wrap(getattr(np.fft, name), inverse))


def fft_nan_from(monkeypatch, k):
    """Forward transforms return NaN from their k-th call on.  No finite
    datum short of overflow blows up, so this is the injected fault; in 1D,
    call 1 is evolve's datum and call i + 1 is step i's."""
    calls = []

    def wrap(real, inverse):
        def faulty(*args, **kwargs):
            calls.append(None)
            out = real(*args, **kwargs)
            if len(calls) >= k:
                out[...] = np.nan
            return out
        return real if inverse else faulty

    patch_fft(monkeypatch, wrap)
