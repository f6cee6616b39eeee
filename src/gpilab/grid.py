"""Periodic grids, unitary FFTs, and the H^s norm of coefficients.

A `Field` is complex physical values on a `Grid`; spectral coefficients are
plain arrays that live only inside a computation.  Everything downstream
(energies, time stepping, benches) goes through this module, so the
normalization contract lives here and nowhere else:

    coefficients f_hat satisfy  sum_k |f_hat_k|^2 = sum_j |f(x_j)|^2 (L/n)^d

i.e. the discrete transform is scaled to be unitary against the physical
quadrature weight (L/n)^d.  The frequency of mode k is 2*pi*k/L (angular
convention), so the Laplacian symbol is -|xi|^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "Field", "forward_transform", "inverse_transform"]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _wavenumbers(n: int) -> np.ndarray:
    """|k| of the integer wavenumbers on an axis of n points, FFT order."""
    return np.minimum(np.arange(n), n - np.arange(n))


@dataclass(frozen=True)
class Grid:
    """Periodic box descriptor: [0, L)^dim sampled at n points per axis."""

    dim: int
    n: int
    length: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 8 or not _is_pow2(self.n):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not (self.length > 0):
            raise ValueError(f"box length must be positive, got {self.length}")

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def volume(self) -> float:
        return self.length ** self.dim

    def xi_mesh(self) -> list:
        ax = 2 * np.pi * np.fft.fftfreq(self.n, d=self.dx)   # 2 pi k/L, FFT order
        return list(np.meshgrid(*([ax] * self.dim), indexing="ij", sparse=True))

    def xi_abs(self) -> np.ndarray:
        """|xi| on the full lattice."""
        return np.sqrt(sum(k ** 2 for k in self.xi_mesh()))

    def x_mesh(self) -> list:
        ax = np.arange(self.n) * self.dx
        return list(np.meshgrid(*([ax] * self.dim), indexing="ij", sparse=True))

    @property
    def dealias_cutoff(self) -> int:
        """2/3-rule cutoff K = floor((2/3)(n/2)): the dealiased box is
        |k_j| <= K on every axis, k_j the integer wavenumber."""
        return 2 * (self.n // 2) // 3


@dataclass(frozen=True)
class Field:
    """Complex physical values on a Grid.

    Values are frozen on construction; all operations return new Fields.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != self.grid.shape:
            raise ValueError(
                f"values shape {v.shape} does not match grid shape {self.grid.shape}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @staticmethod
    def zero(grid: Grid) -> "Field":
        return Field(grid, np.zeros(grid.shape, dtype=np.complex128))


# ---------------------------------------------------------------------------
# transforms

def _spectral_scale(grid: Grid) -> float:
    # raw fftn coefficient -> unitary coefficient
    return math.sqrt(grid.volume) / grid.n ** grid.dim


def forward_transform(f: Field) -> np.ndarray:
    """Unitary coefficients of f under the (L/n)^dim quadrature weight."""
    return np.fft.fftn(f.values) * _spectral_scale(f.grid)


def inverse_transform(grid: Grid, coef: np.ndarray) -> Field:
    """The Field on grid whose unitary coefficients are coef."""
    return Field(grid, np.fft.ifftn(coef / _spectral_scale(grid)))


# ---------------------------------------------------------------------------
# band-limited raw transforms
#
# numpy's n-D transform is a 1D pass along each axis, last axis first.  For
# input that is zero outside the box |k_j| <= K, the inverse pass along axis
# j has work only on the lines whose indices on the earlier axes lie in the
# box; every other line is zero and is left as it is.  The forward pass along
# axis j is needed only on the lines whose indices on the later axes lie in
# the box, since the box keeps no other output.  A line that is transformed
# sees the same numbers as in numpy's own n-D call, so inside the box the
# values are bitwise np.fft.ifftn's and np.fft.fftn's.  Both act on the last
# `dim` axes, so a leading axis batches arrays.  A 1D transform has no line to
# skip and is one numpy call, given no `axes` when unbatched: at n = 1024 on
# a 2-vCPU Xeon, numpy's axes handling adds 5-9 us to a call of 17-19 us.

def _box_ranges(n: int, K: int):
    """Index ranges of |k| <= K on an axis of n points, FFT order, or None
    for one whole transform: for a box that keeps more than 7/8 of the axis,
    the whole-grid box K = n // 2 among them, where skipping lines saves less
    than the extra calls cost (at 64^3 on a 2-vCPU Xeon, K = 31 took 9%
    longer by lines than whole, and the two broke even near K = 27)."""
    if 8 * (2 * K + 1) > 7 * n:
        return None
    return (slice(0, K + 1), slice(n - K, n)) if K else (slice(0, 1),)


def _ifftn_box(a: np.ndarray, dim: int, K: int) -> np.ndarray:
    """np.fft.ifftn of a in place, for a zero outside the box |k_j| <= K."""
    lead, ranges = a.ndim - dim, _box_ranges(a.shape[-1], K)
    if ranges is None or dim == 1:
        return np.fft.ifftn(a, axes=tuple(range(lead, a.ndim)) if lead else None, out=a)
    for j in reversed(range(dim)):
        for box in itertools.product(ranges, repeat=j):
            lines = a[(slice(None),) * lead + box]
            np.fft.ifftn(lines, axes=(lead + j,), out=lines)
    return a


def _fftn_box(a: np.ndarray, dim: int, K: int, out: np.ndarray) -> np.ndarray:
    """np.fft.fftn of a into out, cut to the box |k_j| <= K, with exact
    zeros outside it."""
    n = a.shape[-1]
    lead, ranges = a.ndim - dim, _box_ranges(n, K)
    if ranges is None or dim == 1:
        np.fft.fftn(a, axes=tuple(range(lead, a.ndim)) if lead else None, out=out)
    else:
        np.fft.fftn(a, axes=(a.ndim - 1,), out=out)
        for j in reversed(range(dim - 1)):
            for box in itertools.product(ranges, repeat=dim - 1 - j):
                lines = out[(slice(None),) * (lead + j + 1) + box]
                np.fft.fftn(lines, axes=(lead + j,), out=lines)
    if 2 * K + 1 < n:
        for j in range(lead, out.ndim):
            out[(slice(None),) * j + (slice(K + 1, n - K),)] = 0
    return out


def _box_cutoff(coef: np.ndarray) -> int:
    """The least K such that coef is zero outside the box |k_j| <= K."""
    k = _wavenumbers(coef.shape[-1])
    held = coef != 0
    axes = range(coef.ndim)
    return max(int(k[held.any(axis=tuple(i for i in axes if i != j))].max(initial=0))
               for j in axes)


# ---------------------------------------------------------------------------
# norms

def _hs_norm(absxi: np.ndarray, coef: np.ndarray, s: float) -> float:
    # the one H^s formula, on unitary coefficients at magnitudes absxi
    w = (1.0 + absxi ** 2) ** s
    return float(np.sqrt(np.sum(w * np.abs(coef) ** 2)))
