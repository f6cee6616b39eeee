"""Periodic grids, unitary FFTs, and norm/projection primitives.

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

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid", "Field", "FrequencyBand", "BandKind",
    "forward_transform", "inverse_transform", "sobolev_norm", "lp_norm",
    "band_project",
]


class BandKind(enum.Enum):
    ANNULUS = "annulus"   # |xi| in [N/2, 2N)
    BALL = "ball"         # |xi| < N


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


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

    @property
    def xi_axis(self) -> np.ndarray:
        """Angular frequencies 2*pi*k/L along one axis, FFT order."""
        return 2 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    def xi_mesh(self) -> list:
        ax = self.xi_axis
        return list(np.meshgrid(*([ax] * self.dim), indexing="ij"))

    def xi_abs(self) -> np.ndarray:
        """|xi| on the full lattice."""
        return np.sqrt(sum(k ** 2 for k in self.xi_mesh()))

    def x_mesh(self) -> list:
        ax = np.arange(self.n) * self.dx
        return list(np.meshgrid(*([ax] * self.dim), indexing="ij"))

    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keep |k| <= (2/3)(n/2) per axis."""
        axis = np.abs(np.fft.fftfreq(self.n) * self.n)
        keep1 = axis <= (2.0 / 3.0) * (self.n // 2)
        out = np.ones(self.shape, dtype=bool)
        for j in range(self.dim):
            shape = [1] * self.dim
            shape[j] = self.n
            out &= keep1.reshape(shape)
        return out


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
# norms

def _hs_norm(absxi: np.ndarray, coef: np.ndarray, s: float) -> float:
    # the one H^s formula, on unitary coefficients at magnitudes absxi
    w = (1.0 + absxi ** 2) ** s
    return float(np.sqrt(np.sum(w * np.abs(coef) ** 2)))


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


# ---------------------------------------------------------------------------
# bands and projections

@dataclass(frozen=True)
class FrequencyBand:
    center: float
    kind: BandKind = BandKind.ANNULUS

    def __post_init__(self):
        if not (self.center > 0):
            raise ValueError(f"band center must be positive, got {self.center}")

    def mask(self, absxi: np.ndarray) -> np.ndarray:
        """Where the magnitudes absxi lie in the band."""
        if self.kind is BandKind.ANNULUS:
            return (absxi >= self.center / 2) & (absxi < 2 * self.center)
        return absxi < self.center


def band_project(f: Field, band: FrequencyBand) -> Field:
    """Sharp spectral projection onto the band."""
    mask = band.mask(f.grid.xi_abs())
    if not mask.any():
        warnings.warn(
            f"band {band} lies outside the resolvable frequencies; "
            "returning the zero field", stacklevel=2)
    return inverse_transform(f.grid, forward_transform(f) * mask)
