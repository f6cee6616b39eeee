"""Smoothing multiplier m_N, the operator I_N, and energy functionals.

m_N is 1 below frequency N and (N/|xi|)^{1-s} above 2N.  On the join
(N, 2N) we interpolate the exponent with the C^1 smoothstep

    m(|xi|) = (N/|xi|)^{(1-s) sigma(t)},   t = log2(|xi|/N),
    sigma(t) = 3 t^2 - 2 t^3,

which matches both branch values and the outer branch derivative at 2N,
stays radial, and is nonincreasing (d/dt [t sigma(t)] = 9t^2 - 8t^3 >= 0
on [0, 1]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, forward_transform, inverse_transform

__all__ = [
    "MultiplierSpec", "EnergyReport", "multiplier_value", "energy",
    "modified_energy",
]


@dataclass(frozen=True)
class MultiplierSpec:
    """The pair (N, s) defining the smoothing multiplier m_N."""

    N: float
    s: float

    def __post_init__(self):
        if not (self.N >= 1):
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not (0.5 < self.s < 1):
            raise ValueError(f"s must lie in (1/2, 1), got {self.s}")


def multiplier_value(spec: MultiplierSpec, xi) -> np.ndarray:
    """m_N evaluated at |xi|; accepts scalars or arrays of magnitudes.

    The input is read as |xi| directly: reduce frequency vectors to their
    magnitudes first.  Entries with |xi| <= N are 1.0 and cost no
    transcendental; the rest, NaN included, take the join or outer branch, so
    NaN stays NaN and +inf gives 0.  A scalar or 0-d input returns a float.
    """
    absxi = np.abs(np.asarray(xi, dtype=float))
    out = np.ones_like(absxi)
    high = ~(absxi <= spec.N)
    x = absxi[high]
    sig = np.clip(np.log2(x / spec.N), 0.0, 1.0)
    sig = 3 * sig ** 2 - 2 * sig ** 3
    out[high] = (spec.N / x) ** ((1 - spec.s) * sig)
    if np.isscalar(xi) or out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class EnergyReport:
    """Energy split of one field, u or Iu."""

    kinetic: float
    potential: float
    total: float
    l2: float

    def __post_init__(self):
        if self.kinetic < 0 or self.potential < 0:
            raise ValueError("energy parts must be nonnegative")


def _row_sums(a) -> np.ndarray:
    # the sum of each row of a stack, rounded as np.sum of that row alone
    return np.sum(a.reshape(len(a), -1), axis=1)


def _spectral_sums(coef, xi2, work):
    """Kinetic sum |xi|^2 |c|^2 and l2 of each row of a stack of unitary
    coefficients, no transform; work is two real arrays of coef's shape,
    overwritten."""
    c2, p = work
    np.square(np.abs(coef, out=c2), out=c2)
    np.multiply(xi2, c2, out=p)
    return _row_sums(p), np.sqrt(_row_sums(c2))


def _potential_sums(u, absu, w, tmp):
    """1/2 int (|u|^2 + 2 Re u)^2 of each row of a stack of physical values
    under the quadrature weight w; absu holds |u| and is overwritten, as is
    the real array tmp."""
    np.square(absu, out=absu)
    absu += np.multiply(2, u.real, out=tmp)
    np.square(absu, out=absu)
    return 0.5 * _row_sums(absu) * w


def _one_row(coef, u, xi2, w) -> EnergyReport:
    # energy and modified_energy: the one-row case of the record reduction
    coef, u = coef[None], u[None]
    work = np.empty((2,) + coef.shape)
    (kin,), (l2,) = _spectral_sums(coef, xi2, work)
    (pot,) = _potential_sums(u, np.abs(u, out=work[0]), w, work[1])
    return EnergyReport(float(kin), float(pot), float(kin) + float(pot), float(l2))


def energy(f: Field) -> EnergyReport:
    """E(u) = int |grad u|^2 + 1/2 int (|u|^2 + 2 Re u)^2."""
    grid = f.grid
    return _one_row(forward_transform(f), f.values, grid.xi_abs() ** 2,
                    grid.dx ** grid.dim)


def modified_energy(f: Field, spec: MultiplierSpec) -> EnergyReport:
    """E(Iu): the energy functional evaluated on the smoothed field.

    Its kinetic part is ||grad Iu||_{L^2}^2.
    """
    grid = f.grid
    absxi = grid.xi_abs()
    coef = forward_transform(f) * multiplier_value(spec, absxi)
    return _one_row(coef, inverse_transform(grid, coef).values, absxi ** 2,
                    grid.dx ** grid.dim)
