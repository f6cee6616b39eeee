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

import math
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
    magnitudes first.
    """
    absxi = np.abs(np.asarray(xi, dtype=float))
    safe = np.maximum(absxi, 1e-300)
    t = np.log2(safe / spec.N)
    sig = np.clip(t, 0.0, 1.0)
    sig = 3 * sig ** 2 - 2 * sig ** 3
    out = np.where(absxi <= spec.N, 1.0, (spec.N / safe) ** ((1 - spec.s) * sig))
    if np.isscalar(xi) or out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class EnergyReport:
    """Energy split at one time stamp, for u or Iu as labeled by (N, s)."""

    time: float
    kinetic: float
    potential: float
    total: float
    l2: float
    N: float = np.inf      # inf marks the unmodified energy (I = identity)
    s: float = 1.0

    def __post_init__(self):
        if self.kinetic < 0 or self.potential < 0:
            raise ValueError("energy parts must be nonnegative")


def _energy_report(coef, xi2, u, w, time, N=np.inf, s=1.0) -> EnergyReport:
    """The one energy path: kinetic sum |xi|^2 |coef|^2 and l2 from the
    unitary coefficients, no transform; potential from the physical values
    u of the same state under the quadrature weight w.
    """
    c2 = np.abs(coef) ** 2
    kin = float(np.sum(xi2 * c2))
    pot = 0.5 * float(np.sum((np.abs(u) ** 2 + 2 * u.real) ** 2)) * w
    return EnergyReport(time=time, kinetic=kin, potential=pot, total=kin + pot,
                        l2=math.sqrt(float(np.sum(c2))), N=N, s=s)


def energy(f: Field, time: float = 0.0) -> EnergyReport:
    """E(u) = int |grad u|^2 + 1/2 int (|u|^2 + 2 Re u)^2."""
    grid = f.grid
    return _energy_report(forward_transform(f), grid.xi_abs() ** 2, f.values,
                          grid.dx ** grid.dim, time)


def modified_energy(f: Field, spec: MultiplierSpec, time: float = 0.0) -> EnergyReport:
    """E(Iu): the energy functional evaluated on the smoothed field.

    Its kinetic part is ||grad Iu||_{L^2}^2.
    """
    grid = f.grid
    absxi = grid.xi_abs()
    coef = forward_transform(f) * multiplier_value(spec, absxi)
    return _energy_report(coef, absxi ** 2, inverse_transform(grid, coef).values,
                          grid.dx ** grid.dim, time, N=spec.N, s=spec.s)
