"""The smoothing multiplier m_N of the I-method; I_N is its Fourier multiplier.

m_N is 1 below frequency N and (N/|xi|)^{1-s} above 2N.  On the join
(N, 2N) we interpolate the exponent with the C^1 smoothstep

    m(|xi|) = (N/|xi|)^{(1-s) sigma(t)},   t = log2(|xi|/N),
    sigma(t) = 3 t^2 - 2 t^3,

which matches both branch values and the outer branch derivative at 2N,
stays radial, and is nonincreasing (d/dt [t sigma(t)] = 9t^2 - 8t^3 >= 0
on [0, 1]).  This module holds m_N only: E(u) and E(Iu) come from one
place, the record table of `dynamics.evolve`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MultiplierSpec", "multiplier_value"]


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
    """m_N evaluated at an array of magnitudes |xi|, as an array of its shape.

    The input is read as |xi| directly: reduce frequency vectors to their
    magnitudes first.  Entries with |xi| <= N are 1.0 and cost no
    transcendental; the rest, NaN included, take the join or outer branch, so
    NaN stays NaN and +inf gives 0.
    """
    absxi = np.abs(np.asarray(xi, dtype=float))
    out = np.ones_like(absxi)
    high = ~(absxi <= spec.N)
    x = absxi[high]
    sig = np.clip(np.log2(x / spec.N), 0.0, 1.0)
    sig = 3 * sig ** 2 - 2 * sig ** 3
    out[high] = (spec.N / x) ** ((1 - spec.s) * sig)
    return out
