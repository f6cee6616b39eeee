"""Pseudo-spectral simulation and verification benches for a shifted
Gross-Pitaevskii equation on periodic boxes.

Modules
-------
grid        periodic grids, physical fields, unitary FFTs, norms
ioperator   the smoothing multiplier m_N, I_N, energy functionals
dynamics    split-step integrator, growth audits, step law, sweeps
bench       Strichartz / bilinear benches on dyadic bands
multverify  randomized checks of the pointwise multiplier bounds
ledger      exact rational exponent bookkeeping
cli         batch entry point
"""

__version__ = "0.1.0"
