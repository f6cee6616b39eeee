"""Pseudo-spectral simulation and verification benches for a shifted
Gross-Pitaevskii equation on periodic boxes.

Modules
-------
grid        periodic grids, physical fields, unitary FFTs
ioperator   the smoothing multiplier m_N of I_N
dynamics    split-step integrator and its record table, the one source of
            E(u) and E(Iu); growth audits, step law, sweeps
bench       Strichartz / bilinear benches on dyadic bands
multverify  randomized checks of the pointwise multiplier bounds
ledger      exact rational exponent bookkeeping
cli         batch entry point

The tests' reference formulas (the L^p and H^s norms of a Field, the
dealiased box as a full-grid mask, the step and the record as fresh-array
formulas) live in tests/oracles.py.
"""

__version__ = "0.1.0"
