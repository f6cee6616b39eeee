"""Time evolution of the shifted Gross-Pitaevskii equation.

The unknown u solves

    i du/dt - Lap u + (1+u)(|u|^2 + 2 Re u) = 0,

integrated by Strang splitting on raw FFT coefficients: exact spectral
half-steps for the linear part and, between them, the exact flow of the
pointwise ODE u' = i F(u), then 2/3-rule dealiasing.  With v = 1 + u,
F(u) = v(|v|^2 - 1), so that flow, v -> v e^{i(|v|^2 - 1) dt}, keeps |v|;
its factor e^{i theta} - 1 is computed from the half-angle sine,
-2 sin^2(theta/2) + i sin(theta), which is what numpy's complex expm1
computes, so the two agree bitwise.  The 2/3 rule keeps the box
|k_j| <= K = floor((2/3)(n/2)) (`Grid.dealias_cutoff`); every state after
the first step lies in it, and the transforms skip the lines the box
makes zero.  The half-steps are unitary, so finite data turn non-finite
only by overflow, and the first record with a non-finite number ends the
run.  `evolve` is the one stepper.  It allocates its arrays once: the
step works in place, and each record is one pass over a stack of u and
every Iu, with one batched inverse FFT, into one row of the record table
that `evolve` sizes before the first step; that record is the package's
one discretization of E(u) and E(Iu).  A trajectory keeps one state,
the final one.  Also here: the L^2 growth audits, the step-size law and the
almost-conservation sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (Field, Grid, _fftn_box, _hs_norm, _ifftn_box, _spectral_scale,
                   inverse_transform)
from .ioperator import MultiplierSpec, multiplier_value
from .fitting import ExponentFit, loglog_fit

_PAD = 0.01         # rough_datum's spectral decay past the H^s edge

__all__ = [
    "BlowUpError", "EvolveConfig", "Trajectory",
    "evolve", "l2_growth_audit", "delta_step",
    "rough_datum", "almost_conservation_experiment",
]


class BlowUpError(RuntimeError):
    """Raised at the first record whose E(u), any E(Iu) or ||u||_{L^3} is
    not finite; carries that record's time and the records before it (none
    if the datum overflows) as a trajectory whose final state is None."""

    def __init__(self, time: float, trajectory: "Trajectory"):
        super().__init__(f"non-finite record at t = {time:.6g}")
        self.time = time
        self.trajectory = trajectory


@dataclass(frozen=True)
class EvolveConfig:
    grid: Grid
    dt: float
    t_end: float
    diagnostics_every: int = 1

    def __post_init__(self):
        if not (0 < self.dt <= self.t_end):
            raise ValueError("need 0 < dt <= t_end")
        steps = self.n_steps
        if abs(steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError("t_end must be an integer multiple of dt")
        if self.diagnostics_every < 1 or steps % self.diagnostics_every != 0:
            raise ValueError("diagnostics cadence must divide the step count")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class Trajectory:
    snapshots: np.ndarray   # (records, 2): time, ||u||_{L^3}
    energies: np.ndarray    # (records, rows, 4): kinetic, potential, total, l2
    labels: list            # (N, s) per row: (inf, 1.0) for u, then each spec's Iu
    final: Field            # physical state at t_end; None on blow-up
    cfg: EvolveConfig


def _expm1_i(theta, e, s):
    """e^{i theta} - 1 into the complex e, from real sines; s is real scratch.

    At z = i theta numpy's complex expm1 computes the real part
    expm1(Re z) cos(theta) - 2 sin^2(theta/2) and the imaginary part
    exp(Re z) sin(theta), where Re z is a signed zero: the first term is a
    signed zero and exp(Re z) is 1.  So sin(theta) and 0 theta - (2s)s,
    s = sin(theta/2), are bitwise np.expm1(1j * theta) at half its cost,
    and stay accurate at small theta; 0 theta only signs an exact-zero real
    part.  theta = -0.0, which the step never makes, is the one exception:
    1j * -0.0 has imaginary part +0.0.
    """
    np.sin(theta, out=e.imag)
    np.sin(np.multiply(theta, 0.5, out=s), out=s)
    np.multiply(s, 2, out=e.real)
    e.real *= s
    np.subtract(np.multiply(0.0, theta, out=s), e.real, out=e.real)
    return e


def _step_raw(uh, half_phase, dt, box, work):
    """One Strang step on raw fftn coefficients, in place on uh.

    box = (K_in, K): uh is zero outside the box |k_j| <= K_in (n // 2 is the
    whole grid), and the step ends with the 2/3 rule, which cuts the result
    to the box |k_j| <= K (`Grid.dealias_cutoff`) by writing exact zeros
    past it; the transforms skip the lines that the boxes make zero.  The
    nonlinear substep is the exact flow u -> u + (1+u)(e^{i theta} - 1),
    theta = (|u|^2 + 2 Re u) dt, with e^{i theta} - 1 from the half-angle
    sine (`_expm1_i`), bitwise numpy's complex expm1.  work = (v, e, theta, s)
    holds two complex and two real arrays of uh's shape, overwritten; every
    product keeps its operand order, since numpy's complex product is not
    bitwise symmetric.
    """
    v, e, theta, s = work
    K_in, K = box
    uh *= half_phase
    u = _ifftn_box(uh, uh.ndim, K_in)
    np.square(np.abs(u, out=theta), out=theta)
    theta += np.multiply(2, u.real, out=s)
    theta *= dt
    _expm1_i(theta, e, s)
    np.add(1, u, out=v)
    v *= e
    v += u
    _fftn_box(v, uh.ndim, K, out=uh)
    uh *= half_phase
    return uh


def _row_sums(a) -> np.ndarray:
    # the sum of each row of a stack, rounded as np.sum of that row alone
    return np.sum(a.reshape(len(a), -1), axis=1)


def evolve(u0: Field, cfg: EvolveConfig, specs=()) -> Trajectory:
    """Integrate u0 to t_end, reporting E(u) and E(Iu) at the cadence.

    A record is one pass over the stack of u's coefficients and, per spec,
    those of Iu: kinetic terms and l2 from the scaled coefficients, then one
    batched inverse FFT in place, then the potentials and ||u||_{L^3}.  The
    stack and the real arrays beside it are allocated once and are also the
    step's workspace.  The datum may hold modes past the dealiased box
    (`rough_datum` does in 2D and 3D), so the first record and step 1
    transform every line; every later state lies in the box, and its
    transforms skip the lines that are zero.  Record k fills row k of the
    trajectory's tables; the last record's state, at t_end, is `final`.
    """
    if u0.grid != cfg.grid:
        raise ValueError("initial datum lives on a different grid")
    specs = tuple(specs)
    grid = cfg.grid
    uh = np.fft.fftn(u0.values)
    absxi = grid.xi_abs()
    xi2 = absxi ** 2
    half_phase = np.exp(1j * xi2 * cfg.dt / 2)
    m_N = np.array([multiplier_value(sp, absxi) for sp in specs]).reshape(
        (len(specs),) + grid.shape)
    del absxi
    scale = _spectral_scale(grid)      # raw fftn -> unitary coefficients
    w = grid.dx ** grid.dim
    labels = [(np.inf, 1.0)] + [(sp.N, sp.s) for sp in specs]
    rows = len(labels)
    # rows of coefficients, then of physical values, in place; the step
    # needs two complex arrays, so the stack has at least two rows
    stack = np.empty((max(rows, 2),) + grid.shape, dtype=complex)
    real = np.empty((2, rows) + grid.shape)
    step_work = (stack[0], stack[1], real[0, 0], real[1, 0])
    ws = stack[:rows]
    K = grid.dealias_cutoff
    records = cfg.n_steps // cfg.diagnostics_every + 1
    traj = Trajectory(np.empty((records, 2)), np.empty((records, rows, 4)), labels,
                      None, cfg)

    def fill():
        ws[0] = uh
        np.multiply(uh, m_N, out=ws[1:])

    def record(k, t, box):
        snap, e = traj.snapshots[k], traj.energies[k]
        fill()
        np.multiply(ws, scale, out=ws)      # unitary coefficients
        c2, p = real
        np.square(np.abs(ws, out=c2), out=c2)
        e[:, 0] = _row_sums(np.multiply(xi2, c2, out=p))    # int |grad u|^2
        e[:, 3] = np.sqrt(_row_sums(c2))
        fill()
        _ifftn_box(ws, grid.dim, box)
        absu = np.abs(ws, out=real[0])
        snap[:] = t, (np.sum(np.power(absu[0], 3, out=real[1, 0])) * w) ** (1.0 / 3)
        np.square(absu, out=absu)           # 1/2 int (|u|^2 + 2 Re u)^2
        absu += np.multiply(2, ws.real, out=real[1])
        e[:, 1] = 0.5 * _row_sums(np.square(absu, out=absu)) * w
        np.add(e[:, 0], e[:, 1], out=e[:, 2])
        if not (np.isfinite(snap[1]) and np.isfinite(e[:, 2]).all()):
            raise BlowUpError(t, Trajectory(traj.snapshots[:k], traj.energies[:k],
                                            labels, None, cfg))

    record(0, 0.0, grid.n // 2)
    for i in range(1, cfg.n_steps + 1):
        _step_raw(uh, half_phase, cfg.dt, (grid.n // 2 if i == 1 else K, K), step_work)
        if i % cfg.diagnostics_every == 0:
            record(i // cfg.diagnostics_every, i * cfg.dt, K)
    del uh, real, step_work            # freed before `final` copies its state
    traj.final = Field(grid, ws[0])    # the last record's physical u
    return traj


# ---------------------------------------------------------------------------
# L^2 growth audits

@dataclass(frozen=True)
class GrowthAudit:
    """Worst margins of the differential and Gronwall L^2 bounds.

    Margins are (bound - observed); nonnegative means the bound held.
    """

    differential_margin: float
    gronwall_margin: float
    violations: int


def l2_growth_audit(traj: Trajectory) -> GrowthAudit:
    """Check d/dt ||u||^2 <= 2 int (|u|^3 + 2|u|^2) and the closed bound."""
    if len(traj.snapshots) < 3:
        raise ValueError("audit needs at least three snapshots")
    ts = traj.snapshots[:, 0]
    l2 = traj.energies[:, 0, 3]
    # float arithmetic, not numpy's power loops, which may round differently
    rhs = np.array([2.0 * (a ** 3 + 2.0 * b ** 2)
                    for a, b in zip(traj.snapshots[:, 1].tolist(), l2.tolist())])
    scale = float(rhs.max()) if rhs.max() > 0 else 1.0
    tol = 10.0 * traj.cfg.dt * scale

    # centered discrete derivative of ||u||^2 at interior report times
    d = (l2[2:] ** 2 - l2[:-2] ** 2) / (ts[2:] - ts[:-2])
    diff_margins = rhs[1:-1] + tol - d
    worst_diff = float(diff_margins.min())

    e0 = traj.energies[0, 0, 2]
    bound = l2[0] + math.sqrt(2.0 * e0) * ts + 10.0 * traj.cfg.dt ** 2
    gron_margins = bound - l2
    worst_gron = float(gron_margins.min())

    violations = int(np.sum(diff_margins < 0) + np.sum(gron_margins < 0))
    return GrowthAudit(differential_margin=worst_diff, gronwall_margin=worst_gron,
                       violations=violations)


# ---------------------------------------------------------------------------
# step-size law

def delta_step(N, s, g):
    """Local step length from the three-term balance, epsilons dropped.

    With g = ||grad I u0||^2 at the segment start, delta = min(1, d1, d2, d3):
        d1 = (N^{2(1-s)}/g)^{1/(s-1/2)},
        d2 = (N^{1-s}/g)^{2/s},
        d3 = g^{-2}.

    The exact exponent of N in delta when g = N^a is
    ledger.step_law_exponent(s, a).
    """
    if float(s) <= 0.5:
        raise ValueError("step law needs s > 1/2 (the d1 exponent degenerates)")
    if not (float(N) >= 1):
        raise ValueError("step law needs N >= 1")
    if float(g) < 0:
        raise ValueError("g = ||grad I u0||^2 must be nonnegative")
    if float(g) == 0:
        return 1.0
    N, s, g = float(N), float(s), float(g)
    d1 = (N ** (2 * (1 - s)) / g) ** (1 / (s - 0.5))
    d2 = (N ** (1 - s) / g) ** (2 / s)
    d3 = g ** -2
    return min(1.0, d1, d2, d3)


# ---------------------------------------------------------------------------
# rough data and the almost-conservation sweep

def rough_datum(grid: Grid, s: float, seed: int) -> Field:
    """Synthetic H^s-but-not-better datum, normalized to ||u||_{H^s} = 1.

    Spectral profile <xi>^{-s - d/2 - 0.01} with uniform random phases, cut
    radially at |xi| <= (2/3) max|xi|.  In 1D that is the stepper's 2/3-rule
    mask, so no datum mass is truncated.  In 2D and 3D the radial cut reaches
    past the per-axis mask: at 64^3 (seed 1) 0.17% of the L^2 mass lies
    outside it, and the first step drops E(u) from 1.5166 to 1.3303.
    """
    rng = np.random.default_rng(seed)
    absxi = grid.xi_abs()
    amp = (1.0 + absxi ** 2) ** (-(s + grid.dim / 2 + _PAD) / 2)
    phase = np.exp(2j * np.pi * rng.uniform(size=grid.shape))
    cut = absxi <= (2.0 / 3.0) * absxi.max()
    coef = amp * phase * cut
    return inverse_transform(grid, coef / _hs_norm(absxi, coef, s))


@dataclass(frozen=True)
class AlmostConservationRow:
    N: float
    increment_window: float     # |E(I u(window)) - E(I u0)|
    increment_delta: float      # same at t = min(delta_step, window)
    delta: float
    gradI_norm: float           # ||grad I u0||


@dataclass(frozen=True)
class AlmostConservationResult:
    rows: tuple
    fit: ExponentFit


def almost_conservation_experiment(u0: Field, s: float, N_list, window: float,
                                   dt: float = 2.5e-4) -> AlmostConservationResult:
    """Sweep N, measuring the modified-energy increment over a fixed window."""
    if not (0 < dt <= window <= 1):
        raise ValueError("need 0 < dt <= window <= 1")
    steps = int(round(window / dt))
    cfg = EvolveConfig(grid=u0.grid, dt=window / steps, t_end=window,
                       diagnostics_every=1)
    specs = [MultiplierSpec(N=N, s=s) for N in N_list]
    traj = evolve(u0, cfg, specs)
    ts = traj.snapshots[:, 0]
    rows = []
    columns = traj.energies.transpose(1, 2, 0)[1:].tolist()   # spec, column, record
    for sp, (kinetic, _, total, _) in zip(specs, columns):
        e0 = total[0]
        inc_window = abs(total[-1] - e0)
        gnorm = math.sqrt(kinetic[0])
        delta = delta_step(sp.N, s, gnorm ** 2)
        t_delta = min(delta, window)
        idx = int(np.argmin(np.abs(ts - t_delta)))
        inc_delta = abs(total[idx] - e0)
        rows.append(AlmostConservationRow(
            N=sp.N, increment_window=inc_window, increment_delta=inc_delta,
            delta=delta, gradI_norm=gnorm))
    fit = loglog_fit([r.N for r in rows],
                     [max(r.increment_window, 1e-300) for r in rows])
    return AlmostConservationResult(rows=tuple(rows), fit=fit)
