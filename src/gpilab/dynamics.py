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
step works in place, its nonlinear substep on chunks of 2^15 points, and
the records' grids, u and every Iu, are reduced in groups of
g = max(1, 2^15 // size) consecutive grids into the named columns of the
record table, the package's one discretization of E(u) and E(Iu).
A trajectory keeps one state, the final one.  The working set is the
coefficients uh, the half-step phase, |xi|^2, one multiplier array per
spec and one group (g complex and g + ceil(g / rows) real arrays), with
the step's scratch inside them.  `evolve` drops its datum after the first
fftn, so a datum no caller holds (the CLI's) is freed before these exist,
and building one (`rough_datum`) holds less than they do.
Also here: the step-size law, rough data, and two reductions of a
trajectory's record table: the L^2 growth audit and the
almost-conservation sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (Field, Grid, _fftn_box, _hs_norm, _ifftn_box, _spectral_scale,
                   inverse_transform)
from .ioperator import multiplier_value
from .fitting import ExponentFit, loglog_fit

_PAD = 0.01         # rough_datum's spectral decay past the H^s edge
_CHUNK_POINTS = 2 ** 15   # evolve's scratch budget: points per chunk, per record group
_AUDIT_RECORDS = 3        # l2_growth_audit's fewest records

__all__ = [
    "BlowUpError", "EvolveConfig", "Trajectory",
    "evolve", "l2_growth_audit", "delta_step",
    "rough_datum", "almost_conservation",
]


class BlowUpError(RuntimeError):
    """Raised at the first record whose E(u), any E(Iu) or ||u||_{L^3} is
    not finite; carries that record's time and the records before it (none
    if the datum overflows) as a trajectory whose final state is None."""

    def __init__(self, time: float, trajectory: "Trajectory"):
        super().__init__(f"non-finite record at t = {time:.6g}")
        self.time = time
        self.trajectory = trajectory


def _step_count(dt: float, t_end: float, every: int = 1):
    """The step rule: the number of steps of size dt in t_end, and the field
    that breaks the rule, or None.  't_end' unless 0 < dt <= t_end and dt
    divides t_end (no steps then); else 'diagnostics_every' unless the
    record cadence every >= 1 divides the steps."""
    if not (0 < dt <= t_end):
        return None, "t_end"
    steps = int(round(t_end / dt))
    if abs(steps * dt - t_end) > 1e-9 * t_end:
        return None, "t_end"
    if every < 1 or steps % every:
        return steps, "diagnostics_every"
    return steps, None


@dataclass(frozen=True)
class EvolveConfig:
    grid: Grid
    dt: float
    t_end: float
    diagnostics_every: int = 1

    def __post_init__(self):
        broken = _step_count(self.dt, self.t_end, self.diagnostics_every)[1]
        if broken == "t_end":
            raise ValueError("need 0 < dt <= t_end, with t_end a whole multiple of dt")
        if broken:
            raise ValueError("diagnostics cadence must divide the step count")

    @property
    def n_steps(self) -> int:
        return _step_count(self.dt, self.t_end)[0]


# the record table's columns: per record, and per record and row
_SNAPSHOT = np.dtype([("time", float), ("l3", float)])      # l3 = ||u||_{L^3}
_ENERGY = np.dtype([(c, float) for c in ("kinetic", "potential", "total", "l2")])


@dataclass
class Trajectory:
    snapshots: np.ndarray   # (records,) of _SNAPSHOT
    energies: np.ndarray    # (records, rows) of _ENERGY
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
    sine (`_expm1_i`), bitwise numpy's complex expm1.  It runs on chunks of
    c points of the flattened physical state (slabs along axis 0) and
    writes each result back in place; work = (e, r) is flat complex and
    real scratch of c and 2c entries, overwritten, and 1 + u takes r's
    memory once theta is spent.  Every product keeps its operand order,
    since numpy's complex product is not bitwise symmetric.
    """
    e, r = work
    K_in, K = box
    uh *= half_phase
    u = _ifftn_box(uh, uh.ndim, K_in).reshape(-1)
    for a in range(0, len(u), len(e)):
        uc = u[a:a + len(e)]
        k = len(uc)
        theta, s = r[:k], r[k:2 * k]
        np.square(np.abs(uc, out=theta), out=theta)
        theta += np.multiply(2, uc.real, out=s)
        theta *= dt
        _expm1_i(theta, e[:k], s)
        v = np.add(1, uc, out=r[:2 * k].view(complex))
        v *= e[:k]
        np.add(v, uc, out=uc)
    _fftn_box(uh, uh.ndim, K)
    uh *= half_phase
    return uh


def _row_sums(a) -> np.ndarray:
    # the sum of each row of a stack, rounded as np.sum of that row alone
    return np.sum(a.reshape(len(a), -1), axis=1)


def evolve(u0: Field, cfg: EvolveConfig, specs=()) -> Trajectory:
    """Integrate u0 to t_end, reporting E(u) and E(Iu) at the cadence.

    Record k fills row k of the trajectory's tables.  Its grids, uh and
    then uh m_N per spec, are filled one at a time into a stack of
    max(1, _CHUNK_POINTS // size) consecutive grids, whichever records they
    belong to.  When the stack is full, or the last grid is filled, one
    pass reduces it: the l2 and kinetic sums of |c|^2, then scaled (l2 by
    scale, kinetic by scale^2); one batched inverse FFT in place;
    ||u||_{L^3} of its u grids; the potentials, with 2 Re u written over
    the stack's imaginary parts; and the finiteness check of the records it
    finishes, in record order.  So a non-finite record raises at its own
    time with the records before it, once its group is reduced.  The stack
    and its real arrays also hold the step's chunk scratch, in the stack's
    last grid, which a full stack never leaves filled between records.
    u0 is dropped after the first fftn, so it is freed if the caller holds
    no reference.  The datum may hold modes past the dealiased box
    (`rough_datum` does in 2D and 3D), so the groups of the first record and
    step 1 transform every line; later ones skip the lines that are zero.
    `final`, the state at t_end, is one more inverse transform of the
    coefficients, made after the work arrays are freed.
    """
    if u0.grid != cfg.grid:
        raise ValueError("initial datum lives on a different grid")
    specs = tuple(specs)
    grid = cfg.grid
    uh = np.fft.fftn(u0.values)
    del u0                             # a datum the caller does not hold is freed here
    rows, size = 1 + len(specs), uh.size
    xi2 = grid.xi_abs()                # |xi| until m_N is filled, then |xi|^2 in place
    m_N = np.empty((len(specs),) + grid.shape)
    for m, sp in zip(m_N.reshape(len(specs), size), specs):
        for a in range(0, size, _CHUNK_POINTS):     # chunk-sized temporaries
            part = slice(a, a + _CHUNK_POINTS)
            m[part] = multiplier_value(sp, xi2.reshape(-1)[part])
    np.square(xi2, out=xi2)
    half_phase = np.exp(0.5j * cfg.dt * xi2)    # e^{i |xi|^2 dt/2}
    scale = _spectral_scale(grid)      # raw fftn -> unitary coefficients
    w = grid.dx ** grid.dim
    labels = [(np.inf, 1.0)] + [(sp.N, sp.s) for sp in specs]
    K = grid.dealias_cutoff
    records = cfg.n_steps // cfg.diagnostics_every + 1
    traj = Trajectory(np.empty(records, _SNAPSHOT), np.empty((records, rows), _ENERGY),
                      labels, None, cfg)
    # grid f of the run is row f % rows of record f // rows, and row f of table
    snaps, table = traj.snapshots, traj.energies.reshape(-1)
    group = max(1, _CHUNK_POINTS // size)
    # a group's coefficients, then its physical values, in place, and one
    # real array per grid plus one per u grid; a step chunk of c points uses
    # the last c complex and the first 2c real entries of them
    stack = np.empty((group,) + grid.shape, dtype=complex)
    real = np.empty((group + -(-group // rows),) + grid.shape)
    chunk = min(_CHUNK_POINTS, size)
    step_work = (stack.reshape(-1)[-chunk:], real.reshape(-1)[:2 * chunk])
    done = 0                           # grids reduced; the stack holds grid done on

    def reduce(end):
        nonlocal done
        lo, done = done, end
        ws, absu, e = stack[:end - lo], real[:end - lo], table[lo:end]
        # sums of the raw coefficients, scaled as unitary ones: int |grad u|^2, l2
        c2 = np.square(np.abs(ws, out=absu), out=absu)
        e["l2"] = np.sqrt(_row_sums(c2)) * scale
        e["kinetic"] = _row_sums(np.multiply(xi2, c2, out=c2)) * scale ** 2
        _ifftn_box(ws, grid.dim, grid.n // 2 if lo < rows else K)
        np.abs(ws, out=absu)
        us = range(lo + -lo % rows, end, rows)      # each record's u grid
        if us:
            cubes = np.power(absu[us.start - lo::rows], 3, out=real[group:group + len(us)])
            for f, cube in zip(us, _row_sums(cubes)):
                snaps["l3"][f // rows] = (cube * w) ** (1.0 / 3)
        np.square(absu, out=absu)           # 1/2 int (|u|^2 + 2 Re u)^2
        # 2 Re u into the stack's imaginary parts: u is not needed again
        np.add(absu, np.multiply(2, ws.real, out=ws.imag), out=absu)
        e["potential"] = 0.5 * _row_sums(np.square(absu, out=absu)) * w
        k0, k1 = lo // rows, end // rows          # the records this group finishes
        energies = traj.energies[k0:k1]
        np.add(energies["kinetic"], energies["potential"], out=energies["total"])
        finite = np.isfinite(snaps["l3"][k0:k1]) & np.isfinite(energies["total"]).all(axis=1)
        if not finite.all():                    # the first in record order
            k = k0 + int(np.argmin(finite))
            raise BlowUpError(float(snaps["time"][k]), Trajectory(
                snaps[:k], traj.energies[:k], labels, None, cfg))

    def record(k, t):
        snaps["time"][k] = t
        for f in range(k * rows, (k + 1) * rows):   # row 0 u, row j >= 1 spec j's I_N u
            if f % rows:
                np.multiply(uh, m_N[f % rows - 1], out=stack[f - done])
            else:
                stack[f - done] = uh
            if f + 1 - done == group or f + 1 == records * rows:
                reduce(f + 1)

    record(0, 0.0)
    for i in range(1, cfg.n_steps + 1):
        _step_raw(uh, half_phase, cfg.dt, (grid.n // 2 if i == 1 else K, K), step_work)
        if i % cfg.diagnostics_every == 0:
            record(i // cfg.diagnostics_every, i * cfg.dt)
    # the records wrote 2 Re u over Im u, so `final` is one more inverse
    # transform of uh, made after the work arrays are freed
    del stack, real, step_work
    traj.final = Field._adopt(grid, _ifftn_box(uh, grid.dim, K))
    return traj


# ---------------------------------------------------------------------------
# L^2 growth audits

@dataclass(frozen=True)
class GrowthAudit:
    """Worst margins of the differential and Gronwall L^2 bounds.

    Margins are (bound - observed); nonnegative means the bound held.
    The Gronwall bound carries a 10 dt^2 slack, which is its whole margin
    at t = 0.  So the smallest Gronwall margin is that slack (1e-5 at
    dt = 1e-3, as `simulate` prints) on every run where ||u||_{L^2} grows
    no faster than the bound: it says the bound held, not how tight it is.
    ROADMAP item 18 adds a tightness measure.
    """

    differential_margin: float
    gronwall_margin: float
    violations: int


def l2_growth_audit(traj: Trajectory) -> GrowthAudit:
    """Check d/dt ||u||^2 <= 2 int (|u|^3 + 2|u|^2) and the closed bound."""
    if len(traj.snapshots) < _AUDIT_RECORDS:
        raise ValueError(f"audit needs at least {_AUDIT_RECORDS} records")
    ts = traj.snapshots["time"]
    l2 = traj.energies["l2"][:, 0]
    rhs = 2.0 * (traj.snapshots["l3"] ** 3 + 2.0 * l2 ** 2)
    scale = float(rhs.max()) if rhs.max() > 0 else 1.0
    tol = 10.0 * traj.cfg.dt * scale

    # centered discrete derivative of ||u||^2 at interior report times
    d = (l2[2:] ** 2 - l2[:-2] ** 2) / (ts[2:] - ts[:-2])
    diff_margins = rhs[1:-1] + tol - d
    worst_diff = float(diff_margins.min())

    e0 = traj.energies["total"][0, 0]
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
    coef = (np.power(1.0 + absxi ** 2, -(s + grid.dim / 2 + _PAD) / 2)
            * np.exp(2j * np.pi * rng.uniform(size=grid.shape))
            * (absxi <= (2.0 / 3.0) * absxi.max()))
    coef /= _hs_norm(absxi, coef, s)
    return inverse_transform(grid, coef)


@dataclass(frozen=True)
class AlmostConservationRow:
    N: float
    increment_window: float     # |E(I u(window)) - E(I u0)|
    increment_delta: float      # same at t = min(delta_step, window); equal to
                                # increment_window whenever delta >= window
    delta: float
    gradI_norm: float           # ||grad I u0||


@dataclass(frozen=True)
class AlmostConservationResult:
    rows: tuple
    fit: ExponentFit


def almost_conservation(traj: Trajectory) -> AlmostConservationResult:
    """The modified-energy increments of a run, one row per Iu of its record
    table: over the whole run, the window t_end, and up to the record
    nearest min(delta_step, window); then the fit of the window increments
    against N."""
    ts = traj.snapshots["time"]
    window = traj.cfg.t_end
    rows = []
    for (N, s), e in zip(traj.labels[1:], traj.energies[:, 1:].T):    # spec, record
        kinetic0, total = e["kinetic"][0].item(), e["total"].tolist()
        e0 = total[0]
        inc_window = abs(total[-1] - e0)
        delta = delta_step(N, s, kinetic0)
        t_delta = min(delta, window)
        idx = int(np.argmin(np.abs(ts - t_delta)))
        inc_delta = abs(total[idx] - e0)
        rows.append(AlmostConservationRow(
            N=N, increment_window=inc_window, increment_delta=inc_delta,
            delta=delta, gradI_norm=math.sqrt(kinetic0)))
    fit = loglog_fit([r.N for r in rows],
                     [max(r.increment_window, 1e-300) for r in rows])
    return AlmostConservationResult(rows=tuple(rows), fit=fit)
