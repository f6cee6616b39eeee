"""Integrator, growth audits, step law, and the conservation sweeps."""

import dataclasses
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gpilab import dynamics
from gpilab.grid import Field, Grid, _spectral_scale, forward_transform
from gpilab.dynamics import (BlowUpError, EvolveConfig, _expm1_i, _step_raw,
                             almost_conservation, delta_step, evolve, l2_growth_audit,
                             rough_datum)
from gpilab.fitting import loglog_fit
from gpilab.ioperator import MultiplierSpec, multiplier_value
from gpilab.ledger import step_law_exponent
from oracles import (box, fft_nan_from, lp_norm, out_of_place_record, out_of_place_step,
                     patch_fft, same_bits, smooth_datum, sobolev_norm)


# ---------------------------------------------------------------------------
# configuration validation

def test_evolve_config_rejects_bad_input():
    g = Grid(dim=1, n=16, length=1.0)
    with pytest.raises(ValueError):
        EvolveConfig(grid=g, dt=0.3, t_end=1.0)          # not a divisor
    with pytest.raises(ValueError):
        EvolveConfig(grid=g, dt=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        EvolveConfig(grid=g, dt=1.0, t_end=0.25)         # dt > t_end
    with pytest.raises(ValueError):
        EvolveConfig(grid=g, dt=0.1, t_end=1.0, diagnostics_every=3)


def test_evolve_rejects_a_datum_on_another_grid():
    # same shape, other box length: only the grid check can tell them apart
    g = Grid(dim=1, n=16, length=1.0)
    cfg = EvolveConfig(grid=g, dt=0.1, t_end=1.0)
    with pytest.raises(ValueError, match="different grid"):
        evolve(Field.zero(Grid(dim=1, n=16, length=2.0)), cfg)


# ---------------------------------------------------------------------------
# records

def test_records_match_field_energies():
    # each record agrees with the fresh-array record formula applied to the
    # state at its time, taken as the final state of a run to that time
    g = Grid(dim=2, n=32, length=2 * np.pi)
    specs = (MultiplierSpec(N=2.0, s=0.8), MultiplierSpec(N=4.0, s=0.6))
    cfg = EvolveConfig(grid=g, dt=0.01, t_end=0.1, diagnostics_every=5)
    u0 = rough_datum(g, 0.8, seed=2)
    traj = evolve(u0, cfg, specs)
    assert traj.snapshots["time"].tolist() == [0.0, 0.05, 0.1]
    assert traj.labels == [(np.inf, 1.0), (2.0, 0.8), (4.0, 0.6)]
    absxi = g.xi_abs()
    m_N = [multiplier_value(sp, absxi) for sp in specs]
    scale, w = _spectral_scale(g), g.dx ** g.dim
    for k, t in enumerate(traj.snapshots["time"].tolist()):
        f = u0 if t == 0 else evolve(u0, dataclasses.replace(cfg, t_end=t)).final
        snap, energy, _ = out_of_place_record(t, np.fft.fftn(f.values), m_N, scale,
                                              absxi ** 2, w)
        for got, want in ((traj.snapshots[k], snap), (traj.energies[k], energy)):
            for c in want.dtype.names:
                assert np.all(np.abs(got[c] - want[c]) <= 1e-13 * np.abs(want[c]))


def test_record_table_contract(monkeypatch):
    # one snapshot per record, (time, l3 = ||u||_{L^3}), and one energy per
    # record and row u, Iu..., (kinetic, potential, total, l2), total the
    # float sum of kinetic and potential; a blow-up keeps exactly the
    # records finished before it
    g = Grid(dim=1, n=64, length=2 * np.pi)
    specs = (MultiplierSpec(N=2.0, s=0.8), MultiplierSpec(N=4.0, s=0.6))
    cfg = EvolveConfig(grid=g, dt=0.01, t_end=0.06, diagnostics_every=2)
    traj = evolve(smooth_datum(g), cfg, specs)
    assert traj.snapshots.shape == (4,) and traj.snapshots.dtype.names == ("time", "l3")
    assert traj.energies.shape == (4, 3)
    assert traj.energies.dtype.names == ("kinetic", "potential", "total", "l2")
    assert traj.labels == [(np.inf, 1.0), (2.0, 0.8), (4.0, 0.6)]
    e = traj.energies
    assert same_bits(e["kinetic"] + e["potential"], e["total"])
    assert traj.snapshots["l3"][-1] == lp_norm(traj.final, 3)

    # NaN from step 3 on: the records at steps 0 and 2 are finished, the
    # one at step 4 is not, though all four share one record group
    fft_nan_from(monkeypatch, 4)
    with pytest.raises(BlowUpError) as err, np.errstate(all="ignore"):
        evolve(smooth_datum(g), cfg, specs)
    kept = err.value.trajectory
    assert err.value.time == 0.04 and kept.final is None
    assert kept.labels == traj.labels
    assert same_bits(kept.snapshots, traj.snapshots[:2])
    assert same_bits(kept.energies, traj.energies[:2])


@pytest.mark.memory
def test_record_memory_does_not_grow_with_record_count():
    # 201 records against 2 over the same 200 steps: a record keeps
    # scalars, not a state
    g = Grid(dim=1, n=1024, length=16 * np.pi)
    u0 = rough_datum(g, 0.9, seed=1)
    state_bytes = 16 * g.n

    def peak(every):
        cfg = EvolveConfig(grid=g, dt=1e-3, t_end=0.2, diagnostics_every=every)
        tracemalloc.start()
        try:
            traj = evolve(u0, cfg)
            return tracemalloc.get_traced_memory()[1], len(traj.snapshots)
        finally:
            tracemalloc.stop()

    (few, n_few), (many, n_many) = peak(200), peak(1)
    assert (n_few, n_many) == (2, 201)
    assert many - few < 16 * state_bytes


def test_record_transform_count(monkeypatch):
    # one fftn for the datum, an inverse/forward pair per step, one batched
    # inverse transform per group of grids, u's and every spec's, and one
    # more for `final`: each record writes 2 Re u over the imaginary parts of
    # its physical rows, so the final state is transformed again from its
    # coefficients
    g = Grid(dim=1, n=64, length=2 * np.pi)
    specs = [MultiplierSpec(N=float(N), s=0.8) for N in (2, 4, 8, 16)]
    cfg = EvolveConfig(grid=g, dt=0.01, t_end=0.05, diagnostics_every=1)
    u0 = smooth_datum(g)
    calls = []

    def counting(real, inverse):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    patch_fft(monkeypatch, counting)
    traj = evolve(u0, cfg, specs)
    steps, records = cfg.n_steps, len(traj.energies)
    groups = -(-records * len(traj.labels) // max(1, dynamics._CHUNK_POINTS // g.n))
    assert records == steps + 1 and groups == 1
    assert len(calls) == 1 + 2 * steps + groups + 1


@pytest.mark.parametrize("grid, Ns", [(Grid(1, 1024, 16 * np.pi), (4, 8, 16, 32)),
                                      (Grid(3, 32, 2 * np.pi), (8,)),
                                      (Grid(2, 64, 2 * np.pi), (4, 8))])
def test_evolve_matches_out_of_place_formulas_bitwise(grid, Ns):
    # the in-place step and the stacked record round like the fresh-array
    # formulas above, element by element and sum by sum; the band-limited
    # transforms and the real-sine substep change no bit.  In 2D and 3D the
    # datum holds modes past the dealiased box, so the full transforms of
    # the first record and step 1 are exercised too.  The 15 records' grids
    # fill groups of 32, 32 and 11 grids in 1D (5 rows per record), five of
    # 8 and one of 5 in 2D (3 rows), and groups of one grid in 3D
    specs = [MultiplierSpec(N=float(N), s=0.9) for N in Ns]
    cfg = EvolveConfig(grid=grid, dt=1e-3, t_end=28e-3, diagnostics_every=2)
    u0 = rough_datum(grid, 0.9, seed=1)
    mask = box(grid.n, grid.dim, grid.dealias_cutoff)
    c2 = np.abs(np.fft.fftn(u0.values)) ** 2
    outside = c2[~mask].sum() / c2.sum()
    assert (outside > 1e-6) == (grid.dim > 1)      # 1D: round-off only
    traj = evolve(u0, cfg, specs)

    absxi = grid.xi_abs()
    xi2 = absxi ** 2
    half_phase = np.exp(1j * xi2 * cfg.dt / 2)
    m_N = [multiplier_value(sp, absxi) for sp in specs]
    scale, w = _spectral_scale(grid), grid.dx ** grid.dim
    uh = np.fft.fftn(u0.values)
    snap, energy, u = out_of_place_record(0.0, uh, m_N, scale, xi2, w)
    snaps, energies = [snap], [energy]
    for i in range(1, cfg.n_steps + 1):
        uh = out_of_place_step(uh, half_phase, cfg.dt, mask)
        if i % cfg.diagnostics_every == 0:
            snap, energy, u = out_of_place_record(i * cfg.dt, uh, m_N, scale, xi2, w)
            snaps.append(snap)
            energies.append(energy)

    assert traj.energies.shape == (15, 1 + len(specs))
    assert same_bits(traj.snapshots, np.stack(snaps))
    assert same_bits(traj.energies, np.stack(energies))
    assert same_bits(traj.final.values, u)


@pytest.mark.parametrize("grid, points", [
    pytest.param(Grid(1, 1024, 16 * np.pi), 100, id="grid0"),
    pytest.param(Grid(3, 16, 2 * np.pi), 100, id="grid1"),
    pytest.param(Grid(1, 1024, 16 * np.pi), 3 * 1024, id="straddling-groups")])
def test_record_groups_and_step_chunks_are_bitwise(monkeypatch, grid, points):
    # the default run reduces its 15 records' 75 grids in groups of 32, 32
    # and 11 in 1D, where it is the run that
    # test_evolve_matches_out_of_place_formulas_bitwise holds to the record
    # oracle, and of 8 grids, against 5 per record, at 16^3.  A points
    # budget of 100 reduces one grid per group and runs the substep in
    # chunks of 100 points, the last one short; one of 3 grids in 1D makes
    # groups of 3 grids against 5 per record, so most groups straddle two
    # records.  Every record and the final state equal the default's bit
    # for bit, and a NaN inside the second default 1D group raises at the
    # same time in both, keeping the same records.  At 16^3 |xi| is at most
    # 8 sqrt(3) < 14, so there every N is below it and m_N cuts
    Ns = (4, 8, 16, 32) if grid.dim == 1 else (2, 4, 8, 16)
    specs = [MultiplierSpec(N=float(N), s=0.9) for N in Ns]
    cfg = EvolveConfig(grid=grid, dt=1e-3, t_end=28e-3, diagnostics_every=2)
    u0 = rough_datum(grid, 0.9, seed=1)
    want = evolve(u0, cfg, specs)
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_CHUNK_POINTS", points)
        calls = {"inverse": 0, "_expm1_i": 0}

        def counting(real, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)
            return wrapper

        patch.setattr(dynamics, "_expm1_i", counting(dynamics._expm1_i, "_expm1_i"))
        if grid.dim == 1:
            patch_fft(patch, lambda real, inverse: counting(real, "inverse") if inverse
                      else real)
        got = evolve(u0, cfg, specs)
        size, grids = grid.n ** grid.dim, got.energies.size
        chunks = -(-size // min(points, size))
        groups = -(-grids // max(1, points // size))
        assert calls["_expm1_i"] == cfg.n_steps * chunks
        if grid.dim == 1:      # a step's, a record group's and `final`'s
            assert calls["inverse"] == cfg.n_steps + groups + 1
    for a, b in ((got.snapshots, want.snapshots), (got.energies, want.energies),
                 (got.final.values, want.final.values)):
        assert same_bits(a, b)

    # NaN from step 17 on: the record at step 18, record 9, is the first lost
    step, steps = dynamics._step_raw, []

    def faulty(uh, *args):
        steps.append(None)
        step(uh, *args)
        if len(steps) >= 17:
            uh[...] = np.nan
        return uh

    kept = []
    for patched in (False, True):
        with monkeypatch.context() as patch:
            if patched:
                patch.setattr(dynamics, "_CHUNK_POINTS", points)
            steps.clear()
            patch.setattr(dynamics, "_step_raw", faulty)
            with pytest.raises(BlowUpError) as err, np.errstate(all="ignore"):
                evolve(u0, cfg, specs)
        assert err.value.time == 18 * cfg.dt
        kept.append(err.value.trajectory)
    for traj in kept:
        assert same_bits(traj.snapshots, want.snapshots[:9])
        assert same_bits(traj.energies, want.energies[:9])


def test_real_sine_factor_is_complex_expm1_bitwise():
    # the substep's e^{i theta} - 1 against numpy's complex expm1, at the
    # signed zero's edge cases, at +-pi and 1e6, and at random theta over
    # fourteen decades.  theta = -0.0 is left out: the step never makes it
    # (|u|^2 + 2 Re u is +0.0 where u is zero), and 1j * -0.0 = (-0, +0)
    rng = np.random.default_rng(4)
    theta = np.concatenate([[0.0, 1e-300, -1e-300, np.pi, -np.pi, 1e6, 5e-324, 1e-160],
                            *(rng.uniform(-1, 1, 2000) * 10.0 ** p
                              for p in range(-8, 7))])
    e = _expm1_i(theta, np.empty(theta.shape, complex), np.empty(theta.shape))
    want = np.expm1(1j * theta)
    assert np.array_equal(e.view(np.uint64), want.view(np.uint64))


def _peak_states(g, run):
    # tracemalloc's peak of a second call of run above what was held before
    # it, in complex states of grid g: the first call may import modules and
    # build FFT caches.  tracemalloc counts numpy's buffers exactly
    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / (16 * g.n ** g.dim)
    finally:
        tracemalloc.stop()


_G32 = Grid(3, 32, 2 * np.pi)
_CFG32 = EvolveConfig(grid=_G32, dt=1e-3, t_end=4e-3, diagnostics_every=2)


@pytest.mark.memory
def test_evolve_peak_memory_in_state_sizes():
    # a 32^3 run with one spec, the datum not counted, holds uh, half_phase,
    # |xi|^2, one m_N and one record row, with the step's scratch inside it
    u0 = rough_datum(_G32, 0.9, seed=1)
    spec = [MultiplierSpec(N=8.0, s=0.9)]
    assert _peak_states(_G32, lambda: evolve(u0, _CFG32, spec)) < 6.0


@pytest.mark.memory
def test_evolve_peak_memory_with_four_specs():
    # four specs hold four m_N arrays, and a record works on one row at a
    # time
    u0 = rough_datum(_G32, 0.9, seed=1)
    specs = [MultiplierSpec(N=float(N), s=0.9) for N in (2, 4, 8, 16)]
    assert _peak_states(_G32, lambda: evolve(u0, _CFG32, specs)) < 7.6


@pytest.mark.memory
def test_rough_datum_peak_memory():
    # the inverse transform hands its fresh array to the Field without a
    # copy, so building the datum peaks at 3.00 states
    assert _peak_states(_G32, lambda: rough_datum(_G32, 0.9, seed=1)) < 3.01


@pytest.mark.memory
def test_evolve_frees_a_datum_no_caller_holds():
    # evolve drops its datum after the first fftn, so a datum passed
    # unnamed is gone before the work arrays exist
    spec = [MultiplierSpec(N=8.0, s=0.9)]
    peak = _peak_states(_G32, lambda: evolve(rough_datum(_G32, 0.9, seed=1), _CFG32, spec))
    assert peak < 6.0


def test_zero_datum_stays_zero():
    g = Grid(dim=1, n=32, length=2 * np.pi)
    cfg = EvolveConfig(grid=g, dt=0.01, t_end=0.1)
    traj = evolve(Field.zero(g), cfg)
    assert all(np.all(traj.energies[c] == 0.0) for c in traj.energies.dtype.names)


def test_blow_up_carries_partial_trajectory(monkeypatch):
    g = Grid(dim=1, n=64, length=2 * np.pi)
    fft_nan_from(monkeypatch, 4)        # NaN from step 3 on
    with pytest.raises(BlowUpError) as err, np.errstate(all="ignore"):
        evolve(smooth_datum(g), EvolveConfig(grid=g, dt=0.1, t_end=1.0))
    assert err.value.time > 0
    traj = err.value.trajectory
    assert traj is not None and traj.final is None
    # the records before step 3 are kept, the non-finite one at t = 0.3 is not
    assert err.value.time == pytest.approx(0.3)
    assert traj.snapshots["time"] == pytest.approx([0.0, 0.1, 0.2])
    assert traj.energies.shape == (3, 1)
    assert all(np.all(np.isfinite(traj.energies[c])) for c in traj.energies.dtype.names)


def test_nonlinear_substep_is_the_exact_flow(monkeypatch):
    # with identity transforms, unit phase and no mask, _step_raw is the
    # pointwise substep u' = iF(u) alone.  |1 + u| in [0.5, 1.5] and dt 1.5
    # make theta = (|1 + u|^2 - 1) dt range over [-1.1, 1.9], far past the
    # reach of one RK4 step (off by 1e5 here)
    rng = np.random.default_rng(0)
    u0 = (rng.uniform(0.5, 1.5, 256) * np.exp(2j * np.pi * rng.uniform(size=256))) - 1
    dt = 1.5

    def identity(a, *args, out=None, **kwargs):
        if out is None:
            return a
        out[...] = a
        return out

    patch_fft(monkeypatch, lambda real, inverse: identity)
    work = (np.empty(256, complex), np.empty(512))         # one chunk of 256 points
    u = _step_raw(u0.copy(), 1.0, dt, (128, 128), work)     # the whole-grid box

    def rhs(w):
        return 1j * (1 + w) * (np.abs(w) ** 2 + 2 * w.real)

    ref, n = u0.copy(), 4000        # reference: 4000 RK4 steps
    h = dt / n
    for _ in range(n):
        k1 = rhs(ref)
        k2 = rhs(ref + h / 2 * k1)
        k3 = rhs(ref + h / 2 * k2)
        k4 = rhs(ref + h * k3)
        ref = ref + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.max(np.abs(u - ref)) < 1e-10
    assert np.max(np.abs(np.abs(1 + u) / np.abs(1 + u0) - 1)) <= 1e-15


@pytest.mark.parametrize("grid, k, rho", [(Grid(1, 64, 2 * np.pi), (3,), 1.3),
                                          (Grid(3, 16, 2 * np.pi), (2, 2, 2), 0.7)])
def test_evolve_keeps_plane_wave_exact(grid, k, rho):
    # v = 1 + u = rho e^{i(k.x + omega t)} with omega = |k|^2 + rho^2 - 1 is
    # an exact solution, and both Strang substeps reproduce it: the linear
    # half-steps turn the one mode, the pointwise flow turns v at |v| = rho.
    # omega with the wrong sign is off by 0.68 (1D) and 1.23 (3D)
    phase = sum(kj * x for kj, x in zip(k, grid.x_mesh()))
    omega = sum(kj ** 2 for kj in k) + rho ** 2 - 1

    def exact(t):
        return rho * np.exp(1j * (phase + omega * t)) - 1

    traj = evolve(Field(grid, exact(0.0)), EvolveConfig(grid=grid, dt=0.1, t_end=1.0))
    assert np.max(np.abs(traj.final.values - exact(1.0))) < 1e-12


def test_energy_drift_shrinks_with_dt():
    g = Grid(dim=1, n=128, length=2 * np.pi)
    u0 = smooth_datum(g)
    drifts = []
    for dt in (2e-3, 1e-3):
        cfg = EvolveConfig(grid=g, dt=dt, t_end=0.2,
                           diagnostics_every=int(round(0.2 / dt)))
        traj = evolve(u0, cfg)
        e = traj.energies["total"][:, 0]
        drifts.append(abs(e[-1] - e[0]) / e[0])
    assert drifts[1] < drifts[0]
    assert 2.5 < drifts[0] / drifts[1] < 6.0     # second-order splitting


def test_growth_audit_passes_on_smooth_run():
    g = Grid(dim=1, n=128, length=2 * np.pi)
    cfg = EvolveConfig(grid=g, dt=1e-3, t_end=0.2, diagnostics_every=10)
    audit = l2_growth_audit(evolve(smooth_datum(g), cfg))
    assert audit.violations == 0
    assert audit.differential_margin > 0
    assert audit.gronwall_margin > 0


def test_growth_audit_needs_enough_snapshots():
    g = Grid(dim=1, n=32, length=2 * np.pi)
    cfg = EvolveConfig(grid=g, dt=0.1, t_end=0.1)
    with pytest.raises(ValueError):
        l2_growth_audit(evolve(Field.zero(g), cfg))


# ---------------------------------------------------------------------------
# step law

def test_delta_step_float_path_agrees_with_exact():
    # a > 1, so the d1 term binds: exponent (2(1-s) - a)/(s - 1/2) = -12.8
    s, N, a = Fraction(3, 4), 16, Fraction(37, 10)
    expect = N ** float(step_law_exponent(s, a))
    got = delta_step(N, float(s), N ** float(a))
    assert abs(got - expect) < 1e-12 * expect


def test_step_law_runs_without_sympy(monkeypatch):
    monkeypatch.setitem(sys.modules, "sympy", None)     # import sympy now fails
    assert type(delta_step(4, Fraction(3, 4), Fraction(37, 10))) is float
    assert step_law_exponent(Fraction(3, 4), 2) == -6


def test_delta_step_edge_cases():
    one = delta_step(4, Fraction(3, 4), 0)
    assert type(one) is float and one == 1.0
    with pytest.raises(ValueError):
        delta_step(4, 0.5, 1.0)
    with pytest.raises(ValueError):
        delta_step(0.5, 0.75, 1.0)
    with pytest.raises(ValueError):
        delta_step(4, 0.75, -1.0)
    # tiny gradient: the unit cap binds
    assert delta_step(4, 0.75, 1e-8) == 1.0


def test_delta_step_monotone_in_g():
    deltas = [delta_step(8, 0.75, g) for g in (0.5, 2.0, 8.0, 32.0)]
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))


# ---------------------------------------------------------------------------
# rough data and almost conservation

def test_rough_datum_is_normalized_and_band_limited():
    g = Grid(dim=1, n=256, length=16 * np.pi)
    f = rough_datum(g, 0.9, seed=0)
    assert abs(sobolev_norm(f, 0.9) - 1.0) < 1e-10
    coef = forward_transform(f)
    outside = ~ (g.xi_abs() <= (2.0 / 3.0) * g.xi_abs().max())
    # transform round-trip noise only; no real mass beyond the cut
    assert np.max(np.abs(coef[outside])) < 1e-14


def test_rough_datum_is_deterministic_per_seed():
    g = Grid(dim=1, n=64, length=2 * np.pi)
    a = rough_datum(g, 0.8, seed=3)
    b = rough_datum(g, 0.8, seed=3)
    c = rough_datum(g, 0.8, seed=4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_almost_conservation_smoke():
    g = Grid(dim=1, n=256, length=16 * np.pi)
    specs = [MultiplierSpec(N=N, s=0.9) for N in (4, 8)]
    traj = evolve(rough_datum(g, 0.9, seed=7), EvolveConfig(g, dt=1e-3, t_end=0.05), specs)
    res = almost_conservation(traj)
    assert len(res.rows) == 2
    assert res.rows[0].N == 4 and res.rows[1].N == 8
    assert all(r.increment_window >= 0 for r in res.rows)
    assert all(r.delta > 0 for r in res.rows)


def test_almost_conservation_rows_are_the_record_table():
    # an amplitude-3 datum puts delta inside the window, so increment_delta
    # is read before the last record; at N = 4 the d1 term, which depends on
    # s, sets delta, so that row must read its own spec's s
    g = Grid(dim=1, n=256, length=16 * np.pi)
    u0 = Field(g, 3 * rough_datum(g, 0.9, seed=7).values)
    specs = [MultiplierSpec(N=4.0, s=0.8), MultiplierSpec(N=8.0, s=0.9)]
    traj = evolve(u0, EvolveConfig(g, dt=1e-3, t_end=0.05), specs)
    res = almost_conservation(traj)
    ts = traj.snapshots["time"]
    assert [r.N for r in res.rows] == [4.0, 8.0]
    per_spec = traj.energies[:, 1:].T                       # spec, record
    for row, (N, s), e in zip(res.rows, traj.labels[1:], per_spec):
        kinetic, total = e["kinetic"], e["total"]
        assert row.N == N
        assert row.increment_window == abs(total[-1] - total[0])
        assert row.gradI_norm == math.sqrt(kinetic[0])
        assert row.delta == delta_step(N, s, kinetic[0])
        k = int(np.argmin(np.abs(ts - row.delta)))
        assert 0 < k < len(ts) - 1
        assert row.increment_delta == abs(total[k] - total[0])
        assert row.increment_delta != row.increment_window
    incs = [r.increment_window for r in res.rows]
    assert res.fit.slope == loglog_fit([4.0, 8.0], incs).slope
