"""Acceptance suite: every gate prints one PASS/FAIL line.

Each test enforces the stated tolerance and prints a single status line
even under pytest capture.  Failures print the offending numbers before
asserting.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gpilab.grid import Field, Grid, _spectral_scale, forward_transform, inverse_transform
from gpilab.dynamics import (EvolveConfig, almost_conservation_experiment, delta_step,
                             evolve, l2_growth_audit, rough_datum)
from gpilab.bench import bilinear_sweep, strichartz_admissible, strichartz_ratio_sweep
from gpilab.multverify import CATALOG, verify_bounds
from gpilab import ledger
from gpilab.ledger import (ExponentLedger, dominant_increment, gwp_threshold,
                           step_law_exponent)
from gpilab.cli import main as cli_main
from oracles import box, out_of_place_record


def announce(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"\nACCEPTANCE {num:2d} {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


def _identity_error(f, spec):
    # the larger of the Parseval and round-trip relative errors of spec
    g = f.grid
    phys_sq = float(np.sum(np.abs(f.values) ** 2) * g.dx ** g.dim)
    spec_sq = float(np.sum(np.abs(spec) ** 2))
    back = inverse_transform(g, spec)
    scale = float(np.max(np.abs(f.values)))
    return max(abs(phys_sq - spec_sq) / phys_sq,
               float(np.max(np.abs(back.values - f.values))) / scale)


def test_acceptance_01_spectral_identities(capsys):
    # control: raw np.fft.fftn lacks the unitary scale and must break the bound
    t0 = time.monotonic()
    worst, control = 0.0, math.inf
    for dim, n in ((1, 256), (2, 128), (3, 32)):
        g = Grid(dim=dim, n=n, length=2 * np.pi)
        for seed in range(100):
            rng = np.random.default_rng(1000 * dim + seed)
            f = Field(g, rng.standard_normal(g.shape)
                      + 1j * rng.standard_normal(g.shape))
            worst = max(worst, _identity_error(f, forward_transform(f)))
            control = min(control, _identity_error(f, np.fft.fftn(f.values)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and control > 1e-12 and elapsed < 30.0
    announce(capsys, 1, "spectral identities", ok,
             f"worst rel err {worst:.2e}, control raw fftn rel err "
             f">= {control:.2e}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def smooth_run():
    g = Grid(dim=1, n=256, length=2 * np.pi)
    x = g.x_mesh()[0]
    u0 = Field(g, 0.2 * np.exp(1j * x) + 0.1 * np.cos(2 * x)
               + 0.05 * np.exp(-2j * x))
    return g, u0


def _lie_drift(u0, dt):
    # relative E(u) drift over [0, 1] of first-order Lie splitting: a full
    # linear step, then the exact nonlinear substep, then the 2/3 mask
    g = u0.grid
    phase = np.exp(1j * g.xi_abs() ** 2 * dt)
    mask = box(g.n, g.dim, g.dealias_cutoff)
    uh0 = uh = np.fft.fftn(u0.values)
    for _ in range(int(round(1.0 / dt))):
        u = np.fft.ifftn(uh * phase)
        theta = (np.abs(u) ** 2 + 2 * u.real) * dt
        uh = np.fft.fftn(u + (1 + u) * np.expm1(1j * theta)) * mask
    e0, e1 = (out_of_place_record(h, (), _spectral_scale(g), g.xi_abs() ** 2,
                                  g.dx ** g.dim)[0][3] for h in (uh0, uh))
    return abs(e1 - e0) / e0


def test_acceptance_02_energy_richardson(capsys, smooth_run):
    # control: Lie splitting of the same datum halves its drift with dt,
    # and the window must reject its ratio of about 2
    t0 = time.monotonic()
    g, u0 = smooth_run
    drifts = []
    for dt in (1e-3, 5e-4):
        cfg = EvolveConfig(grid=g, dt=dt, t_end=1.0,
                           diagnostics_every=int(round(1.0 / dt)))
        traj = evolve(u0, cfg)
        e = traj.energies[:, 0, 2]
        drifts.append(abs(e[-1] - e[0]) / e[0])
    ratio = drifts[0] / drifts[1]
    control = _lie_drift(u0, 1e-3) / _lie_drift(u0, 5e-4)
    elapsed = time.monotonic() - t0
    ok = 3.4 <= ratio <= 4.6 and not 3.4 <= control <= 4.6 and elapsed < 60.0
    announce(capsys, 2, "energy drift Richardson ratio", ok,
             f"ratio {ratio:.3f}, control Lie splitting ratio {control:.3f}, "
             f"{elapsed:.1f}s")


def test_acceptance_03_l2_growth_audits(capsys, smooth_run):
    g, u0 = smooth_run
    cfg = EvolveConfig(grid=g, dt=1e-3, t_end=1.0, diagnostics_every=10)
    audit = l2_growth_audit(evolve(u0, cfg))
    ok = (audit.violations == 0 and audit.differential_margin > 0
          and audit.gronwall_margin > 0)
    announce(capsys, 3, "L2 growth audits", ok,
             f"diff margin {audit.differential_margin:.3e}, "
             f"gronwall margin {audit.gronwall_margin:.3e}, "
             f"violations {audit.violations}")


def rational_grid(count=10 ** 4):
    # interior rationals k/(count+1) scaled into (1/2, 1)
    denom = count + 1
    return [Fraction(1, 2) + Fraction(k, 2 * denom) for k in range(1, denom)]


def test_acceptance_04_step_law_exact(capsys):
    # g = N^{2(1-s)} gives delta = N^{-4(1-s)}: exactly in the ledger, and
    # in floats at nine (s, N) pairs; g = 2N^a must break the power law
    t0 = time.monotonic()
    grid = rational_grid()
    exact = all(step_law_exponent(led.s, led.energy_exponent) == -led.step_exponent
                for led in map(ExponentLedger.at, grid))
    worst, control = 0.0, math.inf
    for s in (Fraction(3, 4), Fraction(5, 6), Fraction(9, 10)):
        a = ExponentLedger.at(s).energy_exponent
        for N in (4, 16, 64):
            expect = N ** float(step_law_exponent(s, a))
            g = N ** float(a)
            worst = max(worst, abs(delta_step(N, s, g) - expect) / expect)
            control = min(control, abs(delta_step(N, s, 2 * g) - expect) / expect)
    elapsed = time.monotonic() - t0
    ok = exact and worst <= 1e-12 and control > 1e-12 and elapsed < 2.0
    announce(capsys, 4, "step law exact power", ok,
             f"exact on {len(grid)} rationals: {exact}, worst float rel err "
             f"{worst:.1e} on 9 (s, N) pairs, control g = 2N^a rel dev "
             f">= {control:.2f}, {elapsed:.1f}s")


@pytest.mark.slow
def test_acceptance_05_bilinear_refinement(capsys):
    t0 = time.monotonic()
    res = bilinear_sweep(seeds=20, T=0.5)
    n2, n1 = res["N2_fit"].slope, res["N1_fit"].slope
    elapsed = time.monotonic() - t0
    ok = -0.65 <= n2 <= -0.35 and 0.8 <= n1 <= 1.2 and elapsed < 600.0
    announce(capsys, 5, "bilinear refinement slopes", ok,
             f"N2 slope {n2:.3f}, N1 slope {n1:.3f}, {elapsed:.0f}s")


def test_acceptance_06_strichartz(capsys):
    table_ok = (strichartz_admissible(2, 6) and strichartz_admissible(np.inf, 2)
                and not strichartz_admissible(4, 4))
    res = strichartz_ratio_sweep(2, 6, T=0.5, centers=(4, 8, 16, 32), seeds=4)
    slope = res["fit"].slope
    ok = table_ok and abs(slope) <= 0.1
    announce(capsys, 6, "Strichartz admissibility and boundedness", ok,
             f"truth table {'ok' if table_ok else 'WRONG'}, slope {slope:+.3f}")


@pytest.mark.slow
def test_acceptance_07_multiplier_bounds(capsys):
    failures = []
    worst = (0.0, "")
    for rep in verify_bounds(CATALOG, (4, 8, 16, 32), 10 ** 5, seed=2024):
        if rep.max_ratio > worst[0]:
            worst = (rep.max_ratio, rep.label)
        if not rep.passed:
            failures.append((rep.label, rep.max_ratio, rep.slope, rep.witness))
    if failures:
        with capsys.disabled():
            for label, ratio, slope, witness in failures:
                print(f"  violation {label}: max {ratio:.3g}, slope {slope:+.3f}, "
                      f"witness {witness}")
    announce(capsys, 7, "multiplier bounds", not failures,
             f"{len(CATALOG)} cases, worst max_ratio {worst[0]:.2f} ({worst[1]})")


def test_acceptance_08_almost_conservation(capsys):
    g = Grid(dim=1, n=1024, length=16 * np.pi)
    u0 = rough_datum(g, 0.9, seed=7)
    res = almost_conservation_experiment(u0, 0.9, [4, 8, 16, 32], window=0.25)
    incs = [r.increment_window for r in res.rows]
    decreasing = all(a > b for a, b in zip(incs, incs[1:]))
    ctrl = inverse_transform(g, forward_transform(u0) * (g.xi_abs() < 2.0))
    res_c = almost_conservation_experiment(ctrl, 0.9, [4, 8, 16, 32], window=0.25)
    c_incs = [r.increment_window for r in res_c.rows]
    spread = max(c_incs) - min(c_incs)
    ok = decreasing and res.fit.slope <= -0.5 and spread <= 1e-10
    announce(capsys, 8, "almost conservation decay", ok,
             f"slope {res.fit.slope:.2f}, decreasing {decreasing}, "
             f"control spread {spread:.1e}")


def test_acceptance_09_exponent_ledger(capsys, monkeypatch):
    threshold = gwp_threshold()
    grid = rational_grid()
    dominance = all(dominant_increment(s)[0] == 0 for s in grid)
    # control: the same bisection on the slack 1 - 7(1-s) must find 6/7
    monkeypatch.setattr(ledger, "gwp_condition",
                        lambda s: (1 - 7 * (1 - s) > 0, 1 - 7 * (1 - s)))
    control = gwp_threshold()
    ok = (threshold == Fraction(5, 6) and dominance
          and control == Fraction(6, 7))
    announce(capsys, 9, "exponent ledger", ok,
             f"threshold {threshold}, first-term dominance on "
             f"{len(grid)} rationals: {dominance}, control threshold {control}")


def test_acceptance_10_determinism(capsys, tmp_path):
    cfg = {
        "subcommand": "multiplier-verify",
        "params": {"cases": ["lwp-cubic/case1", "cubic-pair/case1b-meanvalue"],
                   "N_list": [4, 8, 16], "samples_per_N": 2000},
        "out_dir": "placeholder",
    }
    outs = [tmp_path / "run1", tmp_path / "run2", tmp_path / "seed8"]
    for out, seed in zip(outs, (7, 7, 8)):
        path = tmp_path / f"cfg{seed}.json"
        path.write_text(json.dumps({**cfg, "seed": seed}))
        assert cli_main(["--config", str(path), "--out", str(out)]) == 0
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("summary.json", "bounds.csv"))
    # control: another seed must change the sampled bounds
    control = (outs[0] / "bounds.csv").read_bytes() != (outs[2] / "bounds.csv").read_bytes()
    announce(capsys, 10, "byte-identical determinism", identical and control,
             f"summary.json and bounds.csv identical across reruns: {identical}, "
             f"seed 8 changes bounds.csv: {control}")
