"""Tests for the smoothing multiplier m_N, and for E(u) and E(Iu) as record 0
of `evolve`, the one place the package computes them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpilab.grid import Field, Grid, forward_transform, inverse_transform
from gpilab.dynamics import EvolveConfig, evolve
from gpilab.ioperator import MultiplierSpec, multiplier_value


def test_spec_validation():
    with pytest.raises(ValueError):
        MultiplierSpec(N=0.5, s=0.75)
    with pytest.raises(ValueError):
        MultiplierSpec(N=4, s=0.5)
    with pytest.raises(ValueError):
        MultiplierSpec(N=4, s=1.0)


def test_multiplier_branch_values():
    spec = MultiplierSpec(N=8.0, s=0.75)
    # identity below N, pure power law from 2N on
    assert multiplier_value(spec, 0.0) == 1.0
    assert multiplier_value(spec, 7.9) == 1.0
    assert multiplier_value(spec, 8.0) == 1.0
    for x in (16.0, 32.0, 100.0):
        expect = (8.0 / x) ** 0.25
        assert abs(multiplier_value(spec, x) - expect) < 1e-14


def test_multiplier_join_is_c1():
    # value and first derivative continuous across both join points
    spec = MultiplierSpec(N=4.0, s=0.8)
    h = 1e-6
    for x0 in (4.0, 8.0):
        lo = (multiplier_value(spec, x0) - multiplier_value(spec, x0 - h)) / h
        hi = (multiplier_value(spec, x0 + h) - multiplier_value(spec, x0)) / h
        assert abs(hi - lo) < 1e-4
    assert abs(multiplier_value(spec, 4 - 1e-12) - multiplier_value(spec, 4 + 1e-12)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(N=st.floats(min_value=1, max_value=100),
       s=st.floats(min_value=0.51, max_value=0.99))
def test_multiplier_monotone_nonincreasing(N, s):
    spec = MultiplierSpec(N=N, s=s)
    xs = np.geomspace(N / 100, 100 * N, 400)
    vals = multiplier_value(spec, xs)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all((0 < vals) & (vals <= 1.0))


def test_multiplier_accepts_arrays():
    spec = MultiplierSpec(N=4.0, s=0.75)
    xs = np.array([[1.0, 8.0], [16.0, 64.0]])
    vals = multiplier_value(spec, xs)
    assert vals.shape == xs.shape
    assert vals[0, 0] == 1.0


def test_multiplier_edge_values():
    spec = MultiplierSpec(N=8.0, s=0.75)
    assert math.isnan(multiplier_value(spec, math.nan))
    assert multiplier_value(spec, math.inf) == 0.0
    for x in (0.0, 1e-300, 8.0):
        assert multiplier_value(spec, x) == 1.0
    vals = multiplier_value(spec, np.array([math.nan, math.inf, -math.inf, 0.0, 8.0]))
    assert math.isnan(vals[0]) and list(vals[1:]) == [0.0, 0.0, 1.0, 1.0]


@pytest.mark.parametrize("s", [0.6, 0.75, 0.9])
def test_multiplier_matches_where_formula_bitwise(s):
    # the formula that evaluated both branches everywhere, guarded at 1e-300
    spec = MultiplierSpec(N=8.0, s=s)
    xs = np.unique(np.concatenate([np.geomspace(8e-3, 8e4, 4001), [8.0, 16.0]]))
    safe = np.maximum(xs, 1e-300)
    sig = np.clip(np.log2(safe / spec.N), 0.0, 1.0)
    sig = 3 * sig ** 2 - 2 * sig ** 3
    want = np.where(xs <= spec.N, 1.0, (spec.N / safe) ** ((1 - s) * sig))
    got = multiplier_value(spec, xs)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(multiplier_value(spec, xs.reshape(-1, 1)).ravel(), got)


def _record0(f, specs=()):
    # E(u), then E(Iu) per spec, of the field f: record 0 of evolve, one row
    # of kinetic, potential, total and l2 each
    cfg = EvolveConfig(grid=f.grid, dt=1e-3, t_end=1e-3)
    return evolve(f, cfg, specs).energies[0]


def test_energy_of_plane_wave_matches_analytic():
    # u = a e^{i xi x}: E = |xi|^2 a^2 V + (a^4 V + 2 a^2 V) / 2
    g = Grid(dim=1, n=64, length=2 * np.pi)
    a, k = 0.3, 4
    xi = 2 * np.pi * k / g.length
    f = Field(g, a * np.exp(1j * xi * g.x_mesh()[0]))
    kinetic, potential, total, l2 = (_record0(f)[0][c].item()
                                     for c in ("kinetic", "potential", "total", "l2"))
    V = g.volume
    assert abs(kinetic - xi ** 2 * a ** 2 * V) < 1e-10
    assert abs(potential - (0.5 * a ** 4 * V + a ** 2 * V)) < 1e-10
    assert abs(total - (kinetic + potential)) < 1e-14
    assert abs(l2 - a * math.sqrt(V)) < 1e-12


def test_energy_zero_field():
    g = Grid(dim=2, n=16, length=1.0)
    e = _record0(Field.zero(g))[0]
    assert e["total"] == 0.0 and e["l2"] == 0.0


def test_modified_energy_reduces_to_energy_below_N():
    # band-limited datum under a high cutoff: I is the identity
    g = Grid(dim=1, n=64, length=2 * np.pi)
    rng = np.random.default_rng(1)
    coef = np.zeros(g.shape, dtype=complex)
    coef[1:4] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    e = _record0(inverse_transform(g, coef), [MultiplierSpec(N=32.0, s=0.75)])
    assert abs(e["total"][1] - e["total"][0]) < 1e-12


def test_gradient_I_norm_comparator():
    # the kinetic part of E(Iu) is ||grad Iu||^2
    g = Grid(dim=1, n=256, length=2 * np.pi)
    rng = np.random.default_rng(2)
    f = Field(g, rng.standard_normal(g.shape)
              + 1j * rng.standard_normal(g.shape))
    specs = [MultiplierSpec(N=8.0, s=0.75)]

    def grad_norms(h):      # ||grad u||, ||grad Iu||
        return np.sqrt(_record0(h, specs)["kinetic"])

    # band-limited below N: I is the identity, so ||grad Iu|| = ||grad u||
    grad, grad_I = grad_norms(inverse_transform(g, forward_transform(f)
                                                * (g.xi_abs() < 8.0)))
    assert abs(grad_I - grad) < 1e-12
    # above N the multiplier damps: strictly below the plain gradient norm
    grad, grad_I = grad_norms(f)
    assert grad_I < grad
