"""Strichartz and bilinear bench tests (desk scale)."""

import math

import numpy as np
import pytest

from gpilab import bench
from gpilab.grid import Field, Grid, forward_transform, lp_norm
from gpilab.bench import (band_datum, bilinear_ratio, bilinear_sweep,
                          strichartz_admissible, strichartz_ratio_sweep,
                          time_cutoff, _FreeFlow)


# ---------------------------------------------------------------------------
# admissibility and the free flow

def test_admissibility_truth_table():
    assert strichartz_admissible(2, 6)
    assert strichartz_admissible(math.inf, 2)
    assert not strichartz_admissible(4, 4)
    assert not strichartz_admissible(2, 2)
    assert not strichartz_admissible(1, 100)     # q below 2


def _at(flow, coefs, t):
    # the flow's values at the one time t, from its sample loop
    (_, _, values), = flow.samples(coefs, [t], [1.0])
    return values


def test_free_flow_is_unitary_and_additive():
    g = Grid(dim=1, n=64, length=2 * np.pi)
    c = band_datum(g, 8.0, seed=0)
    flow = _FreeFlow(g, 1)
    first = _at(flow, (c,), 0.3)
    u1 = first[0].copy()
    assert abs(lp_norm(Field(g, u1), 2) - np.linalg.norm(c)) < 1e-12
    # group property: flowing 0.2 then 0.1 equals flowing 0.3
    mid = _at(flow, (c,), 0.2)[0].copy()
    again = _at(flow, (forward_transform(Field(g, mid)),), 0.1)
    u2 = again[0]
    assert np.max(np.abs(u1 - u2)) < 1e-12
    # the kernel hands back its own buffers, overwritten by the next call
    assert again[0] is first[0]



def _smooth_datum(g, amp=0.2):
    x = g.x_mesh()[0]
    return Field(g, amp * np.exp(1j * x) + 0.5 * amp * np.cos(2 * x))


def test_free_flow_preserves_l2_exactly():
    g = Grid(dim=1, n=64, length=2 * np.pi)
    f = _smooth_datum(g)
    out, = _at(_FreeFlow(g, 1), (forward_transform(f),), 0.01)
    assert abs(lp_norm(Field(g, out), 2) - lp_norm(f, 2)) < 1e-13


def test_free_flow_matches_spectral_phase():
    g = Grid(dim=1, n=64, length=2 * np.pi)
    f = _smooth_datum(g)
    coef = forward_transform(f)
    out, = _at(_FreeFlow(g, 1), (coef,), 0.1)
    exact = coef * np.exp(1j * g.xi_abs() ** 2 * 0.1)
    got = forward_transform(Field(g, out))
    assert np.max(np.abs(got - exact)) < 1e-12

@pytest.mark.parametrize("grid", [Grid(1, 1024, 16 * np.pi), Grid(2, 64, 3.7),
                                  Grid(3, 32, 2 * np.pi)])
def test_free_flow_phase_table_is_exact(grid):
    # one exp per |xi|^2 level, gathered onto the grid, is bitwise the
    # full-grid phase
    xi2 = grid.xi_abs() ** 2
    flow = _FreeFlow(grid, 0)
    for t in (0.0, 0.123, -0.37, 5.5):
        want = np.exp(1j * xi2 * t)
        assert np.array_equal(flow.phase(t).view(np.uint64), want.view(np.uint64))
    want = np.exp(-1j * xi2 * 0.27)     # the bilinear chirp
    assert np.array_equal(flow.phase(-0.27).view(np.uint64), want.view(np.uint64))


def test_free_flow_matches_out_of_place_formula_bitwise():
    # the in-place kernel rounds like ifftn(c * phase) * scale, element by
    # element; sums over the grid average last-bit changes away, so the
    # bench pins alone would miss them.  `phase` is named: numpy multiplies
    # into an unnamed temporary in place with the operands swapped, and its
    # SIMD complex product is not bitwise symmetric in its operands.
    g = Grid(3, 32, 2 * np.pi)
    c = band_datum(g, 8.0, seed=1)
    xi2 = g.xi_abs() ** 2
    scale = g.n ** g.dim / math.sqrt(g.volume)
    flow = _FreeFlow(g, 1)
    for t in (0.123, -0.37):
        phase = np.exp(1j * xi2 * t)
        want = np.fft.ifftn(c * phase) * scale
        got, = _at(flow, (c,), t)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_free_flow_samples_skip_zero_weights():
    # the one time loop yields the index and weight of every sample whose
    # weight is not exactly 0, with each datum's values bitwise the
    # out-of-place formula at that time; the N = 2 datum's box is
    # transformed by lines, the N = 4 datum's whole
    g = Grid(3, 16, 2 * np.pi)
    coefs = (band_datum(g, 2.0, seed=0), band_datum(g, 4.0, seed=1))
    ts, wts = np.array([0.0, 0.1, 0.2, 0.3]), np.array([0.0, 0.5, 0.0, 1.0])
    xi2 = g.xi_abs() ** 2
    scale = g.n ** g.dim / math.sqrt(g.volume)
    seen = []
    for i, wt, values in _FreeFlow(g, 2).samples(coefs, ts, wts):
        seen.append((i, wt))
        phase = np.exp(1j * xi2 * ts[i])
        for c, got in zip(coefs, values):
            want = np.fft.ifftn(c * phase) * scale
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert seen == [(1, 0.5), (3, 1.0)]


def test_dispersive_benches_pinned_bitwise():
    # values of the full-grid-phase kernel, which the level table and the
    # in-place transforms must reproduce exactly
    g = Grid(3, 32, 2 * np.pi)
    stat = bilinear_ratio(4, 8, seeds=2, T=0.5, grid=g)
    assert stat.ratios == (float.fromhex("0x1.e109f334e02d6p-4"),
                           float.fromhex("0x1.e10ba37632800p-4"))
    res = strichartz_ratio_sweep(2, 6, 0.3, centers=(4, 8), seeds=1, grid=g, m=16)
    assert res["means"] == [float.fromhex("0x1.c3c4ad565d86cp-4"),
                            float.fromhex("0x1.c4ae40617a0abp-4")]


def _count_calls(monkeypatch, obj, name):
    calls = []
    fn = getattr(obj, name)

    def counted(*args, **kwargs):
        calls.append(np.size(args[0]))
        return fn(*args, **kwargs)

    monkeypatch.setattr(obj, name, counted)
    return calls


def test_free_flow_work_counts(monkeypatch):
    # one band-limited inverse transform per datum and time sample: it
    # counts the transforms, since numpy's passes per transform vary with
    # the datum's box
    g = Grid(3, 16, 2 * np.pi)
    ifftn = _count_calls(monkeypatch, bench, "_ifftn_box")
    exp = _count_calls(monkeypatch, np, "exp")
    # 16 samples per datum, the two zero-weight ends skipped
    strichartz_ratio_sweep(2, 6, 0.3, centers=(4, 8), seeds=1, grid=g, m=16)
    assert len(ifftn) == 2 * 14
    assert g.n ** 3 not in exp
    # full-grid exp for the N1 profile once per call, and for the shift and
    # window of each pair; the chirp and each of the pair's ~66 time samples
    # take one exp over the |xi|^2 levels
    levels = _FreeFlow(g, 0).levels.size
    for seeds in (1, 2):
        exp.clear()
        bilinear_ratio(4, 8, seeds=seeds, T=0.5, grid=g)
        assert exp.count(g.n ** 3) == 2 * seeds + 1
        assert exp.count(levels) == len(exp) - (2 * seeds + 1) > 60 * seeds


def test_time_cutoff_profile():
    T = 2.0
    ts = np.array([0.0, 0.1 * T, 0.5 * T, 0.9 * T, T])
    w = time_cutoff(ts, T)
    assert w[0] == 0.0 and w[-1] == 0.0
    assert abs(w[1] - 1.0) < 1e-12 and abs(w[3] - 1.0) < 1e-12
    assert w[2] == 1.0
    mid = time_cutoff(np.array([0.05 * T]), T)[0]
    assert 0.0 < mid < 1.0


# ---------------------------------------------------------------------------
# Strichartz sweep

def test_band_datum_unit_norm_and_support():
    g = Grid(dim=3, n=32, length=2 * np.pi)
    coef = np.abs(band_datum(g, 8.0, seed=1))
    assert abs(np.linalg.norm(coef) - 1.0) < 1e-12
    absxi = g.xi_abs()
    assert np.max(coef[(absxi < 4.0) | (absxi >= 16.0)]) == 0.0


def test_band_datum_rejects_unresolvable_center():
    g = Grid(dim=1, n=16, length=2 * np.pi)
    with pytest.raises(ValueError):
        band_datum(g, 1e6, seed=0)


def test_strichartz_sweep_rejects_inadmissible_pair():
    with pytest.raises(ValueError):
        strichartz_ratio_sweep(4, 4, T=0.3)


def test_strichartz_sweep_q_inf_endpoint_is_sup():
    # the flow is unitary and the cutoff peaks at 1, so the L^inf_t L^2_x
    # ratio of unit data is 1
    res = strichartz_ratio_sweep(math.inf, 2, 0.5, centers=(2, 4), seeds=1,
                                 grid=Grid(dim=3, n=16, length=2 * np.pi))
    assert all(abs(m - 1.0) < 1e-12 for m in res["means"])


def test_strichartz_sweep_small_is_flat():
    res = strichartz_ratio_sweep(2, 6, T=0.3, centers=(4, 8, 16), seeds=2,
                                 grid=Grid(dim=3, n=32, length=2 * np.pi), m=16)
    assert abs(res["fit"].slope) < 0.2
    assert len(res["means"]) == 3


# ---------------------------------------------------------------------------
# bilinear refinement

def test_bilinear_ratio_validates_input():
    with pytest.raises(ValueError):
        bilinear_ratio(16, 8, seeds=1, T=0.5)


@pytest.mark.parametrize("N", [0, -4, math.nan])
def test_band_rejects_nonpositive_and_nan_centers(N):
    # no magnitude lies in [N/2, 2N) for N <= 0 or N = NaN, so the band's
    # empty check rejects such a center
    absxi = Grid(3, 16, 2 * np.pi).xi_abs()
    with pytest.raises(ValueError, match="not resolvable"):
        bench._band(absxi, N)


def test_bilinear_ratio_rejects_empty_band():
    # on a box of side 0.5 the first nonzero |xi| is 4*pi, past the band
    # [2, 8): the data would be 0/0
    with pytest.raises(ValueError, match="not resolvable"):
        bilinear_ratio(4, 4, seeds=1, T=0.5, grid=Grid(3, 16, 0.5))


@pytest.mark.slow
def test_bilinear_ratio_bounded_by_cauchy_schwarz():
    # with unit data and a cutoff <= 1, the ratio is at most ~ sup-norm factor
    stat = bilinear_ratio(8, 16, seeds=2, T=0.5)
    assert max(stat.ratios) > 0
    assert len(stat.ratios) == 2
    assert stat.mean <= max(stat.ratios)


@pytest.mark.slow
def test_bilinear_gain_with_frequency_separation():
    # doubling the high frequency must lower the interaction ratio
    lo = bilinear_ratio(8, 8, seeds=3, T=0.5).mean
    hi = bilinear_ratio(8, 32, seeds=3, T=0.5).mean
    assert hi < lo


def test_bilinear_sweep_evaluates_each_pair_once(monkeypatch):
    # the axes share (8, 16): five bilinear_ratio calls, and the means of
    # the six-call sweep, bitwise
    import gpilab.bench as bench
    calls = []
    ratio = bench.bilinear_ratio

    def counted(N1, N2, *args):
        calls.append((N1, N2))
        return ratio(N1, N2, *args)

    monkeypatch.setattr(bench, "bilinear_ratio", counted)
    res = bilinear_sweep(seeds=1, T=0.5, grid=Grid(3, 32, 2 * np.pi))
    assert sorted(calls) == [(4, 16), (8, 8), (8, 16), (8, 32), (16, 16)]
    assert res["N2_means"] == [float.fromhex(h) for h in (
        "0x1.cb4c7612c9ad7p-3", "0x1.4e183b06c7beep-3", "0x1.ce17b2fc94281p-4")]
    assert res["N1_means"] == [float.fromhex(h) for h in (
        "0x1.8e3a547a86fe3p-4", "0x1.4e183b06c7beep-3", "0x1.f2509731f2712p-3")]


@pytest.mark.slow
def test_bilinear_sweep_shapes():
    res = bilinear_sweep(seeds=1, T=0.5)
    assert len(res["N2_means"]) == 3 and len(res["N1_means"]) == 3
    assert res["N2_fit"].slope < 0      # decay in the high frequency
    assert res["N1_fit"].slope > 0      # growth in the low frequency

