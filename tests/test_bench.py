"""Strichartz and bilinear bench tests (desk scale)."""

import math
import tracemalloc

import numpy as np
import pytest

from gpilab import bench
from gpilab.grid import Field, Grid, forward_transform
from gpilab.bench import (band_datum, bilinear_ratio, bilinear_sweep,
                          strichartz_admissible, strichartz_ratio_sweep,
                          time_cutoff, _FreeFlow)
from oracles import lp_norm


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
    # one read-only level table per grid, shared by every flow on it
    assert _FreeFlow(grid, 2).index is flow.index
    assert not flow.index.flags.writeable and flow.index.dtype == np.intp


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


@pytest.mark.pinned
def test_dispersive_benches_pinned_bitwise():
    # values of the full-grid-phase kernel, which the level table and the
    # in-place transforms must reproduce exactly
    g = Grid(3, 32, 2 * np.pi)
    stat = bilinear_ratio(4, 8, seeds=2, T=0.5, grid=g)
    assert stat.ratios == (float.fromhex("0x1.e109f334e02d3p-4"),
                           float.fromhex("0x1.e10ba376327fdp-4"))
    res = strichartz_ratio_sweep(2, 6, 0.3, centers=(4, 8), seeds=1, grid=g, m=16)
    assert res["means"] == [float.fromhex("0x1.c3c4ad565d86cp-4"),
                            float.fromhex("0x1.c4ae40617a0abp-4")]


def test_bilinear_ratio_peak_memory():
    # a warm call in collision coordinates holds the flow's phase, its two
    # complex output buffers and real work array, the real data f1 and f2
    # and the boolean N2 band: 5.34 complex grid arrays at its peak with the
    # inverse transform's temporaries, where the lab-frame bench, whose data
    # were complex, held 6.8.  tracemalloc counts numpy's buffers exactly;
    # ru_maxrss moves with allocation order.
    g = Grid(3, 32, 2 * np.pi)
    bilinear_ratio(4, 8, 1, 0.5, grid=g)     # builds the grid's level table
    tracemalloc.start()
    try:
        bilinear_ratio(4, 8, 1, 0.5, grid=g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * g.n ** 3) < 6.0


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
    # full-grid exp for the N1 profile once per call and for each seed's
    # window; each of a seed's 24 + 18 free flows takes one exp over the
    # |xi|^2 levels
    levels = _FreeFlow(g, 0).levels.size
    for seeds in (1, 2):
        exp.clear()
        bilinear_ratio(4, 8, seeds=seeds, T=0.5, grid=g)
        assert exp.count(g.n ** 3) == seeds + 1
        assert exp.count(levels) == len(exp) - (seeds + 1) == 42 * seeds


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


def _packets(g, N1, N2, T, seed, centered):
    # one seed's two unit data as the bench draws them, and t*: real and
    # centered (collision coordinates), or in the lab frame, chirped by
    # e^{-i|xi|^2 t*} so that both focus at t* and shifted by x1
    absxi = g.xi_abs()
    f1 = np.exp(-((absxi - N1) / (N1 / 3.0)) ** 2) * bench._band(absxi, N1)
    rng = np.random.default_rng(seed)
    tstar = T * rng.uniform(0.4, 0.6)
    x1 = rng.uniform(0.0, g.length, g.dim)
    direction = rng.standard_normal(g.dim)
    center = N2 * (direction / np.linalg.norm(direction))
    ks = g.xi_mesh()
    side = min(N1, N2)
    f2 = bench._band(absxi, N2) * np.exp(-sum(((k - c) / (side / 3.0)) ** 2
                                              for k, c in zip(ks, center)))
    if not centered:
        common = (np.exp(-1j * absxi ** 2 * tstar)
                  * np.exp(-1j * sum(k * x for k, x in zip(ks, x1))))
        f1, f2 = f1 * common, f2 * common
    return f1 / np.linalg.norm(f1), f2 / np.linalg.norm(f2), tstar


def _grid_sums(g, coefs, taus):
    # sum_x |v1 v2|^2 of the two data flowed to each time in taus
    samples = _FreeFlow(g, 2).samples(coefs, taus, np.ones(len(taus)))
    return np.array([np.sum(np.abs(v1 * v2) ** 2) for _, _, (v1, v2) in samples])


def test_collision_sums_are_even_in_time():
    # real coefficients give v(-tau)(x) = conj(v(tau)(-x)), and x -> -x
    # permutes the grid, so the sums at t* - tau and t* + tau agree; the
    # chirped and shifted data are complex, and about their own time origin
    # their sums do not
    g = Grid(3, 32, 2 * np.pi)
    taus = np.array([0.004, 0.017, 0.05, 0.09])     # inside (4, 8)'s half-width 0.1
    f1, f2, _ = _packets(g, 4, 8, 0.5, 1000, centered=True)
    assert np.isrealobj(f1) and np.isrealobj(f2)
    plus, minus = _grid_sums(g, (f1, f2), taus), _grid_sums(g, (f1, f2), -taus)
    assert np.max(np.abs(plus - minus) / plus) < 1e-14
    f1, f2, _ = _packets(g, 4, 8, 0.5, 1000, centered=False)
    plus, minus = _grid_sums(g, (f1, f2), taus), _grid_sums(g, (f1, f2), -taus)
    assert np.min(np.abs(plus - minus) / plus) > 0.01


def _chirped_shifted_ratios(N1, N2, seeds, T, g, seed0=1000):
    # the bench in the lab frame: data chirped and shifted, every sample
    # time evolved from t = 0
    duration = (1.0 / N1 + 1.0 / N2) / (2 * N2)
    half = min(0.2 * T, 6 * duration)
    flow = _FreeFlow(g, 2)
    w = g.dx ** g.dim
    ratios = []
    for j in range(seeds):
        f1, f2, tstar = _packets(g, N1, N2, T, seed0 + j, centered=False)
        ts = np.union1d(np.linspace(0.0, T, 20),
                        np.linspace(tstar - half, tstar + half, 48))
        vals = np.zeros(ts.size)
        for i, wt, (u1, u2) in flow.samples((f1, f2), ts, time_cutoff(ts, T)):
            vals[i] = wt ** 2 * np.sum(np.abs(u1 * u2) ** 2) * w
        ratios.append(np.sqrt(np.trapezoid(vals, ts)))
    return ratios


@pytest.mark.parametrize("pair", [(4, 8), (2, 8), (4, 4)])
def test_bilinear_ratio_matches_chirped_shifted_reference(pair):
    # on pairs whose |u1 u2|^2 the 32^3 grid does not alias, dropping the
    # common shift and chirp moves the ratios by round-off only
    g = Grid(3, 32, 2 * np.pi)
    got = bilinear_ratio(*pair, seeds=2, T=0.5, grid=g).ratios
    want = _chirped_shifted_ratios(*pair, 2, 0.5, g)
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


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


@pytest.mark.pinned
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
        "0x1.cb4d3e7e65eb8p-3", "0x1.4e18d5bbfaa62p-3", "0x1.ce18263755ff4p-4")]
    assert res["N1_means"] == [float.fromhex(h) for h in (
        "0x1.8e3a547a86fe4p-4", "0x1.4e18d5bbfaa62p-3", "0x1.3d511961f18edp-2")]


@pytest.mark.slow
def test_bilinear_sweep_shapes():
    res = bilinear_sweep(seeds=1, T=0.5)
    assert len(res["N2_means"]) == 3 and len(res["N1_means"]) == 3
    assert res["N2_fit"].slope < 0      # decay in the high frequency
    assert res["N1_fit"].slope > 0      # growth in the low frequency

