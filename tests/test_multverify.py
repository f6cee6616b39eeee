"""Tests of the multiplier expressions, region sampler, and bound checks."""

import hashlib
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gpilab.multverify import (CATALOG, SINGULAR_EPS, WINDOWS, InfeasibleRegionError,
                               MultiplierExpr, VerifyCase, LWP_CUBIC, LWP_QUADRATIC,
                               COMM_CUBIC, SEXTIC, _CHUNK, _Draws, _cols, _norm3,
                               catalog_by_label, eval_multiplier, sample_region,
                               verify_bounds)


def test_catalog_labels_are_unique():
    labels = [c.label for c in CATALOG]
    assert len(labels) == len(set(labels))
    assert len(CATALOG) >= 40


def _S(expr, X):
    """The sampler's S of tuples X of shape (count, arity, 3): the magnitudes,
    then the magnitude of each block's sum, added in index order."""
    sums = [_norm3(_cols(np.add, X[:, g[0]:g[-1] + 1])) for g in expr.groups]
    return np.column_stack([_norm3(X), *sums])


def _eval_at(expr, xi, N, s):
    """eval_multiplier at one frequency tuple xi of shape (arity, 3)."""
    X = np.asarray(xi, dtype=float)[None]
    return float(eval_multiplier(expr, _S(expr, X), N, s)[0])


def test_eval_multiplier_hand_computed_point():
    # collinear xi1 = xi2 = xi3 = (4N, 0, 0), s = 3/4:
    # m(4N) = 4^{-1/4}, m(12N) = 12^{-1/4},
    # M = m(12N)/m(4N)^3 * 12N / (4N)^3
    N, s = 8.0, 0.75
    xi = np.array([[4 * N, 0, 0]] * 3)
    got = _eval_at(LWP_CUBIC, xi, N, s)
    expect = (12.0 ** -0.25 / 4.0 ** -0.75) * 12 * N / (4 * N) ** 3
    assert abs(got - expect) < 1e-14 * expect
    # two blocks, each read through its own sum: (4N, 0, 0) three times, then
    # (2N, 0, 0) three times, whose sums 12N and 6N differ
    xi = np.array([[4 * N, 0, 0]] * 3 + [[2 * N, 0, 0]] * 3)
    got = _eval_at(SEXTIC, xi, N, s)
    expect = (abs(12.0 ** -0.25 - 4.0 ** -0.75) / 4.0 ** -0.75
              * 6.0 ** -0.25 / 2.0 ** -0.75 / ((4 * N) ** 3 * (2 * N) ** 3))
    assert abs(got - expect) < 1e-14 * expect


def test_eval_multiplier_commutator_vanishes_at_low_frequency():
    # all frequencies below N: m = 1 everywhere, commutator numerator = 0
    N = 32.0
    xi = np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 0, 1.5]])
    assert _eval_at(COMM_CUBIC, xi, N, 0.75) == 0.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_expressions_symmetric_under_argument_permutation(seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-20, 20, size=(3, 3))
    base = _eval_at(LWP_CUBIC, X, 4.0, 0.8)
    perm = X[rng.permutation(3)]
    assert abs(_eval_at(LWP_CUBIC, perm, 4.0, 0.8) - base) \
        <= 1e-12 * max(base, 1e-30)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_expressions_rotation_invariant(seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-20, 20, size=(2, 3))
    # random rotation via QR of a Gaussian matrix
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    base = _eval_at(LWP_QUADRATIC, X, 4.0, 0.8)
    rot = X @ Q.T
    assert abs(_eval_at(LWP_QUADRATIC, rot, 4.0, 0.8) - base) \
        <= 1e-10 * max(base, 1e-30)


def test_large_N_collapse_to_unsmoothed_form():
    # with all |xi| << N the symbol is identically 1: smooth expressions
    # reduce to |sum| / prod |xi| and commutator expressions vanish
    rng = np.random.default_rng(0)
    X = rng.uniform(-3, 3, size=(3, 3))
    mags = np.linalg.norm(X, axis=1)
    ssum = np.linalg.norm(X.sum(axis=0))
    N = 1e6
    got = _eval_at(LWP_CUBIC, X, N, 0.75)
    assert abs(got - ssum / mags.prod()) < 1e-12
    assert _eval_at(COMM_CUBIC, X, N, 0.75) == 0.0


_EDGE_VALUES = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e200, -1e200]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       edges=st.lists(st.tuples(st.integers(0, 191), st.sampled_from(_EDGE_VALUES)),
                      max_size=24))
def test_norm3_is_bitwise_linalg_norm(seed, edges):
    # rows of comparable components, whose squares round differently when
    # summed in another order, scaled from subnormal to overflowing
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((4, 16, 3)) * 10.0 ** rng.integers(-320, 200, (4, 16, 1))
    for pos, value in edges:
        X.flat[pos] = value
    with np.errstate(over="ignore"):   # 1e200 squared overflows to inf in both
        want = np.linalg.norm(X, axis=-1)
        got, got_rows = _norm3(X), _norm3(X[0])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(got_rows.view(np.uint64), want[0].view(np.uint64))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), edges=st.lists(
    st.tuples(st.integers(0, 6 * 32 * 3 - 1), st.sampled_from(_EDGE_VALUES)),
    max_size=24))
def test_cols_is_bitwise_numpy_reduction(seed, edges):
    # the sampler's, the evaluator's and the bound's reductions run over axes
    # of 1 to 6 entries: sums of frequency blocks cut from a chunk of
    # candidate tuples, and products of (count, k) magnitudes and motifs, signs
    # and scales mixed.  numpy sums negative zeros to +0.0 where the column
    # loop keeps -0.0, so sums are compared after + 0.0, and their norms, all
    # the sampler keeps, bitwise
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((32, 6, 3)) * 10.0 ** rng.integers(-300, 150, (32, 6, 1))
    for pos, value in edges:
        X.flat[pos] = value
    mags = np.abs(X[:, :, 0]) + 0.0    # + 0.0: no negative zero in a magnitude
    # a zero edge times a product that overflowed is 0 * inf = NaN, and
    # numpy's reduction warns of it as the column loop does
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for k in range(1, 7):
            for start in range(7 - k):
                block = slice(start, start + k)
                got, want = _cols(np.add, X[:, block]), X[:, block].sum(axis=1)
                assert np.array_equal((got + 0.0).view(np.uint64),
                                      (want + 0.0).view(np.uint64))
                assert np.array_equal(_norm3(got).view(np.uint64),
                                      _norm3(want).view(np.uint64))
                for P in (mags[:, block], mags[:, block].copy()):
                    got, want = _cols(np.multiply, P), P.prod(axis=1)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_bound_matches_axis_products_bitwise():
    # each row's bound against the motifs multiplied by np.prod over axis 1
    rng = np.random.default_rng(5)
    for case in CATALOG:
        mags = np.exp(rng.uniform(np.log(0.05), np.log(500.0), (400, case.expr.arity)))
        Q = case.sorted_mags(mags)

        def col(idx):
            return Q[:, [i - 1 for i in idx]]
        want = (np.prod((col(case.quarter) / 8.0) ** 0.25, axis=1)
                * np.prod((col(case.lwp) / 8.0) ** (1 - 0.75), axis=1))
        if case.mean_value:
            want = want * (Q[:, 1] / Q[:, 0])
        want = want / np.prod(Q if case.denom is None else col(case.denom), axis=1)
        got = case.bound(Q, 8.0, 0.75)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), case.label


_BLOCKS = VerifyCase(MultiplierExpr("blocks", ((0,), (1, 2), (3, 4, 5))), "all",
                     "", "")


@settings(max_examples=30, deadline=None)
@given(mags=arrays(np.float64, st.tuples(st.integers(1, 40), st.just(6)),
                   elements=st.one_of(st.floats(0, 1e300),
                                      st.sampled_from([0.0, 1.0, 1.5, 5e-324]))))
def test_sorted_mags_network_matches_sort(mags):
    # small pools make ties and exact duplicates common
    got = _BLOCKS.sorted_mags(mags)
    for block in (slice(0, 1), slice(1, 3), slice(3, 6)):
        want = np.sort(mags[:, block], axis=1)[:, ::-1]
        assert np.array_equal(got[:, block].view(np.uint64), want.view(np.uint64))
    # the sampler passes a column-major view, verify_bounds the leading
    # columns of a wider row-major array
    assert np.array_equal(_BLOCKS.sorted_mags(mags.T.copy().T), got)
    assert np.array_equal(_BLOCKS.sorted_mags(np.hstack([mags, mags])[:, :6]), got)


def test_blocks_beyond_three_frequencies_are_refused():
    with pytest.raises(ValueError, match="1 to 3"):
        MultiplierExpr("quartic-block", ((0, 1, 2, 3),))


# ---------------------------------------------------------------------------
# regions and sampling

def test_membership_regions_are_disjoint():
    hi_case = catalog_by_label("lwp-cubic/case1")
    lo_case = catalog_by_label("lwp-cubic/case3-low")
    S, _ = sample_region(hi_case, N=8.0, count=500, seed=0)
    mags = S[:, :3]
    assert hi_case.holds(hi_case.sorted_mags(mags), 8.0).all()
    assert not lo_case.holds(lo_case.sorted_mags(mags), 8.0).any()


def test_sample_region_respects_constraints():
    case = catalog_by_label("lwp-cubic/case3-separated")
    S, _ = sample_region(case, N=16.0, count=300, seed=1)
    mags = np.sort(S[:, :3], axis=1)[:, ::-1]
    assert (mags[:, 0] >= 16.0).all()
    assert (mags[:, 1] <= 16.0).all()
    assert (mags[:, 0] >= 8 * mags[:, 1]).all()


def test_sample_region_zero_sum_solved():
    # the kept tuples, replayed, sum to zero, so the two blocks' sums are
    # opposite and the sampler's block-sum magnitudes agree
    case = catalog_by_label("sextic/case1a")
    *_, X = _recount(case, 4.0, 100, 2)
    assert np.max(np.abs(X.sum(axis=1))) < 1e-9
    S, _ = sample_region(case, N=4.0, count=100, seed=2)
    assert np.array_equal(S.view(np.uint64), _S(case.expr, X).view(np.uint64))
    assert np.max(np.abs(S[:, 6] - S[:, 7])) < 1e-9


def test_sample_region_reports_rejections():
    case = catalog_by_label("lwp-quadratic/case2-comparable")
    _, stats = sample_region(case, N=8.0, count=200, seed=3)
    assert stats["rejected"] > 0
    assert stats["singular"] >= 0


def test_infeasible_region_raises():
    # sorted descending, N2 can never exceed 8 N1
    bad = VerifyCase(LWP_QUADRATIC, "impossible", "HH", "N2 >> N1")
    with pytest.raises(InfeasibleRegionError, match="gave 0 of 10 samples"):
        sample_region(bad, N=4.0, count=10, seed=0)


def test_sample_region_raises_on_under_delivery():
    # a rare region: 200 rounds of candidates yield only 28 of the 1000 asked
    rare = VerifyCase(LWP_QUADRATIC, "rare", "AA", "N1 <= 1.02N2, N2 >= 60N")
    message = r"gave 28 of 1000 samples at N=4\.0, acceptance rate 3\.55e-05"
    with pytest.raises(InfeasibleRegionError, match=message):
        sample_region(rare, N=4.0, count=1000, seed=0)


def test_sampled_magnitudes_are_norm3_bitwise():
    # verify_bounds hands the sampler's S to the evaluator: its magnitudes and
    # block-sum magnitudes must be what recomputing them from the replayed
    # tuples gives, and the stream and the counts must not move
    for label in ("lwp-cubic/case2", "sextic/case3c-meanvalue", "cubic-pair/case2"):
        case = catalog_by_label(label)
        S, stats = sample_region(case, 8.0, 3000, seed=9)
        rejected, singular, _, X = _recount(case, 8.0, 3000, 9)
        assert (stats["rejected"], stats["singular"]) == (rejected, singular)
        assert S.shape == (3000, case.expr.arity + len(case.expr.groups))
        assert np.array_equal(S.view(np.uint64), _S(case.expr, X).view(np.uint64))


# sha256 of the kept tuples and the exact (rejected, singular) at N = 4 and 32,
# 2000 samples, seed 3, then verify_bounds' per-N maxima on the same draws,
# recorded before the sampler worked in place, which must keep every bit;
# commutator-quadratic/case3a, recorded before the rows shared their first
# round, admits under a quarter of its 8000 first candidates and draws a
# second round of 2000 from where its first left the stream.  The counts
# cover the chunks evaluated: sextic/case3c-meanvalue read 132 and
# quintic-cubic-pair/case3b 93 while every candidate drawn was counted.  The
# sampler returns no tuples since it hands on magnitudes, so the digests are
# checked on the tuples replayed from the stream, and the sampler's S on those
PINNED_SAMPLES = {
    "lwp-cubic/case2": (
        {4: ("706ebca5f4b3d1958363accb36ac8abe2acc1ef84595a98e1667f729a7bfbc13", 0, 0),
         32: ("954d21195a2743213e268afdcc98461917accd4adfc1f634a699560a046c9a31", 0, 0)},
        {4: "0x1.a8103baab9815p+0", 32: "0x1.a32189735df73p+0"}),
    "sextic/case3c-meanvalue": (
        {4: ("4a63e8d6bb9114a16038003a66ca04ff8064f62857cf8095c0267b30bb8b963f", 32, 0),
         32: ("1d3246c89a47a6cdd6e5fa37a00463555e70a50fcedc20b3ddc36636b34ff127", 32, 0)},
        {4: "0x1.245a896d91608p-1", 32: "0x1.4b688068445dep-1"}),
    "quintic-cubic-pair/case3b": (
        {4: ("b1436981fa13b4dc789edaf35f5692b44977ed139355e0d25c7c9e29d051d3d5", 20, 0),
         32: ("802a8eccd6ea79a0387e5c2e28df3f2ad35dcdbb0f8bee38d8fa9b014d384060", 20, 0)},
        {4: "0x1.c01fee0fc8e81p-1", 32: "0x1.bfebc554e3ae5p-1"}),
    "commutator-quadratic/case3a": (
        {4: ("6262039b2ce58d273e280231ff5be4c3b573a2b9912e883cb2123cd39558d2c5", 7532, 0),
         32: ("7f4469c267d24bef6886debf1f04da0d16919d058ae2a9eecc45e0aa8334c02a", 7532, 0)},
        {4: "0x1.a704ff95d28d7p-2", 32: "0x1.a6d81e4d24446p-2"}),
}


@pytest.mark.pinned
@pytest.mark.parametrize("label", list(PINNED_SAMPLES))
def test_sampler_pinned_bitwise(label):
    case = catalog_by_label(label)
    samples, per_N = PINNED_SAMPLES[label]
    for N, (digest, rejected, singular) in samples.items():
        *_, X = _recount(case, float(N), 2000, 3)
        S, stats = sample_region(case, float(N), 2000, seed=3)
        assert X.shape == (2000, case.expr.arity, 3)
        assert hashlib.sha256(X.tobytes()).hexdigest() == digest
        assert (stats["rejected"], stats["singular"]) == (rejected, singular)
        assert np.array_equal(S.view(np.uint64), _S(case.expr, X).view(np.uint64))
    rep, = verify_bounds((case,), N_list=(4, 32), samples_per_N=2000, seed=3)
    assert rep.per_N == {N: float.fromhex(v) for N, v in per_N.items()}


def _recount(case, N, count, seed):
    """(rejected, singular, rounds, X) of a row recounted from its stream: every
    candidate of a round is built at once from the `_Draws` blocks in draw
    order, and the count stops at the end of the _CHUNK-candidate chunk that
    holds the count-th admissible candidate, the last chunk evaluated.  X is
    the first `count` admissible tuples, shape (count, arity, 3)."""
    arity, solve = case.expr.arity, case.expr.solve
    free = [i for i in range(arity) if i != solve]
    draws, have, rejected, singular = _Draws(seed, max(4 * count, 2000)), 0, 0, 0
    kept = []
    for rounds in range(1, 201):
        F = np.empty((draws.c, arity, 3))
        for j, (i, code) in enumerate(zip(free, case.free_ranges)):
            u, d = draws.block(j)
            a, b = (np.log(w * N) for w in WINDOWS[code])
            F[:, i] = d * np.exp(a + (b - a) * u)[:, None]
        if solve >= 0:
            total = F[:, free[0]].copy()
            for i in free[1:]:
                total += F[:, i]
            F[:, solve] = -total
        mags = np.linalg.norm(F, axis=2)
        sing = (mags < SINGULAR_EPS).any(axis=1)
        ok = case.holds(case.sorted_mags(mags), N) & ~sing
        admissible = np.flatnonzero(ok)
        kept.append(F[admissible[:count - have]])
        seen = draws.c
        if have + len(admissible) >= count:
            last = admissible[count - have - 1]
            seen = min((last // _CHUNK + 1) * _CHUNK, draws.c)
        singular += int(sing[:seen].sum())
        rejected += seen - int(ok[:seen].sum()) - int(sing[:seen].sum())
        have += len(admissible)
        if have >= count:
            return rejected, singular, rounds, np.concatenate(kept)
        draws = _Draws(draws.resume(len(free)), max(4 * (count - have), 2000))
    raise AssertionError("the recount never reached the count")


def test_counts_cover_only_the_chunks_evaluated():
    # the sampler stops at the chunk that completes the count; its counts
    # must be what a recount of the stream up to that chunk gives
    for label, rounds in (("sextic/case3c-meanvalue", 1),
                          ("commutator-quadratic/case3a", 2)):
        case = catalog_by_label(label)
        for N in (4.0, 32.0):
            rejected, singular, used, _ = _recount(case, N, 2000, 3)
            assert used == rounds, label
            _, stats = sample_region(case, N, 2000, seed=3)
            assert (stats["rejected"], stats["singular"]) == (rejected, singular)
            assert PINNED_SAMPLES[label][0][int(N)][1:] == (rejected, singular)


def test_shared_draws_match_rows_sampled_alone():
    # every row at one N reads one shared first round: its magnitudes,
    # block-sum magnitudes and counts must be what sampling the row alone
    # gives, bit for bit
    for N in (4.0, 32.0):
        shared = _Draws(3, 8000)
        for case in CATALOG:
            S, stats = sample_region(case, N, 2000, seed=3, _draws=shared)
            S1, stats1 = sample_region(case, N, 2000, seed=3)
            assert np.array_equal(S.view(np.uint64), S1.view(np.uint64)), case.label
            assert stats == stats1, case.label


@pytest.mark.memory
def test_sampler_peak_memory():
    # one shared stream at 2000 samples holds 5 free blocks of 8000 uniform
    # variates and unit directions; candidates are evaluated in chunks, not
    # as full (arity, candidates, 3) arrays, and the kept ones are handed on
    # as magnitudes, not as (count, arity, 3) tuples.  tracemalloc counts
    # numpy's buffers.
    stream = 5 * 8000 * 4 * 8
    verify_bounds(CATALOG, (4, 8), 2000, seed=3)
    tracemalloc.start()
    try:
        verify_bounds(CATALOG, (4, 8), 2000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / stream < 1.75


def test_witness_is_a_replayed_tuple_in_magnitude_space():
    # the reported witness is S of one kept tuple, and the multiplier at that
    # tuple, rebuilt as 3D vectors, over the row's bound there is the
    # reported maximum, bit for bit.  A slope needs two N; the tuples are
    # replayed at the N that gave the maximum, from that N's seed
    for label in ("lwp-cubic/case3-low", "sextic/case3c-meanvalue"):
        case = catalog_by_label(label)
        rep, = verify_bounds((case,), N_list=(4, 8), samples_per_N=2000, seed=3)
        k = [rep.per_N[N] for N in (4, 8)].index(rep.max_ratio)
        N = (4.0, 8.0)[k]
        *_, X = _recount(case, N, 2000, 3 + 7919 * k)
        S = _S(case.expr, X)
        witness = np.array(rep.witness)
        hits = np.flatnonzero((S.view(np.uint64) == witness.view(np.uint64)).all(axis=1))
        assert hits.size, label
        i = hits[0]
        bound = case.bound(case.sorted_mags(S[i:i + 1, :case.expr.arity]), N, 0.75)
        assert _eval_at(case.expr, X[i], N, 0.75) / bound[0] == rep.max_ratio, label


def test_sample_region_count_validation():
    case = CATALOG[0]
    with pytest.raises(ValueError):
        sample_region(case, N=4.0, count=0, seed=0)


# ---------------------------------------------------------------------------
# bound verification

def test_verify_bound_passes_on_reference_cases():
    for label in ("lwp-cubic/case1", "commutator-quadratic/case3a",
                  "cubic-pair/case2"):
        rep, = verify_bounds((catalog_by_label(label),), N_list=(4, 16),
                             samples_per_N=2000, seed=5)
        assert rep.passed, f"{label}: max={rep.max_ratio}, slope={rep.slope}"
        assert rep.max_ratio > 0
        assert rep.witness is not None and len(rep.witness) >= 2
        assert set(rep.per_N) == {4, 16}


def test_verify_bound_flags_impossible_cap():
    rep, = verify_bounds((catalog_by_label("lwp-cubic/case1"),), N_list=(4, 8),
                         samples_per_N=500, seed=0, cap=1e-9)
    assert not rep.passed


def test_separated_quadratic_case_obeys_tight_cap():
    # the well-separated quadratic region has an explicit small constant
    rep, = verify_bounds((catalog_by_label("lwp-quadratic/case2-separated"),),
                         N_list=(4, 8, 16, 32), samples_per_N=5000, seed=1)
    assert rep.max_ratio <= 8.0


def test_slope_gate_rejects_mistranscribed_bound():
    # negative control: lwp-quadratic/case1 with |xi2|^s read as |xi2|, so the
    # bound 1/(|xi2| N^{1-s}) falls short by |xi2|^{1-s}, which grows with N.
    # It is no product of the four motifs, so the control overrides `bound`.
    true = catalog_by_label("lwp-quadratic/case1")

    class Mistranscribed(VerifyCase):
        def bound(self, Q, N, s):
            return 1 / (Q[:, 1] * N ** (1 - s))

    bad = Mistranscribed(**{f.name: getattr(true, f.name) for f in fields(true)})
    for seed in (0, 1, 2, 99, 2024):
        rep, ref = verify_bounds((bad, true), N_list=(4, 8, 16, 32), samples_per_N=2000,
                                 seed=seed)
        assert rep.max_ratio <= 64.0 and rep.slope > 0.2 and not rep.passed
        assert ref.passed and abs(ref.slope) < 0.05


# max_ratio of every row at N in {4, 8}, 500 samples, seed 0, recorded before
# the catalog became declarative rows: guards each row's transcription
PINNED_MAX_RATIO = {
    "lwp-cubic/case1": 1.9299520107639487,
    "lwp-cubic/case2": 1.6158650003552175,
    "lwp-cubic/case3-separated": 1.1147493772669474,
    "lwp-cubic/case3-low": 2.424471272478663,
    "lwp-quadratic/case1": 1.6165756210446187,
    "lwp-quadratic/case2-separated": 1.110958160730176,
    "lwp-quadratic/case2-comparable": 1.9357980173450868,
    "commutator-cubic/case1": 0.5312191282582485,
    "commutator-cubic/case2": 0.33741410825840595,
    "commutator-cubic/case3-meanvalue": 0.6084625723886397,
    "commutator-quadratic/case1-comparable": 0.42613623050549715,
    "commutator-quadratic/case3a": 0.4107978318944562,
    "commutator-quadratic/case3b-meanvalue": 0.3866161924583961,
    "sextic/case1a": 0.832855911855926,
    "sextic/case1b": 0.7690578266460439,
    "sextic/case1c": 0.13300983685078682,
    "sextic/case2a": 0.8813221763748754,
    "sextic/case3c-meanvalue": 0.5746143898031207,
    "sextic/case4a": 0.95987996045798,
    "quintic-cubic-pair/case1a": 0.8813234969561068,
    "quintic-cubic-pair/case1b": 0.7868751701591448,
    "quintic-cubic-pair/case1c-meanvalue": 0.34760222941685237,
    "quintic-cubic-pair/case2a": 0.9432893854079331,
    "quintic-cubic-pair/case3a": 0.9598875568930703,
    "quintic-cubic-pair/case3b": 0.8747331326594343,
    "quintic-pair-cubic/case1a": 0.52596241206155,
    "quintic-pair-cubic/case1b-meanvalue": 0.2011266504030831,
    "quintic-pair-cubic/case2a": 0.7650354035468181,
    "quintic-pair-cubic/case2b-meanvalue": 0.31888135819061436,
    "quintic-pair-cubic/case3a": 0.9008673669383177,
    "quintic-pair-cubic/case3b-meanvalue": 0.3916272068377442,
    "quintic-pair-cubic/case4": 0.8747775753769762,
    "quartic-cubic/case1a": 0.9598870360967309,
    "quartic-cubic/case1b": 0.8747180496934462,
    "quartic-cubic/case2a": 0.9529178508184876,
    "quartic-cubic/case2c-meanvalue": 0.5430056953704211,
    "quartic-pairs/case1a": 0.7724587111275686,
    "quartic-pairs/case1b-meanvalue": 0.41364695963397036,
    "quartic-pairs/case2a": 0.8636740651963011,
    "quartic-pairs/case2b-meanvalue": 0.39239997513219,
    "quartic-pairs/case3": 0.8747625198224309,
    "cubic-pair/case1a": 0.8644595428946469,
    "cubic-pair/case1b-meanvalue": 0.4080918898850142,
    "cubic-pair/case2": 0.8747212804051151,
}


@pytest.mark.pinned
def test_catalog_rows_match_pinned_ratios():
    assert [c.label for c in CATALOG] == list(PINNED_MAX_RATIO)
    for case in CATALOG:
        rep, = verify_bounds((case,), N_list=(4, 8), samples_per_N=500, seed=0)
        pinned = PINNED_MAX_RATIO[case.label]
        assert abs(rep.max_ratio - pinned) <= 1e-12 * pinned, case.label


def test_transcription_flag_is_reported():
    rep, = verify_bounds((catalog_by_label("quintic-pair-cubic/case2b-meanvalue"),),
                         N_list=(4, 8), samples_per_N=1000, seed=0)
    assert "N1 >= N2 >> N2" in rep.flagged
