"""Randomized verification of the pointwise multiplier bounds.

Each catalog row pairs a closed-form multiplier M (built from the smoothing
symbol m), a dyadic case region and the bound claimed for M there, checked by
dense sampling against a cap (default 64) and a slope gate (default 0.1).
`verify_bounds` checks many rows N by N: the sampler's seed depends on N
only, so at one N every row reads prefixes of one first-round stream, drawn
once and shared, and each row's later rounds resume that stream after its
own free frequencies.  The sampler evaluates candidates in fixed chunks and
stops at the chunk that completes its count, so no row holds a full round of
candidate tuples, and its rejection counts cover the candidates evaluated.

Every ratio M/bound is a closed form in the magnitudes |xi_i| and the
magnitudes sigma_b of the block sums, so the sampler hands on only those: a
(count, arity + blocks) array S, the kept candidates' magnitudes then one
sigma per block.  No (count, arity, 3) array of kept tuples is built.  The
sampler still returns the pair (S, stats): perfbench's span attributes unpack
it and count S's rows as the samples drawn.
"""

from dataclasses import dataclass

import numpy as np

from .ioperator import MultiplierSpec, multiplier_value
from .fitting import loglog_fit

__all__ = ["MultiplierExpr", "VerifyCase", "InfeasibleRegionError", "eval_multiplier",
           "sample_region", "verify_bounds", "CATALOG", "catalog_by_label"]

SINGULAR_EPS = 1e-9
WINDOWS = {"H": (1, 64), "L": (1 / 64, 1), "T": (1 / 64, 1 / 8), "A": (1 / 64, 64)}


class InfeasibleRegionError(RuntimeError):
    """Rejection sampling delivered fewer admissible points than asked."""


def _norm3(X: np.ndarray) -> np.ndarray:
    """Euclidean norm over a last axis of length 3, summed in the order that
    makes it bitwise equal to ``np.linalg.norm(X, axis=-1)``."""
    x, y, z = X[..., 0], X[..., 1], X[..., 2]
    out = x * x
    out += y * y
    out += z * z
    return np.sqrt(out, out=out)


def _cols(op, A: np.ndarray) -> np.ndarray:
    """np.add or np.multiply over axis 1 of A, one column at a time in order:
    bitwise numpy's reduction over an axis of 1 to 6 entries (but for a sum of
    negative zeros, -0.0 here and +0.0 there), and several times faster."""
    out = A[:, 0].copy()
    for j in range(1, A.shape[1]):
        op(out, A[:, j], out=out)
    return out


# compare-exchange pairs that sort a block of 1, 2 or 3 columns descending
_NETWORKS = {1: (), 2: ((0, 1),), 3: ((0, 1), (1, 2), (0, 1))}


@dataclass(frozen=True)
class MultiplierExpr:
    label: str
    groups: tuple               # contiguous symmetric blocks, e.g. ((0,1,2),(3,4,5))
    commutator: bool = True
    solve: int = 0              # frequency closing the zero-sum constraint, -1: none
    arity = property(lambda self: sum(len(g) for g in self.groups))

    def __post_init__(self):
        if any(len(g) not in _NETWORKS for g in self.groups):
            raise ValueError(f"{self.label}: blocks hold 1 to 3 frequencies")


LWP_CUBIC = MultiplierExpr("lwp-cubic", ((0, 1, 2),), False, -1)
LWP_QUADRATIC = MultiplierExpr("lwp-quadratic", ((0, 1),), False, -1)
COMM_CUBIC = MultiplierExpr("commutator-cubic", ((0, 1, 2),), solve=-1)
COMM_QUADRATIC = MultiplierExpr("commutator-quadratic", ((0, 1),), solve=-1)
SEXTIC = MultiplierExpr("sextic", ((0, 1, 2), (3, 4, 5)))
QUINTIC_A = MultiplierExpr("quintic-cubic-pair", ((0, 1, 2), (3, 4)))
QUINTIC_B = MultiplierExpr("quintic-pair-cubic", ((0, 1), (2, 3, 4)))
QUARTIC_CUBIC = MultiplierExpr("quartic-cubic", ((0, 1, 2), (3,)))
QUARTIC_PAIRS = MultiplierExpr("quartic-pairs", ((0, 1), (2, 3)))
CUBIC_PAIR = MultiplierExpr("cubic-pair", ((0, 1), (2,)))


def eval_multiplier(expr: MultiplierExpr, S, N: float, s: float):
    """M at the rows of S, laid out as `sample_region` returns it: the arity
    magnitudes, none below the sampler's 1e-9 guard, then block k's sum
    magnitude |sum| in column arity + k.  M is the leading block's
    m(|sum|)/prod m or |m(|sum|) - prod m|/prod m (commutator), times
    m(|sum|)/prod m of each later block, over the product of all magnitudes;
    a lone block carries |sum|."""
    spec, arity = MultiplierSpec(N=N, s=s), expr.arity
    for k, g in enumerate(expr.groups):
        ssum = S[:, arity + k]
        msum = multiplier_value(spec, ssum)
        mm = _cols(np.multiply, multiplier_value(spec, S[:, g[0]:g[-1] + 1]))
        part = np.abs(msum - mm) / mm if k == 0 and expr.commutator else msum / mm
        out = part if k == 0 else out * part
    if len(expr.groups) == 1:
        out = out * ssum
    return out / _cols(np.multiply, S[:, :arity])


@dataclass(frozen=True)
class VerifyCase:
    """One catalog row over N1, N2, ..., the magnitudes sorted descending inside
    each block, never ordered by rejection.  The predicate chains "Ni" or "N",
    maybe scaled ("1.02N2"), under >=, <=, >> (a factor >= 8) and ~ (within a
    factor of 2).  The bound multiplies four motifs over 1-based indices: quarter
    powers (Ni/N)^{1/4} (an index listed twice gives a half power), local-existence
    factors (Ni/N)^{1-s}, the mean-value factor N2/N1, and 1/prod Ni (`denom`)."""

    expr: MultiplierExpr
    case: str
    free_ranges: str            # per free frequency a WINDOWS letter, in units of N
    predicate: str
    quarter: tuple = ()
    lwp: tuple = ()
    mean_value: bool = False
    denom: tuple | None = None  # None: all indices
    source: str = ""
    flagged: str = ""           # nonempty marks a transcription issue upstream

    @property
    def label(self) -> str:
        return f"{self.expr.label}/{self.case}"

    def sorted_mags(self, mags: np.ndarray) -> np.ndarray:
        """Magnitudes sorted descending inside each block, by a min/max network."""
        Q = mags.copy(order="K")
        for g in self.expr.groups:
            for i, j in _NETWORKS[len(g)]:
                a, b = Q[:, g[i]], Q[:, g[j]]
                hi = np.maximum(a, b)
                np.minimum(a, b, out=b)
                a[...] = hi
        return Q

    def holds(self, Q: np.ndarray, N: float) -> np.ndarray:
        """The case predicate at sorted magnitudes Q of shape (count, arity)."""
        def term(text):         # [coefficient]N[index]
            coef, _, i = text.partition("N")
            x = Q[:, int(i) - 1] if i else N
            return x * float(coef) if coef else x
        ok = np.ones(Q.shape[0], dtype=bool)
        for t in (chain.split() for chain in self.predicate.split(",")):
            for lhs, op, rhs in zip(t[0::2], t[1::2], t[2::2]):
                a, b = term(lhs), {">=": 1, "<=": 1, ">>": 8, "~": 2}[op] * term(rhs)
                ok &= (a >= b) if op in (">=", ">>") else (a <= b)
        return ok

    def bound(self, Q: np.ndarray, N: float, s: float) -> np.ndarray:
        """The claimed bound at sorted magnitudes Q, the product of the motifs."""
        def col(idx):
            return Q[:, [i - 1 for i in idx]]
        b = 1.0                 # an empty motif is a factor 1, bitwise
        for idx, power in ((self.quarter, 0.25), (self.lwp, 1 - s)):
            if idx:
                b = b * _cols(np.multiply, (col(idx) / N) ** power)
        if self.mean_value:
            b = b * (Q[:, 1] / Q[:, 0])
        return b / _cols(np.multiply, Q if self.denom is None else col(self.denom))


_C = VerifyCase                 # each entry below is one catalog row
CATALOG = [
    _C(LWP_CUBIC, "case1", "HHH", "N3 >= N", lwp=(2, 3), denom=(2, 3),
       source="cubic case 1: 1/(|xi2|^s |xi3|^s N^{2(1-s)})"),
    _C(LWP_CUBIC, "case2", "HHL", "N2 >= N >= N3", lwp=(2,), denom=(2, 3),
       source="cubic case 2: 1/(|xi2|^s |xi3| N^{1-s})"),
    _C(LWP_CUBIC, "case3-separated", "HLL", "N1 >= N >= N2, N1 >> N2", denom=(2, 3),
       source="cubic case 3 (|xi1| >> |xi2|): 1/(|xi2||xi3|)"),
    _C(LWP_CUBIC, "case3-low", "LLL", "N1 <= N", denom=(2, 3),
       source="cubic case 3 (all below N): 1/(|xi2||xi3|)"),
    _C(LWP_QUADRATIC, "case1", "HH", "N2 >= N", lwp=(2,), denom=(2,),
       source="quadratic case 1: 1/(|xi2|^s N^{1-s})"),
    _C(LWP_QUADRATIC, "case2-separated", "AL", "N2 <= N, N1 >> N2", denom=(2,),
       source="quadratic case 2 (|xi1| >> |xi2|): 1/|xi2|"),
    _C(LWP_QUADRATIC, "case2-comparable", "LL", "N2 <= N, N1 ~ N2", denom=(2,),
       source="quadratic case 2 (|xi1| ~ |xi2|): 1/|xi2|"),
    _C(COMM_CUBIC, "case1", "HHH", "N3 >= N", quarter=(1, 2, 3), denom=(2, 3),
       source="increment 1 case 1: prod (Ni/N)^{1/4} * N1/(N1 N2 N3)"),
    _C(COMM_CUBIC, "case2", "HHL", "N2 >= N >= N3", quarter=(1, 2), denom=(2, 3),
       source="increment 1 case 2: (N1 N2/N^2)^{1/4} * N1/(N1 N2 N3)"),
    _C(COMM_CUBIC, "case3-meanvalue", "HLL", "N1 >= N >= N2, N1 >> N2", mean_value=True,
       denom=(2, 3), source="increment 1 case 3: N2/N1 * N1/(N1 N2 N3)"),
    _C(COMM_QUADRATIC, "case1-comparable", "HH", "N2 >= N, N1 ~ N2", quarter=(1, 1),
       denom=(1,), source="increment 2 case 1: (N2/N)^{1/2} / N2"),
    _C(COMM_QUADRATIC, "case3a", "HH", "N2 >= N, N1 >> N2", quarter=(2,), denom=(2,),
       source="increment 2 case 3a: (N3/N)^{1/4} / N3"),
    _C(COMM_QUADRATIC, "case3b-meanvalue", "HL", "N1 >= N >= N2, N1 >> N2", denom=(1,),
       source="increment 2 case 3b: 1/|xi2|"),
    _C(SEXTIC, "case1a", "HHHHH", "N3 >= N, N6 >= N", quarter=(1, 2, 3, 4, 5, 6),
       source="increment 3 case 1a: prod_{i=1..6} (Ni/N)^{1/4} Ni^{-1}"),
    _C(SEXTIC, "case1b", "HLHHH", "N2 >= N >= N3, N6 >= N", quarter=(1, 2, 4, 5, 6),
       source="increment 3 case 1b: same without (N3/N)^{1/4}"),
    _C(SEXTIC, "case1c", "LLHHH", "N1 >= N >= N2, N6 >= N", quarter=(1, 4, 5, 6),
       source="increment 3 case 1c: same without (N2/N)^{1/4}(N3/N)^{1/4}"),
    _C(SEXTIC, "case2a", "HHHHL", "N3 >= N, N5 >= N >= N6", quarter=(1, 2, 3, 4, 5),
       source="increment 3 case 2a: case 1a without (N6/N)^{1/4}"),
    _C(SEXTIC, "case3c-meanvalue", "LLHLL", "N1 >= N >= N2, N4 >= N >= N5",
       mean_value=True, source="increment 3 case 3c: N2/N1 * prod Ni^{-1}"),
    _C(SEXTIC, "case4a", "HHTTT", "N3 >= N, N >> N4", quarter=(1, 2, 3),
       source="increment 3 case 4a: prod_{i=1..3} (Ni/N)^{1/4} prod Ni^{-1}"),
    _C(QUINTIC_A, "case1a", "HHHH", "N3 >= N, N5 >= N", quarter=(1, 2, 3, 4, 5),
       source="increment 4 case 1a: prod_{i=1..5} (Ni/N)^{1/4} Ni^{-1}"),
    _C(QUINTIC_A, "case1b", "HLHH", "N2 >= N >= N3, N5 >= N", quarter=(1, 2, 4, 5),
       source="increment 4 case 1b: without (N3/N)^{1/4}"),
    _C(QUINTIC_A, "case1c-meanvalue", "LLHH", "N1 >= N >= N2, N1 >> N2, N5 >= N",
       quarter=(4, 5), mean_value=True,
       source="increment 4 case 1c: N2/N1 (N4/N)^{1/4}(N5/N)^{1/4} prod Ni^{-1}"),
    _C(QUINTIC_A, "case2a", "HHHL", "N3 >= N, N4 >= N >= N5", quarter=(1, 2, 3, 4),
       source="increment 4 case 2a: case 1a without (N5/N)^{1/4}"),
    _C(QUINTIC_A, "case3a", "HHTT", "N3 >= N, N >> N4, N1 ~ N2", quarter=(1, 2, 3),
       source="increment 4 case 3a: prod_{i=1..3} (Ni/N)^{1/4} prod Ni^{-1}"),
    _C(QUINTIC_A, "case3b", "HLTT", "N2 >= N >= N3, N >> N4, N1 ~ N2", quarter=(1, 2),
       source="increment 4 case 3b: without (N3/N)^{1/4}"),
    _C(QUINTIC_B, "case1a", "HHHH", "N2 >= N, N5 >= N", quarter=(1, 2, 3, 4, 5),
       source="increment 5 case 1a: prod_{i=1..5} (Ni/N)^{1/4} Ni^{-1}"),
    _C(QUINTIC_B, "case1b-meanvalue", "LHHH", "N1 >= N >= N2, N1 >> N2, N5 >= N",
       quarter=(3, 4, 5), mean_value=True,
       source="increment 5 case 1b: N2/N1 prod_{i=3..5} (Ni/N)^{1/4} Ni^{-1}"),
    _C(QUINTIC_B, "case2a", "HHHL", "N2 >= N, N4 >= N >= N5", quarter=(1, 2, 3, 4),
       source="increment 5 case 2a: prod_{i=1..4} (Ni/N)^{1/4} Ni^{-1}"),
    _C(QUINTIC_B, "case2b-meanvalue", "LHHL", "N1 >= N >= N2, N1 >> N2, N4 >= N >= N5",
       quarter=(3, 4), mean_value=True,
       source="increment 5 case 2b: N2/N1 (N3/N)^{1/4}(N4/N)^{1/4} prod Ni^{-1}",
       flagged="source case header reads 'N1 >= N2 >> N2'; encoded as N1 >> N2"),
    _C(QUINTIC_B, "case3a", "HHLL", "N2 >= N, N3 >= N >= N4", quarter=(1, 2),
       source="increment 5 case 3a: (N1/N)^{1/4}(N2/N)^{1/4} prod Ni^{-1}"),
    _C(QUINTIC_B, "case3b-meanvalue", "LHLL", "N1 >= N >= N2, N3 >= N >= N4",
       mean_value=True, source="increment 5 case 3b: N2/N1 prod Ni^{-1}"),
    _C(QUINTIC_B, "case4", "HTTT", "N2 >= N, N >> N3", quarter=(1, 2),
       source="increment 5 case 4: (N1/N)^{1/4}(N2/N)^{1/4} prod Ni^{-1}"),
    _C(QUARTIC_CUBIC, "case1a", "HHT", "N3 >= N, N >> N4", quarter=(1, 2, 3),
       source="increment 6 case 1a: prod_{i=1..3} (Ni/N)^{1/4} prod Ni^{-1}"),
    _C(QUARTIC_CUBIC, "case1b", "HLT", "N2 >= N >= N3, N >> N4", quarter=(1, 2),
       source="increment 6 case 1b: without (N3/N)^{1/4}"),
    _C(QUARTIC_CUBIC, "case2a", "HHH", "N3 >= N, N4 >= N", quarter=(1, 2, 3),
       source="increment 6 case 2a: prod_{i=1..3} (Ni/N)^{1/4} prod Ni^{-1}"),
    _C(QUARTIC_CUBIC, "case2c-meanvalue", "LLH", "N1 >= N >= N2, N1 >> N2, N4 >= N",
       mean_value=True, source="increment 6 case 2c: N2/N1 prod Ni^{-1}"),
    _C(QUARTIC_PAIRS, "case1a", "HHH", "N2 >= N, N4 >= N", quarter=(1, 2, 3, 4),
       source="increment 7 case 1a: prod_{i=1..4} (Ni/N)^{1/4} Ni^{-1}"),
    _C(QUARTIC_PAIRS, "case1b-meanvalue", "LHH", "N1 >= N >= N2, N4 >= N",
       quarter=(3, 4), mean_value=True,
       source="increment 7 case 1b: N2/N1 (N3/N)^{1/4}(N4/N)^{1/4} prod Ni^{-1}"),
    _C(QUARTIC_PAIRS, "case2a", "HHL", "N2 >= N, N3 >= N >= N4, N3 >> N4",
       quarter=(1, 2),
       source="increment 7 case 2a: (N1/N)^{1/4}(N2/N)^{1/4} prod Ni^{-1}"),
    _C(QUARTIC_PAIRS, "case2b-meanvalue", "LHL",
       "N1 >= N >= N2, N3 >= N >= N4, N3 >> N4", mean_value=True,
       source="increment 7 case 2b: N2/N1 prod Ni^{-1}"),
    _C(QUARTIC_PAIRS, "case3", "HTT", "N2 >= N, N >> N3", quarter=(1, 2),
       source="increment 7 case 3: (N1/N)^{1/4}(N2/N)^{1/4} prod Ni^{-1}"),
    _C(CUBIC_PAIR, "case1a", "HH", "N2 >= N, N3 >= N", quarter=(1, 2),
       source="increment 8 case 1a: (N1/N)^{1/4}(N2/N)^{1/4} prod Ni^{-1}"),
    _C(CUBIC_PAIR, "case1b-meanvalue", "LH", "N1 >= N >= N2, N1 >> N2, N3 >= N",
       mean_value=True, source="increment 8 case 1b: N2/N1 prod Ni^{-1}"),
    _C(CUBIC_PAIR, "case2", "HT", "N2 >= N, N >> N3", quarter=(1, 2),
       source="increment 8 case 2: (N1/N)^{1/4}(N2/N)^{1/4} prod Ni^{-1}"),
]


def catalog_by_label(label: str) -> VerifyCase:
    return {case.label: case for case in CATALOG}[label]


_CHUNK = 2048           # candidates evaluated at once, which bounds the sampler's peak


class _Draws:
    """One round of `c` candidates of a sampler stream, drawn lazily.  Block j
    holds what the j-th free frequency reads: uniform variates u of its
    log-magnitude and unit directions d, in stream order, so every row at one
    seed reads the same first round.  `resume(f)` continues the stream after f
    blocks, where a row's next round starts."""

    def __init__(self, rng, c: int):
        self.rng, self.c, self.blocks = np.random.default_rng(rng), c, []
        self.states = [self.rng.bit_generator.state]

    def block(self, j: int):
        while len(self.blocks) <= j:
            u = self.rng.random(self.c)
            d = self.rng.standard_normal((self.c, 3))
            d /= _norm3(d)[:, None]
            self.blocks.append((u, d))
            self.states.append(self.rng.bit_generator.state)
        return self.blocks[j]

    def resume(self, f: int):   # unannotated: np.random would load on import
        self.block(f - 1)
        bits = type(self.rng.bit_generator)()
        bits.state = self.states[f]
        return np.random.Generator(bits)


def sample_region(case: VerifyCase, N: float, count: int, seed: int, *, _draws=None):
    """Draw `count` tuples in the case region, log-uniform magnitudes and uniform
    directions, and return (S, stats).  S is a (count, arity + blocks) array:
    the kept tuples' magnitudes, bitwise `_norm3` of each frequency, then for
    each block the `_norm3` of its sum, added frequency by frequency in index
    order.  Each round draws 4x the shortfall, at least 2000 candidates,
    evaluates them in chunks of _CHUNK in draw order and keeps the first
    admissible ones, stopping after the chunk that completes the count; the
    counts of rejected and singular candidates in stats cover the candidates
    evaluated, not the rest of the round.  Raise InfeasibleRegionError if 200
    rounds, every candidate of them evaluated, yield fewer than `count`.
    `_draws`, if given, is the first round of `seed`'s stream, shared with
    other rows."""
    if count < 1:
        raise ValueError("count must be >= 1")
    arity, solve, groups = case.expr.arity, case.expr.solve, case.expr.groups
    free = [i for i in range(arity) if i != solve]
    logs = [(np.log(WINDOWS[code][0] * N), np.log(WINDOWS[code][1] * N))
            for code in case.free_ranges]
    draws = _Draws(seed, max(4 * count, 2000)) if _draws is None else _draws
    S, have, rejected, singular = np.empty((count, arity + len(groups))), 0, 0, 0
    F = np.empty((arity, _CHUNK, 3))    # F[i]: frequency i of a chunk of candidates
    for _ in range(200):
        blocks = [draws.block(j) for j in range(len(free))]
        for start in range(0, draws.c, _CHUNK):
            part = slice(start, min(start + _CHUNK, draws.c))
            Fc = F[:, :part.stop - start]
            for i, (a, b), (u, d) in zip(free, logs, blocks, strict=True):
                np.multiply(d[part], np.exp(a + (b - a) * u[part])[:, None], out=Fc[i])
            if solve >= 0:      # minus the sum of the free ones, added in order
                np.copyto(Fc[solve], Fc[free[0]])
                for i in free[1:]:
                    Fc[solve] += Fc[i]
                np.negative(Fc[solve], out=Fc[solve])
            mags = _norm3(Fc)
            sing = (mags < SINGULAR_EPS).any(axis=0)
            ok = case.holds(case.sorted_mags(mags.T), N) & ~sing
            n_sing, n_ok = int(sing.sum()), int(ok.sum())
            singular += n_sing
            rejected += Fc.shape[1] - n_ok - n_sing
            take = np.flatnonzero(ok)[:count - have]
            kept = slice(have, have + len(take))
            S[kept, :arity] = mags.T[take]
            for k, g in enumerate(groups):
                block = Fc[g[0]:g[-1] + 1].transpose(1, 0, 2)
                S[kept, arity + k] = _norm3(_cols(np.add, block))[take]
            have += len(take)
            if have == count:
                break
        if have == count:
            break
        draws = _Draws(draws.resume(len(free)), max(4 * (count - have), 2000))
    if have < count:
        raise InfeasibleRegionError(
            f"region {case.label} gave {have} of {count} samples at N={N}, "
            f"acceptance rate {have / (have + rejected + singular):.3g}")
    return S, {"rejected": rejected, "singular": singular}


@dataclass(frozen=True)
class BoundReport:
    """One row's verdict.  The witness is the row of `sample_region`'s S with
    the largest ratio: the magnitudes, then each block's sum magnitude, all
    that a ratio reads."""

    label: str
    max_ratio: float
    witness: tuple              # a row of S
    per_N: dict                 # N -> max ratio
    slope: float
    passed: bool
    flagged: str = ""


def verify_bounds(cases, N_list, samples_per_N: int, seed: int, s: float = 0.75,
                  cap: float = 64.0, slope_gate: float = 0.1) -> list:
    """Sample every case's region at every N and compare M against the claimed
    bound; the quarter-power bounds are stated at s = 3/4 and hold for any
    s >= 3/4.  N is the outer loop: the cases at one N read one shared first
    round of the sampler stream, and only that N's draws are held.  The
    slope fit needs two or more N, none repeated, so a shorter or repeating
    N_list raises ValueError before anything is sampled."""
    if len(N_list) < 2 or len(set(N_list)) < len(N_list):
        raise ValueError(f"need at least two distinct x for a fit, got N_list {N_list!r}")
    per_N = [{} for _ in cases]
    best = [(-np.inf, None)] * len(cases)
    for k, N in enumerate(N_list):
        draws = _Draws(seed + 7919 * k, max(4 * samples_per_N, 2000))
        for r, case in enumerate(cases):
            S, _ = sample_region(case, N, samples_per_N, seed=seed + 7919 * k,
                                 _draws=draws)
            bound = case.bound(case.sorted_mags(S[:, :case.expr.arity]), N, s)
            ratio = eval_multiplier(case.expr, S, N, s) / bound
            i = int(np.argmax(ratio))
            per_N[r][N] = float(ratio[i])
            if ratio[i] > best[r][0]:
                best[r] = (float(ratio[i]), tuple(S[i]))
            del S, bound, ratio         # freed before the next row's draw
    reports = []
    for case, case_N, (top, witness) in zip(cases, per_N, best):
        slope = loglog_fit(list(N_list), [max(case_N[N], 1e-300) for N in N_list]).slope
        reports.append(BoundReport(case.label, top, witness, case_N, slope,
                                   top <= cap and slope <= slope_gate, case.flagged))
    return reports
