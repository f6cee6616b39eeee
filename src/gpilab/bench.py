"""Empirical benches for the Strichartz family and the bilinear refinement.

All benches run on finite windows with a fixed smooth time cutoff; the
L^2 norm of the datum stands in for the space-time norm on the right of
each estimate, so only the frequency scaling (the content of the
estimates) is fitted, never absolute constants.  Both dispersive benches
advance their data through one free-flow kernel, `_FreeFlow`, built once
per bench call, which owns one complex buffer per datum and nothing else:
its phase, bitwise `np.exp(1j * xi2 * t) * scale` with the unitary scale
of the inverse transform, is one `exp` per distinct |xi|^2 level, gathered
into the first datum's buffer, and its time loop transforms in those
buffers in place.
The Strichartz sweep reduces in one real grid array of its own; the
bilinear bench writes the product u1 u2 over the first datum's buffer and
sums it with `_l2`, which needs no scratch array.  Each bench builds each
datum in place in one array.  Time samples where the cutoff is exactly 0
(t = 0 and t = T) contribute exactly 0 and are skipped.  The bilinear bench works
in collision coordinates: its data carry no common shift or chirp, so they
are real and evolve over the offsets from the collision time t*, and the
product's grid sum is even in that offset, so each mirrored pair of
collision samples takes one flow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, _box_cutoff, _ifftn_box, _spectral_scale
from .fitting import loglog_fit

__all__ = [
    "strichartz_admissible", "time_cutoff", "band_datum", "strichartz_ratio_sweep",
    "BilinearStat", "bilinear_ratio", "bilinear_sweep",
]

_GRID64 = Grid(dim=3, n=64, length=2 * np.pi)     # the benches' default grid


class _FreeFlow:
    """The free Schroedinger flow e^{it Lap} of `count` data on one grid.

    On a periodic lattice |xi|^2 takes few distinct values (2780 at 64^3),
    so `phase(t, out)` computes e^{i |xi|^2 t} times the unitary scale of
    the inverse transform as one `exp` and one product per level, gathered
    into out through the inverse index of `np.unique`, one table per grid
    per process.  That is the same elementwise arithmetic on the same
    floats as `np.exp(1j * xi2 * t) * scale`, so the phase is bitwise equal.

    The flow owns one complex buffer per datum and nothing else.  The one
    time loop, `samples(coefs, ts, wts)`, finds each datum's box once, the
    least integer K with the datum zero outside |k_j| <= K
    (`grid._box_cutoff`), skips the samples whose weight is exactly 0 (its
    term is 0.0 times a finite number), and at every other sample yields
    (i, wts[i], values).  The phase is gathered into the first datum's
    buffer and multiplied into the data last datum first, so the first
    datum's product overwrites it last.  The inverse transform skips the
    zero lines, most of them for band data at N <= 8 on 64^3, and its
    values are bitwise np.fft.ifftn's.  `values` are the data buffers,
    overwritten at the next sample: copy what must outlive it.
    """

    def __init__(self, grid: Grid, count: int):
        self.levels, self.index = _level_table(grid)
        self.scale = 1 / _spectral_scale(grid)
        self.out = tuple(np.empty(grid.shape, dtype=complex) for _ in range(count))

    def phase(self, t: float, out: np.ndarray) -> np.ndarray:
        """e^{i |xi|^2 t} times the unitary scale on the grid, written into out."""
        # mode "clip" writes straight into out; the default "raise" buffers
        return np.take(np.exp(1j * self.levels * t) * self.scale, self.index,
                       out=out, mode="clip")

    def samples(self, coefs, ts, wts):
        """(i, wts[i], physical values at ts[i]) of the unitary coefficient
        arrays coefs, for every i with wts[i] != 0."""
        data = list(zip(coefs, self.out, [_box_cutoff(c) for c in coefs]))[::-1]
        for i, (t, wt) in enumerate(zip(ts, wts)):
            if wt == 0.0:
                continue
            phase = self.phase(t, self.out[0])
            for c, b, K in data:
                np.multiply(c, phase, out=b)
                _ifftn_box(b, b.ndim, K)
            yield i, wt, self.out


@functools.cache
def _level_table(grid: Grid):
    """|xi|^2 levels on grid and each point's intp index (a uint16 slows
    np.take), writeable, since np.take copies an index that is not."""
    levels, index = np.unique(grid.xi_abs() ** 2, return_inverse=True)
    return levels, index.reshape(grid.shape)


def _l2(a: np.ndarray) -> float:
    """sqrt(sum |a|^2) of a contiguous array, in one pass over its floats.

    np.linalg.norm sums through BLAS `ddot`, whose summation order moves
    with the BLAS thread count; einsum's own loop does not, and it reads
    the array in place, with no grid-sized temporary.
    """
    x = a.reshape(-1)
    if np.iscomplexobj(x):
        x = x.view(float)
    return math.sqrt(np.einsum("i,i->", x, x))


def strichartz_admissible(q: float, r: float) -> bool:
    """3D admissibility: 1/q + 3/(2r) = 3/4 with q, r >= 2."""
    if q < 2 or r < 2:
        return False
    lhs = (0.0 if q == math.inf else 1.0 / q) + (0.0 if r == math.inf else 1.5 / r)
    return abs(lhs - 0.75) <= 1e-12


def _smoothstep(x):
    """Quintic smoothstep x^3 (10 - 15x + 6x^2) of x clipped to [0, 1]."""
    x = np.clip(x, 0.0, 1.0)
    return x ** 3 * (10 - 15 * x + 6 * x * x)


def time_cutoff(ts, T: float) -> np.ndarray:
    """Quintic smoothstep ramps on [0, 0.1T] and [0.9T, T], flat between."""
    ts = np.asarray(ts, dtype=float)
    return _smoothstep(ts / (0.1 * T)) * _smoothstep((T - ts) / (0.1 * T))


def _band(absxi, N) -> np.ndarray:
    """The dyadic annulus N/2 <= |xi| < 2N on the magnitudes absxi, the one
    definition of a band; raises ValueError if empty, as for N <= 0 or NaN."""
    mask = (absxi >= N / 2) & (absxi < 2 * N)
    if not mask.any():
        raise ValueError(f"band centered at {N} is not resolvable on this grid")
    return mask


# ---------------------------------------------------------------------------
# linear Strichartz sweep

def band_datum(grid: Grid, N: float, seed: int) -> np.ndarray:
    """Unitary coefficients of a random datum on the annulus |xi| ~ N, unit L^2."""
    rng = np.random.default_rng(seed)
    mask = _band(grid.xi_abs(), N)
    coef = np.empty(grid.shape, dtype=complex)
    coef.real = rng.standard_normal(grid.shape)
    coef.imag = rng.standard_normal(grid.shape)
    coef *= mask
    coef /= _l2(coef)
    return coef


def strichartz_ratio_sweep(q: float, r: float, T: float,
                           centers=(4, 8, 16, 32), seeds: int = 4,
                           grid: Grid = _GRID64, m: int = 24, seed0: int = 100) -> dict:
    """Ratio ||cutoff * e^{itLap} f||_{L^q L^r} / ||f||_{L^2} over band centers.

    Boundedness of the estimate shows up as a near-zero fitted slope of the
    mean ratio against the band center.
    """
    if not strichartz_admissible(q, r):
        raise ValueError(f"(q, r) = ({q}, {r}) is not 3D-admissible")
    ts = np.linspace(0.0, T, m)
    wts = time_cutoff(ts, T)
    flow = _FreeFlow(grid, 1)
    work = np.empty(grid.shape)
    w = grid.dx ** grid.dim
    means = []
    for N in centers:
        ratios = []
        for j in range(seeds):
            coef = band_datum(grid, N, seed0 + j)
            l2 = _l2(coef)
            norms = np.zeros(m)
            for i, wt, (u,) in flow.samples((coef,), ts, wts):
                np.abs(u, out=work)
                work **= r
                norms[i] = wt * (np.sum(work) * w) ** (1.0 / r)
            num = float(norms.max() if q == math.inf
                        else np.trapezoid(norms ** q, ts) ** (1.0 / q))
            ratios.append(num / l2)
            del coef        # freed before the next datum is drawn
        means.append(float(np.mean(ratios)))
    fit = loglog_fit(list(centers), means)
    return {"fit": fit, "means": means, "centers": list(centers)}


# ---------------------------------------------------------------------------
# bilinear refinement bench

@dataclass(frozen=True)
class BilinearStat:
    mean: float
    ratios: tuple


def bilinear_ratio(N1: float, N2: float, seeds: int, T: float,
                   grid: Grid = _GRID64, seed0: int = 1000) -> BilinearStat:
    """||u1 u2||_{L^2_{x,t}} / (||f1|| ||f2||) for colliding free wave packets.

    On a periodic box, generic band-limited data never separate, so the
    time-independent overlap floor hides the dispersive gain of the
    estimate.  The bench therefore uses the extremal configuration the
    estimate is sharp for: a low-frequency annulus pulse and a
    high-frequency packet confined to a cube of side ~ min(N1, N2) riding
    across it, both focusing at a random time t*; time quadrature is
    densified around the collision.  Raises ValueError when either dyadic
    band holds no lattice mode.

    The data are built in collision coordinates.  A backward chirp
    e^{-i|xi|^2 t*} on both data only moves the time origin to t*, so the
    data are evolved over the offsets tau = t - t*; and a common
    translation leaves ||u1 u2||_{L^2} unchanged (on the grid exactly when
    |u1 u2|^2 is not aliased), so no shift is applied.  Both data are then
    real coefficient arrays, f1 the radial profile, the same for every
    seed, and f2 the band times the packet's window.  For real
    coefficients v(-tau)(x) = conj(v(tau)(-x)), and x -> -x permutes the
    grid, so S(tau) = sum_x |v1 v2|^2 is even in tau: the 48 collision
    offsets are 24 positive ones and their exact negatives, and S is
    evaluated once per |tau| there and once per coarse sample of nonzero
    weight, 24 + 18 free flows per seed.  Each seed still draws the shift
    x1 it no longer applies: the draw keeps the random stream, and with it
    each seed's packet direction and the gate's printed slopes, as they
    were with the shift.
    """
    if N1 > N2:
        raise ValueError("bilinear bench expects N1 <= N2")
    absxi = grid.xi_abs()
    band2 = _band(absxi, N2)
    # smooth radial bump centered at N1, confined to its dyadic annulus
    f1 = np.exp(-((absxi - N1) / (N1 / 3.0)) ** 2) * _band(absxi, N1)
    del absxi      # freed before the flow's buffers: 2 MB less peak RSS at 64^3
    f1 /= _l2(f1)
    # collision duration: packet group-velocity ~ 2 N2 crossing ~1/N scales
    duration = (1.0 / N1 + 1.0 / N2) / (2 * N2)
    half = min(0.2 * T, 6 * duration)
    dense = np.linspace(-half, half, 48)[24:]      # the positive collision offsets
    coarse = np.linspace(0.0, T, 20)
    # t* - half and t* + half lie in [0.2T, 0.8T], where the cutoff is
    # positive: every dense offset is evaluated
    keep = np.concatenate((np.ones(dense.size), time_cutoff(coarse, T)))
    side = min(N1, N2)
    flow = _FreeFlow(grid, 2)
    f2 = np.empty(grid.shape)
    ks = grid.xi_mesh()
    w = grid.dx ** grid.dim
    ratios = []
    for j in range(seeds):
        rng = np.random.default_rng(seed0 + j)
        tstar = T * rng.uniform(0.4, 0.6)
        rng.uniform(0.0, grid.length, grid.dim)     # the unused shift x1
        direction = rng.standard_normal(grid.dim)
        direction /= np.linalg.norm(direction)
        center = N2 * direction
        # the window exp(-sum_i ((k_i - c_i) / (side/3))^2), built in f2:
        # the sparse axes' terms add up small until the last one
        terms = [((ks[i] - center[i]) / (side / 3.0)) ** 2 for i in range(grid.dim)]
        np.add(sum(terms[:-1]), terms[-1], out=f2)
        np.negative(f2, out=f2)
        np.exp(f2, out=f2)
        np.multiply(band2, f2, out=f2)
        f2 /= _l2(f2)
        offsets = np.concatenate((dense, coarse - tstar))
        S = np.zeros(offsets.size)
        for i, _, (v1, v2) in flow.samples((f1, f2), offsets, keep):
            S[i] = _l2(np.multiply(v1, v2, out=v1)) ** 2 * w
        # t* - dense and t* + dense share S; the union is sorted as np.union1d's
        ts, at = np.unique(np.concatenate((tstar - dense, tstar + dense, coarse)),
                           return_inverse=True)
        vals = np.zeros(ts.size)
        vals[at] = np.concatenate((S[:dense.size], S))
        vals *= time_cutoff(ts, T) ** 2
        ratios.append(float(np.sqrt(np.trapezoid(vals, ts))))
    return BilinearStat(mean=float(np.mean(ratios)), ratios=tuple(ratios))


def bilinear_sweep(seeds: int, T: float, grid: Grid = _GRID64, seed0: int = 1000) -> dict:
    """Both slope fits of the refinement: N2 at fixed N1, N1 at fixed N2.

    The axes share the pair (8, 16), so five pairs are evaluated, each once.
    """
    n2_axis, n1_axis = [8, 16, 32], [4, 8, 16]
    pairs = {(8, N2) for N2 in n2_axis} | {(N1, 16) for N1 in n1_axis}
    mean = {pair: bilinear_ratio(*pair, seeds, T, grid, seed0).mean
            for pair in sorted(pairs)}
    n2_means = [mean[8, N2] for N2 in n2_axis]
    n1_means = [mean[N1, 16] for N1 in n1_axis]
    return {
        "N2_fit": loglog_fit(n2_axis, n2_means), "N2_means": n2_means,
        "N1_fit": loglog_fit(n1_axis, n1_means), "N1_means": n1_means,
        "N2_axis": n2_axis, "N1_axis": n1_axis,
    }
