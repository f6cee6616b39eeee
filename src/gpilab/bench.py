"""Empirical benches for the Strichartz family and the bilinear refinement.

All benches run on finite windows with a fixed smooth time cutoff; the
L^2 norm of the datum stands in for the space-time norm on the right of
each estimate, so only the frequency scaling (the content of the
estimates) is fitted, never absolute constants.  Both dispersive benches
advance their data through one free-flow kernel, `_FreeFlow`, built once
per bench call: its phase is one `exp` per distinct |xi|^2 level, and its
time loop transforms and reduces in preallocated buffers.  Time samples
where the cutoff is exactly 0 (t = 0 and t = T) contribute exactly 0 and
are skipped.
"""

from __future__ import annotations

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
    so `phase(t)` computes e^{i |xi|^2 t} as one `exp` per level, gathered
    onto the grid through the inverse index of `np.unique`.  That is the
    same elementwise arithmetic on the same floats as
    `np.exp(1j * xi2 * t)`, so the phase is bitwise equal to it.

    The phase, one complex buffer per datum and the real `work` array are
    allocated once.  `samples(coefs, ts, wts)` is the one time loop of the
    benches: it finds each datum's box once, the least integer K with the
    datum zero outside |k_j| <= K (`grid._box_cutoff`), skips the samples
    whose weight is exactly 0 (the term there is 0.0 times a finite number,
    exactly 0), and at every other sample yields (i, wts[i], values).  The
    inverse transform skips the lines that are zero, most of them for band
    data at N <= 8 on 64^3, and its values are bitwise np.fft.ifftn's.
    `phase(t)` returns the phase buffer and `values` are the data buffers,
    each of them overwritten at the next sample: copy what must outlive it.
    """

    def __init__(self, grid: Grid, count: int):
        levels, index = np.unique(grid.xi_abs() ** 2, return_inverse=True)
        self.levels, self.index = levels, index.reshape(grid.shape)
        self.scale = 1 / _spectral_scale(grid)
        self._phase = np.empty(grid.shape, dtype=complex)
        self.out = tuple(np.empty(grid.shape, dtype=complex) for _ in range(count))
        self.work = np.empty(grid.shape)

    def phase(self, t: float) -> np.ndarray:
        """e^{i |xi|^2 t} on the grid, in the shared phase buffer."""
        # mode "clip" writes straight into out; the default "raise" buffers
        return np.take(np.exp(1j * self.levels * t), self.index,
                       out=self._phase, mode="clip")

    def samples(self, coefs, ts, wts):
        """(i, wts[i], physical values at ts[i]) of the unitary coefficient
        arrays coefs, for every i with wts[i] != 0."""
        Ks = [_box_cutoff(c) for c in coefs]
        for i, (t, wt) in enumerate(zip(ts, wts)):
            if wt == 0.0:
                continue
            phase = self.phase(t)
            for c, b, K in zip(coefs, self.out, Ks):
                np.multiply(c, phase, out=b)
                _ifftn_box(b, b.ndim, K)
                b *= self.scale
            yield i, wt, self.out


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
    coef = (rng.standard_normal(grid.shape)
            + 1j * rng.standard_normal(grid.shape)) * mask
    coef /= np.linalg.norm(coef)
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
    w = grid.dx ** grid.dim
    means = []
    for N in centers:
        ratios = []
        for j in range(seeds):
            coef = band_datum(grid, N, seed0 + j)
            l2 = float(np.linalg.norm(coef))
            norms = np.zeros(m)
            for i, wt, (u,) in flow.samples((coef,), ts, wts):
                work = np.abs(u, out=flow.work)
                work **= r
                norms[i] = wt * (np.sum(work) * w) ** (1.0 / r)
            num = float(norms.max() if q == math.inf
                        else np.trapezoid(norms ** q, ts) ** (1.0 / q))
            ratios.append(num / l2)
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
    estimate is sharp for: a focusing (backward-chirped) low-frequency
    annulus pulse and a high-frequency packet confined to a cube of side
    ~ min(N1, N2) riding across it.  Both focus near a common random time
    t*; time quadrature is densified around the collision.  Raises
    ValueError when either dyadic band holds no lattice mode.
    """
    if N1 > N2:
        raise ValueError("bilinear bench expects N1 <= N2")
    absxi = grid.xi_abs()
    band2 = _band(absxi, N2)
    # smooth radial bump centered at N1, confined to its dyadic annulus
    profile = np.exp(-((absxi - N1) / (N1 / 3.0)) ** 2) * _band(absxi, N1)
    del absxi      # not needed past here; holding it raises the peak RSS
    # collision duration: packet group-velocity ~ 2 N2 crossing ~1/N scales
    tau = (1.0 / N1 + 1.0 / N2) / (2 * N2)
    half = min(0.2 * T, 6 * tau)
    side = min(N1, N2)
    flow = _FreeFlow(grid, 2)
    ks = grid.xi_mesh()
    w = grid.dx ** grid.dim
    ratios = []
    for j in range(seeds):
        rng = np.random.default_rng(seed0 + j)
        tstar = T * rng.uniform(0.4, 0.6)
        ts = np.union1d(np.linspace(0.0, T, 20),
                        np.linspace(max(0.0, tstar - half),
                                    min(T, tstar + half), 48))
        wts = time_cutoff(ts, T)
        x1 = rng.uniform(0.0, grid.length, grid.dim)
        chirp = flow.phase(-tstar)
        shift = np.exp(-1j * sum(k * x1[i] for i, k in enumerate(ks)))
        f1 = profile * chirp * shift
        direction = rng.standard_normal(grid.dim)
        direction /= np.linalg.norm(direction)
        center = N2 * direction
        window = np.exp(-sum(((ks[i] - center[i]) / (side / 3.0)) ** 2
                             for i in range(grid.dim)))
        f2 = band2 * window * chirp * shift
        a, b = np.linalg.norm(f1), np.linalg.norm(f2)
        f1, f2 = f1 / a, f2 / b
        vals = np.zeros(ts.size)
        for i, wt, (u1, u2) in flow.samples((f1, f2), ts, wts):
            work = np.abs(np.multiply(u1, u2, out=u1), out=flow.work)
            np.square(work, out=work)
            vals[i] = wt ** 2 * np.sum(work) * w
        ratios.append(float(np.sqrt(np.trapezoid(vals, ts))))
    return BilinearStat(mean=float(np.mean(ratios)), ratios=tuple(ratios))


def bilinear_sweep(seeds: int = 20, T: float = 0.5, grid: Grid = _GRID64,
                   seed0: int = 1000) -> dict:
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
