"""Oracles and properties for grids, transforms, norms, and projections."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpilab.bench import _band
from gpilab.grid import (Field, Grid, _box_cutoff, _box_ranges, _fftn_box, _ifftn_box,
                         forward_transform, inverse_transform)
from oracles import box, lp_norm, sobolev_norm


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return Field(grid, vals)


# ---------------------------------------------------------------------------
# construction and validation

def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Grid(dim=4, n=16, length=1.0)
    with pytest.raises(ValueError):
        Grid(dim=1, n=6, length=1.0)       # not a power of two
    with pytest.raises(ValueError):
        Grid(dim=1, n=48, length=1.0)
    with pytest.raises(ValueError):
        Grid(dim=1, n=16, length=0.0)


def test_field_values_are_frozen():
    g = Grid(dim=1, n=16, length=1.0)
    f = Field.zero(g)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_field_shape_must_match_grid():
    g = Grid(dim=2, n=16, length=1.0)
    with pytest.raises(ValueError):
        Field(g, np.zeros(16, dtype=complex))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [8, 64])
def test_xi_abs_is_the_dense_mesh_formula_bitwise(dim, n):
    # the sparse axes sum to the dense meshes' values element by element
    g = Grid(dim, n, 3.7)
    ax = 2 * np.pi * np.fft.fftfreq(n, d=g.dx)
    dense = np.meshgrid(*([ax] * dim), indexing="ij")
    want = np.sqrt(sum(k ** 2 for k in dense))
    assert np.array_equal(g.xi_abs().view(np.uint64), want.view(np.uint64))
    axes = g.xi_mesh()
    assert np.broadcast_shapes(*(k.shape for k in axes)) == g.shape
    assert sum(k.size for k in axes) == dim * n
    for k, d in zip(axes, dense):
        assert np.array_equal(np.broadcast_to(k, g.shape).view(np.uint64),
                              d.view(np.uint64))


# ---------------------------------------------------------------------------
# transforms: unitarity and round trips

@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_parseval_matches_quadrature(dim, n):
    g = Grid(dim=dim, n=n, length=5.0)
    f = random_field(g, seed=dim)
    w = g.dx ** g.dim
    phys = float(np.sum(np.abs(f.values) ** 2) * w)
    spec = float(np.sum(np.abs(forward_transform(f)) ** 2))
    assert abs(phys - spec) <= 1e-12 * phys


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_round_trip_is_identity(dim, n):
    g = Grid(dim=dim, n=n, length=2 * np.pi)
    f = random_field(g, seed=10 + dim)
    back = inverse_transform(g, forward_transform(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))


# ---------------------------------------------------------------------------
# the dealiased box and the band-limited transforms

@pytest.mark.parametrize("n", [2 ** p for p in range(3, 11)])
def test_dealias_mask_is_the_box(n):
    # K is the integer part of the 2/3 rule's (2/3)(n/2); the stepper's box
    # |k_j| <= K is checked bitwise by test_dynamics' out-of-place step
    K = Grid(1, n, 1.0).dealias_cutoff
    assert K <= (2.0 / 3.0) * (n // 2) < K + 1
    assert Grid(3, 64, 1.0).dealias_cutoff == 21


# (shape, dim, K): 1D, 2D, 3D, batched leading axes, K = 0, the widest box
# transformed by lines (13 of 16), a box transformed whole but still cut
# (15 of 16), boxes that cover the axis, and the whole-grid box n // 2
BOX_CASES = [((64,), 1, 21), ((5, 64), 1, 21), ((32, 32), 2, 10), ((3, 32, 32), 2, 0),
             ((16, 16, 16), 3, 5), ((2, 16, 16, 16), 3, 5), ((16, 16, 16), 3, 0),
             ((16, 16, 16), 3, 6), ((16, 16, 16), 3, 7), ((16, 16, 16), 3, 8),
             ((2, 8, 8, 8), 3, 40), ((8, 8, 8), 3, 4)]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _random(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("shape, dim, K", BOX_CASES)
def test_band_limited_inverse_is_ifftn_bitwise(shape, dim, K):
    a = _random(shape, 1) * box(shape[-1], dim, K)
    want = np.fft.ifftn(a, axes=tuple(range(len(shape) - dim, len(shape))))
    got = _ifftn_box(a, dim, K)
    assert got is a
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("shape, dim, K", BOX_CASES)
def test_band_limited_forward_is_masked_fftn_bitwise(shape, dim, K):
    # inside the box, bitwise fftn's values; outside, exact +0.0 written
    # over whatever was there (the mask's product could leave -0.0)
    a = _random(shape, 2)
    inside = box(shape[-1], dim, K)
    want = np.fft.fftn(a, axes=tuple(range(len(shape) - dim, len(shape))))
    out = np.full_like(a, np.nan)
    assert _fftn_box(a, dim, K, out) is out
    assert np.array_equal(_bits(out[..., inside]), _bits(want[..., inside]))
    outside = _bits(out[..., ~inside])
    assert np.array_equal(outside, np.zeros_like(outside))


def test_whole_grid_box_is_one_transform():
    # evolve gives the datum's first record and step the box n // 2, which
    # must go to one numpy call, as numpy's own transform of the datum does
    assert all(_box_ranges(n, n // 2) is None for n in range(8, 1025))


def test_box_cutoff_is_the_least_box():
    n = 32
    for dim, K in [(1, 11), (2, 5), (3, 9), (3, 16)]:
        a = _random((n,) * dim, K) * box(n, dim, K)
        assert _box_cutoff(a) == K
        a[..., K] = a[..., -K] = 0      # in 2D and 3D, K is reached on other axes
        assert _box_cutoff(a) == (K if dim > 1 else K - 1)
    one = np.zeros((8, 8), dtype=complex)
    assert _box_cutoff(one) == 0
    one[0, 0] = 1.0
    assert _box_cutoff(one) == 0


def test_plane_wave_hits_single_mode():
    # e^{i xi_k x} must land on exactly one coefficient of modulus sqrt(V)
    g = Grid(dim=1, n=32, length=4.0)
    k = 3
    xi = 2 * np.pi * k / g.length
    f = Field(g, np.exp(1j * xi * g.x_mesh()[0]))
    coef = forward_transform(f)
    assert abs(abs(coef[k]) - math.sqrt(g.volume)) < 1e-12
    coef[k] = 0.0
    assert np.max(np.abs(coef)) < 1e-12


# ---------------------------------------------------------------------------
# norms

def test_lp_norm_of_constant_field():
    g = Grid(dim=2, n=16, length=3.0)
    f = Field(g, np.full(g.shape, 2.0, dtype=complex))
    for p in (1, 2, 3, 4):
        assert abs(lp_norm(f, p) - 2.0 * g.volume ** (1.0 / p)) < 1e-12
    assert lp_norm(f, np.inf) == 2.0


def test_lp_norm_rejects_p_below_one():
    g = Grid(dim=1, n=16, length=1.0)
    with pytest.raises(ValueError):
        lp_norm(Field.zero(g), 0.5)


def test_sobolev_norm_on_plane_wave():
    g = Grid(dim=1, n=64, length=2 * np.pi)
    xi = 5.0
    f = Field(g, np.exp(1j * xi * g.x_mesh()[0]))
    for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
        expect = math.sqrt(g.volume) * (1 + xi ** 2) ** (s / 2)
        assert abs(sobolev_norm(f, s) - expect) < 1e-10 * expect


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3),
       seed=st.integers(min_value=0, max_value=2 ** 31))
def test_norms_are_absolutely_homogeneous(scale, seed):
    g = Grid(dim=1, n=32, length=2 * np.pi)
    f = random_field(g, seed)
    fs = Field(g, scale * f.values)
    for norm in (lambda h: lp_norm(h, 2), lambda h: sobolev_norm(h, 0.7)):
        a, b = norm(fs), scale * norm(f)
        assert abs(a - b) <= 1e-9 * max(a, 1e-30)


def test_parseval_partition_over_bands():
    # each annulus [c/2, 2c) spans two octaves, so centers 4^k apart plus
    # the ball |xi| < 1 tile the lattice exactly: norms must add up
    g = Grid(dim=2, n=64, length=2 * np.pi)
    f = random_field(g, seed=5)
    coef, absxi = forward_transform(f), g.xi_abs()

    def piece(mask):
        return lp_norm(inverse_transform(g, coef * mask), 2) ** 2

    total = lp_norm(f, 2) ** 2
    pieces = piece(absxi < 1.0)
    c = 2.0
    while c / 2 <= absxi.max():
        pieces += piece(_band(absxi, c))
        c *= 4
    assert abs(pieces - total) < 1e-10 * total

