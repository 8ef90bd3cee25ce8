"""Maximal operators, the half-derivative and the pair scans."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from sdelab import (
    Law,
    RadiusSchedule,
    check_pointwise_bound,
    gradient,
    gradient_magnitude,
    h1_norm,
    half_derivative,
    make_grid,
    maximal,
    maximal_modified,
    preset_field,
    sample_pairs,
)
from sdelab.maxops import _ball_averages


def test_radius_schedule_geometric(grid1d):
    sched = RadiusSchedule.geometric(grid1d)
    r = np.asarray(sched.radii)
    assert r[0] == pytest.approx(grid1d.h[0])
    assert np.allclose(r[1:] / r[:-1], 2.0)
    assert r[-1] <= grid1d.box_diameter / 2 * (1 + 1e-12)


def test_maximal_of_constant_is_constant(grid1d):
    out = maximal(np.full(grid1d.shape, 3.5), grid1d)
    assert np.allclose(out, 3.5)


def test_maximal_dominates_the_function_at_scale_zero(grid1d):
    """M f >= the one-cell average, which for smooth f is close to f."""
    x = grid1d.nodes(0)
    f = np.exp(-x * x)
    out = maximal(f, grid1d)
    assert np.all(out >= f - 0.5 * grid1d.h[0])


def test_maximal_rejects_negative_input(grid1d):
    with pytest.raises(ValueError):
        maximal(-np.ones(grid1d.shape), grid1d)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_maximal_monotone_and_sublinear(seed):
    """f <= g implies Mf <= Mg, and M(f+g) <= Mf + Mg."""
    grid = make_grid(1, (-1.0, 1.0), 128)
    rng = np.random.default_rng(seed)
    f = rng.random(grid.shape)
    g = f + rng.random(grid.shape)
    mf, mg = maximal(f, grid), maximal(g, grid)
    assert np.all(mf <= mg + 1e-12)
    assert np.all(maximal(f + g, grid) <= mf + mg + 1e-12)


def test_maximal_homogeneous(grid1d, rng):
    f = rng.random(grid1d.shape)
    assert np.allclose(maximal(3.0 * f, grid1d), 3.0 * maximal(f, grid1d))


def test_maximal_2d_constant(grid2d):
    out = maximal(np.ones(grid2d.shape), grid2d)
    assert np.allclose(out, 1.0)


def _disc_kernel(grid, r):
    """Unit-mass weights on the node offsets with |offset|^2 <= r^2."""
    hx, hy = grid.h
    ki, kj = int(r / hx), int(r / hy)
    oi = hx * np.arange(-ki, ki + 1)
    oj = hy * np.arange(-kj, kj + 1)
    mask = (oi[:, None] ** 2 + oj[None, :] ** 2) <= r * r + 1e-12
    return mask / mask.sum()


def _dense_maximal(f, grid, radii):
    """Oracle: max over radii of dense disc correlations of the extended f."""
    out = np.full(f.shape, -np.inf)
    for r in radii:
        k = _disc_kernel(grid, r)
        ki, kj = (k.shape[0] - 1) // 2, (k.shape[1] - 1) // 2
        ext = np.pad(f, ((ki, ki), (0, 0)),
                     mode="wrap" if grid.periodic[0] else "edge")
        ext = np.pad(ext, ((0, 0), (kj, kj)),
                     mode="wrap" if grid.periodic[1] else "edge")
        avg = ndimage.correlate(ext, k, mode="constant")
        np.maximum(out, avg[ki:ki + f.shape[0], kj:kj + f.shape[1]], out=out)
    return out


@pytest.mark.parametrize("periodic", [False, True, (True, False)],
                         ids=["edge", "wrap", "mixed"])
@pytest.mark.parametrize("cells", [64, 128])
def test_maximal_2d_matches_dense_disc_correlation(cells, periodic):
    grid = make_grid(2, ((-4.0, 4.0), (-4.0, 4.0)), cells, periodic=periodic)
    # scipy's border offset tables for the dense oracle grow like r^4: the
    # full schedule at 64^2, radii up to 16 cells at 128^2 (all radii there
    # would need 1.7 GB per call)
    radii = RadiusSchedule.geometric(grid).radii
    if cells == 128:
        radii = [r for r in radii if r <= 16 * grid.h[0] * (1 + 1e-12)]
    f = np.random.default_rng(cells).random(grid.shape)
    fold = np.full(grid.shape, -np.inf)
    for avg in _ball_averages(f, grid, radii):
        np.maximum(fold, avg, out=fold)
    np.testing.assert_allclose(fold, _dense_maximal(f, grid, radii),
                               rtol=1e-12, atol=0)
    if cells == 64:
        assert np.array_equal(maximal(f, grid), fold)


def test_maximal_2d_matches_dense_on_anisotropic_grid(grid2d, rng):
    assert grid2d.h == (1 / 16, 3 / 32)
    radii = RadiusSchedule.geometric(grid2d).radii
    f = rng.random(grid2d.shape)
    np.testing.assert_allclose(maximal(f, grid2d),
                               _dense_maximal(f, grid2d, radii),
                               rtol=1e-12, atol=0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       periodic=st.sampled_from([False, True, (True, False), (False, True)]))
def test_maximal_2d_monotone_and_sublinear(seed, periodic):
    """f <= g implies Mf <= Mg, and M(f+g) <= Mf + Mg, on every boundary."""
    grid = make_grid(2, ((-1.0, 1.0), (-1.5, 1.5)), 32, periodic=periodic)
    rng = np.random.default_rng(seed)
    f = rng.random(grid.shape)
    g = f + rng.random(grid.shape)
    mf, mg = maximal(f, grid), maximal(g, grid)
    assert np.all(mf <= mg + 1e-12)
    assert np.all(maximal(f + g, grid) <= mf + mg + 1e-12)


def test_maximal_operators_on_256_squared_grid():
    """The thm_multidim_convergence default grid, [-4, 4]^2 at 256 cells.

    The kinetic drift has a kink at |x| = 1, so |grad F| is not constant.
    """
    grid = make_grid(2, ((-4.0, 4.0), (-4.0, 4.0)), 256)
    drift = preset_field("kinetic_langevin", {}, grid).drift
    g = gradient_magnitude(drift, grid)
    start = time.perf_counter()
    m = maximal(g, grid)
    assert time.perf_counter() - start < 1.0
    assert np.all(m >= g.min() - 1e-12) and np.all(m <= g.max() + 1e-12)
    assert np.any(m > g + 1e-3)
    L = float(np.e)
    assert np.all(maximal_modified(g, grid, L) >= np.sqrt(np.log(L)))
    x, v = grid.meshgrid()
    slices = np.stack([np.exp(-0.5 * ((x - c) ** 2 + v * v)) for c in (0.0, 1.0)])
    h1 = h1_norm(drift, Law.from_slices(grid, [0.0, 1.0], slices), 1.0)
    assert np.isfinite(h1.value) and h1.value > 0


def test_maximal_modified_threshold_floor(grid1d):
    """Fields entirely below sqrt(log L) contribute nothing beyond the floor."""
    L = 100.0
    thr = np.sqrt(np.log(L))
    out = maximal_modified(np.full(grid1d.shape, 0.5 * thr), grid1d, L)
    assert np.allclose(out, thr)


def test_maximal_modified_monotone_in_g(grid1d, rng):
    g = rng.random(grid1d.shape) * 4.0
    g2 = g + rng.random(grid1d.shape)
    out1 = maximal_modified(g, grid1d, np.e)
    out2 = maximal_modified(g2, grid1d, np.e)
    assert np.all(out1 <= out2 + 1e-12)


def test_maximal_modified_validation(grid1d):
    with pytest.raises(ValueError):
        maximal_modified(np.ones(grid1d.shape), grid1d, 0.5)
    with pytest.raises(ValueError):
        maximal_modified(-np.ones(grid1d.shape), grid1d, 2.0)


def test_maximal_modified_indicator_oracle():
    """Closed form for a unit indicator at L=e, evaluated at x=0:

    sqrt(log e) + int_0^1 2 dz / ((1/e + z) z^0) ... collapsed to 1-D:
    value = 1 + 2 log((1/e + 1)/(1/e)) restricted to the right half when the
    indicator covers [0, 1]; with the indicator on [-1, 1] and threshold 1
    the exact value at the origin is 1 + 2 log(1 + e).
    """
    grid = make_grid(1, (-2.0, 2.0), 2048)
    x = grid.nodes(0)
    g = (np.abs(x) <= 1.0).astype(float)
    out = maximal_modified(g, grid, float(np.e))
    center = int(np.argmin(np.abs(x)))
    exact = 1.0 + 2.0 * np.log1p(np.e)
    assert abs(out[center] - exact) < 5e-3


def test_half_derivative_eigenfunctions():
    """cos(k x) maps to sqrt(k) cos(k x) on the 2 pi periodic box."""
    grid = make_grid(1, (0.0, 2.0 * np.pi), 256, periodic=True)
    x = grid.nodes(0)
    for k in (1, 4, 9):
        out = half_derivative(np.cos(k * x), grid)
        assert np.allclose(out, np.sqrt(k) * np.cos(k * x), atol=1e-10)


def test_half_derivative_linearity(rng):
    grid = make_grid(1, (-1.0, 1.0), 128, periodic=True)
    f, g = rng.random(grid.shape), rng.random(grid.shape)
    lhs = half_derivative(2.0 * f - g, grid)
    rhs = 2.0 * half_derivative(f, grid) - half_derivative(g, grid)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_half_derivative_requires_periodic_power_of_two(grid1d):
    with pytest.raises(ValueError):
        half_derivative(np.zeros(grid1d.shape), grid1d)
    bad = make_grid(1, (-1.0, 1.0), 100, periodic=True)
    with pytest.raises(ValueError):
        half_derivative(np.zeros(bad.shape), bad)


def test_gradient_exact_on_quadratics(grid1d):
    x = grid1d.nodes(0)
    g = gradient(x * x, grid1d)
    assert np.allclose(g, 2.0 * x, atol=1e-9)


def test_gradient_magnitude_stacks_components(grid2d):
    f = preset_field("ou", {}, grid2d)
    gm = gradient_magnitude(f.drift, grid2d)
    # drift (-x, -y): the Frobenius norm of the Jacobian is sqrt(2)
    assert np.allclose(gm, np.sqrt(2.0), atol=1e-8)


def test_sample_pairs_distinct(grid1d):
    i, j = sample_pairs(grid1d, 5000, seed=3)
    assert i.size == j.size == 5000
    assert np.all(i != j)
    assert i.max() < grid1d.shape[0] and j.max() < grid1d.shape[0]
    i2, j2 = sample_pairs(grid1d, 5000, seed=3)
    assert np.array_equal(i, i2) and np.array_equal(j, j2)


def test_classic_bound_equality_on_linear_fields(grid1d):
    """|f(x)-f(y)| = (M|f'|(x)+M|f'|(y))/2 * |x-y| for linear f."""
    x = grid1d.nodes(0)
    pairs = sample_pairs(grid1d, 20000, seed=0)
    rep = check_pointwise_bound("classic", 2.0 * x + 1.0, grid1d, pairs)
    assert rep.violations == 0
    assert rep.worst_ratio == pytest.approx(1.0, rel=1e-6)


def test_modified_bound_needs_L(grid1d):
    pairs = sample_pairs(grid1d, 100, seed=0)
    with pytest.raises(ValueError):
        check_pointwise_bound("modified", np.ones(grid1d.shape), grid1d, pairs)
    with pytest.raises(ValueError):
        check_pointwise_bound("unknown", np.ones(grid1d.shape), grid1d, pairs)


def test_modified_bound_on_kink_drift(grid1d):
    f = preset_field("kink_drift", {"beta": 2.0}, grid1d)
    pairs = sample_pairs(grid1d, 50000, seed=1)
    rep = check_pointwise_bound("modified", f.drift[:, 0], grid1d, pairs, L=10.0)
    assert rep.violations == 0


def test_half_bound_on_periodic_kink():
    grid = make_grid(1, (-4.0, 4.0), 1024, periodic=True)
    x = grid.nodes(0)
    sig = np.sqrt(np.minimum(np.abs(np.sin(np.pi * x / 4.0)), 1.0))
    pairs = sample_pairs(grid, 50000, seed=2)
    rep = check_pointwise_bound("half", sig, grid, pairs, K_cal=2.0)
    assert rep.violations == 0
    assert rep.worst_ratio > 0
