"""Time-indexed laws: normalization, expectations, marginals."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import BrownianStore, Law, make_grid, preset_field, simulate_ensemble


def test_law_normalization_and_validation(grid1d):
    with pytest.raises(ValueError):
        Law(grid1d, [0.0], -np.ones((1,) + grid1d.shape))
    law = Law.gaussian(grid1d, [0.0, 1.0], mean=0.0, std=1.0)
    mass = grid1d.cell_volume * law.density.sum(axis=1)
    assert np.allclose(mass, 1.0, atol=1e-12)
    assert law.T == 1.0


def _indicator(grid, lo, hi):
    x = grid.nodes(0)
    return ((x >= lo) & (x <= hi)).astype(float)


def test_expectation_and_time_integral(grid1d):
    law = Law.from_slices(grid1d, [0.0, 0.5, 1.0],
                          [_indicator(grid1d, -1.0, 1.0)] * 3)
    ones = np.ones(grid1d.shape)
    assert np.allclose(law.expectation(ones), 1.0)
    assert law.time_integral(ones, T=1.0) == pytest.approx(1.0)
    # second moment of U(-1, 1) is 1/3 (node quantization allows ~h slack)
    x2 = grid1d.nodes(0) ** 2
    assert law.expectation(x2)[0] == pytest.approx(1.0 / 3.0, rel=2e-2)


def test_single_slice_law_extends_in_time(grid1d):
    law = Law.gaussian(grid1d, [0.0], std=1.0)
    x2 = grid1d.nodes(0) ** 2
    full = law.time_integral(x2, T=2.0)
    assert full == pytest.approx(2.0 * law.expectation(x2)[0])


def test_horizon_check(grid1d):
    law = Law.gaussian(grid1d, [0.0, 1.0], std=1.0)
    with pytest.raises(ValueError):
        law.time_integral(np.ones(grid1d.shape), T=2.0)


def test_smooth_preserves_mass(grid1d):
    law = Law.from_slices(grid1d, [0.0],
                          _indicator(grid1d, -0.5, 0.5)).smooth(0.3)
    mass = grid1d.cell_volume * law.density.sum()
    assert mass == pytest.approx(1.0, abs=1e-10)
    # smoothing spreads the plateau
    assert law.density.max() < 1.0


def test_marginal_of_product_law(grid2d):
    xx, vv = grid2d.meshgrid()
    u = np.exp(-0.5 * (xx / 0.4) ** 2 - 0.5 * (vv / 0.6) ** 2)
    law = Law.from_slices(grid2d, [0.0], u)
    for ax, std in ((0, 0.4), (1, 0.6)):
        marg = law.marginal(ax)
        x = marg.grid.nodes(0)
        var = marg.expectation(x * x)[0] - marg.expectation(x)[0] ** 2
        assert var == pytest.approx(std * std, rel=1e-2)


def test_from_ensemble_matches_gaussian(grid1d):
    field = preset_field("heat", {}, grid1d)
    store = BrownianStore.generate(5, 20000, 64, 1.0 / 64.0)
    ens = simulate_ensemble(field, 0.0, 1.0, store, record_every=64)
    law = Law.from_ensemble(ens)
    x = grid1d.nodes(0)
    var = law.expectation(x * x)[-1]
    # X_1 ~ N(0, 1) for sigma = 1 (a = 1/2 gives variance t)
    assert var == pytest.approx(1.0, rel=0.05)


def test_from_ensemble_2d(grid2d):
    field = preset_field("heat", {}, grid2d)
    store = BrownianStore.generate(6, 2000, 32, 1.0 / 64.0, r=2)
    ens = simulate_ensemble(field, (0.0, 0.0), 0.5, store, record_every=32)
    law = Law.from_ensemble(ens)
    assert law.density.shape == (2,) + grid2d.shape
    mass = grid2d.cell_volume * law.density.reshape(2, -1).sum(axis=1)
    assert np.allclose(mass, 1.0, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([1, 2]),
       cells=st.integers(8, 40))
def test_from_ensemble_bins_match_histogramdd(seed, d, cells):
    """Counts equal np.histogramdd on clipped positions, including positions
    on bin edges, one ulp either side of them, outside the box and NaN."""
    bounds = (-1.0, 1.5) if d == 1 else ((-1.0, 1.5), (-2.0, 0.5))
    grid = make_grid(d, bounds, cells)
    rng = np.random.default_rng(seed)
    edges = [np.concatenate([[x[0] - h / 2], x + h / 2])
             for x, h in ((grid.nodes(a), grid.h[a]) for a in range(d))]
    n, nt = 400, 3
    paths = np.empty((n, nt, d))
    for a, e in enumerate(edges):
        on_edge = rng.choice(e, n * nt)
        nudged = np.nextafter(on_edge, rng.choice([-np.inf, np.inf], n * nt))
        wide = rng.uniform(e[0] - 0.5, e[-1] + 0.5, n * nt)
        pick = rng.integers(0, 3, n * nt)
        paths[..., a] = np.choose(pick, [on_edge, nudged, wide]).reshape(n, nt)
    paths[rng.random((n, nt)) < 0.05, 0] = np.nan
    ens = SimpleNamespace(grid=grid, times=np.arange(nt, dtype=float),
                          paths=paths)
    law = Law.from_ensemble(ens)
    for k in range(nt):
        pts = [np.clip(paths[:, k, a], e[0], e[-1]) for a, e in enumerate(edges)]
        counts, _ = np.histogramdd(pts, bins=edges)
        slice_k = counts / (counts.sum() * grid.cell_volume)
        slice_k /= grid.cell_volume * slice_k.sum()  # Law's unit-mass step
        assert np.array_equal(law.density[k], slice_k)


def test_law_rejects_non_finite_density(grid1d):
    """A stamp where every path is NaN must not become a NaN law."""
    paths = np.zeros((5, 3, 1))
    paths[:, 1] = np.nan
    ens = SimpleNamespace(grid=grid1d, times=np.arange(3.0), paths=paths)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
        Law.from_ensemble(ens)
    with pytest.raises(ValueError, match="finite"):
        Law(grid1d, [0.0], np.full((1,) + grid1d.shape, np.nan))
