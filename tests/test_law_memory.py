"""One law-sized array per ensemble law: ``Law.from_ensemble`` turns its
integer counts into densities in their own buffer, and ``Law`` checks a
density's finiteness and sign from its minimum and maximum. Both give the
numbers and messages of the separate-array computation they replaced."""

import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import Law, make_grid
from sdelab import laws


def _separate_arrays_density(ens, grid, bandwidth):
    """The computation with a float copy of the counts: per-stamp
    np.histogramdd counts on clipped positions (NaN dropped), counts over
    (N_t * cell_volume), the optional Gaussian smoothing, then the division
    by each slice's mass."""
    edges = [np.concatenate([[x[0] - h / 2], x + h / 2])
             for x, h in ((grid.nodes(a), grid.h[a]) for a in range(grid.d))]
    counts = np.stack([np.histogramdd(
        [np.clip(ens.paths[:, k, a], e[0], e[-1]) for a, e in enumerate(edges)],
        bins=edges)[0] for k in range(ens.times.size)])
    flat = counts.reshape(ens.times.size, -1)
    with np.errstate(invalid="ignore"):
        slices = counts / (flat.sum(axis=1) * grid.cell_volume).reshape(
            (-1,) + (1,) * grid.d)
    if bandwidth is not None:
        for ax in range(grid.d):
            slices = laws._gaussian_filter(slices, bandwidth / grid.h[ax],
                                           1 + ax)
    mass = grid.cell_volume * slices.reshape(ens.times.size, -1).sum(axis=1)
    return slices / mass.reshape((-1,) + (1,) * grid.d)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([1, 2]),
       cells=st.integers(8, 16), nt=st.integers(1, 4),
       n=st.integers(2, 200), several_blocks=st.booleans(),
       nan_frac=st.sampled_from([0.0, 0.05, 0.5]),
       empty_stamp=st.sampled_from([False, False, True]),
       bandwidth=st.sampled_from([None, 0.5, 2.0]))
def test_from_ensemble_equals_separate_arrays(seed, d, cells, nt, n,
                                              several_blocks, nan_frac,
                                              empty_stamp, bandwidth):
    """Bit for bit on 1-D and 2-D grids, with NaN positions, a stamp whose
    every position is NaN (the same 'finite' error), one or several path
    blocks and the smoothing on (in cell widths) or off."""
    grid = make_grid(d, (-1.0, 1.5) if d == 1 else ((-1.0, 1.5), (-2.0, 0.5)),
                     cells)
    rng = np.random.default_rng(seed)
    size = nt * int(np.prod(grid.shape))
    if several_blocks:
        n += 2 * size  # more paths than one block of `size` positions holds
    paths = np.empty((n, nt, d))
    for a in range(d):
        lo, hi = grid.lower[a], grid.upper[a]
        paths[..., a] = rng.uniform(lo - 0.5, hi + 0.5, (n, nt))
    paths[rng.random((n, nt)) < nan_frac, rng.integers(0, d)] = np.nan
    if empty_stamp:
        paths[:, rng.integers(0, nt)] = np.nan
    ens = SimpleNamespace(grid=grid, times=np.arange(nt, dtype=float),
                          paths=paths)
    bw = None if bandwidth is None else bandwidth * grid.h[0]
    expected = _separate_arrays_density(ens, grid, bw)
    # PATH_BLOCK = 1 leaves blocks of `size` positions, the least allowed
    with mock.patch.object(laws, "PATH_BLOCK", 1 if several_blocks else
                           laws.PATH_BLOCK):
        blocks = laws.path_blocks(n, nt, max(laws.PATH_BLOCK, size))
        assert (len(blocks) > 1) == several_blocks
        if not np.all(np.isfinite(expected)):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(ValueError, match="^density must be finite$"):
                Law.from_ensemble(ens, bandwidth=bw)
            return
        law = Law.from_ensemble(ens, bandwidth=bw)
    assert law.density.dtype == np.float64
    assert np.array_equal(law.density, expected)


SPECIAL = [np.nan, np.inf, -np.inf, -1.0, -1e-300, -0.0, 0.0]


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2]), nt=st.integers(1, 3),
       picks=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                st.sampled_from(SPECIAL)), max_size=4))
def test_law_messages_equal_elementwise_checks(d, nt, picks):
    """NaN, +-inf and negative entries anywhere give the message, in the
    order, of the elementwise checks (not all finite, then any negative)."""
    grid = make_grid(d, (-1.0, 1.0) if d == 1 else ((-1.0, 1.0), (0.0, 3.0)),
                     8)
    density = np.full((nt,) + grid.shape, 1.0 / (grid.cell_volume
                                                 * np.prod(grid.shape)))
    for where, value in picks:
        density.reshape(-1)[where % density.size] = value
    if not np.all(np.isfinite(density)):
        message = "density must be finite"
    elif np.any(density < 0):
        message = "density must be nonnegative"
    else:
        message = None
    if message is None:
        density /= grid.cell_volume * density.reshape(nt, -1).sum(
            axis=1).reshape((-1,) + (1,) * d)
        Law(grid, np.arange(nt, dtype=float), density)
    else:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Law(grid, np.arange(nt, dtype=float), density)


@pytest.mark.parametrize("d", [1, 2])
def test_zero_stamp_law_is_accepted(d):
    grid = make_grid(d, (-1.0, 1.0) if d == 1 else ((-1.0, 1.0), (0.0, 3.0)),
                     8)
    law = Law(grid, [], np.empty((0,) + grid.shape))
    assert law.density.shape == (0,) + grid.shape
    assert law.mass().shape == (0,)


def test_from_ensemble_peak_at_coupled_family_shape():
    """perfbench's coupled_family member: 1 000 paths x 33 stamps on 8 192
    cells. The law's own bytes plus the binning temporaries of one block
    stay at or under 1.6 laws of tracemalloc peak (2.57 with a float copy of
    the counts)."""
    grid = make_grid(1, (-4.0, 4.0), 8192)
    rng = np.random.default_rng(3)
    ens = SimpleNamespace(grid=grid, times=np.linspace(0.0, 1.0, 33),
                          paths=rng.normal(0.5, 0.6, (1000, 33, 1)))
    tracemalloc.start()
    try:
        law = Law.from_ensemble(ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * law.density.nbytes, peak / law.density.nbytes
