"""The numpy correlation kernels equal scipy.ndimage bit for bit.

``mollify_array`` (1-D and 2-D), the 2-D ``maximal_modified`` and the
Gaussian smoothing of ``Law.from_ensemble(bandwidth=...)`` and ``Law.smooth``
repeat ndimage's floating-point operations in ndimage's order. ndimage is
the oracle here, on the test side only: each oracle below is the ndimage
call the package made before it stopped importing scipy.ndimage.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from sdelab import (
    BrownianStore,
    Law,
    Mollifier,
    make_grid,
    maximal_modified,
    mollify_array,
    preset_field,
    simulate_ensemble,
)
from sdelab import laws
from sdelab.laws import _gaussian_filter
from sdelab.maxops import _ml_kernel_2d

EPS = np.finfo(float).eps


def _mollify_oracle(values, grid, delta):
    moll = Mollifier(delta)
    w = moll.taps_1d(grid.h[0]) if grid.d == 1 else moll.taps_radial(grid.h)
    halo = [(s - 1) // 2 for s in w.shape]
    padded = grid.pad(values.reshape(grid.shape + (-1,)), halo)
    if grid.d == 1:
        out = ndimage.correlate1d(padded, w, axis=0, mode="constant")
    else:
        out = ndimage.correlate(padded, w[..., None], mode="constant")
    inner = tuple(slice(k, k + n) for k, n in zip(halo, grid.shape))
    return out[inner].reshape(values.shape)


def _maximal_modified_oracle(g, grid, L):
    thr = np.sqrt(np.log(L))
    gt = np.where(g >= thr, g, 0.0)
    w = _ml_kernel_2d(grid, L)
    ki, kj = (w.shape[0] - 1) // 2, (w.shape[1] - 1) // 2
    integral = ndimage.correlate(grid.pad(gt, (ki, kj)), w, mode="constant")
    return thr + integral[ki:ki + grid.shape[0], kj:kj + grid.shape[1]]


def _gaussian_oracle(values, sigma, axis):
    return ndimage.gaussian_filter1d(values, sigma, axis=axis, mode="nearest")


@st.composite
def _grid(draw, d=None):
    d = draw(st.sampled_from([1, 2])) if d is None else d
    periodic = draw(st.booleans())
    lo = draw(st.floats(-5.0, 0.0))
    if d == 1:
        width = draw(st.floats(1.0, 12.0))
        return make_grid(1, (lo, lo + width), draw(st.integers(8, 200)),
                         periodic=periodic)
    widths = [draw(st.floats(1.0, 6.0)) for _ in range(2)]
    counts = [draw(st.integers(8, 48)) for _ in range(2)]
    return make_grid(2, tuple((lo, lo + w) for w in widths), counts,
                     periodic=periodic)


# -- mollify_array: symmetric 1-D and footprint 2-D correlation ---------------

@settings(max_examples=80, deadline=None)
@given(grid=_grid(), frac=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1),
       components=st.sampled_from(["scalar", "drift", "diffusion"]))
def test_mollify_equals_ndimage_bit_for_bit(grid, frac, seed, components):
    # delta from twice the cell width up to a quarter of the box
    lo = 2.0 * max(grid.h)
    hi = max(lo, min(u - l for l, u in zip(grid.lower, grid.upper)) / 4.0)
    delta = lo + frac * (hi - lo)
    trailing = {"scalar": (), "drift": (grid.d,),
                "diffusion": (grid.d, grid.d)}[components]
    values = np.random.default_rng(seed).normal(size=grid.shape + trailing)
    assert np.array_equal(mollify_array(values, grid, delta),
                          _mollify_oracle(values, grid, delta))


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("d", [1, 2])
def test_mollify_with_taps_below_dbl_epsilon(d, periodic):
    """Edge taps in (0, DBL_EPSILON]: the 1-D symmetric branch keeps them,
    the 2-D footprint drops them, as ndimage does."""
    n = 64
    grid = make_grid(1, (-2.0, 2.0), n, periodic=periodic) if d == 1 else \
        make_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), n, periodic=periodic)
    h = grid.h[0]
    # the tap at offset 6h sits where 1 / (1 - (s / delta)^2) = 50
    delta = 6 * h / np.sqrt(1.0 - 1.0 / 50.0)
    moll = Mollifier(delta)
    w = moll.taps_1d(h) if d == 1 else moll.taps_radial(grid.h)
    assert np.any((w > 0) & (w <= EPS))
    # a tiny tap hides in a sum of order one; an impulse shows it alone
    impulse = np.zeros(grid.shape + (d, d))
    impulse[(n // 2,) * d] = 1.0
    for values in (np.random.default_rng(d).normal(size=impulse.shape), impulse):
        assert np.array_equal(mollify_array(values, grid, delta),
                              _mollify_oracle(values, grid, delta))


# -- maximal_modified: the 2-D footprint correlation ---------------------------

@settings(max_examples=40, deadline=None)
@given(grid=_grid(d=2), seed=st.integers(0, 2 ** 32 - 1))
def test_maximal_modified_2d_equals_ndimage_bit_for_bit(grid, seed):
    L = float(np.exp(4.0))  # threshold sqrt(log L) = 2
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.0, 4.0, size=grid.shape) * (rng.random(grid.shape) < 0.7)
    assert np.array_equal(maximal_modified(g, grid, L),
                          _maximal_modified_oracle(g, grid, L))


# -- Gaussian smoothing: the symmetric correlation on an edge pad --------------

@settings(max_examples=80, deadline=None)
@given(shape=st.lists(st.integers(1, 24), min_size=2, max_size=3),
       log_sigma=st.floats(np.log(0.3), np.log(60.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_gaussian_filter_equals_ndimage_bit_for_bit(shape, log_sigma, seed):
    sigma = float(np.exp(log_sigma))
    values = np.random.default_rng(seed).random(shape)
    for axis in range(len(shape)):
        got = _gaussian_filter(values, sigma, axis)
        assert got.flags.c_contiguous
        assert np.array_equal(got, _gaussian_oracle(values, sigma, axis))


@pytest.mark.parametrize("d", [1, 2])
def test_law_smooth_equals_ndimage_bit_for_bit(d):
    grid = make_grid(1, (-3.0, 3.0), 96) if d == 1 else \
        make_grid(2, ((-2.0, 2.0), (-1.0, 3.0)), (40, 32))
    slices = np.random.default_rng(5).random((3,) + grid.shape)
    law = Law.from_slices(grid, [0.0, 0.5, 1.0], slices)
    for delta in (0.3 * max(grid.h), 0.25, 1.5):
        out = law.density
        for ax, h in enumerate(grid.h):
            out = _gaussian_oracle(out, delta / h, 1 + ax)
        assert np.array_equal(law.smooth(delta).density,
                              Law._normalize(grid, out))


def test_kernel_density_law_equals_ndimage_bit_for_bit(monkeypatch):
    grid = make_grid(1, (-4.0, 4.0), 128)
    store = BrownianStore.generate(11, 500, 128, 1.0 / 128)
    ens = simulate_ensemble(preset_field("ou", {}, grid), 0.5, 1.0, store,
                            record_every=16)
    for bandwidth in (0.5 * grid.h[0], 2.0 * grid.h[0], 1.0):
        got = Law.from_ensemble(ens, bandwidth=bandwidth).density
        with monkeypatch.context() as m:
            m.setattr(laws, "_gaussian_filter", _gaussian_oracle)
            want = Law.from_ensemble(ens, bandwidth=bandwidth).density
        assert np.array_equal(got, want)
