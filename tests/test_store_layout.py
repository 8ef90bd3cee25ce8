"""The step-major Brownian store and the one-law-at-a-time Cauchy matrix:
a generated store equals the one Philox draw bit for bit, its per-step
increments are contiguous rows, its reductions keep the path-major order,
and ``cauchy_diagnostic`` keeps at most a few laws' bytes alive."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import (
    BrownianStore,
    cauchy_diagnostic,
    make_grid,
    mollify,
    preset_field,
    simulate_family,
)


def _philox(seed, n, s, r, dt):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return rng.standard_normal((n, s, r)) * np.sqrt(dt)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, 0.0, -0.1])
def test_generate_rejects_a_dt_that_is_not_positive_and_finite(dt):
    with pytest.raises(ValueError, match="dt"):
        BrownianStore.generate(0, 4, 4, dt)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 63 - 1), r=st.integers(1, 3),
       s=st.integers(1, 300),
       n=st.one_of(st.just(1), st.integers(2, 40), st.integers(150, 700)),
       dt=st.floats(1e-6, 4.0))
def test_generate_equals_one_philox_draw(seed, n, s, r, dt):
    """Path counts of 1, below one draw block and across several blocks
    (of laws.PATH_BLOCK // (s r) paths, so rarely a multiple of it)."""
    store = BrownianStore.generate(seed, n, s, dt, r)
    assert store.increments.shape == (n, s, r)
    assert np.array_equal(store.increments, _philox(seed, n, s, r, dt))
    assert not store.increments.flags.writeable
    for k in (0, s // 2, s - 1):
        assert store.increments[:, k, :].T.flags.c_contiguous


@pytest.mark.parametrize("r", [1, 2])
def test_validate_and_coarsen_keep_the_path_major_order(r):
    store = BrownianStore.generate(8, 301, 64, 1.0 / 64.0, r)
    flat = np.ascontiguousarray(store.increments).reshape(-1)
    report = store.validate()
    assert report.details["mean"] == float(flat.mean())
    assert report.details["var"] == float(flat.var(ddof=1))
    path_major = BrownianStore(8, 1.0 / 64.0,
                               np.ascontiguousarray(store.increments))
    for factor in (2, 16, 64):
        assert np.array_equal(store.coarsen(factor).increments,
                              path_major.coarsen(factor).increments)
    prefix = store.prefix(100).increments
    assert np.shares_memory(prefix, store.increments)
    assert np.array_equal(prefix, store.increments[:100])


def test_a_caller_built_store_walks_like_a_generated_one():
    grid = make_grid(1, (-4.0, 4.0), 256)
    field = preset_field("kink_drift", {"beta": 1.0}, grid)
    store = BrownianStore.generate(4, 500, 64, 1.0 / 64.0)
    copy = BrownianStore(4, 1.0 / 64.0, np.ascontiguousarray(store.increments))
    a, = simulate_family([field], 0.5, 1.0, store, record_every=3)
    b, = simulate_family([field], 0.5, 1.0, copy, record_every=3)
    assert np.array_equal(a.paths, b.paths)
    assert a.exit_fraction == b.exit_fraction


# tracemalloc peak of cauchy_diagnostic at this shape, in laws of one member
# (nt x nodes float64): 7.6 with all five laws alive, 2.7 with one at a time
CAUCHY_PEAK_LAWS = 4.0


def test_cauchy_diagnostic_keeps_one_law_alive():
    """The shape of the benchmark's coupled family: six mollified members
    on 8 192 cells, 1 000 paths x 256 steps recorded every 8."""
    grid = make_grid(1, (-4.0, 4.0), 8192)
    base = preset_field("sqrt_diffusion", {"kappa": 0.0}, grid)
    fields = [mollify(base, 2.0 ** -k) for k in range(4, 10)]
    store = BrownianStore.generate(0, 1000, 256, 1.0 / 256.0)
    ens = simulate_family(fields, 0.0, 1.0, store, record_every=8)
    law_bytes = ens[0].times.size * grid.shape[0] * 8
    tracemalloc.start()
    try:
        report = cauchy_diagnostic(ens, p=2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.details["eta_matrix"][0, 1] > 0
    assert peak < CAUCHY_PEAK_LAWS * law_bytes
