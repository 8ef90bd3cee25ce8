"""Path-block walks: the blocked histogram and per-path quadrature equal a
one-block run bit for bit, the two-thread Euler walk equals the serial
loop, and the blocked reductions keep their temporaries small."""

import hashlib
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import (
    BrownianStore,
    Law,
    h1_norm,
    make_grid,
    mollify,
    preset_field,
    simulate_ensemble,
    simulate_family,
)
from sdelab import laws, sde
from sdelab.sde import _interpolate, path_time_integrals

ONE_BLOCK = 2 ** 62


def _blocks(positions):
    return mock.patch.object(laws, "PATH_BLOCK", positions)


@st.composite
def _ensembles(draw):
    """A random ensemble whose path count sits on, one below or one above a
    block edge of a drawn block size, with NaN positions and positions
    outside the box; returns (ensemble, block positions)."""
    d = draw(st.sampled_from([1, 2]))
    cells = draw(st.integers(8, 12))
    nt = draw(st.integers(1, 5))
    bins = nt * cells ** d
    positions = bins * draw(st.integers(1, 3)) + draw(st.integers(0, nt))
    per_block = positions // nt
    n = max(2, draw(st.integers(1, 4)) * per_block + draw(st.integers(-1, 1)))
    grid = make_grid(d, (-1.0, 1.5) if d == 1 else ((-1.0, 1.5), (-2.0, 0.5)),
                     cells)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    paths = rng.uniform(-2.5, 2.5, (n, nt, d))
    paths[1:][rng.random((n - 1, nt)) < 0.05, 0] = np.nan  # path 0 counts
    ens = SimpleNamespace(grid=grid, times=np.arange(nt, dtype=float),
                          paths=paths)
    return ens, positions


@settings(max_examples=60, deadline=None)
@given(case=_ensembles())
def test_blocked_histogram_equals_one_block(case):
    ens, positions = case
    with _blocks(positions):
        blocked = Law.from_ensemble(ens)
    with _blocks(ONE_BLOCK):
        whole = Law.from_ensemble(ens)
    assert np.array_equal(blocked.density, whole.density)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 300), nt=st.integers(2, 12),
       positions=st.integers(1, 200), mask=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_path_integrals_equal_one_block(n, nt, positions, mask, seed):
    """Per-path trapezoids over a stamp mask or an index array equal the
    one-block walk and the direct interpolate-then-trapezoid formula."""
    rng = np.random.default_rng(seed)
    grid = make_grid(1, (-1.0, 1.0), 17)
    values = rng.standard_normal(grid.shape)
    paths = rng.uniform(-1.5, 1.5, (n, nt, 1))
    times = np.cumsum(rng.uniform(0.1, 1.0, nt))
    stamps = rng.random(nt) < 0.7 if mask else \
        np.sort(rng.choice(nt, rng.integers(1, nt + 1), replace=False))
    t = times[stamps]
    with _blocks(positions):
        blocked = path_time_integrals(paths, grid, values, t, stamps)
    with _blocks(ONE_BLOCK):
        whole = path_time_integrals(paths, grid, values, t, stamps)
    direct = np.trapezoid(_interpolate(values, grid,
                                       paths[:, stamps, 0][..., None]),
                          t, axis=1)
    assert np.array_equal(blocked, whole)
    assert np.array_equal(blocked, direct)


def test_blocked_pathwise_h1_equals_one_block():
    grid = make_grid(1, (-6.0, 6.0), 256)
    field = preset_field("ou", {}, grid)
    store = BrownianStore.generate(5, 3000, 256, 1.0 / 256.0)
    ens = simulate_ensemble(field, 1.0, 1.0, store, record_every=4)
    law = Law.from_ensemble(ens)
    with _blocks(1000):
        blocked = h1_norm(field.drift, law, 0.75, method="pathwise",
                          ensemble=ens)
    with _blocks(ONE_BLOCK):
        whole = h1_norm(field.drift, law, 0.75, method="pathwise",
                        ensemble=ens)
    assert (blocked.value, blocked.mc_stderr) == (whole.value, whole.mc_stderr)


def _family_case(n_paths, increments=None):
    grid = make_grid(1, (-4.0, 4.0), 256)
    base = preset_field("kink_drift", {"beta": 1.0}, grid)
    fields = [mollify(base, 0.25), mollify(base, 0.125)]
    store = BrownianStore.generate(17, n_paths, 8, 1.0 / 64.0)
    if increments is not None:
        store = BrownianStore(17, 1.0 / 64.0, increments(store.increments))
    x0 = np.linspace(-4.5, 4.5, n_paths)  # some start outside the box
    return fields, x0, store


def _digest(ensembles):
    h = hashlib.sha256()
    for e in ensembles:
        h.update(np.ascontiguousarray(e.paths).tobytes())
        h.update(e.times.tobytes())
        h.update(repr(e.exit_fraction).encode())
    return h.hexdigest()


def test_pool_walk_equals_serial_loop():
    """65 536 paths x 8 steps, K = 2: the two-half walk on the pool gives the
    serial loop's paths, stamps and exit fractions."""
    fields, x0, store = _family_case(65536)
    assert store.n_paths >= sde.POOL_PATHS
    with mock.patch.object(sde._POOL, "submit",
                           wraps=sde._POOL.submit) as submit:
        pooled = simulate_family(fields, x0, 1.0 / 8.0, store, record_every=3)
    assert submit.call_count == 2
    with mock.patch.object(sde, "POOL_PATHS", ONE_BLOCK):
        serial = simulate_family(fields, x0, 1.0 / 8.0, store, record_every=3)
    assert pooled[0].exit_fraction > 0
    assert _digest(pooled) == _digest(serial)


def _poisoned(cells):
    def poison(inc):
        inc = inc.copy()
        for path, step in cells:
            inc[path, step] = np.inf
        return inc
    return poison


@pytest.mark.parametrize("cells", [
    [(40000, 3)],                 # second half only
    [(100, 5), (50000, 3)],       # second half first
    [(60000, 2), (10, 2)],        # both halves on one step: lowest path
    [(30000, 1), (65000, 6)],     # first half first
])
def test_pool_walk_reports_the_serial_failure(cells):
    fields, x0, store = _family_case(65536, _poisoned(cells))
    with pytest.raises(FloatingPointError) as pooled:
        simulate_family(fields, x0, 1.0 / 8.0, store)
    with mock.patch.object(sde, "POOL_PATHS", ONE_BLOCK), \
            pytest.raises(FloatingPointError) as serial:
        simulate_family(fields, x0, 1.0 / 8.0, store)
    assert str(pooled.value) == str(serial.value)
    step, path = min((s + 1, p) for p, s in cells)
    assert str(serial.value) == \
        f"non-finite path value at step {step} (path {path})"


# tracemalloc peak of the traced block below at the commit before the block
# walks (one full-size temporary per operation): 70.0 MiB
UNBLOCKED_PEAK_MIB = 70.0


def test_blocked_reductions_keep_temporaries_small():
    grid = make_grid(1, (-6.0, 6.0), 1024)
    field = preset_field("ou", {}, grid)
    store = BrownianStore.generate(11, 20000, 256, 1.0 / 256.0)
    ens = simulate_ensemble(field, 1.0, 1.0, store, record_every=4)
    assert ens.paths.shape == (20000, 65, 1)
    tracemalloc.start()
    try:
        law = Law.from_ensemble(ens)
        h1_norm(field.drift, law, T=1.0, method="pathwise", ensemble=ens)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak < UNBLOCKED_PEAK_MIB / 4
