"""The Euler walk's per-step check: two reductions (the per-axis extremes)
stand in for the per-path masks, and the masks run only when an extreme is
non-finite or beyond a wall. It still stops at the first non-finite value
and names its step and path, and its exit counts equal a brute-force count
over every step."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import (
    BrownianStore,
    CoefficientField,
    make_grid,
    mollify,
    preset_field,
    simulate_family,
)
from sdelab import sde

SERIAL = 2 ** 62  # a POOL_PATHS no store reaches


def _poisoned(store, cells, value, component=0):
    """A copy of the store (same memory layout) with ``value`` at each
    (path, step) of ``cells`` in one noise component."""
    inc = np.copy(store.increments, order="K")
    for path, step in cells:
        inc[path, step, component] = value
    return BrownianStore(store.seed, store.dt, inc)


def _failures(fields, x0, T, store):
    """The FloatingPointError messages of the pooled and the serial walk."""
    with pytest.raises(FloatingPointError) as pooled:
        simulate_family(fields, x0, T, store)
    with mock.patch.object(sde, "POOL_PATHS", SERIAL), \
            pytest.raises(FloatingPointError) as serial:
        simulate_family(fields, x0, T, store)
    return str(pooled.value), str(serial.value)


@pytest.mark.parametrize("value", [np.nan, -np.inf])
@pytest.mark.parametrize("cells", [
    [(40000, 3)],                 # second half only
    [(100, 5), (50000, 3)],       # second half first
    [(60000, 2), (10, 2)],        # both halves on one step: lowest path
])
def test_walk_stops_at_the_first_nan_or_negative_infinity(cells, value):
    grid = make_grid(1, (-4.0, 4.0), 256)
    base = preset_field("kink_drift", {"beta": 1.0}, grid)
    fields = [mollify(base, 0.25), mollify(base, 0.125)]
    store = _poisoned(BrownianStore.generate(17, 65536, 8, 1.0 / 64.0),
                      cells, value)
    x0 = np.linspace(-4.5, 4.5, store.n_paths)
    pooled, serial = _failures(fields, x0, 1.0 / 8.0, store)
    step, path = min((s + 1, p) for p, s in cells)
    assert pooled == serial == \
        f"non-finite path value at step {step} (path {path})"


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("value", [1.5e308, -1.5e308])
def test_walk_sees_axis_one_alone_go_non_finite(value):
    """2-D OU, r = 2, identity diffusion times sqrt(2): a finite increment of
    1.5e308 in component 1 overflows axis 1 only (axis 0 adds 0 x 1.5e308)."""
    grid = make_grid(2, ((-2.0, 2.0), (-3.0, 3.0)), 32)
    field = preset_field("ou", {}, grid)
    assert field.r == 2
    store = BrownianStore.generate(5, 65536, 8, 1.0 / 128.0, 2)
    cells = [(50000, 4), (70, 6)]
    pooled, serial = _failures([field], (0.5, -0.5), 1.0 / 16.0,
                               _poisoned(store, cells, value, component=1))
    assert pooled == serial == "non-finite path value at step 5 (path 50000)"


@st.composite
def _walks(draw):
    """A random family on a 1-D or 2-D grid with mixed periodic axes, its
    drift zero on each lower face, and a store whose zero-increment paths
    stay where they start: inside, beyond either end or on grid.lower."""
    d = draw(st.sampled_from([1, 2]))
    periodic = tuple(draw(st.booleans()) for _ in range(d))
    counts = tuple(draw(st.integers(8, 12)) for _ in range(d))
    bounds = [(-1.0, 1.0), (-0.5, 2.0)][:d]
    grid = make_grid(d, bounds if d == 2 else bounds[0], counts, periodic)
    r = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    fields = []
    for _ in range(draw(st.integers(1, 3))):
        drift = rng.uniform(-3.0, 3.0, grid.shape + (d,))
        for a in range(d):
            np.moveaxis(drift, a, 0)[0, ..., a] = 0.0
        fields.append(CoefficientField(
            grid, drift, rng.uniform(-1.5, 1.5, grid.shape + (d, r))))
    n, steps = draw(st.integers(2, 40)), draw(st.integers(1, 12))
    dt = 1.0 / 32.0
    inc = rng.standard_normal((n, steps, r)) * np.sqrt(dt)
    inc[rng.random(n) < 0.3] = 0.0
    lower, upper = np.array(grid.lower), np.array(grid.upper)
    x0 = rng.uniform(lower - 0.3, upper + 0.3, (n, d))
    on_wall = rng.random((n, d)) < 0.3
    x0[on_wall] = np.broadcast_to(lower, (n, d))[on_wall]
    return fields, x0, steps * dt, BrownianStore(1, dt, inc)


@settings(max_examples=60, deadline=None)
@given(case=_walks())
def test_exit_fraction_equals_a_brute_force_count(case):
    fields, x0, T, store = case
    grid = fields[0].grid
    walls = [a for a in range(grid.d) if not grid.periodic[a]]
    family = simulate_family(fields, x0, T, store, check_cap=False)
    n_steps = family[0].times.size - 1
    for ens in family:
        x = ens.paths[:, 1:]
        beyond = np.zeros(x.shape[:2], dtype=bool)
        for a in walls:
            beyond |= (x[..., a] < grid.lower[a]) | (x[..., a] > grid.upper[a])
        assert ens.exit_fraction == int(beyond.sum()) / (store.n_paths * n_steps)
