"""Coupling identity: a Brownian store carries its lineage (seed, finest dt,
steps per path as generated, r), ``coarsen`` and ``prefix`` keep it, and the
pairwise functionals accept two ensembles only when their stores share it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import (
    BrownianStore,
    make_grid,
    preset_field,
    q_functional,
    simulate_ensemble,
)


def _ensemble(store, T=0.5):
    grid = make_grid(1, (-4.0, 4.0), 256)
    field = preset_field("heat", {}, grid)
    every = int(round(0.125 / store.dt))
    return simulate_ensemble(field, 0.0, T, store, record_every=every,
                             check_cap=False)


@pytest.mark.parametrize("other", [
    BrownianStore.generate(3, 100, 32, 1 / 32),   # same seed, unrelated dt
    BrownianStore.generate(3, 100, 32, 1 / 64),   # same seed and dt, fewer steps
    BrownianStore.generate(4, 100, 64, 1 / 64),   # another seed
])
def test_q_functional_rejects_stores_of_another_lineage(other):
    store = BrownianStore.generate(3, 100, 64, 1 / 64)
    assert not store.same_noise_as(other)
    with pytest.raises(ValueError, match="same Brownian store"):
        q_functional(_ensemble(store), _ensemble(other), 0.1)


def test_q_functional_accepts_a_coarsened_prefix():
    store = BrownianStore.generate(3, 100, 64, 1 / 64)
    sub = store.prefix(100).coarsen(4)
    q = q_functional(_ensemble(store), _ensemble(sub), 0.1)
    assert np.all(q.values < 1e-20)  # constant coefficients: same paths


def test_prefix_is_a_coupled_view():
    store = BrownianStore.generate(5, 12, 8, 0.125, r=2)
    head = store.prefix(5)
    assert head.n_paths == 5 and head.same_noise_as(store)
    assert np.shares_memory(head.increments, store.increments)
    assert np.array_equal(head.increments, store.increments[:5])
    # a prefix is what generating fewer paths draws
    assert np.array_equal(head.increments,
                          BrownianStore.generate(5, 5, 8, 0.125, r=2).increments)
    for n in (0, 13):
        with pytest.raises(ValueError, match="store must hold"):
            store.prefix(n)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 31), n=st.integers(1, 12),
       log_steps=st.integers(0, 5), r=st.integers(1, 2), data=st.data())
def test_prefix_and_coarsen_commute(seed, n, log_steps, r, data):
    """prefix(m).coarsen(f) equals coarsen(f).prefix(m) bit for bit, and the
    store, both orders and every partial step share one lineage."""
    steps = 2 ** log_steps
    store = BrownianStore.generate(seed, n, steps, 1.0 / steps, r)
    m = data.draw(st.integers(1, n))
    f = 2 ** data.draw(st.integers(0, log_steps))
    a = store.prefix(m).coarsen(f)
    b = store.coarsen(f).prefix(m)
    assert np.array_equal(a.increments, b.increments)
    assert a.dt == b.dt == store.dt * f
    for s in (a, b, store.prefix(m), store.coarsen(f)):
        assert s.same_noise_as(store) and store.same_noise_as(s)
        assert s.lineage == (seed, store.dt, steps, r)
    # any other generation is another lineage
    assert not a.same_noise_as(BrownianStore.generate(seed + 1, n, steps,
                                                      1.0 / steps, r))
    assert not a.same_noise_as(BrownianStore.generate(seed, n, 2 * steps,
                                                      0.5 / steps, r))
    assert not a.same_noise_as(BrownianStore.generate(seed, n, steps,
                                                      1.0 / steps, 3 - r))
