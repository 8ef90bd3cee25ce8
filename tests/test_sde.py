"""Shared-noise ensembles and the pairwise functionals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import (
    BrownianStore,
    cauchy_diagnostic,
    dyadic_block_averages,
    dyadic_eps_schedule,
    l_eps_functional,
    make_grid,
    mollify,
    plateau_bump,
    preset_field,
    q_functional,
    q_tilde_functional,
    simulate_ensemble,
    simulate_family,
    uniqueness_map,
)
from sdelab.sde import stability_cap


def test_store_generate_shapes_and_moments():
    store = BrownianStore.generate(11, 500, 128, 1.0 / 128.0)
    assert store.increments.shape == (500, 128, 1)
    assert store.validate().passed
    assert not store.increments.flags.writeable


def test_store_is_deterministic():
    a = BrownianStore.generate(3, 10, 16, 0.01)
    b = BrownianStore.generate(3, 10, 16, 0.01)
    assert np.array_equal(a.increments, b.increments)
    c = BrownianStore.generate(4, 10, 16, 0.01)
    assert not np.array_equal(a.increments, c.increments)


def test_store_coarsen_sums_increments():
    store = BrownianStore.generate(1, 5, 16, 0.25)
    coarse = store.coarsen(4)
    assert coarse.dt == 1.0
    assert coarse.n_steps == 4
    manual = store.increments.reshape(5, 4, 4, 1).sum(axis=2)
    assert np.allclose(coarse.increments, manual)
    with pytest.raises(ValueError):
        store.coarsen(3)


def test_store_validation_rejects_bad_dims():
    with pytest.raises(ValueError):
        BrownianStore.generate(0, 0, 10, 0.1)
    with pytest.raises(ValueError):
        BrownianStore.generate(0, 10, 10, -0.1)


def test_simulate_ou_moments(grid1d, ou_field):
    """E X_t = x0 e^{-t}, Var X_t = 1 - e^{-2t} for the linear preset."""
    store = BrownianStore.generate(21, 20000, 256, 1.0 / 256.0)
    ens = simulate_ensemble(ou_field, 1.0, 1.0, store, record_every=64)
    xT = ens.paths[:, -1, 0]
    assert xT.mean() == pytest.approx(np.exp(-1.0), abs=0.01)
    assert xT.var() == pytest.approx(1.0 - np.exp(-2.0), rel=0.05)
    assert ens.exit_fraction < 1e-4


def test_simulate_is_deterministic(ou_field):
    store = BrownianStore.generate(9, 50, 128, 1.0 / 128.0)
    a = simulate_ensemble(ou_field, 0.0, 1.0, store)
    b = simulate_ensemble(ou_field, 0.0, 1.0, store)
    assert np.array_equal(a.paths, b.paths)


def test_simulate_rejects_step_cap_violation(ou_field):
    store = BrownianStore.generate(9, 10, 4, 0.25)
    with pytest.raises(ValueError):
        simulate_ensemble(ou_field, 0.0, 1.0, store)
    assert stability_cap(ou_field) < 0.25


def test_simulate_rejects_horizon_mismatch(ou_field):
    store = BrownianStore.generate(9, 10, 128, 1.0 / 128.0)
    with pytest.raises(ValueError):
        simulate_ensemble(ou_field, 0.0, 1.3e-3, store)
    with pytest.raises(ValueError):
        simulate_ensemble(ou_field, 0.0, 2.0, store)


def test_coarsened_store_keeps_the_coupling(grid1d):
    """With constant coefficients the coarse-step solution at shared stamps
    equals the fine-step one, because the increments telescope."""
    field = preset_field("heat", {}, grid1d)
    store = BrownianStore.generate(13, 200, 64, 1.0 / 64.0)
    fine = simulate_ensemble(field, 0.0, 1.0, store, record_every=16)
    # the coarse step is above the generic cap, but Euler is exact for
    # constant coefficients, so the cap check is waived deliberately
    coarse = simulate_ensemble(field, 0.0, 1.0, store.coarsen(16),
                               record_every=1, check_cap=False)
    assert np.allclose(fine.paths[:, 1:], coarse.paths[:, 1:], atol=1e-12)


def _coupled_pair(seed=31, n=400):
    grid = make_grid(1, (-4.0, 4.0), 2048)
    base = preset_field("kink_drift", {"beta": 1.0}, grid)
    fa, fb = mollify(base, 0.25), mollify(base, 0.0625)
    store = BrownianStore.generate(seed, n, 256, 1.0 / 256.0)
    ea = simulate_ensemble(fa, 0.5, 1.0, store, record_every=8)
    eb = simulate_ensemble(fb, 0.5, 1.0, store, record_every=8)
    return ea, eb, base


def test_q_functional_monotone_in_eps():
    ea, eb, _ = _coupled_pair()
    q1 = q_functional(ea, eb, 1e-1)
    q2 = q_functional(ea, eb, 1e-2)
    assert np.all(q2.values >= q1.values - 1e-12)
    assert np.all(q1.values >= 0)
    assert q1.values[0] == 0.0
    with pytest.raises(ValueError):
        q_functional(ea, eb, 0.0)


def test_q_functional_requires_shared_noise(grid1d, ou_field):
    s1 = BrownianStore.generate(1, 50, 128, 1.0 / 128.0)
    s2 = BrownianStore.generate(2, 50, 128, 1.0 / 128.0)
    e1 = simulate_ensemble(ou_field, 0.0, 1.0, s1)
    e2 = simulate_ensemble(ou_field, 0.0, 1.0, s2)
    with pytest.raises(ValueError):
        q_functional(e1, e2, 0.1)


def test_q_tilde_weight_dampens_q():
    """exp(-U) <= 1, so the weighted functional sits below |Delta| Q."""
    ea, eb, base = _coupled_pair()
    from sdelab import gradient_magnitude, maximal

    h_tilde = maximal(gradient_magnitude(base.drift, base.grid), base.grid)
    eps = 1e-2
    qt = q_tilde_functional(ea, eb, eps, h_tilde)
    delta = np.abs(ea.paths[..., 0] - eb.paths[..., 0])
    raw = (delta * np.log1p((delta / eps) ** 2)).mean(axis=0)
    assert np.all(qt.values <= raw + 1e-12)
    assert np.all(qt.values >= 0)


@settings(max_examples=50, deadline=None)
@given(x=st.floats(-10, 10), eps=st.floats(1e-4, 1.0))
def test_plateau_bump_range_and_cutoffs(x, eps):
    v = float(plateau_bump(x, eps))
    assert 0.0 <= v <= 1.0
    if abs(x) <= eps / 2:
        assert v == 0.0
    if abs(x) >= eps:
        assert v == 1.0


def test_l_eps_dominates_exceedance_probability():
    """E L_eps >= P(|Delta| > eps) holds exactly, sample by sample."""
    ea, eb, _ = _coupled_pair()
    delta = np.abs(ea.paths[..., 0] - eb.paths[..., 0])
    for eps in (0.5, 0.1, 0.02):
        fs = l_eps_functional(ea, eb, eps)
        exceed = (delta > eps).mean(axis=0)
        assert np.all(fs.values >= exceed - 1e-12)
        assert np.all(fs.values <= 1.0 + 1e-12)


def test_dyadic_eps_schedule_shape():
    sched = dyadic_eps_schedule(1e-8, 0.5)
    for a, b in sched:
        assert a == pytest.approx(b * b)
    bs = [b for _, b in sched]
    assert all(x > y for x, y in zip(bs, bs[1:]))
    assert sched[0][1] == 0.5
    with pytest.raises(ValueError):
        dyadic_eps_schedule(0.5, 0.1)


def test_cauchy_diagnostic_needs_two_paths(ou_field):
    """One path has no standard error: a ValueError, not a NaN report."""
    store = BrownianStore.generate(9, 1, 16, 1.0 / 128.0)
    family = simulate_family([ou_field] * 4, 0.5, 16 / 128, store)
    with pytest.raises(ValueError, match="at least 2 paths"):
        cauchy_diagnostic(family)


@pytest.mark.parametrize("functional", [
    q_functional,
    l_eps_functional,
    lambda ea, eb, eps: q_tilde_functional(ea, eb, eps,
                                           np.ones(ea.grid.shape)),
], ids=["q", "l_eps", "q_tilde"])
def test_pairwise_functionals_need_two_paths(ou_field, functional):
    """One path has no standard error: a ValueError, not a NaN series."""
    store = BrownianStore.generate(9, 1, 16, 1.0 / 128.0)
    ea, eb = simulate_family([ou_field] * 2, 0.5, 16 / 128, store)
    with pytest.raises(ValueError, match="at least 2 paths"):
        functional(ea, eb, 0.1)


def test_dyadic_block_averages_report():
    ea, eb, _ = _coupled_pair()
    rep = dyadic_block_averages(ea, eb, dyadic_eps_schedule(1e-10, 0.5))
    blocks = rep.details["block_averages"]
    assert np.all(np.asarray(blocks) >= 0)
    assert rep.details["longest_nonincreasing_run"] >= 0


def test_uniqueness_map_store_size_guard(grid1d, ou_field):
    store = BrownianStore.generate(1, 10, 64, 1.0 / 64.0)
    with pytest.raises(ValueError):
        uniqueness_map(np.linspace(-1, 1, 8), ou_field, ou_field,
                       [0.1], 1.0, 10, store)
