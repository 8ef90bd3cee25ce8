"""One Monte Carlo estimator: ``sde._estimate`` is the mean over paths and
its standard error for Q, Q~, L_eps, the Cauchy matrix and the pathwise
norms, bit for bit the three reductions it replaces. The pair gate
``sde._coupled`` and the eta distance reject what they cannot read: two
path counts, two grids, and a pathwise norm of one path or of an ensemble
on another grid than its law's."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import (
    BrownianStore,
    CoefficientField,
    Law,
    cauchy_diagnostic,
    coefficient_distance,
    h1_norm,
    l_eps_functional,
    make_grid,
    plateau_bump,
    preset_field,
    q_functional,
    simulate_ensemble,
    simulate_family,
)
from sdelab.sde import _estimate

LINE = make_grid(1, (-4.0, 4.0), 64)


def _scaled(field, c):
    """``field`` with its drift times c."""
    return CoefficientField(field.grid, c * field.drift, field.diffusion)


# test-side copies of the three reductions that ``_estimate`` replaces


def _old_series(x):  # the pairwise functionals' series
    return x.mean(axis=0), x.std(axis=0, ddof=1) / np.sqrt(x.shape[0])


def _old_cauchy(x):  # one entry of the Cauchy matrix
    return x.mean(), x.std(ddof=1) / np.sqrt(x.size)


def _old_pathwise(x):  # the pathwise norms' time integral
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(x.size))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 3000),
       nt=st.one_of(st.none(), st.integers(1, 40)),
       magnitude=st.floats(-6.0, 6.0))
def test_estimate_is_the_old_reductions_bit_for_bit(seed, n, nt, magnitude):
    rng = np.random.default_rng(seed)
    shape = (n,) if nt is None else (n, nt)
    x = rng.lognormal(size=shape) * 10.0 ** magnitude
    mean, stderr = _estimate(x)
    olds = [_old_series] + ([_old_cauchy, _old_pathwise] if nt is None else [])
    for old in olds:
        old_mean, old_stderr = old(x)
        assert _same_bits(mean, old_mean)
        assert _same_bits(stderr, old_stderr)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(2, 40),
       c=st.floats(0.0, 2.0), eps=st.floats(1e-3, 1.0),
       record_every=st.sampled_from([1, 2, 4]))
def test_q_and_l_eps_stderr_is_the_sample_stderr(seed, n, c, eps,
                                                 record_every):
    ou = preset_field("ou", {}, LINE)
    store = BrownianStore.generate(seed, n, 8, 1.0 / 128)
    a, b = simulate_family([ou, _scaled(ou, c)], 0.5, 1.0 / 16, store,
                           record_every)
    delta = np.linalg.norm(a.paths - b.paths, axis=-1)
    for fs, x in ((q_functional(a, b, eps), np.log1p((delta / eps) ** 2)),
                  (l_eps_functional(a, b, eps), plateau_bump(delta, eps))):
        assert _same_bits(fs.values, x.mean(axis=0))
        assert _same_bits(fs.stderr, x.std(axis=0, ddof=1) / np.sqrt(n))


def test_a_one_path_pathwise_h1_raises():
    ou = preset_field("ou", {}, LINE)
    ens = simulate_ensemble(ou, 0.0, 0.1, BrownianStore.generate(7, 1, 10, 0.01))
    with pytest.raises(ValueError,
                       match="need at least 2 paths for a standard error"):
        h1_norm(np.ones(LINE.shape), Law.gaussian(LINE, [0.0]), 0.1,
                method="pathwise", ensemble=ens)


def test_a_pair_of_two_path_counts_names_both():
    ou = preset_field("ou", {}, LINE)
    store = BrownianStore.generate(7, 8, 10, 0.01)
    a = simulate_ensemble(ou, 0.0, 0.1, store)
    b = simulate_ensemble(_scaled(ou, 0.5), 0.0, 0.1, store.prefix(4))
    for pair in ((a, b), (b, a)):
        with pytest.raises(ValueError, match=r"same number of paths \((8 and "
                                             r"4|4 and 8)\)"):
            q_functional(*pair, 0.1)


def test_eta_across_grids_raises():
    """Three members on [-4, 4] and one on [-6, 6] with as many cells: the
    eta column of the odd member read node by node would mix two grids."""
    store = BrownianStore.generate(3, 50, 128, 1.0 / 128)
    members = [_scaled(preset_field("ou", {}, make_grid(1, b, 2048)), c)
               for b, c in (((-4.0, 4.0), 1.0), ((-4.0, 4.0), 0.9),
                            ((-4.0, 4.0), 0.8), ((-6.0, 6.0), 0.7))]
    ensembles = [simulate_ensemble(f, 0.0, 1.0, store, 4) for f in members]
    with pytest.raises(ValueError,
                       match="the fields and the law must share one grid"):
        cauchy_diagnostic(ensembles)


def test_a_cauchy_family_across_grids_builds_no_law(monkeypatch):
    """Three members on [-4, 4] and one on [-6, 6]: the family is rejected
    before the law of its first member is built."""
    built = []
    real = Law.from_ensemble
    monkeypatch.setattr(Law, "from_ensemble",
                        lambda ens: built.append(ens) or real(ens))
    store = BrownianStore.generate(3, 20, 64, 1.0 / 128)
    members = [_scaled(preset_field("ou", {}, make_grid(1, b, 64)), c)
               for b, c in (((-4.0, 4.0), 1.0), ((-4.0, 4.0), 0.9),
                            ((-4.0, 4.0), 0.8), ((-6.0, 6.0), 0.7))]
    ensembles = [simulate_ensemble(f, 0.0, 0.5, store) for f in members]
    with pytest.raises(ValueError,
                       match="the fields and the law must share one grid"):
        cauchy_diagnostic(ensembles)
    assert built == []


def test_a_pathwise_norm_on_another_grid_raises():
    """The weight lives on the law's grid and is read along the paths on
    the ensemble's: another box of as many cells gave a wrong value, and
    another cell count a numpy reshape error."""
    store = BrownianStore.generate(5, 50, 128, 1.0 / 128)
    ou = preset_field("ou", {}, make_grid(1, (-6.0, 6.0), 1024))
    law = Law.from_ensemble(simulate_ensemble(ou, 0.0, 1.0, store))
    for grid in (make_grid(1, (-4.0, 4.0), 1024),
                 make_grid(1, (-6.0, 6.0), 512)):
        ens = simulate_ensemble(preset_field("ou", {}, grid), 0.0, 1.0, store)
        with pytest.raises(ValueError,
                           match="the ensemble and the law must share one grid"):
            h1_norm(ou.drift, law, 1.0, method="pathwise", ensemble=ens)


def test_eta_across_node_counts_raises():
    ou = preset_field("ou", {}, LINE)
    fine = preset_field("ou", {}, make_grid(1, (-4.0, 4.0), 128))
    with pytest.raises(ValueError,
                       match="the fields and the law must share one grid"):
        coefficient_distance(ou, fine, Law.gaussian(LINE, [0.0]), 1.0)
    with pytest.raises(ValueError,
                       match="the fields and the law must share one grid"):
        coefficient_distance(fine, fine, Law.gaussian(LINE, [0.0]), 1.0)
