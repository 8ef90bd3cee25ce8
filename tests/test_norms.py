"""Weighted norms: closed forms, scaling laws and the probe reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import (
    Law,
    h1_norm,
    h_half_norm,
    holder_domination_check,
    make_grid,
    semicontinuity_probe,
    w11_norm,
    wphi_weak_norm,
)
from sdelab.norms import _l_grid, _phi_weight

GRID = make_grid(1, (-6.0, 6.0), 1024)
LAW = Law.gaussian(GRID, [0.0], mean=0.0, std=1.0)
PGRID = make_grid(1, (-4.0, 4.0), 512, periodic=True)
PLAW = Law.gaussian(PGRID, [0.0], mean=0.0, std=1.0)


def test_h1_norm_of_zero_field():
    nv = h1_norm(np.zeros(GRID.shape), LAW, T=1.0)
    assert nv.value == 0.0
    assert nv.kind == "H1"


def test_h1_norm_closed_form_constant():
    """For f == c the gradient part vanishes: H1 = |c| sqrt(T)."""
    nv = h1_norm(np.full(GRID.shape, 3.0), LAW, T=4.0)
    assert nv.value == pytest.approx(3.0 * 2.0, rel=1e-12)


def test_h1_norm_linear_field():
    """f = x under N(0,1): |f|^2 integrates to 1, M|f'| == 1, so H1 = sqrt(2T)."""
    x = GRID.nodes(0)
    nv = h1_norm(x, LAW, T=1.0)
    assert nv.value == pytest.approx(np.sqrt(2.0), rel=1e-3)


@settings(max_examples=15, deadline=None)
@given(c=st.floats(0.1, 20.0))
def test_h1_norm_absolutely_homogeneous(c):
    x = GRID.nodes(0)
    f = np.sin(x)
    base = h1_norm(f, LAW, T=1.0).value
    scaled = h1_norm(c * f, LAW, T=1.0).value
    assert scaled == pytest.approx(c * base, rel=1e-10)


def test_h1_norm_triangle_inequality(rng):
    f = rng.standard_normal(GRID.shape)
    g = rng.standard_normal(GRID.shape)
    nf = h1_norm(f, LAW, T=1.0).value
    ng = h1_norm(g, LAW, T=1.0).value
    nfg = h1_norm(f + g, LAW, T=1.0).value
    # the maximal part is sublinear, not additive, so this is an inequality
    # with genuine slack rather than an identity
    assert nfg <= nf + ng + 1e-10 * (nf + ng)


def test_w11_norm_constant_drift_vanishes():
    nv = w11_norm(np.full(GRID.shape + (1,), 5.0), LAW, T=1.0)
    assert nv.value == pytest.approx(0.0, abs=1e-10)


def test_w11_norm_linear_drift():
    """F = 2x: M|F'| == 2, so the value is 2T."""
    F = 2.0 * GRID.nodes(0)
    nv = w11_norm(F[:, None], LAW, T=3.0)
    assert nv.value == pytest.approx(6.0, rel=1e-6)


def test_phi_weight_default_superlinear():
    L = np.exp(np.arange(1, 9))
    _l_grid(L)
    ratio = _phi_weight(L) * np.log(L)
    assert np.all(np.diff(ratio) > 0)


def test_wphi_weak_norm_reports_argmax():
    F = GRID.nodes(0)[:, None]
    nv = wphi_weak_norm(F, LAW, T=1.0)
    assert nv.argmax_L in nv.L_grid
    assert nv.value > 0


def test_wphi_weak_norm_rejects_small_L():
    F = GRID.nodes(0)[:, None]
    with pytest.raises(ValueError):
        wphi_weak_norm(F, LAW, T=1.0, L_grid=(2.0, 4.0))


def test_h_half_norm_cosine():
    """f = cos(pi x / 4) on the periodic box: |d^(1/2) f| <= sqrt(pi/4)."""
    x = PGRID.nodes(0)
    nv = h_half_norm(np.cos(np.pi * x / 4.0), PLAW, T=1.0)
    assert 0 < nv.value <= np.sqrt(np.pi / 4.0) * 1.01


def test_h_half_requires_periodic():
    with pytest.raises(ValueError):
        h_half_norm(np.zeros(GRID.shape), LAW, T=1.0)


def test_pathwise_method_needs_ensemble():
    with pytest.raises(ValueError):
        h1_norm(GRID.nodes(0), LAW, T=1.0, method="pathwise")
    with pytest.raises(ValueError):
        h1_norm(GRID.nodes(0), LAW, T=1.0, method="simpson")


def test_holder_domination_never_violated(rng):
    """The discrete Hoelder chain is an exact inequality on matching sums."""
    for _ in range(5):
        f = rng.standard_normal(GRID.shape)
        rep = holder_domination_check(f, LAW, p=3.0, q=4.0, T=1.0)
        assert rep.passed
        assert rep.details["lhs"] <= rep.details["rhs"] * (1 + 1e-12)


def test_holder_domination_rejects_p_at_most_one():
    with pytest.raises(ValueError):
        holder_domination_check(GRID.nodes(0), LAW, p=1.0, q=2.0)


def test_semicontinuity_probe_smooth_field():
    """A smooth field's norm is reached from below along mollification."""
    x = PGRID.nodes(0)
    sig = np.cos(np.pi * x / 4.0)
    rep = semicontinuity_probe(sig, PGRID, PLAW,
                               deltas=[0.0625, 0.125, 0.25, 0.5],
                               kind="Hhalf", T=1.0)
    assert rep.passed
    assert len(rep.details["mollified_norms"]) == 4


def test_semicontinuity_probe_needs_four_deltas():
    with pytest.raises(ValueError):
        semicontinuity_probe(np.zeros(PGRID.shape), PGRID, PLAW,
                             deltas=[0.1, 0.2, 0.3], kind="Hhalf")
    with pytest.raises(ValueError):
        semicontinuity_probe(np.zeros(PGRID.shape), PGRID, PLAW,
                             deltas=[0.1, 0.2, 0.3, 0.4], kind="L2")
