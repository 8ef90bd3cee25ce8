"""The finite-volume core of the forward solvers against an independent
flux-form oracle and against the transport sweep and band formulas it
replaced; horizon and cadence checks; the laws cauchy_diagnostic builds."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sdelab import (
    BrownianStore,
    CoefficientField,
    Law,
    cauchy_diagnostic,
    cfl_cap_1d,
    cfl_cap_kinetic,
    make_grid,
    preset_field,
    simulate_ensemble,
    simulate_family,
    solve_fp_1d,
    solve_kinetic,
)
from sdelab.fpe import _euler_step, _fv_bands

# -- oracle: the explicit steps in flux form, written out here ---------------


def _update(u, phi, h, dt):
    """u after the interface fluxes phi (interior interfaces, along the
    last axis): out of the left node, into the right one."""
    out = u.copy()
    out[..., :-1] -= dt / h * phi
    out[..., 1:] += dt / h * phi
    return out


def _transport(u, speed):
    """Upwind interface fluxes of the interface-averaged speed."""
    s_half = 0.5 * (speed[..., :-1] + speed[..., 1:])
    return (np.maximum(s_half, 0.0) * u[..., :-1]
            + np.minimum(s_half, 0.0) * u[..., 1:])


def _diffusion(u, a, h):
    """The flux -(a u)'/h of the diffusion term d^2/dx^2(a u)."""
    au = a * u
    return -(au[..., 1:] - au[..., :-1]) / h


def _fp_step(F, a, h, dt, u):
    """One explicit 1-D step: upwind minus (a u)'/h in one update, clamped."""
    phi = _transport(u, F) + _diffusion(u, a, h)
    return np.maximum(_update(u, phi, h, dt), 0.0)


def _kinetic_step(field, dt, u):
    """One explicit splitting step: x sweep, v sweep, v-diffusion, clamp."""
    hx, hv = field.grid.h
    u = _update(u.T, _transport(u.T, field.drift[..., 0].T), hx, dt).T
    u = _update(u, _transport(u, field.drift[..., 1]), hv, dt)
    u = _update(u, _diffusion(u, field.a[..., 1, 1], hv), hv, dt)
    return np.maximum(u, 0.0)


_coeff = st.floats(-5.0, 5.0, allow_subnormal=False)
_diff = st.one_of(st.just(0.0), st.floats(0.0, 2.0, allow_subnormal=False))
_dens = st.floats(0.1, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 30).flatmap(lambda m: st.tuples(
    hnp.arrays(float, m + 1, elements=_coeff),
    hnp.arrays(float, m + 1, elements=_diff),
    hnp.arrays(float, m + 1, elements=_dens))), st.floats(0.5, 20.0))
def test_explicit_fp_step_matches_the_flux_form_oracle(data, length):
    F, a, u = data
    assume(np.abs(F).max() > 0 or a.max() > 0)
    grid = make_grid(1, (0.0, length), F.size - 1)
    field = CoefficientField(grid, F[:, None], np.sqrt(2.0 * a)[:, None, None])
    dt = 0.25 * cfl_cap_1d(field)
    u0, u1 = solve_fp_1d(field, u, T=dt, dt=dt).density
    ref = _fp_step(field.drift[:, 0], field.a[:, 0, 0], grid.h[0], dt, u0)
    assert np.abs(u1 - ref).max() <= 1e-13 * u0.max()


@settings(max_examples=40, deadline=None)
@given(st.integers(8, 20).flatmap(lambda m: st.tuples(
    hnp.arrays(float, (m + 1, m + 1, 2), elements=_coeff),
    hnp.arrays(float, (m + 1, m + 1), elements=_diff),
    hnp.arrays(float, (m + 1, m + 1), elements=_dens))))
def test_explicit_kinetic_step_matches_the_flux_form_oracle(data):
    drift, a_vv, u = data
    assume(np.abs(drift).max() > 0 or a_vv.max() > 0)
    m = a_vv.shape[0] - 1
    grid = make_grid(2, ((-2.0, 2.0), (-3.0, 3.0)), m)
    sigma = np.zeros((m + 1, m + 1, 2, 1))
    sigma[..., 1, 0] = np.sqrt(2.0 * a_vv)  # noise in v only
    field = CoefficientField(grid, drift, sigma)
    dt = 0.25 * cfl_cap_kinetic(field)
    u0, u1 = solve_kinetic(field, u, T=dt, dt=dt).density
    assert np.abs(u1 - _kinetic_step(field, dt, u0)).max() <= 1e-13 * u0.max()


# -- one interface flux: the kinetic sweeps and the bands, pinned ------------


def _sweep(u, speed, h, dt, axis):
    """The upwind transport sweep the kinetic solver used before its sweeps
    became ``_euler_step``s, written out here."""
    if axis == 1:
        return _sweep(u.T, speed.T, h, dt, 0).T
    s_half = 0.5 * (speed[:-1] + speed[1:])
    phi = np.maximum(s_half, 0.0) * u[:-1] + np.minimum(s_half, 0.0) * u[1:]
    out = u.copy()
    out[:-1] -= dt / h * phi
    out[1:] += dt / h * phi
    return out


def _bands(F, a, h):
    """The generator's bands as ``_fv_bands`` wrote them before it read
    ``_fv_fluxes``, for F and a of one shape."""
    F_half = 0.5 * (F[..., :-1] + F[..., 1:])
    zero = np.zeros(a.shape[:-1] + (1,))
    right = (np.maximum(F_half, 0.0) + a[..., :-1] / h) / h
    left = (a[..., 1:] / h - np.minimum(F_half, 0.0)) / h
    diag = -(np.concatenate([zero, left], axis=-1)
             + np.concatenate([right, zero], axis=-1))
    return (np.concatenate([zero, right], axis=-1), diag,
            np.concatenate([left, zero], axis=-1))


# speeds with exact zeros and sign changes between neighbouring nodes
_speed = st.one_of(st.just(0.0), st.just(-0.0), _coeff)
_shape2 = st.tuples(st.integers(2, 12), st.integers(2, 12))


@settings(max_examples=80, deadline=None)
@given(_shape2.flatmap(lambda s: st.tuples(
    hnp.arrays(float, s, elements=_speed),
    hnp.arrays(float, s, elements=st.floats(0.0, 1.0)))),
    st.floats(0.01, 2.0), st.floats(1e-4, 0.5))
def test_upwind_transport_step_is_the_old_sweep_on_either_axis(data, h, dt):
    """With a = 0 the forward step adds +-0.0 to the old sweep's factors,
    which is exact, so both sweeps of the kinetic split step keep every
    bit (np.array_equal: only the sign of a zero may differ)."""
    F, u = data
    along_x = _euler_step(F.T, 0.0, h, dt, False)(u.T).T
    along_v = _euler_step(F, 0.0, h, dt, False)(u)
    assert np.array_equal(along_x, _sweep(u, F, h, dt, axis=0))
    assert np.array_equal(along_v, _sweep(u, F, h, dt, axis=1))


@settings(max_examples=80, deadline=None)
@given(_shape2.flatmap(lambda s: st.tuples(
    hnp.arrays(float, s, elements=_speed),
    hnp.arrays(float, s, elements=_diff))), st.floats(0.01, 2.0))
def test_fv_bands_from_the_fluxes_equal_the_old_band_formulas(data, h):
    """fl(x - y) = -fl(y - x), so the bands built from ``_fv_fluxes`` equal
    the old formulas exactly and the backward solves do not move
    (np.array_equal: only the sign of a zero may differ)."""
    F, a = data
    for new, old in zip(_fv_bands(F, a, h), _bands(F, a, h)):
        assert np.array_equal(new, old)


# -- horizon and recording cadence -------------------------------------------


def _path_case():
    grid = make_grid(1, (-4.0, 4.0), 64)
    return preset_field("ou", {}, grid), BrownianStore.generate(7, 8, 16, 1 / 128)


def _pde_cases():
    g1 = make_grid(1, (-4.0, 4.0), 64)
    g2 = make_grid(2, ((-2.0, 2.0), (-3.0, 3.0)), 16)
    kin = preset_field("kinetic_langevin", {"beta": 1.0, "temp": 0.5}, g2)
    xx, vv = g2.meshgrid()
    return [(solve_fp_1d, preset_field("ou", {}, g1),
             np.exp(-0.5 * g1.nodes(0) ** 2)),
            (solve_kinetic, kin, np.exp(-xx * xx - vv * vv))]


@pytest.mark.parametrize("T", [0.0, -1.0, np.nan])
def test_bad_horizon_is_rejected_by_name(T):
    ou, store = _path_case()
    with pytest.raises(ValueError, match="^T must be positive"):
        simulate_ensemble(ou, 0.5, T, store)
    with pytest.raises(ValueError, match="^T must be positive"):
        simulate_family([ou, ou], 0.5, T, store)
    for solve, field, u0 in _pde_cases():
        with pytest.raises(ValueError, match="^T must be positive"):
            solve(field, u0, T)
        with pytest.raises(ValueError, match="^T must be positive"):
            solve(field, u0, T, implicit=True)


def test_horizon_shorter_than_half_a_store_step_is_rejected_by_name():
    """The path solvers share the PDE solvers' user-dt rule: a horizon that
    rounds to zero steps does not divide into store steps."""
    ou, store = _path_case()
    with pytest.raises(ValueError, match="^dt must divide the horizon T"):
        simulate_ensemble(ou, 0.5, 1e-10, store)


@pytest.mark.parametrize("every", [0, -1, 2.5])
def test_bad_record_cadence_is_rejected_by_name(every):
    ou, store = _path_case()
    with pytest.raises(ValueError, match="^record_every must be a positive"):
        simulate_ensemble(ou, 0.5, 8 / 128, store, record_every=every)
    with pytest.raises(ValueError, match="^record_every must be a positive"):
        simulate_family([ou, ou], 0.5, 8 / 128, store, record_every=every)
    for solve, field, u0 in _pde_cases():
        with pytest.raises(ValueError, match="^record_every must be a positive"):
            solve(field, u0, 0.05, record_every=every)


# -- cauchy_diagnostic's laws ------------------------------------------------


def test_cauchy_diagnostic_builds_the_laws_it_reads(monkeypatch):
    """eta[n, m] reads the law of member n < m only, so the finest member's
    histogram is never built."""
    ou, store = _path_case()
    family = simulate_family([ou] * 5, 0.5, 16 / 128, store, record_every=4)
    built = []
    original = Law.from_ensemble.__func__

    def counting(cls, ensemble, *args, **kwargs):
        built.append(ensemble)
        return original(cls, ensemble, *args, **kwargs)

    monkeypatch.setattr(Law, "from_ensemble", classmethod(counting))
    cauchy_diagnostic(family)
    assert len(built) == len(family) - 1
    assert all(b is e for b, e in zip(built, family[:-1]))
