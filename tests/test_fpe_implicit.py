"""Backward-Euler forward solvers: the finite-volume generator and its steps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sdelab import (
    CoefficientField,
    cfl_cap_1d,
    energy_monitor,
    make_grid,
    max_principle_check,
    preset_field,
    solve_fp_1d,
    solve_kinetic,
    stationary_bound_check,
    validate_config,
)
from sdelab.fpe import _fv_bands, _tridiagonal_csc, plan_steps


@st.composite
def _lines(draw):
    """(F, a, u) on `lines` lines of n nodes; a >= 0, u in [0.1, 1]."""
    lines = draw(st.integers(1, 3))
    n = draw(st.integers(9, 24))
    F = draw(hnp.arrays(float, (lines, n), elements=st.floats(
        -5.0, 5.0, allow_subnormal=False)))
    a = draw(hnp.arrays(float, (lines, n), elements=st.one_of(
        st.just(0.0), st.floats(0.0, 2.0, allow_subnormal=False))))
    u = draw(hnp.arrays(float, (lines, n), elements=st.floats(0.1, 1.0)))
    return F, a, u


@settings(max_examples=60, deadline=None)
@given(_lines(), st.floats(0.5, 20.0))
def test_fv_generator_is_a_conservative_explicit_generator(data, length):
    F, a, u = data
    lines, n = F.shape
    grid = make_grid(1, (0.0, length), n - 1)
    h = grid.h[0]
    # fields with sigma = sqrt(2 a); the generator takes their own a
    fields = [CoefficientField(grid, F[i][:, None],
                               np.sqrt(2.0 * a[i])[:, None, None])
              for i in range(lines)]
    a = np.array([f.a[:, 0, 0] for f in fields])
    dense = _tridiagonal_csc(*_fv_bands(F, a, h)).toarray()
    off = dense - np.diag(np.diag(dense))
    assert off.min() >= 0.0
    # columns sum to zero, relative to the column's largest entry
    col_scale = np.abs(dense).max(axis=0)
    assert np.all(np.abs(dense.sum(axis=0)) <= 1e-12 * col_scale)

    for i, field in enumerate(fields):
        # one block per line, the single-line generator, nothing between
        block = dense[i * n:(i + 1) * n]
        A_i = _tridiagonal_csc(*_fv_bands(F[i], a[i], h)).toarray()
        assert np.array_equal(block[:, i * n:(i + 1) * n], A_i)
        assert np.count_nonzero(block) == np.count_nonzero(A_i)
        if np.abs(F[i]).max() == 0 and a[i].max() == 0:
            continue
        # one explicit step is u0 + dt * A u0; at a quarter of the cap and
        # u0 >= 0.1 max u0 the clamp at zero never acts
        dt = 0.25 * cfl_cap_1d(field)
        u0, u1 = solve_fp_1d(field, u[i], T=dt, dt=dt).density
        err = np.abs(u1 - (u0 + dt * (A_i @ u0))).max()
        assert err <= 1e-12 * u0.max()


@pytest.mark.parametrize("name,params", [
    ("ou", {}), ("heat", {}), ("kink_drift", {"beta": 2.0}),
    ("degenerate_1d", {}),
])
def test_implicit_steps_far_beyond_the_cap_stay_positive_and_conservative(
        name, params):
    grid = make_grid(1, (-4.0, 4.0), 512)
    field = preset_field(name, params, grid)
    x = grid.nodes(0)
    u0 = ((np.abs(x - 0.5) < 0.4) + 1e-3 * np.exp(-x * x)).astype(float)
    dt = 50.0 * cfl_cap_1d(field)
    evo = solve_fp_1d(field, u0, T=20 * dt, dt=dt, implicit=True)
    assert evo.scheme["steps"] == 20
    assert evo.scheme["dt_over_cap"] == pytest.approx(50.0)
    assert evo.density.min() >= 0.0
    assert np.abs(evo.mass() - 1.0).max() <= 1e-12
    assert abs(evo.scheme["mass_drift"]) <= 1e-12


def test_step_rule_explicit_and_implicit():
    grid = make_grid(1, (-6.0, 6.0), 1024)
    ou = preset_field("ou", {}, grid)
    cap = cfl_cap_1d(ou)
    h = grid.h[0]
    steps, dt, c = plan_steps(ou, 0.2)
    assert (steps, c) == (int(np.ceil(0.2 / (0.9 * cap))), cap)
    steps, dt, _ = plan_steps(ou, 0.2, implicit=True)
    assert steps == int(np.ceil(0.2 / (0.9 * h / (2.0 * 6.0))))
    assert dt == pytest.approx(0.2 / steps)
    # without transport the implicit step falls back to 200 equal steps
    heat = preset_field("heat", {}, grid)
    assert plan_steps(heat, 1.0, implicit=True)[:2] == (200, 1.0 / 200)
    # a user dt is checked only for dividing T in 1-D ...
    assert plan_steps(ou, 5.0, 0.5, implicit=True)[:2] == (10, 0.5)
    with pytest.raises(ValueError):
        plan_steps(ou, 5.0, 0.3, implicit=True)
    with pytest.raises(ValueError):
        plan_steps(ou, 5.0, 0.5)
    # ... and against the transport cap in the kinetic solver
    g2 = make_grid(2, ((-2.0, 2.0), (-3.0, 3.0)), 128)
    kin = preset_field("kinetic_langevin", {"beta": 1.0, "temp": 0.5}, g2)
    with pytest.raises(ValueError):
        plan_steps(kin, 0.3, 0.05, implicit=True)
    free = preset_field("kinetic_langevin", {"beta": 0.0, "temp": 0.5}, g2)
    diff_only = CoefficientField(g2, np.zeros_like(free.drift), free.diffusion)
    assert plan_steps(diff_only, 0.3, implicit=True)[0] == 50


def _scenario_solve(name, implicit):
    cfg = validate_config({"scenario": name})
    g = cfg["grid"]
    grid = make_grid(1, tuple(g["bounds"][0]), g["counts"][0])
    field = preset_field(cfg["preset"]["name"], cfg["preset"]["params"], grid)
    x = grid.nodes(0)
    u0 = np.exp(-0.5 * ((x - cfg["u0"]["mean"]) / cfg["u0"]["std"]) ** 2)
    return cfg, grid, field, solve_fp_1d(field, u0, cfg["T"], implicit=implicit)


def test_implicit_matches_explicit_on_stationary_default():
    cfg, grid, field, exp = _scenario_solve("stationary_1d", False)
    *_, imp = _scenario_solve("stationary_1d", True)
    l1 = grid.h[0] * np.abs(imp.density[-1] - exp.density[-1]).sum()
    assert l1 <= 1e-3
    assert imp.scheme["steps"] < exp.scheme["steps"] / 20
    verdicts = [stationary_bound_check(field, e, cfg["C"], rtol=cfg["rtol"]).passed
                for e in (exp, imp)]
    assert verdicts[0] == verdicts[1]


def test_implicit_matches_explicit_on_elliptic_default():
    cfg, grid, field, exp = _scenario_solve("elliptic_energy", False)
    *_, imp = _scenario_solve("elliptic_energy", True)
    l1 = grid.h[0] * np.abs(imp.density[-1] - exp.density[-1]).sum()
    assert l1 <= 1e-3
    reports = [energy_monitor(e, field, cfg["alphas"], cfg["p"])
               for e in (exp, imp)]
    assert reports[0].passed == reports[1].passed
    assert reports[0].violations == reports[1].violations


def test_implicit_kinetic_v_diffusion_keeps_max_principle_and_variance():
    """Criterion 10's v-diffusion case with backward-Euler v-diffusion."""
    g2 = make_grid(2, ((-2.0, 2.0), (-3.0, 3.0)), 128)
    diff = preset_field("kinetic_langevin", {"beta": 0.0, "temp": 0.5}, g2)
    xx, vv = g2.meshgrid()
    u0 = np.exp(-0.5 * (xx / 0.3) ** 2 - 0.5 * (vv / 0.5) ** 2)
    evo = solve_kinetic(diff, u0, T=0.3, implicit=True)
    assert evo.scheme["implicit"] and evo.scheme["dt_over_cap"] > 1.0
    assert max_principle_check(evo).passed
    assert np.abs(evo.mass() - 1.0).max() < 1e-12
    v = g2.nodes(1)
    pv = evo.density[-1].sum(axis=0) * g2.h[0]
    pv /= pv.sum() * g2.h[1]
    mean_v = float(np.sum(pv * v) * g2.h[1])
    var_v = float(np.sum(pv * (v - mean_v) ** 2) * g2.h[1])
    target = 0.5 ** 2 + 2.0 * 0.5 * 0.3
    assert abs(var_v - target) / target < 0.02


def test_explicit_default_records_its_diagnostics(grid1d, ou_field):
    x = grid1d.nodes(0)
    evo = solve_fp_1d(ou_field, np.exp(-0.5 * x * x), T=0.05)
    s = evo.scheme
    assert s["implicit"] is False and s["method"] == "fv_explicit_1d"
    assert s["cap"] == cfl_cap_1d(ou_field)
    assert s["dt_over_cap"] == pytest.approx(s["dt"] / s["cap"])
    assert 0.0 < s["dt_over_cap"] <= 0.9
    mass = evo.mass()
    assert s["mass_drift"] == pytest.approx(mass[-1] - mass[0], abs=1e-15)
