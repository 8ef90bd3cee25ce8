"""Forward PDE solvers, monitors and law distances."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sdelab import (
    Law,
    cfl_cap_1d,
    energy_monitor,
    law_compare,
    make_grid,
    max_principle_check,
    preset_field,
    solve_fp_1d,
    solve_kinetic,
    stationary_bound_check,
)


def _gaussian(grid, mean=0.0, std=1.0):
    x = grid.nodes(0)
    return np.exp(-0.5 * ((x - mean) / std) ** 2)


def test_cfl_cap_combines_advection_and_diffusion(grid1d, ou_field):
    cap = cfl_cap_1d(ou_field)
    h = grid1d.h[0]
    assert cap == pytest.approx(min(h / (2.0 * 4.0), h * h / 4.0))


def test_solver_conserves_mass_exactly(grid1d, ou_field):
    evo = solve_fp_1d(ou_field, _gaussian(grid1d), T=0.5)
    drift = np.abs(evo.mass() - 1.0)
    assert drift.max() < 1e-13
    assert evo.density.min() >= 0.0
    assert evo.scheme["flux"] == "upwind"


def test_solver_rejects_unstable_step(grid1d, ou_field):
    cap = cfl_cap_1d(ou_field)
    with pytest.raises(ValueError):
        solve_fp_1d(ou_field, _gaussian(grid1d), T=0.5, dt=4.0 * cap)


def test_solver_rejects_nondivisor_step(grid1d, ou_field):
    with pytest.raises(ValueError):
        solve_fp_1d(ou_field, _gaussian(grid1d), T=0.5, dt=cfl_cap_1d(ou_field) * 0.7)


def test_solver_rejects_bad_initial(grid1d, ou_field):
    with pytest.raises(ValueError):
        solve_fp_1d(ou_field, -_gaussian(grid1d), T=0.1)
    with pytest.raises(ValueError):
        solve_fp_1d(ou_field, np.zeros(grid1d.shape), T=0.1)


def test_heat_kernel_accuracy():
    """Pure diffusion from a narrow spike tracks the closed-form kernel."""
    grid = make_grid(1, (-8.0, 8.0), 512)
    field = preset_field("heat", {}, grid)
    x = grid.nodes(0)
    u0 = np.zeros(grid.shape)
    u0[np.argmin(np.abs(x))] = 1.0
    evo = solve_fp_1d(field, u0, T=1.0)
    exact = np.exp(-x * x / 2.0) / np.sqrt(2.0 * np.pi)
    l1 = grid.h[0] * np.abs(evo.density[-1] - exact).sum()
    assert l1 < 0.02


def test_ou_relaxes_to_standard_normal():
    grid = make_grid(1, (-6.0, 6.0), 1024)
    field = preset_field("ou", {}, grid)
    evo = solve_fp_1d(field, _gaussian(grid, std=0.5), T=5.0)
    x = grid.nodes(0)
    exact = np.exp(-x * x / 2.0) / np.sqrt(2.0 * np.pi)
    l1 = grid.h[0] * np.abs(evo.density[-1] - exact).sum()
    assert l1 < 0.01


def test_stationary_bound_holds_on_ou():
    grid = make_grid(1, (-6.0, 6.0), 1024)
    field = preset_field("ou", {}, grid)
    evo = solve_fp_1d(field, _gaussian(grid, std=1.0), T=2.0)
    rep = stationary_bound_check(field, evo, C=0.5)
    assert rep.passed
    assert rep.details["violating_stamps"] == 0


def test_stationary_bound_rejects_undersized_envelope():
    grid = make_grid(1, (-6.0, 6.0), 1024)
    field = preset_field("ou", {}, grid)
    evo = solve_fp_1d(field, _gaussian(grid, std=1.0), T=0.1)
    with pytest.raises(ValueError):
        stationary_bound_check(field, evo, C=0.1)


def test_stationary_bound_needs_ellipticity(grid1d):
    field = preset_field("degenerate_1d", {}, grid1d)
    evo = solve_fp_1d(field, _gaussian(grid1d), T=0.01)
    with pytest.raises(ValueError):
        stationary_bound_check(field, evo, C=1.0)


def test_energy_monitor_ou_zero_violations():
    grid = make_grid(1, (-8.0, 8.0), 512)
    field = preset_field("ou", {}, grid)
    evo = solve_fp_1d(field, _gaussian(grid, std=2.0), T=1.0)
    rep = energy_monitor(evo, field, alphas=[2.0, 4.0], p=3.0)
    assert rep.passed
    assert rep.violations == 0
    assert rep.theta == pytest.approx(1.0 - 1.0 / 3.0)


def test_energy_monitor_heat_integrals_nonincreasing():
    grid = make_grid(1, (-8.0, 8.0), 512)
    field = preset_field("heat", {}, grid)
    evo = solve_fp_1d(field, _gaussian(grid, std=1.0), T=1.0)
    rep = energy_monitor(evo, field, alphas=[2.0], p=2.0)
    assert rep.passed
    assert np.all(np.diff(rep.values[0]) <= 1e-14)


def test_energy_monitor_validation():
    grid = make_grid(1, (-8.0, 8.0), 512)
    field = preset_field("ou", {}, grid)
    evo = solve_fp_1d(field, _gaussian(grid, std=2.0), T=0.1)
    with pytest.raises(ValueError):
        energy_monitor(evo, field, alphas=[2.0], p=1.0)
    with pytest.raises(ValueError):
        energy_monitor(evo, field, alphas=[1.5], p=3.0)


def test_energy_report_serialization(tmp_path):
    grid = make_grid(1, (-8.0, 8.0), 512)
    field = preset_field("ou", {}, grid)
    evo = solve_fp_1d(field, _gaussian(grid, std=2.0), T=0.1)
    rep = energy_monitor(evo, field, alphas=[2.0], p=3.0)
    rep.to_json(tmp_path / "energy.json")
    header, rows = rep.table()
    assert header == ["t", "alpha", "lhs", "budget"]
    assert len(rows) == rep.times.size - 1


def test_kinetic_mass_and_max_principle():
    grid = make_grid(2, ((-2.0, 2.0), (-3.0, 3.0)), 128)
    field = preset_field("kinetic_langevin", {"beta": 1.0, "temp": 0.5}, grid)
    xx, vv = grid.meshgrid()
    u0 = np.exp(-0.5 * (xx / 0.3) ** 2 - 0.5 * (vv / 0.5) ** 2)
    evo = solve_kinetic(field, u0, T=0.3)
    assert np.abs(evo.mass() - 1.0).max() < 1e-12
    assert max_principle_check(evo).passed


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda nt: hnp.arrays(
    float, (nt, 17), elements=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))))
def test_max_principle_check_passes_exactly_when_no_peak_exceeds_the_first(slices):
    """Any nonnegative slices, normalised to laws: the check fails on the
    stamps whose peak exceeds the first peak by more than 1e-8 relative."""
    assume(np.all(slices.max(axis=1) > 0))
    law = Law.from_slices(make_grid(1, (-1.0, 1.0), 16),
                          np.arange(slices.shape[0]), slices)
    peaks = law.density.max(axis=1)
    above = peaks > peaks[0] * (1.0 + 1e-8)
    rep = max_principle_check(law)
    assert rep.passed == (not above.any())
    assert rep.details["violating_stamps"] == int(above.sum())


def test_kinetic_requires_v_only_diffusion(grid2d):
    field = preset_field("ou", {}, grid2d)
    with pytest.raises(ValueError):
        solve_kinetic(field, np.ones(grid2d.shape), T=0.1)


def test_kinetic_rejects_a_periodic_box():
    grid = make_grid(2, ((-2.0, 2.0), (-3.0, 3.0)), 32, periodic=True)
    field = preset_field("kinetic_langevin", {}, grid)
    with pytest.raises(ValueError, match="non-periodic box"):
        solve_kinetic(field, np.ones(grid.shape), T=0.1)


def test_law_compare_identical_and_shifted():
    grid = make_grid(1, (-6.0, 6.0), 512)
    law = Law.gaussian(grid, [0.0], std=1.0)
    same = law_compare(law, law)
    assert same["l1"] == 0.0 and same["w1"] == 0.0
    shifted = Law.gaussian(grid, [0.0], mean=0.5, std=1.0)
    d = law_compare(law, shifted)
    assert d["l1"] > 0
    # W1 between translates is the translation distance
    assert d["w1"] == pytest.approx(0.5, rel=1e-2)


def test_law_compare_needs_one_grid():
    a = Law.gaussian(make_grid(1, (-6.0, 6.0), 512), [0.0], std=1.0)
    b = Law.gaussian(make_grid(1, (-8.0, 8.0), 1024), [0.0], std=1.0)
    with pytest.raises(ValueError, match="one grid"):
        law_compare(a, b)


def test_density_evolution_csv(tmp_path, grid1d, ou_field):
    evo = solve_fp_1d(ou_field, _gaussian(grid1d), T=0.01, record_every=10 ** 9)
    evo.dump_csv(tmp_path / "evo.csv")
    lines = (tmp_path / "evo.csv").read_text().strip().splitlines()
    assert lines[0] == "t,x0,u"
    assert len(lines) == 1 + evo.times.size * grid1d.shape[0]
