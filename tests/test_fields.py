"""Grids, presets and mollification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import (
    CoefficientField,
    Mollifier,
    PRESET_NAMES,
    make_grid,
    mollify,
    mollify_array,
    preset_field,
)


def test_grid_basic_geometry(grid1d):
    assert grid1d.d == 1
    assert grid1d.shape == (513,)
    assert grid1d.h[0] == pytest.approx(8.0 / 512)
    x = grid1d.nodes(0)
    assert x[0] == -4.0 and x[-1] == 4.0
    assert np.allclose(np.diff(x), grid1d.h[0])


def test_periodic_grid_drops_right_endpoint(grid1d_periodic):
    assert grid1d_periodic.shape == (512,)
    x = grid1d_periodic.nodes(0)
    assert x[-1] == pytest.approx(4.0 - grid1d_periodic.h[0])


def test_grid_2d_shapes(grid2d):
    assert grid2d.d == 2
    assert grid2d.shape == (65, 65)
    assert grid2d.cell_volume == pytest.approx(grid2d.h[0] * grid2d.h[1])


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(3, ((0, 1),) * 3, 16)
    with pytest.raises(ValueError):
        make_grid(1, (1.0, 0.0), 16)
    with pytest.raises(ValueError):
        make_grid(1, (0.0, 1.0), 4)
    with pytest.raises(ValueError):
        make_grid(1, (0.0, np.inf), 16)


def test_preset_names_all_build(grid1d, grid2d):
    for name in PRESET_NAMES:
        g = grid2d if name == "kinetic_langevin" else grid1d
        f = preset_field(name, {}, g)
        assert f.drift.shape == g.shape + (g.d,)


def test_preset_rejects_unknown_name_and_params(grid1d):
    with pytest.raises(ValueError):
        preset_field("nope", {}, grid1d)
    with pytest.raises(ValueError):
        preset_field("ou", {"beta": 1.0}, grid1d)
    with pytest.raises(ValueError):
        preset_field("sqrt_diffusion", {"kappa": -1.0}, grid1d)


def test_ou_preset_values(ou_field, grid1d):
    x = grid1d.nodes(0)
    assert np.allclose(ou_field.drift[:, 0], -x)
    assert np.allclose(ou_field.diffusion[:, 0, 0], np.sqrt(2.0))
    # a = sigma sigma^T / 2 = 1
    assert np.allclose(ou_field.a[:, 0, 0], 1.0)


def test_ou_preset_extends_to_2d(grid2d):
    f = preset_field("ou", {}, grid2d)
    xx, yy = grid2d.meshgrid()
    assert np.allclose(f.drift[..., 0], -xx)
    assert np.allclose(f.drift[..., 1], -yy)
    assert np.allclose(f.a[..., 0, 0], 1.0)
    assert np.allclose(f.a[..., 0, 1], 0.0)


def test_kinetic_preset_noise_acts_on_v_only(grid2d):
    f = preset_field("kinetic_langevin", {"beta": 1.0, "temp": 0.5}, grid2d)
    assert np.all(f.diffusion[..., 0, 0] == 0.0)
    assert np.allclose(f.a[..., 1, 1], 0.5)
    xx, _ = grid2d.meshgrid()
    assert np.allclose(f.drift[..., 0], grid2d.meshgrid()[1])
    assert np.all(f.drift[..., 1] * np.sign(xx) <= 0)


def test_field_shape_validation(grid1d):
    with pytest.raises(ValueError):
        CoefficientField(grid1d, np.zeros((10, 1)), np.zeros((10, 1, 1)))
    with pytest.raises(ValueError):
        CoefficientField(
            grid1d,
            np.full(grid1d.shape + (1,), np.nan),
            np.zeros(grid1d.shape + (1, 1)),
        )


def test_mollifier_scale_validation():
    with pytest.raises(ValueError):
        Mollifier(0.0)
    with pytest.raises(ValueError):
        Mollifier(0.01).taps_1d(0.0078125)


def test_mollifier_taps_unit_mass_and_symmetry():
    w = Mollifier(0.1).taps_1d(0.01)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(w, w[::-1])
    assert np.all(w >= 0)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(-50, 50), delta=st.floats(0.05, 1.0))
def test_mollification_preserves_constants(c, delta):
    """Convolving a constant with a unit-mass kernel returns the constant."""
    grid = make_grid(1, (-2.0, 2.0), 256)
    out = mollify_array(np.full(grid.shape, c), grid, delta)
    assert np.allclose(out, c, atol=1e-10 * max(1.0, abs(c)))


def test_mollification_smooths_the_kink(grid1d):
    f = preset_field("sqrt_diffusion", {"kappa": 0.0}, grid1d)
    fm = mollify(f, 0.25)
    h = grid1d.h[0]
    slope = np.abs(np.diff(f.diffusion[:, 0, 0])) / h
    slope_m = np.abs(np.diff(fm.diffusion[:, 0, 0])) / h
    assert slope_m.max() < slope.max()
    # sup norm never grows under unit-mass averaging
    assert fm.sup_diffusion <= f.sup_diffusion + 1e-12


def test_mollify_2d_radial(grid2d):
    f = preset_field("ou", {}, grid2d)
    fm = mollify(f, 0.5)
    # linear drift is invariant away from the boundary layer
    inner = (slice(10, -10), slice(10, -10))
    assert np.allclose(fm.drift[inner], f.drift[inner], atol=1e-8)
