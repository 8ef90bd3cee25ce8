"""Every misuse raise that no other test or product run reaches.

One case per raise: a small input that reaches it, and the message it must
carry. The inputs are the smallest that reach each check; none allocates
more than a few kilobytes (the MemoryError case patches the preset builder
instead of asking for a huge grid).
"""

import functools
import re

import numpy as np
import pytest

import sdelab as sl
from sdelab import laws, norms, runner, sde
from sdelab.fields import CoefficientField, _correlate_symmetric

LINE = sl.make_grid(1, (-4.0, 4.0), 64)
RING = sl.make_grid(1, (-4.0, 4.0), 64, periodic=True)
PLANE = sl.make_grid(2, ((-1.0, 1.0), (-1.0, 1.0)), 8)


def _field(grid, drift, diffusion):
    return CoefficientField(grid, np.broadcast_to(drift, grid.shape + (grid.d,)),
                            np.broadcast_to(diffusion, grid.shape + diffusion.shape))


@functools.cache
def _store(r=1, n_paths=4):
    return sde.BrownianStore.generate(7, n_paths, 10, 0.01, r)


@functools.cache
def _ensembles(grid=LINE, record_every=1):
    """Two coupled 10-step ensembles of four paths: OU and its half drift."""
    ou = sl.preset_field("ou", {}, grid)
    half = CoefficientField(grid, 0.5 * ou.drift, ou.diffusion)
    return tuple(sde.simulate_family([ou, half], 0.0, 0.1, _store(grid.d),
                                     record_every))


def _plane_law():
    return sl.Law.from_slices(PLANE, [0.0, 1.0], np.ones((2,) + PLANE.shape))


def _overflowing_sigma():
    # sigma = 1e200 everywhere: sigma sigma*/2 overflows to inf, its
    # determinant inf - inf is NaN and fails the semidefinite test
    with np.errstate(over="ignore", invalid="ignore"):
        _field(PLANE, 0.0, np.full((2, 2), 1e200))


def _memory_error(monkeypatch):
    def exhausted(*args):
        raise MemoryError("cannot allocate the preset's arrays")
    monkeypatch.setattr(runner, "preset_field", exhausted)
    runner.validate_config({"scenario": "norm_audit"})


CASES = [
    # fields
    ("fields.make_grid.dimension",
     lambda: sl.make_grid(1, (0.0, 1.0), (8, 8)),
     "bounds/counts/periodic must match dimension"),
    ("fields.psd", _overflowing_sigma,
     "diffusion matrix a = sigma sigma*/2 is not positive semidefinite"),
    ("fields.diffusion_shape",
     lambda: CoefficientField(LINE, np.zeros((65, 1)), np.zeros((65, 1))),
     "diffusion shape (65, 1) invalid"),
    ("fields.symmetric_taps",
     lambda: _correlate_symmetric(np.ones(8), np.array([0.25, 0.75])),
     "symmetric correlation needs odd symmetric taps"),
    # fpe
    ("fpe.no_transport_no_diffusion",
     lambda: sl.cfl_cap_1d(_field(LINE, 0.0, np.zeros((1, 1)))),
     "field has zero transport and zero diffusion"),
    ("fpe.initial_shape",
     lambda: sl.solve_fp_1d(sl.preset_field("ou", {}, LINE), np.ones(9), 0.1),
     "initial density shape (9,) != (65,)"),
    ("fpe.energy_monitor_2d",
     lambda: sl.energy_monitor(_plane_law(), sl.preset_field("ou", {}, PLANE),
                               [2.0], 3.0),
     "energy_monitor covers the 1-D solver"),
    ("fpe.energy_monitor_ellipticity",
     lambda: sl.energy_monitor(sl.Law.gaussian(LINE, [0.0]),
                               _field(LINE, 1.0, np.zeros((1, 1))), [2.0], 3.0),
     "ellipticity constant on the grid must be positive"),
    ("fpe.law_compare_2d",
     lambda: sl.law_compare(_plane_law(), _plane_law()),
     "law_compare works on 1-D laws"),
    # laws
    ("laws.density_shape",
     lambda: sl.Law(LINE, [0.0, 1.0], np.ones((1, 65)) / 8.0),
     "density shape (1, 65) != (2, 65)"),
    ("laws.zero_mass",
     lambda: sl.Law.from_slices(LINE, [0.0], np.zeros(65)),
     "cannot normalize a zero-mass slice"),
    ("laws.marginal_1d",
     lambda: sl.Law.gaussian(LINE, [0.0]).marginal(0),
     "marginal needs a 2-D law"),
    ("laws.stamp_between",
     lambda: laws._stamps_through(np.array([0.0, 0.5, 1.0]), 0.7),
     "T=0.7 is not a recorded stamp: it lies between the stamps 0.5 and 1"),
    ("laws.stamp_past",
     lambda: laws._stamps_through(np.array([0.0, 0.5, 1.0]), 1.5),
     "T=1.5 is not a recorded stamp: it lies past the last stamp 1"),
    ("laws.stamp_before",
     lambda: laws._stamps_through(np.array([0.0, 0.5, 1.0]), -0.5),
     "T=-0.5 is not a recorded stamp: it lies before the first stamp 0"),
    # maxops
    ("maxops.maximal_shape",
     lambda: sl.maximal(np.ones(9), LINE),
     "field shape (9,) != grid shape (65,)"),
    ("maxops.maximal_modified_shape",
     lambda: sl.maximal_modified(np.ones(9), LINE, 3.0),
     "field shape (9,) != grid shape (65,)"),
    ("maxops.half_derivative_2d",
     lambda: sl.half_derivative(np.ones(PLANE.shape), PLANE),
     "half_derivative is one-dimensional"),
    ("maxops.half_derivative_shape",
     lambda: sl.half_derivative(np.ones(9), RING),
     "field shape does not match grid"),
    ("maxops.pairs_2d",
     lambda: sl.check_pointwise_bound("classic", np.ones(PLANE.shape), PLANE,
                                      (np.array([0]), np.array([1]))),
     "pair scans are implemented for d=1 grids"),
    ("maxops.pairs_empty",
     lambda: sl.check_pointwise_bound("classic", np.ones(65), LINE,
                                      (np.array([], int), np.array([], int))),
     "empty pair sample"),
    ("maxops.pairs_modified_L",
     lambda: sl.check_pointwise_bound("modified", np.ones(65), LINE,
                                      sl.sample_pairs(LINE, 4, 0), L=0.5),
     "L must be >= 1"),
    # norms
    ("norms.superlinear",
     lambda: norms._l_grid((20.0, 10.0)),
     "phi(L)/L must be nondecreasing along the grid"),
    ("norms.grids",
     lambda: sl.h1_norm(np.ones(9), sl.Law.gaussian(LINE, [0.0]), 1.0),
     "field and law grids do not match"),
    ("norms.horizon",
     lambda: sl.w11_norm(np.ones(65), sl.Law.gaussian(LINE, [0.0, 0.5]), 1.0),
     "T=1 is not a recorded stamp: it lies past the last stamp 0.5"),
    ("norms.pathwise_2d",
     lambda: sl.h1_norm(np.ones(PLANE.shape), _plane_law(), 1.0,
                        method="pathwise", ensemble=_ensembles(PLANE)[0]),
     "pathwise estimators are one-dimensional"),
    ("norms.pathwise_one_path",
     lambda: sl.h1_norm(np.ones(65), sl.Law.gaussian(LINE, [0.0]), 0.1,
                        method="pathwise", ensemble=sde.simulate_ensemble(
                            sl.preset_field("ou", {}, LINE), 0.0, 0.1,
                            _store(1, 1))),
     "need at least 2 paths for a standard error"),
    ("norms.pathwise_grid",
     lambda: sl.h1_norm(np.ones(65), sl.Law.gaussian(LINE, [0.0]), 0.1,
                        method="pathwise", ensemble=_ensembles(RING)[0]),
     "the ensemble and the law must share one grid"),
    ("norms.h_half_2d",
     lambda: sl.h_half_norm(np.ones(PLANE.shape), _plane_law(), 1.0),
     "h_half_norm is one-dimensional"),
    # runner
    ("runner.seed",
     lambda: runner.validate_config({"scenario": "norm_audit", "seed": -1}),
     "seed: must be a nonnegative integer"),
    ("runner.non_object",
     lambda: runner.validate_config({"scenario": "norm_audit", "grid": 5}),
     "grid: must be an object"),
    ("runner.block_eps",
     lambda: runner.validate_config({"scenario": "thm_1d_convergence",
                                     "block_eps": [0.1]}),
     "block_eps: must be a list of two finite numbers"),
    # sde
    ("sde.noise_dimension",
     lambda: sde.simulate_ensemble(sl.preset_field("ou", {}, LINE), 0.0, 0.1,
                                   _store(2)),
     "noise dimension mismatch between field and store"),
    ("sde.per_path_start",
     lambda: sde.simulate_ensemble(sl.preset_field("ou", {}, PLANE),
                                   np.zeros(3), 0.1, _store(2, 3)),
     "per-path initial points must have d components"),
    ("sde.recording_grid",
     lambda: sde.q_functional(_ensembles()[0], _ensembles(LINE, 2)[1], 0.1),
     "ensembles must share the recording time grid"),
    ("sde.path_counts",
     lambda: sde.q_functional(_ensembles()[0], sde.simulate_ensemble(
         sl.preset_field("ou", {}, LINE), 0.0, 0.1, _store().prefix(2)), 0.1),
     "ensembles must have the same number of paths (4 and 2)"),
    ("sde.eta_grids",
     lambda: sde.coefficient_distance(sl.preset_field("ou", {}, LINE),
                                      sl.preset_field("ou", {}, RING),
                                      sl.Law.gaussian(LINE, [0.0]), 1.0),
     "the fields and the law must share one grid"),
    ("sde.q_tilde_2d",
     lambda: sde.q_tilde_functional(*_ensembles(PLANE), 0.1,
                                    np.zeros(PLANE.shape)),
     "q_tilde is one-dimensional"),
    ("sde.q_tilde_eps",
     lambda: sde.q_tilde_functional(*_ensembles(), 0.0, np.zeros(65)),
     "eps must be positive"),
    ("sde.l_eps_eps",
     lambda: sde.l_eps_functional(*_ensembles(), -1.0),
     "eps must be positive"),
    ("sde.cauchy_members",
     lambda: sde.cauchy_diagnostic([*_ensembles(), _ensembles()[0]]),
     "need a family of at least 4 coupled ensembles"),
    ("sde.cauchy_grids",
     lambda: sde.cauchy_diagnostic([*_ensembles(), _ensembles()[0],
                                    _ensembles(RING)[0]]),
     "the fields and the law must share one grid"),
    ("sde.uniqueness_2d",
     lambda: sde.uniqueness_map([0.0], *[sl.preset_field("ou", {}, PLANE)] * 2,
                                [0.1], 0.1, 2, _store(2)),
     "uniqueness_map is one-dimensional"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_misuse_raises_a_value_error_naming_it(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_a_preset_too_large_for_memory_is_a_grid_error(monkeypatch):
    with pytest.raises(runner.ConfigError) as info:
        _memory_error(monkeypatch)
    assert info.value.errors == ["grid: cannot allocate the preset's arrays"]
