"""The Euler-Maruyama kernel: golden paths, family coupling, interpolation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import (
    BrownianStore,
    make_grid,
    mollify,
    preset_field,
    simulate_ensemble,
    simulate_family,
)
from sdelab.sde import _interpolate


def _case(name):
    """(field, x0, T, store, record_every) of one golden ensemble."""
    if name == "1d":
        grid = make_grid(1, (-1.5, 1.5), 96)
        field = mollify(preset_field("kink_drift", {"beta": 1.0}, grid), 0.25)
        return field, 1.2, 1.0, BrownianStore.generate(101, 300, 64, 1 / 64), 4
    if name == "1d_periodic":
        grid = make_grid(1, (-4.0, 4.0), 512, periodic=True)
        base = preset_field("sqrt_diffusion", {"kappa": 0.1}, grid)
        x0 = np.linspace(-6.0, 6.0, 300)
        return mollify(base, 0.125), x0, 1.0, \
            BrownianStore.generate(102, 300, 64, 1 / 64), 1
    if name == "2d_mixed":
        grid = make_grid(2, ((-2.0, 2.0), (-3.0, 3.0)), (32, 48),
                         periodic=(True, False))
        field = mollify(preset_field("ou", {}, grid), 0.25)
        return field, (1.5, 2.5), 0.5, \
            BrownianStore.generate(103, 200, 64, 1 / 128, r=2), 8
    grid = make_grid(2, ((-2.0, 2.0), (-3.0, 3.0)), 40)
    field = preset_field("kinetic_langevin", {"beta": 1.0, "temp": 0.5}, grid)
    return field, (0.5, -0.5), 1.0, BrownianStore.generate(104, 200, 64, 1 / 64), 2


# sha256 of paths, times and exit fraction, recorded with the per-dimension
# interpolation and einsum noise term that the shared kernel replaced.
GOLDEN = {
    "1d": "1bcda524852ff27730b2aa76c5b680044b0c48cdcdfc28a1a197f98cf576a148",
    "1d_periodic":
        "4184736a36896bdcbd172c041da88eaf97c2400d7bf6e024f9f38129b5512661",
    "2d_kinetic":
        "89c9490c082a970d864ec84a1fecb6bd4fbaa5069a4525e7fba7e6cbfc4553bf",
    "2d_mixed": "29cafba5a777f33fffbf3c0dcf713d0ca871aa2f2be9b04a612fc21bc4a4aba7",
}


def _digest(ens) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ens.paths).tobytes())
    h.update(ens.times.tobytes())
    h.update(repr(ens.exit_fraction).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_ensemble_golden_paths(name):
    field, x0, T, store, every = _case(name)
    ens = simulate_ensemble(field, x0, T, store, record_every=every)
    assert _digest(ens) == GOLDEN[name]


def test_golden_cases_exercise_exits():
    field, x0, T, store, every = _case("1d")
    assert simulate_ensemble(field, x0, T, store, record_every=every).exit_fraction > 0
    field, x0, T, store, every = _case("2d_mixed")
    assert simulate_ensemble(field, x0, T, store, record_every=every).exit_fraction > 0


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(GOLDEN)),
       deltas=st.lists(st.sampled_from([0.5, 0.375, 0.3125]), min_size=1,
                       max_size=3),
       seed=st.integers(0, 2 ** 31 - 1), every=st.integers(1, 9))
def test_family_members_equal_single_ensembles(name, deltas, seed, every):
    """Each member of a family run is bit-identical to its own ensemble."""
    field, x0, T, store, _ = _case(name)
    store = BrownianStore.generate(seed, store.n_paths, 32, store.dt, store.r)
    T = 32 * store.dt
    fields = [mollify(field, d) for d in deltas]
    family = simulate_family(fields, x0, T, store, record_every=every)
    assert len(family) == len(fields)
    for f, member in zip(fields, family):
        alone = simulate_ensemble(f, x0, T, store, record_every=every)
        assert member.field is f
        assert np.array_equal(member.times, alone.times)
        assert np.array_equal(member.paths, alone.paths)
        assert member.exit_fraction == alone.exit_fraction


def test_family_rejects_mixed_grids_and_empty_lists():
    a, x0, T, store, every = _case("1d")
    b, *_ = _case("1d_periodic")
    with pytest.raises(ValueError, match="one grid"):
        simulate_family([a, b], x0, T, store)
    with pytest.raises(ValueError, match="one or more"):
        simulate_family([], x0, T, store)


def test_one_dimensional_initial_point_of_shape_d():
    field, _, T, store, every = _case("1d")
    a = simulate_ensemble(field, [0.5], T, store, record_every=every)
    b = simulate_ensemble(field, 0.5, T, store, record_every=every)
    assert np.array_equal(a.paths, b.paths)


# dyadic steps, so that node coordinates and their cell positions are exact
_GRIDS = [
    make_grid(1, (-2.0, 2.0), 16),
    make_grid(1, (-2.0, 2.0), 16, periodic=True),
    make_grid(2, ((-2.0, 2.0), (-3.0, 1.0)), (16, 32)),
    make_grid(2, ((-2.0, 2.0), (-3.0, 1.0)), (16, 32), periodic=(False, True)),
]


@pytest.mark.parametrize("grid", _GRIDS)
def test_interpolation_reproduces_nodes_exactly(grid):
    rng = np.random.default_rng(5)
    values = rng.standard_normal(grid.shape + (3,))
    nodes = np.stack(grid.meshgrid(), axis=-1)
    assert np.array_equal(_interpolate(values, grid, nodes), values)
    assert np.array_equal(_interpolate(values[..., 0], grid, nodes),
                          values[..., 0])


@settings(max_examples=40, deadline=None)
@given(grid=st.sampled_from(_GRIDS), seed=st.integers(0, 10 ** 6))
def test_interpolation_is_exact_on_affine_functions(grid, seed):
    """Inside the box (and off the wrapping cell of periodic axes) the
    multilinear interpolant of an affine function is that function."""
    rng = np.random.default_rng(seed)
    coef = rng.uniform(-3.0, 3.0, grid.d + 1)
    nodes = grid.meshgrid()
    values = coef[0] + sum(c * m for c, m in zip(coef[1:], nodes))
    hi = [u - h if p else u
          for u, h, p in zip(grid.upper, grid.h, grid.periodic)]
    x = rng.uniform(grid.lower, hi, (200, grid.d))
    exact = coef[0] + x @ coef[1:]
    assert np.allclose(_interpolate(values, grid, x), exact, rtol=0, atol=1e-12)


def test_interpolation_clamps_and_wraps_outside_the_box():
    grid = make_grid(1, (0.0, 1.0), 16)
    values = np.arange(17.0) ** 2
    x = np.array([[-5.0], [3.0]])
    assert np.array_equal(_interpolate(values, grid, x), [0.0, 256.0])
    ring = make_grid(1, (0.0, 1.0), 16, periodic=True)
    values = np.arange(16.0) ** 2
    # -1e-20 wraps to 1.0 in floating point, one cell beyond the last node
    x = np.array([[-1e-20], [1.0 + 1.5 / 16], [-0.5 / 16]])
    assert np.allclose(_interpolate(values, ring, x), [0.0, 2.5, 112.5],
                       rtol=0, atol=1e-12)


def test_interp_values_on_path_arrays():
    """The (N, nt) position arrays of the pathwise functionals."""
    field, x0, T, store, every = _case("1d")
    ens = simulate_ensemble(field, x0, T, store, record_every=every)
    g = ens.grid
    values = np.cos(g.nodes(0))
    x = ens.paths[..., 0]
    got = _interpolate(values, g, x[..., None])
    assert got.shape == x.shape
    assert np.allclose(got, np.interp(x, g.nodes(0), values), rtol=0, atol=1e-14)
    assert np.array_equal(_interpolate(values, g, x[:, :1][..., None])[:, 0],
                          got[:, 0])
    # a boolean stamp selection gives column-major positions; the values keep
    # that layout, so per-path sums over them add in the same order
    xf = ens.paths[:, ens.times <= 0.5, 0]
    assert xf.flags.f_contiguous and not xf.flags.c_contiguous
    assert _interpolate(values, g, xf[..., None]).flags.f_contiguous


@pytest.mark.parametrize("bad", [np.nan, np.inf, "per_path", "component"])
def test_non_finite_initial_point_is_rejected_by_name(bad):
    grid = make_grid(1, (-4.0, 4.0), 64)
    ou = preset_field("ou", {}, grid)
    store = BrownianStore.generate(7, 8, 8, 1 / 128)
    if bad == "per_path":
        x0 = np.zeros(8)
        x0[3] = -np.inf
    elif bad == "component":
        grid = make_grid(2, ((-2.0, 2.0), (-3.0, 3.0)), 16)
        ou = preset_field("ou", {}, grid)
        store = BrownianStore.generate(7, 8, 8, 1 / 128, r=2)
        x0 = (0.5, np.nan)
    else:
        x0 = bad
    with pytest.raises(ValueError, match="x0"):
        simulate_ensemble(ou, x0, 8 / 128, store)
    with pytest.raises(ValueError, match="x0"):
        simulate_family([ou, ou], x0, 8 / 128, store)
