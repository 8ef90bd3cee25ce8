"""The direct CSC assembly of each backward-Euler operator equals scipy's
``diags_array``/``eye_array`` construction array for array, and the backward
step solves bit for bit like a ``splu`` of that construction. Also
``CoefficientField.a``, computed on the first read and kept read-only, and
the template CSV writer against the per-value writer it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse
from scipy.sparse import linalg as splinalg

from sdelab import CoefficientField, make_grid, preset_field
from sdelab.fpe import _euler_step, _fv_bands, _tridiagonal_csc
from sdelab.report import write_csv


def _scipy_operator(lower, diag, upper, dt=None):
    """The construction the assembler replaced: A from ``diags_array``, and
    I - dt A as ``(eye_array(n) - dt * A).tocsc()``."""
    A = sparse.diags_array(
        [lower.reshape(-1)[1:], diag.reshape(-1), upper.reshape(-1)[:-1]],
        offsets=[-1, 0, 1], format="csc")
    return A if dt is None else (sparse.eye_array(A.shape[0]) - dt * A).tocsc()


def _same_arrays(got, want):
    return all(np.array_equal(getattr(got, k), getattr(want, k))
               for k in ("data", "indices", "indptr"))


# values with exact zeros (zero joints inside a line, zero bands) and tiny
# ones whose product with dt underflows to 0
_VALUES = st.one_of(st.just(0.0), st.floats(-5.0, 5.0),
                    st.floats(1e-300, 1e-290), st.floats(-1e-290, -1e-300))


@st.composite
def _coefficients(draw):
    """F, a >= 0 and h on 1 to 4 lines of 2 to 40 nodes."""
    lines = draw(st.integers(1, 4))
    n = draw(st.integers(2, 40))
    F = draw(hnp.arrays(float, (lines, n), elements=_VALUES))
    a = np.abs(draw(hnp.arrays(float, (lines, n), elements=_VALUES)))
    return F, a, draw(st.sampled_from([1e-3, 0.1, 1.0]))


@settings(max_examples=200, deadline=None)
@given(_coefficients().map(lambda c: _fv_bands(*c)), st.sampled_from([None, 1e-3, 0.5, 1e-310, 5e-324]))
def test_assembler_equals_scipy_construction(bands, dt):
    got = _tridiagonal_csc(*bands, dt)
    want = _scipy_operator(*bands, dt)
    assert _same_arrays(got, want)
    assert got.shape == want.shape


def test_assembler_keeps_a_zero_joint_out():
    """Two lines: the coupling between the last node of line 0 and the first
    of line 1 is an exact zero on both sides, so neither matrix stores it."""
    F, a = np.array([[1.0, -1.0, 0.5], [0.2, 0.3, -2.0]]), np.ones((2, 3))
    bands = _fv_bands(F, a, 0.25)
    for dt in (None, 0.1):
        M = _tridiagonal_csc(*bands, dt)
        assert M[2, 3] == 0 and M[3, 2] == 0
        assert _same_arrays(M, _scipy_operator(*bands, dt))


# -- the backward step -----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(_coefficients(), st.sampled_from([1e-3, 0.5, 10.0]),
       st.integers(0, 2 ** 16))
def test_backward_step_solves_like_a_default_splu_of_the_scipy_operator(
        coeffs, dt, seed):
    """The step's factor (direct assembly, one-column panels) solves bit for
    bit like ``splu``'s default panels on the ``eye_array - dt A`` matrix."""
    F, a, h = coeffs
    step = _euler_step(F, a, h, dt, True)
    fresh = splinalg.splu(_scipy_operator(*_fv_bands(F, a, h), dt),
                          permc_spec="NATURAL")
    u = np.random.default_rng(seed).random(a.shape)
    assert np.array_equal(step(u), fresh.solve(u.reshape(-1)).reshape(u.shape))


def test_default_operators_factor_to_the_same_bits():
    """The L and U of the three default backward-Euler operators, and a solve
    with them, are the same with one-column panels as with the default."""
    from sdelab import SCENARIOS, fpe
    for name in ("stationary_1d", "elliptic_energy", "kinetic_langevin"):
        defaults = SCENARIOS[name].defaults
        g, p = defaults["grid"], defaults["preset"]
        grid = make_grid(len(g["bounds"]), [tuple(b) for b in g["bounds"]],
                         g["counts"])
        field = preset_field(p["name"], p["params"], grid)
        dt = fpe.plan_steps(field, defaults["T"], None, True)[1]
        F, a = (fpe._coeffs_1d(field) if grid.d == 1
                else (0.0, fpe._kinetic_coeffs(field)[2]))
        M = _tridiagonal_csc(*_fv_bands(F, a, grid.h[-1]), dt)
        one = splinalg.splu(M, permc_spec="NATURAL", panel_size=1)
        default = splinalg.splu(M, permc_spec="NATURAL")
        for part in ("L", "U"):
            got, want = getattr(one, part), getattr(default, part)
            assert _same_arrays(got, want), (name, part)
        u = np.random.default_rng(3).random(M.shape[0])
        assert np.array_equal(one.solve(u), default.solve(u)), name


# -- a, computed on the first read -----------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.integers(1, 3), st.integers(0, 2 ** 16))
def test_field_a_is_read_only_and_equals_the_einsum(d, r, seed):
    grid = make_grid(d, (-1.0, 1.0) if d == 1 else ((-1.0, 1.0),) * 2, 8)
    g = np.random.default_rng(seed)
    field = CoefficientField(grid, g.normal(size=grid.shape + (d,)),
                             g.normal(size=grid.shape + (d, r)))
    assert "_a" not in vars(field)  # a field never read keeps no a
    a = field.a
    assert a is field.a
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[...] = 0.0
    assert np.array_equal(
        a, 0.5 * np.einsum("...ik,...jk->...ij", field.diffusion,
                           field.diffusion))


# -- the CSV writer --------------------------------------------------------------

def _per_value_writer(path, header, rows):
    """The writer the templates replaced: each value formatted on its own."""
    def fmt(v):
        if isinstance(v, (float, np.floating)):
            return f"{float(v):.17g}"
        return str(v)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


_CELLS = st.one_of(
    st.text(alphabet="abc xyz_%", max_size=6), st.integers(-10 ** 20, 10 ** 20),
    st.booleans(), st.floats(allow_nan=True, allow_infinity=True),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-5, 5).map(np.int64), st.sampled_from(
        [-0.0, float("inf"), -float("inf"), float("nan"), np.bool_(True)]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_CELLS, min_size=1, max_size=5).map(tuple),
                max_size=12))
def test_write_csv_equals_the_per_value_writer(tmp_path_factory, rows):
    out = tmp_path_factory.mktemp("csv")
    header = ["a", "b", "c"]
    _per_value_writer(out / "want.csv", header, rows)
    write_csv(out / "got.csv", header, rows)
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


def test_write_csv_of_array_rows_and_no_rows(tmp_path):
    rows = np.random.default_rng(2).normal(size=(7, 3))
    rows[0, 0], rows[1, 1], rows[2, 2] = -0.0, np.inf, np.nan
    for name, table in (("array", rows), ("empty", [])):
        _per_value_writer(tmp_path / f"{name}_want.csv", ["x", "y", "z"], table)
        write_csv(tmp_path / f"{name}_got.csv", ["x", "y", "z"], table)
        assert (tmp_path / f"{name}_got.csv").read_bytes() == \
            (tmp_path / f"{name}_want.csv").read_bytes()


def test_write_csv_streams_a_generator(tmp_path):
    """A generator of rows is written as it is consumed: the writer's peak
    allocation stays far below the size of the file it writes."""
    import tracemalloc
    n = 50_000
    rows = ((k * 0.1, -k / 3.0, k) for k in range(n))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", ["x", "y", "k"], rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "big.csv").stat().st_size
    assert size > 1_500_000
    assert peak < size / 4
