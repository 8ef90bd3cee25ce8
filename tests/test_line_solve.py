"""The backward-Euler step factors one line when every line has the same
bands, and solves all lines as the columns of one right-hand side; bands
that differ between lines keep the block-diagonal factor over all lines.
Either way the step equals a ``splu`` of the block matrix over all lines,
bit for bit. Also the finite-a check of ``CoefficientField``."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse import linalg as splinalg

import sdelab as sl
from sdelab import fpe
from sdelab.fields import CoefficientField
from sdelab.fpe import _euler_step, _fv_bands, _tridiagonal_csc


def _block_step(F, a, h, dt):
    """The step as built before the one-line factor: ``splu`` of I - dt A
    over all lines, one column per solve."""
    lu = splinalg.splu(_tridiagonal_csc(*_fv_bands(F, a, h), dt),
                       permc_spec="NATURAL", panel_size=1)
    return lambda u: lu.solve(u.reshape(-1)).reshape(u.shape)


@contextlib.contextmanager
def _factored():
    """The shapes of the matrices ``splu`` factors inside the block."""
    shapes, splu = [], splinalg.splu

    def recording(A, **options):
        shapes.append(A.shape)
        return splu(A, **options)
    splinalg.splu = recording
    try:
        yield shapes
    finally:
        splinalg.splu = splu


@st.composite
def _line_constant(draw):
    """F (or the scalar 0.0 of the kinetic v-diffusion), a >= 0 and h, the
    same on each of 1 to 8 lines of 3 to 60 nodes; one line may be given as
    a 1-D array."""
    lines, n = draw(st.integers(1, 8)), draw(st.integers(3, 60))
    line = hnp.arrays(float, n, elements=st.floats(-5.0, 5.0))
    F = draw(st.one_of(st.just(0.0), line))
    a = np.abs(draw(line))
    if not (lines == 1 and draw(st.booleans())):
        F = F if np.ndim(F) == 0 else np.tile(F, (lines, 1))
        a = np.tile(a, (lines, 1))
    return F, a, draw(st.sampled_from([1e-3, 0.1, 1.0])), a.shape


@st.composite
def _right_hand_side(draw, shape):
    """Uniform on [0, 1), or normal at a scale 1e-5 ... 1e4, C- or
    Fortran-ordered."""
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = (g.random(shape) if draw(st.booleans())
         else g.normal(size=shape) * 10.0 ** draw(st.integers(-5, 4)))
    return np.asfortranarray(u) if draw(st.booleans()) else u


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([1e-3, 0.5, 10.0]))
def test_line_constant_bands_factor_one_line_and_solve_like_the_block(
        data, dt):
    F, a, h, shape = data.draw(_line_constant())
    n = shape[-1]
    with _factored() as shapes:
        step = _euler_step(F, a, h, dt, True)
    assert shapes == [(n, n)]
    want = _block_step(F, a, h, dt)
    for _ in range(2):
        u = data.draw(_right_hand_side(shape))
        got = step(u)
        assert got.shape == u.shape
        assert np.array_equal(got, want(u))


@pytest.mark.parametrize("lines, n", [(2, 3), (5, 17), (8, 60)])
def test_one_line_an_ulp_apart_takes_the_block_factor(lines, n):
    """a of the last line is one ulp above the others: the bands differ
    (h = 0.5 divides exactly), so the whole block is factored."""
    g = np.random.default_rng(lines * n)
    a = np.tile(0.1 + g.random(n), (lines, 1))
    a[-1, n // 2] = np.nextafter(a[-1, n // 2], np.inf)
    bands = np.stack(_fv_bands(0.0, a, 0.5))
    assert not (bands == bands[:, :1]).all()
    with _factored() as shapes:
        step = _euler_step(0.0, a, 0.5, 0.25, True)
    assert shapes == [(lines * n, lines * n)]
    want = _block_step(0.0, a, 0.5, 0.25)
    for u in (g.random((lines, n)), np.asfortranarray(g.normal(size=(lines, n)))):
        assert np.array_equal(step(u), want(u))


def _varying_kinetic_field():
    """Langevin drift (v, -x - v) with a_vv = 0.2 + 0.1 x^2 on [-2, 2]^2:
    the v-diffusion differs on every x row."""
    grid = sl.make_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), 24)
    x, v = np.meshgrid(grid.nodes(0), grid.nodes(1), indexing="ij")
    sigma = np.zeros(grid.shape + (2, 1))
    sigma[..., 1, 0] = np.sqrt(2.0 * (0.2 + 0.1 * x * x))
    return CoefficientField(grid, np.stack([v, -x - v], axis=-1), sigma)


def test_kinetic_a_vv_varying_in_x_solves_like_the_block(monkeypatch):
    field = _varying_kinetic_field()
    grid = field.grid
    x, v = np.meshgrid(grid.nodes(0), grid.nodes(1), indexing="ij")
    u0 = np.exp(-2.0 * ((x - 0.3) ** 2 + v * v))
    with _factored() as shapes:
        got = sl.solve_kinetic(field, u0, 0.2, implicit=True)
    assert shapes == [(grid.shape[0] * grid.shape[1],) * 2]

    forward = fpe._euler_step
    monkeypatch.setattr(fpe, "_euler_step", lambda F, a, h, dt, implicit: (
        _block_step(F, a, h, dt) if implicit else forward(F, a, h, dt, False)))
    want = sl.solve_kinetic(field, u0, 0.2, implicit=True)
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.density, want.density)
    assert got.scheme == want.scheme
    assert got.scheme["steps"] > 1


# -- a = sigma sigma*/2 must be finite -------------------------------------------

def test_an_overflowing_1d_sigma_is_rejected_at_the_field():
    """sigma = 1e200 makes a = inf in 1-D; the field rejects it, instead of
    ``cfl_cap_1d`` returning 0.0 and the backward solve failing late."""
    line = sl.make_grid(1, (-4.0, 4.0), 64)
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=r"a = sigma sigma\*/2 must be finite"):
        CoefficientField(line, np.zeros(line.shape + (1,)),
                         np.full(line.shape + (1, 1), 1e200))
    large = CoefficientField(line, np.zeros(line.shape + (1,)),
                             np.full(line.shape + (1, 1), 1e150))
    assert np.isfinite(large.a).all()
