"""`import sdelab` loads no scipy module: the 1-D ball average is a numpy
running sum equal to ndimage's bit for bit, scipy is imported only by the
calls that use it, and non-finite input to the maximal operators fails
loudly."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

import sdelab
from sdelab import RadiusSchedule, make_grid, maximal, maximal_modified
from sdelab.maxops import _ball_averages


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    src = str(Path(sdelab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


_SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


# -- the 1-D ball average ------------------------------------------------------

@st.composite
def _line(draw):
    n = draw(st.integers(8, 300))
    periodic = draw(st.booleans())
    lo = draw(st.floats(-10.0, 0.0))
    width = draw(st.floats(0.5, 20.0))
    grid = make_grid(1, (lo, lo + width), n, periodic=periodic)
    f = draw(hnp.arrays(float, grid.shape, elements=st.floats(
        0.0, 1e6, allow_subnormal=False)))
    return grid, f


def _oracle(f, grid, r):
    size = 2 * int(r / grid.h[0]) + 1
    mode = "wrap" if grid.periodic[0] else "nearest"
    return ndimage.uniform_filter1d(f, size, mode=mode)


@settings(max_examples=150, deadline=None)
@given(line=_line(), wide=st.floats(1.0, 4.0))
def test_ball_average_equals_ndimage_bit_for_bit(line, wide):
    grid, f = line
    # every scheduled radius, then windows up to four times the grid's width
    radii = RadiusSchedule.geometric(grid).radii
    for r in radii + (wide * grid.box_diameter, grid.h[0] * f.size):
        assert np.array_equal(next(_ball_averages(f, grid, (r,))),
                              _oracle(f, grid, r))


# -- misuse fails loudly -------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("d", [1, 2])
def test_maximal_operators_reject_non_finite_input(bad, d):
    grid = make_grid(1, (-4.0, 4.0), 64) if d == 1 else \
        make_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), 16)
    g = np.ones(grid.shape)
    g.flat[7] = bad
    with pytest.raises(ValueError, match="finite"):
        maximal(g, grid)
    with pytest.raises(ValueError, match="finite"):
        maximal_modified(g, grid, 10.0)


# -- scipy is loaded where it is used ------------------------------------------

def test_import_sdelab_loads_no_scipy_module():
    assert _fresh("import sys, sdelab\n" + _SCIPY) == "[]"


def test_mc_norm_call_chain_loads_no_scipy_module():
    code = (
        "import sys, sdelab as sl\n"
        "grid = sl.make_grid(1, (-6.0, 6.0), 128)\n"
        "field = sl.preset_field('ou', {}, grid)\n"
        "store = sl.BrownianStore.generate(3, 200, 256, 1.0 / 256)\n"
        "ens = sl.simulate_ensemble(field, 1.0, 1.0, store, record_every=4)\n"
        "law = sl.Law.from_ensemble(ens)\n"
        "sl.h1_norm(field.drift, law, T=1.0)\n"
        "sl.h1_norm(field.drift, law, T=1.0, method='pathwise', ensemble=ens)\n"
        + _SCIPY)
    assert _fresh(code) == "[]"


def test_the_scipy_calls_work_in_a_fresh_process():
    code = (
        "import numpy as np, sdelab as sl\n"
        "grid = sl.make_grid(1, (-4.0, 4.0), 64)\n"
        "field = sl.mollify(sl.preset_field('ou', {}, grid), 0.5)\n"
        "law = sl.solve_fp_1d(field, sl.Law.gaussian(grid, [0.0]).density[0],\n"
        "                     T=0.1, implicit=True)\n"
        "store = sl.BrownianStore.generate(3, 200, 256, 1.0 / 256)\n"
        "ens = sl.simulate_ensemble(field, 0.0, 1.0, store, record_every=8)\n"
        "kde = sl.Law.from_ensemble(ens, bandwidth=2 * grid.h[0]).smooth(0.25)\n"
        "g2 = sl.make_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), 16)\n"
        "ml = sl.maximal_modified(np.full(g2.shape, 3.0), g2, 10.0)\n"
        "print(law.scheme['implicit'], np.allclose(law.mass(), 1.0),\n"
        "      np.allclose(kde.mass(), 1.0), bool(np.all(ml > 3.0)))\n")
    assert _fresh(code) == "True True True True"


# -- the correlations run in numpy: these paths load no scipy ------------------

def test_refinement_family_call_chain_loads_no_scipy_module():
    """Criteria 05-07's chain: a mollified family, its coupled walk and the
    Cauchy, Q and L_eps diagnostics."""
    code = (
        "import sys, sdelab as sl\n"
        "grid = sl.make_grid(1, (-4.0, 4.0), 4096)\n"
        "base = sl.preset_field('sqrt_diffusion', {'kappa': 0.0}, grid)\n"
        "fields = [sl.mollify(base, 2.0 ** -k) for k in range(4, 9)]\n"
        "store = sl.BrownianStore.generate(7, 200, 1024, 2.0 ** -10)\n"
        "ens = sl.simulate_family(fields, 0.0, 1.0, store, record_every=32)\n"
        "sl.cauchy_diagnostic(ens, p=2.0)\n"
        "sl.q_functional(ens[-2], ens[-1], 1e-2)\n"
        "sl.l_eps_functional(ens[-2], ens[-1], 1e-2)\n"
        + _SCIPY)
    assert _fresh(code) == "[]"


def test_maximal_modified_2d_loads_no_scipy_module():
    code = (
        "import sys, numpy as np, sdelab as sl\n"
        "g2 = sl.make_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), 32)\n"
        "sl.maximal_modified(np.full(g2.shape, 3.0), g2, np.exp(4.0))\n"
        + _SCIPY)
    assert _fresh(code) == "[]"


def test_kernel_density_and_smoothed_laws_load_no_scipy_module():
    code = (
        "import sys, sdelab as sl\n"
        "grid = sl.make_grid(1, (-4.0, 4.0), 64)\n"
        "store = sl.BrownianStore.generate(3, 200, 256, 1.0 / 256)\n"
        "ens = sl.simulate_ensemble(sl.preset_field('ou', {}, grid), 0.0, 1.0,\n"
        "                           store, record_every=8)\n"
        "sl.Law.from_ensemble(ens, bandwidth=2 * grid.h[0]).smooth(0.25)\n"
        + _SCIPY)
    assert _fresh(code) == "[]"


def test_thm_1d_convergence_run_loads_no_scipy_module(tmp_path):
    code = (
        "import sys, sdelab as sl\n"
        f"sl.run_scenario({{'scenario': 'thm_1d_convergence'}}, out_dir={str(tmp_path)!r})\n"
        + _SCIPY)
    assert _fresh(code) == "[]"
