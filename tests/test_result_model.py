"""One result model: the forward solvers return a Law, results are written by
one JSON serialiser and one CSV writer, and bad initial densities fail early."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sdelab
from sdelab import (
    ConfigError,
    Law,
    NormValue,
    Report,
    make_grid,
    preset_field,
    solve_fp_1d,
    solve_kinetic,
    validate_config,
)
from sdelab.report import write_csv
from sdelab.runner import main

_PDE = ("stationary_1d", "elliptic_energy", "kinetic_langevin")


# -- initial densities ---------------------------------------------------------

@pytest.mark.parametrize("name", _PDE)
def test_validate_rejects_a_gaussian_u0_with_zero_std(name, tmp_path):
    cfg = {"scenario": name, "u0": {"kind": "gaussian", "std": 0.0}}
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    assert any(e.startswith("u0:") and "std" in e for e in exc.value.errors)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("name", _PDE)
def test_validate_rejects_an_unknown_u0_kind(name, tmp_path):
    cfg = {"scenario": name, "u0": {"kind": "foo"}}
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    assert any(e.startswith("u0:") and "foo" in e for e in exc.value.errors)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2


def test_solvers_reject_a_non_finite_initial_density():
    grid = make_grid(1, (-4.0, 4.0), 64)
    field = preset_field("ou", {}, grid)
    u0 = np.exp(-grid.nodes(0) ** 2)
    u0[10] = np.nan
    for implicit in (False, True):
        with pytest.raises(ValueError, match="initial density"):
            solve_fp_1d(field, u0, T=0.1, implicit=implicit)
    grid2 = make_grid(2, ((-2.0, 2.0), (-3.0, 3.0)), 16)
    kin = preset_field("kinetic_langevin", {"beta": 1.0, "temp": 0.5}, grid2)
    v0 = np.ones(grid2.shape)
    v0[3, 4] = np.inf
    with pytest.raises(ValueError, match="initial density"):
        solve_kinetic(kin, v0, T=0.05)


# -- imports -------------------------------------------------------------------

def test_import_sdelab_loads_neither_scipy_integrate_nor_optimize():
    src = str(Path(sdelab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, sdelab; print([m for m in "
            "('scipy.integrate', 'scipy.optimize') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# -- the solvers return a Law ----------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(u0=hnp.arrays(float, 33, elements=st.floats(
           0.0, 10.0, allow_subnormal=False)).filter(lambda u: u.max() > 0),
       preset=st.sampled_from(["ou", "heat"]), implicit=st.booleans())
def test_solve_fp_1d_returns_a_unit_mass_law(u0, preset, implicit):
    grid = make_grid(1, (-4.0, 4.0), 32)
    out = solve_fp_1d(preset_field(preset, {}, grid), u0, T=0.05,
                      implicit=implicit)
    assert type(out) is Law
    assert out.scheme["implicit"] is implicit
    assert np.all(np.isfinite(out.density))
    assert np.abs(out.mass() - 1.0).max() <= 1e-10

    law, ref = out.as_law(), Law.from_density_evolution(out)
    assert law.grid == ref.grid and law.scheme == ref.scheme == out.scheme
    assert np.array_equal(law.times, ref.times)
    assert np.array_equal(law.density, ref.density)
    assert np.array_equal(law.times, out.times)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "evo.csv"
        out.dump_csv(path)
        text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "t,x0,u"
    assert len(lines) == 1 + out.times.size * grid.shape[0]
    assert "\r" not in text
    t, x, u = (float(v) for v in lines[-1].split(","))
    assert (t, x, u) == (out.times[-1], grid.nodes(0)[-1], out.density[-1, -1])


def test_law_carries_its_scheme_and_the_solver_tolerance(grid1d):
    assert not hasattr(sdelab, "DensityEvolution")
    law = Law.gaussian(grid1d, [0.0, 1.0])
    assert law.scheme == {}
    off = law.density * (1.0 + 1e-9)
    with pytest.raises(ValueError, match="unit mass"):
        Law(grid1d, law.times, off)
    with pytest.raises(ValueError, match="finite"):
        Law(grid1d, [0.0], np.full((1,) + grid1d.shape, np.nan))


# -- one serialiser, one writer ------------------------------------------------

def test_to_dict_follows_field_order_and_plain_json_types(tmp_path):
    rep = Report("r", np.bool_(True), {"a": np.arange(3), "b": np.float64(0.5),
                                       "c": np.int64(2), "d": (1, 2)})
    assert rep.to_dict() == {"name": "r", "passed": True,
                             "details": {"a": [0, 1, 2], "b": 0.5, "c": 2,
                                         "d": [1, 2]}}
    text = rep.to_json(tmp_path / "r.json")
    assert (tmp_path / "r.json").read_text() == text
    assert json.loads(text) == rep.to_dict()
    nv = NormValue("H1", np.float64(1.5), "quadrature", 1.0, L_grid=(2.0, 4.0))
    assert list(nv.to_dict()) == ["kind", "value", "method", "T", "mc_stderr",
                                  "L_grid", "argmax_L"]
    assert nv.to_dict()["L_grid"] == [2.0, 4.0]


def test_write_csv_formats_floats_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["k", "x", "name"],
              [(1, 0.1, "a"), (np.int64(2), np.float64(1 / 3), "b")])
    assert path.read_bytes() == (b"k,x,name\n1,0.10000000000000001,a\n"
                                 b"2,0.33333333333333331,b\n")
