"""Config validation, scenario execution and the CLI."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdelab
from sdelab import ConfigError, SCENARIOS, run_scenario, validate_config
from sdelab.report import Report
from sdelab.runner import main


def test_scenario_catalogue_is_complete():
    assert set(SCENARIOS) == {
        "thm_multidim_convergence",
        "thm_1d_convergence",
        "elliptic_energy",
        "stationary_1d",
        "kinetic_langevin",
        "ae_uniqueness_map",
        "norm_audit",
    }


def test_validate_applies_defaults():
    cfg = validate_config({"scenario": "stationary_1d"})
    assert cfg["C"] == 0.5
    assert cfg["seed"] == 0
    assert cfg["grid"]["counts"] == [1024]


def test_validate_rejects_unknown_scenario():
    with pytest.raises(ConfigError):
        validate_config({"scenario": "frobnicate"})
    with pytest.raises(ConfigError):
        validate_config("not a dict")


def test_validate_collects_all_errors_at_once():
    with pytest.raises(ConfigError) as exc:
        validate_config({
            "scenario": "thm_1d_convergence",
            "n_paths": -5,
            "T": 0.0,
            "deltas": [0.1, 0.2],
            "bogus_key": 1,
        })
    msgs = exc.value.errors
    assert len(msgs) >= 4
    assert any("n_paths" in m for m in msgs)
    assert any("T" in m for m in msgs)
    assert any("deltas" in m for m in msgs)
    assert any("bogus_key" in m for m in msgs)


def test_validate_rejects_p_at_most_d():
    with pytest.raises(ConfigError) as exc:
        validate_config({"scenario": "elliptic_energy", "p": 1.0})
    assert any("p:" in m for m in exc.value.errors)


def test_validate_norm_audit_needs_periodic_power_of_two():
    with pytest.raises(ConfigError):
        validate_config({
            "scenario": "norm_audit",
            "grid": {"bounds": [[-4.0, 4.0]], "counts": [1000],
                     "periodic": True},
        })
    with pytest.raises(ConfigError):
        validate_config({
            "scenario": "norm_audit",
            "grid": {"bounds": [[-4.0, 4.0]], "counts": [1024],
                     "periodic": False},
        })


def test_run_scenario_emits_manifest_and_checks(tmp_path):
    art = run_scenario({"scenario": "elliptic_energy"}, out_dir=tmp_path / "run")
    assert art.passed
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["complete"]
    assert manifest["checks"]["energy"] is True
    for rel in manifest["files"]:
        assert (tmp_path / "run" / rel).exists()


def test_a_crashed_run_leaves_an_incomplete_failed_manifest(tmp_path,
                                                           monkeypatch):
    """A body that raises after one passing report: the error propagates,
    and the manifest says complete and passed false and lists that report
    with its sha256."""
    def body(cfg, plan, emit):
        emit.check(Report("partial", True, {"stage": 1}))
        raise RuntimeError("body failed after one report")

    record = dataclasses.replace(SCENARIOS["norm_audit"], body=body)
    monkeypatch.setitem(SCENARIOS, "norm_audit", record)
    with pytest.raises(RuntimeError, match="body failed after one report"):
        run_scenario({"scenario": "norm_audit"}, out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["complete"] is False and manifest["passed"] is False
    assert manifest["checks"] == {"partial": True}
    report = tmp_path / "reports" / "partial.json"
    assert manifest["files"] == {
        "reports/partial.json": hashlib.sha256(report.read_bytes()).hexdigest()}


def test_run_scenario_seed_override_changes_hash(tmp_path):
    a = run_scenario({"scenario": "elliptic_energy"}, out_dir=tmp_path / "a")
    b = run_scenario({"scenario": "elliptic_energy"}, out_dir=tmp_path / "b",
                     seed=99)
    assert a.manifest["config_hash"] != b.manifest["config_hash"]


def test_run_scenario_rerun_is_bit_identical(tmp_path):
    cfg = {"scenario": "norm_audit"}
    a = run_scenario(cfg, out_dir=tmp_path / "a")
    b = run_scenario(cfg, out_dir=tmp_path / "b")
    assert a.manifest["files"] == b.manifest["files"]
    for rel in a.manifest["files"]:
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes()


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out


def test_cli_validate(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"scenario": "stationary_1d"}))
    assert main(["validate", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "stationary_1d", "C": -1}))
    assert main(["validate", str(bad)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_cli_run(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "stationary_1d"}))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    assert "pass" in capsys.readouterr().out


def test_python_m_sdelab_runs_without_runpy_warning():
    src = str(Path(sdelab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "sdelab",
         "list-scenarios"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(SCENARIOS)[0] in proc.stdout


def test_one_dimensional_x0_list_validates_and_runs(tmp_path):
    """A 1-D x0 given as a one-element list runs like the scalar."""
    small = {"scenario": "thm_1d_convergence", "n_paths": 40, "T": 0.125}
    cfg = dict(small, x0=[0.5])
    validate_config(cfg)
    a = run_scenario(cfg, out_dir=tmp_path / "list")
    b = run_scenario(dict(small, x0=0.5), out_dir=tmp_path / "scalar")
    assert a.manifest["complete"]
    assert a.manifest["files"] == b.manifest["files"]


def test_validate_rejects_kinetic_dt_beyond_the_transport_cap(tmp_path):
    cfg = {"scenario": "kinetic_langevin", "dt": 0.05}
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    assert any(e.startswith("dt:") for e in exc.value.errors)
    path = tmp_path / "kinetic.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2


def test_validate_rejects_pde_dt_not_dividing_T():
    for name in ("stationary_1d", "elliptic_energy", "kinetic_langevin"):
        with pytest.raises(ConfigError):
            validate_config({"scenario": name, "dt": 0.07})


def test_stationary_dt_half_runs_with_implicit_steps(tmp_path):
    cfg = {"scenario": "stationary_1d", "dt": 0.5}
    validate_config(cfg)
    art = run_scenario(cfg, out_dir=tmp_path / "run")
    assert art.manifest["complete"]
    solver = json.loads((tmp_path / "run" / "reports" / "solver.json").read_text())
    assert solver["implicit"] is True and solver["steps"] == 10
    assert solver["dt"] == 0.5 and solver["dt_over_cap"] > 1.0


def test_pde_scenarios_report_solver_diagnostics(tmp_path):
    for name, T in (("elliptic_energy", 0.1), ("kinetic_langevin", 0.02)):
        art = run_scenario({"scenario": name, "T": T}, out_dir=tmp_path / name)
        assert "reports/solver.json" in art.manifest["files"]
        assert "solver" not in art.manifest["checks"]
        solver = json.loads((tmp_path / name / "reports" / "solver.json")
                            .read_text())
        assert set(solver) == {"dt", "steps", "flux", "method", "implicit",
                               "cap", "dt_over_cap", "mass_drift"}
        assert abs(solver["mass_drift"]) < 1e-12
