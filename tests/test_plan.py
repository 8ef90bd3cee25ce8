"""One plan per scenario: what ``validate`` accepts is what ``run`` executes.

``validate_config`` builds every input of a run except its numbers (the
grid, the fields, the step, the initial density, the x-points, the dyadic
schedule, the law) with the library calls the run makes, so a config it
accepts runs to a complete manifest, and one the run would reject exits 2
from both commands with an error keyed by the config field at fault.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdelab import (
    SCENARIOS,
    ConfigError,
    CoefficientField,
    Law,
    make_grid,
    preset_field,
    run_scenario,
    simulate_ensemble,
    validate_config,
)
from sdelab.fields import PRESET_NAMES
from sdelab.runner import _plan, main
from sdelab.sde import BrownianStore, stability_cap

_2D = {"bounds": [[-4.0, 4.0], [-4.0, 4.0]], "counts": [64, 64],
       "periodic": False}

# (config, the key of its error): each would raise in ``run`` after the
# grid and fields are built, so ``validate`` must reject it
RUN_TIME_FAILURES = {
    "stationary_on_a_2d_grid": (
        {"scenario": "stationary_1d", "grid": _2D}, "grid"),
    "elliptic_on_a_periodic_box": (
        {"scenario": "elliptic_energy",
         "grid": {"bounds": [[-8.0, 8.0]], "counts": [512], "periodic": True}},
        "grid"),
    "kinetic_on_a_1d_grid": (
        {"scenario": "kinetic_langevin", "preset": {"name": "ou"},
         "grid": {"bounds": [[-2.0, 2.0]], "counts": [128]}}, "grid"),
    "sde_dt_above_the_cap": (
        {"scenario": "thm_1d_convergence", "dt": 0.5}, "dt"),
    "uniqueness_dt_above_the_cap": (
        {"scenario": "ae_uniqueness_map", "dt": 0.3}, "dt"),
    "x0_of_two_components_in_1d": (
        {"scenario": "thm_1d_convergence", "x0": [0.0, 0.0]}, "x0"),
    "norm_audit_mollifier_under_resolved": (
        {"scenario": "norm_audit",
         "grid": {"bounds": [[-4.0, 4.0]], "counts": [256], "periodic": True}},
        "deltas"),
    "convergence_mollifier_under_resolved": (
        {"scenario": "thm_1d_convergence",
         "grid": {"bounds": [[-4.0, 4.0]], "counts": [1024],
                  "periodic": False}}, "deltas"),
    "block_eps_in_the_wrong_order": (
        {"scenario": "thm_1d_convergence", "block_eps": [0.5, 1e-10]},
        "block_eps"),
    "no_alphas": ({"scenario": "elliptic_energy", "alphas": []}, "alphas"),
    "record_every_zero": (
        {"scenario": "thm_1d_convergence", "record_every": 0}, "record_every"),
    "norm_audit_law_on_a_2d_grid": (
        {"scenario": "norm_audit", "preset": {"name": "ou"},
         "grid": {"bounds": [[-4.0, 4.0], [-4.0, 4.0]], "counts": [256, 256],
                  "periodic": True}}, "law"),
}


@pytest.mark.parametrize("case", sorted(RUN_TIME_FAILURES))
def test_a_config_run_would_reject_fails_validate_and_run(case, tmp_path,
                                                          capsys):
    cfg, key = RUN_TIME_FAILURES[case]
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    assert any(e.startswith(f"{key}:") for e in exc.value.errors), \
        exc.value.errors
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"invalid: {key}:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _sde_dt_config(excess):
    """thm_1d_convergence at dt = cap (1 + excess), T = 100 dt, where cap is
    the smallest stability cap of its mollified fields."""
    fields = _plan({"scenario": "thm_1d_convergence"})[1]["fields"]
    dt = min(stability_cap(f) for f in fields) * (1.0 + excess)
    return {"scenario": "thm_1d_convergence", "dt": dt, "T": 100 * dt,
            "n_paths": 8}


def test_sde_dt_within_the_relative_slack_validates_and_runs(tmp_path):
    """The step and the family check share one user-dt rule: a dt within
    the relative 1e-12 slack of the cap passes both."""
    cfg = _sde_dt_config(5e-13)
    validate_config(cfg)
    assert run_scenario(cfg, out_dir=tmp_path / "run").manifest["complete"]


def test_sde_dt_beyond_the_relative_slack_is_rejected_by_dt():
    with pytest.raises(ConfigError) as exc:
        validate_config(_sde_dt_config(1e-11))
    assert len(exc.value.errors) == 1
    assert exc.value.errors[0].startswith("dt: "), exc.value.errors


# -- accepted configs run to completion ----------------------------------------

_SDE = ("thm_multidim_convergence", "thm_1d_convergence", "ae_uniqueness_map")


def _mostly(draw, usual, other):
    """``usual`` most of the time, else a draw from ``other``."""
    return usual if draw(st.sampled_from([True] * 7 + [False])) else draw(other)


def _grid(draw, default):
    d = _mostly(draw, len(default["counts"]), st.sampled_from([1, 2]))
    bounds = default["bounds"] if d == len(default["counts"]) \
        else [[-4.0, 4.0]] * d
    counts = [_mostly(draw, draw(st.sampled_from([16, 32, 64])),
                      st.integers(16, 64)) for _ in range(d)]
    periodic = _mostly(draw, default["periodic"], st.booleans())
    return {"bounds": bounds, "counts": counts, "periodic": periodic}


def _scales(draw, n, h):
    """A list of about n scales, most of them resolved on cell width h."""
    size = _mostly(draw, n, st.integers(0, 5))
    return [h * _mostly(draw, draw(st.floats(2.0, 8.0)), st.floats(1.0, 2.0))
            for _ in range(size)]


def _listed(draw, usual, other):
    """One to three values, mostly from ``usual``; now and then none."""
    return [_mostly(draw, draw(usual), other)
            for _ in range(draw(st.integers(_mostly(draw, 1, st.just(0)), 3)))]


def _x0(draw, n_paths, d):
    shape = _mostly(draw, draw(st.sampled_from([(), (d,)])), st.sampled_from(
        [(), (1,), (2,), (3,), (n_paths,), (n_paths, 1), (n_paths, 2)]))
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    return np.reshape(values, shape).tolist()


@st.composite
def tiny_configs(draw, name):
    """A small config of scenario ``name``, near its defaults but with every
    drawn key free to leave them."""
    default = SCENARIOS[name].defaults
    cfg = {"scenario": name, "grid": _grid(draw, default["grid"]),
           "T": draw(st.floats(0.01, 0.1))}
    d = len(cfg["grid"]["counts"])
    h = max((hi - lo) / n for (lo, hi), n in zip(cfg["grid"]["bounds"],
                                                 cfg["grid"]["counts"]))
    cfg["preset"] = _mostly(draw, default["preset"], st.builds(
        lambda n: {"name": n}, st.sampled_from(PRESET_NAMES)))
    if "dt" in default and draw(st.booleans()):
        cfg["dt"] = cfg["T"] / draw(st.sampled_from([1, 1.5, 2, 8, 32, 128]))
    if name in _SDE:
        cfg["n_paths"] = draw(st.integers(2, 6))
        cfg["epsilons"] = _listed(draw, st.floats(1e-3, 0.5),
                                  st.floats(0.5, 2.0))
    if "deltas" in default:
        cfg["deltas"] = _scales(draw, len(default["deltas"]), h)
    if "x0" in default:
        cfg["x0"] = _x0(draw, cfg["n_paths"], d)
        cfg["record_every"] = draw(st.integers(1, 8))
    if "block_eps" in default:
        pair = [draw(st.floats(1e-6, 0.1)), draw(st.floats(0.2, 0.99))]
        cfg["block_eps"] = _mostly(draw, pair, st.just(pair[::-1]))
    if "n_points" in default:
        cfg["n_points"] = draw(st.integers(1, 4))
    if "alphas" in default:
        cfg["alphas"] = _listed(draw, st.floats(2.0, 5.0), st.floats(1.0, 2.0))
    return cfg


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_an_accepted_config_runs_to_a_complete_manifest(name, data):
    cfg = data.draw(tiny_configs(name))
    try:
        validate_config(cfg)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        art = run_scenario(cfg, out_dir=Path(tmp) / "run")
    assert art.manifest["complete"] is True


# -- result types compare by identity -------------------------------------------

def test_laws_fields_and_ensembles_compare_by_identity_and_hash():
    grid = make_grid(1, (-4.0, 4.0), 64)
    a, b = Law.gaussian(grid, [0.0]), Law.gaussian(grid, [0.0])
    assert a == a and a != b
    field = preset_field("ou", {}, grid)
    other = CoefficientField(grid, field.drift, field.diffusion)
    assert field == field and field != other
    store = BrownianStore.generate(0, 4, 8, 1 / 128)
    ens = simulate_ensemble(field, 0.0, 8 / 128, store)
    assert ens == ens and ens != simulate_ensemble(field, 0.0, 8 / 128, store)
    assert len({a, b, field, other, ens}) == 5
