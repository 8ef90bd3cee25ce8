"""The last config keys ``run`` used to reject after ``validate`` accepted
them: ``p`` of the convergence scenarios, ``probe_kind`` and ``L_grid`` of
``norm_audit``, and epsilons at or above 1, whose Q growth ratio divides by
|log eps|. Also values that ran silently or with a traceback: NaN, infinite
and boolean numbers, a horizon or scale that overflows, a key inside
grid, preset, law or u0 that nothing reads, a bad ``rtol``, a scenario
that is not a name, a one-path convergence run (NaN standard errors) and a
periodic kinetic grid (the solver's walls do not wrap). Each is a
ConfigError keyed by its field, exit status 2 from both commands, no
traceback and no run tree."""

import json

import pytest

from sdelab import ConfigError, validate_config
from sdelab.runner import main

# (config, the key of its error)
UNPLANNED = {
    "p_at_most_one_1d": ({"scenario": "thm_1d_convergence", "p": 0.5},
                         "deltas, p"),
    "p_at_most_one_2d": ({"scenario": "thm_multidim_convergence", "p": 1.0},
                         "deltas, p"),
    "probe_kind_unknown": ({"scenario": "norm_audit", "probe_kind": "W11"},
                           "probe_kind"),
    "L_grid_below_e": ({"scenario": "norm_audit", "L_grid": [2.0]}, "L_grid"),
    "L_grid_empty": ({"scenario": "norm_audit", "L_grid": []}, "L_grid"),
    "epsilon_of_one": ({"scenario": "thm_1d_convergence", "epsilons": [1.0],
                        "n_paths": 20, "T": 0.125}, "epsilons"),
    "epsilon_above_one_2d": ({"scenario": "thm_multidim_convergence",
                              "epsilons": [0.1, 2.0]}, "epsilons"),
    "epsilon_nan": ({"scenario": "thm_1d_convergence",
                     "epsilons": [float("nan")]}, "epsilons"),
    "delta_boolean": ({"scenario": "thm_1d_convergence",
                       "deltas": [0.0625, 0.03125, 0.015625, True]}, "deltas"),
    "T_infinite": ({"scenario": "norm_audit", "T": float("inf")}, "T"),
    "T_overflows_sde_steps": ({"scenario": "thm_1d_convergence", "T": 1e308},
                              "T"),
    "T_overflows_pde_steps": ({"scenario": "kinetic_langevin", "T": 1e308},
                              "T"),
    "delta_overflows_taps": ({"scenario": "thm_1d_convergence",
                              "deltas": [1e308, 0.03125, 0.015625, 0.0078125]},
                             "deltas"),
    "grid_key_unread": ({"scenario": "thm_1d_convergence",
                         "grid": {"cuonts": [3]}}, "grid"),
    "preset_key_unread": ({"scenario": "elliptic_energy",
                           "preset": {"name": "ou", "parms": {}}}, "preset"),
    "law_key_unread": ({"scenario": "norm_audit", "law": {"sd": 3}}, "law"),
    "u0_key_unread": ({"scenario": "stationary_1d",
                       "u0": {"kind": "gaussian", "sdt": 3.0}}, "u0"),
    "rtol_negative": ({"scenario": "stationary_1d", "rtol": -1}, "rtol"),
    "rtol_not_a_number": ({"scenario": "stationary_1d", "rtol": "x"}, "rtol"),
    "scenario_not_a_name": ({"scenario": ["norm_audit"]}, "scenario"),
    "grid_count_too_large": ({"scenario": "stationary_1d",
                              "grid": {"counts": [10 ** 30]}}, "grid"),
    "n_points_too_large": ({"scenario": "ae_uniqueness_map",
                            "n_points": 10 ** 30}, "n_points"),
    "kinetic_grid_too_large": ({"scenario": "kinetic_langevin",
                                "grid": {"counts": [10 ** 12, 10 ** 12]}},
                               "grid"),
    "one_path_1d": ({"scenario": "thm_1d_convergence", "n_paths": 1,
                     "T": 0.25}, "n_paths"),
    "one_path_2d": ({"scenario": "thm_multidim_convergence", "n_paths": 1},
                    "n_paths"),
    "kinetic_periodic_grid": ({"scenario": "kinetic_langevin",
                               "grid": {"periodic": True, "counts": [32, 32]}},
                              "grid"),
}


@pytest.mark.parametrize("case", sorted(UNPLANNED))
def test_unplanned_key_fails_validate_and_run(case, tmp_path, capsys):
    cfg, key = UNPLANNED[case]
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


@pytest.mark.parametrize("cfg", [
    {"scenario": "thm_1d_convergence", "p": 1.5},
    {"scenario": "norm_audit", "probe_kind": "H1"},
    {"scenario": "norm_audit", "L_grid": [2.75, 10.0]},
    {"scenario": "thm_1d_convergence", "epsilons": [0.999]},
    {"scenario": "thm_1d_convergence", "n_paths": 2, "T": 0.25},
    {"scenario": "ae_uniqueness_map", "n_paths": 1},
    {"scenario": "kinetic_langevin",
     "grid": {"periodic": False, "counts": [32, 32]}},
])
def test_values_inside_the_rules_still_validate(cfg):
    validate_config(cfg)
