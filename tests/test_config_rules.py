"""Every config rule's error texts, pinned, and the rules on JSON booleans
and on ``L_grid``.

``CORPUS`` holds one bad config per rule per scenario (a bad value, a value
of another type and a null for each key, the deltas count and an unknown
key) together with every bad config of the other config tests, each with
the full list of its ConfigError texts, sorted: a change to how a config is
checked keeps every text. ``BOOLEANS`` and ``NON_FINITE_L_GRID`` are the
rules that no value but a grid's ``periodic`` holds a JSON boolean, that
``periodic`` holds nothing else, and that ``L_grid`` is a non-empty list
of finite positive numbers, or null for its default. Each is a ConfigError
keyed by its top-level key, exit status 2 from ``validate`` and ``run``, no
traceback and no run tree.
"""

import json

import numpy as np
import pytest

from sdelab import ConfigError, Law, make_grid, validate_config
from sdelab.norms import wphi_weak_norm
from sdelab.runner import main

NAN, INF = float("nan"), float("inf")
SCALES = "must be a non-empty list of finite positive numbers"
FREE = "must be free of booleans"
PERIODIC = "periodic must be a boolean or a list of booleans"


def _rejected(cfg, errors, tmp_path, capsys):
    """cfg is a ConfigError with exactly ``errors``, exit 2 from both
    commands, no traceback and no run tree."""
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    assert sorted(exc.value.errors) == errors
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))  # NaN and infinities as JSON extensions
    capsys.readouterr()
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("invalid: ") == 2 * len(errors)
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# -- JSON booleans ------------------------------------------------------------

# (config, its errors)
BOOLEANS = {
    "preset_param": ({"scenario": "norm_audit", "preset": {
        "name": "sqrt_diffusion", "params": {"kappa": True}}},
        [f"preset: params {FREE}"]),
    "preset_name": ({"scenario": "elliptic_energy",
                     "preset": {"name": True}}, [f"preset: name {FREE}"]),
    "law_std": ({"scenario": "norm_audit", "law": {"std": True}},
                [f"law: std {FREE}"]),
    "law_mean": ({"scenario": "norm_audit", "law": {"mean": False}},
                 [f"law: mean {FREE}"]),
    "x0": ({"scenario": "thm_1d_convergence", "x0": True}, [f"x0: {FREE}"]),
    "x0_component": ({"scenario": "thm_multidim_convergence",
                      "x0": [0.0, True]}, [f"x0: {FREE}"]),
    "grid_bound": ({"scenario": "stationary_1d",
                    "grid": {"bounds": [[False, 6.0]]}},
                   [f"grid: bounds {FREE}"]),
    "grid_count": ({"scenario": "elliptic_energy",
                    "grid": {"counts": [True]}}, [f"grid: counts {FREE}"]),
    "grid_periodic_numbers": ({"scenario": "kinetic_langevin",
                               "grid": {"periodic": [0, 0]}},
                              [f"grid: {PERIODIC}"]),
    "grid_periodic_number": ({"scenario": "norm_audit",
                              "grid": {"periodic": 1}}, [f"grid: {PERIODIC}"]),
    "grid_periodic_null": ({"scenario": "stationary_1d",
                            "grid": {"periodic": None}},
                           [f"grid: {PERIODIC}"]),
    "u0_mean": ({"scenario": "stationary_1d", "u0": {"mean": True}},
                [f"u0: mean {FREE}"]),
    "u0_std": ({"scenario": "kinetic_langevin", "u0": {"std": [0.3, True]}},
               [f"u0: std {FREE}"]),
    "u0_position": ({"scenario": "kinetic_langevin",
                     "u0": {"kind": "spike", "position": [True, 0.0]}},
                    [f"u0: position {FREE}"]),
    "block_eps": ({"scenario": "thm_1d_convergence",
                   "block_eps": [1e-10, True]}, [f"block_eps: {FREE}"]),
    "probe_kind": ({"scenario": "norm_audit", "probe_kind": True},
                   [f"probe_kind: {FREE}"]),
    "L_grid": ({"scenario": "norm_audit", "L_grid": [True]},
               [f"L_grid: {SCALES}"]),
    "two_keys": ({"scenario": "stationary_1d", "u0": {"std": False},
                  "grid": {"periodic": "no"}},
                 [f"grid: {PERIODIC}", f"u0: std {FREE}"]),
}


@pytest.mark.parametrize("case", sorted(BOOLEANS))
def test_a_boolean_is_a_config_error_of_its_key(case, tmp_path, capsys):
    _rejected(*BOOLEANS[case], tmp_path, capsys)


@pytest.mark.parametrize("cfg", [
    {"scenario": "kinetic_langevin", "grid": {"periodic": [False, False]}},
    {"scenario": "norm_audit", "grid": {"periodic": [True]}},
])
def test_a_periodic_list_of_booleans_validates(cfg):
    validate_config(cfg)


# -- L_grid -------------------------------------------------------------------

NON_FINITE_L_GRID = {
    "nan": [NAN],
    "infinity": [INF],
    "nan_after_e": [2.75, NAN],
    "infinity_after_e": [2.75, INF],
    "empty": [],
    "negative": [2.75, -1.0],
    "not_a_list": "x",
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_L_GRID))
def test_l_grid_takes_the_list_rule(case, tmp_path, capsys):
    _rejected({"scenario": "norm_audit", "L_grid": NON_FINITE_L_GRID[case]},
              [f"L_grid: {SCALES}"], tmp_path, capsys)


@pytest.mark.parametrize("L_grid", [[NAN], [INF], [2.75, NAN], [2.75, INF]])
def test_wphi_weak_norm_rejects_a_non_finite_l_grid(L_grid):
    grid = make_grid(1, (-4.0, 4.0), 64, periodic=True)
    law = Law.gaussian(grid, [0.0, 1.0], 0.0, 1.0)
    with pytest.raises(ValueError, match="L grid must be finite"):
        wphi_weak_norm(np.zeros(grid.shape), law, 1.0, L_grid=L_grid)


# -- every other error text ---------------------------------------------------

# name -> (config, its ConfigError.errors, sorted)
CORPUS = {
    "L_grid_below_e": (
        {"scenario": "norm_audit", "L_grid": [2.0]},
        ["L_grid: L grid must start at or above L = e"]),
    "T_infinite": (
        {"scenario": "norm_audit", "T": INF},
        ["T: must be a finite positive number"]),
    "T_null_forward_pde": (
        {"scenario": "stationary_1d", "T": None},
        ["T: must be a finite positive number"]),
    "T_null_norm_audit": (
        {"scenario": "norm_audit", "T": None},
        ["T: must be a finite positive number"]),
    "T_overflows_pde_steps": (
        {"scenario": "kinetic_langevin", "T": 1e+308},
        ["T: out of range (cannot convert float infinity to integer)"]),
    "T_overflows_sde_steps": (
        {"scenario": "thm_1d_convergence", "T": 1e+308},
        ["T: out of range (cannot convert float infinity to integer)"]),
    "ae_uniqueness_map__T_bad": (
        {"scenario": "ae_uniqueness_map", "T": -1.0},
        ["T: must be a finite positive number"]),
    "ae_uniqueness_map__T_null": (
        {"scenario": "ae_uniqueness_map", "T": None},
        ["T: must be a finite positive number"]),
    "ae_uniqueness_map__T_other": (
        {"scenario": "ae_uniqueness_map", "T": "x"},
        ["T: must be a finite positive number"]),
    "ae_uniqueness_map__deltas_bad": (
        {"scenario": "ae_uniqueness_map", "deltas": [-1.0]},
        [
            "deltas: must be a non-empty list of finite positive numbers",
            "deltas: takes exactly 2 scales",
        ]),
    "ae_uniqueness_map__deltas_null": (
        {"scenario": "ae_uniqueness_map", "deltas": None},
        ["deltas: must be a non-empty list of finite positive numbers"]),
    "ae_uniqueness_map__deltas_other": (
        {"scenario": "ae_uniqueness_map", "deltas": 0.5},
        ["deltas: must be a non-empty list of finite positive numbers"]),
    "ae_uniqueness_map__dt_bad": (
        {"scenario": "ae_uniqueness_map", "dt": -1.0},
        ["dt: must be a finite positive number"]),
    "ae_uniqueness_map__dt_other": (
        {"scenario": "ae_uniqueness_map", "dt": "x"},
        ["dt: must be a finite positive number"]),
    "ae_uniqueness_map__epsilons_bad": (
        {"scenario": "ae_uniqueness_map", "epsilons": [-1.0]},
        ["epsilons: must be a non-empty list of finite positive numbers"]),
    "ae_uniqueness_map__epsilons_null": (
        {"scenario": "ae_uniqueness_map", "epsilons": None},
        ["epsilons: must be a non-empty list of finite positive numbers"]),
    "ae_uniqueness_map__epsilons_other": (
        {"scenario": "ae_uniqueness_map", "epsilons": 0.5},
        ["epsilons: must be a non-empty list of finite positive numbers"]),
    "ae_uniqueness_map__grid_bad": (
        {"scenario": "ae_uniqueness_map", "grid": {"bogus": 1}},
        [
            "grid: unknown key 'bogus'; grid takes ['bounds', 'counts', "
            "'periodic']",
        ]),
    "ae_uniqueness_map__grid_null": (
        {"scenario": "ae_uniqueness_map", "grid": None},
        ["grid: must be an object"]),
    "ae_uniqueness_map__grid_other": (
        {"scenario": "ae_uniqueness_map", "grid": {"counts": [3]}},
        ["grid: cell count must be an integer >= 8, got 3"]),
    "ae_uniqueness_map__n_deltas": (
        {"scenario": "ae_uniqueness_map", "deltas": [0.015625]},
        ["deltas: takes exactly 2 scales"]),
    "ae_uniqueness_map__n_deltas_many": (
        {
            "scenario": "ae_uniqueness_map",
            "deltas": [0.015625, 0.00390625, 0.015625, 0.00390625],
        },
        ["deltas: takes exactly 2 scales"]),
    "ae_uniqueness_map__n_paths_bad": (
        {"scenario": "ae_uniqueness_map", "n_paths": 2.5},
        ["n_paths: must be a positive integer"]),
    "ae_uniqueness_map__n_paths_null": (
        {"scenario": "ae_uniqueness_map", "n_paths": None},
        ["n_paths: must be a positive integer"]),
    "ae_uniqueness_map__n_paths_other": (
        {"scenario": "ae_uniqueness_map", "n_paths": "x"},
        ["n_paths: must be a positive integer"]),
    "ae_uniqueness_map__n_points_bad": (
        {"scenario": "ae_uniqueness_map", "n_points": 2.5},
        ["n_points: must be a positive integer"]),
    "ae_uniqueness_map__n_points_null": (
        {"scenario": "ae_uniqueness_map", "n_points": None},
        ["n_points: must be a positive integer"]),
    "ae_uniqueness_map__n_points_other": (
        {"scenario": "ae_uniqueness_map", "n_points": "x"},
        ["n_points: must be a positive integer"]),
    "ae_uniqueness_map__out_bad": (
        {"scenario": "ae_uniqueness_map", "out": 5},
        ["out: must be a directory path"]),
    "ae_uniqueness_map__out_null": (
        {"scenario": "ae_uniqueness_map", "out": None},
        ["out: must be a directory path"]),
    "ae_uniqueness_map__out_other": (
        {"scenario": "ae_uniqueness_map", "out": ["a"]},
        ["out: must be a directory path"]),
    "ae_uniqueness_map__preset_bad": (
        {"scenario": "ae_uniqueness_map", "preset": {"bogus": 1}},
        ["preset: unknown key 'bogus'; preset takes ['name', 'params']"]),
    "ae_uniqueness_map__preset_null": (
        {"scenario": "ae_uniqueness_map", "preset": None},
        ["preset: must be an object"]),
    "ae_uniqueness_map__preset_other": (
        {"scenario": "ae_uniqueness_map", "preset": {"name": "foo"}},
        [
            "preset: unknown preset 'foo'; choose from ('ou', 'heat', "
            "'sqrt_diffusion', 'kink_drift', 'degenerate_1d', "
            "'kinetic_langevin')",
        ]),
    "ae_uniqueness_map__seed_bad": (
        {"scenario": "ae_uniqueness_map", "seed": -1},
        ["seed: must be a nonnegative integer"]),
    "ae_uniqueness_map__seed_null": (
        {"scenario": "ae_uniqueness_map", "seed": None},
        ["seed: must be a nonnegative integer"]),
    "ae_uniqueness_map__seed_other": (
        {"scenario": "ae_uniqueness_map", "seed": 1.5},
        ["seed: must be a nonnegative integer"]),
    "ae_uniqueness_map__threshold_bad": (
        {"scenario": "ae_uniqueness_map", "threshold": -1.0},
        ["threshold: must be a finite positive number"]),
    "ae_uniqueness_map__threshold_null": (
        {"scenario": "ae_uniqueness_map", "threshold": None},
        ["threshold: must be a finite positive number"]),
    "ae_uniqueness_map__threshold_other": (
        {"scenario": "ae_uniqueness_map", "threshold": "x"},
        ["threshold: must be a finite positive number"]),
    "ae_uniqueness_map__unknown_key": (
        {"scenario": "ae_uniqueness_map", "bogus": 1},
        ["bogus: not a parameter of scenario ae_uniqueness_map"]),
    "ae_uniqueness_map__x_span_bad": (
        {"scenario": "ae_uniqueness_map", "x_span": 1.5},
        ["x_span: must be a number in (0, 1]"]),
    "ae_uniqueness_map__x_span_null": (
        {"scenario": "ae_uniqueness_map", "x_span": None},
        ["x_span: must be a number in (0, 1]"]),
    "ae_uniqueness_map__x_span_other": (
        {"scenario": "ae_uniqueness_map", "x_span": "x"},
        ["x_span: must be a number in (0, 1]"]),
    "block_eps_in_the_wrong_order": (
        {"scenario": "thm_1d_convergence", "block_eps": [0.5, 1e-10]},
        ["block_eps: need 0 < eps_min < eps_max < 1"]),
    "collect_all": (
        {
            "scenario": "thm_1d_convergence",
            "n_paths": -5,
            "T": 0.0,
            "deltas": [0.1, 0.2],
            "bogus_key": 1,
        },
        [
            "T: must be a finite positive number",
            "bogus_key: not a parameter of scenario thm_1d_convergence",
            "deltas: takes at least 4 scales",
            "n_paths: must be a positive integer",
        ]),
    "convergence_mollifier_under_resolved": (
        {
            "scenario": "thm_1d_convergence",
            "grid":
                {
                    "bounds": [[-4.0, 4.0]],
                    "counts": [1024],
                    "periodic": False,
                },
        },
        [
            "deltas: mollifier scale 0.0078125 under-resolved on cell "
            "width 0.0078125",
        ]),
    "delta_boolean": (
        {
            "scenario": "thm_1d_convergence",
            "deltas": [0.0625, 0.03125, 0.015625, True],
        },
        ["deltas: must be a non-empty list of finite positive numbers"]),
    "delta_overflows_taps": (
        {
            "scenario": "thm_1d_convergence",
            "deltas": [1e+308, 0.03125, 0.015625, 0.0078125],
        },
        ["deltas: out of range (cannot convert float infinity to integer)"]),
    "elliptic_energy__T_bad": (
        {"scenario": "elliptic_energy", "T": -1.0},
        ["T: must be a finite positive number"]),
    "elliptic_energy__T_null": (
        {"scenario": "elliptic_energy", "T": None},
        ["T: must be a finite positive number"]),
    "elliptic_energy__T_other": (
        {"scenario": "elliptic_energy", "T": "x"},
        ["T: must be a finite positive number"]),
    "elliptic_energy__alphas_bad": (
        {"scenario": "elliptic_energy", "alphas": [-1.0]},
        ["alphas: must be a non-empty list of finite positive numbers"]),
    "elliptic_energy__alphas_null": (
        {"scenario": "elliptic_energy", "alphas": None},
        ["alphas: must be a non-empty list of finite positive numbers"]),
    "elliptic_energy__alphas_other": (
        {"scenario": "elliptic_energy", "alphas": 0.5},
        ["alphas: must be a non-empty list of finite positive numbers"]),
    "elliptic_energy__dt_bad": (
        {"scenario": "elliptic_energy", "dt": -1.0},
        ["dt: must be a finite positive number"]),
    "elliptic_energy__dt_other": (
        {"scenario": "elliptic_energy", "dt": "x"},
        ["dt: must be a finite positive number"]),
    "elliptic_energy__grid_bad": (
        {"scenario": "elliptic_energy", "grid": {"bogus": 1}},
        [
            "grid: unknown key 'bogus'; grid takes ['bounds', 'counts', "
            "'periodic']",
        ]),
    "elliptic_energy__grid_null": (
        {"scenario": "elliptic_energy", "grid": None},
        ["grid: must be an object"]),
    "elliptic_energy__grid_other": (
        {"scenario": "elliptic_energy", "grid": {"counts": [3]}},
        ["grid: cell count must be an integer >= 8, got 3"]),
    "elliptic_energy__out_bad": (
        {"scenario": "elliptic_energy", "out": 5},
        ["out: must be a directory path"]),
    "elliptic_energy__out_null": (
        {"scenario": "elliptic_energy", "out": None},
        ["out: must be a directory path"]),
    "elliptic_energy__out_other": (
        {"scenario": "elliptic_energy", "out": ["a"]},
        ["out: must be a directory path"]),
    "elliptic_energy__p_bad": (
        {"scenario": "elliptic_energy", "p": -1.0},
        ["p: must be a finite positive number"]),
    "elliptic_energy__p_null": (
        {"scenario": "elliptic_energy", "p": None},
        ["p: must be a finite positive number"]),
    "elliptic_energy__p_other": (
        {"scenario": "elliptic_energy", "p": "x"},
        ["p: must be a finite positive number"]),
    "elliptic_energy__preset_bad": (
        {"scenario": "elliptic_energy", "preset": {"bogus": 1}},
        ["preset: unknown key 'bogus'; preset takes ['name', 'params']"]),
    "elliptic_energy__preset_null": (
        {"scenario": "elliptic_energy", "preset": None},
        ["preset: must be an object"]),
    "elliptic_energy__preset_other": (
        {"scenario": "elliptic_energy", "preset": {"name": "foo"}},
        [
            "preset: unknown preset 'foo'; choose from ('ou', 'heat', "
            "'sqrt_diffusion', 'kink_drift', 'degenerate_1d', "
            "'kinetic_langevin')",
        ]),
    "elliptic_energy__seed_bad": (
        {"scenario": "elliptic_energy", "seed": -1},
        ["seed: must be a nonnegative integer"]),
    "elliptic_energy__seed_null": (
        {"scenario": "elliptic_energy", "seed": None},
        ["seed: must be a nonnegative integer"]),
    "elliptic_energy__seed_other": (
        {"scenario": "elliptic_energy", "seed": 1.5},
        ["seed: must be a nonnegative integer"]),
    "elliptic_energy__u0_bad": (
        {"scenario": "elliptic_energy", "u0": {"bogus": 1}},
        ["u0: unknown key 'bogus'; u0 takes ['kind', 'mean', 'std']"]),
    "elliptic_energy__u0_null": (
        {"scenario": "elliptic_energy", "u0": None},
        ["u0: must be an object"]),
    "elliptic_energy__u0_other": (
        {
            "scenario": "elliptic_energy",
            "u0": {"kind": "spike", "mean": 1.0},
        },
        ["u0: unknown key 'mean'; u0 takes ['kind', 'position']"]),
    "elliptic_energy__unknown_key": (
        {"scenario": "elliptic_energy", "bogus": 1},
        ["bogus: not a parameter of scenario elliptic_energy"]),
    "elliptic_on_a_periodic_box": (
        {
            "scenario": "elliptic_energy",
            "grid":
                {
                    "bounds": [[-8.0, 8.0]],
                    "counts": [512],
                    "periodic": True,
                },
        },
        ["grid: solve_fp_1d expects a non-periodic box"]),
    "epsilon_above_one": (
        {"scenario": "ae_uniqueness_map", "epsilons": [0.1, 2.0]},
        ["epsilons: each eps must lie in (0, 1], got 2.0"]),
    "epsilon_above_one_2d": (
        {"scenario": "thm_multidim_convergence", "epsilons": [0.1, 2.0]},
        [
            "epsilons: each epsilon must be below 1: the Q growth ratio "
            "divides by |log eps|",
        ]),
    "epsilon_nan": (
        {"scenario": "thm_1d_convergence", "epsilons": [NAN]},
        ["epsilons: must be a non-empty list of finite positive numbers"]),
    "epsilon_of_one": (
        {
            "scenario": "thm_1d_convergence",
            "epsilons": [1.0],
            "n_paths": 20,
            "T": 0.125,
        },
        [
            "epsilons: each epsilon must be below 1: the Q growth ratio "
            "divides by |log eps|",
        ]),
    "epsilons_null_1d": (
        {"scenario": "thm_1d_convergence", "epsilons": None},
        ["epsilons: must be a non-empty list of finite positive numbers"]),
    "epsilons_null_2d": (
        {"scenario": "thm_multidim_convergence", "epsilons": None},
        ["epsilons: must be a non-empty list of finite positive numbers"]),
    "grid_count_too_large": (
        {
            "scenario": "stationary_1d",
            "grid": {"counts": [1000000000000000000000000000000]},
        },
        [
            "grid: a grid of (1000000000000000000000000000001,) nodes is"
            " too large for an array",
        ]),
    "grid_key_unread": (
        {"scenario": "thm_1d_convergence", "grid": {"cuonts": [3]}},
        [
            "grid: unknown key 'cuonts'; grid takes ['bounds', 'counts',"
            " 'periodic']",
        ]),
    "kinetic_grid_too_large": (
        {
            "scenario": "kinetic_langevin",
            "grid": {"counts": [1000000000000, 1000000000000]},
        },
        [
            "grid: a grid of (1000000000001, 1000000000001) nodes is too"
            " large for an array",
        ]),
    "kinetic_langevin__T_bad": (
        {"scenario": "kinetic_langevin", "T": -1.0},
        ["T: must be a finite positive number"]),
    "kinetic_langevin__T_null": (
        {"scenario": "kinetic_langevin", "T": None},
        ["T: must be a finite positive number"]),
    "kinetic_langevin__T_other": (
        {"scenario": "kinetic_langevin", "T": "x"},
        ["T: must be a finite positive number"]),
    "kinetic_langevin__dt_bad": (
        {"scenario": "kinetic_langevin", "dt": -1.0},
        ["dt: must be a finite positive number"]),
    "kinetic_langevin__dt_other": (
        {"scenario": "kinetic_langevin", "dt": "x"},
        ["dt: must be a finite positive number"]),
    "kinetic_langevin__grid_bad": (
        {"scenario": "kinetic_langevin", "grid": {"bogus": 1}},
        [
            "grid: unknown key 'bogus'; grid takes ['bounds', 'counts', "
            "'periodic']",
        ]),
    "kinetic_langevin__grid_null": (
        {"scenario": "kinetic_langevin", "grid": None},
        ["grid: must be an object"]),
    "kinetic_langevin__grid_other": (
        {"scenario": "kinetic_langevin", "grid": {"counts": [3]}},
        ["grid: bounds/counts/periodic must match dimension"]),
    "kinetic_langevin__out_bad": (
        {"scenario": "kinetic_langevin", "out": 5},
        ["out: must be a directory path"]),
    "kinetic_langevin__out_null": (
        {"scenario": "kinetic_langevin", "out": None},
        ["out: must be a directory path"]),
    "kinetic_langevin__out_other": (
        {"scenario": "kinetic_langevin", "out": ["a"]},
        ["out: must be a directory path"]),
    "kinetic_langevin__preset_bad": (
        {"scenario": "kinetic_langevin", "preset": {"bogus": 1}},
        ["preset: unknown key 'bogus'; preset takes ['name', 'params']"]),
    "kinetic_langevin__preset_null": (
        {"scenario": "kinetic_langevin", "preset": None},
        ["preset: must be an object"]),
    "kinetic_langevin__preset_other": (
        {"scenario": "kinetic_langevin", "preset": {"name": "foo"}},
        [
            "preset: unknown preset 'foo'; choose from ('ou', 'heat', "
            "'sqrt_diffusion', 'kink_drift', 'degenerate_1d', "
            "'kinetic_langevin')",
        ]),
    "kinetic_langevin__seed_bad": (
        {"scenario": "kinetic_langevin", "seed": -1},
        ["seed: must be a nonnegative integer"]),
    "kinetic_langevin__seed_null": (
        {"scenario": "kinetic_langevin", "seed": None},
        ["seed: must be a nonnegative integer"]),
    "kinetic_langevin__seed_other": (
        {"scenario": "kinetic_langevin", "seed": 1.5},
        ["seed: must be a nonnegative integer"]),
    "kinetic_langevin__u0_bad": (
        {"scenario": "kinetic_langevin", "u0": {"bogus": 1}},
        ["u0: unknown key 'bogus'; u0 takes ['kind', 'mean', 'std']"]),
    "kinetic_langevin__u0_null": (
        {"scenario": "kinetic_langevin", "u0": None},
        ["u0: must be an object"]),
    "kinetic_langevin__u0_other": (
        {
            "scenario": "kinetic_langevin",
            "u0": {"kind": "spike", "mean": 1.0},
        },
        ["u0: unknown key 'mean'; u0 takes ['kind', 'position']"]),
    "kinetic_langevin__unknown_key": (
        {"scenario": "kinetic_langevin", "bogus": 1},
        ["bogus: not a parameter of scenario kinetic_langevin"]),
    "kinetic_on_a_1d_grid": (
        {
            "scenario": "kinetic_langevin",
            "preset": {"name": "ou"},
            "grid": {"bounds": [[-2.0, 2.0]], "counts": [128]},
        },
        ["grid: the kinetic solver needs a 2-D (x, v) field"]),
    "kinetic_periodic_grid": (
        {
            "scenario": "kinetic_langevin",
            "grid": {"periodic": True, "counts": [32, 32]},
        },
        ["grid: solve_kinetic expects a non-periodic box"]),
    "law_key_unread": (
        {"scenario": "norm_audit", "law": {"sd": 3}},
        ["law: unknown key 'sd'; law takes ['mean', 'std']"]),
    "law_negative_std": (
        {"scenario": "norm_audit", "law": {"mean": 0.0, "std": -1.0}},
        ["law: std must be positive and finite, got -1.0"]),
    "law_std_only": (
        {"scenario": "norm_audit", "law": {"std": -1.0}},
        ["law: std must be positive and finite, got -1.0"]),
    "n_points_too_large": (
        {
            "scenario": "ae_uniqueness_map",
            "n_points": 1000000000000000000000000000000,
        },
        ["n_points: Maximum allowed size exceeded"]),
    "no_alphas": (
        {"scenario": "elliptic_energy", "alphas": []},
        ["alphas: must be a non-empty list of finite positive numbers"]),
    "no_scenario": (
        {},
        [
            "scenario: None unknown; choose from ['ae_uniqueness_map', "
            "'elliptic_energy', 'kinetic_langevin', 'norm_audit', "
            "'stationary_1d', 'thm_1d_convergence', "
            "'thm_multidim_convergence']",
        ]),
    "norm_audit__L_grid_bad": (
        {"scenario": "norm_audit", "L_grid": [2.0]},
        ["L_grid: L grid must start at or above L = e"]),
    "norm_audit__L_grid_other": (
        {"scenario": "norm_audit", "L_grid": [1.0, 10.0]},
        ["L_grid: L grid must start at or above L = e"]),
    "norm_audit__T_bad": (
        {"scenario": "norm_audit", "T": -1.0},
        ["T: must be a finite positive number"]),
    "norm_audit__T_null": (
        {"scenario": "norm_audit", "T": None},
        ["T: must be a finite positive number"]),
    "norm_audit__T_other": (
        {"scenario": "norm_audit", "T": "x"},
        ["T: must be a finite positive number"]),
    "norm_audit__deltas_bad": (
        {"scenario": "norm_audit", "deltas": [-1.0]},
        [
            "deltas: must be a non-empty list of finite positive numbers",
            "deltas: takes at least 4 scales",
        ]),
    "norm_audit__deltas_null": (
        {"scenario": "norm_audit", "deltas": None},
        ["deltas: must be a non-empty list of finite positive numbers"]),
    "norm_audit__deltas_other": (
        {"scenario": "norm_audit", "deltas": 0.5},
        ["deltas: must be a non-empty list of finite positive numbers"]),
    "norm_audit__grid_bad": (
        {"scenario": "norm_audit", "grid": {"bogus": 1}},
        [
            "grid: unknown key 'bogus'; grid takes ['bounds', 'counts', "
            "'periodic']",
        ]),
    "norm_audit__grid_null": (
        {"scenario": "norm_audit", "grid": None},
        ["grid: must be an object"]),
    "norm_audit__grid_other": (
        {"scenario": "norm_audit", "grid": {"counts": [3]}},
        ["grid: cell count must be an integer >= 8, got 3"]),
    "norm_audit__law_bad": (
        {"scenario": "norm_audit", "law": {"bogus": 1}},
        ["law: unknown key 'bogus'; law takes ['mean', 'std']"]),
    "norm_audit__law_null": (
        {"scenario": "norm_audit", "law": None},
        ["law: must be an object"]),
    "norm_audit__law_other": (
        {"scenario": "norm_audit", "law": {"std": 0.0}},
        ["law: std must be positive and finite, got 0.0"]),
    "norm_audit__n_deltas": (
        {
            "scenario": "norm_audit",
            "deltas": [0.0078125, 0.015625, 0.03125],
        },
        ["deltas: takes at least 4 scales"]),
    "norm_audit__out_bad": (
        {"scenario": "norm_audit", "out": 5},
        ["out: must be a directory path"]),
    "norm_audit__out_null": (
        {"scenario": "norm_audit", "out": None},
        ["out: must be a directory path"]),
    "norm_audit__out_other": (
        {"scenario": "norm_audit", "out": ["a"]},
        ["out: must be a directory path"]),
    "norm_audit__preset_bad": (
        {"scenario": "norm_audit", "preset": {"bogus": 1}},
        ["preset: unknown key 'bogus'; preset takes ['name', 'params']"]),
    "norm_audit__preset_null": (
        {"scenario": "norm_audit", "preset": None},
        ["preset: must be an object"]),
    "norm_audit__preset_other": (
        {"scenario": "norm_audit", "preset": {"name": "foo"}},
        [
            "preset: unknown preset 'foo'; choose from ('ou', 'heat', "
            "'sqrt_diffusion', 'kink_drift', 'degenerate_1d', "
            "'kinetic_langevin')",
        ]),
    "norm_audit__probe_kind_bad": (
        {"scenario": "norm_audit", "probe_kind": "W11"},
        ["probe_kind: kind must be one of ('H1', 'WphiWeak', 'Hhalf')"]),
    "norm_audit__probe_kind_null": (
        {"scenario": "norm_audit", "probe_kind": None},
        ["probe_kind: kind must be one of ('H1', 'WphiWeak', 'Hhalf')"]),
    "norm_audit__probe_kind_other": (
        {"scenario": "norm_audit", "probe_kind": 3},
        ["probe_kind: kind must be one of ('H1', 'WphiWeak', 'Hhalf')"]),
    "norm_audit__seed_bad": (
        {"scenario": "norm_audit", "seed": -1},
        ["seed: must be a nonnegative integer"]),
    "norm_audit__seed_null": (
        {"scenario": "norm_audit", "seed": None},
        ["seed: must be a nonnegative integer"]),
    "norm_audit__seed_other": (
        {"scenario": "norm_audit", "seed": 1.5},
        ["seed: must be a nonnegative integer"]),
    "norm_audit__unknown_key": (
        {"scenario": "norm_audit", "bogus": 1},
        ["bogus: not a parameter of scenario norm_audit"]),
    "norm_audit_law_on_a_2d_grid": (
        {
            "scenario": "norm_audit",
            "preset": {"name": "ou"},
            "grid": {
                "bounds": [[-4.0, 4.0], [-4.0, 4.0]],
                "counts": [256, 256],
                "periodic": True,
            },
        },
        ["law: gaussian constructor is one-dimensional"]),
    "norm_audit_mollifier_under_resolved": (
        {
            "scenario": "norm_audit",
            "grid":
                {
                    "bounds": [[-4.0, 4.0]],
                    "counts": [256],
                    "periodic": True,
                },
        },
        [
            "deltas: mollifier scale 0.0078125 under-resolved on cell "
            "width 0.03125",
        ]),
    "norm_audit_not_periodic": (
        {
            "scenario": "norm_audit",
            "grid":
                {
                    "bounds": [[-4.0, 4.0]],
                    "counts": [1024],
                    "periodic": False,
                },
        },
        [
            "grid: half_derivative needs a periodic grid; embed "
            "compactly supported fields in a large periodic box",
        ]),
    "norm_audit_not_power_of_two": (
        {
            "scenario": "norm_audit",
            "grid":
                {
                    "bounds": [[-4.0, 4.0]],
                    "counts": [1000],
                    "periodic": True,
                },
        },
        ["grid: cell count must be a power of two"]),
    "not_an_object": (
        "not a dict",
        ["config must be a JSON object"]),
    "one_path_1d": (
        {"scenario": "thm_1d_convergence", "n_paths": 1, "T": 0.25},
        ["n_paths: need at least 2 paths for a standard error"]),
    "one_path_2d": (
        {"scenario": "thm_multidim_convergence", "n_paths": 1},
        ["n_paths: need at least 2 paths for a standard error"]),
    "out_null": (
        {"scenario": "elliptic_energy", "out": None},
        ["out: must be a directory path"]),
    "p_at_most_d": (
        {"scenario": "elliptic_energy", "p": 1.0},
        ["alphas, p: the moment estimate needs p > d"]),
    "p_at_most_one_1d": (
        {"scenario": "thm_1d_convergence", "p": 0.5},
        ["deltas, p: p must be > 1"]),
    "p_at_most_one_2d": (
        {"scenario": "thm_multidim_convergence", "p": 1.0},
        ["deltas, p: p must be > 1"]),
    "preset_key_unread": (
        {
            "scenario": "elliptic_energy",
            "preset": {"name": "ou", "parms": {}},
        },
        ["preset: unknown key 'parms'; preset takes ['name', 'params']"]),
    "probe_kind_unknown": (
        {"scenario": "norm_audit", "probe_kind": "W11"},
        ["probe_kind: kind must be one of ('H1', 'WphiWeak', 'Hhalf')"]),
    "record_every_null_1d": (
        {"scenario": "thm_1d_convergence", "record_every": None},
        ["record_every: must be a positive integer"]),
    "record_every_null_2d": (
        {"scenario": "thm_multidim_convergence", "record_every": None},
        ["record_every: must be a positive integer"]),
    "record_every_zero": (
        {"scenario": "thm_1d_convergence", "record_every": 0},
        ["record_every: must be a positive integer"]),
    "rtol_negative": (
        {"scenario": "stationary_1d", "rtol": -1},
        ["rtol: must be a finite number >= 0"]),
    "rtol_not_a_number": (
        {"scenario": "stationary_1d", "rtol": "x"},
        ["rtol: must be a finite number >= 0"]),
    "scenario_not_a_name": (
        {"scenario": ["norm_audit"]},
        [
            "scenario: ['norm_audit'] unknown; choose from "
            "['ae_uniqueness_map', 'elliptic_energy', "
            "'kinetic_langevin', 'norm_audit', 'stationary_1d', "
            "'thm_1d_convergence', 'thm_multidim_convergence']",
        ]),
    "sde_dt_above_the_cap": (
        {"scenario": "thm_1d_convergence", "dt": 0.5},
        ["dt: dt=5.000e-01 exceeds the stability cap 5.000e-02"]),
    "spike_non_finite_2d": (
        {
            "scenario": "kinetic_langevin",
            "u0": {"kind": "spike", "position": [0.0, NAN]},
        },
        [
            "u0: spike position must have 2 finite component(s), got "
            "[0.0, nan]",
        ]),
    "spike_one_component_2d": (
        {
            "scenario": "kinetic_langevin",
            "u0": {"kind": "spike", "position": [0.5]},
        },
        ["u0: spike position must have 2 finite component(s), got [0.5]"]),
    "spike_three_components_2d": (
        {
            "scenario": "kinetic_langevin",
            "u0": {"kind": "spike", "position": [0, 0, 0]},
        },
        [
            "u0: spike position must have 2 finite component(s), got [0,"
            " 0, 0]",
        ]),
    "stationary_1d__C_bad": (
        {"scenario": "stationary_1d", "C": -1.0},
        ["C: must be a finite positive number"]),
    "stationary_1d__C_null": (
        {"scenario": "stationary_1d", "C": None},
        ["C: must be a finite positive number"]),
    "stationary_1d__C_other": (
        {"scenario": "stationary_1d", "C": "x"},
        ["C: must be a finite positive number"]),
    "stationary_1d__T_bad": (
        {"scenario": "stationary_1d", "T": -1.0},
        ["T: must be a finite positive number"]),
    "stationary_1d__T_null": (
        {"scenario": "stationary_1d", "T": None},
        ["T: must be a finite positive number"]),
    "stationary_1d__T_other": (
        {"scenario": "stationary_1d", "T": "x"},
        ["T: must be a finite positive number"]),
    "stationary_1d__dt_bad": (
        {"scenario": "stationary_1d", "dt": -1.0},
        ["dt: must be a finite positive number"]),
    "stationary_1d__dt_other": (
        {"scenario": "stationary_1d", "dt": "x"},
        ["dt: must be a finite positive number"]),
    "stationary_1d__grid_bad": (
        {"scenario": "stationary_1d", "grid": {"bogus": 1}},
        [
            "grid: unknown key 'bogus'; grid takes ['bounds', 'counts', "
            "'periodic']",
        ]),
    "stationary_1d__grid_null": (
        {"scenario": "stationary_1d", "grid": None},
        ["grid: must be an object"]),
    "stationary_1d__grid_other": (
        {"scenario": "stationary_1d", "grid": {"counts": [3]}},
        ["grid: cell count must be an integer >= 8, got 3"]),
    "stationary_1d__out_bad": (
        {"scenario": "stationary_1d", "out": 5},
        ["out: must be a directory path"]),
    "stationary_1d__out_null": (
        {"scenario": "stationary_1d", "out": None},
        ["out: must be a directory path"]),
    "stationary_1d__out_other": (
        {"scenario": "stationary_1d", "out": ["a"]},
        ["out: must be a directory path"]),
    "stationary_1d__preset_bad": (
        {"scenario": "stationary_1d", "preset": {"bogus": 1}},
        ["preset: unknown key 'bogus'; preset takes ['name', 'params']"]),
    "stationary_1d__preset_null": (
        {"scenario": "stationary_1d", "preset": None},
        ["preset: must be an object"]),
    "stationary_1d__preset_other": (
        {"scenario": "stationary_1d", "preset": {"name": "foo"}},
        [
            "preset: unknown preset 'foo'; choose from ('ou', 'heat', "
            "'sqrt_diffusion', 'kink_drift', 'degenerate_1d', "
            "'kinetic_langevin')",
        ]),
    "stationary_1d__rtol_bad": (
        {"scenario": "stationary_1d", "rtol": -0.001},
        ["rtol: must be a finite number >= 0"]),
    "stationary_1d__rtol_null": (
        {"scenario": "stationary_1d", "rtol": None},
        ["rtol: must be a finite number >= 0"]),
    "stationary_1d__rtol_other": (
        {"scenario": "stationary_1d", "rtol": INF},
        ["rtol: must be a finite number >= 0"]),
    "stationary_1d__seed_bad": (
        {"scenario": "stationary_1d", "seed": -1},
        ["seed: must be a nonnegative integer"]),
    "stationary_1d__seed_null": (
        {"scenario": "stationary_1d", "seed": None},
        ["seed: must be a nonnegative integer"]),
    "stationary_1d__seed_other": (
        {"scenario": "stationary_1d", "seed": 1.5},
        ["seed: must be a nonnegative integer"]),
    "stationary_1d__u0_bad": (
        {"scenario": "stationary_1d", "u0": {"bogus": 1}},
        ["u0: unknown key 'bogus'; u0 takes ['kind', 'mean', 'std']"]),
    "stationary_1d__u0_null": (
        {"scenario": "stationary_1d", "u0": None},
        ["u0: must be an object"]),
    "stationary_1d__u0_other": (
        {"scenario": "stationary_1d", "u0": {"kind": "spike", "mean": 1.0}},
        ["u0: unknown key 'mean'; u0 takes ['kind', 'position']"]),
    "stationary_1d__unknown_key": (
        {"scenario": "stationary_1d", "bogus": 1},
        ["bogus: not a parameter of scenario stationary_1d"]),
    "stationary_on_a_2d_grid": (
        {
            "scenario": "stationary_1d",
            "grid": {
                "bounds": [[-4.0, 4.0], [-4.0, 4.0]],
                "counts": [64, 64],
                "periodic": False,
            },
        },
        ["grid: solve_fp_1d needs a one-dimensional field"]),
    "thm_1d_convergence__T_bad": (
        {"scenario": "thm_1d_convergence", "T": -1.0},
        ["T: must be a finite positive number"]),
    "thm_1d_convergence__T_null": (
        {"scenario": "thm_1d_convergence", "T": None},
        ["T: must be a finite positive number"]),
    "thm_1d_convergence__T_other": (
        {"scenario": "thm_1d_convergence", "T": "x"},
        ["T: must be a finite positive number"]),
    "thm_1d_convergence__block_eps_bad": (
        {"scenario": "thm_1d_convergence", "block_eps": [1.0]},
        ["block_eps: must be a list of two finite numbers"]),
    "thm_1d_convergence__block_eps_null": (
        {"scenario": "thm_1d_convergence", "block_eps": None},
        ["block_eps: must be a list of two finite numbers"]),
    "thm_1d_convergence__block_eps_other": (
        {"scenario": "thm_1d_convergence", "block_eps": "x"},
        ["block_eps: must be a list of two finite numbers"]),
    "thm_1d_convergence__deltas_bad": (
        {"scenario": "thm_1d_convergence", "deltas": [-1.0]},
        [
            "deltas: must be a non-empty list of finite positive numbers",
            "deltas: takes at least 4 scales",
        ]),
    "thm_1d_convergence__deltas_null": (
        {"scenario": "thm_1d_convergence", "deltas": None},
        ["deltas: must be a non-empty list of finite positive numbers"]),
    "thm_1d_convergence__deltas_other": (
        {"scenario": "thm_1d_convergence", "deltas": 0.5},
        ["deltas: must be a non-empty list of finite positive numbers"]),
    "thm_1d_convergence__dt_bad": (
        {"scenario": "thm_1d_convergence", "dt": -1.0},
        ["dt: must be a finite positive number"]),
    "thm_1d_convergence__dt_other": (
        {"scenario": "thm_1d_convergence", "dt": "x"},
        ["dt: must be a finite positive number"]),
    "thm_1d_convergence__epsilons_bad": (
        {"scenario": "thm_1d_convergence", "epsilons": [-1.0]},
        ["epsilons: must be a non-empty list of finite positive numbers"]),
    "thm_1d_convergence__epsilons_null": (
        {"scenario": "thm_1d_convergence", "epsilons": None},
        ["epsilons: must be a non-empty list of finite positive numbers"]),
    "thm_1d_convergence__epsilons_other": (
        {"scenario": "thm_1d_convergence", "epsilons": 0.5},
        ["epsilons: must be a non-empty list of finite positive numbers"]),
    "thm_1d_convergence__grid_bad": (
        {"scenario": "thm_1d_convergence", "grid": {"bogus": 1}},
        [
            "grid: unknown key 'bogus'; grid takes ['bounds', 'counts', "
            "'periodic']",
        ]),
    "thm_1d_convergence__grid_null": (
        {"scenario": "thm_1d_convergence", "grid": None},
        ["grid: must be an object"]),
    "thm_1d_convergence__grid_other": (
        {"scenario": "thm_1d_convergence", "grid": {"counts": [3]}},
        ["grid: cell count must be an integer >= 8, got 3"]),
    "thm_1d_convergence__n_deltas": (
        {
            "scenario": "thm_1d_convergence",
            "deltas": [0.0625, 0.03125, 0.015625],
        },
        ["deltas: takes at least 4 scales"]),
    "thm_1d_convergence__n_paths_bad": (
        {"scenario": "thm_1d_convergence", "n_paths": 2.5},
        ["n_paths: must be a positive integer"]),
    "thm_1d_convergence__n_paths_null": (
        {"scenario": "thm_1d_convergence", "n_paths": None},
        ["n_paths: must be a positive integer"]),
    "thm_1d_convergence__n_paths_other": (
        {"scenario": "thm_1d_convergence", "n_paths": "x"},
        ["n_paths: must be a positive integer"]),
    "thm_1d_convergence__out_bad": (
        {"scenario": "thm_1d_convergence", "out": 5},
        ["out: must be a directory path"]),
    "thm_1d_convergence__out_null": (
        {"scenario": "thm_1d_convergence", "out": None},
        ["out: must be a directory path"]),
    "thm_1d_convergence__out_other": (
        {"scenario": "thm_1d_convergence", "out": ["a"]},
        ["out: must be a directory path"]),
    "thm_1d_convergence__p_bad": (
        {"scenario": "thm_1d_convergence", "p": -1.0},
        ["p: must be a finite positive number"]),
    "thm_1d_convergence__p_null": (
        {"scenario": "thm_1d_convergence", "p": None},
        ["p: must be a finite positive number"]),
    "thm_1d_convergence__p_other": (
        {"scenario": "thm_1d_convergence", "p": "x"},
        ["p: must be a finite positive number"]),
    "thm_1d_convergence__preset_bad": (
        {"scenario": "thm_1d_convergence", "preset": {"bogus": 1}},
        ["preset: unknown key 'bogus'; preset takes ['name', 'params']"]),
    "thm_1d_convergence__preset_null": (
        {"scenario": "thm_1d_convergence", "preset": None},
        ["preset: must be an object"]),
    "thm_1d_convergence__preset_other": (
        {"scenario": "thm_1d_convergence", "preset": {"name": "foo"}},
        [
            "preset: unknown preset 'foo'; choose from ('ou', 'heat', "
            "'sqrt_diffusion', 'kink_drift', 'degenerate_1d', "
            "'kinetic_langevin')",
        ]),
    "thm_1d_convergence__record_every_bad": (
        {"scenario": "thm_1d_convergence", "record_every": 2.5},
        ["record_every: must be a positive integer"]),
    "thm_1d_convergence__record_every_null": (
        {"scenario": "thm_1d_convergence", "record_every": None},
        ["record_every: must be a positive integer"]),
    "thm_1d_convergence__record_every_other": (
        {"scenario": "thm_1d_convergence", "record_every": "x"},
        ["record_every: must be a positive integer"]),
    "thm_1d_convergence__seed_bad": (
        {"scenario": "thm_1d_convergence", "seed": -1},
        ["seed: must be a nonnegative integer"]),
    "thm_1d_convergence__seed_null": (
        {"scenario": "thm_1d_convergence", "seed": None},
        ["seed: must be a nonnegative integer"]),
    "thm_1d_convergence__seed_other": (
        {"scenario": "thm_1d_convergence", "seed": 1.5},
        ["seed: must be a nonnegative integer"]),
    "thm_1d_convergence__unknown_key": (
        {"scenario": "thm_1d_convergence", "bogus": 1},
        ["bogus: not a parameter of scenario thm_1d_convergence"]),
    "thm_1d_convergence__x0_bad": (
        {"scenario": "thm_1d_convergence", "x0": "abc"},
        ["x0: could not convert string to float: 'abc'"]),
    "thm_1d_convergence__x0_null": (
        {"scenario": "thm_1d_convergence", "x0": None},
        ["x0: initial point x0 must be finite"]),
    "thm_1d_convergence__x0_other": (
        {"scenario": "thm_1d_convergence", "x0": [[0.0]]},
        ["x0: initial spec shape (1, 1) not understood"]),
    "thm_multidim_convergence__T_bad": (
        {"scenario": "thm_multidim_convergence", "T": -1.0},
        ["T: must be a finite positive number"]),
    "thm_multidim_convergence__T_null": (
        {"scenario": "thm_multidim_convergence", "T": None},
        ["T: must be a finite positive number"]),
    "thm_multidim_convergence__T_other": (
        {"scenario": "thm_multidim_convergence", "T": "x"},
        ["T: must be a finite positive number"]),
    "thm_multidim_convergence__deltas_bad": (
        {"scenario": "thm_multidim_convergence", "deltas": [-1.0]},
        [
            "deltas: must be a non-empty list of finite positive numbers",
            "deltas: takes at least 4 scales",
        ]),
    "thm_multidim_convergence__deltas_null": (
        {"scenario": "thm_multidim_convergence", "deltas": None},
        ["deltas: must be a non-empty list of finite positive numbers"]),
    "thm_multidim_convergence__deltas_other": (
        {"scenario": "thm_multidim_convergence", "deltas": 0.5},
        ["deltas: must be a non-empty list of finite positive numbers"]),
    "thm_multidim_convergence__dt_bad": (
        {"scenario": "thm_multidim_convergence", "dt": -1.0},
        ["dt: must be a finite positive number"]),
    "thm_multidim_convergence__dt_other": (
        {"scenario": "thm_multidim_convergence", "dt": "x"},
        ["dt: must be a finite positive number"]),
    "thm_multidim_convergence__epsilons_bad": (
        {"scenario": "thm_multidim_convergence", "epsilons": [-1.0]},
        ["epsilons: must be a non-empty list of finite positive numbers"]),
    "thm_multidim_convergence__epsilons_null": (
        {"scenario": "thm_multidim_convergence", "epsilons": None},
        ["epsilons: must be a non-empty list of finite positive numbers"]),
    "thm_multidim_convergence__epsilons_other": (
        {"scenario": "thm_multidim_convergence", "epsilons": 0.5},
        ["epsilons: must be a non-empty list of finite positive numbers"]),
    "thm_multidim_convergence__grid_bad": (
        {"scenario": "thm_multidim_convergence", "grid": {"bogus": 1}},
        [
            "grid: unknown key 'bogus'; grid takes ['bounds', 'counts', "
            "'periodic']",
        ]),
    "thm_multidim_convergence__grid_null": (
        {"scenario": "thm_multidim_convergence", "grid": None},
        ["grid: must be an object"]),
    "thm_multidim_convergence__grid_other": (
        {"scenario": "thm_multidim_convergence", "grid": {"counts": [3]}},
        ["grid: bounds/counts/periodic must match dimension"]),
    "thm_multidim_convergence__n_deltas": (
        {
            "scenario": "thm_multidim_convergence",
            "deltas": [0.5, 0.25, 0.125],
        },
        ["deltas: takes at least 4 scales"]),
    "thm_multidim_convergence__n_paths_bad": (
        {"scenario": "thm_multidim_convergence", "n_paths": 2.5},
        ["n_paths: must be a positive integer"]),
    "thm_multidim_convergence__n_paths_null": (
        {"scenario": "thm_multidim_convergence", "n_paths": None},
        ["n_paths: must be a positive integer"]),
    "thm_multidim_convergence__n_paths_other": (
        {"scenario": "thm_multidim_convergence", "n_paths": "x"},
        ["n_paths: must be a positive integer"]),
    "thm_multidim_convergence__out_bad": (
        {"scenario": "thm_multidim_convergence", "out": 5},
        ["out: must be a directory path"]),
    "thm_multidim_convergence__out_null": (
        {"scenario": "thm_multidim_convergence", "out": None},
        ["out: must be a directory path"]),
    "thm_multidim_convergence__out_other": (
        {"scenario": "thm_multidim_convergence", "out": ["a"]},
        ["out: must be a directory path"]),
    "thm_multidim_convergence__p_bad": (
        {"scenario": "thm_multidim_convergence", "p": -1.0},
        ["p: must be a finite positive number"]),
    "thm_multidim_convergence__p_null": (
        {"scenario": "thm_multidim_convergence", "p": None},
        ["p: must be a finite positive number"]),
    "thm_multidim_convergence__p_other": (
        {"scenario": "thm_multidim_convergence", "p": "x"},
        ["p: must be a finite positive number"]),
    "thm_multidim_convergence__preset_bad": (
        {"scenario": "thm_multidim_convergence", "preset": {"bogus": 1}},
        ["preset: unknown key 'bogus'; preset takes ['name', 'params']"]),
    "thm_multidim_convergence__preset_null": (
        {"scenario": "thm_multidim_convergence", "preset": None},
        ["preset: must be an object"]),
    "thm_multidim_convergence__preset_other": (
        {"scenario": "thm_multidim_convergence", "preset": {"name": "foo"}},
        [
            "preset: unknown preset 'foo'; choose from ('ou', 'heat', "
            "'sqrt_diffusion', 'kink_drift', 'degenerate_1d', "
            "'kinetic_langevin')",
        ]),
    "thm_multidim_convergence__record_every_bad": (
        {"scenario": "thm_multidim_convergence", "record_every": 2.5},
        ["record_every: must be a positive integer"]),
    "thm_multidim_convergence__record_every_null": (
        {"scenario": "thm_multidim_convergence", "record_every": None},
        ["record_every: must be a positive integer"]),
    "thm_multidim_convergence__record_every_other": (
        {"scenario": "thm_multidim_convergence", "record_every": "x"},
        ["record_every: must be a positive integer"]),
    "thm_multidim_convergence__seed_bad": (
        {"scenario": "thm_multidim_convergence", "seed": -1},
        ["seed: must be a nonnegative integer"]),
    "thm_multidim_convergence__seed_null": (
        {"scenario": "thm_multidim_convergence", "seed": None},
        ["seed: must be a nonnegative integer"]),
    "thm_multidim_convergence__seed_other": (
        {"scenario": "thm_multidim_convergence", "seed": 1.5},
        ["seed: must be a nonnegative integer"]),
    "thm_multidim_convergence__unknown_key": (
        {"scenario": "thm_multidim_convergence", "bogus": 1},
        ["bogus: not a parameter of scenario thm_multidim_convergence"]),
    "thm_multidim_convergence__x0_bad": (
        {"scenario": "thm_multidim_convergence", "x0": "abc"},
        ["x0: could not convert string to float: 'abc'"]),
    "thm_multidim_convergence__x0_null": (
        {"scenario": "thm_multidim_convergence", "x0": None},
        ["x0: initial point x0 must be finite"]),
    "thm_multidim_convergence__x0_other": (
        {"scenario": "thm_multidim_convergence", "x0": [[0.0]]},
        ["x0: initial spec shape (1, 1) not understood"]),
    "threshold_null": (
        {"scenario": "ae_uniqueness_map", "threshold": None},
        ["threshold: must be a finite positive number"]),
    "u0_bad_0_elliptic_energy": (
        {"scenario": "elliptic_energy", "u0": {"std": INF}},
        ["u0: std must be positive and finite, got inf"]),
    "u0_bad_0_kinetic_langevin": (
        {"scenario": "kinetic_langevin", "u0": {"std": INF}},
        ["u0: std must be positive and finite, got inf"]),
    "u0_bad_0_stationary_1d": (
        {"scenario": "stationary_1d", "u0": {"std": INF}},
        ["u0: std must be positive and finite, got inf"]),
    "u0_bad_1_elliptic_energy": (
        {"scenario": "elliptic_energy", "u0": {"mean": NAN}},
        ["u0: mean must be finite, got nan"]),
    "u0_bad_1_kinetic_langevin": (
        {"scenario": "kinetic_langevin", "u0": {"mean": NAN}},
        ["u0: mean must be finite, got nan"]),
    "u0_bad_1_stationary_1d": (
        {"scenario": "stationary_1d", "u0": {"mean": NAN}},
        ["u0: mean must be finite, got nan"]),
    "u0_bad_2_elliptic_energy": (
        {"scenario": "elliptic_energy", "u0": {"mean": 0.0, "std": -1.0}},
        ["u0: std must be positive and finite, got -1.0"]),
    "u0_bad_2_kinetic_langevin": (
        {"scenario": "kinetic_langevin", "u0": {"mean": 0.0, "std": -1.0}},
        ["u0: std must be positive and finite, got -1.0"]),
    "u0_bad_2_stationary_1d": (
        {"scenario": "stationary_1d", "u0": {"mean": 0.0, "std": -1.0}},
        ["u0: std must be positive and finite, got -1.0"]),
    "u0_bad_3_elliptic_energy": (
        {"scenario": "elliptic_energy", "u0": {"kind": "foo"}},
        ["u0: unknown initial density kind 'foo'"]),
    "u0_bad_3_kinetic_langevin": (
        {"scenario": "kinetic_langevin", "u0": {"kind": "foo"}},
        ["u0: unknown initial density kind 'foo'"]),
    "u0_bad_3_stationary_1d": (
        {"scenario": "stationary_1d", "u0": {"kind": "foo"}},
        ["u0: unknown initial density kind 'foo'"]),
    "u0_bad_4_elliptic_energy": (
        {
            "scenario": "elliptic_energy",
            "u0": {"kind": "gaussian", "std": 0.0},
        },
        ["u0: std must be positive and finite, got 0.0"]),
    "u0_bad_4_kinetic_langevin": (
        {
            "scenario": "kinetic_langevin",
            "u0": {"kind": "gaussian", "std": 0.0},
        },
        ["u0: std must be positive and finite, got 0.0"]),
    "u0_bad_4_stationary_1d": (
        {
            "scenario": "stationary_1d",
            "u0": {"kind": "gaussian", "std": 0.0},
        },
        ["u0: std must be positive and finite, got 0.0"]),
    "u0_key_unread": (
        {
            "scenario": "stationary_1d",
            "u0": {"kind": "gaussian", "sdt": 3.0},
        },
        ["u0: unknown key 'sdt'; u0 takes ['kind', 'mean', 'std']"]),
    "u0_mean_infinite": (
        {"scenario": "stationary_1d", "u0": {"mean": INF}},
        ["u0: mean must be finite, got inf"]),
    "u0_std_infinite": (
        {"scenario": "stationary_1d", "u0": {"std": INF}},
        ["u0: std must be positive and finite, got inf"]),
    "u0_three_components_2d": (
        {
            "scenario": "kinetic_langevin",
            "u0": {"mean": [0.0, 0.0, 0.0], "std": [0.3, 0.5, 1.0]},
        },
        [
            "u0: mean and std must each have 1 or 2 components, got (3,)"
            " and (3,)",
        ]),
    "uniqueness_dt_above_the_cap": (
        {"scenario": "ae_uniqueness_map", "dt": 0.3},
        ["dt: dt=3.000e-01 exceeds the stability cap 1.111e-02"]),
    "unknown_scenario": (
        {"scenario": "frobnicate"},
        [
            "scenario: 'frobnicate' unknown; choose from "
            "['ae_uniqueness_map', 'elliptic_energy', "
            "'kinetic_langevin', 'norm_audit', 'stationary_1d', "
            "'thm_1d_convergence', 'thm_multidim_convergence']",
        ]),
    "x0_of_two_components_in_1d": (
        {"scenario": "thm_1d_convergence", "x0": [0.0, 0.0]},
        ["x0: initial spec shape (2,) not understood"]),
    "x_span_above_one": (
        {"scenario": "ae_uniqueness_map", "x_span": 3.0},
        ["x_span: must be a number in (0, 1]"]),
    "x_span_negative": (
        {"scenario": "ae_uniqueness_map", "x_span": -0.5},
        ["x_span: must be a number in (0, 1]"]),
    "x_span_zero": (
        {"scenario": "ae_uniqueness_map", "x_span": 0.0},
        ["x_span: must be a number in (0, 1]"]),
    # an unknown key in an object does not keep its grid or preset from
    # being built, so both builders' errors are listed with it
    "combined__grid_unknown_key_and_bad_preset": (
        {"scenario": "elliptic_energy", "grid": {"bogus": 1},
         "preset": {"name": "foo"}},
        [
            "grid: unknown key 'bogus'; grid takes ['bounds', 'counts', "
            "'periodic']",
            "preset: unknown preset 'foo'; choose from ('ou', 'heat', "
            "'sqrt_diffusion', 'kink_drift', 'degenerate_1d', "
            "'kinetic_langevin')",
        ]),
    "combined__grid_unknown_key_and_bad_count": (
        {"scenario": "elliptic_energy", "grid": {"bogus": 1, "counts": [3]}},
        [
            "grid: cell count must be an integer >= 8, got 3",
            "grid: unknown key 'bogus'; grid takes ['bounds', 'counts', "
            "'periodic']",
        ]),
    "combined__bad_preset_and_bad_grid_count": (
        {"scenario": "stationary_1d", "grid": {"counts": [3]},
         "preset": {"name": "foo"}},
        ["grid: cell count must be an integer >= 8, got 3"]),
    "combined__preset_unknown_key_and_bad_grid_bounds": (
        {"scenario": "norm_audit", "preset": {"bogus": 1},
         "grid": {"bounds": [[4.0, -4.0]]}},
        [
            "grid: grid bounds must satisfy lower < upper",
            "preset: unknown key 'bogus'; preset takes ['name', 'params']",
        ]),
    "combined__preset_unknown_key_and_bad_preset_name": (
        {"scenario": "thm_1d_convergence",
         "preset": {"name": "foo", "bogus": 1}},
        [
            "preset: unknown key 'bogus'; preset takes ['name', 'params']",
            "preset: unknown preset 'foo'; choose from ('ou', 'heat', "
            "'sqrt_diffusion', 'kink_drift', 'degenerate_1d', "
            "'kinetic_langevin')",
        ]),
    "combined__grid_and_preset_unknown_keys_and_bad_preset": (
        {"scenario": "kinetic_langevin", "grid": {"bogus": 1},
         "preset": {"bogus": 2, "name": "foo"}},
        [
            "grid: unknown key 'bogus'; grid takes ['bounds', 'counts', "
            "'periodic']",
            "preset: unknown key 'bogus'; preset takes ['name', 'params']",
            "preset: unknown preset 'foo'; choose from ('ou', 'heat', "
            "'sqrt_diffusion', 'kink_drift', 'degenerate_1d', "
            "'kinetic_langevin')",
        ]),
    "combined__law_unknown_key_and_bad_preset": (
        {"scenario": "norm_audit", "law": {"bogus": 1},
         "preset": {"name": "foo"}},
        [
            "law: unknown key 'bogus'; law takes ['mean', 'std']",
            "preset: unknown preset 'foo'; choose from ('ou', 'heat', "
            "'sqrt_diffusion', 'kink_drift', 'degenerate_1d', "
            "'kinetic_langevin')",
        ]),
    "combined__u0_unknown_key_and_bad_grid_count": (
        {"scenario": "stationary_1d", "u0": {"bogus": 1},
         "grid": {"counts": [3]}},
        [
            "grid: cell count must be an integer >= 8, got 3",
            "u0: unknown key 'bogus'; u0 takes ['kind', 'mean', 'std']",
        ]),
    # a config object given as another value, and a block_eps that is not
    # a pair: each is its key's rule error, not a builder's Python message
    "non_object__grid_number": (
        {"scenario": "stationary_1d", "grid": 5},
        ["grid: must be an object"]),
    "non_object__u0_string": (
        {"scenario": "kinetic_langevin", "u0": "x"},
        ["u0: must be an object"]),
    "non_object__law_list": (
        {"scenario": "norm_audit", "law": []},
        ["law: must be an object"]),
    "block_eps_three_numbers": (
        {"scenario": "thm_1d_convergence", "block_eps": [0.1, 0.2, 0.3]},
        ["block_eps: must be a list of two finite numbers"]),
}


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_bad_config_keeps_its_error_texts(case):
    cfg, errors = CORPUS[case]
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    assert sorted(exc.value.errors) == errors


@pytest.mark.parametrize("case", [
    "non_object__grid_number", "non_object__u0_string",
    "non_object__law_list", "block_eps_three_numbers",
    "thm_1d_convergence__block_eps_null", "norm_audit__preset_null",
])
def test_a_non_object_or_a_malformed_block_eps_exits_2(case, tmp_path, capsys):
    _rejected(*CORPUS[case], tmp_path, capsys)
