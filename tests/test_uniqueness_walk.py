"""``uniqueness_map`` as one family walk, and the input checks around it.

The map runs both regularization builds in one ``simulate_family`` call and
reads the coupling gap at the last stamp. A test-side copy of the earlier
two-walk version (two ``simulate_ensemble`` calls, stamps aligned by
rounded-time intersection) pins it bit for bit. The step is dyadic, so the
copy's 12-decimal rounding of the stamps is exact; with another step the
two trapezoids weigh by times that differ in the last bits. Up to 33
recorded stamps: from 9 on, a per-path trapezoid adds in another order
when its stamps are a contiguous view rather than an index-array copy.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdelab.sde as sde_module
from sdelab import (
    BrownianStore,
    ConfigError,
    Law,
    make_grid,
    mollify,
    preset_field,
    simulate_ensemble,
    uniqueness_map,
    validate_config,
)
from sdelab.maxops import gradient_magnitude, maximal, maximal_modified
from sdelab.runner import main
from sdelab.sde import path_time_integrals

GRID = make_grid(1, (-4.0, 4.0), 256)
BASE = preset_field("sqrt_diffusion", {"kappa": 0.0}, GRID)
FIELD_A, FIELD_B = mollify(BASE, 2.0 ** -2), mollify(BASE, 2.0 ** -3)
DT = 2.0 ** -8
STORE = BrownianStore.generate(3, 5 * 20, 512, DT)


def _two_walk_map(x_points, fieldA, fieldB, eps_list, t, n_paths, store,
                  base_field):
    """The two-walk version: one ``simulate_ensemble`` per build, stamps
    aligned on their 12-decimal rounding, integrand stamps as indices."""
    x_points = np.asarray(x_points, dtype=float)
    n_x = x_points.size
    x0 = np.repeat(x_points, n_paths)
    sub = store.prefix(n_x * n_paths)
    ensA = simulate_ensemble(fieldA, x0, t, sub, record_every=16)
    ensB = simulate_ensemble(fieldB, x0, t, sub, record_every=16)
    common = np.intersect1d(np.round(ensA.times, 12), np.round(ensB.times, 12))
    ia = np.searchsorted(np.round(ensA.times, 12), common)
    ib = np.searchsorted(np.round(ensB.times, 12), common)
    kt = int(np.argmin(np.abs(common - t)))
    gap = np.abs(ensA.paths[:, ia[kt], 0] - ensB.paths[:, ib[kt], 0])
    n_eps = gap.reshape(n_x, n_paths).mean(axis=1)
    g = base_field.grid
    msig = maximal(gradient_magnitude(
        base_field.diffusion.reshape(g.shape + (-1,)), g), g) ** 2
    absF = np.linalg.norm(base_field.drift, axis=-1)
    gF = gradient_magnitude(base_field.drift, g)
    upto = common <= t + 1e-12
    m_eps = {}
    for eps in eps_list:
        integrand = msig + absF + maximal_modified(gF, g, 1.0 / eps)
        per_path = path_time_integrals(ensA.paths, g, integrand, common[upto],
                                       ia[upto])
        m_eps[float(eps)] = per_path.reshape(n_x, n_paths).mean(axis=1)
    return n_eps, m_eps


@settings(max_examples=40, deadline=None)
@given(x_points=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5),
       n_paths=st.integers(2, 20),
       eps_list=st.lists(st.sampled_from([1.0, 0.5, 1e-1, 1e-2, 1e-3]),
                         min_size=1, max_size=3, unique=True),
       steps=st.integers(1, 512))
def test_family_walk_matches_the_two_walk_map(x_points, n_paths, eps_list,
                                              steps):
    t = steps * DT
    rep = uniqueness_map(x_points, FIELD_A, FIELD_B, eps_list, t, n_paths,
                         STORE, base_field=BASE)
    n_eps, m_eps = _two_walk_map(x_points, FIELD_A, FIELD_B, eps_list, t,
                                 n_paths, STORE, BASE)
    assert np.array_equal(rep.details["E_abs_delta"], n_eps)
    assert list(rep.details["M_eps"]) == list(m_eps)
    for eps, values in m_eps.items():
        assert np.array_equal(rep.details["M_eps"][eps], values)
    assert rep.details["fraction_below"] == float(np.mean(n_eps <= 0.02))


# -- the epsilons are checked before the walk ---------------------------------


@pytest.mark.parametrize("eps_list", [[0.0], [0.1, 2.0], [-0.5], [np.nan]])
def test_uniqueness_map_rejects_eps_outside_unit_interval(eps_list,
                                                          monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("the walk ran before the check")

    monkeypatch.setattr(sde_module, "simulate_family", no_walk)
    with pytest.raises(ValueError, match="eps must lie in"):
        uniqueness_map([0.0], FIELD_A, FIELD_B, eps_list, 1.0, 2, STORE)


def test_uniqueness_map_accepts_eps_of_one():
    rep = uniqueness_map([0.0], FIELD_A, FIELD_B, [1.0], 0.25, 2, STORE)
    assert np.all(rep.details["M_eps"][1.0] > 0)


# -- config checks: x_span, epsilons, the norm_audit law ---------------------

REJECTED = {
    "x_span_above_one": ({"scenario": "ae_uniqueness_map", "x_span": 3.0},
                         "x_span"),
    "x_span_zero": ({"scenario": "ae_uniqueness_map", "x_span": 0.0},
                    "x_span"),
    "x_span_negative": ({"scenario": "ae_uniqueness_map", "x_span": -0.5},
                        "x_span"),
    "epsilon_above_one": ({"scenario": "ae_uniqueness_map",
                           "epsilons": [0.1, 2.0]}, "epsilons"),
    "law_negative_std": ({"scenario": "norm_audit",
                          "law": {"mean": 0.0, "std": -1.0}}, "law"),
    "law_std_only": ({"scenario": "norm_audit", "law": {"std": -1.0}}, "law"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_config_fails_validate_and_run(case, tmp_path, capsys):
    cfg, key = REJECTED[case]
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
    {"scenario": "ae_uniqueness_map", "x_span": 1.0},
    {"scenario": "ae_uniqueness_map", "epsilons": [1.0, 0.5]},
    {"scenario": "norm_audit", "law": {"mean": 0.5, "std": 0.25}},
])
def test_values_inside_the_rules_validate(cfg):
    validate_config(cfg)


@pytest.mark.parametrize("kwargs, name", [
    ({"std": 0.0}, "std"),
    ({"std": -1.0}, "std"),
    ({"std": np.inf}, "std"),
    ({"std": np.nan}, "std"),
    ({"mean": np.nan}, "mean"),
    ({"mean": -np.inf}, "mean"),
])
def test_gaussian_law_rejects_bad_mean_or_std(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        Law.gaussian(GRID, [0.0], **kwargs)
