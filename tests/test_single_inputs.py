"""Each input is written once: the preset table, the mollifier lattice, the
Gaussian profile and the config merge.

``preset_field`` reads one table and ``Mollifier`` builds its taps in one
body for any dimension. The oracles below are the per-branch
``preset_field`` and the separate 1-D and 2-D tap bodies that the table and
the one body replaced, kept on the test side only: the new code must give
the same arrays and errors. The ``u0`` Gaussian of the PDE
scenarios is ``Law.gaussian``'s profile with ``Law.gaussian``'s checks, and
a config object given for an object default merges over it.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import (
    CoefficientField,
    ConfigError,
    Law,
    Mollifier,
    make_grid,
    preset_field,
    run_scenario,
    validate_config,
)
from sdelab.fields import PRESET_NAMES
from sdelab.laws import _gaussian
from sdelab.runner import SCENARIOS, _initial_density, _merged, main

_PDE = ("stationary_1d", "elliptic_energy", "kinetic_langevin")


# -- oracles: the per-branch preset_field and the two tap bodies --------------

def _clip_abs(x):
    return np.minimum(np.abs(x), 1.0)


def _preset_oracle(name, params, grid):
    params = dict(params or {})
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    if name == "kinetic_langevin":
        if grid.d != 2:
            raise ValueError("kinetic_langevin needs a 2-D (x, v) phase-space grid")
        beta = float(params.pop("beta", 1.0))
        temp = float(params.pop("temp", 0.5))
        if params:
            raise ValueError(f"unexpected parameters {sorted(params)}")
        if temp < 0:
            raise ValueError("temp must be >= 0")
        x, v = grid.meshgrid()
        drift = np.stack([v, -beta * _clip_abs(x) * np.sign(x)], axis=-1)
        diffusion = np.zeros(grid.shape + (2, 1))
        diffusion[..., 1, 0] = np.sqrt(2.0 * temp)
        return CoefficientField(grid, drift, diffusion)
    if name in ("ou", "heat"):
        if params:
            raise ValueError(f"unexpected parameters {sorted(params)}")
        pts = np.stack(grid.meshgrid(), axis=-1)
        scale = np.sqrt(2.0) if name == "ou" else 1.0
        drift = -pts if name == "ou" else np.zeros_like(pts)
        diffusion = np.broadcast_to(
            scale * np.eye(grid.d), grid.shape + (grid.d, grid.d)).copy()
        return CoefficientField(grid, drift, diffusion)
    if grid.d != 1:
        raise ValueError(f"preset {name!r} is one-dimensional")
    x = grid.nodes(0)
    if name == "sqrt_diffusion":
        kappa = float(params.pop("kappa", 0.0))
        if params:
            raise ValueError(f"unexpected parameters {sorted(params)}")
        if kappa < 0:
            raise ValueError("kappa must be >= 0")
        F, sig = np.zeros_like(x), np.sqrt(_clip_abs(x) + kappa)
    elif name == "kink_drift":
        beta = float(params.pop("beta", 1.0))
        sigma0 = float(params.pop("sigma", 1.0))
        if params:
            raise ValueError(f"unexpected parameters {sorted(params)}")
        F, sig = beta * _clip_abs(x) * np.sign(x), np.full_like(x, sigma0)
    else:
        if params:
            raise ValueError(f"unexpected parameters {sorted(params)}")
        F, sig = np.zeros_like(x), _clip_abs(x)
    return CoefficientField(grid, F[:, None], sig[:, None, None])


def _taps_1d_oracle(moll, h):
    if moll.delta < 2.0 * h:
        raise ValueError("under-resolved")
    k = int(np.ceil(moll.delta / h)) - 1
    w = moll.profile(h * np.arange(-k, k + 1))
    return w / w.sum()


def _taps_2d_oracle(moll, h):
    if moll.delta < 2.0 * max(h):
        raise ValueError("under-resolved")
    ks = [int(np.ceil(moll.delta / hi)) - 1 for hi in h]
    oi = h[0] * np.arange(-ks[0], ks[0] + 1)
    oj = h[1] * np.arange(-ks[1], ks[1] + 1)
    w = moll.profile(np.hypot(oi[:, None], oj[None, :]))
    return w / w.sum()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return exc


# -- preset_field: one table --------------------------------------------------

_PARAM = st.one_of(st.floats(-2.0, 3.0), st.sampled_from([0.0, -0.0, "x"]))


@st.composite
def _preset_inputs(draw):
    name = draw(st.sampled_from(PRESET_NAMES + ("nope",)))
    d = draw(st.sampled_from([1, 2]))
    periodic = draw(st.booleans())
    counts = draw(st.integers(8, 40))
    grid = make_grid(1, (-3.0, 2.0), counts, periodic=periodic) if d == 1 \
        else make_grid(2, ((-3.0, 2.0), (-1.0, 4.0)), counts, periodic=periodic)
    keys = draw(st.lists(st.sampled_from(["kappa", "temp", "beta", "sigma",
                                          "extra"]), unique=True, max_size=3))
    params = {k: draw(_PARAM) for k in keys}
    return name, draw(st.sampled_from([params, params, None])), grid


@settings(max_examples=300, deadline=None)
@given(inputs=_preset_inputs())
def test_preset_table_equals_the_per_branch_presets(inputs):
    name, params, grid = inputs
    got = _outcome(preset_field, name, params, grid)
    want = _outcome(_preset_oracle, name, params, grid)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert isinstance(got, CoefficientField)
    assert np.array_equal(got.drift, want.drift)
    assert np.array_equal(got.diffusion, want.diffusion)
    assert np.array_equal(np.signbit(got.drift), np.signbit(want.drift))


def test_preset_names_keep_their_order():
    assert PRESET_NAMES == ("ou", "heat", "sqrt_diffusion", "kink_drift",
                            "degenerate_1d", "kinetic_langevin")


# -- Mollifier: one taps body for any dimension -------------------------------

@settings(max_examples=200, deadline=None)
@given(h0=st.floats(0.005, 0.2), ratio=st.floats(0.25, 4.0),
       counts=st.integers(16, 256), frac=st.floats(0.0, 1.0))
def test_one_taps_body_equals_the_1d_and_2d_bodies(h0, ratio, counts, frac):
    h = (h0, h0 * ratio)  # anisotropic cells
    # delta from two (widest) cells to a quarter of the narrowest box side
    lo = 2.0 * max(h)
    hi = max(lo, counts * min(h) / 4.0)
    moll = Mollifier(lo + frac * (hi - lo))
    assert np.array_equal(moll.taps_1d(h[0]), _taps_1d_oracle(moll, h[0]))
    assert np.array_equal(moll.taps_radial(h[:1]), moll.taps_1d(h[0]))
    assert np.array_equal(moll.taps_radial(h), _taps_2d_oracle(moll, h))


@settings(max_examples=100, deadline=None)
@given(h0=st.floats(0.005, 0.2), ratio=st.floats(0.25, 4.0),
       frac=st.floats(0.05, 0.999))
def test_under_resolved_taps_raise_in_every_dimension(h0, ratio, frac):
    h = (h0, h0 * ratio)
    moll = Mollifier(frac * 2.0 * max(h))  # below two of the widest cells
    with pytest.raises(ValueError, match="under-resolved"):
        moll.taps_radial(h)
    with pytest.raises(ValueError, match="under-resolved"):
        moll.taps_1d(max(h))


# -- the Gaussian profile: one formula, Law.gaussian's checks -----------------

def test_law_gaussian_is_the_shared_profile_normalised():
    grid = make_grid(1, (-4.0, 4.0), 64)
    u = _gaussian(grid, 0.5, 0.75)
    x = grid.nodes(0)
    assert np.array_equal(u, np.exp(-0.5 * ((x - 0.5) / 0.75) ** 2))
    law = Law.gaussian(grid, [0.0, 1.0], 0.5, 0.75)
    assert np.array_equal(law.density[0], Law.from_slices(grid, [0.0], u).density[0])


_BAD_U0 = {
    "std_infinite": ("stationary_1d", {"std": float("inf")}, "std must be"),
    "mean_infinite": ("stationary_1d", {"mean": float("inf")}, "mean must be"),
    "three_components_2d": ("kinetic_langevin",
                            {"mean": [0.0, 0.0, 0.0], "std": [0.3, 0.5, 1.0]},
                            "must each have 1 or 2 components"),
}


@pytest.mark.parametrize("case", sorted(_BAD_U0))
def test_bad_gaussian_u0_fails_validate_and_run(case, tmp_path, capsys):
    name, u0, message = _BAD_U0[case]
    cfg = {"scenario": name, "u0": u0}
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    assert any(e.startswith("u0:") and message in e for e in exc.value.errors), \
        exc.value.errors
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))  # infinities as JSON Infinity
    capsys.readouterr()
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "invalid: u0:" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", _PDE)
@pytest.mark.parametrize("u0", [{"std": float("inf")}, {"mean": float("nan")},
                                {"mean": 0.0, "std": -1.0}])
def test_bad_gaussian_u0_fails_in_every_pde_scenario(name, u0):
    with pytest.raises(ConfigError) as exc:
        validate_config({"scenario": name, "u0": u0})
    assert exc.value.errors and all(e.startswith("u0:")
                                    for e in exc.value.errors)


# -- config objects merge over their defaults ---------------------------------

NESTED = {
    "law_std_only": ({"scenario": "norm_audit", "law": {"std": 2.0}},
                     "law", {"mean": 0.0, "std": 2.0}),
    "grid_counts_only": ({"scenario": "stationary_1d", "grid": {"counts": [512]}},
                         "grid", {"bounds": [[-6.0, 6.0]], "counts": [512],
                                  "periodic": False}),
    "preset_params_only": ({"scenario": "norm_audit",
                            "preset": {"params": {"kappa": 0.5}}},
                           "preset", {"name": "sqrt_diffusion",
                                      "params": {"kappa": 0.5}}),
}


@pytest.mark.parametrize("case", sorted(NESTED))
def test_partial_nested_config_validates_and_runs(case, tmp_path, capsys):
    cfg, key, merged = NESTED[case]
    assert validate_config(cfg)[key] == merged
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) in (0, 1)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["complete"] is True
    assert manifest["config"][key] == merged


def test_another_name_or_kind_replaces_the_default_object():
    assert validate_config({"scenario": "norm_audit",
                            "preset": {"name": "ou"}})["preset"] == {"name": "ou"}
    assert validate_config({"scenario": "elliptic_energy",
                            "u0": {"kind": "uniform"}})["u0"] == {"kind": "uniform"}
    # the same kind merges
    assert validate_config({"scenario": "elliptic_energy",
                            "u0": {"kind": "gaussian", "std": 0.5}})["u0"] == \
        {"kind": "gaussian", "mean": 0.0, "std": 0.5}


def test_merged_runs_like_the_default_config(tmp_path):
    a = run_scenario({"scenario": "norm_audit", "law": {"std": 1.0}},
                     out_dir=tmp_path / "a")
    b = run_scenario({"scenario": "norm_audit"}, out_dir=tmp_path / "b")
    assert a.manifest == b.manifest


@st.composite
def _part_of(draw, value):
    """A sub-object of ``value`` at every depth, or the value itself."""
    if not isinstance(value, dict) or not value:
        return value
    keys = draw(st.lists(st.sampled_from(sorted(value)), unique=True))
    return {k: draw(_part_of(value[k])) for k in keys}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_part_of_a_default_merges_back_to_the_default(data):
    name = data.draw(st.sampled_from(sorted(SCENARIOS)))
    key = data.draw(st.sampled_from(sorted(SCENARIOS[name].defaults)))
    default = SCENARIOS[name].defaults[key]
    assert _merged(default, data.draw(_part_of(default))) == default
    # anything but an object, or an object naming another name or kind,
    # replaces the default whole
    other = data.draw(st.one_of(st.none(), st.floats(0.1, 2.0),
                                st.just({"name": "other"}),
                                st.just({"kind": "other", "std": 1.0})))
    assert _merged(default, other) == other


# -- a spike u0 has one finite position component per grid axis ----------------

_BAD_SPIKES = {
    "three_components_2d": [0, 0, 0],
    "one_component_2d": [0.5],
    "non_finite_2d": [0.0, float("nan")],
}


@pytest.mark.parametrize("case", sorted(_BAD_SPIKES))
def test_bad_spike_position_fails_validate_and_run(case, tmp_path, capsys):
    cfg = {"scenario": "kinetic_langevin",
           "u0": {"kind": "spike", "position": _BAD_SPIKES[case]}}
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    assert exc.value.errors and all(
        e.startswith("u0:") and "spike position must have 2 finite" in e
        for e in exc.value.errors), exc.value.errors
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "invalid: u0:" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_spike_puts_its_mass_on_one_node():
    plane = make_grid(2, ((-2.0, 2.0), (-3.0, 3.0)), 16)
    for spec in ({"kind": "spike", "position": [0.5, -1.0]}, {"kind": "spike"}):
        assert np.count_nonzero(_initial_density(plane, spec)) == 1
    line = make_grid(1, (-4.0, 4.0), 64)
    assert np.array_equal(
        _initial_density(line, {"kind": "spike", "position": 0.25}),
        _initial_density(line, {"kind": "spike", "position": [0.25]}))
    assert np.count_nonzero(
        _initial_density(line, {"kind": "spike", "position": 0.25})) == 1
