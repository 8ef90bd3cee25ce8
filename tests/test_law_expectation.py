"""``Law.expectation`` contracts the density with the values before it
scales by the cell volume, so integrating against a law allocates nothing
law-sized; the eta matrix of ``cauchy_diagnostic`` then holds one law and
the binning temporaries of one path block at a time. Seeds up to
2^128 - 1 key the noise; a larger one is a config error before any run
tree exists."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import (
    BrownianStore,
    ConfigError,
    Law,
    cauchy_diagnostic,
    make_grid,
    mollify,
    preset_field,
    run_scenario,
    simulate_ensemble,
    simulate_family,
    validate_config,
)
from sdelab.runner import _plan, main

U = 2.0 ** -53  # unit roundoff


def _grid(d, lower, spans, counts):
    bounds = ((lower[0], lower[0] + spans[0]) if d == 1 else
              tuple((lo, lo + s) for lo, s in zip(lower, spans)))
    return make_grid(d, bounds, counts[0] if d == 1 else list(counts))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([1, 2]),
       dyadic=st.booleans(), nt=st.integers(1, 5),
       signed=st.booleans(), magnitude=st.floats(-3.0, 3.0))
def test_expectation_equals_scaled_density_product(seed, d, dyadic, nt,
                                                   signed, magnitude):
    """Bit for bit the old ``(cell_volume * density) @ values`` on grids
    whose cell volume is a power of two; on any other grid within the a
    priori bound of two n-term dot products and the two scalings,
    2 (n + 3) u times cell_volume * (density @ |values|) per stamp (random
    data on 1 500 such grids moved by at most 2e-15 of that)."""
    rng = np.random.default_rng(seed)
    counts = [int(2 ** rng.integers(3, 9)) for _ in range(d)]
    lower = [float(rng.integers(-8, 1)) for _ in range(d)]
    spans = ([2.0 ** int(rng.integers(-2, 5)) for _ in range(d)] if dyadic
             else [float(rng.uniform(0.5, 20.0)) for _ in range(d)])
    grid = _grid(d, lower, spans, counts)
    if dyadic:
        assert np.frexp(grid.cell_volume)[0] == 0.5
    law = Law.from_slices(grid, np.arange(nt, dtype=float),
                          rng.random((nt,) + grid.shape))
    values = (rng.normal(size=grid.shape) if signed
              else rng.random(grid.shape)) * 10.0 ** magnitude
    flat, v = law.density.reshape(nt, -1), values.reshape(-1)
    old = (grid.cell_volume * flat) @ v
    new = law.expectation(values)
    if dyadic:
        assert np.array_equal(new, old)
    else:
        scale = grid.cell_volume * (flat @ np.abs(v))
        assert np.all(np.abs(new - old) <= 2 * (v.size + 3) * U * scale)


def _coupled_family():
    """perfbench's coupled_family pass: six mollified sqrt_diffusion fields
    on 8 192 cells, one store of 1 000 paths x 256 steps, each member
    recorded every 8 steps (33 stamps)."""
    grid = make_grid(1, (-4.0, 4.0), 8192)
    base = preset_field("sqrt_diffusion", {"kappa": 0.0}, grid)
    store = BrownianStore.generate(7, 1000, 256, 1.0 / 256)
    return [simulate_ensemble(mollify(base, 2.0 ** -k), 0.0, 1.0, store,
                              record_every=8) for k in range(4, 10)]


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _law_bytes(ens):
    return ens.times.size * int(np.prod(ens.grid.shape)) * 8


@pytest.fixture(scope="module")
def family():
    return _coupled_family()


def test_integrating_against_a_law_allocates_nothing_law_sized(family):
    """expectation and time_integral peak below 0.05 laws (a whole law
    with the scaled copy)."""
    law = Law.from_ensemble(family[0])
    values = np.abs(family[0].field.drift[:, 0])
    for fn in (lambda: law.expectation(values),
               lambda: law.time_integral(values, 1.0)):
        assert _peak(fn) < 0.05 * law.density.nbytes


def test_cauchy_diagnostic_peak_at_coupled_family_shape(family):
    """One law and one block's binning temporaries: at or below 1.65 laws
    of one member (2.22 with a scaled copy per eta entry)."""
    peak = _peak(lambda: cauchy_diagnostic(family, p=2.0))
    assert peak <= 1.65 * _law_bytes(family[0]), peak / _law_bytes(family[0])


def test_cauchy_diagnostic_peak_in_2d():
    """The default thm_multidim_convergence plan (four members of 1 000
    paths, 17 stamps on 257^2 nodes): at or below 1.65 laws (2.19 with a
    scaled copy per eta entry)."""
    cfg, plan = _plan({"scenario": "thm_multidim_convergence"})
    store = BrownianStore.generate(cfg["seed"], cfg["n_paths"],
                                   plan["steps"], plan["dt"], plan["field"].r)
    ens = simulate_family(plan["fields"], cfg["x0"], cfg["T"], store,
                          record_every=cfg["record_every"])
    peak = _peak(lambda: cauchy_diagnostic(ens, p=2.0))
    assert peak <= 1.65 * _law_bytes(ens[0]), peak / _law_bytes(ens[0])


@pytest.mark.parametrize("seed", [2 ** 63, 2 ** 64 - 1])
def test_generate_keys_philox_with_the_seed_as_a_python_int(seed):
    """Below 2^64 the stream of ``Philox(key=np.uint64(seed))``, also past
    the int64 range that ``test_store_layout`` draws from."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    store = BrownianStore.generate(seed, 3, 5, 0.25, 2)
    assert np.array_equal(store.increments,
                          rng.standard_normal((3, 5, 2)) * np.sqrt(0.25))


@pytest.mark.parametrize("seed", [2 ** 64, 2 ** 128 - 1])
def test_seed_of_2_to_the_64_or_more_runs(seed, tmp_path):
    cfg = {"scenario": "thm_1d_convergence", "n_paths": 4, "T": 0.125,
           "seed": seed}
    assert validate_config(cfg)["seed"] == seed
    art = run_scenario(cfg, out_dir=tmp_path / "run")
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["complete"] and manifest["config"]["seed"] == seed
    assert art.manifest == manifest


@pytest.mark.parametrize("scenario", ["thm_multidim_convergence",
                                      "thm_1d_convergence",
                                      "ae_uniqueness_map"])
@pytest.mark.parametrize("seed", [2 ** 128, 2 ** 200])
def test_seed_philox_rejects_is_a_config_error(scenario, seed, tmp_path,
                                               capsys):
    """A seed of 2^128 or more: a ``seed:`` ConfigError, exit status 2 from
    ``validate`` and ``run`` with no traceback, and no run tree."""
    cfg = {"scenario": scenario, "seed": seed}
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    assert [e.split(":")[0] for e in exc.value.errors] == ["seed"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("invalid: seed:") == 2 and "Traceback" not in err
    assert not out.exists()
