"""Scenario orchestration and command-line front end.

A scenario is a fixed composition of the library's operations, configured by
a single JSON file. Every run writes an output tree::

    <out>/manifest.json     config echo, content hash, file digests, checks
    <out>/reports/*.json    structured check results
    <out>/series/*.csv      tidy tables (one row per observation)

Reruns with the same config and seed are bit-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .fields import Mollifier, make_grid, mollify, preset_field
from .fpe import (
    _project_initial,
    cfl_cap_1d,
    cfl_cap_kinetic,
    energy_monitor,
    max_principle_check,
    plan_steps,
    solve_fp_1d,
    solve_kinetic,
    stationary_bound_check,
)
from .laws import Law, _gaussian, _user_steps
from .maxops import gradient_magnitude, half_derivative, maximal
from .norms import (
    _check_probe_kind,
    _l_grid,
    h1_norm,
    h_half_norm,
    semicontinuity_probe,
    w11_norm,
    wphi_weak_norm,
)
from .report import Report, _jsonable, write_csv, write_json
from .sde import (
    BrownianStore,
    _check_cauchy,
    _check_family,
    _check_paths,
    _check_uniqueness,
    cauchy_diagnostic,
    dyadic_block_averages,
    dyadic_eps_schedule,
    l_eps_functional,
    q_functional,
    q_tilde_functional,
    simulate_family,
    stability_cap,
    uniqueness_map,
)

__all__ = [
    "SCENARIOS",
    "ConfigError",
    "RunArtifact",
    "validate_config",
    "run_scenario",
    "main",
]

MAX_EXIT_FRACTION = 1e-3


class ConfigError(ValueError):
    """Carries the full list of validation problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class RunArtifact:
    out_dir: Path
    manifest: dict

    @property
    def passed(self) -> bool:
        return bool(self.manifest["passed"])

    @property
    def files(self) -> list:
        return sorted(self.manifest["files"])


@dataclass(frozen=True)
class _Scenario:
    """What ``list-scenarios`` prints, the default config, the plan pieces
    ``piece(cfg, plan)`` that ``_plan`` walks, the ``body(cfg, plan, emit)``
    of the run, and the (least, most) number of ``deltas``, checked with the
    single values so that its error is listed with theirs."""
    description: str
    defaults: dict
    pieces: tuple
    body: Callable
    n_deltas: tuple = (0, None)


# -- validation ---------------------------------------------------------------

def _number(v) -> bool:
    """A finite number: no JSON boolean, NaN, infinity or integer beyond
    the float range."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and \
        abs(v) <= sys.float_info.max


def _free(v) -> bool:
    """No JSON boolean in v, at any depth."""
    if isinstance(v, dict):
        return all(map(_free, v.values()))
    if isinstance(v, list):
        return all(map(_free, v))
    return not isinstance(v, bool)


_FREE = (_free, "free of booleans")
_POSITIVE = (lambda v: _number(v) and v > 0, "a finite positive number")
_COUNT = (lambda v: _number(v) and v > 0 and isinstance(v, int),
          "a positive integer")
_SCALES = (lambda v: isinstance(v, list) and bool(v) and
           all(_number(x) and x > 0 for x in v),
           "a non-empty list of finite positive numbers")
_PERIODIC = (lambda v: all(isinstance(x, bool) for x in
                           (v if isinstance(v, list) else [v])),
             "a boolean or a list of booleans")
# each config key's rule, (test, what a value must be), or for an object the
# rules of the keys it takes, a u0's by kind; the builders check the rest
_RULES = {
    "seed": (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
             "a nonnegative integer"),
    "out": (lambda v: isinstance(v, str), "a directory path"),
    "T": _POSITIVE,
    "dt": _POSITIVE,
    "p": _POSITIVE,
    "C": _POSITIVE,
    "threshold": _POSITIVE,
    "n_paths": _COUNT,
    "n_points": _COUNT,
    "record_every": _COUNT,
    "deltas": _SCALES,
    "epsilons": _SCALES,
    "alphas": _SCALES,
    "L_grid": _SCALES,
    "rtol": (lambda v: _number(v) and v >= 0, "a finite number >= 0"),
    "x_span": (lambda v: _number(v) and 0 < v <= 1, "a number in (0, 1]"),
    "x0": _FREE,
    "block_eps": _FREE,
    "probe_kind": _FREE,
    "grid": {"bounds": _FREE, "counts": _FREE, "periodic": _PERIODIC},
    "preset": {"name": _FREE, "params": _FREE},
    "law": {"mean": _FREE, "std": _FREE},
    "u0": {"gaussian": {"kind": _FREE, "mean": _FREE, "std": _FREE},
           "spike": {"kind": _FREE, "position": _FREE},
           "uniform": {"kind": _FREE}},
}


def _built(key, fn, *args, overflow=None, memory=None):
    """fn(*args); what it raises for a bad value becomes a ConfigError keyed
    by the config field ``key``, an OverflowError by ``overflow`` if given
    (a step rule's T/dt past every integer is a horizon T too long) and a
    MemoryError by ``memory`` if given (a preset too large for memory is a
    grid too large)."""
    try:
        return fn(*args)
    except OverflowError as exc:
        raise ConfigError([f"{overflow or key}: out of range ({exc})"]) from None
    except MemoryError as exc:
        raise ConfigError([f"{memory or key}: {exc}"]) from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError([f"{key}: {exc}"]) from None


def _merged(default, given):
    """``given`` over ``default``: an object given for an object default is
    merged key by key, at every depth, unless it names another ``name`` or
    ``kind`` than the default, which it then replaces whole; any other value
    replaces the default."""
    if not (isinstance(default, dict) and isinstance(given, dict)) or any(
            key in given and given[key] != default.get(key)
            for key in ("name", "kind")):
        return given
    return {**default, **{k: _merged(default.get(k), v) for k, v in given.items()}}


# -- plan pieces ----------------------------------------------------------------

def _forward_pde(cap, monitor=None):
    """A forward PDE's explicit cap ``cap``, implicit steps and ``u0``, and
    the ``monitor(cfg, field, law0)`` pre-check on its projected law."""
    def piece(cfg, plan):
        grid, field = plan["grid"], plan["field"]
        _built("grid", cap, field)
        _built("dt", plan_steps, field, cfg["T"], cfg["dt"], True, overflow="T")
        plan["u0"] = _built("u0", _initial_density, grid, cfg["u0"])
        law0 = Law(grid, [0.0], _built("u0", _project_initial, grid,
                                       plan["u0"])[None])
        if monitor is not None:
            monitor(cfg, field, law0)
    return piece


def _energy_check(cfg, field, law0):
    _built("alphas, p", energy_monitor, law0, field, cfg["alphas"], cfg["p"])


def _stationary_check(cfg, field, law0):
    _built("C", stationary_bound_check, field, law0, cfg["C"], cfg["rtol"])


def _family(cfg, plan):
    """A shared-noise family's mollified fields, dt and family check, from
    x0 or, for a uniqueness map, n_paths paths per x-point."""
    field = plan["field"]
    plan["fields"] = _built("deltas", lambda: [
        mollify(field, d) for d in sorted(cfg["deltas"], reverse=True)])
    plan["dt"] = _built("dt", _pick_dt, cfg["T"], min(
        stability_cap(f) for f in plan["fields"]), cfg["dt"], overflow="T")
    x0, n = cfg.get("x0"), cfg["n_paths"]
    if "n_points" in cfg:
        plan["x_points"] = _built("n_points", _x_points, plan["grid"],
                                  cfg["x_span"], cfg["n_points"])
        x0 = _built("n_points, n_paths", np.repeat, plan["x_points"], n)
        x0, n = x0[:, None], n * cfg["n_points"]
        _built("epsilons", _check_uniqueness, cfg["epsilons"])
    plan["steps"] = _built("x0" if "x0" in cfg else "grid", _check_family,
                           plan["fields"], x0, cfg["T"], plan["dt"], n,
                           field.r)[1]


def _cauchy(cfg, plan):
    """Cauchy and Q-ratio checks, and a 1-D family's dyadic blocks."""
    _built("deltas, p", _check_cauchy, len(plan["fields"]), cfg["p"])
    _built("n_paths", _check_paths, cfg["n_paths"])
    _built("epsilons", _log_scales, cfg["epsilons"])
    if "block_eps" in cfg and plan["grid"].d == 1:
        plan["schedule"] = _built("block_eps", lambda: dyadic_eps_schedule(
            *cfg["block_eps"]))


def _norm_audit(cfg, plan):
    """The law, half-derivative grid, probe kind, L_grid and taps."""
    grid = plan["grid"]
    plan["law"] = _built("law", lambda w: Law.gaussian(
        grid, [0.0], w["mean"], w["std"]), cfg["law"])
    _built("grid", half_derivative, plan["field"].diffusion[:, 0, 0], grid)
    _built("probe_kind", _check_probe_kind, cfg["probe_kind"])
    _built("L_grid", _l_grid, cfg["L_grid"])
    _built("deltas", lambda: [Mollifier(d).taps_1d(grid.h[0])
                              for d in cfg["deltas"]])


def _plan(raw):
    """(cfg, plan): the config with its scenario's defaults, and every input
    of its run except the numbers (noise, paths, PDE steps), each built or
    checked by the library function the run calls. A ConfigError lists every
    bad value, grid and preset (a grid or preset with a value that breaks its
    rule is not built), or else the first input the scenario's plan pieces
    cannot build, keyed by the config field(s) it comes from."""
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    name = raw.get("scenario")
    record = SCENARIOS.get(name) if isinstance(name, str) else None
    if record is None:
        raise ConfigError([f"scenario: {name!r} unknown; choose from "
                           f"{sorted(SCENARIOS)}"])
    cfg = json.loads(json.dumps(record.defaults))  # deep copy of defaults
    known = set(cfg) | {"scenario", "seed", "out"}
    errors = [f"{key}: not a parameter of scenario {name}"
              for key in raw if key not in known]
    cfg.update({k: _merged(cfg.get(k), v) for k, v in raw.items() if k in known})
    cfg["scenario"] = name
    cfg.setdefault("seed", 0)
    broken = set()  # the keys whose value breaks its rule
    for key, v in cfg.items():
        rule = _RULES.get(key)  # none for the scenario name
        if key == "u0" and isinstance(v, dict):  # an unknown kind: none
            rule = rule.get(str(v.get("kind", "gaussian")))
        if not rule or v is None and record.defaults.get(key, 0) is None:
            continue  # null only where the default is null
        if isinstance(rule, tuple):
            if not rule[0](v):
                errors.append(f"{key}: must be {rule[1]}")
                broken.add(key)
            continue
        if not isinstance(v, dict):  # any other value: its builder names it
            continue
        for k in v:
            if k not in rule:
                errors.append(f"{key}: unknown key {k!r}; {key} takes "
                              f"{list(rule)}")
        for k, x in v.items():
            if k in rule and not rule[k][0](x):
                errors.append(f"{key}: {k} must be {rule[k][1]}")
                broken.add(key)
    least, most = record.n_deltas
    n = len(cfg["deltas"]) if isinstance(cfg.get("deltas"), list) else least
    if not least <= n <= (most or n):
        errors.append(f"deltas: takes {'exactly' if most else 'at least'} "
                      f"{least} scales")
    try:  # neither a grid nor a preset that broke its rule is built
        if "grid" not in broken:
            grid = _built("grid", lambda g: make_grid(
                len(g["bounds"]), [tuple(b) for b in g["bounds"]],
                g["counts"], g.get("periodic", False)), cfg["grid"])
            if "preset" not in broken:
                field = _built("preset", lambda p: preset_field(
                    p.get("name"), p.get("params"), grid), cfg["preset"],
                    memory="grid")
    except ConfigError as exc:
        errors += exc.errors
    if errors:
        raise ConfigError(errors)

    plan = {"grid": grid, "field": field}
    for piece in record.pieces:
        piece(cfg, plan)
    return cfg, plan


def validate_config(raw: dict) -> dict:
    """Apply scenario defaults and build the run's plan (``_plan``); raise
    a ConfigError with what cannot be built."""
    return _plan(raw)[0]


# -- emission helpers --------------------------------------------------------

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True) + "\n" + __version__
    return hashlib.sha256(blob.encode()).hexdigest()


class _Emitter:
    def __init__(self, out_dir: Path):
        self.out = Path(out_dir)
        (self.out / "reports").mkdir(parents=True, exist_ok=True)
        (self.out / "series").mkdir(parents=True, exist_ok=True)
        self.files = []
        self.checks = {}

    def check(self, rep, name=None) -> None:
        """A verdict report, fields in declaration order, recorded as a check."""
        name = name or rep.name
        path = self.out / "reports" / f"{name}.json"
        rep.to_json(path)
        self.checks[name] = bool(rep.passed)
        self.files.append(path)

    def json(self, name: str, payload) -> None:
        """An informational report (a dict or dataclass), keys sorted."""
        path = self.out / "reports" / f"{name}.json"
        write_json(path, _jsonable(payload), sort_keys=True)
        self.files.append(path)

    def series(self, name: str, header, rows) -> None:
        path = self.out / "series" / f"{name}.csv"
        write_csv(path, header, rows)
        self.files.append(path)


# -- shared scenario pieces ---------------------------------------------------

def _pick_dt(T: float, cap: float, dt_cfg) -> float:
    """A given dt under the user-dt rule, else T / 2^k under 0.9 cap."""
    if dt_cfg is not None:
        _user_steps(T, float(dt_cfg), cap)
        return float(dt_cfg)
    k = max(0, int(np.ceil(np.log2(T / (0.9 * cap)))))
    return T / 2 ** k


def _x_points(grid, x_span, n_points) -> np.ndarray:
    """n_points evenly spaced initial points over the central fraction
    x_span in (0, 1] of the box (checked by ``_plan``)."""
    span = x_span * (grid.upper[0] - grid.lower[0]) / 2
    return np.linspace(-span, span, n_points) + (grid.upper[0] + grid.lower[0]) / 2


def _initial_density(grid, spec) -> np.ndarray:
    kind = spec.get("kind", "gaussian")
    if kind == "gaussian":
        return _gaussian(grid, spec.get("mean", 0.0), spec.get("std", 1.0))
    if kind == "spike":
        position = np.atleast_1d(np.asarray(
            spec.get("position", (0.0,) * grid.d), dtype=float))
        if position.shape != (grid.d,) or not np.all(np.isfinite(position)):
            raise ValueError(f"spike position must have {grid.d} finite "
                             f"component(s), got {spec.get('position')!r}")
        u = np.zeros(grid.shape)
        u[tuple(int(np.argmin(np.abs(grid.nodes(ax) - p)))
                for ax, p in enumerate(position))] = 1.0
        return u
    if kind == "uniform":
        return np.ones(grid.shape)
    raise ValueError(f"unknown initial density kind {spec.get('kind')!r}")


def _exit_report(ensembles) -> Report:
    fractions = [e.exit_fraction for e in ensembles]
    return Report("exit_fraction", max(fractions) <= MAX_EXIT_FRACTION,
                  {"fractions": fractions, "max_allowed": MAX_EXIT_FRACTION})


def _eps_series(emit: _Emitter, name, column, epsilons, functional) -> list:
    """Emit a row (epsilon, t, value, stderr) per stamp of functional(eps)."""
    series = [functional(eps) for eps in epsilons]
    emit.series(name, ["epsilon", "t", column, "stderr"],
                [(eps, t, v, s) for eps, fs in zip(epsilons, series)
                 for t, v, s in zip(fs.times, fs.values, fs.stderr)])
    return series


def _log_scales(epsilons) -> np.ndarray:
    """|log eps| per epsilon, the denominator of the Q growth ratios."""
    eps = np.asarray(epsilons, dtype=float)
    if np.any(eps >= 1.0):
        raise ValueError("each epsilon must be below 1: the Q growth ratio "
                         "divides by |log eps|")
    return np.abs(np.log(eps))


def _q_sweep(emit: _Emitter, ensA, ensB, epsilons) -> None:
    series = _eps_series(emit, "q_functional", "EQ", epsilons,
                         lambda eps: q_functional(ensA, ensB, eps))
    sups = [fs.sup for fs in series]
    sup_ses = [fs.sup_stderr for fs in series]
    logs = _log_scales(epsilons)
    # informational: the per-epsilon growth profile of the coupling functional
    emit.json("q_ratio_shape", dict(
        epsilons=epsilons, sup_EQ=sups, sup_stderr=sup_ses,
        ratios=np.asarray(sups) / logs, ratio_stderr=np.asarray(sup_ses) / logs))


# -- scenarios ----------------------------------------------------------------

def _scn_convergence(cfg, plan, emit: _Emitter):
    grid, base = plan["grid"], plan["field"]
    deltas = sorted(cfg["deltas"], reverse=True)
    store = BrownianStore.generate(cfg["seed"], cfg["n_paths"], plan["steps"],
                                   plan["dt"], base.r)
    emit.check(store.validate())
    ens = simulate_family(plan["fields"], cfg["x0"], cfg["T"], store,
                          record_every=cfg["record_every"])
    emit.check(_exit_report(ens))

    cd = cauchy_diagnostic(ens, p=cfg["p"])
    emit.check(cd)
    m, se, eta = (cd.details[k] for k in
                  ("esup_matrix", "stderr_matrix", "eta_matrix"))
    emit.series("cauchy_matrix",
                ["n", "m", "delta_n", "delta_m", "esup", "stderr", "eta"],
                [(i, j, deltas[i], deltas[j], m[i][j], se[i][j], eta[i][j])
                 for i in range(len(ens)) for j in range(len(ens))])

    _q_sweep(emit, ens[-2], ens[-1], cfg["epsilons"])

    if "schedule" in plan:  # one-dimensional runs
        h_tilde = maximal(gradient_magnitude(base.drift, grid), grid)
        _eps_series(emit, "q_tilde", "EQtilde", cfg["epsilons"],
                    lambda eps: q_tilde_functional(ens[-2], ens[-1], eps, h_tilde))
        emit.check(dyadic_block_averages(ens[-2], ens[-1], plan["schedule"]))
        _eps_series(emit, "l_eps", "EL", cfg["epsilons"],
                    lambda eps: l_eps_functional(ens[-2], ens[-1], eps))


def _forward(cfg, plan, emit: _Emitter, solve):
    """Grid, field and implicit solve of a forward-PDE scenario; the
    solver's diagnostics go to reports/solver.json."""
    evo = solve(plan["field"], plan["u0"], cfg["T"], cfg["dt"], implicit=True)
    emit.json("solver", evo.scheme)
    return plan["grid"], plan["field"], evo


def _scn_elliptic_energy(cfg, plan, emit: _Emitter):
    grid, field, evo = _forward(cfg, plan, emit, solve_fp_1d)
    rep = energy_monitor(evo, field, cfg["alphas"], cfg["p"])
    emit.check(rep, "energy")
    emit.series("energy", *rep.table())
    emit.series("density_final", ["x", "u"],
                list(zip(grid.nodes(0), evo.density[-1])))


def _scn_stationary(cfg, plan, emit: _Emitter):
    grid, field, evo = _forward(cfg, plan, emit, solve_fp_1d)
    emit.check(stationary_bound_check(field, evo, cfg["C"], rtol=cfg["rtol"]))
    emit.series("density_final", ["x", "u"],
                list(zip(grid.nodes(0), evo.density[-1])))


def _scn_kinetic(cfg, plan, emit: _Emitter):
    grid, _, evo = _forward(cfg, plan, emit, solve_kinetic)
    emit.check(max_principle_check(evo))
    v = grid.nodes(1)
    rows = []
    for t, pv in zip(evo.times, evo.marginal(1).density):
        mean = float(np.sum(pv * v) * grid.h[1])
        var = float(np.sum(pv * (v - mean) ** 2) * grid.h[1])
        rows.append((t, mean, var))
    emit.series("v_marginal", ["t", "mean_v", "var_v"], rows)
    final = Law.from_slices(grid, evo.times[-1:], evo.density[-1:])
    emit.series("x_marginal_final", ["x", "u"],
                list(zip(grid.nodes(0), final.marginal(0).density[0])))


def _scn_uniqueness(cfg, plan, emit: _Emitter):
    x_points = plan["x_points"]
    store = BrownianStore.generate(cfg["seed"], cfg["n_points"] * cfg["n_paths"],
                                   plan["steps"], plan["dt"], plan["field"].r)
    rep = uniqueness_map(x_points, *plan["fields"], cfg["epsilons"], cfg["T"],
                         cfg["n_paths"], store, base_field=plan["field"],
                         threshold=cfg["threshold"])
    emit.check(rep)
    n_eps, m_eps = rep.details["E_abs_delta"], rep.details["M_eps"]
    emit.series("uniqueness_map", ["x", "eps", "N_eps", "M_eps"],
                [(x, eps, n_eps[i], m_eps[float(eps)][i])
                 for eps in cfg["epsilons"] for i, x in enumerate(x_points)])


def _scn_norm_audit(cfg, plan, emit: _Emitter):
    grid, field, law, T = plan["grid"], plan["field"], plan["law"], cfg["T"]
    sig, F = field.diffusion[:, 0, 0], field.drift
    values = {
        "H1": h1_norm(sig, law, T),
        "W11": w11_norm(F, law, T),
        "WphiWeak": wphi_weak_norm(F, law, T, L_grid=cfg.get("L_grid")),
        "Hhalf": h_half_norm(sig, law, T),
    }
    for kind, nv in values.items():
        emit.json(f"norm_{kind}", nv)
    emit.check(semicontinuity_probe(sig, grid, law, cfg["deltas"],
                                     kind=cfg["probe_kind"], T=T))
    emit.series("norms", ["kind", "value"],
                [(k, v.value) for k, v in values.items()])


SCENARIOS = {
    "thm_multidim_convergence": _Scenario(
        "shared-noise Cauchy matrix and Q sweep across a 2-D mollification family",
        {"preset": {"name": "ou", "params": {}},
         "grid": {"bounds": [[-4.0, 4.0], [-4.0, 4.0]], "counts": [256, 256],
                  "periodic": False},
         "n_paths": 1000, "T": 0.5, "dt": None, "x0": [0.0, 0.0],
         "deltas": [0.5, 0.25, 0.125, 0.0625], "epsilons": [1e-1, 1e-2],
         "p": 2.0, "record_every": 4},
        (_family, _cauchy), _scn_convergence, n_deltas=(4, None)),
    "thm_1d_convergence": _Scenario(
        "1-D coupled convergence: Cauchy matrix, Q and weighted-Q sweeps, dyadic blocks",
        {"preset": {"name": "sqrt_diffusion", "params": {"kappa": 0.0}},
         "grid": {"bounds": [[-4.0, 4.0]], "counts": [4096], "periodic": False},
         "n_paths": 2000, "T": 1.0, "dt": None, "x0": 0.5,
         "deltas": [0.0625, 0.03125, 0.015625, 0.0078125],
         "epsilons": [1e-1, 1e-2], "block_eps": [1e-10, 0.5], "p": 2.0,
         "record_every": 4},
        (_family, _cauchy), _scn_convergence, n_deltas=(4, None)),
    "elliptic_energy": _Scenario(
        "forward-PDE solve with the moment-growth audit between stamps",
        {"preset": {"name": "ou", "params": {}},
         "grid": {"bounds": [[-8.0, 8.0]], "counts": [512], "periodic": False},
         "T": 1.0, "dt": None,
         "u0": {"kind": "gaussian", "mean": 0.0, "std": 2.0},
         "alphas": [2.0, 4.0], "p": 3.0},
        (_forward_pde(cfl_cap_1d, _energy_check),), _scn_elliptic_energy),
    "stationary_1d": _Scenario(
        "forward-PDE solve checked against the pointwise stationary envelope",
        {"preset": {"name": "ou", "params": {}},
         "grid": {"bounds": [[-6.0, 6.0]], "counts": [1024], "periodic": False},
         "T": 5.0, "dt": None,
         "u0": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
         "C": 0.5, "rtol": 1e-6},
        (_forward_pde(cfl_cap_1d, _stationary_check),), _scn_stationary),
    "kinetic_langevin": _Scenario(
        "phase-space solve with maximum-principle and v-variance checks",
        {"preset": {"name": "kinetic_langevin",
                    "params": {"beta": 1.0, "temp": 0.5}},
         "grid": {"bounds": [[-2.0, 2.0], [-3.0, 3.0]], "counts": [128, 128],
                  "periodic": False},
         "T": 0.3, "dt": None,
         "u0": {"kind": "gaussian", "mean": [0.0, 0.0], "std": [0.3, 0.5]}},
        (_forward_pde(cfl_cap_kinetic),), _scn_kinetic),
    "ae_uniqueness_map": _Scenario(
        "per-initial-point coupling gap and its a-priori integrand",
        {"preset": {"name": "ou", "params": {}},
         "grid": {"bounds": [[-6.0, 6.0]], "counts": [8192], "periodic": False},
         "deltas": [0.015625, 0.00390625], "epsilons": [1e-1, 1e-2, 1e-3],
         "n_points": 64, "n_paths": 200, "T": 1.0, "dt": None,
         "threshold": 0.02, "x_span": 0.5},
        (_family,), _scn_uniqueness, n_deltas=(2, 2)),
    "norm_audit": _Scenario(
        "the four weighted norms of a preset plus semicontinuity probes",
        {"preset": {"name": "sqrt_diffusion", "params": {"kappa": 0.0}},
         "grid": {"bounds": [[-4.0, 4.0]], "counts": [2048], "periodic": True},
         "T": 1.0, "law": {"mean": 0.0, "std": 1.0},
         "deltas": [0.0078125, 0.015625, 0.03125, 0.0625],
         "probe_kind": "Hhalf", "L_grid": None},
        (_norm_audit,), _scn_norm_audit, n_deltas=(4, None)),
}


def run_scenario(config: dict, out_dir=None, seed=None) -> RunArtifact:
    """Validate, execute and archive one scenario run."""
    cfg, plan = _plan(config if seed is None else dict(config, seed=seed))
    out = Path(out_dir if out_dir is not None else cfg.get("out", "run_out"))
    emit = _Emitter(out)
    complete = True
    try:
        SCENARIOS[cfg["scenario"]].body(cfg, plan, emit)
    except Exception:
        complete = False
        raise
    finally:
        manifest = {
            "config": cfg,
            "code_version": __version__,
            "config_hash": _config_hash(cfg),
            "files": {str(p.relative_to(out)): _sha256(p)
                      for p in sorted(emit.files)},
            "checks": emit.checks,
            "passed": bool(all(emit.checks.values())) and complete,
            "complete": complete,
        }
        write_json(out / "manifest.json", manifest, sort_keys=True)
    return RunArtifact(out, manifest)


# -- CLI -----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdelab",
        description="numerical laboratory for SDEs with rough coefficients",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override seed")
    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config")
    sub.add_parser("list-scenarios", help="print the scenario catalogue")
    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name in sorted(SCENARIOS):
            print(f"{name}: {SCENARIOS[name].description}")
        return 0

    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "validate":
            validate_config(raw)
            print("config ok")
            return 0
        artifact = run_scenario(raw, out_dir=args.out, seed=args.seed)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"invalid: {e}", file=sys.stderr)
        return 2
    status = "pass" if artifact.passed else "FAIL"
    print(f"{status}: {len(artifact.files)} files in {artifact.out_dir}")
    return 0 if artifact.passed else 1


if __name__ == "__main__":
    sys.exit(main())
