"""In-memory spans around calls into sdelab's modules, recorded from outside.

The benchmark never edits the package. It replaces public names with timing
wrappers for the duration of a traced pass and restores them afterwards. A
name is wrapped where its caller looks it up: the benchmark's own calls go
through the ``sdelab`` package namespace, while calls one module makes into
another (``runner`` into ``fpe``, ``norms`` into ``maxops``) go through the
name the calling module bound at import. Classmethods (``Law.from_ensemble``,
``BrownianStore.generate``) are wrapped on the class, which every caller
shares.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - _union_length(children.get(s.id, ()))
            for s in spans}


class Tracer:
    """Collects spans in memory; ``pass_id`` tags the spans of one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.pass_id: int | None = None

    def wrap(self, name, fn, counter=None):
        """``fn`` recording one span per call; ``counter(args, kwargs,
        result)`` gives the span's counts."""
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, 0.0, 0.0,
                        self._stack[-1] if self._stack else None,
                        self.pass_id)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def install(self, targets):
        """Wrap every (owner, attribute, span name, counter), then restore."""
        saved = []
        try:
            for owner, attr, name, counter in targets:
                original = vars(owner)[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    setattr(owner, attr, classmethod(
                        self.wrap(name, original.__func__, counter)))
                else:
                    setattr(owner, attr, self.wrap(name, original, counter))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path: Path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": [asdict(s) for s in self.spans]},
                      fh)


# -- what to wrap -------------------------------------------------------------

def _store_bytes(args, kwargs, store):
    n, steps, r = store.increments.shape
    return {"store_bytes": n * steps * r * 8}


def _path_steps(args, kwargs, ens):
    steps = int(round(float(ens.times[-1]) / ens.dt))
    return {"path_steps": ens.n_paths * steps}


def _samples(args, kwargs, law):
    ens = args[1] if len(args) > 1 else kwargs["ensemble"]
    return {"samples": ens.n_paths * ens.times.size}


def _radii(args, kwargs, out):
    import sdelab
    schedule = args[2] if len(args) > 2 else kwargs.get("schedule")
    if schedule is None:
        schedule = sdelab.RadiusSchedule.geometric(args[1])
    return {"radii": len(schedule.radii)}


def _fpe_steps(args, kwargs, evo):
    steps = int(evo.scheme["steps"])
    return {"steps": steps, "cell_steps": steps * math.prod(evo.grid.shape)}


def _bytes_written(args, kwargs, artifact):
    total = 0
    for root, _, files in os.walk(artifact.out_dir):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return {"bytes_written": total}


def targets():
    """The (owner, attribute, span name, counter) list for one traced pass."""
    import sdelab
    from sdelab import norms, runner
    from sdelab.laws import Law
    from sdelab.sde import BrownianStore

    return [
        (BrownianStore, "generate", "sde.generate", _store_bytes),
        (sdelab, "simulate_ensemble", "sde.simulate_ensemble", _path_steps),
        (sdelab, "cauchy_diagnostic", "sde.cauchy_diagnostic", None),
        (sdelab, "q_functional", "sde.q_functional", None),
        (sdelab, "l_eps_functional", "sde.l_eps_functional", None),
        (sdelab, "mollify", "fields.mollify", None),
        (sdelab, "preset_field", "fields.preset_field", None),
        (runner, "preset_field", "fields.preset_field", None),
        (Law, "from_ensemble", "laws.from_ensemble", _samples),
        (Law, "from_slices", "laws.from_slices", None),
        (Law, "from_density_evolution", "laws.from_density_evolution", None),
        (sdelab, "h1_norm", "norms.h1_norm", None),
        (sdelab, "w11_norm", "norms.w11_norm", None),
        (sdelab, "gradient_magnitude", "maxops.gradient_magnitude", None),
        (sdelab, "maximal", "maxops.maximal", _radii),
        (norms, "maximal", "maxops.maximal", _radii),
        (sdelab, "maximal_modified", "maxops.maximal_modified", None),
        (norms, "maximal_modified", "maxops.maximal_modified", None),
        (sdelab, "run_scenario", "runner.run_scenario", _bytes_written),
        (runner, "solve_fp_1d", "fpe.solve_fp_1d", _fpe_steps),
        (runner, "solve_kinetic", "fpe.solve_kinetic", _fpe_steps),
        (runner, "energy_monitor", "fpe.energy_monitor", None),
        (runner, "stationary_bound_check", "fpe.stationary_bound_check", None),
        (runner, "max_principle_check", "fpe.max_principle_check", None),
    ]


# -- per-layer metrics ----------------------------------------------------------

_PAIRWISE = ("sde.cauchy_diagnostic", "sde.q_functional", "sde.l_eps_functional")
_MONITORS = ("fpe.energy_monitor", "fpe.stationary_bound_check",
             "fpe.max_principle_check")

# name, unit, better, the end-to-end metric it should move, on which workloads.
LAYER_METRICS = [
    ("sde.generate_s", "s", "lower", "wall_s", "mc_norm coupled_family"),
    ("sde.store_bytes", "bytes", "lower", "peak_rss_mb", "coupled_family mc_norm"),
    ("sde.simulate_s", "s", "lower", "wall_s", "coupled_family mc_norm"),
    ("sde.path_steps", "count", "lower", "wall_s", "coupled_family mc_norm"),
    ("sde.path_steps_per_s", "1/s", "higher", "wall_s", "coupled_family mc_norm"),
    ("sde.pairwise_s", "s", "lower", "wall_s", "coupled_family"),
    ("fields.mollify_s", "s", "lower", "setup_s", "coupled_family maxops_2d"),
    ("laws.from_ensemble_s", "s", "lower", "wall_s", "mc_norm coupled_family"),
    ("laws.samples_per_s", "1/s", "higher", "wall_s", "mc_norm coupled_family"),
    ("norms.h1_s", "s", "lower", "wall_s", "mc_norm"),
    ("maxops.maximal_s", "s", "lower", "wall_s peak_rss_mb", "maxops_2d"),
    ("maxops.maximal_modified_s", "s", "lower", "wall_s peak_rss_mb", "maxops_2d"),
    ("maxops.radii", "count", "lower", "wall_s", "maxops_2d"),
    ("fpe.solve_fp_1d_s", "s", "lower", "wall_s", "forward_pde"),
    ("fpe.solve_kinetic_s", "s", "lower", "wall_s", "forward_pde"),
    ("fpe.steps", "count", "lower", "wall_s", "forward_pde"),
    ("fpe.cell_steps_per_s", "1/s", "higher", "wall_s", "forward_pde"),
    ("fpe.monitors_s", "s", "lower", "wall_s", "forward_pde"),
    ("runner.self_s", "s", "lower", "wall_s", "forward_pde"),
    ("runner.bytes_written", "bytes", "lower", "wall_s", "forward_pde"),
    ("trace.wall_s", "s", "lower", "", ""),
    ("trace.overhead_s", "s", "lower", "", ""),
]


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def pass_metrics(spans) -> dict:
    """Per-layer values of one pass (a layer it never calls reads 0)."""
    selfs = self_times(spans)
    dur = {}
    own = {}
    cnt = {}
    for s in spans:
        dur[s.name] = dur.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + selfs[s.id]
        for k, v in s.counts.items():
            cnt[k] = cnt.get(k, 0) + v
    simulate = dur.get("sde.simulate_ensemble", 0.0)
    laws = dur.get("laws.from_ensemble", 0.0)
    solve_1d = dur.get("fpe.solve_fp_1d", 0.0)
    solve_kin = dur.get("fpe.solve_kinetic", 0.0)
    return {
        "sde.generate_s": dur.get("sde.generate", 0.0),
        "sde.store_bytes": cnt.get("store_bytes", 0),
        "sde.simulate_s": simulate,
        "sde.path_steps": cnt.get("path_steps", 0),
        "sde.path_steps_per_s": _ratio(cnt.get("path_steps", 0), simulate),
        "sde.pairwise_s": sum(own.get(n, 0.0) for n in _PAIRWISE),
        "laws.from_ensemble_s": laws,
        "laws.samples_per_s": _ratio(cnt.get("samples", 0), laws),
        "norms.h1_s": own.get("norms.h1_norm", 0.0),
        "maxops.maximal_s": dur.get("maxops.maximal", 0.0),
        "maxops.maximal_modified_s": dur.get("maxops.maximal_modified", 0.0),
        "maxops.radii": cnt.get("radii", 0),
        "fpe.solve_fp_1d_s": solve_1d,
        "fpe.solve_kinetic_s": solve_kin,
        "fpe.steps": cnt.get("steps", 0),
        "fpe.cell_steps_per_s": _ratio(cnt.get("cell_steps", 0),
                                       solve_1d + solve_kin),
        "fpe.monitors_s": sum(dur.get(n, 0.0) for n in _MONITORS),
        "runner.self_s": own.get("runner.run_scenario", 0.0),
        "runner.bytes_written": cnt.get("bytes_written", 0),
    }


def layer_metrics(tracer: Tracer, traced_walls, untraced_walls) -> dict:
    """Medians over traced passes, set-up spans and the tracing overhead."""
    by_pass = {}
    for s in tracer.spans:
        if s.pass_id is not None:
            by_pass.setdefault(s.pass_id, []).append(s)
    per_pass = [pass_metrics(spans) for spans in by_pass.values()] \
        or [pass_metrics([])]
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    out["fields.mollify_s"] = sum(
        s.duration for s in tracer.spans
        if s.pass_id is None and s.name == "fields.mollify")
    traced = statistics.median(traced_walls)
    out["trace.wall_s"] = traced
    out["trace.overhead_s"] = traced - statistics.median(untraced_walls)
    return out
