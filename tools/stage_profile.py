"""Time one criterion-04 repetition stage by stage.

Criterion 04 (``tests/test_acceptance.py``) repeats one workload 20 times:
the OU preset on [-6, 6] with 1024 cells, a Brownian store of N paths x 256
steps (N = 100 000), Euler-Maruyama from x0 = 1 recorded every 4 steps, the
histogram law and the quadrature and pathwise H1 norms. This script runs
that repetition ``--reps`` times in one process. It first prints one JSON
line on the import: the seconds of ``import sdelab``, the process's peak RSS
right after it and the scipy modules it loaded. A second line does the same
for the set-up of the criteria 05-07 fixture, the first ``mollify`` calls of
the process: the six scales delta = 2^-4 ... 2^-9 of the ``sqrt_diffusion``
preset on 8192 cells, with the first call's seconds and the six calls' sum.
A third line times the 2-D maximal operators on |grad F| of the 2-D OU
preset on [-4, 4]^2 at 48^2, 128^2 and 256^2 cells: ``maximal`` on its
default radius schedule and ``maximal_modified`` at L = e, each with the
seconds of the first (cold-cache) call on that grid and the median of five
warm calls. A fourth line times the backward-Euler operators of the three
default forward-PDE scenarios at their default implicit dt: the 1-D
operators of ``stationary_1d`` (1 025 nodes) and ``elliptic_energy`` (513
nodes) and the kinetic v-diffusion of ``kinetic_langevin`` (129^2 nodes).
For each it gives the seconds of building and factoring I - dt A the first
time in the process (``cold_s``), the median of five more builds of the same
operator (``warm_s``), the median of twenty backward steps (``step_s``) and
the nodes over ``step_s`` (``cell_steps_per_s``); ``kinetic_split_step``
gives the same two for one whole ``solve_kinetic(implicit=True)`` split step
of ``kinetic_langevin`` (the explicit x and v sweeps and the backward
v-diffusion); ``scipy_import_s`` is the import of ``scipy.sparse.linalg``
before them, kept out of the first cold build. A fifth line times one pass of
``perfbench``'s ``coupled_family`` shape on the second line's six mollified
fields, stage by stage: ``generate`` (a store of 1 000 paths x 256 steps),
``walks`` (six ``simulate_ensemble`` calls recorded every 8 steps, with
their path-steps/s), ``cauchy`` (``cauchy_diagnostic`` at p = 2, with the
tracemalloc peak of a second, traced call in MiB and in laws of one member)
and ``q_l`` (``q_functional`` and ``l_eps_functional`` on the two finest
members at four epsilons each). Then it prints one JSON line per
repetition: the seconds of each stage (``noise``, ``euler``, ``histogram``,
``pathwise_h1``) by ``time.perf_counter`` and the process's peak RSS so far
in MB (``resource.getrusage``). The first repetition's ``peak_rss_mb`` is
the peak of one repetition::

    python tools/stage_profile.py --paths 100000 --reps 3
    python tools/stage_profile.py --src /path/to/other/src

Standard library and ``sdelab`` only (with the ``scipy.sparse`` that
``sdelab``'s backward step loads); ``--src`` (default: this checkout's
``src``) is the source directory ``sdelab`` is imported from.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _scipy_modules() -> list[str]:
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


def _median_step_s(step, u) -> float:
    """Median seconds of twenty calls ``step(u)``."""
    seconds = []
    for _ in range(20):
        t = time.perf_counter()
        step(u)
        seconds.append(time.perf_counter() - t)
    return statistics.median(seconds)


def _backward_operators(sl) -> dict:
    """The fourth line: build, factor and step each default backward-Euler
    operator (``_euler_step`` with ``implicit=True``), then step one whole
    kinetic split step."""
    import numpy as np
    from sdelab import fpe
    t = time.perf_counter()
    import scipy.sparse.linalg  # noqa: F401
    scipy_s = time.perf_counter() - t
    seconds = {}
    for name in ("stationary_1d", "elliptic_energy", "kinetic_langevin"):
        defaults = sl.SCENARIOS[name].defaults
        g, p = defaults["grid"], defaults["preset"]
        grid = sl.make_grid(len(g["bounds"]), [tuple(b) for b in g["bounds"]],
                            g["counts"])
        field = sl.preset_field(p["name"], p["params"], grid)
        dt = fpe.plan_steps(field, defaults["T"], None, True)[1]
        if grid.d == 1:
            F, a = fpe._coeffs_1d(field)
        else:
            F, a = 0.0, fpe._kinetic_coeffs(field)[2]
        builds = []
        for _ in range(6):
            t = time.perf_counter()
            step = fpe._euler_step(F, a, grid.h[-1], dt, True)
            builds.append(time.perf_counter() - t)
        u = np.ones(grid.shape)
        step_s = _median_step_s(step, u)
        seconds[name] = {"nodes": grid.shape, "cold_s": round(builds[0], 5),
                         "warm_s": round(statistics.median(builds[1:]), 5),
                         "step_s": round(step_s, 6),
                         "cell_steps_per_s": round(u.size / step_s)}
    # solve_kinetic's split step on the loop's last field, kinetic_langevin:
    # x sweep, v sweep, backward v-diffusion
    speed_x, speed_v, a_vv = fpe._kinetic_coeffs(field)
    hx, hv = grid.h
    sweep_x = fpe._euler_step(speed_x.T, 0.0, hx, dt, False)
    sweep_v = fpe._euler_step(speed_v, 0.0, hv, dt, False)
    diffuse = fpe._euler_step(0.0, a_vv, hv, dt, True)
    step_s = _median_step_s(lambda u: diffuse(sweep_v(sweep_x(u.T).T)), u)
    return {"layer": "backward_euler", "scipy_import_s": round(scipy_s, 4),
            "seconds": seconds,
            "kinetic_split_step": {"nodes": grid.shape,
                                   "step_s": round(step_s, 6),
                                   "cell_steps_per_s": round(u.size / step_s)},
            "peak_rss_mb": round(_peak_rss_mb(), 1)}


def _coupled_family(sl, fields, seed: int) -> dict:
    """The fifth line: one coupled-family pass on ``fields``, stage by
    stage."""
    n_paths, n_steps = 1000, 256
    stages = {}
    t = time.perf_counter()
    store = sl.BrownianStore.generate(seed, n_paths, n_steps, 1.0 / n_steps)
    stages["generate"] = time.perf_counter() - t
    t = time.perf_counter()
    ens = [sl.simulate_ensemble(f, 0.0, 1.0, store, record_every=8)
           for f in fields]
    stages["walks"] = time.perf_counter() - t
    t = time.perf_counter()
    sl.cauchy_diagnostic(ens, p=2.0)
    stages["cauchy"] = time.perf_counter() - t
    tracemalloc.start()
    try:
        sl.cauchy_diagnostic(ens, p=2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    t = time.perf_counter()
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        sl.q_functional(ens[-2], ens[-1], eps)
    for eps in (0.5, 0.1, 0.01, 0.001):
        sl.l_eps_functional(ens[-2], ens[-1], eps)
    stages["q_l"] = time.perf_counter() - t
    law_bytes = ens[0].times.size * fields[0].grid.shape[0] * 8
    return {"pass": "coupled_family", "paths": n_paths, "steps": n_steps,
            "members": len(fields),
            "stages_s": {k: round(v, 4) for k, v in stages.items()},
            "path_steps_per_s": round(len(fields) * n_paths * n_steps
                                      / stages["walks"]),
            "cauchy_peak_mib": round(peak / 2 ** 20, 2),
            "cauchy_peak_laws": round(peak / law_bytes, 2),
            "peak_rss_mb": round(_peak_rss_mb(), 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src",
                        help="source directory holding the sdelab package")
    parser.add_argument("--paths", type=int, default=100000)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--seed", type=int, default=100,
                        help="store seed of the first repetition")
    args = parser.parse_args(argv)
    if args.paths < 2 or args.reps < 1:
        parser.error("need --paths >= 2 and --reps >= 1")
    sys.path.insert(0, str(args.src.resolve()))
    t = time.perf_counter()
    import sdelab as sl
    import_s = time.perf_counter() - t
    print(json.dumps({"import_s": round(import_s, 4),
                      "peak_rss_mb": round(_peak_rss_mb(), 1),
                      "scipy_modules": _scipy_modules()}), flush=True)

    grid = sl.make_grid(1, (-4.0, 4.0), 8192)
    base = sl.preset_field("sqrt_diffusion", {"kappa": 0.0}, grid)
    calls, family = [], []
    for k in range(4, 10):
        t = time.perf_counter()
        family.append(sl.mollify(base, 2.0 ** -k))
        calls.append(time.perf_counter() - t)
    print(json.dumps({"setup": "mollify_family",
                      "first_mollify_s": round(calls[0], 4),
                      "mollify_s": round(sum(calls), 4),
                      "peak_rss_mb": round(_peak_rss_mb(), 1),
                      "scipy_modules": _scipy_modules()}), flush=True)

    maxops = {}
    for cells in (48, 128, 256):
        grid = sl.make_grid(2, ((-4.0, 4.0), (-4.0, 4.0)), cells)
        g = sl.gradient_magnitude(sl.preset_field("ou", {}, grid).drift, grid)
        for name, op in (("maximal", lambda: sl.maximal(g, grid)),
                         ("maximal_modified",
                          lambda: sl.maximal_modified(g, grid, math.e))):
            calls = []
            for _ in range(6):
                t = time.perf_counter()
                op()
                calls.append(time.perf_counter() - t)
            maxops[f"{name}_{cells}"] = {
                "first_s": round(calls[0], 5),
                "warm_s": round(statistics.median(calls[1:]), 5)}
    print(json.dumps({"layer": "maxops_2d", "seconds": maxops,
                      "peak_rss_mb": round(_peak_rss_mb(), 1)}), flush=True)

    print(json.dumps(_backward_operators(sl)), flush=True)
    print(json.dumps(_coupled_family(sl, family, args.seed)), flush=True)

    grid = sl.make_grid(1, (-6.0, 6.0), 1024)
    field = sl.preset_field("ou", {}, grid)
    for rep in range(args.reps):
        stages = {}
        t = time.perf_counter()
        store = sl.BrownianStore.generate(args.seed + rep, args.paths, 256,
                                          1.0 / 256.0)
        stages["noise"] = time.perf_counter() - t
        t = time.perf_counter()
        ens = sl.simulate_ensemble(field, 1.0, 1.0, store, record_every=4)
        stages["euler"] = time.perf_counter() - t
        t = time.perf_counter()
        law = sl.Law.from_ensemble(ens)
        stages["histogram"] = time.perf_counter() - t
        quad = sl.h1_norm(field.drift, law, T=1.0)
        t = time.perf_counter()
        path = sl.h1_norm(field.drift, law, T=1.0, method="pathwise",
                          ensemble=ens)
        stages["pathwise_h1"] = time.perf_counter() - t
        z = abs(quad.value - path.value) / path.mc_stderr
        del store, ens, law
        peak = _peak_rss_mb()
        print(json.dumps({"rep": rep, "paths": args.paths,
                          "stages_s": {k: round(v, 4) for k, v in stages.items()},
                          "total_s": round(sum(stages.values()), 4),
                          "z": round(z, 3), "peak_rss_mb": round(peak, 1)}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
