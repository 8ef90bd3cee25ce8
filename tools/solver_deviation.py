"""Compare the forward-PDE solves of two source trees, solve by solve.

Each tree runs the same solves in its own subprocess:

- the explicit solves of acceptance criteria 08-10
  (``tests/test_acceptance.py``): the heat kernel, the T = 5 OU relaxation
  and the OU solve against Monte Carlo (08), heat and OU under the energy
  monitor (09), free transport and v-diffusion in phase space (10);
- the backward-Euler solves of the three default forward-PDE scenarios
  (``stationary_1d``, ``elliptic_energy``, ``kinetic_langevin``), built
  from the scenario's default config as ``sdelab run`` builds them.

Explicit solves appear in no run tree, so ``tools/series_deviation.py``
cannot show them. One line per solve: the step count and wall seconds in
each tree, the largest absolute density deviation over all stamps and that
deviation relative to the largest density::

    python tools/solver_deviation.py --src /path/to/other/src

Standard library and numpy; ``--src`` (default: this checkout's ``src``,
which gives zero deviations and two timings) is the other tree's source
directory. This checkout's ``src`` is always the first tree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1] / "src"


def _solves(sl):
    """(name, thunk) of every compared solve; each thunk returns a Law."""
    from sdelab.runner import _plan

    def gaussian(grid, mean, std):
        x = grid.nodes(0)
        return np.exp(-0.5 * ((x - mean) / std) ** 2)

    def spike(grid):
        u0 = np.zeros(grid.shape)
        u0[np.argmin(np.abs(grid.nodes(0)))] = 1.0
        return u0

    def phase(grid):
        xx, vv = grid.meshgrid()
        return np.exp(-0.5 * (xx / 0.3) ** 2 - 0.5 * (vv / 0.5) ** 2)

    g512 = sl.make_grid(1, (-8.0, 8.0), 512)
    g1024 = sl.make_grid(1, (-6.0, 6.0), 1024)
    g256 = sl.make_grid(2, ((-2.0, 2.0), (-3.0, 3.0)), 256)
    g128 = sl.make_grid(2, ((-2.0, 2.0), (-3.0, 3.0)), 128)
    heat = sl.preset_field("heat", {}, g512)
    ou512 = sl.preset_field("ou", {}, g512)
    ou = sl.preset_field("ou", {}, g1024)
    free = sl.preset_field("kinetic_langevin", {"beta": 0.0, "temp": 0.0}, g256)
    vdiff = sl.preset_field("kinetic_langevin", {"beta": 0.0, "temp": 0.5}, g128)
    solves = [
        ("08 heat kernel", lambda: sl.solve_fp_1d(heat, spike(g512), 1.0)),
        ("08 OU relaxation T=5", lambda: sl.solve_fp_1d(
            ou, gaussian(g1024, 0.0, 0.5), 5.0)),
        ("08 OU vs Monte Carlo", lambda: sl.solve_fp_1d(
            ou, gaussian(g1024, 1.0, 0.1), 1.0)),
        ("09 heat", lambda: sl.solve_fp_1d(heat, gaussian(g512, 0.0, 1.0), 1.0)),
        ("09 OU", lambda: sl.solve_fp_1d(ou512, gaussian(g512, 0.0, 2.0), 1.0)),
        ("10 free transport", lambda: sl.solve_kinetic(free, phase(g256), 0.5)),
        ("10 v-diffusion", lambda: sl.solve_kinetic(vdiff, phase(g128), 0.3)),
    ]
    for name in ("stationary_1d", "elliptic_energy", "kinetic_langevin"):
        cfg, plan = _plan({"scenario": name})
        solve = sl.solve_kinetic if name == "kinetic_langevin" else sl.solve_fp_1d
        solves.append((f"{name} (implicit)", lambda cfg=cfg, plan=plan, solve=solve:
                       solve(plan["field"], plan["u0"], cfg["T"], cfg["dt"],
                             implicit=True)))
    return solves


def _worker(src: Path, out: Path) -> None:
    """Run every solve with ``sdelab`` from ``src``; densities go to ``out``
    (.npz), steps and wall seconds to stdout as JSON."""
    sys.path.insert(0, str(src))
    import sdelab as sl

    densities, meta = {}, {}
    for i, (name, solve) in enumerate(_solves(sl)):
        t = time.perf_counter()
        law = solve()
        meta[name] = {"steps": law.scheme["steps"],
                      "wall_s": time.perf_counter() - t, "key": f"s{i}"}
        densities[f"s{i}"] = law.density
    np.savez(out, **densities)
    print(json.dumps(meta))


def _run(src: Path, out: Path):
    proc = subprocess.run([sys.executable, __file__, "--worker", str(out),
                           "--src", str(src)], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"solves under {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), np.load(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=HERE,
                        help="source directory of the other sdelab tree")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.src.resolve(), args.worker)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        (meta_a, dens_a), (meta_b, dens_b) = (
            _run(src, Path(tmp) / f"{tag}.npz")
            for tag, src in (("a", HERE), ("b", args.src.resolve())))
        print(f"{'solve':28s} {'steps':>13s} {'wall_s':>13s} "
              f"{'max |du|':>9s} {'relative':>9s}")
        for name, a in meta_a.items():
            b = meta_b[name]
            ua, ub = dens_a[a["key"]], dens_b[b["key"]]
            if ua.shape != ub.shape:
                dev = rel = "shape"
            else:
                gap = float(np.abs(ua - ub).max())
                dev, rel = f"{gap:9.2e}", f"{gap / np.abs(ua).max():9.2e}"
            print(f"{name:28s} {a['steps']:6d} {b['steps']:6d} "
                  f"{a['wall_s']:6.2f} {b['wall_s']:6.2f} {dev:>9s} {rel:>9s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
