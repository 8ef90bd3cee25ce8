"""sdelab benchmark: time whole workloads from outside the package.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

Without ``--workload`` every workload runs in turn. Each workload runs in a
fresh worker process (worker.py), so its set-up time and peak memory are its
own; ``setup_s`` is the median over that process and SETUP_PROBES more that
only set up. With ``--trace 0`` the end-to-end metrics are printed, with
``--trace 1`` the per-layer metrics of a traced run (spans.py). The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Run records and span files go to ``.perfbench-runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench-runs"
WORKLOADS = ("mc_norm", "coupled_family", "forward_pde", "maxops_2d")
SETUP_PROBES = 3
# One BLAS thread (at most nproc): each workload is a closed loop with one
# caller, and a single thread keeps pass times independent of thread
# scheduling on a small machine.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (("wall_s", "s"), ("wall_tail_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def tail(times):
    """Highest percentile of ``times`` with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten samples or fewer no
    such percentile exists and the maximum is returned at 100.
    """
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    mem_kb = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
        with open("/proc/meminfo") as fh:
            mem_kb = next(int(ln.split()[1]) for ln in fh
                          if ln.startswith("MemTotal"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "ram_gb": round(mem_kb / 2 ** 20, 2) if mem_kb else None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": int(BLAS_THREADS)}


def spawn(args, timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({v: BLAS_THREADS for v in BLAS_VARS})
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0),
         "--runs-dir", str(RUNS)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    setups = [] if trace else [
        spawn(base + ["--setup-only"], timeout=60)["setup_s"]
        for _ in range(SETUP_PROBES)]
    res = spawn(base + ["--seconds", str(seconds), "--trace", str(trace)],
                timeout=seconds + 100)
    setups.append(res["setup_s"])
    res["setup_samples"] = setups
    res["tail"] = tail(res["walls"])
    if trace:
        import spans
        metrics = {m[0]: {"value": res["layers"][m[0]], "unit": m[1]}
                   for m in spans.LAYER_METRICS}
    else:
        values = {"wall_s": statistics.median(res["walls"]),
                  "wall_tail_s": res["tail"][0],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    res["metrics"] = metrics
    return res


def report(name: str, res: dict, trace: int) -> None:
    print(f"== {name}")
    att, fail = res["attempted"], res["failed"]
    if trace:
        for k, m in res["metrics"].items():
            print(f"  {k:28s} {m['value']:.6g} {m['unit']}")
        print(f"  spans written to {res['spans_file']}")
    else:
        value, pct, n = res["tail"]
        m = res["metrics"]
        print(f"  wall_s       {m['wall_s']['value']:.6g} s"
              f"  (median of {len(res['walls'])} timed passes)")
        beyond = n - round(pct * n / 100)
        print(f"  wall_tail_s  {value:.6g} s  (p{pct:.1f}: {beyond} of {n}"
              " passes beyond it)")
        print(f"  setup_s      {m['setup_s']['value']:.6g} s  (median of "
              f"{len(res['setup_samples'])} fresh processes)")
        print(f"  peak_rss_mb  {m['peak_rss_mb']['value']:.6g} MB")
    print(f"  fail_frac    {fail / att:.6g} failed/attempted ({fail} of {att}"
          " passes)")
    ref = res["reference"]
    cmp = ref.get("comparison")
    if cmp:
        print(f"  reference    worst deviation {cmp['worst_deviation']:.3g} "
              f"tolerances ({cmp['worst_scalar']}); digests identical "
              f"{cmp['digests_same']}/{cmp['digests_total']}")
    ratios = [n["criterion06_ratios"] for n in res["notes"]
              if "criterion06_ratios" in n]
    if ratios:
        med = [statistics.median(col) for col in zip(*ratios)]
        print("  criterion 06 sup_t E Q/|log eps| at eps 1e-1..1e-4 "
              f"(expected to rise, not judged): median "
              f"{[round(r, 4) for r in med]}")
    for p in res["problems"][:5]:
        print(f"  FAILED pass {p['pass']}: {'; '.join(p['problems'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring time per workload (BENCHMARK.json "
                         "run_seconds by default)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sdelab" / "__init__.py").is_file():
        print(f"sdelab sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    seconds = args.seconds
    if seconds is None:
        with open(ROOT / "BENCHMARK.json") as fh:
            seconds = json.load(fh)["run_seconds"]
    if seconds < 1:
        ap.error("--seconds must be at least 1")

    names = [args.workload] if args.workload else list(WORKLOADS)
    env = environment()
    print(f"# environment: {json.dumps(env)}")
    results = {}
    for name in names:
        res = run_workload(name, args.seed, seconds, args.trace)
        res["environment"] = env
        RUNS.mkdir(exist_ok=True)
        record = RUNS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        with open(record, "w") as fh:
            json.dump(res, fh, indent=1)
        report(name, res, args.trace)
        results[name] = res

    if args.workload:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
