"""One workload in one fresh process: set up, warm up, time passes, report.

Started by run.py, which passes ``--t0``, its monotonic clock reading just
before the spawn, so that ``setup_s`` runs from process start to inputs
ready. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import reference
import spans


def measure(wl, ctx, seed: int, seconds: float, tracer=None,
            tracer_targets=()) -> dict:
    """Closed loop of passes until ``seconds`` have passed.

    With a tracer, odd passes run traced and even passes untraced, so the
    two medians come from interleaved passes and their difference is the
    tracing overhead. A pass fails if it raises or its outputs fail the
    workload's check.
    """
    walls = {False: [], True: []}
    failed = 0
    problems = []
    notes = []
    index = 0
    deadline = time.perf_counter() + seconds
    while index < (2 if tracer else 1) or time.perf_counter() < deadline:
        inp = wl.inputs(seed, index)
        traced = tracer is not None and index % 2 == 1
        installed = tracer.install(tracer_targets) if traced \
            else contextlib.nullcontext()
        if traced:
            tracer.pass_id = index
        wall = None
        try:
            with installed:
                t = time.perf_counter()
                try:
                    out = wl.run(ctx, inp)
                finally:
                    wall = time.perf_counter() - t
            bad = wl.check(ctx, inp, out)
            notes.append(wl.notes(out))
        except Exception as exc:  # a failed pass is counted, the run goes on
            bad = [f"{type(exc).__name__}: {exc}"]
        finally:
            if traced:
                tracer.pass_id = None
            wl.cleanup(ctx, inp)
        if wall is not None:
            walls[traced].append(wall)
        if bad:
            failed += 1
            problems.append({"pass": index, "problems": bad})
        index += 1
    return {"walls": walls[False], "traced_walls": walls[True],
            "attempted": index, "failed": failed, "problems": problems,
            "notes": notes}


def reference_pass(wl, ctx, entry: dict | None) -> dict:
    """The warm-up pass: fixed inputs, compared with reference.json."""
    inp = wl.inputs(reference.REF_SEED, 0)
    try:
        out = wl.run(ctx, inp)
        problems = wl.check(ctx, inp, out)
        cmp = reference.compare(entry, wl.scalars(out), wl.digests(out)) \
            if entry is not None else None
        notes = wl.notes(out)
    except Exception as exc:  # reported as a failed pass
        return {"ok": False, "problems": [f"{type(exc).__name__}: {exc}"]}
    finally:
        wl.cleanup(ctx, inp)
    if cmp is None:
        problems.append("no recorded reference for this workload")
    elif not cmp["ok"]:
        problems.append(f"{cmp['worst_scalar']} is {cmp['worst_deviation']:.3g}"
                        " tolerances from its reference")
    return {"ok": not problems, "problems": problems, "comparison": cmp,
            "notes": notes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--runs-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = spans.Tracer() if args.trace else None
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    args.runs_dir.mkdir(parents=True, exist_ok=True)
    targets = spans.targets() if tracer else ()
    with tracer.install(targets) if tracer else contextlib.nullcontext():
        ctx = wl.setup(args.runs_dir)
    setup_s = time.monotonic() - args.t0
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        entry = reference.load().get(args.workload)
        ref = reference_pass(wl, ctx, entry)
        res = measure(wl, ctx, args.seed, args.seconds, tracer, targets)
    finally:
        wl.teardown(ctx)
    res["attempted"] += 1
    if not ref["ok"]:
        res["failed"] += 1
        res["problems"].insert(0, {"pass": "reference",
                                   "problems": ref["problems"]})
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "reference": ref,
        **res,
    }
    if tracer:
        result["layers"] = spans.layer_metrics(
            tracer, res["traced_walls"], res["walls"])
        path = args.runs_dir / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed})
        result["spans_file"] = str(path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
