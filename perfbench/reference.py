"""Key scalars and series digests of each workload's reference pass.

``reference.json`` was recorded at the commit that introduced the benchmark.
Every run repeats the reference pass (inputs from ``REF_SEED``, pass 0) and
reports how far its scalars moved, in units of each scalar's tolerance, and
which digests still match. A scalar beyond its tolerance fails the pass; a
changed digest is reported only, since any change of floating-point order
changes it.

Record again (only when a change is meant to move the numbers, and say so):

    PYTHONPATH=src python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

REF_SEED = 0
REF_FILE = Path(__file__).resolve().with_name("reference.json")


def load() -> dict:
    with open(REF_FILE) as fh:
        return json.load(fh)


def compare(entry: dict, scalars: dict, digests: dict) -> dict:
    """Deviation of one reference pass from its recorded entry."""
    worst, worst_name = 0.0, None
    for name, rec in entry["scalars"].items():
        if name not in scalars:
            dev = float("inf")
        else:
            dev = abs(scalars[name][0] - rec["value"]) / rec["tol"] \
                if rec["tol"] > 0 else float(scalars[name][0] != rec["value"])
        if worst_name is None or dev > worst:
            worst, worst_name = dev, name
    same = sum(digests.get(k) == v for k, v in entry["digests"].items())
    return {"worst_deviation": worst, "worst_scalar": worst_name,
            "ok": worst <= 1.0, "digests_same": same,
            "digests_total": len(entry["digests"])}


def record() -> dict:
    from workloads import WORKLOADS

    out = {}
    with tempfile.TemporaryDirectory(dir=REF_FILE.parent.parent) as scratch:
        for name, cls in WORKLOADS.items():
            wl = cls()
            ctx = wl.setup(Path(scratch))
            inp = wl.inputs(REF_SEED, 0)
            res = wl.run(ctx, inp)
            problems = wl.check(ctx, inp, res)
            if problems:
                raise SystemExit(f"{name}: reference pass fails: {problems}")
            out[name] = {
                "seed": REF_SEED,
                "scalars": {k: {"value": v, "tol": t}
                            for k, (v, t) in wl.scalars(res).items()},
                "digests": wl.digests(res),
                "notes": wl.notes(res),
            }
            wl.cleanup(ctx, inp)
            wl.teardown(ctx)
    return out


if __name__ == "__main__":
    data = record()
    with open(REF_FILE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REF_FILE.name} for {sorted(data)}", file=sys.stderr)
