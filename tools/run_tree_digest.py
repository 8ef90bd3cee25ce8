"""Print the sha256 of every file the seven default scenarios write.

Each scenario runs with its default config (``{"scenario": name}``) through
``python -m sdelab run`` into a temporary directory, and every file of the
resulting run tree is printed as ``<sha256>  <scenario>/<path>``, sorted.
Run statuses go to stderr, so two trees compare with one command::

    diff <(python tools/run_tree_digest.py --src /path/to/other/src) \\
         <(python tools/run_tree_digest.py)

The exit status is 1 when a scenario's ``manifest.json`` is missing or
says ``complete: false`` (a crashed run), else 0.

Standard library only; ``--src`` (default: this checkout's ``src``) is the
source directory the scenarios are imported from. ``--keep DIR`` writes the
configs and the run tree (``DIR/tree/<scenario>/...``) into DIR and leaves
them there, so ``tools/series_deviation.py`` can compare two kept trees.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path


def _sdelab(src: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "sdelab", *args], env=env,
                          capture_output=True, text=True)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src",
                        help="source directory holding the sdelab package")
    parser.add_argument("--keep", type=Path, default=None, metavar="DIR",
                        help="write the run tree into DIR instead of a "
                             "temporary directory and keep it")
    args = parser.parse_args(argv)
    src = args.src.resolve()

    listing = _sdelab(src, "list-scenarios")
    if listing.returncode != 0:
        print(listing.stderr, file=sys.stderr)
        return 2
    names = sorted(line.split(":", 1)[0] for line in listing.stdout.splitlines()
                   if line.strip())
    if args.keep is not None:
        if (args.keep / "tree").exists():
            print(f"{args.keep / 'tree'} exists; give an empty directory",
                  file=sys.stderr)
            return 2
        args.keep.mkdir(parents=True, exist_ok=True)
    incomplete = []
    with (nullcontext(args.keep) if args.keep is not None
          else tempfile.TemporaryDirectory()) as tmp:
        root = Path(tmp)
        for name in names:
            cfg = root / f"{name}.json"
            cfg.write_text(json.dumps({"scenario": name}))
            run = _sdelab(src, "run", str(cfg), "--out", str(root / "tree" / name))
            print(f"{name}: exit {run.returncode} {run.stdout.strip()}"
                  f"{run.stderr.strip()}", file=sys.stderr)
            manifest = root / "tree" / name / "manifest.json"
            if not (manifest.is_file()
                    and json.loads(manifest.read_text()).get("complete")):
                incomplete.append(name)
        tree = root / "tree"
        for path in sorted(p for p in tree.rglob("*") if p.is_file()):
            print(f"{_sha256(path)}  {path.relative_to(tree).as_posix()}")
    if incomplete:
        print(f"incomplete runs: {', '.join(incomplete)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
