"""Print the largest deviation per numeric column between two run trees.

A run tree holds one directory per scenario, as ``tools/run_tree_digest.py
--keep DIR`` leaves it in ``DIR/tree``. For every series CSV
(``<scenario>/series/*.csv``) present in both trees this prints either
``identical`` (same bytes) or, per numeric column, the largest absolute
deviation and that deviation relative to the column's largest magnitude in
TREE_A::

    python tools/run_tree_digest.py --src /path/to/other/src --keep /tmp/a
    python tools/run_tree_digest.py --keep /tmp/b
    python tools/series_deviation.py /tmp/a/tree /tmp/b/tree

Rows pair up by position when both files have the same number of rows.
Otherwise (a solver that records other time stamps) rows pair up by the
value of the first column and its occurrence count, so only the stamps both
runs share are compared; the counts are printed. Series present in only one
tree are listed. Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections import Counter
from pathlib import Path

import numpy as np


def _read(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _pair(rows_a, rows_b):
    """Row pairs: by position if the counts agree, else by first-column key."""
    if len(rows_a) == len(rows_b):
        return list(zip(rows_a, rows_b))

    def keyed(rows):
        seen = Counter()
        out = {}
        for row in rows:
            seen[row[0]] += 1
            out[(row[0], seen[row[0]])] = row
        return out

    ka, kb = keyed(rows_a), keyed(rows_b)
    return [(ka[k], kb[k]) for k in ka if k in kb]


def _column(values):
    try:
        return np.array([float(v) for v in values])
    except ValueError:
        return None


def compare(path_a: Path, path_b: Path) -> list[str]:
    if path_a.read_bytes() == path_b.read_bytes():
        return ["  identical"]
    head_a, rows_a = _read(path_a)
    head_b, rows_b = _read(path_b)
    if head_a != head_b:
        return [f"  header differs: {head_a} vs {head_b}"]
    pairs = _pair(rows_a, rows_b)
    lines = [f"  rows {len(rows_a)} vs {len(rows_b)}, {len(pairs)} compared"]
    if not pairs:
        return lines
    for j, name in enumerate(head_a):
        a = _column([ra[j] for ra, _ in pairs])
        b = _column([rb[j] for _, rb in pairs])
        if a is None or b is None:
            same = all(ra[j] == rb[j] for ra, rb in pairs)
            lines.append(f"  {name:>10}  text, {'same' if same else 'differs'}")
            continue
        dev = float(np.abs(a - b).max())
        scale = float(np.abs(a).max())
        rel = dev / scale if scale > 0 else (0.0 if dev == 0 else np.inf)
        lines.append(f"  {name:>10}  max_abs {dev:.3e}  max_rel {rel:.3e}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    args = parser.parse_args(argv)
    series_a = {p.relative_to(args.tree_a).as_posix()
                for p in args.tree_a.glob("*/series/*.csv")}
    series_b = {p.relative_to(args.tree_b).as_posix()
                for p in args.tree_b.glob("*/series/*.csv")}
    if not series_a and not series_b:
        print("no series CSVs under either tree", file=sys.stderr)
        return 2
    for rel in sorted(series_a | series_b):
        if rel not in series_a or rel not in series_b:
            side = "A" if rel in series_a else "B"
            print(f"{rel}: only in tree {side}")
            continue
        print(rel)
        for line in compare(args.tree_a / rel, args.tree_b / rel):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
