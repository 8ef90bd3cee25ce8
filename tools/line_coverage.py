"""Print which function-body lines of ``src/sdelab`` the product's traffic runs.

The traffic runs in this one process, traced with ``sys.settrace`` and
``threading.settrace``:

- the seven default scenarios, each through ``runner.main(["run", ...])``
  with its default config (``{"scenario": name}``) into a temporary
  directory;
- one pass of each ``perfbench`` workload (set-up, the reference seed's
  first pass, its check), imported from ``perfbench/workloads.py`` as is;
- ``tests/test_acceptance.py`` through ``pytest.main`` (about a minute).

A function-body line is a line that the code object of a function, a
lambda or a comprehension holds instructions for (``co_lines``), less the
``def`` line itself, which reports no line event. Per module the tool
prints the body lines, those the traffic ran and those it did not, and
then the unrun lines grouped by the function that holds them; a line of a
``raise`` statement is counted apart from the rest::

    python tools/line_coverage.py [--src DIR]

Standard library only (the traffic itself needs numpy, scipy and pytest).
``--src`` (default: this checkout's ``src``) is the source directory the
package is imported from, as in ``tools/run_tree_digest.py``; the
scenarios, workloads and acceptance tests are always this checkout's.
The trace takes too long for the test suite, which does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import sys
import tempfile
import threading
import types
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _code_objects(code):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const
            yield from _code_objects(const)


def _body_lines(path: Path) -> dict:
    """Function-body line -> qualified name of the innermost function that
    holds it (class bodies and module code excluded)."""
    owner = {}
    for code in _code_objects(compile(path.read_text(), str(path), "exec")):
        if not code.co_flags & 0x1:  # CO_OPTIMIZED: a function, not a class body
            continue
        lines = {line for *_, line in code.co_lines() if line is not None}
        if len(lines) > 1:
            lines.discard(code.co_firstlineno)
        for line in lines:  # nested code objects come after their parent
            owner[line] = code.co_qualname
    return owner


def _raise_lines(path: Path) -> set:
    return {line for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise)
            for line in range(node.lineno, node.end_lineno + 1)}


def _tracer(hits: dict):
    """A global trace function that adds the line events of code in each
    file ``hits`` is keyed by to ``hits[filename]``; other frames go
    untraced."""
    def recorder(seen):
        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local
    local_tracers = {name: recorder(seen) for name, seen in hits.items()}
    return lambda frame, event, arg: local_tracers.get(frame.f_code.co_filename)


def _scenarios(scratch: Path) -> None:
    from sdelab import SCENARIOS, runner

    scratch.mkdir()
    for name in sorted(SCENARIOS):
        config = scratch / f"{name}.json"
        config.write_text(json.dumps({"scenario": name}))
        with redirect_stdout(sys.stderr):
            status = runner.main(["run", str(config), "--out",
                                  str(scratch / "tree" / name)])
        print(f"scenario {name}: exit {status}", file=sys.stderr)


def _workloads(scratch: Path) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import reference
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        (scratch / name).mkdir(parents=True)
        ctx = wl.setup(scratch / name)
        try:
            inp = wl.inputs(reference.REF_SEED, 0)
            problems = wl.check(ctx, inp, wl.run(ctx, inp))
            wl.cleanup(ctx, inp)
        finally:
            wl.teardown(ctx)
        print(f"workload {name}: {problems or 'ok'}", file=sys.stderr)


def _acceptance() -> None:
    import pytest

    with redirect_stdout(io.StringIO()) as out:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              str(ROOT / "tests" / "test_acceptance.py")])
    summary = out.getvalue().strip().splitlines()
    print(f"acceptance: exit {int(status)}, {summary[-1] if summary else ''}",
          file=sys.stderr)


def _spans(lines) -> str:
    """'3 5-7 9' for [3, 5, 6, 7, 9]."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return " ".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source directory holding the sdelab package")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import sdelab

    package = Path(sdelab.__file__).resolve().parent
    if package != src / "sdelab":
        parser.error(f"sdelab was already imported from {package}")
    paths = sorted(package.glob("*.py"))
    hits = {str(p): set() for p in paths}

    trace = _tracer(hits)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            _scenarios(Path(tmp) / "scenarios")
            _workloads(Path(tmp) / "workloads")
            _acceptance()
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print(f"{'module':<12} {'body':>6} {'run':>6} {'unrun':>6} {'raise':>6}")
    totals = [0, 0, 0, 0]
    unrun_by_module = {}
    for path in paths:
        owner = _body_lines(path)
        raises = _raise_lines(path)
        unrun = sorted(set(owner) - hits[str(path)])
        row = [len(owner), len(owner) - len(unrun), len(unrun),
               sum(line in raises for line in unrun)]
        totals = [t + r for t, r in zip(totals, row)]
        print(f"{path.name:<12} {row[0]:>6} {row[1]:>6} {row[2]:>6} {row[3]:>6}")
        unrun_by_module[path.name] = (owner, raises, unrun)
    print(f"{'total':<12} {totals[0]:>6} {totals[1]:>6} {totals[2]:>6} "
          f"{totals[3]:>6}")

    print("unrun lines by function (raise lines after 'raise:'):")
    for module, (owner, raises, unrun) in unrun_by_module.items():
        functions = {}
        for line in unrun:
            functions.setdefault(owner[line], []).append(line)
        for function, lines in sorted(functions.items(),
                                      key=lambda item: item[1][0]):
            rest = [line for line in lines if line not in raises]
            raised = [line for line in lines if line in raises]
            text = _spans(rest)
            if raised:
                text += f"{' ' if text else ''}raise: {_spans(raised)}"
            print(f"  {module}:{function}  {text}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
