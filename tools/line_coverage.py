"""Print which function-body lines of ``src/sdelab`` the product's traffic runs.

The traffic runs in this one process, traced with ``sys.settrace`` and
``threading.settrace``:

- ``import sdelab`` (its preset table and scenario records are built by
  function calls);
- the seven default scenarios, each through ``runner.main(["run", ...])``
  with its default config (``{"scenario": name}``) into a temporary
  directory;
- one pass of each ``perfbench`` workload (set-up, the reference seed's
  first pass, its check), imported from ``perfbench/workloads.py`` as is;
- ``tests/test_acceptance.py`` through ``pytest.main`` (about a minute).

With ``--tier1`` the same process then runs the rest of ``tests/`` (the
test suite without the acceptance file) through ``pytest.main``, and each
module's lines split three ways: run by the product's traffic, run only by
the unit tests, and run by nothing (about three minutes in all).

A function-body line is a line that the code object of a function, a
lambda or a comprehension holds instructions for (``co_lines``), less the
``def`` line itself, which reports no line event. Per module the tool
prints the body lines, those the traffic ran and those it did not, and
then the unrun lines grouped by the function that holds them; a line of a
``raise`` statement is counted apart from the rest. With ``--tier1`` the
table gains a column of the lines only unit tests run, listed by function
before the lines nothing runs::

    python tools/line_coverage.py [--src DIR] [--tier1]

Standard library only (the traffic itself needs numpy, scipy and pytest).
``--src`` (default: this checkout's ``src``) is the source directory the
package is imported from, as in ``tools/run_tree_digest.py``; the
scenarios, workloads and tests are always this checkout's.
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


def _pytest(label: str, *args: str) -> None:
    import pytest

    with redirect_stdout(io.StringIO()) as out:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    summary = out.getvalue().strip().splitlines()
    print(f"{label}: exit {int(status)}, {summary[-1] if summary else ''}",
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


def _by_function(title: str, lines_by_module: dict) -> None:
    """The lines of each module grouped by the function that holds them,
    raise lines after 'raise:'."""
    print(f"{title} by function (raise lines after 'raise:'):")
    for module, (owner, raises, lines) in lines_by_module.items():
        functions = {}
        for line in lines:
            functions.setdefault(owner[line], []).append(line)
        for function, lines in sorted(functions.items(),
                                      key=lambda item: item[1][0]):
            rest = [line for line in lines if line not in raises]
            raised = [line for line in lines if line in raises]
            text = _spans(rest)
            if raised:
                text += f"{' ' if text else ''}raise: {_spans(raised)}"
            print(f"  {module}:{function}  {text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source directory holding the sdelab package")
    parser.add_argument("--tier1", action="store_true",
                        help="also run the unit tests and list the lines "
                             "only they run")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    paths = sorted((src / "sdelab").glob("*.py"))
    hits = {str(p): set() for p in paths}

    # One tracer for both phases: the pool threads keep the trace function
    # they started with, so the unit-test phase reuses the same sets after
    # the product's lines are copied out of them. The import is traced
    # too: the preset table and the scenario records are built by calls.
    trace = _tracer(hits)
    threading.settrace(trace)
    sys.settrace(trace)
    tests = {str(p): set() for p in paths}
    try:
        import sdelab

        package = Path(sdelab.__file__).resolve().parent
        if package != src / "sdelab":
            parser.error(f"sdelab was already imported from {package}")
        with tempfile.TemporaryDirectory() as tmp:
            _scenarios(Path(tmp) / "scenarios")
            _workloads(Path(tmp) / "workloads")
            acceptance = str(ROOT / "tests" / "test_acceptance.py")
            _pytest("acceptance", acceptance)
            if args.tier1:
                product = {name: set(seen) for name, seen in hits.items()}
                for seen in hits.values():
                    seen.clear()
                _pytest("unit tests", str(ROOT / "tests"), "--ignore", acceptance)
                tests = {name: seen - product[name]
                         for name, seen in hits.items()}
                hits = product
    finally:
        sys.settrace(None)
        threading.settrace(None)

    columns = ("body", "run") + ("tests",) * args.tier1 + ("unrun", "raise")
    print(f"{'module':<12}" + "".join(f" {c:>6}" for c in columns))
    totals = [0] * len(columns)
    only_tests, unrun_by_module = {}, {}
    for path in paths:
        owner = _body_lines(path)
        raises = _raise_lines(path)
        ran, tested = hits[str(path)], sorted(tests[str(path)] & set(owner))
        unrun = sorted(set(owner) - ran - set(tested))
        row = [len(owner), len(set(owner) & ran)] + [len(tested)] * args.tier1 \
            + [len(unrun), sum(line in raises for line in unrun)]
        totals = [t + r for t, r in zip(totals, row)]
        print(f"{path.name:<12}" + "".join(f" {v:>6}" for v in row))
        only_tests[path.name] = (owner, raises, tested)
        unrun_by_module[path.name] = (owner, raises, unrun)
    print(f"{'total':<12}" + "".join(f" {v:>6}" for v in totals))

    if args.tier1:
        _by_function("lines only unit tests run", only_tests)
    _by_function("unrun lines", unrun_by_module)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
