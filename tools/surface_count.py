"""Print the size of sdelab's code and of its settable surface.

Four parts, each computed from the source text alone (``ast``; nothing is
imported, so numpy need not be installed):

- per module under ``src/sdelab`` and in total, the lines and the settable
  values: the parameters of every callable a module lists in
  its ``__all__`` (functions, and for a class its constructor plus the
  public methods it defines itself, static and class methods included;
  ``self`` and ``cls`` excluded), with the number that have a default. A
  dataclass constructor takes its fields (those of dataclass bases first);
- the config keys of each scenario (the defaults literal of each record
  of ``runner.SCENARIOS``), as dotted paths to their leaves;
- the public names without a caller: every name in a module's ``__all__``,
  and each public method a class among them defines, that no code under
  ``src``, ``tools`` or ``perfbench`` (next to ``src``) reads outside the
  name's own definition (its whole body). A method is read only as an
  attribute (``x.mass``); a module-level name as a loaded name or as an
  attribute (``sl.coarsen``). Docstrings, comments, strings, import
  statements and ``__all__`` lists read nothing;
- the stored fields without a reader: each dataclass field, and each
  ``self.`` attribute an ``__init__`` sets, of the classes under
  ``src/sdelab`` that are not ``report.Serialisable`` (whose fields
  ``_jsonable`` writes), that no code under ``src``, ``tools`` or
  ``perfbench`` reads as an attribute of any object (``x.field``, loaded or
  updated) or through ``getattr`` with a constant name. Reads are matched by
  name alone, so a field that shares its name with a read one is missed
  (``PathEnsemble.dt`` with ``BrownianStore.dt``), but no read field is
  listed.

Run ``python3 tools/surface_count.py [--src DIR]``; ``--src`` (default:
this checkout's ``src``) is the source directory to count, so two trees
compare with one ``diff``. Standard library only.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _fields(node: ast.ClassDef, classes: dict) -> list:
    """(name, has default) per dataclass field, dataclass bases first."""
    out = []
    for base in node.bases:
        if isinstance(base, ast.Name) and base.id in classes:
            out += _fields(classes[base.id], classes)
    if not _is_dataclass(node):
        return out
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) \
                and "ClassVar" not in ast.unparse(stmt.annotation):
            out = [f for f in out if f[0] != stmt.target.id]
            out.append((stmt.target.id, stmt.value is not None))
    return out


def _params(fn) -> list:
    """(name, has default) per parameter of a def, self and cls excluded."""
    a = fn.args
    positional = a.posonlyargs + a.args
    defaults = [False] * (len(positional) - len(a.defaults)) + [True] * len(a.defaults)
    out = list(zip((p.arg for p in positional), defaults))
    out += [(p.arg, d is not None) for p, d in zip(a.kwonlyargs, a.kw_defaults)]
    out += [(p.arg, False) for p in (a.vararg, a.kwarg) if p is not None]
    return [p for p in out if p[0] not in ("self", "cls")]


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _public_all(tree: ast.Module) -> list:
    """The names of a module's __all__ (none without one)."""
    return next((ast.literal_eval(s.value) for s in tree.body if _is_all(s)), [])


def _settable(tree: ast.Module, classes: dict) -> list:
    """(name, has default) of every settable value of a module's __all__."""
    defs = {s.name: s for s in tree.body
            if isinstance(s, (ast.FunctionDef, ast.ClassDef))}
    out = []
    for name in _public_all(tree):
        node = defs.get(name)
        if isinstance(node, ast.FunctionDef):
            out += _params(node)
        elif isinstance(node, ast.ClassDef):
            methods = {s.name: s for s in node.body
                       if isinstance(s, ast.FunctionDef)}
            out += _params(methods["__init__"]) if "__init__" in methods \
                else _fields(node, classes)
            for mname, m in methods.items():
                if not mname.startswith("_") and not any(
                        isinstance(d, ast.Name) and d.id == "property"
                        for d in m.decorator_list):
                    out += _params(m)
    return out


def _definitions(path: Path, tree: ast.Module) -> dict:
    """Qualified name -> (path, lines of its definition) of every name in
    the module's __all__ and every public method its classes define."""
    nodes = {}
    for n in tree.body:
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            nodes[n.name] = n
        elif isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Name):
            nodes[n.targets[0].id] = n
    module, out = path.stem, {}
    for name in _public_all(tree):
        node = nodes[name]
        out[f"{module}.{name}"] = (path, range(node.lineno, node.end_lineno + 1))
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    out[f"{module}.{name}.{m.name}"] = (
                        path, range(m.lineno, m.end_lineno + 1))
    return out


def _reads(path: Path) -> list:
    """(path, line number, name, is an attribute) of each name a file's
    code reads: every ``ast.Attribute`` and every loaded ``ast.Name``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            out.append((path, node.lineno, node.attr, True))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((path, node.lineno, node.id, False))
    return out


def uncalled(src: Path) -> list:
    """Qualified names of the public names without a caller (see the
    module docstring), sorted."""
    paths = sorted((src / "sdelab").glob("*.py"))
    defs = {}
    for path in paths:
        defs.update(_definitions(path, ast.parse(path.read_text())))
    reads = [entry for root in (src, src.parent / "tools", src.parent / "perfbench")
             for path in sorted(root.rglob("*.py")) for entry in _reads(path)]
    out = []
    for qualname, (home, span) in defs.items():
        name, method = qualname.rsplit(".", 1)[1], qualname.count(".") == 2
        if not any(n == name and (attr or not method)
                   for path, i, n, attr in reads
                   if not (path == home and i in span)):
            out.append(qualname)
    return sorted(out)


def _serialisable(node: ast.ClassDef, classes: dict) -> bool:
    """Whether ``report.Serialisable`` is among the class's bases, at any
    depth."""
    names = [b.id for b in node.bases if isinstance(b, ast.Name)]
    return "Serialisable" in names or any(
        _serialisable(classes[n], classes) for n in names if n in classes)


def _stored(node: ast.ClassDef, classes: dict) -> set:
    """The class's dataclass fields and the ``self.`` attributes its
    ``__init__`` sets."""
    out = {name for name, _ in _fields(node, classes)}
    for init in node.body:
        if isinstance(init, ast.FunctionDef) and init.name == "__init__":
            out |= {t.attr for t in ast.walk(init)
                    if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                    and isinstance(t.value, ast.Name) and t.value.id == "self"}
    return out


def _field_reads(path: Path) -> set:
    """The attribute names a file's code reads: loaded or updated
    attributes, and constant names given to ``getattr``."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            out.add(node.target.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and len(node.args) > 1 \
                and isinstance(node.args[1], ast.Constant):
            out.add(node.args[1].value)
    return out


def unread(src: Path) -> list:
    """``module.Class.field`` of the stored fields without a reader (see
    the module docstring), sorted."""
    trees = {p: ast.parse(p.read_text()) for p in sorted((src / "sdelab").glob("*.py"))}
    classes = {n.name: n for t in trees.values() for n in t.body
               if isinstance(n, ast.ClassDef)}
    reads = set().union(*(_field_reads(path) for root in (
        src, src.parent / "tools", src.parent / "perfbench")
        for path in sorted(root.rglob("*.py"))))
    return sorted(f"{path.stem}.{node.name}.{name}"
                  for path, tree in trees.items() for node in tree.body
                  if isinstance(node, ast.ClassDef)
                  and not _serialisable(node, classes)
                  for name in _stored(node, classes) if name not in reads)


def _leaves(value, prefix="") -> list:
    if isinstance(value, dict) and value:
        return [leaf for k, v in value.items()
                for leaf in _leaves(v, f"{prefix}{k}.")]
    return [prefix[:-1]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src")
    args = parser.parse_args(argv)
    paths = sorted((args.src / "sdelab").glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in paths}
    classes = {n.name: n for t in trees.values() for n in t.body
               if isinstance(n, ast.ClassDef)}

    print(f"{'module':<12} {'lines':>6} {'settable':>9} {'default':>8}")
    lines = settable = default = 0
    for path, tree in trees.items():
        n = len(path.read_text().splitlines())
        values = _settable(tree, classes)
        with_default = sum(d for _, d in values)
        print(f"{path.name:<12} {n:>6} {len(values):>9} {with_default:>8}")
        lines, settable, default = lines + n, settable + len(values), \
            default + with_default
    print(f"{'total':<12} {lines:>6} {settable:>9} {default:>8}")

    runner = trees[args.src / "sdelab" / "runner.py"]
    table = next(s.value for s in runner.body
                 if isinstance(s, ast.Assign) and any(
                     isinstance(t, ast.Name) and t.id == "SCENARIOS"
                     for t in s.targets))
    # each record is _Scenario(description, defaults, pieces, body, ...)
    scenarios = {ast.literal_eval(k): ast.literal_eval(v.args[1])
                 for k, v in zip(table.keys, table.values)}
    print("config keys (besides scenario, seed, out):")
    for name in sorted(scenarios):
        keys = sorted(_leaves(scenarios[name]))
        print(f"  {name} ({len(keys)}): {', '.join(keys)}")
    print("public names without a caller in src, tools or perfbench:")
    for qualname in uncalled(args.src):
        print(f"  {qualname}")
    print("stored fields without a reader in src, tools or perfbench:")
    for qualname in unread(args.src):
        print(f"  {qualname}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
