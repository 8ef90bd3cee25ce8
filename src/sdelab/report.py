"""Structured check results and the one JSON and CSV writer of every result."""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


class Serialisable:
    """``to_dict``/``to_json`` of a dataclass: its fields in declaration
    order, arrays and numpy scalars as plain JSON values."""

    def to_dict(self) -> dict:
        return _jsonable(self)

    def to_json(self, path) -> str:
        return write_json(path, self.to_dict())


def write_json(path, payload, sort_keys: bool = False) -> str:
    """``payload`` (plain JSON values) written to ``path`` as 2-space
    indented JSON, keys in insertion order or sorted; returns the text."""
    text = json.dumps(payload, indent=2, sort_keys=sort_keys)
    Path(path).write_text(text)
    return text


# Rows formatted and written per call of write_csv's loop; not a setting.
CSV_CHUNK = 1024


@functools.lru_cache(maxsize=64)
def _template(types: tuple) -> str:
    """The %-template of a CSV row whose values have these types: %.17g for
    a float, %s for anything else."""
    return ",".join("%.17g" if issubclass(t, (float, np.floating)) else "%s"
                    for t in types) + "\n"


def write_csv(path, header, rows) -> None:
    """A tidy table: a header line, then one line per row; floats as %.17g.
    Each row is formatted by the one template of its value types; the rows
    are written CSV_CHUNK at a time, so a generator of rows is never held
    whole."""
    rows = map(tuple, rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := [_template(tuple(map(type, row))) % row
                        for row in itertools.islice(rows, CSV_CHUNK)]:
            fh.write("".join(chunk))


@dataclass
class Report(Serialisable):
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
