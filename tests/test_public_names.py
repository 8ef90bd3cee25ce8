"""Every public name has a caller outside the tests, or the README says why
it stays: each name ``tools/surface_count.py`` lists as without a caller in
``src``, ``tools`` or ``perfbench`` appears in backticks in ``README.md``."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _surface_count():
    spec = importlib.util.spec_from_file_location(
        "surface_count", ROOT / "tools" / "surface_count.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_public_name_without_a_caller_is_in_the_readme():
    prose = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(),
                   flags=re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    documented = set(re.findall(r"\w+", " ".join(spans)))
    missing = [q for q in _surface_count().uncalled(ROOT / "src")
               if q.rsplit(".", 1)[1] not in documented]
    assert not missing, missing
