"""Every library module parses at the oldest Python that `pyproject.toml` admits.

`ast.parse` with `feature_version` rejects grammar that later versions added,
such as `except*` (3.11), and the running interpreter rejects what it does not
know itself, such as type parameter lists (3.12) under 3.11.  So syntax newer
than the declared floor fails here rather than on a user's interpreter.  Newer
library calls are not caught.
"""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gsflows"


def _floor() -> tuple[int, int]:
    spec = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["requires-python"]
    assert spec.startswith(">="), spec
    major, minor = spec.removeprefix(">=").split(".")[:2]
    return int(major), int(minor)


def test_floor_is_declared():
    assert _floor() == (3, 10)


def test_every_module_parses_at_the_floor():
    floor = _floor()
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 9
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
