"""No library module reads the process environment.

Behaviour is set by arguments and module constants only, so a run depends
on its inputs alone.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gsflows"
READERS = {"environ", "getenv"}


def test_no_module_reads_the_environment():
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in READERS:
                if isinstance(node.value, ast.Name) and node.value.id == "os":
                    readers.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names} & READERS
                readers += [f"{path.name}:{node.lineno} from os import {n}" for n in sorted(names)]
    assert not readers, "environment read: " + ", ".join(readers)
