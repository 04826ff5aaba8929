"""Every name the library defines is read somewhere.

Each top-level function, class, method and module-level assignment in
`src/gsflows` must appear, as a whole word, in some file under `src/` or
`tests/` (package `__init__.py` files excepted, since they only re-export)
outside its own definition line.  Dunder methods are called implicitly and
are exempt.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gsflows"


def _definitions(path: Path):
    """(name, line) for each definition the check covers."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.lineno
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        yield item.name, item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node.lineno


def _word_sites() -> dict[str, set[tuple[Path, int]]]:
    sites: dict[str, set[tuple[Path, int]]] = defaultdict(set)
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
    for path in files:
        if path.name == "__init__.py":
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for word in re.findall(r"\w+", line):
                sites[word].add((path, lineno))
    return sites


def test_every_definition_is_read():
    sites = _word_sites()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, lineno in _definitions(path):
            if not sites.get(name, set()) - {(path, lineno)}:
                unread.append(f"{path.name}:{lineno} {name}")
    assert not unread, "defined but never read: " + ", ".join(unread)
