"""Every name the library defines is read somewhere, and every name its prose cites exists.

Each top-level function, class, method and module-level assignment in
`src/gsflows` must appear, as a whole word, in some file under `src/` or
`tests/` (package `__init__.py` files excepted, since they only re-export)
outside its own definition line.  Dunder methods are called implicitly and
are exempt.

Each backticked identifier in a comment or docstring of `src/gsflows`,
dotted or called, must name something the package binds, a builtin, a
catalog block or a benchmark workload, so that prose citing a removed name
fails here.
"""

import ast
import builtins
import io
import json
import re
import tokenize
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


def _prose(path: Path):
    """The comments and docstrings of a module."""
    source = path.read_text(encoding="utf-8")
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield token.string
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield ast.get_docstring(node, clean=False) or ""


def _bound_names() -> set[str]:
    """Modules, definitions, parameters, and names and attributes assigned anywhere in the package."""
    names = {"gsflows"} | {path.stem for path in PACKAGE.glob("*.py")}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                names.add(node.id if isinstance(node, ast.Name) else node.attr)
    return names


def test_every_cited_name_exists():
    from gsflows.blocks import minimal_block_catalog

    known = _bound_names() | {e.name for e in minimal_block_catalog()}
    known |= {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]}
    # `name`, `a.b.name` or `name(args)`; other spans (subscripts, commands,
    # expressions) are not names.
    cited = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?", re.S)
    unknown = []
    for path in sorted(PACKAGE.glob("*.py")):
        for text in _prose(path):
            for span in re.findall(r"`([^`]+)`", text):
                match = cited.fullmatch(span)
                if match is None:
                    continue
                parts = match.group(1).split(".")
                if not hasattr(builtins, parts[0]) and not known.issuperset(parts):
                    unknown.append(f"{path.name}: `{span}`")
    assert not unknown, "cited but not defined: " + ", ".join(unknown)
