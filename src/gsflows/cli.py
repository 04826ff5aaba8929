"""Command-line interface.

Exit codes: 0 success (valid / realizable), 1 invalid or not realizable,
2 undecided, 64 usage error, 66 unreadable input file, 70 internal failure.

The argument parser is built once per process and reused by every `main`
call; each call parses into a fresh namespace, so the exit codes and output
of a call do not depend on the calls before it.  `realize` validates the
graph itself, and the CLI maps its `InvalidGraphError` to exit 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .blocks import catalog_counts, minimal_block_catalog
from .branched import enumerate_connected
from .documents import (
    ParseError,
    catalog_document,
    export_dot,
    parse_graph,
    report_document,
    report_to_json,
    serialize_graph,
)
from .generator import gen_random_gs_graph
from .model import SingularityType, parse_type, ph_residual
from .realize import NOT_REALIZABLE, REALIZABLE, InvalidGraphError, classify_graph, realize

EX_OK = 0
EX_FAIL = 1
EX_UNKNOWN = 2
EX_USAGE = 64
EX_NOINPUT = 66
EX_SOFTWARE = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exit code is 2
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        print(f"cannot read {path}: {err}", file=sys.stderr)
        raise SystemExit(EX_NOINPUT) from None
    try:
        return parse_graph(text)
    except ParseError as err:
        print(f"{path}: {err}", file=sys.stderr)
        raise SystemExit(EX_FAIL) from None


def _cmd_validate(args) -> int:
    g = _load(args.file)
    try:
        status = classify_graph(g)
    except InvalidGraphError as err:
        for item in err.report:
            print(f"violation: {item}")
        print("structurally invalid")
        return EX_FAIL
    print(f"structure: ok ({len(g.vertices)} vertices, {len(g.edges)} edges)")
    for vid, sg in sorted(status.semigraphs.items()):
        verdict = status.verdicts[vid]
        text = verdict.status if verdict.ok else f"no ({verdict.reason})"
        print(f"vertex {vid} ({sg.label}): residual={ph_residual(sg)} verdict={text}")
    return EX_OK if status.is_gs else EX_FAIL


def _cmd_realize(args) -> int:
    g = _load(args.file)
    try:
        verdict = realize(g, search_bound=args.search_bound)
    except InvalidGraphError:
        print("realize requires a structurally valid closed graph", file=sys.stderr)
        return EX_FAIL
    sys.stdout.write(report_to_json(report_document(g, verdict)))
    if verdict.status == REALIZABLE:
        return EX_OK
    if verdict.status == NOT_REALIZABLE:
        return EX_FAIL
    return EX_UNKNOWN


def _cmd_euler(args) -> int:
    g = _load(args.file)
    try:
        status = classify_graph(g) if g.is_closed() else None
    except InvalidGraphError:
        status = None
    if status is None:
        print("euler requires a structurally valid closed graph", file=sys.stderr)
        return EX_FAIL
    print(f"euler (Conley sum): {status.conley}")
    print(f"euler (nature formula): {status.euler}")
    print(f"fold balance: {status.fold_balance}")
    return EX_OK


def _cmd_enumerate(args) -> int:
    forms = enumerate_connected(args.weight)
    for comp in forms:
        print(comp.encode())
    print(f"count: {len(forms)}")
    return EX_OK


def _cmd_catalog(args) -> int:
    if args.json:
        sys.stdout.write(json.dumps(catalog_document(), indent=2, sort_keys=True) + "\n")
        return EX_OK
    wanted = parse_type(args.type) if args.type else None
    for entry in minimal_block_catalog():
        if wanted is not None and entry.label.kind is not wanted:
            continue
        n_plus = entry.n_plus.encode() if entry.n_plus else "-"
        n_minus = entry.n_minus.encode() if entry.n_minus else "-"
        flags = " provisional" if entry.provisional else ""
        print(
            f"{entry.name}: ({entry.label}) e+={entry.e_plus} e-={entry.e_minus} "
            f"N+={n_plus} N-={n_minus}{flags}"
        )
    counts = catalog_counts()
    print(" ".join(str(counts[t]) for t in SingularityType) + f" / {sum(counts.values())}")
    return EX_OK


def _cmd_export_dot(args) -> int:
    g = _load(args.file)
    sys.stdout.write(export_dot(g))
    return EX_OK


def _cmd_gen_random(args) -> int:
    g = gen_random_gs_graph(args.seed, size=args.vertices, minimal=args.minimal)
    sys.stdout.write(serialize_graph(g))
    return EX_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gsflows", description="Lyapunov graph realizability toolkit")
    parser.add_argument("--version", action="version", version=f"gsflows {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structure and per-vertex report")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("realize", help="decide realizability, print a report")
    p.add_argument("file")
    p.add_argument("--search-bound", type=int, default=None)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("euler", help="both Euler characteristics and fold balance")
    p.add_argument("file")
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("enumerate", help="connected branched forms of a weight")
    p.add_argument("--weight", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("catalog", help="minimal isolating block catalog")
    p.add_argument("--type", default=None, help="restrict to one chart type (R/C/W/D/T)")
    p.add_argument("--json", action="store_true", help="versioned machine-readable dump")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("export-dot", help="graph in DOT syntax")
    p.add_argument("file")
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("gen-random", help="seeded random valid graph document")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--vertices", type=int, default=8)
    p.add_argument("--minimal", action="store_true")
    p.set_defaults(func=_cmd_gen_random)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else EX_USAGE
    try:
        return args.func(args)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else EX_FAIL
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EX_USAGE
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
