"""Text formats: graph documents, verdict reports, DOT export.

Graph documents are line-oriented:

    gsgraph v1
    vertex <id> <type> <nature>
    edge <src|OPEN> <dst|OPEN> <weight>

Blank lines and '#' comments are skipped; words are separated by runs of
spaces.  Enum names are matched case insensitively, no vertex id may read as
OPEN in any case, and a weight is ASCII decimal digits, leading zeros
allowed, worth at least 1 ('-1' is read as -1 and fails that bound).
Everything else is rejected with a line/column diagnostic.  The parser
splits each line once into its words, and filters out empty words only
when a line has some; the column of a word is computed only when a
diagnostic needs it.  A vertex's type and nature words in their canonical
spelling ('R a', 'W s_s') are looked up in `model.LABELS_BY_WORDS`, which
holds one shared label per admissible label; only another spelling goes
through `parse_type` and `parse_nature`, which also give the diagnostics.
Serialization emits vertices sorted by id and edges sorted by endpoints, so
serialize(parse(d)) is the canonical form of d and a fixed point of the
round trip.

A report reads every figure it shows from the verdict and scans the graph
for none: `realize` sums the Euler characteristic, the fold balance and the
Conley sum (`RealizationVerdict.conley`) in its one classification pass,
whose `GSGraphStatus` also carries the condition rows that hold at every
vertex.  A certificate encodes each distinct form object once; the uniform
certificates of the sufficient conditions hold one shared form per edge
weight.  What makes `gsflows realize` fast is that vertex shapes repeat,
within a document and across documents: classification keeps the facts of
up to `realize._VERDICT_CACHE_SIZE` (4 096) distinct shapes (label,
entering and exiting weights) and mostly reads them from there (see
`realize`).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .blocks import minimal_block_catalog
from .branched import Branched1Manifold, parse_manifold
from .model import (
    LABELS_BY_WORDS,
    OPEN,
    Edge,
    LyapunovGraph,
    VertexLabel,
    parse_nature,
    parse_type,
)
from .realize import RealizationVerdict

REPORT_VERSION = 2
HEADER = "gsgraph v1"


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _tokens(text_line: str) -> list[tuple[str, int]]:
    out = []
    col = 0
    for raw in text_line.split(" "):
        if raw:
            out.append((raw, col + 1))
        col += len(raw) + 1
    return out


def parse_graph(text: str) -> LyapunovGraph:
    """Parse a graph document, raising ParseError with positions."""
    g = LyapunovGraph()
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, 1, "empty document")
    header_seen = False
    edge_lines: list[int] = []  # the line number of each edge, in edge order
    for lineno, raw in enumerate(lines, start=1):
        line = (raw[:raw.index("#")] if "#" in raw else raw).rstrip()
        words = line.split(" ")
        if "" in words:
            words = [w for w in words if w]
            if not words:
                continue
        if not header_seen:
            if line.strip() != HEADER:
                raise ParseError(lineno, _tokens(line)[0][1], f"expected header {HEADER!r}")
            header_seen = True
            continue
        word = words[0]
        if word == "vertex":
            if len(words) != 4:
                raise ParseError(lineno, _tokens(line)[0][1], "vertex takes: id type nature")
            vid = words[1]
            if vid.upper() == "OPEN":
                raise ParseError(lineno, _tokens(line)[1][1], f"vertex id {vid!r} is reserved for dangling edge ends")
            if vid in g.vertices:
                raise ParseError(lineno, _tokens(line)[1][1], f"duplicate vertex id {vid!r}")
            label = LABELS_BY_WORDS.get((words[2], words[3]))
            if label is None:
                try:
                    kind = parse_type(words[2])
                except ValueError as err:
                    raise ParseError(lineno, _tokens(line)[2][1], str(err)) from None
                try:
                    label = VertexLabel(kind, parse_nature(words[3]))
                except ValueError as err:
                    raise ParseError(lineno, _tokens(line)[3][1], str(err)) from None
            g.vertices[vid] = label
        elif word == "edge":
            if len(words) != 4:
                raise ParseError(lineno, _tokens(line)[0][1], "edge takes: src dst weight")
            src, dst, weight = words[1:]
            if not (weight.isascii() and weight.removeprefix("-").isdigit()):
                raise ParseError(lineno, _tokens(line)[3][1], f"weight must be an integer, got {weight!r}")
            w = int(weight)
            if w < 1:
                raise ParseError(lineno, _tokens(line)[3][1], "weight must be >= 1")
            g.edges.append(
                Edge(OPEN if src.upper() == "OPEN" else src, OPEN if dst.upper() == "OPEN" else dst, w)
            )
            edge_lines.append(lineno)
        else:
            raise ParseError(lineno, _tokens(line)[0][1], f"unknown directive {word!r}")
    if not header_seen:
        raise ParseError(1, 1, f"expected header {HEADER!r}")
    for i, (src, dst, _) in enumerate(g.edges):
        for k, end in ((1, src), (2, dst)):
            if end is not None and end not in g.vertices:
                lineno = edge_lines[i]
                line = lines[lineno - 1].split("#", 1)[0]
                raise ParseError(lineno, _tokens(line)[k][1], f"edge {i} references unknown vertex {end!r}")
    return g


def serialize_graph(g: LyapunovGraph) -> str:
    g = g.canonical()
    lines = [HEADER]
    for vid, label in g.vertices.items():
        lines.append(f"vertex {vid} {label.kind} {label.nature}")
    for e in g.edges:
        src = "OPEN" if e.src is None else e.src
        dst = "OPEN" if e.dst is None else e.dst
        lines.append(f"edge {src} {dst} {e.weight}")
    return "\n".join(lines) + "\n"


def export_dot(g: LyapunovGraph) -> str:
    """Graphviz digraph: one node per vertex and per open edge end, one arc per edge.

    Ids escape backslashes and quotes.
    """
    g = g.canonical()
    lines = ["digraph lyapunov {"]
    names = {vid: vid.replace("\\", "\\\\").replace('"', '\\"') for vid in g.vertices}
    for vid, label in g.vertices.items():
        vid = names[vid]
        lines.append(f'  "{vid}" [label="{vid}\\n({label.kind},{label.nature})"];')
    # Open ends are points, named by a prefix that begins no vertex id.
    prefix = "__open"
    while any(vid.startswith(prefix) for vid in g.vertices):
        prefix = "_" + prefix
    opens = 0
    for e in g.edges:
        ends = []
        for end in (e.src, e.dst):
            if end is None:
                name = f"{prefix}{opens}"
                opens += 1
                lines.append(f'  "{name}" [shape=point, label=""];')
                ends.append(name)
            else:
                ends.append(names[end])
        lines.append(f'  "{ends[0]}" -> "{ends[1]}" [label="{e.weight}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _fraction_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def report_document(g: LyapunovGraph, verdict: RealizationVerdict) -> dict:
    """Machine-readable verdict report for a closed graph, read off the verdict."""
    cert = None
    if verdict.certificate is not None:
        codes: dict[int, str] = {}
        cert = {}
        for i, m in sorted(verdict.certificate.items()):
            code = codes.get(id(m))
            if code is None:
                code = codes[id(m)] = m.encode()
            cert[str(i)] = code
    chi = verdict.euler
    return {
        "version": REPORT_VERSION,
        "status": verdict.status,
        "theorem": verdict.theorem,
        "reason": verdict.reason,
        "witness": list(verdict.witness),
        "searched_bound": verdict.searched_bound,
        "certificate": cert,
        "euler": {
            "conley": verdict.conley,
            "nature_formula": _fraction_str(chi),
            "integer": chi.denominator == 1,
        },
        "fold_balance": verdict.fold_balance,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_certificate(report: dict) -> dict[int, Branched1Manifold]:
    """Recover manifold values from a report's certificate strings.

    A report or certificate of another shape raises ValueError naming the
    offending key.  An edge index is written in plain decimal ('0', '12'):
    ASCII digits with no leading zero, so no two keys name one edge.
    """
    if not isinstance(report, dict):
        raise ValueError(f"a report must be a JSON object, got {type(report).__name__}")
    cert = report.get("certificate")
    if cert is None:
        cert = {}
    if not isinstance(cert, dict):
        raise ValueError(f"'certificate' must map edge indices to forms, got {type(cert).__name__}")
    for k, v in cert.items():
        if not (isinstance(k, str) and k.isascii() and k.isdigit() and (k[0] != "0" or k == "0")):
            raise ValueError(f"certificate {k!r}: key must be an edge index in plain decimal")
        if not isinstance(v, str):
            raise ValueError(f"certificate {k!r}: form must be a string, got {type(v).__name__}")
    forms = {}
    for k, v in cert.items():
        try:
            forms[int(k)] = parse_manifold(v)
        except ValueError as err:
            raise ValueError(f"certificate {k!r}: {err}") from None
    return forms


CATALOG_VERSION = 2


def catalog_document() -> dict:
    """Versioned machine-readable dump of the minimal block catalog.

    Boundary forms use the same canonical text encoding as everywhere else;
    routing lists the (entering, exiting) component pairs joined by a flow
    band.
    """
    entries = []
    for e in minimal_block_catalog():
        entries.append(
            {
                "name": e.name,
                "type": str(e.label.kind),
                "nature": str(e.label.nature),
                "e_plus": e.e_plus,
                "e_minus": e.e_minus,
                "n_plus": e.n_plus.encode() if e.n_plus else "",
                "n_minus": e.n_minus.encode() if e.n_minus else "",
                "beta_in": e.beta_in,
                "beta_out": e.beta_out,
                "routing": sorted(list(pair) for pair in e.routing),
                "orientable": e.orientable,
                "provisional": e.provisional,
            }
        )
    return {"version": CATALOG_VERSION, "entries": entries}
