"""Core data model for Lyapunov graphs on singular surfaces.

A Lyapunov graph is a finite directed acyclic multigraph whose vertices are
labelled with a local chart type (plane, cone, Whitney umbrella, double or
triple crossing) together with the dynamical nature of the singularity, and
whose edges carry positive integer weights (first Betti numbers of level-set
components).  Edges may dangle on either end, which turns the graph into a
semi-graph.

This module holds the one label table: a row per admissible (type, nature)
label with its numerical Conley index, its nature counts and its entering
folds; the admissible natures are its key set.  On top of it sit the
Poincare-Hopf residual of a single vertex, the degree inequalities, the fold
bookkeeping, and the two Euler characteristic formulas whose agreement on
fold-balanced closed graphs is the main global cross-check.

Both Euler characteristics and the fold balance are sums over the vertices
of per-label terms (`label_terms`), stated once from the label table, so a
caller that already visits every vertex can add them up on the way.  The
table also gives one shared `VertexLabel` per admissible label
(`LABELS_BY_WORDS`, keyed by the two words a document spells it with), so
that parsing builds no label object for a canonical spelling.  A label
computes its hash, the dataclass value `hash((kind, nature))`, once, when it
is made, since every feasibility table query hashes its label.  `incidence`
and `validate_graph` never hash a label, so they also report on a label
made without its constructor.

The two label enums hash by identity (`object.__hash__`) instead of by
member name, since labels key dicts, sets and caches on every path.  This
finds the same entries as before: members are singletons and Enum equality
is already identity.  No output iterates a set of members, so no output
order depends on the hash either (the generator sorts its moves by enum
order on purpose).

`incidence` is the one routine that reads edge ends: one pass over the
edges gives each vertex's entering and exiting edge indices and the report
of `validate_graph`.  It finds an oriented cycle with Kahn's algorithm over
the index lists.  If vertices remain once no vertex is ready, it names one
cycle: from the first remaining vertex in insertion order it follows each
vertex's first remaining predecessor, in edge order, until a vertex
repeats, and reports that loop in edge direction as `oriented cycle:
a->b->a`.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cache


class SingularityType(Enum):
    """Local chart class of a singular point of the surface."""

    REGULAR = "R"
    CONE = "C"
    WHITNEY = "W"
    DOUBLE = "D"
    TRIPLE = "T"

    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


class Nature(Enum):
    """Dynamical character of a singularity."""

    A = "a"
    R = "r"
    S = "s"
    S_S = "s_s"
    S_U = "s_u"
    SA = "sa"
    SR = "sr"
    SS_S = "ss_s"
    SS_U = "ss_u"
    SSA = "ssa"
    SSR = "ssr"

    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


_T = SingularityType
_N = Nature

_REVERSE = {
    _N.A: _N.R,
    _N.R: _N.A,
    _N.S: _N.S,
    _N.S_S: _N.S_U,
    _N.S_U: _N.S_S,
    _N.SA: _N.SR,
    _N.SR: _N.SA,
    _N.SS_S: _N.SS_U,
    _N.SS_U: _N.SS_S,
    _N.SSA: _N.SSR,
    _N.SSR: _N.SSA,
}

# One row per admissible label: the numerical Conley index (h0, h1, h2); the
# number of attracting / saddle / repelling natures packed into the label
# (double crossings carry two, triple crossings three); and the folds whose
# omega-limit is the singularity, i.e. folds entering the minimal isolating
# block through its entering boundary.  Folds exiting the block are the
# mirror image under nature reversal.  The repelling Whitney index carries
# h2 = 2: this is what the boundary-count identity for the Whitney attractor
# (entering weight 2) and the Euler-sum coefficients both force, even though
# it is sometimes quoted as (0, 0, 1).
_LABELS: dict[tuple[SingularityType, Nature], tuple[tuple[int, int, int], tuple[int, int, int], int]] = {
    (_T.REGULAR, _N.A): ((1, 0, 0), (1, 0, 0), 0),
    (_T.REGULAR, _N.S): ((0, 1, 0), (0, 1, 0), 0),
    (_T.REGULAR, _N.R): ((0, 0, 1), (0, 0, 1), 0),
    (_T.CONE, _N.A): ((1, 0, 0), (1, 0, 0), 0),
    (_T.CONE, _N.S): ((0, 1, 0), (0, 1, 0), 0),
    (_T.CONE, _N.R): ((0, 1, 2), (0, 0, 1), 0),
    (_T.WHITNEY, _N.A): ((1, 0, 0), (1, 0, 0), 1),
    (_T.WHITNEY, _N.S_S): ((0, 1, 0), (0, 1, 0), 1),
    (_T.WHITNEY, _N.S_U): ((0, 0, 0), (0, 1, 0), 0),
    (_T.WHITNEY, _N.R): ((0, 0, 2), (0, 0, 1), 0),
    (_T.DOUBLE, _N.A): ((1, 0, 0), (2, 0, 0), 2),
    (_T.DOUBLE, _N.SA): ((0, 1, 0), (1, 1, 0), 2),
    (_T.DOUBLE, _N.SS_S): ((0, 3, 0), (0, 2, 0), 2),
    (_T.DOUBLE, _N.SS_U): ((0, 1, 0), (0, 2, 0), 0),
    (_T.DOUBLE, _N.SR): ((0, 0, 1), (0, 1, 1), 0),
    (_T.DOUBLE, _N.R): ((0, 0, 3), (0, 0, 2), 0),
    (_T.TRIPLE, _N.A): ((1, 0, 0), (3, 0, 0), 6),
    (_T.TRIPLE, _N.SSA): ((0, 1, 0), (1, 2, 0), 4),
    (_T.TRIPLE, _N.SSR): ((0, 1, 2), (0, 2, 1), 2),
    (_T.TRIPLE, _N.R): ((0, 0, 7), (0, 0, 3), 0),
}

ADMISSIBLE_NATURES: dict[SingularityType, frozenset[Nature]] = {
    t: frozenset(n for k, n in _LABELS if k is t) for t in SingularityType
}


@dataclass(frozen=True)
class ConleyIndex:
    """Ranks (h0, h1, h2) of the homology Conley index of a singularity."""

    h0: int
    h1: int
    h2: int

    def __post_init__(self) -> None:
        if min(self.h0, self.h1, self.h2) < 0:
            raise ValueError("Conley index ranks must be non-negative")
        if self.h0 not in (0, 1):
            raise ValueError("h0 must be 0 or 1")
        if self.h0 == 1 and (self.h1, self.h2) != (0, 0):
            raise ValueError("h0 = 1 forces h1 = h2 = 0")

    @property
    def euler_term(self) -> int:
        return self.h0 - self.h1 + self.h2


# The Conley index of each label, built once from the label table.
_INDICES = {key: ConleyIndex(*row[0]) for key, row in _LABELS.items()}


@dataclass(frozen=True)
class VertexLabel:
    """Pair (chart type, nature) attached to a graph vertex.

    Its hash, `hash((kind, nature))`, is computed once, at construction.
    """

    kind: SingularityType
    nature: Nature
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.nature not in ADMISSIBLE_NATURES[self.kind]:
            raise ValueError(f"nature {self.nature} not admissible for type {self.kind}")
        object.__setattr__(self, "_hash", hash((self.kind, self.nature)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.kind},{self.nature}"


#: The one shared label object of each admissible label, keyed by the type
#: and nature words in their canonical spelling, e.g. ``("R", "a")``.
LABELS_BY_WORDS: dict[tuple[str, str], VertexLabel] = {
    (kind.value, nature.value): VertexLabel(kind, nature) for kind, nature in _LABELS
}


#: Sentinel for a dangling edge end.
OPEN = None


#: Weighted directed edge (src, dst, weight); OPEN (None) endpoints dangle.
#: A named tuple: parsing builds one per edge line, and tuples build fastest.
Edge = namedtuple("Edge", "src dst weight")


@dataclass
class LyapunovGraph:
    """Finite directed multigraph with labelled vertices and weighted edges."""

    vertices: dict[str, VertexLabel] = field(default_factory=dict)
    edges: list[Edge] = field(default_factory=list)

    def add_vertex(self, vid: str, kind: SingularityType, nature: Nature) -> None:
        if vid in self.vertices:
            raise ValueError(f"duplicate vertex id {vid!r}")
        self.vertices[vid] = VertexLabel(kind, nature)

    def add_edge(self, src: str | None, dst: str | None, weight: int) -> None:
        self.edges.append(Edge(src, dst, weight))

    def is_closed(self) -> bool:
        return all(src is not None and dst is not None for src, dst, _ in self.edges)

    def canonical(self) -> "LyapunovGraph":
        """Copy with sorted vertex ids and sorted edge list."""
        verts = dict(sorted(self.vertices.items()))
        key = lambda e: (e.src or "", e.dst or "", e.weight)
        return LyapunovGraph(verts, sorted(self.edges, key=key))


@dataclass(frozen=True)
class SemiGraph:
    """A single labelled vertex with its incident edge weights."""

    label: VertexLabel
    in_weights: tuple[int, ...]
    out_weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.in_weights) + len(self.out_weights) < 1:
            raise ValueError("semi-graph needs at least one incident edge")
        if any(w < 1 for w in self.in_weights + self.out_weights):
            raise ValueError("edge weights must be >= 1")

    @property
    def e_plus(self) -> int:
        return len(self.in_weights)

    @property
    def e_minus(self) -> int:
        return len(self.out_weights)

    @property
    def b_plus(self) -> int:
        return sum(self.in_weights)

    @property
    def b_minus(self) -> int:
        return sum(self.out_weights)


def reverse_nature(n: Nature) -> Nature:
    """Nature of the same singularity under time reversal (an involution)."""
    return _REVERSE[n]


def conley_index(kind: SingularityType, nature: Nature) -> ConleyIndex:
    """Numerical Conley index of an admissible (type, nature) label."""
    try:
        return _INDICES[(kind, nature)]
    except KeyError:
        raise ValueError(f"inadmissible label ({kind}, {nature})") from None


def reverse_semigraph(sg: SemiGraph) -> SemiGraph:
    """Semi-graph of the time-reversed flow: swap sides, reverse the nature."""
    label = VertexLabel(sg.label.kind, reverse_nature(sg.label.nature))
    return SemiGraph(label, sg.out_weights, sg.in_weights)


def incidence(g: LyapunovGraph) -> tuple[dict[str, list[int]], dict[str, list[int]], list[str]]:
    """Each vertex's entering and exiting edge indices, in edge order, and the
    graph's structural violations, from one pass over the edges.

    An edge is listed at each end that is a vertex of the graph.  The report
    is the one `validate_graph` returns: per-edge violations in edge order,
    inadmissible labels, one oriented cycle, then isolated vertices.
    """
    ins: dict[str, list[int]] = {vid: [] for vid in g.vertices}
    outs: dict[str, list[int]] = {vid: [] for vid in g.vertices}
    report: list[str] = []
    free = []  # the targets of edges that leave no vertex
    edges = g.edges
    for i, (src, dst, weight) in enumerate(edges):
        if weight < 1:
            report.append(f"edge {i}: weight must be >= 1, got {weight}")
        if src in outs:
            outs[src].append(i)
        else:
            if src is not None:
                report.append(f"edge {i}: unknown source vertex {src!r}")
            elif dst is None:
                report.append(f"edge {i}: both ends open")
            free.append(dst)
        if dst in ins:
            ins[dst].append(i)
        elif dst is not None:
            report.append(f"edge {i}: unknown target vertex {dst!r}")
    # Label admissibility is enforced by VertexLabel on construction, but
    # re-check here so graphs built by other means still get a report.
    for vid, label in g.vertices.items():
        if label.nature not in ADMISSIBLE_NATURES[label.kind]:
            report.append(f"vertex {vid}: nature {label.nature} not admissible for {label.kind}")
    # Kahn's algorithm over the edges joining two vertices: `indegree` ends
    # positive exactly on the vertices that lie on a cycle or below one.
    indegree = {vid: len(into) for vid, into in ins.items()}
    for vid in free:
        if vid in indegree:
            indegree[vid] -= 1
    ready = [vid for vid, d in indegree.items() if not d]
    for u in ready:
        for i in outs[u]:
            v = edges[i].dst
            if v in indegree:
                indegree[v] -= 1
                if not indegree[v]:
                    ready.append(v)
    if len(ready) < len(indegree):
        # Every remaining vertex has a remaining predecessor: follow the
        # first one until a vertex repeats, then read the loop forwards.
        vid = next(v for v, d in indegree.items() if d)
        walk: dict[str, None] = {}
        while vid not in walk:
            walk[vid] = None
            vid = next(edges[i].src for i in ins[vid] if indegree.get(edges[i].src))
        back = list(walk)
        cycle = back[back.index(vid):] + [vid]
        report.append("oriented cycle: " + "->".join(reversed(cycle)))
    for vid in g.vertices:
        if not ins[vid] and not outs[vid]:
            report.append(f"vertex {vid}: isolated (semi-graphs need degree >= 1)")
    return ins, outs, report


def validate_graph(g: LyapunovGraph) -> list[str]:
    """Collect all structural violations; an empty list means valid."""
    return incidence(g)[2]


def semigraph(g: LyapunovGraph, vid: str) -> SemiGraph:
    """Project the vertex and its incident edges out of the graph."""
    if vid not in g.vertices:
        raise KeyError(f"unknown vertex id {vid!r}")
    ins = tuple(e.weight for e in g.edges if e.dst == vid)
    outs = tuple(e.weight for e in g.edges if e.src == vid)
    if not ins and not outs:
        raise ValueError(f"vertex {vid!r} has degree 0")
    return SemiGraph(g.vertices[vid], ins, outs)


def ph_residual(sg: SemiGraph) -> int:
    """Deviation from the Poincare-Hopf condition; zero iff it holds.

    The condition equates the difference of the Euler terms of the Conley
    index and the reversed-flow index with e+ - B+ - e- + B-, where B is the
    total boundary weight on each side.
    """
    fwd = conley_index(sg.label.kind, sg.label.nature).euler_term
    rev = conley_index(sg.label.kind, reverse_nature(sg.label.nature)).euler_term
    return (fwd - rev) - (sg.e_plus - sg.b_plus - sg.e_minus + sg.b_minus)


def degree_bounds_ok(sg: SemiGraph) -> bool:
    """Check e- - 1 <= h1 and e+ - 1 <= h1 of the reversed index."""
    h1 = conley_index(sg.label.kind, sg.label.nature).h1
    h1_rev = conley_index(sg.label.kind, reverse_nature(sg.label.nature)).h1
    return sg.e_minus - 1 <= h1 and sg.e_plus - 1 <= h1_rev


def fold_degrees(kind: SingularityType, nature: Nature) -> tuple[int, int]:
    """(folds entering, folds exiting) the minimal block of this label."""
    if nature not in ADMISSIBLE_NATURES[kind]:
        raise ValueError(f"inadmissible label ({kind}, {nature})")
    return _LABELS[(kind, nature)][2], _LABELS[(kind, reverse_nature(nature))][2]


def total_folds(kind: SingularityType) -> int:
    """Total folds meeting a minimal block of this chart type, whatever its nature."""
    return sum(fold_degrees(kind, _N.A))


@cache
def label_terms(kind: SingularityType, nature: Nature) -> tuple[int, int, int]:
    """The summands that an admissible label adds to the graph-wide sums:
    twice its term of a - s + r + W/2 + T (`euler_gs`, doubled to stay an
    integer), its entering minus exiting folds (`fold_balance`), and the
    Euler term h0 - h1 + h2 of its Conley index (`euler_conley`)."""
    fin, fout = fold_degrees(kind, nature)
    da, ds, dr = _LABELS[(kind, nature)][1]
    euler2 = 2 * (da - ds + dr) + (kind is _T.WHITNEY) + 2 * (kind is _T.TRIPLE)
    return euler2, fin - fout, conley_index(kind, nature).euler_term


def _require_closed(g: LyapunovGraph, op: str) -> None:
    if not g.is_closed():
        raise ValueError(f"{op} requires a closed graph (no dangling edges)")


def _sum_terms(g: LyapunovGraph, op: str) -> tuple[int, int, int]:
    """The `label_terms` of a closed graph's vertices, summed slot by slot."""
    _require_closed(g, op)
    terms = (label_terms(label.kind, label.nature) for label in g.vertices.values())
    return tuple(map(sum, zip((0, 0, 0), *terms)))


def fold_balance(g: LyapunovGraph) -> bool:
    """Whether entering and exiting fold counts agree over the whole graph."""
    _, folds, _ = _sum_terms(g, "fold_balance")
    return folds == 0


def euler_conley(g: LyapunovGraph) -> int:
    """Euler characteristic as the alternating sum of Conley indices."""
    _, _, conley = _sum_terms(g, "euler_conley")
    return conley


def nature_totals(g: LyapunovGraph) -> tuple[int, int, int]:
    """Total (attracting, saddle, repelling) nature counts over all vertices."""
    a = s = r = 0
    for label in g.vertices.values():
        da, ds, dr = _LABELS[(label.kind, label.nature)][1]
        a, s, r = a + da, s + ds, r + dr
    return a, s, r


def euler_characteristic(a: int, s: int, r: int, whitney: int, triple: int) -> Fraction:
    """a - s + r + W/2 + T as an exact rational."""
    return Fraction(a - s + r) + Fraction(whitney, 2) + Fraction(triple)


def euler_gs(g: LyapunovGraph) -> Fraction:
    """Euler characteristic a - s + r + W/2 + T from nature totals and W/T
    vertex counts, summed label by label.

    Returned as an exact rational so that integrality (equivalent to fold
    balance) is exactly testable.
    """
    euler2, _, _ = _sum_terms(g, "euler_gs")
    return Fraction(euler2, 2)


_TYPES = {t.value: t for t in SingularityType}
_NATURES = {n.value: n for n in Nature}


def parse_type(text: str) -> SingularityType:
    """Case-insensitive chart type lookup."""
    try:
        return _TYPES[text.strip().upper()]
    except KeyError:
        raise ValueError(f"unknown singularity type {text!r}") from None


def parse_nature(text: str) -> Nature:
    """Case-insensitive nature lookup."""
    try:
        return _NATURES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown nature {text!r}") from None
