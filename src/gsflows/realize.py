"""Global realizability of closed Lyapunov graphs.

A graph is realizable when branched 1-manifolds can be assigned to its edges
so that around every vertex the induced boundary pair bounds an isolating
block for the vertex label.  The sufficient conditions form one table,
evaluated in order of increasing generality over one classification of the
graph: all-minimal weights, no bifurcation vertices, minimal bifurcations,
plane/cone/Whitney labels only, and the two uniform edge-assignment
families.  Each fires with an explicit certificate mapping each edge to one
connected canonical form.  When no condition applies, a bounded exhaustive
search over per-edge form assignments either produces a certificate, proves
non-realizability within the bound, or reports the question as open.  The
search and the certificate audit share one assignment routine, `_assign`.
It assigns connected components, not manifolds: a form of two or more
components never reaches it, and each vertex check is one query of the
feasibility table on the target pair read off its edges' components.

`classify_graph` reads one `model.incidence` table: its report decides
validity, and its edge index lists give each vertex's weights and, for the
search, the vertices' edges.  `verify_certificate` makes the same pass and,
like `realize`, rejects invalid and open graphs.  A vertex's facts (its
`SemiGraph`, its `LocalVerdict`, the `CONDITIONS` rows that hold there and
its label's `label_terms`) depend only on its label and its entering and
exiting weights, so they come from one memo, `_vertex_facts`, keyed on the
plain tuple (type, nature, entering weights, exiting weights), bounded at
`_VERDICT_CACHE_SIZE` shapes, and the only memo of local verdicts.  A
repeated vertex builds no semi-graph and hashes no dataclass.  The speed
rests on shapes repeating: 600 seeded generated graphs of 4 to 48 vertices
hold 16 574 vertices but only 261 distinct semi-graphs.  `GSGraphStatus`
carries the rows that hold at every vertex, in table order, and the summed
label terms, so `realize` takes the first applicable row, and its verdict
the Euler characteristic, fold balance and Conley sum
(`RealizationVerdict.conley`, which the report shows), without a second
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .blocks import LocalVerdict, _feasible, local_realizable
from .branched import (
    MAX_ENUM_WEIGHT,
    Branched1Manifold,
    BranchedComponent,
    enumerate_connected,
    family_A,
    family_B,
    family_minimal,
    manifold,
)
from .model import (
    LyapunovGraph,
    Nature,
    SemiGraph,
    SingularityType,
    VertexLabel,
    incidence,
    label_terms,
    reverse_nature,
)

_T = SingularityType
_N = Nature

REALIZABLE = "realizable"
NOT_REALIZABLE = "not-realizable"
UNKNOWN = "unknown"

Certificate = dict[int, Branched1Manifold]


class InvalidGraphError(ValueError):
    """The graph is structurally invalid, or open where a closed one is needed.

    `report` lists the structural violations (`incidence`), none for an open graph.
    """

    def __init__(self, message: str, report: list[str] | None = None) -> None:
        super().__init__(message)
        self.report = report or []


@dataclass(frozen=True)
class RealizationVerdict:
    status: str
    theorem: str | None = None
    certificate: Certificate | None = None
    witness: tuple = ()
    reason: str | None = None
    searched_bound: int = 0
    #: The graph's `euler_gs`, `fold_balance` and `euler_conley`, which every
    #: report shows.
    euler: Fraction = field(kw_only=True)
    fold_balance: bool = field(kw_only=True)
    conley: int = field(kw_only=True)

    @property
    def realizable(self) -> bool:
        return self.status == REALIZABLE


@dataclass(frozen=True)
class GSGraphStatus:
    is_gs: bool
    is_minimal_gs: bool
    verdicts: dict[str, LocalVerdict] = field(default_factory=dict)
    semigraphs: dict[str, SemiGraph] = field(default_factory=dict)
    #: The `CONDITIONS` rows whose predicate holds at every vertex, in table
    #: order.  A row applies when, besides, the graph is closed, GS and
    #: fold-balanced.
    rows: tuple = ()
    #: The vertices' `label_terms`, summed: on a closed graph, its `euler_gs`,
    #: `fold_balance` and `euler_conley`.
    euler: Fraction = Fraction(0)
    fold_balance: bool = True
    conley: int = 0
    #: Each vertex's entering and exiting edge indices (`incidence`).
    edge_lists: tuple = ()


#: Distinct vertex shapes whose facts `_vertex_facts` keeps.
_VERDICT_CACHE_SIZE = 4096


@lru_cache(maxsize=_VERDICT_CACHE_SIZE)
def _vertex_facts(kind: SingularityType, nature: Nature, ins: tuple[int, ...],
                  outs: tuple[int, ...]) -> tuple:
    """The facts of a vertex shape, computed on its first sighting: its
    semi-graph, its local verdict, a mask whose bit k is set when row k of
    `CONDITIONS` holds there, and the three `label_terms` of its label."""
    sg = SemiGraph(VertexLabel(kind, nature), ins, outs)
    verdict = local_realizable(sg)
    rows = sum(1 << k for k, (_, _, holds) in enumerate(CONDITIONS) if holds(sg, verdict))
    return (sg, verdict, rows, *label_terms(kind, nature))


def _incidence(g: LyapunovGraph) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
    """The edge index lists of `incidence`; `InvalidGraphError` when its
    report names a violation."""
    ins, outs, report = incidence(g)
    if report:
        raise InvalidGraphError("graph is structurally invalid: " + "; ".join(report), report)
    return ins, outs


def classify_graph(g: LyapunovGraph) -> GSGraphStatus:
    """Aggregate the local verdicts, condition rows and label terms of every
    vertex, in one pass.

    Raises `InvalidGraphError` when `validate_graph` reports a violation.
    """
    ins, outs = _incidence(g)
    weights = [w for _, _, w in g.edges]
    sgs, verdicts = {}, {}
    is_gs = is_minimal = True
    rows = (1 << len(CONDITIONS)) - 1
    euler2 = folds = conley = 0
    for vid, label in g.vertices.items():
        sg, verdict, holds, d_euler2, d_folds, d_conley = _vertex_facts(
            label.kind, label.nature, tuple([weights[i] for i in ins[vid]]),
            tuple([weights[i] for i in outs[vid]]))
        sgs[vid] = sg
        verdicts[vid] = verdict
        is_gs = is_gs and verdict.ok
        is_minimal = is_minimal and verdict.is_minimal
        rows &= holds
        euler2 += d_euler2
        folds += d_folds
        conley += d_conley
    return GSGraphStatus(
        is_gs, is_minimal, verdicts, sgs,
        rows=tuple(row for k, row in enumerate(CONDITIONS) if rows >> k & 1),
        euler=Fraction(euler2, 2), fold_balance=folds == 0, conley=conley, edge_lists=(ins, outs),
    )


def lemma_firstfamily_ok(sg: SemiGraph) -> bool:
    """Whether the vertex admits a block with loop-chain boundaries.

    A vertex with more entering than exiting edges is decided as its time
    reversal (`reverse_semigraph`): the sides swap and the nature reverses.
    So each splitting rule is stated for e+ <= e- only.
    """
    kind, nature = sg.label.kind, sg.label.nature
    ins, outs = sg.in_weights, sg.out_weights
    if len(ins) > len(outs):
        ins, outs, nature = outs, ins, reverse_nature(nature)
    if kind is _T.TRIPLE:
        return False
    ep, em = len(ins), len(outs)
    degree = ep + em
    if degree == 1 and (ins + outs)[0] not in (1, 2):
        return False
    if kind is _T.DOUBLE and nature in (_N.SA, _N.SR) and degree != 2:
        return False
    if degree > 4:
        return False
    if kind is _T.DOUBLE and nature is _N.SS_S and (ep, em) == (1, 2):
        if sorted(outs) != sorted((1, sum(ins) - 2)):
            return False
    if em == 3 and sorted(outs) != sorted((1, 1, sum(outs) - 2)):
        return False
    return True


def lemma_familyB_ok(sg: SemiGraph) -> bool:
    """Whether the vertex admits a block with circle-chain boundaries.

    The rules read the chart type and the weights only.  A vertex with more
    entering than exiting edges is decided as its time reversal, which swaps
    the sides, so each splitting rule is stated for e+ <= e- only.
    """
    kind = sg.label.kind
    if kind is _T.TRIPLE:
        return False
    ins, outs = sg.in_weights, sg.out_weights
    if len(ins) > len(outs):
        ins, outs = outs, ins
    ep, em = len(ins), len(outs)
    bp, bm = sum(ins), sum(outs)

    def odd(values):
        return all(v % 2 == 1 for v in values)

    # Plane or double crossing splitting a flow in two.
    if kind in (_T.REGULAR, _T.DOUBLE) and abs(bp - bm) == 1:
        if (ep, em) == (1, 2) and bp % 2 == 1 and not odd(outs):
            return False
    # Whitney with two exiting components.
    if kind is _T.WHITNEY and (ep, em) == (1, 2):
        if bp % 2 == 1 or sorted(outs) != sorted((1, bp - 1)):
            return False
    # Double crossing with two components on each side.
    if kind is _T.DOUBLE and (ep, em) == (2, 2) and bp != bm:
        big, small = (ins, outs) if bp > bm else (outs, ins)
        if any(v % 2 == 1 for v in big):
            return False
        options = (
            sorted((1, sum(big) - 3)),
            sorted(v - 1 for v in big),
        )
        if sorted(small) not in options:
            return False
    # Double crossing with three or four components on one side.
    if kind is _T.DOUBLE:
        for side, other_total in ((outs, bp), (ins, bm)):
            if len(side) == 3:
                if side.count(1) < 1:
                    return False
                if other_total % 2 == 1 and not odd(side):
                    return False
            if len(side) == 4:
                if side.count(1) < 2:
                    return False
                if other_total % 2 == 1 and not odd(side):
                    return False
    return True


# The sufficient conditions in dispatch order: (theorem, edge family,
# holds(semi-graph, local verdict)).  A row applies to a closed,
# fold-balanced GS graph when its predicate holds at every vertex; then the
# family's form of every edge weight is a certificate.  Every row but Thm6
# rejects triple crossings.
CONDITIONS = (
    ("Thm6", family_minimal, lambda sg, v: v.is_minimal),
    # No bifurcation vertices.
    ("Thm7", family_B, lambda sg, v: sg.label.kind is not _T.TRIPLE and sg.e_plus + sg.e_minus <= 2),
    # Bifurcation vertices only at minimal weights.  Minimal weights at
    # plane/cone/Whitney/double-crossing vertices are at most 3, where the
    # circle-chain family coincides with the minimal-weight forms, so one
    # uniform assignment covers both parts of the decomposition.
    ("Thm8", family_B,
     lambda sg, v: sg.label.kind is not _T.TRIPLE and (sg.e_plus + sg.e_minus < 3 or v.is_minimal)),
    ("Thm9", family_A, lambda sg, v: sg.label.kind in (_T.REGULAR, _T.CONE, _T.WHITNEY)),
    ("Thm10-i", family_A, lambda sg, v: lemma_firstfamily_ok(sg)),
    ("Thm10-ii", family_B, lambda sg, v: lemma_familyB_ok(sg)),
)


def _uniform(g: LyapunovGraph, family) -> Certificate:
    """The family's form of each edge weight."""
    return {i: family(e.weight) for i, e in enumerate(g.edges)}


def check_condition(g: LyapunovGraph, theorem: str) -> Certificate | None:
    """Certificate from one row of `CONDITIONS`, or None when it does not apply.

    The graph must also be closed, GS and fold-balanced, as in `realize`.
    """
    row = next((r for r in CONDITIONS if r[0] == theorem), None)
    if row is None:
        raise ValueError(f"unknown theorem {theorem!r}")
    if not g.is_closed():
        return None
    status = classify_graph(g)
    if not status.is_gs or not status.fold_balance or row not in status.rows:
        return None
    _, family, _ = row
    return _uniform(g, family)


# ---------------------------------------------------------------------------
# Certificate verification and the bounded search


def verify_certificate(g: LyapunovGraph, cert: Certificate) -> bool:
    """Soundness audit of an edge-to-form assignment.

    Every edge needs a connected form carrying the edge weight, and every
    vertex boundary must be block-feasible.  A graph that `realize` rejects,
    structurally invalid or open, raises `InvalidGraphError`; a certificate
    that misses an edge, or names a key that is no edge index, raises
    ValueError.
    """
    ins, outs = _incidence(g)
    if not g.is_closed():
        raise InvalidGraphError("certificates are defined for closed graphs")
    edges = range(len(g.edges))
    for k in cert:
        if k not in edges:
            raise ValueError(f"certificate names {k!r}, which is not an edge index of the graph")
    for i in edges:
        if i not in cert:
            raise ValueError(f"certificate misses edge {i}")
    comps = [cert[i].components for i in edges]
    for c, e in zip(comps, g.edges):
        if len(c) != 1 or c[0].weight != e.weight:
            return False
    return _assign(g, ins, outs, [[c[0]] for c in comps]) is not None


def _search(g: LyapunovGraph, ins: dict[str, list[int]],
            outs: dict[str, list[int]]) -> Certificate | None:
    """Exhaustive per-edge assignment over all forms of each edge weight.

    Returns the first block-feasible assignment found, or None.  Forms are
    tried in the order of their text encodings, and each distinct form found
    is wrapped as a manifold once.
    """
    by_weight = {w: sorted(enumerate_connected(w), key=BranchedComponent.encode)
                 for w in {e.weight for e in g.edges}}
    found = _assign(g, ins, outs, [by_weight[e.weight] for e in g.edges])
    if found is None:
        return None
    wrapped = {c: manifold([c]) for c in set(found)}
    return {i: wrapped[c] for i, c in enumerate(found)}


def _assign(g: LyapunovGraph, ins: dict[str, list[int]], outs: dict[str, list[int]],
            candidates: list[list[BranchedComponent]]) -> list[BranchedComponent] | None:
    """The first choice of one candidate component per edge that makes every
    vertex block-feasible, as a list indexed by edge, or None.

    `ins` and `outs` are the graph's edge index lists (`incidence`).  Edges
    are assigned by index and candidates tried in list order; a vertex is
    checked once its last incident edge has a form, and a vertex without
    edges before any edge.  The checks are listed per slot, the index of
    that last edge plus one (slot 0 for no edge), as (label, entering edge
    indices, exiting edge indices), and a check is one query of the
    feasibility table (`blocks._feasible`) on the target pair read off the
    assigned components.  The backtracking is iterative, so the depth is
    not bounded by the recursion limit.
    """
    checks: list[list[tuple]] = [[] for _ in range(len(g.edges) + 1)]
    for vid, label in g.vertices.items():
        checks[max(ins[vid] + outs[vid], default=-1) + 1].append((label, ins[vid], outs[vid]))
    forms: list[BranchedComponent | None] = [None] * len(g.edges)

    def holds(slot: int) -> bool:
        for label, a, b in checks[slot]:
            target = (tuple(sorted([forms[i] for i in a])), tuple(sorted([forms[i] for i in b])))
            if not _feasible(label, target):
                return False
        return True

    if not holds(0):
        return None
    tried = [0] * len(g.edges)
    idx = 0
    while 0 <= idx < len(g.edges):
        if tried[idx] == len(candidates[idx]):
            tried[idx] = 0
            idx -= 1
            continue
        forms[idx] = candidates[idx][tried[idx]]
        tried[idx] += 1
        if holds(idx + 1):
            idx += 1
    return None if idx < 0 else forms


def realize(g: LyapunovGraph, search_bound: int | None = None) -> RealizationVerdict:
    """Decide realizability of a closed graph.

    Pipeline: local verdicts, fold balance and Euler integrality as
    necessary conditions, the sufficient-condition dispatch, and finally the
    bounded exhaustive search when a bound is given.  The bound is clamped
    to `MAX_ENUM_WEIGHT`, the heaviest weight whose forms are enumerated.
    An invalid or open graph raises `InvalidGraphError`, before a bound
    below 1 raises `ValueError`.
    """
    status = classify_graph(g)
    if not g.is_closed():
        raise InvalidGraphError("realization is defined for closed graphs")
    if search_bound is not None and search_bound < 1:
        raise ValueError(f"search bound must be >= 1, got {search_bound}")
    chi, balanced = status.euler, status.fold_balance

    def verdict(outcome: str, **fields) -> RealizationVerdict:
        return RealizationVerdict(outcome, euler=chi, fold_balance=balanced, conley=status.conley,
                                  **fields)

    if not status.is_gs:
        bad = tuple(vid for vid, v in status.verdicts.items() if not v.ok)
        reasons = {vid: status.verdicts[vid].reason for vid in bad}
        reason = "local: " + ", ".join(f"{v}={r}" for v, r in reasons.items())
        return verdict(NOT_REALIZABLE, witness=bad, reason=reason)
    if not balanced:
        return verdict(NOT_REALIZABLE, reason="fold-imbalance")
    if chi.denominator != 1:
        return verdict(NOT_REALIZABLE, reason="fractional-euler-characteristic")

    if status.rows:
        theorem, family, _ = status.rows[0]
        return verdict(REALIZABLE, theorem=theorem, certificate=_uniform(g, family))

    if search_bound is None:
        return verdict(UNKNOWN, searched_bound=0)
    bound = min(search_bound, MAX_ENUM_WEIGHT)
    if any(e.weight > bound for e in g.edges):
        return verdict(UNKNOWN, searched_bound=bound)
    cert = _search(g, *status.edge_lists)
    if cert is not None:
        return verdict(REALIZABLE, theorem="Search", certificate=cert, searched_bound=bound)
    return verdict(
        NOT_REALIZABLE,
        reason="search-exhausted",
        witness=tuple(range(len(g.edges))),
        searched_bound=bound,
    )
