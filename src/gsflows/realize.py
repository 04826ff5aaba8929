"""Global realizability of closed Lyapunov graphs.

A graph is realizable when branched 1-manifolds can be assigned to its edges
so that around every vertex the induced boundary pair bounds an isolating
block for the vertex label.  The sufficient conditions form one table,
evaluated in order of increasing generality over one classification of the
graph: all-minimal weights, no bifurcation vertices, minimal bifurcations,
plane/cone/Whitney labels only, and the two uniform edge-assignment
families.  Each fires with an explicit certificate mapping edges to
canonical forms.  When no condition applies, a bounded exhaustive
search over per-edge form assignments either produces a certificate, proves
non-realizability within the bound, or reports the question as open.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .blocks import LocalVerdict, boundary_feasible, local_realizable
from .branched import (
    MAX_ENUM_WEIGHT,
    Branched1Manifold,
    enumerate_connected,
    family_A,
    family_B,
    family_minimal,
    is_isomorphic,
    manifold,
)
from .model import (
    LyapunovGraph,
    Nature,
    SemiGraph,
    SingularityType,
    fold_balance,
    euler_gs,
    reverse_nature,
    semigraphs,
    validate_graph,
)

_T = SingularityType
_N = Nature

REALIZABLE = "realizable"
NOT_REALIZABLE = "not-realizable"
UNKNOWN = "unknown"

Certificate = dict[int, Branched1Manifold]


class InvalidGraphError(ValueError):
    """The graph is structurally invalid, or open where a closed one is needed."""


@dataclass(frozen=True)
class RealizationVerdict:
    status: str
    theorem: str | None = None
    certificate: Certificate | None = None
    witness: tuple = ()
    reason: str | None = None
    searched_bound: int = 0
    #: The graph's `euler_gs` and `fold_balance`, which every report shows.
    euler: Fraction = field(kw_only=True)
    fold_balance: bool = field(kw_only=True)

    @property
    def realizable(self) -> bool:
        return self.status == REALIZABLE


@dataclass(frozen=True)
class GSGraphStatus:
    is_gs: bool
    is_minimal_gs: bool
    verdicts: dict[str, LocalVerdict] = field(default_factory=dict)
    semigraphs: dict[str, SemiGraph] = field(default_factory=dict)


def classify_graph(g: LyapunovGraph) -> GSGraphStatus:
    """Aggregate the local verdicts of every vertex.

    Raises `InvalidGraphError` when `validate_graph` reports a violation.
    """
    report = validate_graph(g)
    if report:
        raise InvalidGraphError("graph is structurally invalid: " + "; ".join(report))
    sgs = semigraphs(g)
    verdicts = {vid: local_realizable(sg) for vid, sg in sgs.items()}
    is_gs = all(v.ok for v in verdicts.values())
    is_minimal = is_gs and all(v.is_minimal for v in verdicts.values())
    return GSGraphStatus(is_gs, is_minimal, verdicts, sgs)


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
    if not status.is_gs or not fold_balance(g):
        return None
    _, family, holds = row
    if not all(holds(sg, status.verdicts[vid]) for vid, sg in status.semigraphs.items()):
        return None
    return _uniform(g, family)


# ---------------------------------------------------------------------------
# Certificate verification and the bounded search


def _edge_form(cert, idx: int, end: str) -> Branched1Manifold:
    value = cert[idx]
    if isinstance(value, tuple):
        return value[0] if end == "src" else value[1]
    return value


def verify_certificate(g: LyapunovGraph, cert) -> bool:
    """Soundness audit of an edge-to-form assignment.

    Certificate values are connected manifolds, or (source-end, target-end)
    pairs; paired ends must be isomorphic, every form must carry the edge
    weight, and every vertex boundary must be block-feasible.
    """
    for i in range(len(g.edges)):
        if i not in cert:
            raise ValueError(f"certificate misses edge {i}")
    for i, e in enumerate(g.edges):
        src_form = _edge_form(cert, i, "src")
        dst_form = _edge_form(cert, i, "dst")
        if not is_isomorphic(src_form, dst_form):
            return False
        for form in (src_form, dst_form):
            if len(form.components) != 1 or form.total_weight != e.weight:
                return False
    in_edges, out_edges = _incidence(g)
    for vid, label in g.vertices.items():
        ins = [_edge_form(cert, i, "dst") for i in in_edges[vid]]
        outs = [_edge_form(cert, i, "src") for i in out_edges[vid]]
        if not boundary_feasible(label, ins, outs):
            return False
    return True


def _incidence(g: LyapunovGraph) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
    """Indices of each vertex's entering and exiting edges, in edge order."""
    in_edges: dict[str, list[int]] = {vid: [] for vid in g.vertices}
    out_edges: dict[str, list[int]] = {vid: [] for vid in g.vertices}
    for i, e in enumerate(g.edges):
        if e.dst in in_edges:
            in_edges[e.dst].append(i)
        if e.src in out_edges:
            out_edges[e.src].append(i)
    return in_edges, out_edges


def _search(g: LyapunovGraph, bound: int) -> Certificate | None:
    """Exhaustive per-edge assignment over all forms of each edge weight.

    Returns the first block-feasible assignment found, or None.
    """
    by_weight = {
        w: sorted((manifold([c]) for c in enumerate_connected(w)), key=lambda m: m.encode())
        for w in {e.weight for e in g.edges}
    }
    candidates = [by_weight[e.weight] for e in g.edges]
    in_edges, out_edges = _incidence(g)
    check_after: dict[int, list[str]] = {i: [] for i in range(len(g.edges))}
    for vid in g.vertices:
        check_after[max(in_edges[vid] + out_edges[vid])].append(vid)

    assignment: Certificate = {}

    def feasible_at(vid: str) -> bool:
        ins = [assignment[i] for i in in_edges[vid]]
        outs = [assignment[i] for i in out_edges[vid]]
        return boundary_feasible(g.vertices[vid], ins, outs)

    def backtrack(idx: int) -> bool:
        if idx == len(g.edges):
            return True
        for form in candidates[idx]:
            assignment[idx] = form
            if all(feasible_at(vid) for vid in check_after[idx]) and backtrack(idx + 1):
                return True
            del assignment[idx]
        return False

    return dict(assignment) if backtrack(0) else None


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
    chi, balanced = euler_gs(g), fold_balance(g)

    def verdict(status: str, **fields) -> RealizationVerdict:
        return RealizationVerdict(status, euler=chi, fold_balance=balanced, **fields)

    if not status.is_gs:
        bad = tuple(vid for vid, v in status.verdicts.items() if not v.ok)
        reasons = {vid: status.verdicts[vid].reason for vid in bad}
        reason = "local: " + ", ".join(f"{v}={r}" for v, r in reasons.items())
        return verdict(NOT_REALIZABLE, witness=bad, reason=reason)
    if not balanced:
        return verdict(NOT_REALIZABLE, reason="fold-imbalance")
    if chi.denominator != 1:
        return verdict(NOT_REALIZABLE, reason="fractional-euler-characteristic")

    for theorem, family, holds in CONDITIONS:
        if all(holds(sg, status.verdicts[vid]) for vid, sg in status.semigraphs.items()):
            return verdict(REALIZABLE, theorem=theorem, certificate=_uniform(g, family))

    if search_bound is None:
        return verdict(UNKNOWN, searched_bound=0)
    bound = min(search_bound, MAX_ENUM_WEIGHT)
    if any(e.weight > bound for e in g.edges):
        return verdict(UNKNOWN, searched_bound=bound)
    cert = _search(g, bound)
    if cert is not None:
        return verdict(REALIZABLE, theorem="Search", certificate=cert, searched_bound=bound)
    return verdict(
        NOT_REALIZABLE,
        reason="search-exhausted",
        witness=tuple(range(len(g.edges))),
        searched_bound=bound,
    )
