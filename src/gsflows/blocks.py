"""Shape catalog, minimal isolating blocks, and local realizability.

The shape catalog lists the admissible semi-graph shapes (label, indegree,
outdegree) with their boundary-weight relation and their minimal weights.
The block catalog lists the 33 minimal isolating blocks up to homeomorphism
and flow reversal, each with its boundary forms and flow-band state; the
per-type counts are 3, 3, 3, 13 and 11 for the plane, cone, Whitney, double
and triple crossing charts.  Several double- and triple-crossing boundary
assignments are reconstructions and carry a provisional flag; the totals and
the per-shape boundary option sets are the binding data.

Local verdicts follow a fixed cascade: the Poincare-Hopf residual, the
degree inequalities, the known non-realizable shape exclusions, shape
catalog membership, and the cone/double/triple weight-splitting constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import engine
from .branched import Branched1Manifold
from .engine import BlockState, StateBuilder
from .model import (
    Nature,
    SemiGraph,
    SingularityType,
    VertexLabel,
    conley_index,
    degree_bounds_ok,
    fold_degrees,
    ph_residual,
    reverse_nature,
)

_T = SingularityType
_N = Nature


@dataclass(frozen=True)
class ShapeEntry:
    """Admissible semi-graph shape with its weight relation and minima."""

    label: VertexLabel
    e_plus: int
    e_minus: int
    min_in: tuple[int, ...]
    min_out: tuple[int, ...]

    @property
    def delta(self) -> int:
        """Forced value of B+ - B-."""
        return sum(self.min_in) - sum(self.min_out)

    @property
    def equation(self) -> str:
        if self.e_minus == 0:
            return f"B+ = {self.delta}"
        if self.e_plus == 0:
            return f"B- = {-self.delta}"
        if self.delta == 0:
            return "B+ = B-"
        if self.delta == 3:
            # Table convention for the largest offset.
            return "B+ - 3 = B-"
        if self.delta == -3:
            return "B- - 3 = B+"
        if self.delta > 0:
            return f"B+ = B- + {self.delta}"
        return f"B+ = B- - {-self.delta}"

    def reversed(self) -> "ShapeEntry":
        return ShapeEntry(
            VertexLabel(self.label.kind, reverse_nature(self.label.nature)),
            self.e_minus,
            self.e_plus,
            self.min_out,
            self.min_in,
        )


_FORWARD_SHAPES: tuple[ShapeEntry, ...] = tuple(
    ShapeEntry(VertexLabel(t, n), ep, em, mi, mo)
    for t, n, ep, em, mi, mo in [
        (_T.REGULAR, _N.A, 1, 0, (1,), ()),
        (_T.REGULAR, _N.S, 1, 1, (1,), (1,)),
        (_T.REGULAR, _N.S, 1, 2, (1,), (1, 1)),
        (_T.CONE, _N.A, 2, 0, (1, 1), ()),
        (_T.CONE, _N.S, 1, 1, (1,), (1,)),
        (_T.CONE, _N.S, 2, 2, (1, 1), (1, 1)),
        (_T.WHITNEY, _N.A, 1, 0, (2,), ()),
        (_T.WHITNEY, _N.S_S, 1, 1, (2,), (1,)),
        (_T.WHITNEY, _N.S_S, 1, 2, (2,), (1, 1)),
        (_T.DOUBLE, _N.A, 1, 0, (3,), ()),
        (_T.DOUBLE, _N.SA, 1, 1, (3,), (1,)),
        (_T.DOUBLE, _N.SA, 1, 2, (3,), (1, 1)),
        (_T.DOUBLE, _N.SS_S, 1, 1, (3,), (1,)),
        (_T.DOUBLE, _N.SS_S, 2, 1, (2, 2), (1,)),
        (_T.DOUBLE, _N.SS_S, 1, 2, (3,), (1, 1)),
        (_T.DOUBLE, _N.SS_S, 2, 2, (2, 2), (1, 1)),
        (_T.DOUBLE, _N.SS_S, 1, 3, (3,), (1, 1, 1)),
        (_T.DOUBLE, _N.SS_S, 1, 4, (3,), (1, 1, 1, 1)),
        (_T.TRIPLE, _N.A, 1, 0, (7,), ()),
        (_T.TRIPLE, _N.SSA, 1, 1, (5,), (3,)),
        (_T.TRIPLE, _N.SSA, 1, 2, (5,), (2, 2)),
    ]
)


@lru_cache(maxsize=1)
def shape_catalog() -> tuple[ShapeEntry, ...]:
    """All admissible shapes: the decreasing-side set plus all reversals."""
    seen: dict[tuple, ShapeEntry] = {}
    for entry in _FORWARD_SHAPES:
        for e in (entry, entry.reversed()):
            key = (e.label.kind, e.label.nature, e.e_plus, e.e_minus)
            seen.setdefault(key, e)
    return tuple(seen.values())


def shape_for(label: VertexLabel, e_plus: int, e_minus: int) -> ShapeEntry | None:
    for entry in shape_catalog():
        if entry.label == label and (entry.e_plus, entry.e_minus) == (e_plus, e_minus):
            return entry
    return None


@dataclass(frozen=True)
class ConditionRow:
    """One semi-graph column of the weight-condition table."""

    label: VertexLabel
    e_plus: int
    e_minus: int
    delta: int
    text: str


@lru_cache(maxsize=1)
def ph_condition_rows() -> tuple[ConditionRow, ...]:
    """The 23 decreasing-side semi-graph shapes with their weight relations.

    This includes the two double-crossing shapes with outdegree 3 and 4 that
    satisfy the residual relation but admit no isolating block.
    """

    def row(t, n, ep, em, text):
        fwd = conley_index(t, n).euler_term
        rev = conley_index(t, reverse_nature(n)).euler_term
        return ConditionRow(VertexLabel(t, n), ep, em, ep - em - (fwd - rev), text)

    return (
        row(_T.REGULAR, _N.A, 1, 0, "B+ = 1"),
        row(_T.REGULAR, _N.S, 1, 1, "B+ = B-"),
        row(_T.REGULAR, _N.S, 1, 2, "B+ = B- - 1"),
        row(_T.CONE, _N.A, 2, 0, "b1+ = b2+ = 1"),
        row(_T.CONE, _N.S, 1, 1, "B+ = B-"),
        row(_T.CONE, _N.S, 2, 2, "B+ = B-"),
        row(_T.WHITNEY, _N.A, 1, 0, "B+ = 2"),
        row(_T.WHITNEY, _N.S_S, 1, 1, "B+ = B- + 1"),
        row(_T.WHITNEY, _N.S_S, 1, 2, "B+ = B-"),
        row(_T.DOUBLE, _N.A, 1, 0, "B+ = 3"),
        row(_T.DOUBLE, _N.SA, 1, 1, "B+ = B- + 2"),
        row(_T.DOUBLE, _N.SA, 1, 2, "B+ = B- + 1"),
        row(_T.DOUBLE, _N.SS_S, 1, 1, "B+ = B- + 2"),
        row(_T.DOUBLE, _N.SS_S, 2, 1, "B+ - 3 = B-"),
        row(_T.DOUBLE, _N.SS_S, 1, 2, "B+ = B- + 1"),
        row(_T.DOUBLE, _N.SS_S, 2, 2, "B+ = B- + 2"),
        row(_T.DOUBLE, _N.SS_S, 1, 3, "B+ = B-"),
        row(_T.DOUBLE, _N.SS_S, 2, 3, "B+ = B- + 1"),
        row(_T.DOUBLE, _N.SS_S, 1, 4, "B+ = B- - 1"),
        row(_T.DOUBLE, _N.SS_S, 2, 4, "B+ = B-"),
        row(_T.TRIPLE, _N.A, 1, 0, "b1+ = 7"),
        row(_T.TRIPLE, _N.SSA, 1, 1, "B+ = B- + 2"),
        row(_T.TRIPLE, _N.SSA, 1, 2, "B+ = B- + 1"),
    )


def minimal_weights(label: VertexLabel, e_plus: int, e_minus: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimal weight vectors for an admissible shape.

    Every weight is 1 plus the branch points assigned to that boundary
    component; branch-point totals per side equal the fold degrees, split
    equally when a side has several components.
    """
    entry = shape_for(label, e_plus, e_minus)
    if entry is None:
        raise ValueError(f"shape ({label}, {e_plus}, {e_minus}) not in catalog")
    fin, fout = fold_degrees(label.kind, label.nature)
    assert sum(entry.min_in) - e_plus == fin and sum(entry.min_out) - e_minus == fout
    return entry.min_in, entry.min_out


# ---------------------------------------------------------------------------
# Local verdicts

YES_MINIMAL = "yes-minimal"
YES_PASSAGEWAYS = "yes-passageways"
NO = "no"

@dataclass(frozen=True)
class LocalVerdict:
    status: str
    passageways: int = 0
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.status != NO

    @property
    def is_minimal(self) -> bool:
        return self.status == YES_MINIMAL


def _no(reason: str) -> LocalVerdict:
    return LocalVerdict(NO, reason=reason)


def local_realizable(sg: SemiGraph) -> LocalVerdict:
    """Decide whether the semi-graph bounds an isolating block.

    The excluded-shape checks (reason Thm4-exclusion) cover the double
    crossing with two saddle natures at outdegree 3 or 4 with indegree 2,
    the unequal splits at minimal totals, and their flow reversals.  The
    remaining weight constraints (reasons Thm5-*) are the splitting rules
    for non-minimal weights.
    """
    kind, nature = sg.label.kind, sg.label.nature
    ins, outs = sg.in_weights, sg.out_weights
    if ph_residual(sg) != 0:
        return _no("PH-violated")
    if not degree_bounds_ok(sg):
        return _no("degree-bound")

    dss_s = kind is _T.DOUBLE and nature is _N.SS_S
    dss_u = kind is _T.DOUBLE and nature is _N.SS_U
    tssa = kind is _T.TRIPLE and nature is _N.SSA
    tssr = kind is _T.TRIPLE and nature is _N.SSR

    # Structurally excluded shapes (indegree 2 with outdegree 3 or 4).
    if dss_s and sg.e_plus == 2 and sg.e_minus in (3, 4):
        return _no("Thm4-exclusion")
    if dss_u and sg.e_minus == 2 and sg.e_plus in (3, 4):
        return _no("Thm4-exclusion")

    entry = shape_for(sg.label, sg.e_plus, sg.e_minus)
    if entry is None:
        return _no("shape-absent")

    excess = sg.b_plus - sum(entry.min_in)
    if excess < 0 or sg.b_minus - sum(entry.min_out) != excess:
        # Cannot happen once the residual vanishes, but keep the guard.
        return _no("PH-violated")

    # Unequal splits at minimal totals.
    if dss_s and sg.e_plus == 2 and excess == 0 and ins[0] != ins[1]:
        return _no("Thm4-exclusion")
    if dss_u and sg.e_minus == 2 and excess == 0 and outs[0] != outs[1]:
        return _no("Thm4-exclusion")
    if tssa and sg.e_minus == 2 and excess == 0 and outs[0] != outs[1]:
        return _no("Thm4-exclusion")
    if tssr and sg.e_plus == 2 and excess == 0 and ins[0] != ins[1]:
        return _no("Thm4-exclusion")

    # Cone saddle with two components on each side: weights pair up along
    # the two cylinders.
    if kind is _T.CONE and nature is _N.S and sg.e_plus == 2 and sg.e_minus == 2:
        if sorted(ins) != sorted(outs):
            return _no("Thm5-ii")

    # Sides holding two fold sheets need every component weight >= 2.
    if dss_s and sg.e_plus == 2 and min(ins) < 2:
        return _no("Thm5-iii")
    if dss_u and sg.e_minus == 2 and min(outs) < 2:
        return _no("Thm5-iii")
    if tssa and sg.e_minus == 2 and min(outs) < 2:
        return _no("Thm5-iv")
    if tssr and sg.e_plus == 2 and min(ins) < 2:
        return _no("Thm5-iv")

    if sorted(ins) == sorted(entry.min_in) and sorted(outs) == sorted(entry.min_out):
        return LocalVerdict(YES_MINIMAL)
    return LocalVerdict(YES_PASSAGEWAYS, passageways=excess)


# ---------------------------------------------------------------------------
# The minimal block catalog


@dataclass(frozen=True)
class CatalogEntry:
    """One minimal isolating block with its boundary forms and flow bands."""

    name: str
    label: VertexLabel
    e_plus: int
    e_minus: int
    state: BlockState
    orientable: bool | None = None
    provisional: bool = False

    @property
    def n_plus(self) -> Branched1Manifold | None:
        return engine.state_forms(self.state)[0]

    @property
    def n_minus(self) -> Branched1Manifold | None:
        return engine.state_forms(self.state)[1]

    @property
    def beta_in(self) -> int:
        return fold_degrees(self.label.kind, self.label.nature)[0]

    @property
    def beta_out(self) -> int:
        return fold_degrees(self.label.kind, self.label.nature)[1]

    @property
    def routing(self) -> frozenset[tuple[int, int]]:
        """Component pairs (entering, exiting) joined by some flow band."""
        st = self.state
        pc = engine._component_of(st.plus_kinds, st.plus_arcs)
        mc = engine._component_of(st.minus_kinds, st.minus_arcs)
        minus_of = {b: (u, v) for u, v, b in st.minus_arcs if b != engine.DEAD}
        pairs = set()
        for u, _, b in st.plus_arcs:
            if b != engine.DEAD:
                pairs.add((pc[u], mc[minus_of[b][0]]))
        return frozenset(pairs)

    def reversed(self) -> "CatalogEntry":
        return CatalogEntry(
            self.name + "~rev",
            VertexLabel(self.label.kind, reverse_nature(self.label.nature)),
            self.e_minus,
            self.e_plus,
            self.state.reversed(),
            self.orientable,
            self.provisional,
        )


def _bare_plus_form(b: StateBuilder, arcs: list[tuple[int, int]], order: int) -> list[int]:
    verts = [b.branch("+") for _ in range(order)]
    for u, v in arcs:
        b.dead("+", verts[u], verts[v])
    return verts


def _circle_with_markers(b: StateBuilder, side: str, k: int) -> list[int]:
    return [b.marker(side) for _ in range(k)]


def _build_r_a() -> BlockState:
    b = StateBuilder()
    b.bare_circle("+")
    return b.build()


def _build_r_s_11() -> BlockState:
    b = StateBuilder()
    q1, q2 = _circle_with_markers(b, "+", 2)
    u1, u2 = _circle_with_markers(b, "-", 2)
    b.band(q1, q2, u1, u2)
    b.band(q2, q1, u2, u1)
    return b.build()


def _build_r_s_12() -> BlockState:
    b = StateBuilder()
    q1, q2 = _circle_with_markers(b, "+", 2)
    u1 = b.marker("-")
    u2 = b.marker("-")
    b.band(q1, q2, u1, u1)
    b.band(q2, q1, u2, u2)
    return b.build()


def _build_c_a() -> BlockState:
    b = StateBuilder()
    b.bare_circle("+")
    b.bare_circle("+")
    return b.build()


def _build_c_s_11() -> BlockState:
    b = StateBuilder()
    p = [b.marker("+") for _ in range(6)]
    m = [b.marker("-") for _ in range(6)]
    for i in range(6):
        b.band(p[i], p[(i + 1) % 6], m[i], m[(i + 1) % 6])
    return b.build()


def _build_c_s_22() -> BlockState:
    b = StateBuilder()
    for _ in range(2):
        s = b.marker("+")
        u = b.marker("-")
        b.band(s, s, u, u)
    return b.build()


def _build_w_a() -> BlockState:
    b = StateBuilder()
    v = b.branch("+")
    b.dead("+", v, v)
    b.dead("+", v, v)
    return b.build()


def _build_w_ss_11() -> BlockState:
    b = StateBuilder()
    v = b.branch("+")
    u1, u2 = _circle_with_markers(b, "-", 2)
    b.band(v, v, u1, u2)
    b.band(v, v, u2, u1)
    return b.build()


def _build_w_ss_12() -> BlockState:
    b = StateBuilder()
    v = b.branch("+")
    u1 = b.marker("-")
    u2 = b.marker("-")
    b.band(v, v, u1, u1)
    b.band(v, v, u2, u2)
    return b.build()


def _build_d_a() -> BlockState:
    b = StateBuilder()
    _bare_plus_form(b, [(0, 1)] * 4, 2)
    return b.build()


def _build_d_sa_11_orientable() -> BlockState:
    b = StateBuilder()
    v1, v2 = b.branch("+"), b.branch("+")
    b.dead("+", v1, v2)
    b.dead("+", v1, v2)
    u1, u2 = _circle_with_markers(b, "-", 2)
    b.band(v1, v1, u1, u2)
    b.band(v2, v2, u2, u1)
    return b.build()


def _build_d_sa_11_nonorientable() -> BlockState:
    b = StateBuilder()
    v1, v2 = b.branch("+"), b.branch("+")
    b.dead("+", v1, v2)
    b.dead("+", v1, v2)
    u1, u2 = _circle_with_markers(b, "-", 2)
    b.band(v1, v2, u1, u2)
    b.band(v2, v1, u2, u1)
    return b.build()


def _build_d_sa_12() -> BlockState:
    b = StateBuilder()
    v1, v2 = b.branch("+"), b.branch("+")
    b.dead("+", v1, v2)
    b.dead("+", v1, v2)
    u1 = b.marker("-")
    u2 = b.marker("-")
    b.band(v1, v2, u1, u1)
    b.band(v2, v1, u2, u2)
    return b.build()


def _build_d_sss_11_a() -> BlockState:
    # Crossed stable merge: four parallel arcs; exit circle with four sheets.
    b = StateBuilder()
    v1, v2 = b.branch("+"), b.branch("+")
    m = [b.marker("-") for _ in range(4)]
    b.band(v1, v2, m[0], m[1])
    b.band(v2, v1, m[1], m[2])
    b.band(v1, v2, m[2], m[3])
    b.band(v2, v1, m[3], m[0])
    return b.build()


def _build_d_sss_11_b() -> BlockState:
    # Nested stable merge: loop, double arc, loop.
    b = StateBuilder()
    v1, v2 = b.branch("+"), b.branch("+")
    m = [b.marker("-") for _ in range(4)]
    b.band(v1, v2, m[0], m[1])
    b.band(v2, v2, m[1], m[2])
    b.band(v2, v1, m[2], m[3])
    b.band(v1, v1, m[3], m[0])
    return b.build()


def _build_d_sss_21() -> BlockState:
    # Each petal of an entering figure eight runs between stable points of
    # the two different saddles, so the four exit points must alternate
    # between the saddle sheets around the exit circle.
    b = StateBuilder()
    v1, v2 = b.branch("+"), b.branch("+")
    m = [b.marker("-") for _ in range(4)]
    b.band(v1, v1, m[0], m[1])
    b.band(v2, v2, m[1], m[2])
    b.band(v1, v1, m[2], m[3])
    b.band(v2, v2, m[3], m[0])
    return b.build()


def _build_d_sss_12_a() -> BlockState:
    b = StateBuilder()
    v1, v2 = b.branch("+"), b.branch("+")
    u1, u2 = _circle_with_markers(b, "-", 2)
    w1, w2 = _circle_with_markers(b, "-", 2)
    b.band(v1, v2, u1, u2)
    b.band(v2, v1, u2, u1)
    b.band(v1, v2, w1, w2)
    b.band(v2, v1, w2, w1)
    return b.build()


def _build_d_sss_12_b() -> BlockState:
    b = StateBuilder()
    v1, v2 = b.branch("+"), b.branch("+")
    u1, u2 = _circle_with_markers(b, "-", 2)
    w1, w2 = _circle_with_markers(b, "-", 2)
    b.band(v1, v1, u1, u2)
    b.band(v2, v2, u2, u1)
    b.band(v1, v2, w1, w2)
    b.band(v2, v1, w2, w1)
    return b.build()


def _build_d_sss_22() -> BlockState:
    b = StateBuilder()
    v1, v2 = b.branch("+"), b.branch("+")
    u1, u2 = _circle_with_markers(b, "-", 2)
    w1, w2 = _circle_with_markers(b, "-", 2)
    b.band(v1, v1, u1, u2)
    b.band(v1, v1, w1, w2)
    b.band(v2, v2, u2, u1)
    b.band(v2, v2, w2, w1)
    return b.build()


def _build_d_sss_13_a() -> BlockState:
    b = StateBuilder()
    v1, v2 = b.branch("+"), b.branch("+")
    u1 = b.marker("-")
    u2 = b.marker("-")
    w1, w2 = _circle_with_markers(b, "-", 2)
    b.band(v1, v2, u1, u1)
    b.band(v2, v1, u2, u2)
    b.band(v1, v2, w1, w2)
    b.band(v2, v1, w2, w1)
    return b.build()


def _build_d_sss_13_b() -> BlockState:
    b = StateBuilder()
    v1, v2 = b.branch("+"), b.branch("+")
    u1, u2 = _circle_with_markers(b, "-", 2)
    w1 = b.marker("-")
    w2 = b.marker("-")
    b.band(v1, v1, u1, u2)
    b.band(v2, v2, u2, u1)
    b.band(v1, v2, w1, w1)
    b.band(v2, v1, w2, w2)
    return b.build()


def _build_d_sss_14() -> BlockState:
    b = StateBuilder()
    v1, v2 = b.branch("+"), b.branch("+")
    ms = [b.marker("-") for _ in range(4)]
    b.band(v1, v2, ms[0], ms[0])
    b.band(v2, v1, ms[1], ms[1])
    b.band(v1, v2, ms[2], ms[2])
    b.band(v2, v1, ms[3], ms[3])
    return b.build()


def _build_t_a() -> BlockState:
    b = StateBuilder()
    arcs = [
        (i, j)
        for i in range(6)
        for j in range(i + 1, 6)
        if {i, j} not in ({0, 1}, {2, 3}, {4, 5})
    ]
    _bare_plus_form(b, arcs, 6)
    return b.build()


def _t_plus(b: StateBuilder, pattern: str) -> list[tuple[int, int, int, int]]:
    """Entering side of a triple-crossing saddle block.

    Four branch points sit on the attractor-sheet circle (dead arcs); the
    saddle sheets contribute the live arcs in one of five patterns.  Returns
    the live arc stubs as (tail, head) pairs annotated with the saddle they
    belong to, in band-allocation order.
    """
    v = [b.branch("+") for _ in range(4)]
    for i in range(4):
        b.dead("+", v[i], v[(i + 1) % 4])
    stubs = {
        "C4L": [(0, 0), (1, 1), (2, 2), (3, 3)],
        "LL-adj": [(0, 0), (1, 1), (2, 3), (3, 2)],
        "LL-opp": [(0, 0), (2, 2), (1, 3), (3, 1)],
        "SS-adj": [(0, 1), (1, 0), (2, 3), (3, 2)],
        "SS-cross": [(0, 2), (2, 0), (1, 3), (3, 1)],
    }[pattern]
    return [(v[a], v[c]) for a, c in stubs]


def _t_minus_3a(b: StateBuilder, live: list) -> None:
    w1, w2 = b.branch("-"), b.branch("-")
    ends = [(w1, w2), (w2, w1), (w1, w2), (w2, w1)]
    for (pu, pv), (mu, mv) in zip(live, ends):
        b.band(pu, pv, mu, mv)


def _t_minus_3b(b: StateBuilder, live: list) -> None:
    # Bands 0/1 run along the two-sheet circle, bands 2/3 are the loops.
    w1, w2 = b.branch("-"), b.branch("-")
    ends = [(w1, w2), (w2, w1), (w1, w1), (w2, w2)]
    for (pu, pv), (mu, mv) in zip(live, ends):
        b.band(pu, pv, mu, mv)


def _t_minus_f8f8(b: StateBuilder, live: list) -> None:
    w1, w2 = b.branch("-"), b.branch("-")
    ends = [(w1, w1), (w2, w2), (w1, w1), (w2, w2)]
    for (pu, pv), (mu, mv) in zip(live, ends):
        b.band(pu, pv, mu, mv)


def _build_t_ssa(pattern: str, minus: str) -> BlockState:
    b = StateBuilder()
    live = _t_plus(b, pattern)
    {"3a": _t_minus_3a, "3b": _t_minus_3b, "f8f8": _t_minus_f8f8}[minus](b, live)
    return b.build()


@lru_cache(maxsize=1)
def minimal_block_catalog() -> tuple[CatalogEntry, ...]:
    """The 33 minimal isolating blocks up to homeomorphism and flow reversal."""

    def entry(name, t, n, ep, em, state, orientable=None, provisional=False):
        return CatalogEntry(name, VertexLabel(t, n), ep, em, state, orientable, provisional)

    items = [
        entry("R_a", _T.REGULAR, _N.A, 1, 0, _build_r_a(), orientable=True),
        entry("R_s_11", _T.REGULAR, _N.S, 1, 1, _build_r_s_11(), orientable=False),
        entry("R_s_12", _T.REGULAR, _N.S, 1, 2, _build_r_s_12(), orientable=True),
        entry("C_a", _T.CONE, _N.A, 2, 0, _build_c_a()),
        entry("C_s_11", _T.CONE, _N.S, 1, 1, _build_c_s_11()),
        entry("C_s_22", _T.CONE, _N.S, 2, 2, _build_c_s_22()),
        entry("W_a", _T.WHITNEY, _N.A, 1, 0, _build_w_a()),
        entry("W_ss_11", _T.WHITNEY, _N.S_S, 1, 1, _build_w_ss_11()),
        entry("W_ss_12", _T.WHITNEY, _N.S_S, 1, 2, _build_w_ss_12()),
        entry("D_a", _T.DOUBLE, _N.A, 1, 0, _build_d_a()),
        entry("D_sa_11_or", _T.DOUBLE, _N.SA, 1, 1, _build_d_sa_11_orientable(), orientable=True),
        entry("D_sa_11_non", _T.DOUBLE, _N.SA, 1, 1, _build_d_sa_11_nonorientable(), orientable=False),
        entry("D_sa_12", _T.DOUBLE, _N.SA, 1, 2, _build_d_sa_12(), orientable=True),
        entry("D_sss_11_a", _T.DOUBLE, _N.SS_S, 1, 1, _build_d_sss_11_a()),
        entry("D_sss_11_b", _T.DOUBLE, _N.SS_S, 1, 1, _build_d_sss_11_b()),
        entry("D_sss_21", _T.DOUBLE, _N.SS_S, 2, 1, _build_d_sss_21(), provisional=True),
        entry("D_sss_12_a", _T.DOUBLE, _N.SS_S, 1, 2, _build_d_sss_12_a()),
        entry("D_sss_12_b", _T.DOUBLE, _N.SS_S, 1, 2, _build_d_sss_12_b()),
        entry("D_sss_22", _T.DOUBLE, _N.SS_S, 2, 2, _build_d_sss_22(), provisional=True),
        entry("D_sss_13_a", _T.DOUBLE, _N.SS_S, 1, 3, _build_d_sss_13_a()),
        entry("D_sss_13_b", _T.DOUBLE, _N.SS_S, 1, 3, _build_d_sss_13_b(), provisional=True),
        entry("D_sss_14", _T.DOUBLE, _N.SS_S, 1, 4, _build_d_sss_14()),
        entry("T_a", _T.TRIPLE, _N.A, 1, 0, _build_t_a()),
    ]
    t_variants = [
        ("C4L", "3a"),
        ("LL-adj", "3a"),
        ("SS-adj", "3a"),
        ("SS-cross", "3a"),
        ("LL-adj", "3b"),
        ("LL-opp", "3b"),
        ("SS-adj", "3b"),
        ("SS-cross", "3b"),
        ("SS-adj", "f8f8"),
        ("SS-cross", "f8f8"),
    ]
    for pattern, minus in t_variants:
        em = 2 if minus == "f8f8" else 1
        items.append(
            entry(
                f"T_ssa_{pattern}_{minus}",
                _T.TRIPLE,
                _N.SSA,
                1,
                em,
                _build_t_ssa(pattern, minus),
                provisional=True,
            )
        )
    return tuple(items)


def catalog_counts() -> dict[SingularityType, int]:
    counts: dict[SingularityType, int] = {t: 0 for t in SingularityType}
    for e in minimal_block_catalog():
        counts[e.label.kind] += 1
    return counts


@lru_cache(maxsize=1)
def _entries_by_label() -> dict[VertexLabel, tuple[CatalogEntry, ...]]:
    by_label: dict[VertexLabel, list[CatalogEntry]] = {}
    for e in minimal_block_catalog():
        for candidate in (e, e.reversed()):
            by_label.setdefault(candidate.label, []).append(candidate)
    return {label: tuple(entries) for label, entries in by_label.items()}


def entries_for(label: VertexLabel) -> tuple[CatalogEntry, ...]:
    """Catalog entries applying to the label, reversing blocks as needed.

    Self-reversed natures (the saddles) match both orientations of a block,
    so both the entry and its reversal are offered.
    """
    return _entries_by_label().get(label, ())


# ---------------------------------------------------------------------------
# Passageway closures and boundary feasibility


@dataclass(frozen=True)
class ClosureResult:
    pairs: frozenset[tuple[str, str]]
    complete: bool


def passageway_closure(entry: CatalogEntry, max_total_weight: int = 12) -> ClosureResult:
    """All boundary pairs reachable from the block within the weight bound.

    Pair members are canonical text encodings of the entering and exiting
    manifolds ("" for an empty side).  `complete` is False when the bound
    stopped the search early.
    """
    pairs, complete = engine.closure_pairs(entry.state, max_total_weight)
    return ClosureResult(frozenset(pairs), complete)


def _encode_multiset(forms: list[Branched1Manifold]) -> str:
    if not forms:
        return ""
    comps = [c for m in forms for c in m.components]
    return Branched1Manifold(tuple(sorted(comps))).encode()


def boundary_feasible(
    label: VertexLabel,
    in_forms: list[Branched1Manifold],
    out_forms: list[Branched1Manifold],
) -> bool:
    """Whether some block for the label realizes these boundary components.

    The entering (exiting) boundary is the disjoint union of the given
    connected forms, one per incident edge.
    """
    target = (_encode_multiset(in_forms), _encode_multiset(out_forms))
    caps_plus = tuple(sorted(m.total_weight for m in in_forms))
    caps_minus = tuple(sorted(m.total_weight for m in out_forms))
    tp, tm = sum(caps_plus), sum(caps_minus)
    for entry in entries_for(label):
        if entry.e_plus != len(in_forms) or entry.e_minus != len(out_forms):
            continue
        p0, m0 = engine.state_totals(entry.state)
        k = tp - p0
        if k < 0 or tm - m0 != k:
            continue
        if target in engine.reachable_pairs_capped(entry.state, caps_plus, caps_minus, target):
            return True
    return False
