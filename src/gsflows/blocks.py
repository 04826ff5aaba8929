"""Shape catalog, minimal isolating blocks, and local realizability.

The block catalog lists the 33 minimal isolating blocks up to homeomorphism
and flow reversal, each with its boundary forms and flow-band state; the
per-type counts are 3, 3, 3, 13 and 11 for the plane, cone, Whitney, double
and triple crossing charts.  Several double- and triple-crossing boundary
assignments are reconstructions and carry a provisional flag; the totals and
the per-shape boundary option sets are the binding data.  The catalog is the
table `_CATALOG`, one row per block: name, singularity type and nature, the
entering and exiting vertex kinds, the dead entering arcs, the flow bands as
(entering arc, exiting arc) vertex pairs, and the orientable and provisional
flags.

The blocks and their reversals are kept in one index (`_index`), built once
per process: each block followed by its reversal, in catalog order, listed
under its shape (label, indegree, outdegree).  The admissible semi-graph
shapes are its keys, each given by its first entry, and the minimal weights
of a shape are that entry's sorted component weights; a label's entries
(`entries_for`) are its shapes' entries, and a feasibility query reads the
entries of its target's shape.  The weight-condition table is the blocks'
own shapes plus the two double-crossing shapes that no block realizes.

Local verdicts follow a fixed cascade: the Poincare-Hopf residual, the
degree inequalities, the known non-realizable shape exclusions, shape
catalog membership, the shape's minimal weights, and the cone/double/triple
weight-splitting constraints.
Natures the catalog lists only through reversed blocks are decided on the
time-reversed semi-graph.  A verdict is computed afresh on every call;
`realize._vertex_facts` is the memo that keeps one per vertex shape.

Boundary feasibility asks whether some block for a label grows, by the
engine's passageway moves, into a given pair of branched 1-manifolds.  Each
block answers by one rule, read off its state when its catalog entry is
built (`CatalogEntry.rule`, `_rule`); a reversal reads its own state, so its
rule is the mirror of its block's:

=============  =====================================  ======================
rule           blocks                                 feasible targets
=============  =====================================  ======================
band-free      R_a, C_a, W_a, D_a, T_a                the block's own pair
diagonal       C_s_11, R_s_11, C_s_22                 equal sides
point split    W_ss_11, W_ss_12                       splits of X at a point
arc sum        R_s_12                                 X an arc sum of Y1, Y2
walk           the 22 D_sa_*, D_sss_* and T_ssa_*     a capped engine walk
=============  =====================================  ======================

Here X is the one component on the branch side (point split) or on the
one-circle side (arc sum), and the other side, the parts side, holds the
rest of the target.
Each rule but the walk is proved below; the walk is the engine's own
answer (`engine.reachable_pairs_capped`), whose prune loses no target.

*Band-free.*  A block with no band has no move, so it reaches only its own
pair (`CatalogEntry.sides`).

*Diagonal.*  One with no dead arcs, only circles on its boundary, and a
kind-preserving bijection sigma of entering onto exiting vertices that
carries every band's entering arc onto that band's exiting arc, end to end
(a reversal is diagonal through sigma's inverse).  Such a block grows into
exactly the pairs whose exiting side equals its entering side, component
for component:

* a move keeps the state diagonal.  `engine._apply` splits the band's two
  arcs at matching places, so sigma extended by the two new branch points
  still carries every band's entering arc onto its exiting arc.  Hence every
  reachable pair is (X, sigma X), with equal sides;
* conversely, under sigma two entering points share a component exactly
  when their exit points do, so every same-component identification on the
  entering side is a legal move.  Each entering circle can therefore follow
  any growth path of `branched.enumerate_connected`, independently of the
  others, and every connected form grows from the circle.

The two remaining rules rest on one lemma.  *Marked growth:* a connected
component C with marked interior points, each perhaps with a direction of
its arc, grows from a circle carrying the same marks by same-component
identifications of unmarked points.  By reverse induction on the weight: a
C that is not a circle has a branch point b, and b has a split whose result
C' is connected (the splitting lemma for Eulerian graphs, H. Fleischner,
*Eulerian Graphs and Related Topics*, 1990; pair b's arc ends as an Euler
tour of C passes through b).  The marks and their directions lie away from
b and pass to C' unchanged, C' grows from the marked circle, and
identifying its two split points gives C back.  A circle with one mark,
directed or not, or with two undirected marks is unique up to homeomorphism
(a reflection reverses a direction), which is all the rules below use.  In
both blocks no arc is dead and every vertex is a branch point or a marker,
so every unmarked interior point lies on a band's arc, and identifying two
of them on one component of the parts side is a move whenever the other
side is connected, as it always is here.

*Point split* (`W_ss_11`, `W_ss_12`; the branch side is the exiting side of
a reversal).  The branch side is one branch point b carrying two band
loops, and the other side two markers k0, k1, each band's arc running
between them or looping at one.  Forward: identifying k0 with k1 gives the
branch side, band arc onto band arc, and a move identifies matching points
on both sides, so that stays true.  So every reachable pair is (X, Y) with
Y a split of X at one branch point (`branched.point_splits`), connected for
`W_ss_11`, of two components for `W_ss_12`.  Conversely, let Y be such a
split of X, with split points x and y.  Marked growth, on Y with marks x
and y, or on each of its two components with its one mark, grows it from
the block's marker side, and every step is a move; at the end the branch
side is Y with x and y identified, that is X.  The bands fix no pairing at
b: the pairing is Y's, and any Y is grown.

*Arc sum* (`R_s_12`).  The one-circle side is a circle through two markers
whose two arcs are band arcs; on the parts side each band is a loop at its
own marker, so that side is two circles Y1, Y2.  Forward: each band arc of
the circle is the exit circle of that band cut open at its marker, and a
move identifies matching points away from the markers, so the circle side
stays the sum of Y1 and Y2 cut open at their markers and joined end to end
as the bands run (`branched.arc_sums`).  Conversely, given X, a sum of Y1
and Y2 at one arc of each, put a directed mark at each cut point so that
the bands join the ends as the sum does; reversing Y2's direction gives the
other join.  Marked growth grows each Yi with its mark from its exit circle,
every step a move, and the circle side is then X.

So each of these blocks is feasible for a target exactly when its rule
holds.  The test suite checks the rules against the walk on every target
of every entry and reversal at combined weight 9 or less, and each rule's
set against the block's closure up to combined weight 13.

A query is its target pair: one connected component per edge, sorted per
side.  A query on a nature the catalog lists only through reversed blocks
is answered as the mirrored query, the reversed label with the target's
sides swapped, as `local_realizable` decides the reversed semi-graph.  So
the reversal symmetry is applied here and nowhere in the engine: a capped
walk is only ever asked of a catalog block's own state (the walk blocks'
natures are not self-reversed), and a query and its mirror share one
answer.  Each distinct query (label, target pair) is answered once per
process and kept in `_feasible`'s table, process-wide like the engine's
state graph: search backtracking and certificate audits ask the same vertex
questions again and again.  `realize._assign` queries the table directly
with the pairs it builds from its assigned components.  `boundary_feasible`
is the same query on lists of manifolds: moves never merge or split
components, so a form of two or more components is infeasible without a
query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import engine
from .branched import Branched1Manifold, arc_sums, point_splits
from .engine import BlockState
from .model import (
    Nature,
    SemiGraph,
    SingularityType,
    VertexLabel,
    degree_bounds_ok,
    ph_residual,
    reverse_nature,
    reverse_semigraph,
)

_T = SingularityType
_N = Nature


def _equation(e_minus: int, delta: int) -> str:
    """B+ - B- = delta as text; every tabulated shape has e+ >= 1 and delta >= -1."""
    if e_minus == 0:
        return f"B+ = {delta}"
    if delta == 0:
        return "B+ = B-"
    if delta == 3:
        # Table convention for the largest offset.
        return "B+ - 3 = B-"
    if delta > 0:
        return f"B+ = B- + {delta}"
    return f"B+ = B- - {-delta}"


@lru_cache(maxsize=1)
def _index() -> dict[tuple[VertexLabel, int, int], tuple[CatalogEntry, ...]]:
    """The catalog blocks and their reversals by shape (label, e+, e-), in catalog order.

    Each block is followed by its reversal, built here once per process; the
    shape views below and the feasibility table read this one index.
    """
    index: dict[tuple[VertexLabel, int, int], tuple[CatalogEntry, ...]] = {}
    for block in minimal_block_catalog():
        for e in (block, block.reversed()):
            shape = (e.label, e.e_plus, e.e_minus)
            index[shape] = index.get(shape, ()) + (e,)
    return index


def shape_catalog() -> tuple[CatalogEntry, ...]:
    """All admissible shapes, each as the first block or reversal that has it."""
    return tuple(entries[0] for entries in _index().values())


def shape_for(label: VertexLabel, e_plus: int, e_minus: int) -> CatalogEntry | None:
    return _index().get((label, e_plus, e_minus), (None,))[0]


@lru_cache(maxsize=None)
def entries_for(label: VertexLabel) -> tuple[CatalogEntry, ...]:
    """Catalog entries applying to the label, in catalog order, reversing blocks as needed.

    Self-reversed natures (the saddles) match both orientations of a block,
    so both the entry and its reversal are offered.  The entries of one
    shape are adjacent in the catalog, so the index lists them in order.
    """
    return tuple(e for (owner, _, _), entries in _index().items() if owner == label for e in entries)


#: Double-crossing shapes that satisfy the residual relation but admit no
#: isolating block.
_EXCLUDED = tuple((VertexLabel(_T.DOUBLE, _N.SS_S), 2, e_minus) for e_minus in (3, 4))

# Table wordings that give component weights instead of a boundary total.
_WORDINGS = {
    (VertexLabel(_T.CONE, _N.A), 2, 0): "b1+ = b2+ = 1",
    (VertexLabel(_T.TRIPLE, _N.A), 1, 0): "b1+ = 7",
}


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

    These are the shapes of the catalog blocks, not reversed, and the two
    excluded double-crossing shapes, ordered by label, then outdegree, then
    indegree.
    """
    shapes = [*dict.fromkeys((b.label, b.e_plus, b.e_minus) for b in minimal_block_catalog()), *_EXCLUDED]
    shapes.sort(key=lambda s: (list(_T).index(s[0].kind), list(_N).index(s[0].nature), s[2], s[1]))
    rows = []
    for label, ep, em in shapes:
        # At unit weights B+ - B- = e+ - e-, so the residual there is the
        # offset from the forced value of B+ - B-.
        delta = ep - em - ph_residual(SemiGraph(label, (1,) * ep, (1,) * em))
        text = _WORDINGS.get((label, ep, em)) or _equation(em, delta)
        rows.append(ConditionRow(label, ep, em, delta, text))
    return tuple(rows)


def minimal_weights(label: VertexLabel, e_plus: int, e_minus: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimal weight vectors of an admissible shape: its blocks' component weights."""
    entry = shape_for(label, e_plus, e_minus)
    if entry is None:
        raise ValueError(f"shape ({label}, {e_plus}, {e_minus}) not in catalog")
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

    Natures the catalog lists only through reversed blocks get the verdict of
    the time-reversed semi-graph, so each rule below is stated once.  The
    excluded shapes and the unequal splits at minimal totals give reason
    Thm4-exclusion, weights below the shape's minimal weights below-minimal,
    and the splitting rules for non-minimal weights Thm5-*.
    """
    if sg.label.nature in _REVERSED:
        return local_realizable(reverse_semigraph(sg))
    kind, nature = sg.label.kind, sg.label.nature
    ins, outs = sg.in_weights, sg.out_weights
    if ph_residual(sg) != 0:
        return _no("PH-violated")
    if not degree_bounds_ok(sg):
        return _no("degree-bound")
    if (sg.label, sg.e_plus, sg.e_minus) in _EXCLUDED:
        return _no("Thm4-exclusion")

    entry = shape_for(sg.label, sg.e_plus, sg.e_minus)
    if entry is None:
        return _no("shape-absent")

    # The residual fixes B+ - B-, as it does for the minimal weights, so
    # both sides lie the same excess above them; below them no block fits.
    excess = sg.b_plus - sum(entry.min_in)
    if excess < 0:
        return _no("below-minimal")

    dss_s = kind is _T.DOUBLE and nature is _N.SS_S and sg.e_plus == 2
    tssa = kind is _T.TRIPLE and nature is _N.SSA and sg.e_minus == 2

    # Unequal splits at minimal totals.
    if dss_s and excess == 0 and ins[0] != ins[1]:
        return _no("Thm4-exclusion")
    if tssa and excess == 0 and outs[0] != outs[1]:
        return _no("Thm4-exclusion")

    # Cone saddle with two components on each side: weights pair up along
    # the two cylinders.
    if kind is _T.CONE and nature is _N.S and sg.e_plus == 2 and sg.e_minus == 2:
        if sorted(ins) != sorted(outs):
            return _no("Thm5-ii")

    # Sides holding two fold sheets need every component weight >= 2.
    if dss_s and min(ins) < 2:
        return _no("Thm5-iii")
    if tssa and min(outs) < 2:
        return _no("Thm5-iv")

    if sorted(ins) == sorted(entry.min_in) and sorted(outs) == sorted(entry.min_out):
        return LocalVerdict(YES_MINIMAL)
    return LocalVerdict(YES_PASSAGEWAYS, passageways=excess)


# ---------------------------------------------------------------------------
# The minimal block catalog


@dataclass(frozen=True)
class CatalogEntry:
    """One minimal isolating block with its boundary forms and flow bands.

    Its sides are read once (`engine.read_sides`); a reversal takes its
    block's reading with the sides swapped.
    """

    name: str
    label: VertexLabel
    state: BlockState
    orientable: bool | None = None
    provisional: bool = False
    sides: tuple[engine.Side, engine.Side] | None = field(default=None, repr=False, compare=False)
    #: Entering and exiting boundary forms, None for an empty side.
    n_plus: Branched1Manifold | None = field(init=False)
    n_minus: Branched1Manifold | None = field(init=False)
    #: Sorted component weights of the entering and exiting boundaries.
    min_in: tuple[int, ...] = field(init=False)
    min_out: tuple[int, ...] = field(init=False)
    e_plus: int = field(init=False)
    e_minus: int = field(init=False)
    #: Component pairs (entering, exiting) joined by some flow band, indexed
    #: as the components of `n_plus` and `n_minus`.
    routing: frozenset[tuple[int, int]] = field(init=False)
    #: How `_entry_feasible` answers the block (see the module docstring):
    #: the rule read off its state by `_rule`, and for a point split or an
    #: arc sum the index of the side that holds the one component X.
    rule: tuple[str, int] = field(init=False)

    def __post_init__(self) -> None:
        sides = self.sides or engine.read_sides(self.state)
        (ins, plus_at), (outs, minus_at) = sides
        routing = frozenset((p[0], m[0]) for p, m in zip(plus_at, minus_at))
        for name, value in (("sides", sides), ("n_plus", Branched1Manifold(ins) if ins else None),
                            ("n_minus", Branched1Manifold(outs) if outs else None),
                            # Canonical components sort by order, so their weights come sorted.
                            ("min_in", tuple(c.weight for c in ins)), ("min_out", tuple(c.weight for c in outs)),
                            ("e_plus", len(ins)), ("e_minus", len(outs)), ("routing", routing),
                            ("rule", _rule(self.state))):
            object.__setattr__(self, name, value)

    def reversed(self) -> "CatalogEntry":
        return CatalogEntry(
            self.name + "~rev",
            VertexLabel(self.label.kind, reverse_nature(self.label.nature)),
            self.state.reversed(),
            self.orientable,
            self.provisional,
            self.sides[::-1],
        )


#: The feasibility rules, one per catalog entry (see the module docstring).
BAND_FREE, DIAGONAL, POINT_SPLIT, ARC_SUM, WALK = "band-free", "diagonal", "point split", "arc sum", "walk"


def _rule(st: BlockState) -> tuple[str, int]:
    """The state's feasibility rule, and the side of X for a point split or an arc sum.

    A point split has one branch point on one side and two markers on the
    other; an arc sum two markers on each side, band arcs joining them on
    one and looping on the other.  Neither has dead arcs.
    """
    if not st.bands:
        return BAND_FREE, 0
    if _is_diagonal(st):
        return DIAGONAL, 0
    if not (st.plus_dead or st.minus_dead):
        two = (engine.MARKER, engine.MARKER)
        sides = ((st.plus_kinds, st.plus_arcs), (st.minus_kinds, st.minus_arcs))
        for side, ((kinds, arcs), (other, other_arcs)) in enumerate((sides, sides[::-1])):
            if kinds == (engine.BRANCH,) and other == two:
                return POINT_SPLIT, side
            if kinds == other == two and all(u != v for u, v in arcs) and all(u == v for u, v in other_arcs):
                return ARC_SUM, side
    return WALK, 0


def _is_diagonal(st: BlockState) -> bool:
    """Whether the state has no dead arcs, only circles, and a band-aligned sigma.

    sigma maps each band's entering arc ends onto its exiting arc ends; it
    must be a well-defined, kind-preserving bijection of the vertices.
    """
    if engine.BRANCH in st.plus_kinds or st.plus_dead or st.minus_dead:
        return False
    sigma: dict[int, int] = {}
    for pu, pv, mu, mv in st.bands:
        for p, m in ((pu, mu), (pv, mv)):
            if sigma.setdefault(p, m) != m:
                return False
    return (
        len(sigma) == len(set(sigma.values())) == len(st.plus_kinds) == len(st.minus_kinds)
        and all(st.plus_kinds[p] == st.minus_kinds[m] for p, m in sigma.items())
    )


# Triple-crossing saddle blocks: four branch points on the attractor-sheet
# circle (its four dead arcs), and the saddle sheets' live entering arcs in
# one of five patterns, each joined in band order to one of three exits.
_TSSA_DEAD = ((0, 1), (1, 2), (2, 3), (3, 0))
_TSSA_IN = {
    "C4L": ((0, 0), (1, 1), (2, 2), (3, 3)),
    "LL-adj": ((0, 0), (1, 1), (2, 3), (3, 2)),
    "LL-opp": ((0, 0), (2, 2), (1, 3), (3, 1)),
    "SS-adj": ((0, 1), (1, 0), (2, 3), (3, 2)),
    "SS-cross": ((0, 2), (2, 0), (1, 3), (3, 1)),
}
_TSSA_OUT = {
    "3a": ((0, 1), (1, 0), (0, 1), (1, 0)),
    # Bands 0/1 run along the two-sheet circle, bands 2/3 are the loops.
    "3b": ((0, 1), (1, 0), (0, 0), (1, 1)),
    "f8f8": ((0, 0), (1, 1), (0, 0), (1, 1)),
}
_TSSA = (("C4L", "3a"), ("LL-adj", "3a"), ("SS-adj", "3a"), ("SS-cross", "3a"), ("LL-adj", "3b"),
         ("LL-opp", "3b"), ("SS-adj", "3b"), ("SS-cross", "3b"), ("SS-adj", "f8f8"), ("SS-cross", "f8f8"))

#: The minimal block catalog, one row per block: name, type, nature,
#: entering and exiting vertex kinds (b branch point, k marker), dead
#: entering arcs, bands (pu, pv, mu, mv) joining entering arc (pu, pv) to
#: exiting arc (mu, mv), orientable, provisional.
_CATALOG = (
    ("R_a", _T.REGULAR, _N.A, "k", "", ((0, 0),), (), True, False),
    ("R_s_11", _T.REGULAR, _N.S, "kk", "kk", (), ((0, 1, 0, 1), (1, 0, 1, 0)), False, False),
    ("R_s_12", _T.REGULAR, _N.S, "kk", "kk", (), ((0, 1, 0, 0), (1, 0, 1, 1)), True, False),
    ("C_a", _T.CONE, _N.A, "kk", "", ((0, 0), (1, 1)), (), None, False),
    ("C_s_11", _T.CONE, _N.S, "kkkkkk", "kkkkkk", (),
     ((0, 1, 0, 1), (1, 2, 1, 2), (2, 3, 2, 3), (3, 4, 3, 4), (4, 5, 4, 5), (5, 0, 5, 0)), None, False),
    ("C_s_22", _T.CONE, _N.S, "kk", "kk", (), ((0, 0, 0, 0), (1, 1, 1, 1)), None, False),
    ("W_a", _T.WHITNEY, _N.A, "b", "", ((0, 0), (0, 0)), (), None, False),
    ("W_ss_11", _T.WHITNEY, _N.S_S, "b", "kk", (), ((0, 0, 0, 1), (0, 0, 1, 0)), None, False),
    ("W_ss_12", _T.WHITNEY, _N.S_S, "b", "kk", (), ((0, 0, 0, 0), (0, 0, 1, 1)), None, False),
    ("D_a", _T.DOUBLE, _N.A, "bb", "", ((0, 1),) * 4, (), None, False),
    ("D_sa_11_or", _T.DOUBLE, _N.SA, "bb", "kk", ((0, 1),) * 2, ((0, 0, 0, 1), (1, 1, 1, 0)), True, False),
    ("D_sa_11_non", _T.DOUBLE, _N.SA, "bb", "kk", ((0, 1),) * 2, ((0, 1, 0, 1), (1, 0, 1, 0)), False, False),
    ("D_sa_12", _T.DOUBLE, _N.SA, "bb", "kk", ((0, 1),) * 2, ((0, 1, 0, 0), (1, 0, 1, 1)), True, False),
    # Crossed stable merge: four parallel arcs; exit circle with four sheets.
    ("D_sss_11_a", _T.DOUBLE, _N.SS_S, "bb", "kkkk", (),
     ((0, 1, 0, 1), (1, 0, 1, 2), (0, 1, 2, 3), (1, 0, 3, 0)), None, False),
    # Nested stable merge: loop, double arc, loop.
    ("D_sss_11_b", _T.DOUBLE, _N.SS_S, "bb", "kkkk", (),
     ((0, 1, 0, 1), (1, 1, 1, 2), (1, 0, 2, 3), (0, 0, 3, 0)), None, False),
    # Each petal of an entering figure eight runs between stable points of
    # the two different saddles, so the four exit points must alternate
    # between the saddle sheets around the exit circle.
    ("D_sss_21", _T.DOUBLE, _N.SS_S, "bb", "kkkk", (),
     ((0, 0, 0, 1), (1, 1, 1, 2), (0, 0, 2, 3), (1, 1, 3, 0)), None, True),
    ("D_sss_12_a", _T.DOUBLE, _N.SS_S, "bb", "kkkk", (),
     ((0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 2, 3), (1, 0, 3, 2)), None, False),
    ("D_sss_12_b", _T.DOUBLE, _N.SS_S, "bb", "kkkk", (),
     ((0, 0, 0, 1), (1, 1, 1, 0), (0, 1, 2, 3), (1, 0, 3, 2)), None, False),
    ("D_sss_22", _T.DOUBLE, _N.SS_S, "bb", "kkkk", (),
     ((0, 0, 0, 1), (0, 0, 2, 3), (1, 1, 1, 0), (1, 1, 3, 2)), None, True),
    ("D_sss_13_a", _T.DOUBLE, _N.SS_S, "bb", "kkkk", (),
     ((0, 1, 0, 0), (1, 0, 1, 1), (0, 1, 2, 3), (1, 0, 3, 2)), None, False),
    ("D_sss_13_b", _T.DOUBLE, _N.SS_S, "bb", "kkkk", (),
     ((0, 0, 0, 1), (1, 1, 1, 0), (0, 1, 2, 2), (1, 0, 3, 3)), None, True),
    ("D_sss_14", _T.DOUBLE, _N.SS_S, "bb", "kkkk", (),
     ((0, 1, 0, 0), (1, 0, 1, 1), (0, 1, 2, 2), (1, 0, 3, 3)), None, False),
    # Every pair of six branch points but {0, 1}, {2, 3} and {4, 5}.
    ("T_a", _T.TRIPLE, _N.A, "bbbbbb", "",
     ((0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)),
     (), None, False),
    *(
        (f"T_ssa_{p}_{m}", _T.TRIPLE, _N.SSA, "bbbb", "bb", _TSSA_DEAD,
         tuple(a + b for a, b in zip(_TSSA_IN[p], _TSSA_OUT[m])), None, True)
        for p, m in _TSSA
    ),
)

#: Natures the catalog lists only through reversed blocks.
_REVERSED = frozenset(_N) - {row[2] for row in _CATALOG}


@lru_cache(maxsize=1)
def minimal_block_catalog() -> tuple[CatalogEntry, ...]:
    """The 33 minimal isolating blocks up to homeomorphism and flow reversal."""
    return tuple(
        CatalogEntry(name, VertexLabel(t, n), BlockState(tuple(plus), tuple(minus), dead, (), bands),
                     orientable, provisional)
        for name, t, n, plus, minus, dead, bands, orientable, provisional in _CATALOG
    )


def catalog_counts() -> dict[SingularityType, int]:
    return {t: sum(e.label.kind is t for e in minimal_block_catalog()) for t in SingularityType}


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
    encoded = (tuple("|".join(c.encode() for c in side) for side in pair) for pair in pairs)
    return ClosureResult(frozenset(encoded), complete)


def boundary_feasible(
    label: VertexLabel,
    in_forms: list[Branched1Manifold],
    out_forms: list[Branched1Manifold],
) -> bool:
    """Whether some block for the label realizes these boundary components.

    The entering (exiting) boundary is the disjoint union of the given
    forms, one per incident edge.  Moves never merge or split components,
    so a form of more than one component is never realized; otherwise the
    answer is `_feasible`'s on the sorted components.
    """
    if any(len(m.components) != 1 for forms in (in_forms, out_forms) for m in forms):
        return False
    target = tuple(tuple(sorted(c for m in forms for c in m.components)) for forms in (in_forms, out_forms))
    return _feasible(label, target)


#: Distinct feasibility queries whose answers are kept.  The 308 operations
#: of one cold round of the benchmark's `deep` workload (seed 1), replayed in
#: one fresh process, ask 4 409 queries of 217 distinct (label, target pair)
#: keys.  The table then holds 235 keys, 18 of them the mirrored keys that
#: reversed-nature queries are answered under, and the misses call the
#: engine's capped walk 113 times.
_FEASIBLE_CACHE_SIZE = 1 << 14


@lru_cache(maxsize=_FEASIBLE_CACHE_SIZE)
def _feasible(label: VertexLabel, target: engine.Pair) -> bool:
    """`boundary_feasible` on its target pair, once per process.

    Natures the catalog lists only through reversed blocks are answered as
    the mirrored query on the blocks themselves.
    """
    if label.nature in _REVERSED:
        return _feasible(VertexLabel(label.kind, reverse_nature(label.nature)), target[::-1])
    return any(_entry_feasible(e, target) for e in _index().get((label, len(target[0]), len(target[1])), ()))


def _entry_feasible(entry: CatalogEntry, target: engine.Pair) -> bool:
    """Whether the block grows into the target pair, by the entry's rule.

    The entry has the target's component counts, as `_feasible` reads it
    off the index by the target's shape.  A target whose two sides grow by
    unequal weights is infeasible for every rule.
    """
    plus, minus = (sum(c.weight for c in side) for side in target)
    k = plus - sum(entry.min_in)
    if k < 0 or minus - sum(entry.min_out) != k:
        return False
    rule, side = entry.rule
    if rule == WALK:
        return engine.reachable_pairs_capped(entry.state, target)
    if rule == BAND_FREE:
        return target == (entry.sides[0][0], entry.sides[1][0])
    if rule == DIAGONAL:
        return target[0] == target[1]
    (whole,), parts = target[side], target[1 - side]
    if rule == POINT_SPLIT:
        return parts in point_splits(whole)
    return whole in arc_sums(*parts)
