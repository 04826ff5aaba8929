"""Flow-band rewriting engine for isolating-block boundaries.

A block boundary state records the entering and exiting branched 1-manifolds
of an isolating block together with its flow bands: maximal families of
regular orbits crossing the block.  Each band shows up as one arc on the
entering side and one arc on the exiting side, aligned end to end; arcs not
carried by any band (attractor or repeller sheets, fold sheets) are dead and
no rewrite may touch them.  Degree-2 marker vertices delimit bands without
being branch points; they are suppressed when boundary forms are read off.

A state has the fields of a `blocks` catalog row: each side's vertex kinds,
each side's dead arcs as (u, v) vertex pairs, and the bands as
(pu, pv, mu, mv), each joining entering arc (pu, pv) to exiting arc
(mu, mv).  A side's arc list (its dead arcs, then its band arcs in band
order) is derived from these, once per state.

One rewrite step identifies a pair of regular orbits: it merges their two
entry points into a new branch point on the entering side and their two exit
points into a new branch point on the exiting side.  Restricting to pairs
whose entry points share an entering component and whose exit points share
an exiting component keeps both component counts fixed; this is exactly the
passageway move, and each application raises the weight of one component on
each side by one.

Every reachability query walks one process-wide graph with a node per
root state and per isomorphism class of successors, so a state's moves are
read at most once per process.  One depth-first walk, `_walk`, serves every
query: closures take every move within the bound, feasibility queries only
the moves that can still grow into their target.  Roots are not keyed: a
root node is the state asked.  Successor isomorphism must respect sides,
vertex kinds, dead arcs and the band pairing, so successors are keyed as
coloured multigraphs with one auxiliary node per band.

Boundary pairs are compared as tuples of canonical components, one sorted
tuple per side, () for an empty side; text encodings are made only at the
API edge (`blocks.passageway_closure`).

One routine reads a state's sides, `read_sides`: one suppression per side
gives its sorted canonical components and the canonical arc each band lies
on.  The catalog (`blocks.CatalogEntry`) reads its boundary forms, weights
and routing off it, and a node reads its moves off it once, when it is
made (through `_move_pairs`, which the enumerator `successors` uses too).
The legal band pairs are those whose arcs lie on the same component on
both sides, and each comes with the boundary pair of the successor it
gives, taken off those forms.  This is sound at every level:

- `_apply(i, j)` adds one branch point on each side by identifying an
  interior point of band i's arc with one of band j's arc;
- after degree-2 suppression, that is `branched.identify_points` on the
  suppressed arcs that carry the two bands (`branched.suppress` records
  which canonical arc each arc lies on);
- if both bands lie on the same suppressed arc, the result is the loop form
  whichever order the points are in;
- parallel arcs, loops included, are swapped by an automorphism, so any
  endpoint-respecting assignment of walks to canonical arc indices gives
  isomorphic results.

So each successor's pair is the parent's pair with the moved component on
each side replaced by its identification (`branched.identify_arcs`, the
table `enumerate_connected` grows forms with).  A walk stacks the moves
it keeps, not their successors; a successor is built, keyed and read only
when a walk takes its move off the stack (`StateSet.child`), and that
move's slot in `_Node.succ` then holds it.  A root state gets its node by
the state itself (`StateSet.add`), with no key; successors are keyed once
per move taken and are kept only as nodes.

Every feasibility query is its target pair, and its walk is pruned to
states that can still grow into it.  Each move identifies two points of one
component on each side, so components never merge or split and each grows
by same-component point identifications.  A state can reach the target pair
only if, on each side, its components lie one each in the down-sets
(`branched.down_set`, the closure under `branched.split_off`) of distinct
target components.  The test is necessary, so the prune never loses a
reachable target; it is applied to a successor's pair before it is built,
and a successor at the target's depth is only compared with the target.  So
a walk keys no state it prunes and none at its last level.  The test also
bounds weights: `split_off` lowers a component's weight by one, so a
component in the down-set of a target component never weighs more than it,
and a state that passes it fits under the target's component weights.
Closures are not pruned and serve as the unpruned reference: weights only
grow, so every state on a path to the target already fits the target's
component weights, and capped reachability of a target is membership in the
closure at its combined weight.  Closures read their last level off the
level before it too.

Only the double- and triple-crossing saddle blocks (`D_sa_*`, `D_sss_*`,
`T_ssa_*`, 22 of the 33) are answered by a walk.  Every other block has a
feasibility rule read off its state (`blocks.CatalogEntry.rule`), proved in
the `blocks` docstring: a block without bands reaches only its own pair; a
diagonal block, whose bands carry the entering boundary onto the exiting
one, exactly the pairs with equal sides; a Whitney saddle the one-point
splits of its branch side (`branched.point_splits`); and the regular saddle
with two exits the arc sums (`branched.arc_sums`).  The feasibility table
(`blocks._feasible`) answers those by their rules, answers a reversed
nature's query as the mirrored query on its blocks, and keeps each distinct
query's answer for the life of the process, a table beside `_GRAPH`.  The
walk blocks' natures are not self-reversed, so this module sees each
remaining query once, always on a catalog block's own state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

from .branched import (
    BranchedComponent,
    canonical_labelling,
    down_set,
    identify_arcs,
    suppress,
)

BRANCH = "b"
MARKER = "k"

#: Boundary pair: the sorted canonical components of the entering side and
#: of the exiting side, () for an empty side.
Pair = tuple[tuple[BranchedComponent, ...], tuple[BranchedComponent, ...]]


@dataclass(frozen=True)
class BlockState:
    """Entering/exiting boundary multigraphs with their flow bands."""

    plus_kinds: tuple[str, ...]
    minus_kinds: tuple[str, ...]
    plus_dead: tuple[tuple[int, int], ...]
    minus_dead: tuple[tuple[int, int], ...]
    #: (pu, pv, mu, mv): the band joining entering arc (pu, pv) to exiting arc (mu, mv).
    bands: tuple[tuple[int, int, int, int], ...]

    @cached_property
    def plus_arcs(self) -> tuple[tuple[int, int], ...]:
        return self.plus_dead + tuple((pu, pv) for pu, pv, _, _ in self.bands)

    @cached_property
    def minus_arcs(self) -> tuple[tuple[int, int], ...]:
        return self.minus_dead + tuple((mu, mv) for _, _, mu, mv in self.bands)

    def reversed(self) -> "BlockState":
        return BlockState(self.minus_kinds, self.plus_kinds, self.minus_dead, self.plus_dead,
                          tuple((mu, mv, pu, pv) for pu, pv, mu, mv in self.bands))


#: A side's sorted canonical components, and per band the (component, arc)
#: place its arc lies on; () and () for an empty side.
Side = tuple[tuple[BranchedComponent, ...], tuple[tuple[int, int], ...]]


def read_sides(state: BlockState) -> tuple[Side, Side]:
    """The entering and exiting sides read into components, one `suppress` each."""
    (plus, plus_at), (minus, minus_at) = suppress(state.plus_arcs), suppress(state.minus_arcs)
    return (plus, tuple(plus_at[len(state.plus_dead):])), (minus, tuple(minus_at[len(state.minus_dead):]))


def successors(state: BlockState) -> list[BlockState]:
    """All shape-preserving rewrites of the state, in move order."""
    return [_apply(state, i, j) for (i, j), _ in _move_pairs(state)[1]]


def _apply(state: BlockState, i: int, j: int) -> BlockState:
    """Identify a point of band i with a point of band j, i == j for a loop.

    The new branch points are x on the entering side and y on the exiting
    side.  Each band cut keeps its place, ending at x and y; the pieces past
    the cut follow the existing bands.
    """
    x, y = len(state.plus_kinds), len(state.minus_kinds)
    bands = list(state.bands)
    pu, pv, mu, mv = bands[i]
    bands[i] = (pu, x, mu, y)
    if i == j:
        bands += [(x, x, y, y), (x, pv, y, mv)]
    else:
        qu, qv, nu, nv = bands[j]
        bands[j] = (qu, x, nu, y)
        bands += [(x, pv, y, mv), (x, qv, y, nv)]
    return BlockState(state.plus_kinds + (BRANCH,), state.minus_kinds + (BRANCH,),
                      state.plus_dead, state.minus_dead, tuple(bands))


# ---------------------------------------------------------------------------
# Isomorphism pruning

# States are deduplicated by an exact canonical key over an auxiliary
# labelled graph: one node per boundary vertex, per dead arc, and per band,
# with band nodes wired to their four arc ends by role-labelled edges.  The
# key is the canonical labelling key of that graph.


def _state_units(state: BlockState):
    """(node colours, labelled edges) of the auxiliary graph."""
    colors = [f"p{k}" for k in state.plus_kinds] + [f"m{k}" for k in state.minus_kinds]
    edges: list[tuple[int, int, int]] = []
    minus_base = len(state.plus_kinds)
    E, P0, P1, M0, M1 = 0, 1, 2, 3, 4
    for color, base, dead in (("dp", 0, state.plus_dead), ("dm", minus_base, state.minus_dead)):
        for u, v in dead:
            idx = len(colors)
            colors.append(color)
            edges.append((E, idx, base + u))
            edges.append((E, idx, base + v))
    for pu, pv, mu, mv in state.bands:
        idx = len(colors)
        colors.append("bd")
        edges.append((P0, idx, pu))
        edges.append((P1, idx, pv))
        edges.append((M0, idx, minus_base + mu))
        edges.append((M1, idx, minus_base + mv))
    return colors, edges


def state_key(state: BlockState) -> tuple:
    """Exact canonical key: equal keys mean isomorphic states."""
    colors, edges = _state_units(state)
    return canonical_labelling(colors, edges)[0]


class _Node:
    """One isomorphism class of block states in the state graph, or one root state.

    A node is made when a query asks its state as a root or a walk takes
    the move that gives it, and reads its pair and moves then, so a move a
    walk leaves on its stack when it stops at a hit makes no node.
    """

    __slots__ = ("state", "comps", "moves", "succ")

    def __init__(self, state: BlockState) -> None:
        self.state = state
        #: Boundary pair, and (band pair, successor's boundary pair) per move.
        self.comps, self.moves = _move_pairs(state)
        #: Successor node per move, each filled when a walk first takes that move.
        self.succ: list[_Node | None] = [None] * len(self.moves)


class StateSet:
    """Graph of block states up to structure-preserving isomorphism.

    There is one node per root state and one per canonical key of a
    successor, so a state's moves are read, and each of its successors
    keyed, at most once however many queries reach it.
    """

    def __init__(self) -> None:
        # Successor nodes by canonical key.
        self._nodes: dict[tuple, _Node] = {}
        # Root nodes by state, unkeyed.  Successors are not kept here:
        # `_Node.succ` serves every later look-up of a move.
        self._states: dict[BlockState, _Node] = {}

    def add(self, state: BlockState) -> _Node:
        """The root node of the state, made when first met; roots are not keyed."""
        node = self._states.get(state)
        if node is None:
            node = self._states[state] = _Node(state)
        return node

    def child(self, node: _Node, k: int) -> _Node:
        """The successor by the node's k-th move, built, keyed and read when first taken."""
        succ = node.succ[k]
        if succ is None:
            (i, j), _ = node.moves[k]
            state = _apply(node.state, i, j)
            key = state_key(state)
            succ = self._nodes.get(key)
            if succ is None:
                succ = self._nodes[key] = _Node(state)
            node.succ[k] = succ
        return succ


#: The process-wide state graph behind every reachability query.
_GRAPH = StateSet()


def _move_pairs(state: BlockState) -> tuple[Pair, tuple[tuple[tuple[int, int], Pair], ...]]:
    """The state's boundary pair, and each move with its successor's pair.

    One `read_sides` serves both.  The moves are the band pairs (i, j),
    i <= j, whose arcs lie on the same component on both sides (a band
    pairs with itself).  The successors' pairs are read off the state's
    own canonical forms: on each side, a move replaces the component
    carrying its two bands by `identify_arcs` on the canonical arcs the
    bands lie on.
    """
    sides = read_sides(state)
    (_, plus_at), (_, minus_at) = sides
    n = len(state.bands)
    moves = tuple(((i, j), tuple(_moved(comps, at[i], at[j]) for comps, at in sides))
                  for i in range(n) for j in range(i, n)
                  if plus_at[i][0] == plus_at[j][0] and minus_at[i][0] == minus_at[j][0])
    return (sides[0][0], sides[1][0]), moves


def _moved(comps: tuple[BranchedComponent, ...], at_i: tuple[int, int],
           at_j: tuple[int, int]) -> tuple[BranchedComponent, ...]:
    """The side after identifying points at two (component, arc) places of one component."""
    (c, a), b = at_i, at_j[1]
    grown = list(comps)
    grown[c] = identify_arcs(comps[c], min(a, b), max(a, b))
    return tuple(sorted(grown))


def _can_grow_into(pair: Pair, downs) -> bool:
    """Whether each side's components lie one each in the down-sets of distinct target components."""
    return all(
        len(comps) == len(sets)
        and any(all(c in d for c, d in zip(comps, order)) for order in permutations(sets))
        for comps, sets in zip(pair, downs)
    )


def _walk(root: _Node, depth: int, keep):
    """Each node fewer than `depth` moves from the root, once, depth first,
    with its level.

    Below the root the stack holds moves, as (parent, k, level): a move is
    stacked only when it lies within the bound and `keep` accepts the
    boundary pair it gives, and its successor is made only when the walk
    takes it off the stack.  Every state's depth is fixed by its weights, so
    a plain visited set keeps the walk exhaustive.
    """
    seen = set()
    stack = [(root, None, 0)] if depth > 0 else []
    while stack:
        node, k, level = stack.pop()
        if k is not None:
            node = _GRAPH.child(node, k)
        if node in seen:
            continue
        seen.add(node)
        yield node, level
        if level + 1 < depth:
            stack += [(node, k, level + 1) for k, (_, pair) in enumerate(node.moves) if keep(pair)]


def reachable_pairs_capped(initial: BlockState, target: Pair) -> bool:
    """Whether the state grows into the target pair.

    Components never merge under the shape-preserving move, so a state
    whose components cannot grow into the target's (`_can_grow_into`) is a
    dead end.  A node's successors are judged by the pairs read off its own
    forms (`_move_pairs`): one that cannot grow into the target is never
    built, one at the target's depth is only compared with it, and the walk
    stops at the first hit.
    """
    root = _GRAPH.add(initial)
    downs = tuple(tuple(map(down_set, side)) for side in target)
    if not _can_grow_into(root.comps, downs):
        return False
    depth = sum(c.weight for c in target[0]) - sum(c.weight for c in root.comps[0])
    if depth == 0:
        return root.comps == target
    return any(any(pair == target for _, pair in node.moves)
               for node, level in _walk(root, depth, lambda pair: _can_grow_into(pair, downs))
               if level == depth - 1)


def closure_pairs(initial: BlockState, max_combined_weight: int) -> tuple[set[Pair], bool]:
    """All boundary pairs with combined weight within the bound.

    Returns (pairs, complete); complete is False when the bound cut the
    search off while further moves were still available.
    """
    root = _GRAPH.add(initial)
    total = sum(c.weight for side in root.comps for c in side)
    if total > max_combined_weight:
        return set(), not root.state.bands
    pairs = {root.comps}
    # Each move adds two to the combined weight; the last level's pairs are
    # read off the nodes one move short of it.
    for node, _ in _walk(root, (max_combined_weight - total) // 2, lambda pair: True):
        pairs.update(pair for _, pair in node.moves)
    # Every band can take a loop move, and successors keep their parents'
    # bands, so the bound cuts the search off exactly when the root has one.
    return pairs, not root.state.bands
