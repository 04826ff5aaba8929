"""Flow-band rewriting engine for isolating-block boundaries.

A block boundary state records the entering and exiting branched 1-manifolds
of an isolating block together with its flow bands: maximal families of
regular orbits crossing the block.  Each band shows up as one arc on the
entering side and one arc on the exiting side, aligned end to end; arcs not
carried by any band (attractor or repeller sheets, fold sheets) are dead and
no rewrite may touch them.  Degree-2 marker vertices delimit bands without
being branch points; they are suppressed when boundary forms are read off.

One rewrite step identifies a pair of regular orbits: it merges their two
entry points into a new branch point on the entering side and their two exit
points into a new branch point on the exiting side.  Restricting to pairs
whose entry points share an entering component and whose exit points share
an exiting component keeps both component counts fixed; this is exactly the
passageway move, and each application raises the weight of one component on
each side by one.

Every reachability query walks one process-wide graph with a node per
isomorphism class of states, so a state is expanded at most once per
process.  Closures walk it breadth first and stop at the first move beyond
the bound; feasibility queries walk it depth first under per-component
weight caps.  A state and its reversal share one exploration: a query on the
one with the greater key is answered as the mirrored query on the other.
State isomorphism must respect sides, vertex kinds, dead arcs and the band
pairing, so states are keyed as coloured multigraphs with one auxiliary node
per band.

Boundary pairs are compared as tuples of canonical components, one sorted
tuple per side, () for an empty side; text encodings are made only at the
API edge (`blocks.passageway_closure`).

Every feasibility query has a target pair, and its walk is pruned to states
that can still grow into it.  Each move identifies two points of one
component on each side, so components never merge and each grows by
same-component point identifications.  A state can therefore reach the
target pair only if, on each side, its components lie in the down-sets
(`branched.down_set`, the closure under `branched.split_off`) of distinct
target components.  The test is necessary, so the prune never loses a
reachable target; a node is tested only before its first expansion, the one
step that canonizes new states.  Closures are not pruned and serve as the
unpruned reference: weights only grow, so every state on a path to the
target already fits the target's component weights, and capped
reachability of a target is membership in the closure at its combined
weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .branched import (
    Branched1Manifold,
    BranchedComponent,
    canonical_labelling,
    down_set,
    _find,
    manifold_from_arcs,
)

BRANCH = "b"
MARKER = "k"
DEAD = -1

#: Arc of one side: (tail vertex, head vertex, band id or DEAD).
Arc = tuple[int, int, int]

#: Boundary pair: the sorted canonical components of the entering side and
#: of the exiting side, () for an empty side.
Pair = tuple[tuple[BranchedComponent, ...], tuple[BranchedComponent, ...]]


@dataclass(frozen=True)
class BlockState:
    """Entering/exiting boundary multigraphs with their band pairing."""

    plus_kinds: tuple[str, ...]
    plus_arcs: tuple[Arc, ...]
    minus_kinds: tuple[str, ...]
    minus_arcs: tuple[Arc, ...]

    def reversed(self) -> "BlockState":
        return BlockState(self.minus_kinds, self.minus_arcs, self.plus_kinds, self.plus_arcs)


def _component_of(kinds: tuple[str, ...], arcs: tuple[Arc, ...]) -> list[int]:
    parent = list(range(len(kinds)))
    for u, v, _ in arcs:
        parent[_find(parent, u)] = _find(parent, v)
    roots: dict[int, int] = {}
    return [roots.setdefault(_find(parent, v), len(roots)) for v in range(len(kinds))]


def side_weights(kinds: tuple[str, ...], arcs: tuple[Arc, ...]) -> list[int]:
    """Per-component weights: branch points + 1."""
    comp = _component_of(kinds, arcs)
    n = max(comp) + 1 if comp else 0
    weights = [1] * n
    for v, kind in enumerate(kinds):
        if kind == BRANCH:
            weights[comp[v]] += 1
    return weights


def state_totals(state: BlockState) -> tuple[int, int]:
    return (
        sum(side_weights(state.plus_kinds, state.plus_arcs)),
        sum(side_weights(state.minus_kinds, state.minus_arcs)),
    )


def side_form(kinds: tuple[str, ...], arcs: tuple[Arc, ...]) -> Branched1Manifold | None:
    if not kinds:
        return None
    return manifold_from_arcs([[u, v] for u, v, _ in arcs])


def state_forms(state: BlockState) -> tuple[Branched1Manifold | None, Branched1Manifold | None]:
    return (
        side_form(state.plus_kinds, state.plus_arcs),
        side_form(state.minus_kinds, state.minus_arcs),
    )


def _band_index(arcs: tuple[Arc, ...]) -> dict[int, int]:
    return {b: i for i, (_, _, b) in enumerate(arcs) if b != DEAD}


def successors(state: BlockState) -> list[BlockState]:
    """All shape-preserving rewrites of the state."""
    plus_comp = _component_of(state.plus_kinds, state.plus_arcs)
    minus_comp = _component_of(state.minus_kinds, state.minus_arcs)
    minus_of = _band_index(state.minus_arcs)
    live = [i for i, (_, _, b) in enumerate(state.plus_arcs) if b != DEAD]
    out = []
    for a in range(len(live)):
        for b in range(a, len(live)):
            i, j = live[a], live[b]
            pu, pv, pb = state.plus_arcs[i]
            qu, qv, qb = state.plus_arcs[j]
            if i != j:
                if plus_comp[pu] != plus_comp[qu]:
                    continue
                mi, mj = minus_of[pb], minus_of[qb]
                if minus_comp[state.minus_arcs[mi][0]] != minus_comp[state.minus_arcs[mj][0]]:
                    continue
            out.append(_apply(state, i, j))
    return out


def _apply(state: BlockState, i: int, j: int) -> BlockState:
    minus_of = _band_index(state.minus_arcs)
    plus_arcs = list(state.plus_arcs)
    minus_arcs = list(state.minus_arcs)
    plus_kinds = list(state.plus_kinds)
    minus_kinds = list(state.minus_kinds)
    next_band = max(minus_of) + 1
    w_plus = len(plus_kinds)
    plus_kinds.append(BRANCH)
    w_minus = len(minus_kinds)
    minus_kinds.append(BRANCH)

    def split_pair(arcs_p, arcs_m, idx_p, idx_m, loop: bool):
        nonlocal next_band
        pu, pv, _ = arcs_p[idx_p]
        mu, mv, _ = arcs_m[idx_m]
        if loop:
            b1, b2, b3 = next_band, next_band + 1, next_band + 2
            next_band += 3
            arcs_p[idx_p] = (pu, w_plus, b1)
            arcs_p.append((w_plus, w_plus, b2))
            arcs_p.append((w_plus, pv, b3))
            arcs_m[idx_m] = (mu, w_minus, b1)
            arcs_m.append((w_minus, w_minus, b2))
            arcs_m.append((w_minus, mv, b3))
        else:
            b1, b2 = next_band, next_band + 1
            next_band += 2
            arcs_p[idx_p] = (pu, w_plus, b1)
            arcs_p.append((w_plus, pv, b2))
            arcs_m[idx_m] = (mu, w_minus, b1)
            arcs_m.append((w_minus, mv, b2))

    if i == j:
        split_pair(plus_arcs, minus_arcs, i, minus_of[state.plus_arcs[i][2]], loop=True)
    else:
        split_pair(plus_arcs, minus_arcs, i, minus_of[state.plus_arcs[i][2]], loop=False)
        split_pair(plus_arcs, minus_arcs, j, minus_of[state.plus_arcs[j][2]], loop=False)
    return BlockState(tuple(plus_kinds), tuple(plus_arcs), tuple(minus_kinds), tuple(minus_arcs))


# ---------------------------------------------------------------------------
# Isomorphism pruning

# States are deduplicated by an exact canonical key over an auxiliary
# labelled graph: one node per boundary vertex, per dead arc, and per band,
# with band nodes wired to their four arc ends by role-labelled edges.  The
# key is the canonical labelling key of that graph.


def _state_units(state: BlockState):
    """(node colours, labelled edges) of the auxiliary graph."""
    colors: list[str] = []
    edges: list[tuple[int, int, int]] = []
    plus_base = 0
    colors.extend(f"p{k}" for k in state.plus_kinds)
    minus_base = len(colors)
    colors.extend(f"m{k}" for k in state.minus_kinds)
    minus_of = _band_index(state.minus_arcs)
    E, P0, P1, M0, M1 = 0, 1, 2, 3, 4
    for u, v, b in state.plus_arcs:
        if b == DEAD:
            idx = len(colors)
            colors.append("dp")
            edges.append((E, idx, plus_base + u))
            edges.append((E, idx, plus_base + v))
    for u, v, b in state.minus_arcs:
        if b == DEAD:
            idx = len(colors)
            colors.append("dm")
            edges.append((E, idx, minus_base + u))
            edges.append((E, idx, minus_base + v))
    for u, v, b in state.plus_arcs:
        if b == DEAD:
            continue
        idx = len(colors)
        colors.append("bd")
        mu, mv, _ = state.minus_arcs[minus_of[b]]
        edges.append((P0, idx, plus_base + u))
        edges.append((P1, idx, plus_base + v))
        edges.append((M0, idx, minus_base + mu))
        edges.append((M1, idx, minus_base + mv))
    return colors, edges


def state_key(state: BlockState) -> tuple:
    """Exact canonical key: equal keys mean isomorphic states."""
    colors, edges = _state_units(state)
    return canonical_labelling(colors, edges)[0]


class _Node:
    """One isomorphism class of block states in the state graph."""

    __slots__ = ("key", "state", "weights", "comps", "succ")

    def __init__(self, key: tuple, state: BlockState) -> None:
        self.key = key
        self.state = state
        #: Sorted component weights of the entering and the exiting side.
        self.weights = (
            tuple(sorted(side_weights(state.plus_kinds, state.plus_arcs))),
            tuple(sorted(side_weights(state.minus_kinds, state.minus_arcs))),
        )
        #: Boundary pair, filled when first needed.
        self.comps: Pair | None = None
        #: Distinct successor nodes, filled the first time the node is expanded.
        self.succ: tuple[_Node, ...] | None = None


class StateSet:
    """Graph of block states up to structure-preserving isomorphism.

    There is one node per canonical key, so a state is expanded, and its
    successors canonized, at most once however many queries reach it.
    """

    def __init__(self) -> None:
        self._nodes: dict[tuple, _Node] = {}
        # Query states (catalog block states) seen before, with their roots.
        self._roots: dict[BlockState, tuple[_Node, bool]] = {}

    def add(self, state: BlockState) -> _Node:
        key = state_key(state)
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = _Node(key, state)
        return node

    def expand(self, node: _Node) -> tuple[_Node, ...]:
        if node.succ is None:
            node.succ = tuple(dict.fromkeys(self.add(s) for s in successors(node.state)))
        return node.succ

    def root(self, state: BlockState) -> tuple[_Node, bool]:
        """The node to explore from, and whether it is the state's mirror image.

        A state and its reversal get the same exploration: a query on the
        state with the lesser key, else the mirrored query on its reversal.
        """
        found = self._roots.get(state)
        if found is None:
            node, mirror = self.add(state), self.add(state.reversed())
            found = (node, False) if node.key <= mirror.key else (mirror, True)
            self._roots[state] = found
        return found


#: The process-wide state graph behind every reachability query.
_GRAPH = StateSet()


def _comps(node: _Node) -> Pair:
    """The node's boundary pair, read off its state the first time it is needed."""
    if node.comps is None:
        node.comps = tuple(() if m is None else m.components for m in state_forms(node.state))
    return node.comps


def _can_grow_into(node: _Node, downs) -> bool:
    """Whether each side's components lie in the down-sets of distinct target components."""
    return all(
        any(all(c in d for c, d in zip(comps, order)) for order in permutations(sets))
        for comps, sets in zip(_comps(node), downs)
    )


def _fits(node: _Node, plus_caps: tuple[int, ...], minus_caps: tuple[int, ...]) -> bool:
    # Sorted pointwise comparison decides whether some assignment of state
    # components to target components respects every weight ceiling.
    return all(
        len(weights) == len(caps) and all(w <= c for w, c in zip(weights, caps))
        for weights, caps in zip(node.weights, (plus_caps, minus_caps))
    )


def reachable_pairs_capped(
    initial: BlockState,
    plus_caps: tuple[int, ...],
    minus_caps: tuple[int, ...],
    target: Pair,
) -> set[Pair]:
    """{target} when the state grows into the target pair, else the empty set.

    Components never merge under the shape-preserving move and their
    weights only grow, so any state already exceeding the sorted target
    weights on either side is a dead end.  Every state's depth is fixed by
    its weights, so depth-first traversal with a plain visited set is
    exhaustive.  A state is expanded only if it can still grow into the
    target, and the traversal stops at the first hit.
    """
    root, mirrored = _GRAPH.root(initial)
    if mirrored:
        hit = _capped_walk(root, minus_caps, plus_caps, (target[1], target[0]))
    else:
        hit = _capped_walk(root, plus_caps, minus_caps, target)
    return {target} if hit else set()


def _capped_walk(root: _Node, plus_caps, minus_caps, target: Pair) -> bool:
    depth = sum(plus_caps) - sum(root.weights[0])
    if depth < 0 or not _fits(root, plus_caps, minus_caps):
        return False
    if depth == 0:
        return _comps(root) == target
    seen = {root}
    stack = [(root, 0)]
    downs = None
    while stack:
        node, d = stack.pop()
        if node.succ is None and d:
            # Only a first expansion costs canonizations, so only an
            # unexpanded node is tested against the target's down-sets.
            if downs is None:
                downs = tuple(tuple(map(down_set, side)) for side in target)
            if not _can_grow_into(node, downs):
                continue
        for succ in _GRAPH.expand(node):
            if succ in seen or not _fits(succ, plus_caps, minus_caps):
                continue
            seen.add(succ)
            if d + 1 < depth:
                stack.append((succ, d + 1))
            elif _comps(succ) == target:
                return True
    return False


def closure_pairs(initial: BlockState, max_combined_weight: int) -> tuple[set[Pair], bool]:
    """All boundary pairs with combined weight within the bound.

    Returns (pairs, complete); complete is False when the bound cut the
    search off while further moves were still available.
    """
    p0, m0 = state_totals(initial)
    if p0 + m0 > max_combined_weight:
        return set(), False
    root, mirrored = _GRAPH.root(initial)
    levels = [[root]]
    for _ in range((max_combined_weight - p0 - m0) // 2):
        levels.append(list(dict.fromkeys(s for node in levels[-1] for s in _GRAPH.expand(node))))
    pairs = {_comps(node) for level in levels for node in level}
    # Every move adds two to the combined weight, so one successor of the
    # last level is enough to show that the bound cut the search off.
    complete = not any(successors(node.state) for node in levels[-1])
    if mirrored:
        pairs = {(q, p) for p, q in pairs}
    return pairs, complete
