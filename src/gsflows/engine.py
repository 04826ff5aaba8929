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

Reachable boundary pairs are explored with isomorphism pruning, breadth
first for closures and depth first with per-component weight caps for
targeted feasibility queries.  State isomorphism must respect sides, vertex
kinds, dead arcs and the band pairing, so states are keyed as coloured
multigraphs with one auxiliary node per band.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branched import Branched1Manifold, canonical_labelling, manifold_from_arcs

BRANCH = "b"
MARKER = "k"
DEAD = -1

#: Arc of one side: (tail vertex, head vertex, band id or DEAD).
Arc = tuple[int, int, int]


@dataclass(frozen=True)
class BlockState:
    """Entering/exiting boundary multigraphs with their band pairing."""

    plus_kinds: tuple[str, ...]
    plus_arcs: tuple[Arc, ...]
    minus_kinds: tuple[str, ...]
    minus_arcs: tuple[Arc, ...]

    def reversed(self) -> "BlockState":
        return BlockState(self.minus_kinds, self.minus_arcs, self.plus_kinds, self.plus_arcs)


class StateBuilder:
    """Assemble an initial block boundary state band by band."""

    def __init__(self) -> None:
        self._kinds = {"+": [], "-": []}
        self._arcs = {"+": [], "-": []}
        self._next_band = 0

    def vertex(self, side: str, kind: str = MARKER) -> int:
        self._kinds[side].append(kind)
        return len(self._kinds[side]) - 1

    def branch(self, side: str) -> int:
        return self.vertex(side, BRANCH)

    def marker(self, side: str) -> int:
        return self.vertex(side, MARKER)

    def dead(self, side: str, u: int, v: int) -> None:
        self._arcs[side].append((u, v, DEAD))

    def band(self, pu: int, pv: int, mu: int, mv: int) -> int:
        bid = self._next_band
        self._next_band += 1
        self._arcs["+"].append((pu, pv, bid))
        self._arcs["-"].append((mu, mv, bid))
        return bid

    def bare_circle(self, side: str) -> None:
        m = self.marker(side)
        self.dead(side, m, m)

    def build(self) -> BlockState:
        return BlockState(
            tuple(self._kinds["+"]),
            tuple(self._arcs["+"]),
            tuple(self._kinds["-"]),
            tuple(self._arcs["-"]),
        )


def _component_of(kinds: tuple[str, ...], arcs: tuple[Arc, ...]) -> list[int]:
    parent = list(range(len(kinds)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in arcs:
        parent[find(u)] = find(v)
    roots: dict[int, int] = {}
    out = []
    for v in range(len(kinds)):
        r = find(v)
        out.append(roots.setdefault(r, len(roots)))
    return out


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


class StateSet:
    """Set of block states up to structure-preserving isomorphism."""

    def __init__(self) -> None:
        self._keys: set = set()

    def add(self, state: BlockState) -> bool:
        key = state_key(state)
        if key in self._keys:
            return False
        self._keys.add(key)
        return True


class Explorer:
    """Incremental breadth-first reachability from one initial state.

    Levels are extended on demand and shared between queries; level k holds
    the states first reached after exactly k moves.
    """

    def __init__(self, initial: BlockState) -> None:
        self._seen = StateSet()
        self._seen.add(initial)
        self._levels: list[list[BlockState]] = [[initial]]
        self._dead = False

    def level(self, depth: int) -> list[BlockState]:
        while len(self._levels) <= depth and not self._dead:
            frontier: list[BlockState] = []
            for state in self._levels[-1]:
                for succ in successors(state):
                    if self._seen.add(succ):
                        frontier.append(succ)
            if not frontier:
                self._dead = True
            self._levels.append(frontier)
        return self._levels[depth] if depth < len(self._levels) else []

    def exhausted_beyond(self, depth: int) -> bool:
        return not self.level(depth + 1)


_EXPLORERS: dict[BlockState, Explorer] = {}


def explorer_for(initial: BlockState) -> Explorer:
    found = _EXPLORERS.get(initial)
    if found is None:
        found = Explorer(initial)
        _EXPLORERS[initial] = found
    return found


def _encode_side(m: Branched1Manifold | None) -> str:
    return "" if m is None else m.encode()


def _within_caps(kinds, arcs, caps: tuple[int, ...]) -> bool:
    # Sorted pointwise comparison decides whether some assignment of state
    # components to target components respects every weight ceiling.
    weights = sorted(side_weights(kinds, arcs))
    return len(weights) == len(caps) and all(w <= c for w, c in zip(weights, caps))


def reachable_pairs_capped(
    initial: BlockState,
    plus_caps: tuple[int, ...],
    minus_caps: tuple[int, ...],
    target: tuple[str, str] | None = None,
) -> set[tuple[str, str]]:
    """Form pairs at exactly the cap totals, pruning by component weights.

    Components never merge under the shape-preserving move and their
    weights only grow, so any state already exceeding the sorted target
    weights on either side is a dead end.  Every state's depth is fixed by
    its weights, so depth-first traversal with a plain visited set is
    exhaustive; with a `target` the traversal stops at the first hit and
    returns a partial set containing it.
    """
    depth = sum(plus_caps) - sum(side_weights(initial.plus_kinds, initial.plus_arcs))
    if depth < 0 or not _within_caps(initial.plus_kinds, initial.plus_arcs, plus_caps):
        return set()
    if not _within_caps(initial.minus_kinds, initial.minus_arcs, minus_caps):
        return set()
    seen = StateSet()
    seen.add(initial)
    found: set[tuple[str, str]] = set()

    def pair_of(state: BlockState) -> tuple[str, str]:
        p, q = state_forms(state)
        return (_encode_side(p), _encode_side(q))

    if depth == 0:
        found.add(pair_of(initial))
        return found

    stack: list[tuple[BlockState, int]] = [(initial, 0)]
    while stack:
        state, d = stack.pop()
        for succ in successors(state):
            if not _within_caps(succ.plus_kinds, succ.plus_arcs, plus_caps):
                continue
            if not _within_caps(succ.minus_kinds, succ.minus_arcs, minus_caps):
                continue
            if not seen.add(succ):
                continue
            if d + 1 == depth:
                pair = pair_of(succ)
                found.add(pair)
                if target is not None and pair == target:
                    return found
            else:
                stack.append((succ, d + 1))
    return found


def closure_pairs(initial: BlockState, max_combined_weight: int) -> tuple[set[tuple[str, str]], bool]:
    """All form pairs with combined weight within the bound.

    Returns (pairs, complete); complete is False when the bound cut the
    search off while further moves were still available.
    """
    p0, m0 = state_totals(initial)
    if p0 + m0 > max_combined_weight:
        return set(), False
    depth = (max_combined_weight - p0 - m0) // 2
    exp = explorer_for(initial)
    pairs = {
        (_encode_side(p), _encode_side(q))
        for k in range(depth + 1)
        for p, q in (state_forms(s) for s in exp.level(k))
    }
    return pairs, exp.exhausted_beyond(depth)
