"""Distinguished branched 1-manifolds as 4-regular multigraphs.

A connected component is either a circle or a connected multigraph in which
every vertex (branch point) has degree exactly 4, loops counting twice.  The
weight of a component is its first Betti number, which for a 4-regular
multigraph on V vertices is always V + 1.  A manifold is a disjoint union of
at most four components.

Isomorphism is plain multigraph isomorphism; for these spaces it is
homeomorphism, and `enumerate_connected` counts classes under it.
Components are stored canonically and in sorted order, so two manifolds are
isomorphic exactly when they are equal.  `enumerate_connected` grows the
connected forms weight by weight from the circle by the point
identification rewrite (`identify_points`), keeping one canonical
representative of each class, up to `MAX_ENUM_WEIGHT`.  The rewrite writes
the joined component as a 4-regular arc list and canonizes it once.  A
same-component identification (`identify_arcs`) is memoised per arc-pair
orbit: the canonizer's automorphisms, which each canonical component
carries, and the swaps of parallel arcs map every arc pair to the least
pair of its orbit, and only that pair is rewritten.
`suppress` reads arc lists that carry degree-2 vertices, as block states
and `split_off` make them, into canonical components.

`split_off` inverts a same-component identification: it splits a branch
point into two interior points, one per pairing of its four arc ends.  The
down-set of a component (`down_set`), its closure under `split_off`, holds
every connected form that identifications can grow into it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache, lru_cache

MAX_COMPONENTS = 4
MAX_ENUM_WEIGHT = 8


@dataclass(frozen=True, order=True)
class BranchedComponent:
    """Circle (order 0) or connected 4-regular multigraph on `order` vertices.

    `autos` holds vertex automorphisms of the arcs as the canonizer found
    them, each listing the image of every vertex; they generate a group of
    symmetries, not necessarily all of them, and take no part in
    comparison, hashing or repr.  The hash, `hash((order, arcs))` as a
    dataclass would compute it, is computed once, at construction: every
    feasibility table key and down-set look-up hashes components.
    """

    order: int
    arcs: tuple[tuple[int, int], ...]
    autos: tuple[tuple[int, ...], ...] = field(default=(), compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.order, self.arcs)))
        if self.order == 0:
            if self.arcs:
                raise ValueError("a circle carries no arcs")
            return
        degree = [0] * self.order
        for u, v in self.arcs:
            if not (0 <= u <= v < self.order):
                raise ValueError(f"arc ({u},{v}) out of range or not normalized")
            degree[u] += 1
            degree[v] += 1
        if any(d != 4 for d in degree):
            raise ValueError("every branch point must have degree 4")
        if tuple(sorted(self.arcs)) != self.arcs:
            raise ValueError("arcs must be sorted")
        if not _connected(self.order, self.arcs):
            raise ValueError("component must be connected")

    @property
    def is_circle(self) -> bool:
        return self.order == 0

    @property
    def weight(self) -> int:
        # E - V + 1 with E = 2V, so V + 1; the circle contributes 1.
        return self.order + 1

    def __hash__(self) -> int:
        return self._hash

    def encode(self) -> str:
        if self.is_circle:
            return "O"
        return ",".join(f"{u}:{v}" for u, v in self.arcs)


CIRCLE = BranchedComponent(0, ())


@dataclass(frozen=True, order=True)
class Branched1Manifold:
    """Disjoint union of 1 to 4 branched components."""

    components: tuple[BranchedComponent, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.components) <= MAX_COMPONENTS:
            raise ValueError(f"component count must be 1..{MAX_COMPONENTS}")

    @property
    def total_weight(self) -> int:
        return sum(c.weight for c in self.components)

    def encode(self) -> str:
        return "|".join(c.encode() for c in self.components)


def _connected(order: int, arcs: tuple[tuple[int, int], ...]) -> bool:
    parent = list(range(order))
    for u, v in arcs:
        parent[_find(parent, u)] = _find(parent, v)
    return len({_find(parent, v) for v in range(order)}) <= 1


# ---------------------------------------------------------------------------
# Canonical labelling of coloured graphs
#
# Individualisation-refinement with automorphism pruning (McKay & Piperno,
# "Practical graph isomorphism, II", J. Symbolic Comput. 60, 2014).  An
# ordered partition is kept as `lab` (vertices in cell order), `rank` (the
# start position of each vertex's cell) and `size` (the cell size at each
# start position).  Every step depends only on the partition and the graph,
# never on vertex names, so isomorphic inputs grow isomorphic search trees.


def _refine(lab: list[int], rank: list[int], size: list[int], adj: list[list], dirty) -> None:
    """Split cells by their neighbour cells until the partition is equitable.

    A vertex's signature is the sorted list of edge code + neighbour cell
    over its edges.  Cells are examined in position order, pass by pass;
    only cells in `dirty` (start positions) are examined, and a split marks
    the cells of the moved vertices' neighbours for the next pass: no other
    signature changed.
    """
    while dirty:
        marked = set()
        for r in sorted(dirty):
            s = size[r]
            if s == 1:
                continue
            keyed = sorted(
                (sorted([c + rank[w] for c, w in adj[v]]), v) for v in lab[r : r + s]
            )
            if keyed[0][0] == keyed[-1][0]:
                continue
            start, prev = r, keyed[0][0]
            moved = []
            for i, (sig, v) in enumerate(keyed, r):
                if sig != prev:
                    size[start] = i - start
                    start, prev = i, sig
                lab[i] = v
                if rank[v] != start:
                    rank[v] = start
                    moved.append(v)
            size[start] = r + s - start
            for v in moved:
                for _, w in adj[v]:
                    marked.add(rank[w])
        dirty = marked


def canonical_labelling(colors: list, edges: list[tuple]) -> tuple[tuple, list[int], list[list[int]]]:
    """Canonical key, labelling and automorphisms of a vertex-coloured, edge-labelled graph.

    `colors[v]` is any sortable value; `edges` holds (label, a, b) triples
    with sortable labels, undirected, repeats allowed.  The key lists the
    whole relabelled graph, so two graphs have equal keys exactly when they
    are isomorphic, and `labelling[v]` is the new name of vertex v in the
    least leaf.  The automorphisms are those the search found and pruned
    with, each listing the image of every vertex.

    The search individualises each vertex of the first non-singleton cell in
    turn and refines.  Two leaves with equal relabelled graphs give an
    automorphism; a child lying in the orbit of an explored sibling, under
    the recorded automorphisms that fix the node's prefix pointwise, is
    skipped, and a leaf matching the first or the best leaf abandons its
    subtree up to the level where its path leaves the matched one.
    """
    n = len(colors)
    labels = sorted({lbl for lbl, _, _ in edges})
    code = {lbl: i for i, lbl in enumerate(labels)}
    width = len(labels)
    adj: list[list] = [[] for _ in range(n)]
    coded = []
    for lbl, a, b in edges:
        c = code[lbl]
        adj[a].append((c * n, b))
        adj[b].append((c * n, a))
        coded.append((c, a, b))
    lab = sorted(range(n), key=colors.__getitem__)
    rank = [0] * n
    size = [0] * n
    start = 0
    for i in range(1, n + 1):
        if i == n or colors[lab[i]] != colors[lab[start]]:
            size[start] = i - start
            for v in lab[start:i]:
                rank[v] = start
            start = i
    _refine(lab, rank, size, adj, {r for r in range(n) if size[r] > 1})
    head = (tuple(colors[v] for v in lab), tuple(labels))

    autos: list[list[int]] = []
    # first / best: [graph key, labelling, inverse labelling, path]
    first: list = []
    best: list = []

    def leaf(lab: list[int], rank: list[int], path: list[int]) -> int | None:
        # rank[v] is now v's label.  Edge (a, b) with label code c, a <= b
        # after relabelling, is written as one integer.
        key = tuple(
            sorted([(rank[a] * n + rank[b]) * width + c if rank[a] <= rank[b]
                    else (rank[b] * n + rank[a]) * width + c for c, a, b in coded])
        )
        if not first:
            first.extend((key, rank, lab, path))
            best.extend(first)
            return None
        for ref in (first, best):
            if key == ref[0]:
                inverse = ref[2]
                autos.append([inverse[rank[v]] for v in range(n)])
                common = 0
                for x, y in zip(path, ref[3]):
                    if x != y:
                        break
                    common += 1
                return common
        if key < best[0]:
            best[:] = [key, rank, lab, path]
        return None

    def descend(lab: list[int], rank: list[int], size: list[int], path: list[int]) -> int | None:
        """Search below a node; returns the depth to back-jump to, if any."""
        target = 0
        while target < n and size[target] == 1:
            target += 1
        if target == n:
            return leaf(lab, rank, path)
        depth = len(path)
        s = size[target]
        explored: list[int] = []
        parent: list[int] | None = None
        used = 0
        for v in lab[target : target + s]:
            if explored:
                while used < len(autos):
                    g = autos[used]
                    used += 1
                    if all(g[p] == p for p in path):
                        if parent is None:
                            parent = list(range(n))
                        for x in range(n):
                            a, b = _find(parent, x), _find(parent, g[x])
                            if a != b:
                                parent[a] = b
                if parent is not None:
                    root = _find(parent, v)
                    if any(_find(parent, u) == root for u in explored):
                        continue
            child_lab, child_rank, child_size = lab[:], rank[:], size[:]
            i = child_lab.index(v, target)
            child_lab[i], child_lab[target] = child_lab[target], v
            child_size[target], child_size[target + 1] = 1, s - 1
            for w in child_lab[target + 1 : target + s]:
                child_rank[w] = target + 1
            # The parent partition is equitable, so only cells holding a
            # neighbour of v can split.
            _refine(child_lab, child_rank, child_size, adj, {child_rank[w] for _, w in adj[v]})
            jump = descend(child_lab, child_rank, child_size, path + [v])
            explored.append(v)
            if jump is not None and jump < depth:
                return jump
        return None

    descend(lab, rank, size, [])
    return (head, best[0]), list(best[1]), autos


def _find(parent, x):
    """Union-find root of x in a list or dict parent map, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


#: Distinct arc lists whose canonical forms are kept.  `enumerate_connected(8)`
#: canonizes 6 242, so no benchmark operation evicts; the bound keeps
#: untrusted report text from growing the table without end.
_CANON_CACHE_SIZE = 1 << 14

#: Distinct texts whose parses are kept.  One cold round of the benchmark's
#: `deep` workload parses 4 801 certificate forms, of which 13 are distinct;
#: the bound keeps untrusted report text from growing the table without end.
_PARSE_CACHE_SIZE = 1 << 10


def canonical_component(order: int, arcs: list[tuple[int, int]] | tuple) -> BranchedComponent:
    """Relabel vertices by the canonical labelling of the component.

    The component is read as a graph whose vertex colours are loop counts
    and whose edge labels are arc multiplicities.  Each distinct arc list is
    canonized once while it stays in `_canonical`'s table.
    """
    if order == 0:
        return CIRCLE
    return _canonical(order, tuple(sorted((u, v) if u <= v else (v, u) for u, v in arcs)))[0]


@lru_cache(maxsize=_CANON_CACHE_SIZE)
def _canonical(order: int, norm: tuple[tuple[int, int], ...]) -> tuple[BranchedComponent, tuple[int, ...]]:
    """The canonical component of sorted normalised arcs, and its labelling.

    labelling[v] is the canonical name of input vertex v.  The component
    carries the search's automorphisms, renamed: g on the input is
    labelling . g . labelling^-1 on canonical names.
    """
    loops = [0] * order
    for u, v in norm:
        if u == v:
            loops[u] += 1
    edges = [(m, u, v) for (u, v), m in Counter(a for a in norm if a[0] != a[1]).items()]
    _, label, autos = canonical_labelling(loops, edges)
    relabelled = sorted(
        (label[u], label[v]) if label[u] <= label[v] else (label[v], label[u]) for u, v in norm
    )
    named = sorted(range(order), key=label.__getitem__)  # named[x]: the input vertex named x
    autos = tuple(tuple(label[g[v]] for v in named) for g in autos)
    return BranchedComponent(order, tuple(relabelled), autos), tuple(label)


def manifold(components: list[BranchedComponent] | tuple) -> Branched1Manifold:
    """Assemble components in canonical (sorted) order."""
    return Branched1Manifold(tuple(sorted(components)))


def circle_manifold(n: int = 1) -> Branched1Manifold:
    return manifold([CIRCLE] * n)


def figure_eight() -> BranchedComponent:
    return canonical_component(1, [(0, 0), (0, 0)])


def weight(m: Branched1Manifold) -> tuple[list[int], int]:
    """Per-component first Betti numbers and their total."""
    per = [c.weight for c in m.components]
    return per, sum(per)


@lru_cache(maxsize=_PARSE_CACHE_SIZE)
def parse_manifold(text: str) -> Branched1Manifold:
    """Inverse of Branched1Manifold.encode.

    A component on n branch points has 2n arcs with vertex ids 0..n-1; any
    other part is rejected before it is canonized.  Each distinct text is
    parsed once while it stays in the table, and a repeat gets the same
    (frozen) object; text that raises is not kept.
    """
    comps = []
    for part in text.strip().split("|"):
        part = part.strip()
        if part == "O":
            comps.append(CIRCLE)
            continue
        arcs = []
        for item in part.split(","):
            u, _, v = item.partition(":")
            arcs.append((int(u), int(v)))
        order = len(arcs) // 2
        if len(arcs) % 2 or not all(0 <= x < order for arc in arcs for x in arc):
            raise ValueError(f"component {part[:40]!r}: expected 2n arcs on vertex ids 0..n-1")
        comps.append(canonical_component(order, arcs))
    return manifold(comps)


# ---------------------------------------------------------------------------
# Arc positions and the point-identification rewrite


@dataclass(frozen=True)
class ArcPosition:
    """Symbolic interior position: component index, arc index, ordinal slot.

    Circles use arc index 0.  Two positions on the same arc are ordered by
    slot; only the combinatorial pattern matters, not metric placement.
    """

    component: int
    arc: int
    slot: int = 0


def _check_position(m: Branched1Manifold, p: ArcPosition) -> None:
    if not 0 <= p.component < len(m.components):
        raise ValueError(f"no component {p.component}")
    comp = m.components[p.component]
    n_arcs = 1 if comp.is_circle else len(comp.arcs)
    if not 0 <= p.arc < n_arcs:
        raise ValueError(f"component {p.component} has no arc {p.arc}")


def identify_points(m: Branched1Manifold, p1: ArcPosition, p2: ArcPosition) -> Branched1Manifold:
    """Merge two interior points into one new degree-4 branch point.

    Within one component the weight rises by 1 and the component count is
    unchanged (`identify_arcs`); across two components they merge and the
    total weight is unchanged (`_join`).  Both are memoised, and only the
    arcs matter: two points on one arc give the loop form in either slot
    order.
    """
    _check_position(m, p1)
    _check_position(m, p2)
    if (p1.component, p1.arc, p1.slot) == (p2.component, p2.arc, p2.slot):
        raise ValueError("positions coincide")
    comps = list(m.components)
    (c, a), (d, b) = sorted([(p1.component, p1.arc), (p2.component, p2.arc)])
    if c == d:
        comps[c] = identify_arcs(comps[c], a, b)
    else:
        comps[c] = _join(comps[c], a, comps[d], b)
        del comps[d]
    return manifold(comps)


@cache
def identify_arcs(c: BranchedComponent, i: int, j: int) -> BranchedComponent:
    """One same-component identification: a point of arc i of c with one of arc j, i <= j.

    i == j takes both points on arc i, which gives the loop form whichever
    order the points are in.  The result depends only on the orbit of
    (i, j) under the symmetries of c: the vertex automorphisms `c.autos`
    acting on arc classes (vertex pairs), and the homeomorphisms that swap
    parallel arcs or loops.  So (i, j) is mapped to the least arc pair of
    its orbit, with i == j, two arcs of one class and arcs of two classes
    kept apart, and only that pair is rewritten.  A component with no
    automorphisms has one-element orbits on arc classes.  Memoised per
    (c, i, j), so each orbit is rewritten once.
    """
    least = _least_pair(c, i, j)
    if least != (i, j):
        return identify_arcs(c, *least)
    return _identify([c], (0, i), (0, j))[0]


def _least_pair(c: BranchedComponent, i: int, j: int) -> tuple[int, int]:
    """The least arc pair in the orbit of (i, j), i <= j, under the symmetries of c.

    The orbit is taken on arc classes; a class's arcs are consecutive in the
    sorted arcs, so a pair of two arcs of one class is least at its first two.
    """
    if c.is_circle:
        return i, j
    orbit, todo = {(c.arcs[i], c.arcs[j])}, [(c.arcs[i], c.arcs[j])]
    while todo:
        pair = todo.pop()
        for g in c.autos:
            image = tuple(sorted((g[p], g[q]) if g[p] <= g[q] else (g[q], g[p]) for p, q in pair))
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    a, b = min(orbit)
    first = c.arcs.index(a)
    return first, (first + (i != j) if a == b else c.arcs.index(b))


@cache
def _join(c: BranchedComponent, i: int, d: BranchedComponent, j: int) -> BranchedComponent:
    """One cross-component identification: a point of arc i of c with one of arc j of d.

    Memoised per (c, i, d, j).
    """
    return _identify([c, d], (0, i), (1, j))[0]


def _identify(comps: list[BranchedComponent], at1: tuple[int, int],
              at2: tuple[int, int]) -> tuple[BranchedComponent, ...]:
    """The rewrite: join two (component, arc) places at a new branch point w.

    The touched components' arcs are written straight into one 4-regular arc
    list, vertex ids offset per component and w after all of them: a cut arc
    (u, v) becomes (u, w) and (w, v), a circle's arc becomes a loop at w, and
    two points on one arc add a loop at w (on a circle, the figure eight).
    No degree-2 vertex arises, so the list is canonized once.  Returns the
    sorted canonical components, untouched ones passed through.
    """
    touched = sorted({at1[0], at2[0]})
    w = sum(comps[ci].order for ci in touched)
    arcs = [(w, w)] if at1 == at2 else []
    base = 0
    for ci in touched:
        comp = comps[ci]
        if comp.is_circle:
            arcs.append((w, w))
        for ai, (u, v) in enumerate(comp.arcs):
            if (ci, ai) in (at1, at2):
                arcs += ((u + base, w), (w, v + base))
            else:
                arcs.append((u + base, v + base))
        base += comp.order
    rest = [c for ci, c in enumerate(comps) if ci not in touched]
    return tuple(sorted(rest + [canonical_component(w + 1, arcs)]))


def suppress(edges: list[list[int]]) -> tuple[tuple[BranchedComponent, ...], list[tuple[int, int]]]:
    """Suppress the degree-2 vertices of labelled arcs.

    Returns the canonical components, sorted, and for each input arc the
    (component index, arc index) of the canonical arc it lies on; a circle's
    one arc is 0.  Parallel arcs, loops included, are swapped by an
    automorphism of their component, so the walks between two branch points
    may take that pair's canonical arcs in any order.  Its callers are the
    engine's one reader of a block side (`engine.read_sides`) and
    `split_off`; point identification (`_identify`) makes no degree-2 vertex
    and does not call it.
    """
    # half_edges[v]: (edge index, index of the far end within the edge)
    half_edges: dict[int, list[tuple[int, int]]] = {}
    for idx, (u, v) in enumerate(edges):
        half_edges.setdefault(u, []).append((idx, 1))
        half_edges.setdefault(v, []).append((idx, 0))
    branch = set()
    for v, incid in half_edges.items():
        if len(incid) == 4:
            branch.add(v)
        elif len(incid) != 2:
            raise ValueError("vertices must have degree 2 or 4")

    # Follow every suppressed arc from a branch point, then every circle;
    # walk_of[e] is the walk edge e lies on, ends[w] the walk's end points
    # (None first for a circle).
    walk_of = [-1] * len(edges)
    ends: list[tuple[int | None, int]] = []
    starts = [(v, h) for v in sorted(branch) for h in half_edges[v]]
    starts += [(None, (idx, 1)) for idx in range(len(edges))]
    for v, (idx, far) in starts:
        if walk_of[idx] >= 0:
            continue
        walk = len(ends)
        walk_of[idx] = walk
        node = edges[idx][far]
        while node not in branch:
            for idx, far in half_edges[node]:
                if walk_of[idx] < 0:
                    break
            else:
                if v is not None:
                    raise AssertionError("arc walk left the complex")
                break
            walk_of[idx] = walk
            node = edges[idx][far]
        ends.append((v, node) if v is None or v <= node else (node, v))

    parent = {v: v for v in branch}
    for a, b in ends:
        if a is not None:
            parent[_find(parent, a)] = _find(parent, b)
    groups: dict[int, list[int]] = {}
    place = [(0, 0)] * len(ends)
    circles = 0
    for walk, (a, _) in enumerate(ends):
        if a is None:
            place[walk] = (circles, 0)
            circles += 1
        else:
            groups.setdefault(_find(parent, a), []).append(walk)

    # Each component with its walks in the order of its canonical arcs: the
    # arcs are the walks' end pairs under the canonical labelling, sorted.
    found: list[tuple[BranchedComponent, list[int]]] = []
    for walks in groups.values():
        relabel = {v: i for i, v in enumerate(sorted({x for w in walks for x in ends[w]}))}
        pairs = [(relabel[ends[w][0]], relabel[ends[w][1]]) for w in walks]
        norm = tuple(sorted(pairs))
        comp, label = _canonical(len(relabel), norm)
        named = [(label[a], label[b]) if label[a] <= label[b] else (label[b], label[a])
                 for a, b in pairs]
        found.append((comp, [walks[k] for k in sorted(range(len(walks)), key=named.__getitem__)]))
    found.sort(key=lambda f: f[0])
    for c, (_, walks) in enumerate(found, circles):
        for k, walk in enumerate(walks):
            place[walk] = (c, k)
    return (CIRCLE,) * circles + tuple(comp for comp, _ in found), [place[w] for w in walk_of]


_FORMS: list[list[BranchedComponent]] = [[CIRCLE]]


def enumerate_connected(w: int) -> list[BranchedComponent]:
    """All pairwise non-isomorphic connected components of weight w, sorted.

    Grown weight by weight from the circle: the forms of weight w are the
    results of `identify_arcs` on every form of weight w - 1 and every pair
    of its arcs, one arc taken twice included, deduplicated as a set.  Every
    connected form is reached: `split_off` undoes the step, and pairing a
    branch point's four arc ends as an Euler tour of the 4-regular component
    passes through it keeps the component connected, so every connected form
    has a connected parent one weight lower.
    """
    if w < 1:
        raise ValueError("weight must be >= 1")
    if w > MAX_ENUM_WEIGHT:
        raise ValueError(f"weight {w} exceeds enumeration cap {MAX_ENUM_WEIGHT}")
    while len(_FORMS) < w:
        grown = set()
        for form in _FORMS[-1]:
            n = 1 if form.is_circle else len(form.arcs)
            grown.update(identify_arcs(form, i, j) for i in range(n) for j in range(i, n))
        _FORMS.append(sorted(grown))
    return list(_FORMS[w - 1])


def split_off(c: BranchedComponent, v: int) -> list[BranchedComponent]:
    """Connected results of splitting branch point v into two interior points.

    The four arc ends at v are paired in each of the three ways, and each
    pair is joined at a new interior point.  This is the inverse of a
    same-component `identify_points`: every result weighs one less than c,
    and identifying its two new points gives c back.  Disconnected results
    are dropped; the rest are returned distinct and sorted.
    """
    if c.is_circle or not 0 <= v < c.order:
        raise ValueError(f"component has no branch point {v}")
    ends = [(i, k) for i, arc in enumerate(c.arcs) for k in (0, 1) if arc[k] == v]
    x, y = c.order, c.order + 1
    out = set()
    for partner in (1, 2, 3):
        edges = [list(arc) for arc in c.arcs]
        for n, (i, k) in enumerate(ends):
            edges[i][k] = x if n in (0, partner) else y
        comps = suppress(edges)[0]
        if len(comps) == 1:
            out.add(comps[0])
    return sorted(out)


@cache
def down_set(c: BranchedComponent) -> frozenset[BranchedComponent]:
    """Every connected form that same-component identifications grow into c.

    The closure of c under `split_off`, c included, memoised per component.
    An automorphism carries one branch point's splits onto another's, so
    only the least branch point of each orbit under `c.autos` is split.
    """
    parent = list(range(c.order))
    for g in c.autos:
        for v, w in enumerate(g):
            a, b = _find(parent, v), _find(parent, w)
            parent[max(a, b)] = min(a, b)
    firsts = [v for v in range(c.order) if parent[v] == v]
    return frozenset([c]).union(*(down_set(p) for v in firsts for p in split_off(c, v)))


@dataclass(frozen=True)
class PuncturePiece:
    """Connected piece left after removing a branch point."""

    branch_points: int
    arcs: int


def puncture(c: BranchedComponent, v: int) -> list[PuncturePiece]:
    """Remove branch point v; the four arc ends at v become free ends.

    Returns the connected pieces of the remaining 1-complex with the number
    of surviving branch points and arcs in each.
    """
    if c.is_circle or not 0 <= v < c.order:
        raise ValueError(f"component has no branch point {v}")
    items: list[str] = [f"v{u}" for u in range(c.order) if u != v]
    items += [f"a{i}" for i in range(len(c.arcs))]
    parent: dict[str, str] = {x: x for x in items}
    for i, (a, b) in enumerate(c.arcs):
        for end in (a, b):
            if end != v:
                parent[_find(parent, f"a{i}")] = _find(parent, f"v{end}")
    groups: dict[str, list[int]] = {}
    for i in range(len(c.arcs)):
        groups.setdefault(_find(parent, f"a{i}"), [0, 0])[1] += 1
    for u in range(c.order):
        if u != v:
            groups.setdefault(_find(parent, f"v{u}"), [0, 0])[0] += 1
    pieces = [PuncturePiece(bp, arcs) for bp, arcs in groups.values()]
    pieces.sort(key=lambda p: (p.branch_points, p.arcs))
    return pieces


# ---------------------------------------------------------------------------
# Named families used as realization certificates
#
# The forms are frozen, so each family builds a weight's form once per
# process and hands out the same object after that.


@cache
def family_minimal(w: int) -> Branched1Manifold:
    """Boundary forms occurring at minimal weights: w in {1, 2, 3, 5, 7}.

    At 1, 2, 3 and 5 these are the circle-chain forms `family_B(w)`: circle,
    figure eight, two circles crossing twice, and a chain of three circles
    with consecutive pairs crossing twice.  At 7 it is three circles
    pairwise crossing twice (the octahedron graph).
    """
    if w in (1, 2, 3, 5):
        return family_B(w)
    if w == 7:
        arcs = [
            (i, j)
            for i in range(6)
            for j in range(i + 1, 6)
            if {i, j} not in ({0, 1}, {2, 3}, {4, 5})
        ]
        return manifold([canonical_component(6, arcs)])
    raise ValueError(f"no minimal-weight form for weight {w}")


@cache
def family_A(w: int) -> Branched1Manifold:
    """Loop-chain family: figure eight with extra loop-carrying branch points
    strung along one petal.

    family_A(w) is reachable from family_A(w - 1) by one point
    identification on an end loop.
    """
    if w < 1:
        raise ValueError("weight must be >= 1")
    if w == 1:
        return circle_manifold()
    n = w - 1
    if n == 1:
        return manifold([figure_eight()])
    arcs = [(0, 0), (n - 1, n - 1)]
    for i in range(n - 1):
        arcs.extend([(i, i + 1)] * 2)
    return manifold([canonical_component(n, arcs)])


@cache
def family_B(w: int) -> Branched1Manifold:
    """Circle-chain family: odd weights are chains of circles crossing twice;
    even weights add one loop-carrying branch point on a terminal arc."""
    if w < 1:
        raise ValueError("weight must be >= 1")
    if w == 1:
        return circle_manifold()
    if w == 2:
        return manifold([figure_eight()])
    if w % 2 == 1:
        return manifold([_chain_component(w)])
    chain = _chain_component(w - 1)
    n = chain.order
    arcs = list(chain.arcs)
    # Subdivide one arc of a terminal triple, the only arcs of multiplicity
    # at least 3, and hang a loop on it.
    terminal = next(arc for arc in arcs if arcs.count(arc) >= 3)
    arcs.remove(terminal)
    arcs.extend([(terminal[0], n), (terminal[1], n), (n, n)])
    return manifold([canonical_component(n + 1, arcs)])


def _chain_component(w: int) -> BranchedComponent:
    """Chain of (w + 1) / 2 circles, consecutive pairs crossing in two points."""
    k = (w + 1) // 2
    if k < 2:
        raise ValueError("chain needs at least two circles")
    n = 2 * (k - 1)
    arcs: list[tuple[int, int]] = []
    for i in range(k - 1):
        arcs.extend([(2 * i, 2 * i + 1)] * 2)
    # End circles close off their crossing pair with a third parallel arc.
    arcs.append((0, 1))
    arcs.append((n - 2, n - 1))
    # Middle circles join consecutive crossing pairs.
    for i in range(k - 2):
        arcs.extend([(2 * i, 2 * i + 2), (2 * i + 1, 2 * i + 3)])
    return canonical_component(n, arcs)
