"""Independent brute-force oracles kept deliberately separate from the
package implementations they check."""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from itertools import permutations


def connected_matrix(n: int, mat: list[list[int]]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in range(n):
            if v != u and mat[u][v] > 0 and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def _canon_matrix(n: int, mat: list[list[int]]) -> tuple:
    best = None
    for p in permutations(range(n)):
        key = tuple(tuple(mat[p[i]][p[j]] for j in range(n)) for i in range(n))
        if best is None or key < best:
            best = key
    return best


def brute_force_components(weight: int) -> set[tuple]:
    """Connected 4-regular multigraph classes via adjacency matrices.

    Returned as canonical matrices; the circle (weight 1) is the empty
    matrix on zero vertices.  The entries are filled row by row over the
    upper triangle; a branch drops out as soon as a vertex's partial degree
    passes 4 or a completed row leaves its vertex below 4.
    """
    if weight == 1:
        return {()}
    n = weight - 1
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    reps: set[tuple] = set()
    degree = [0] * n

    def rec(idx: int, mat: list[list[int]]) -> None:
        if idx == len(pairs):
            if connected_matrix(n, mat):
                reps.add(_canon_matrix(n, mat))
            return
        i, j = pairs[idx]
        step = 2 if i == j else 1  # a loop adds 2 to its vertex's degree
        for m in range((4 - max(degree[i], degree[j])) // step + 1):
            if j == n - 1 and degree[i] + step * m != 4:
                continue
            mat[i][j] = mat[j][i] = m
            degree[i] += m
            degree[j] += m
            rec(idx + 1, mat)
            degree[i] -= m
            degree[j] -= m
        mat[i][j] = mat[j][i] = 0

    rec(0, [[0] * n for _ in range(n)])
    return reps


def count_components_burnside(weight: int) -> int:
    """Number of connected 4-regular multigraph classes, by Burnside's lemma.

    Averages over every permutation of the n = weight - 1 branch points the
    number of labelled adjacency matrices it fixes (degree 4 everywhere, a
    loop counting 2, connected).  A fixed matrix is constant on each orbit
    of the permutation acting on the unordered pairs {i, j}, so it is fixed
    by one value per orbit.  No canonical form is computed.
    """
    if weight == 1:
        return 1
    n = weight - 1
    total = 0
    perms = list(permutations(range(n)))
    for p in perms:
        orbits: list[list[tuple[int, int]]] = []
        seen: set[tuple[int, int]] = set()
        for i in range(n):
            for j in range(i, n):
                if (i, j) in seen:
                    continue
                orbit = []
                u, v = i, j
                while (u, v) not in seen:
                    seen.add((u, v))
                    orbit.append((u, v))
                    u, v = sorted((p[u], p[v]))
                orbits.append(orbit)
        # load[k][x]: degree vertex x gains per unit of orbit k's value.
        load = [[0] * n for _ in orbits]
        for k, orbit in enumerate(orbits):
            for u, v in orbit:
                load[k][u] += 1
                load[k][v] += 1
        last = [max(k for k in range(len(orbits)) if load[k][x]) for x in range(n)]
        degree = [0] * n
        values = [0] * len(orbits)

        def rec(k: int) -> int:
            if k == len(orbits):
                mat = [[0] * n for _ in range(n)]
                for orbit, m in zip(orbits, values):
                    for u, v in orbit:
                        mat[u][v] = mat[v][u] = m
                return 1 if connected_matrix(n, mat) else 0
            found = 0
            m = 0
            while all(degree[x] + m * load[k][x] <= 4 for x in range(n)):
                for x in range(n):
                    degree[x] += m * load[k][x]
                if all(degree[x] == 4 for x in range(n) if last[x] == k):
                    values[k] = m
                    found += rec(k + 1)
                for x in range(n):
                    degree[x] -= m * load[k][x]
                m += 1
            return found

        total += rec(0)
    if total % len(perms):
        raise AssertionError("Burnside sum not divisible by the group order")
    return total // len(perms)


def matrix_of_component(comp) -> tuple:
    """Canonical adjacency matrix of a BranchedComponent (oracle encoding)."""
    n = comp.order
    if n == 0:
        return ()
    mat = [[0] * n for _ in range(n)]
    for u, v in comp.arcs:
        if u == v:
            mat[u][u] += 1
        else:
            mat[u][v] += 1
            mat[v][u] += 1
    return _canon_matrix(n, mat)


def multigraphs_isomorphic(c1, c2) -> bool:
    """Permutation-search isomorphism on components."""
    if c1.order != c2.order:
        return False
    if c1.order == 0:
        return True
    target = sorted(c2.arcs)
    for p in permutations(range(c1.order)):
        arcs = sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in c1.arcs)
        if arcs == target:
            return True
    return False


def is_automorphism(colours: list, edges: list[tuple], g: list[int]) -> bool:
    """Whether vertex map g is a permutation keeping every colour and the
    multiset of labelled, undirected edges."""
    n = len(colours)
    if sorted(g) != list(range(n)) or any(colours[g[v]] != colours[v] for v in range(n)):
        return False

    def multiset(image):
        return sorted((lbl, *sorted((image[a], image[b]))) for lbl, a, b in edges)

    return multiset(g) == multiset(range(n))


def has_oriented_cycle(vertices, arcs) -> bool:
    """Whether the arcs (src, dst) between `vertices` close an oriented cycle.

    Ends outside `vertices`, such as dangling ones, are ignored; a self-loop
    is a cycle.  Decided by graphlib's topological sort.
    """
    deps = {v: set() for v in vertices}
    for src, dst in arcs:
        if src in deps and dst in deps:
            deps[dst].add(src)
    try:
        tuple(TopologicalSorter(deps).static_order())
    except CycleError:
        return True
    return False
