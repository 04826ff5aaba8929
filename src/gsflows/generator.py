"""Seeded random generators of valid Lyapunov graphs.

Graphs are grown top down on a moving cross-section: a repeller source opens
a set of dangling weighted stubs, saddle vertices consume and replace stubs,
and attractors close them.  Every insertion uses an admissible shape with
weights satisfying the vertex relation, so the result is a closed graph all
of whose vertices are locally realizable; summing the per-vertex fold counts
over such a graph always balances.  With `minimal=True` only minimal-weight
shapes are used.
"""

from __future__ import annotations

import random

from .blocks import shape_catalog
from .model import LyapunovGraph, Nature, SingularityType
from .realize import classify_graph

_T = SingularityType
_N = Nature

# Saddle insertions for minimal mode, (type, nature, consumed, produced):
# the minimal weights of every shape with both sides non-empty, grouped by
# label in enum order.  `grow_step` shuffles them with the seeded RNG, so the
# order is part of every generated graph.
_MIN_OPS = sorted(
    ((e.label.kind, e.label.nature, e.min_in, e.min_out)
     for e in shape_catalog() if e.e_plus and e.e_minus),
    key=lambda op: (list(_T).index(op[0]), list(_N).index(op[1])),
)

# Sources, (type, produced stubs): the repeller shapes in catalog order.
_SOURCES = [(e.label.kind, e.min_out) for e in shape_catalog() if e.e_plus == 0]


class _Grower:
    def __init__(self, rng: random.Random, minimal: bool) -> None:
        self.rng = rng
        self.minimal = minimal
        self.g = LyapunovGraph()
        self.stubs: list[tuple[str, int]] = []  # (origin vertex, weight)
        self.counter = 0

    def fresh(self, kind: SingularityType, nature: Nature) -> str:
        vid = f"v{self.counter}"
        self.counter += 1
        self.g.add_vertex(vid, kind, nature)
        return vid

    def take(self, weights: tuple[int, ...]) -> list[tuple[str, int]] | None:
        """Remove stubs matching the weight multiset, or None."""
        pool = list(self.stubs)
        picked = []
        for w in weights:
            match = [s for s in pool if s[1] == w]
            if not match:
                return None
            choice = self.rng.choice(match)
            pool.remove(choice)
            picked.append(choice)
        for s in picked:
            self.stubs.remove(s)
        return picked

    def insert(self, kind, nature, consumed, produced) -> bool:
        picked = self.take(tuple(consumed))
        if picked is None:
            return False
        vid = self.fresh(kind, nature)
        for origin, w in picked:
            self.g.add_edge(origin, vid, w)
        for w in produced:
            self.stubs.append((vid, w))
        return True

    def open_source(self) -> None:
        kind, produced = self.rng.choice(_SOURCES)
        if kind is _T.TRIPLE:
            # The only minimal sink for a weight-7 stub is the attractor pair.
            src = self.fresh(kind, _N.R)
            dst = self.fresh(_T.TRIPLE, _N.A)
            self.g.add_edge(src, dst, 7)
            return
        vid = self.fresh(kind, _N.R)
        for w in produced:
            self.stubs.append((vid, w))

    def grow_step(self) -> None:
        if self.minimal:
            ops = list(_MIN_OPS)
            self.rng.shuffle(ops)
            for kind, nature, consumed, produced in ops:
                if self.insert(kind, nature, consumed, produced):
                    return
        else:
            if self._general_step():
                return
        # No op matched the stub pool; close something instead.
        self.close_one()

    def _general_step(self) -> bool:
        if not self.stubs:
            return False
        origin, w = self.rng.choice(self.stubs)
        rng = self.rng
        moves = [( _T.REGULAR, _N.S, (w,), (w,))]
        if w >= 1:
            a = rng.randint(1, w)
            moves.append((_T.REGULAR, _N.S, (w,), (a, w + 1 - a)))
            moves.append((_T.CONE, _N.S, (w,), (w,)))
            moves.append((_T.WHITNEY, _N.S_U, (w,), (w + 1,)))
            moves.append((_T.DOUBLE, _N.SR, (w,), (w + 2,)))
            moves.append((_T.DOUBLE, _N.SS_U, (w,), (w + 2,)))
        if w >= 2:
            moves.append((_T.WHITNEY, _N.S_S, (w,), (w - 1,)))
            b = rng.randint(1, w - 1)
            moves.append((_T.WHITNEY, _N.S_S, (w,), (b, w - b)))
        if w >= 3:
            moves.append((_T.DOUBLE, _N.SA, (w,), (w - 2,)))
            moves.append((_T.DOUBLE, _N.SS_S, (w,), (w - 2,)))
            moves.append((_T.TRIPLE, _N.SSR, (w,), (w + 2,)))
        if w >= 5:
            moves.append((_T.TRIPLE, _N.SSA, (w,), (w - 2,)))
        others = [s for s in self.stubs if s != (origin, w)]
        if others:
            o2, w2 = rng.choice(others)
            moves.append((_T.REGULAR, _N.S, (w, w2), (w + w2 - 1,)))
            moves.append((_T.CONE, _N.S, (w, w2), tuple(sorted((w, w2)))))
        kind, nature, consumed, produced = rng.choice(moves)
        return self.insert(kind, nature, consumed, produced)

    def close_one(self) -> None:
        if not self.stubs:
            return
        origin, w = self.stubs.pop(self.rng.randrange(len(self.stubs)))
        if w == 1:
            # Sometimes close a pair of unit stubs with a cone attractor.
            mate = next((s for s in self.stubs if s[1] == 1), None)
            if mate is not None and self.rng.random() < 0.3:
                self.stubs.remove(mate)
                vid = self.fresh(_T.CONE, _N.A)
                self.g.add_edge(origin, vid, 1)
                self.g.add_edge(mate[0], vid, 1)
                return
            self.g.add_edge(origin, self.fresh(_T.REGULAR, _N.A), 1)
        elif w == 2:
            self.g.add_edge(origin, self.fresh(_T.WHITNEY, _N.A), 2)
        elif w == 3:
            self.g.add_edge(origin, self.fresh(_T.DOUBLE, _N.A), 3)
        elif w == 5:
            vid = self.fresh(_T.TRIPLE, _N.SSA)
            self.g.add_edge(origin, vid, 5)
            self.stubs.append((vid, 3))
        elif w == 7:
            self.g.add_edge(origin, self.fresh(_T.TRIPLE, _N.A), 7)
        else:
            # Reduce a non-minimal stub by one and retry later.
            vid = self.fresh(_T.WHITNEY, _N.S_S)
            self.g.add_edge(origin, vid, w)
            self.stubs.append((vid, w - 1))


def gen_random_gs_graph(seed: int, size: int = 8, minimal: bool = False) -> LyapunovGraph:
    """Deterministic random closed graph with locally realizable vertices.

    `size` is the approximate vertex count; components are grown until it is
    reached, then every dangling stub is closed.  Local realizability at
    every vertex is asserted.
    """
    if size < 2:
        raise ValueError("size must be >= 2")
    rng = random.Random(seed)
    grower = _Grower(rng, minimal)
    while len(grower.g.vertices) < size:
        if not grower.stubs:
            grower.open_source()
        elif rng.random() < 0.7:
            grower.grow_step()
        else:
            grower.close_one()
    while grower.stubs:
        grower.close_one()
    assert classify_graph(grower.g).is_gs
    return grower.g
