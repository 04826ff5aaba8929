import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from gsflows.branched import (
    CIRCLE,
    MAX_ENUM_WEIGHT,
    ArcPosition,
    Branched1Manifold,
    BranchedComponent,
    _connected,
    canonical_component,
    canonical_labelling,
    circle_manifold,
    down_set,
    enumerate_connected,
    family_A,
    family_B,
    family_minimal,
    figure_eight,
    identify_points,
    is_isomorphic,
    manifold,
    parse_manifold,
    puncture,
    split_off,
    weight,
)

from oracles import (
    brute_force_components,
    count_components_burnside,
    matrix_of_component,
    multigraphs_isomorphic,
)

THREE_A = family_minimal(3).components[0]  # two circles crossing twice
THREE_B = family_A(3).components[0]  # loop, double arc, loop


def random_positions(rng: random.Random, m: Branched1Manifold, count: int = 2):
    spots = []
    for ci, comp in enumerate(m.components):
        arcs = 1 if comp.is_circle else len(comp.arcs)
        for ai in range(arcs):
            for slot in (0, 1):
                spots.append(ArcPosition(ci, ai, slot))
    return rng.sample(spots, count)


def random_manifold(rng: random.Random, moves: int) -> Branched1Manifold:
    m = circle_manifold(rng.randint(1, 3))
    for _ in range(moves):
        p1, p2 = random_positions(rng, m)
        m = identify_points(m, p1, p2)
    return m


class TestWeight:
    def test_circle(self):
        assert weight(circle_manifold()) == ([1], 1)

    def test_figure_eight(self):
        assert weight(manifold([figure_eight()])) == ([2], 2)

    def test_two_circles_crossing_twice(self):
        assert weight(manifold([THREE_A])) == ([3], 3)

    def test_component_relations(self):
        rng = random.Random(5)
        for _ in range(50):
            m = random_manifold(rng, rng.randint(0, 4))
            for comp in m.components:
                if not comp.is_circle:
                    assert len(comp.arcs) == 2 * comp.order
                    assert comp.weight == comp.order + 1
            per, total = weight(m)
            edges = sum(len(c.arcs) for c in m.components)
            verts = sum(c.order for c in m.components)
            assert total == edges - verts + len(m.components)


class TestIsomorphism:
    def test_weight_separates(self):
        assert not is_isomorphic(manifold([figure_eight()]), circle_manifold())

    def test_two_weight_three_types_differ(self):
        assert not is_isomorphic(manifold([THREE_A]), manifold([THREE_B]))

    def test_relabelled_copy(self):
        rng = random.Random(9)
        for _ in range(30):
            m = random_manifold(rng, rng.randint(1, 4))
            comp = rng.choice([c for c in m.components if not c.is_circle] or [None])
            if comp is None:
                continue
            perm = list(range(comp.order))
            rng.shuffle(perm)
            relabeled = canonical_component(comp.order, [(perm[u], perm[v]) for u, v in comp.arcs])
            assert relabeled == comp

    def test_equivalence_on_enumeration(self):
        for w in range(2, 6):
            forms = enumerate_connected(w)
            for i, a in enumerate(forms):
                for b in forms[i + 1 :]:
                    assert not multigraphs_isomorphic(a, b)
                assert multigraphs_isomorphic(a, a)


class TestEnumerate:
    def test_low_weight_counts(self):
        assert [len(enumerate_connected(w)) for w in (1, 2, 3, 4)] == [1, 1, 2, 4]

    def test_matches_independent_generator(self):
        for w, expected in zip(range(1, 7), (1, 1, 2, 4, 10, 28)):
            forms = enumerate_connected(w)
            assert forms == sorted(forms)
            ours = {matrix_of_component(c) for c in forms}
            assert ours == brute_force_components(w)
            assert len(ours) == count_components_burnside(w) == expected

    def test_counts_above_oracle_range(self):
        # 359 at weight 8 matches a one-off Burnside count, too slow for the suite.
        assert [len(enumerate_connected(w)) for w in (7, 8)] == [97, 359]

    def test_bound(self):
        with pytest.raises(ValueError):
            enumerate_connected(MAX_ENUM_WEIGHT + 1)
        with pytest.raises(ValueError):
            enumerate_connected(0)


class TestIdentifyPoints:
    def test_circle_to_figure_eight(self):
        m = identify_points(circle_manifold(), ArcPosition(0, 0, 0), ArcPosition(0, 0, 1))
        assert is_isomorphic(m, manifold([figure_eight()]))

    def test_figure_eight_petals_to_crossing_pair(self):
        f8 = manifold([figure_eight()])
        m = identify_points(f8, ArcPosition(0, 0, 0), ArcPosition(0, 1, 0))
        assert is_isomorphic(m, manifold([THREE_A]))

    def test_same_petal_gives_loop_chain(self):
        f8 = manifold([figure_eight()])
        m = identify_points(f8, ArcPosition(0, 0, 0), ArcPosition(0, 0, 1))
        assert is_isomorphic(m, manifold([THREE_B]))

    def test_two_circles_merge(self):
        m = identify_points(circle_manifold(2), ArcPosition(0, 0, 0), ArcPosition(1, 0, 0))
        assert is_isomorphic(m, manifold([figure_eight()]))
        assert len(m.components) == 1 and m.total_weight == 2

    def test_coincident_positions_rejected(self):
        with pytest.raises(ValueError):
            identify_points(circle_manifold(), ArcPosition(0, 0, 0), ArcPosition(0, 0, 0))

    def test_conservation_laws(self):
        rng = random.Random(31)
        for _ in range(300):
            m = random_manifold(rng, rng.randint(0, 4))
            p1, p2 = random_positions(rng, m)
            result = identify_points(m, p1, p2)
            if p1.component == p2.component:
                assert result.total_weight == m.total_weight + 1
                assert len(result.components) == len(m.components)
            else:
                assert result.total_weight == m.total_weight
                assert len(result.components) == len(m.components) - 1


def _grown(form: BranchedComponent) -> set[BranchedComponent]:
    """Results of one same-component identification, as in the growth step."""
    m = manifold([form])
    n = 1 if form.is_circle else len(form.arcs)
    return {
        identify_points(m, ArcPosition(0, i), p).components[0]
        for i in range(n)
        for p in [ArcPosition(0, i, 1)] + [ArcPosition(0, j) for j in range(i + 1, n)]
    }


class TestSplitOff:
    def test_inverts_growth(self):
        # The connected split-offs of a form, over all its branch points, are
        # exactly the forms one weight lower whose growth step yields it.
        for w in range(2, 8):
            parents: dict[BranchedComponent, set[BranchedComponent]] = {}
            for form in enumerate_connected(w - 1):
                for child in _grown(form):
                    parents.setdefault(child, set()).add(form)
            for form in enumerate_connected(w):
                results = [p for v in range(form.order) for p in split_off(form, v)]
                assert set(results) == parents[form], form
                assert all(p.weight == w - 1 for p in results)

    def test_figure_eight(self):
        assert split_off(figure_eight(), 0) == [CIRCLE]
        assert down_set(figure_eight()) == {figure_eight(), CIRCLE}

    def test_circle(self):
        with pytest.raises(ValueError):
            split_off(CIRCLE, 0)
        assert down_set(CIRCLE) == {CIRCLE}

    def test_bad_vertex(self):
        with pytest.raises(ValueError):
            split_off(THREE_A, 2)

    def test_down_set_is_growth_ancestry(self):
        # Every form from which repeated growth reaches the form, itself included.
        below: dict[BranchedComponent, set[BranchedComponent]] = {CIRCLE: {CIRCLE}}
        for w in range(1, 6):
            for form in enumerate_connected(w):
                for child in _grown(form):
                    below.setdefault(child, {child}).update(below[form])
        for w in range(1, 7):
            for form in enumerate_connected(w):
                assert down_set(form) == below[form], form


class TestPuncture:
    def test_figure_eight(self):
        pieces = puncture(figure_eight(), 0)
        assert [p.branch_points for p in pieces] == [0, 0]

    def test_crossing_pair_stays_connected(self):
        for v in (0, 1):
            assert len(puncture(THREE_A, v)) == 1

    def test_even_chain_member_disconnects(self):
        comp = family_B(4).components[0]
        results = [puncture(comp, v) for v in range(comp.order)]
        disconnecting = [r for r in results if len(r) == 2]
        assert len(disconnecting) == 1
        pieces = disconnecting[0]
        assert sorted(p.branch_points for p in pieces) == [0, comp.order - 1]

    def test_bad_vertex(self):
        with pytest.raises(ValueError):
            puncture(CIRCLE, 0)
        with pytest.raises(ValueError):
            puncture(figure_eight(), 1)


class TestFamilies:
    def test_minimal_members(self):
        assert family_minimal(1) == circle_manifold()
        assert is_isomorphic(family_minimal(2), manifold([figure_eight()]))
        assert is_isomorphic(family_minimal(3), manifold([THREE_A]))
        chain5 = family_minimal(5).components[0]
        assert (chain5.order, len(chain5.arcs)) == (4, 8)
        octa = family_minimal(7).components[0]
        assert (octa.order, len(octa.arcs)) == (6, 12)
        assert all(u != v for u, v in octa.arcs)

    def test_minimal_rejects_other_weights(self):
        for w in (4, 6, 8):
            with pytest.raises(ValueError):
                family_minimal(w)

    def test_family_weights(self):
        for w in range(1, 11):
            assert weight(family_A(w)) == ([w], w)
            assert weight(family_B(w)) == ([w], w)

    def test_family_A_single_move_growth(self):
        for w in range(2, 11):
            prev = family_A(w - 1)
            target = family_A(w)
            moves = []
            for p1 in all_positions(prev):
                for p2 in all_positions(prev):
                    if p1 != p2:
                        moves.append(identify_points(prev, p1, p2))
            assert any(is_isomorphic(m, target) for m in moves)

    def test_family_B_puncture_predicates(self):
        for w in range(3, 11):
            comp = family_B(w).components[0]
            results = [puncture(comp, v) for v in range(comp.order)]
            if w % 2 == 1:
                assert all(len(r) == 1 for r in results)
            else:
                split = [r for r in results if len(r) > 1]
                assert split
                assert any(
                    len(r) == 2 and sorted(p.branch_points for p in r)[0] == 0
                    and sorted(p.branch_points for p in r)[1] == comp.order - 1
                    for r in split
                )

    def test_agreement_at_low_weights(self):
        assert is_isomorphic(family_A(1), family_B(1))
        assert is_isomorphic(family_A(2), family_B(2))
        assert is_isomorphic(family_B(3), family_minimal(3))

    def test_weight_three_classes_exhausted(self):
        codes = {family_A(3).encode(), family_B(3).encode(), family_minimal(3).encode()}
        assert codes == {m.encode() for m in (manifold([c]) for c in enumerate_connected(3))}


def all_positions(m: Branched1Manifold):
    out = []
    for ci, comp in enumerate(m.components):
        arcs = 1 if comp.is_circle else len(comp.arcs)
        for ai in range(arcs):
            for slot in (0, 1):
                out.append(ArcPosition(ci, ai, slot))
    return out


def pair_half_edges(order: int, pairing: list[int]) -> list[tuple[int, int]]:
    """Arcs of a 4-regular multigraph: consecutive half-edges of `pairing`
    are joined, half-edge h sitting at vertex h // 4."""
    return [(pairing[i] // 4, pairing[i + 1] // 4) for i in range(0, 4 * order, 2)]


def relabel(order: int, arcs, rng: random.Random):
    perm = list(range(order))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in arcs]
    rng.shuffle(out)
    return out


class TestEncoding:
    def test_fixed_forms(self):
        assert circle_manifold().encode() == "O"
        assert manifold([figure_eight()]).encode() == "0:0,0:0"
        assert manifold([THREE_A]).encode() == "0:1,0:1,0:1,0:1"
        assert manifold([CIRCLE, figure_eight()]).encode() == "O|0:0,0:0"

    def test_round_trip(self):
        rng = random.Random(77)
        for _ in range(100):
            m = random_manifold(rng, rng.randint(0, 4))
            assert parse_manifold(m.encode()) == m

    @pytest.mark.parametrize("text", ["0:1500", "0:0,0:-1"])
    def test_rejects_ids_outside_component(self, text):
        # A vertex id past the arc count would size the canonizer's graph;
        # a negative one would wrap around as a list index.
        with pytest.raises(ValueError, match="vertex ids"):
            parse_manifold(text)

    @given(st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_families_round_trip(self, w):
        for fam in (family_A, family_B):
            m = fam(w)
            assert parse_manifold(m.encode()) == m


class TestStrandMode:
    def test_plain_isomorphism_ignores_strands(self):
        assert is_isomorphic(manifold([figure_eight()]), manifold([figure_eight()]))


class TestCanonicalAgainstBruteForce:
    def test_weight_six_sample(self):
        rng = random.Random(13)
        forms = enumerate_connected(6)
        sample = rng.sample(forms, 8)
        for comp in sample:
            perm = list(range(comp.order))
            rng.shuffle(perm)
            relabeled = canonical_component(comp.order, [(perm[u], perm[v]) for u, v in comp.arcs])
            assert relabeled == comp
        for a in sample:
            for b in sample:
                assert multigraphs_isomorphic(a, b) == (a == b)


def assert_labelling_invariant(colours, edges, data):
    key, labelling = canonical_labelling(colours, edges)
    n = len(colours)
    assert sorted(labelling) == list(range(n))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        moved = [None] * n
        for v in range(n):
            moved[perm[v]] = colours[v]
        moved_edges = [(lbl, perm[a], perm[b]) for lbl, a, b in edges]
        rng.shuffle(moved_edges)
        assert canonical_labelling(moved, moved_edges)[0] == key


class TestCanonicalLabelling:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_relabelling(self, data):
        # `copies` copies of a random connected 4-regular multigraph, the
        # first arc rotated from copy to copy, so that the result is
        # connected and has a cyclic symmetry of order `copies`.
        copies = data.draw(st.integers(1, 3))
        base = data.draw(st.integers(1, 20 // copies))
        arcs = pair_half_edges(base, data.draw(st.permutations(range(4 * base))))
        assume(_connected(base, tuple((min(u, v), max(u, v)) for u, v in arcs)))
        (u0, v0), rest = arcs[0], arcs[1:]
        order = base * copies
        arcs = [(u + i * base, v + i * base) for i in range(copies) for u, v in rest]
        arcs += [(u0 + i * base, v0 + (i + 1) % copies * base) for i in range(copies)]
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        comp = canonical_component(order, arcs)
        assert comp.order == order and len(comp.arcs) == 2 * order
        if order <= 6:
            norm = tuple(sorted((min(u, v), max(u, v)) for u, v in arcs))
            assert multigraphs_isomorphic(comp, BranchedComponent(order, norm))
        for _ in range(3):
            assert canonical_component(order, relabel(order, arcs, rng)) == comp

    @pytest.mark.parametrize(
        "family, w", [(family_A, 18), (family_B, 19), (family_A, 20), (family_B, 20)]
    )
    def test_symmetric_families(self, family, w):
        m = family(w)
        (comp,) = m.components
        assert weight(m)[1] == comp.order + 1
        rng = random.Random(comp.order)
        for _ in range(5):
            assert canonical_component(comp.order, relabel(comp.order, comp.arcs, rng)) == comp
        assert parse_manifold(m.encode()) == m

    def test_ring_with_doubled_arcs(self):
        for k in (9, 10, 16):
            ring = [(i, (i + 1) % k) for i in range(k)] * 2
            comp = canonical_component(k, ring)
            rng = random.Random(k)
            for _ in range(5):
                assert canonical_component(k, relabel(k, ring, rng)) == comp
            assert sorted(Counter(comp.arcs).values()) == [2] * k

    def test_labelling_separates_edge_labels_and_colours(self):
        path = [(0, 0, 1), (1, 1, 2)]
        key, labelling = canonical_labelling(["x", "y", "z"], path)
        assert labelling == [0, 1, 2]
        assert canonical_labelling(["z", "y", "x"], [(1, 0, 1), (0, 1, 2)])[0] == key
        assert canonical_labelling(["x", "y", "z"], [(1, 0, 1), (0, 1, 2)])[0] != key
        assert canonical_labelling(["x", "y", "y"], path)[0] != key

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_coloured_graphs_with_repeated_parts(self, data):
        # Disjoint copies of one random coloured graph next to another: the
        # copies give automorphisms, the extra part other orbits in the same
        # colour classes, so pruning by a wrong automorphism would show.
        def part(size):
            colours = data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
            end = st.integers(0, size - 1)
            edge = st.tuples(st.integers(0, 1), end, end)
            return colours, data.draw(st.lists(edge, max_size=2 * size))

        size, copies = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
        colours, edges = part(size)
        extra_colours, extra_edges = part(data.draw(st.integers(1, 6)))
        all_colours = colours * copies + extra_colours
        base = size * copies
        all_edges = [
            (lbl, a + i * size, b + i * size) for i in range(copies) for lbl, a, b in edges
        ]
        all_edges += [(lbl, a + base, b + base) for lbl, a, b in extra_edges]
        assert_labelling_invariant(all_colours, all_edges, data)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_regular_graphs(self, data):
        # Vertex v joined to p(v) for one or two permutations p: a 2- or
        # 4-regular multigraph that refinement leaves in one cell, while its
        # cycles of different lengths lie in different orbits.
        n = data.draw(st.integers(1, 16))
        edges = [
            (lbl, v, w)
            for lbl in range(data.draw(st.integers(1, 2)))
            for v, w in enumerate(data.draw(st.permutations(range(n))))
        ]
        assert_labelling_invariant([0] * n, edges, data)
