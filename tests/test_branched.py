import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from gsflows.branched import (
    CIRCLE,
    MAX_ENUM_WEIGHT,
    ArcPosition,
    Branched1Manifold,
    BranchedComponent,
    _CANON_CACHE_SIZE,
    _PARSE_CACHE_SIZE,
    _canonical,
    _connected,
    _find,
    _identify,
    _join,
    canonical_component,
    canonical_labelling,
    circle_manifold,
    down_set,
    enumerate_connected,
    family_A,
    family_B,
    family_minimal,
    figure_eight,
    identify_arcs,
    identify_points,
    manifold,
    parse_manifold,
    puncture,
    split_off,
    weight,
)

from oracles import (
    brute_force_components,
    count_components_burnside,
    is_automorphism,
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
        assert manifold([figure_eight()]) != circle_manifold()

    def test_two_weight_three_types_differ(self):
        assert manifold([THREE_A]) != manifold([THREE_B])

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

    def test_hash_is_that_of_order_and_arcs(self):
        # The hash computed at construction is the dataclass hash of the
        # compared fields, so set and dict orders are those of that hash,
        # and `autos` takes no part in it.
        forms = [c for w in range(1, 7) for c in enumerate_connected(w)]
        assert any(c.autos for c in forms)
        for c in forms:
            assert hash(c) == hash((c.order, c.arcs))
            bare = BranchedComponent(c.order, c.arcs)
            assert bare == c and bare.autos == () and hash(bare) == hash(c)

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

    def test_fresh_enumeration_canonizes_once_per_orbit(self):
        # A fresh interpreter enumerating weight 6 canonizes at most the 129
        # arc lists measured once identifications were memoised per arc-pair
        # orbit (263 when they were memoised per arc pair).
        code = ("from gsflows import branched as b; m = b._canonical.cache_info().misses; "
                "b.enumerate_connected(6); print(b._canonical.cache_info().misses - m)")
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={"PYTHONPATH": str(src)})
        assert int(out.stdout) <= 129

    def test_bound(self):
        with pytest.raises(ValueError):
            enumerate_connected(MAX_ENUM_WEIGHT + 1)
        with pytest.raises(ValueError):
            enumerate_connected(0)


class TestIdentifyPoints:
    def test_circle_to_figure_eight(self):
        m = identify_points(circle_manifold(), ArcPosition(0, 0, 0), ArcPosition(0, 0, 1))
        assert m == manifold([figure_eight()])

    def test_figure_eight_petals_to_crossing_pair(self):
        f8 = manifold([figure_eight()])
        m = identify_points(f8, ArcPosition(0, 0, 0), ArcPosition(0, 1, 0))
        assert m == manifold([THREE_A])

    def test_same_petal_gives_loop_chain(self):
        f8 = manifold([figure_eight()])
        m = identify_points(f8, ArcPosition(0, 0, 0), ArcPosition(0, 0, 1))
        assert m == manifold([THREE_B])

    def test_two_circles_merge(self):
        m = identify_points(circle_manifold(2), ArcPosition(0, 0, 0), ArcPosition(1, 0, 0))
        assert m == manifold([figure_eight()])
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


def _identified_by_hand(m: Branched1Manifold, p1: ArcPosition, p2: ArcPosition) -> list:
    """The identification without the library's suppression or canonizer.

    The manifold is flattened into one arc list, the two arcs are cut at a
    new vertex, and degree-2 vertices are contracted one at a time.  Returns
    each component as a (order, arcs) namespace with vertices renamed
    0..order-1 in sorted order, circles as order 0.
    """
    edges, at, n = [], {}, 0
    for ci, comp in enumerate(m.components):
        if comp.is_circle:
            at[ci, 0] = len(edges)
            edges.append((n, n))
            n += 1
        else:
            for ai, (u, v) in enumerate(comp.arcs):
                at[ci, ai] = len(edges)
                edges.append((u + n, v + n))
            n += comp.order
    e1, e2 = at[p1.component, p1.arc], at[p2.component, p2.arc]
    cut = [e1] if e1 == e2 else [e1, e2]
    for e in cut:
        u, v = edges[e]
        edges[e] = (u, n)
        edges.append((n, v))
    if e1 == e2:
        edges.append((n, n))
    pieces = []
    while True:
        degree = Counter(x for edge in edges for x in edge)
        v = next((x for x, d in degree.items() if d == 2), None)
        if v is None:
            break
        on_v = [i for i, edge in enumerate(edges) if v in edge]
        if len(on_v) == 1:  # a lone loop: a circle
            pieces.append(SimpleNamespace(order=0, arcs=()))
        else:
            a, b = (edge[0] if edge[1] == v else edge[1] for edge in map(edges.__getitem__, on_v))
            edges.append((a, b))
        edges = [edge for i, edge in enumerate(edges) if i not in on_v]
    vertices = sorted({x for edge in edges for x in edge})
    parent = {x: x for x in vertices}
    for u, v in edges:
        parent[_find(parent, u)] = _find(parent, v)
    for root in {_find(parent, x) for x in vertices}:
        names = {x: i for i, x in enumerate(x for x in vertices if _find(parent, x) == root)}
        arcs = tuple(sorted(tuple(sorted((names[u], names[v]))) for u, v in edges if u in names))
        pieces.append(SimpleNamespace(order=len(names), arcs=arcs))
    return pieces


class TestIdentifyMemo:
    def test_memoised_identifications_match_the_rewrite(self):
        # 2 000 random identifications on random manifolds of one to three
        # starting circles: each result equals the unmemoised rewrite of the
        # whole manifold (`_identify`) and, component by component, is
        # isomorphic under the brute-force oracle to the identification done
        # by hand.  The oracle runs once per distinct input.
        rng = random.Random(2024)
        seen = {"cross-equal": 0, "same-arc-01": 0, "same-arc-10": 0, "circle": 0}
        hits = identify_arcs.cache_info().hits + _join.cache_info().hits
        checked = set()
        for _ in range(2000):
            m = random_manifold(rng, rng.randint(0, 4))
            p1, p2 = random_positions(rng, m)
            result = identify_points(m, p1, p2)
            at1, at2 = (p1.component, p1.arc), (p2.component, p2.arc)
            assert result.components == _identify(list(m.components), at1, at2)
            c1, c2 = m.components[p1.component], m.components[p2.component]
            if p1.component != p2.component and c1 == c2:
                seen["cross-equal"] += 1
            if at1 == at2:
                seen[f"same-arc-{p1.slot}{p2.slot}"] += 1
            seen["circle"] += c1.is_circle or c2.is_circle
            if (m, *sorted([at1, at2])) in checked:
                continue
            checked.add((m, *sorted([at1, at2])))
            unmatched = list(result.components)
            for piece in _identified_by_hand(m, p1, p2):
                match = next(c for c in unmatched if multigraphs_isomorphic(piece, c))
                unmatched.remove(match)
            assert unmatched == []
        assert min(seen.values()) >= 50, seen
        assert identify_arcs.cache_info().hits + _join.cache_info().hits > hits + 1000


def _arc_count(c: BranchedComponent) -> int:
    return 1 if c.is_circle else len(c.arcs)


def _matches_by_hand(m: Branched1Manifold, p1: ArcPosition, p2: ArcPosition) -> bool:
    """Whether the unmemoised rewrite's one component is isomorphic, under the
    brute-force oracle, to the identification done by hand."""
    (comp,) = _identify(list(m.components), (p1.component, p1.arc), (p2.component, p2.arc))
    (piece,) = _identified_by_hand(m, p1, p2)
    return multigraphs_isomorphic(piece, comp)


def _forms_to(w: int) -> list[BranchedComponent]:
    return [f for k in range(1, w + 1) for f in enumerate_connected(k)]


class TestIdentifyExhaustive:
    def test_every_same_component_identification_to_weight_6(self):
        # Every arc pair of every connected form up to weight 6, one arc taken
        # twice included (both points on it, in slots 0 and 1).
        count = 0
        for form in _forms_to(6):
            m, n = manifold([form]), _arc_count(form)
            for i in range(n):
                for j in range(i, n):
                    p2 = ArcPosition(0, j, 1 if j == i else 0)
                    assert _matches_by_hand(m, ArcPosition(0, i), p2), (form, i, j)
                    count += 1
        # n arcs give n(n + 1)/2 pairs; a form of weight w > 1 has 2(w - 1) arcs.
        assert count == 1 + 3 + 2 * 10 + 4 * 21 + 10 * 36 + 28 * 55

    def test_every_cross_join_to_total_weight_6(self):
        # Every pair of forms, circles and two copies of one form included,
        # with total weight at most 6, joined at every pair of their arcs.
        pairs, forms = 0, _forms_to(5)
        for a, f in enumerate(forms):
            for g in forms[a:]:
                if f.weight + g.weight > 6:
                    continue
                m = manifold([f, g])
                pairs += 1
                for i in range(_arc_count(m.components[0])):
                    for j in range(_arc_count(m.components[1])):
                        assert _matches_by_hand(m, ArcPosition(0, i), ArcPosition(1, j)), (m, i, j)
        # Weights 1+1, 1+2..1+5, 2+2..2+4, and the unordered pairs of the two
        # weight-3 forms, copies included.
        assert pairs == 1 + (1 + 2 + 4 + 10) + (1 + 2 + 4) + 3


class TestIdentifyWithoutSuppression:
    def test_rewrite_never_suppresses(self, monkeypatch):
        # The rewrite writes a 4-regular arc list directly, so it never needs
        # the degree-2 suppression walk, for same-component identifications
        # and cross joins alike, circles included.  Every form up to weight 6
        # and every arc pair: the identification memoised per arc-pair orbit
        # is the raw rewrite at the pair asked for.
        import gsflows.branched as branched

        calls = []
        suppress = branched.suppress
        monkeypatch.setattr(branched, "suppress", lambda edges: calls.append(edges) or suppress(edges))
        forms, count = _forms_to(6), 0
        for form in forms:
            n = _arc_count(form)
            for i in range(n):
                for j in range(i, n):
                    assert identify_arcs(form, i, j) == _identify([form], (0, i), (0, j))[0]
                    count += 1
                for other in forms[:4] if form.weight <= 5 else ():
                    for j in range(_arc_count(other)):
                        assert _join.__wrapped__(form, i, other, j) == _join(form, i, other, j)
                        count += 1
        assert count > 1000 and calls == []


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
        assert family_minimal(2) == manifold([figure_eight()])
        assert family_minimal(3) == manifold([THREE_A])
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
            assert target in moves

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

    def test_families_split_back_one_weight(self):
        # Each form splits (`split_off`) into the family's form one weight
        # lower, and an even-weight circle-chain form is a split of the next,
        # odd, chain: a Whitney saddle block grows between consecutive
        # weights of a family only along such splits.
        for w in range(2, 41):
            for family in (family_A, family_B):
                c = family(w).components[0]
                assert any(family(w - 1).components[0] in split_off(c, v) for v in range(c.order)), (family, w)
            if w % 2 == 0:
                chain = family_B(w + 1).components[0]
                assert any(family_B(w).components[0] in split_off(chain, v) for v in range(chain.order)), w

    def test_agreement_at_low_weights(self):
        assert family_A(1) == family_B(1)
        assert family_A(2) == family_B(2)
        assert family_B(3) == family_minimal(3)

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

    def test_parses_are_memoised(self):
        # A repeated text gets the identical object; malformed text raises on
        # every call, since errors are not kept.
        text = family_B(6).encode()
        first = parse_manifold(text)
        assert parse_manifold(text) is first
        assert parse_manifold(" " + text) == first
        for bad in ("0:1500", "0:x", "0:1,0:1,0:1"):
            for _ in range(3):
                with pytest.raises(ValueError):
                    parse_manifold(bad)
        assert 0 < parse_manifold.cache_info().currsize <= _PARSE_CACHE_SIZE

    @given(st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_families_round_trip(self, w):
        for fam in (family_A, family_B):
            m = fam(w)
            assert parse_manifold(m.encode()) == m


class TestStrandMode:
    def test_plain_isomorphism_ignores_strands(self):
        assert manifold([figure_eight()]) == manifold([figure_eight()])


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
    key, labelling, _ = canonical_labelling(colours, edges)
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

    def test_generators_are_automorphisms(self):
        # Seeded random relabellings of every form up to weight 7, coloured
        # by loop counts and labelled by arc multiplicities as `_canonical`
        # reads them: each generator maps the graph onto itself, and so does
        # each renamed generator a canonical component carries.
        rng = random.Random(7)
        generators = 0
        for form in _forms_to(7)[1:]:
            for _ in range(2):
                arcs = relabel(form.order, form.arcs, rng)
                loops = [0] * form.order
                for u, v in arcs:
                    loops[u] += u == v
                edges = [(m, u, v) for (u, v), m in Counter(tuple(sorted(a)) for a in arcs if a[0] != a[1]).items()]
                autos = canonical_labelling(loops, edges)[2]
                assert all(is_automorphism(loops, edges, g) for g in autos), form
                comp = canonical_component(form.order, arcs)
                whole = [(0, u, v) for u, v in comp.arcs]
                assert all(is_automorphism([0] * comp.order, whole, g) for g in comp.autos), form
                generators += len(autos)
        assert generators > 100

    def test_canonical_table_is_bounded(self):
        # One bounded table, keyed by sorted normalised arcs, serves
        # `canonical_component` and `suppress`.  It holds more than the 6 242
        # arc lists the weight-8 enumeration canonizes, so enumeration never
        # evicts.
        assert _canonical.cache_info().maxsize == _CANON_CACHE_SIZE == 1 << 14
        comp = canonical_component(2, [(1, 0), (0, 1), (0, 1), (1, 0)])
        assert _canonical(2, ((0, 1),) * 4)[0] is comp

    def test_labelling_separates_edge_labels_and_colours(self):
        path = [(0, 0, 1), (1, 1, 2)]
        key, labelling, _ = canonical_labelling(["x", "y", "z"], path)
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
