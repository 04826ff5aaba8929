import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from gsflows.blocks import _feasible, entries_for
from gsflows.model import (
    ADMISSIBLE_NATURES,
    LABELS_BY_WORDS,
    OPEN,
    ConleyIndex,
    Edge,
    LyapunovGraph,
    Nature,
    SemiGraph,
    SingularityType,
    VertexLabel,
    conley_index,
    degree_bounds_ok,
    euler_characteristic,
    euler_conley,
    euler_gs,
    fold_balance,
    fold_degrees,
    nature_totals,
    parse_nature,
    parse_type,
    ph_residual,
    reverse_nature,
    reverse_semigraph,
    semigraph,
    total_folds,
    validate_graph,
)
from gsflows.generator import gen_random_gs_graph
from gsflows.realize import InvalidGraphError, classify_graph
from oracles import has_oriented_cycle

T = SingularityType
N = Nature


def sg(t, n, ins, outs):
    return SemiGraph(VertexLabel(parse_type(t), parse_nature(n)), tuple(ins), tuple(outs))


def graph(verts, edges):
    g = LyapunovGraph()
    for vid, t, n in verts:
        g.add_vertex(vid, parse_type(t), parse_nature(n))
    for s, d, w in edges:
        g.add_edge(s, d, w)
    return g


ALL_LABELS = [(t, n) for t in T for n in ADMISSIBLE_NATURES[t]]


class TestLabelHash:
    def test_hash_is_the_pair_hash(self):
        assert len(ALL_LABELS) == len(LABELS_BY_WORDS) == 20
        for t, n in ALL_LABELS:
            label = VertexLabel(t, n)
            assert hash(label) == hash((t, n))
            shared = LABELS_BY_WORDS[(t.value, n.value)]
            assert label == shared and hash(label) == hash(shared) and label is not shared

    def test_fresh_label_finds_the_shared_labels_table_entry(self):
        # Reversed natures are answered under a label `_feasible` builds
        # afresh, so a fresh label must hit the entry a shared one made.
        asked = 0
        for t, n in ALL_LABELS:
            shared = LABELS_BY_WORDS[(t.value, n.value)]
            for entry in entries_for(shared):
                target = tuple(tuple(sorted(m.components)) if m else () for m in (entry.n_plus, entry.n_minus))
                expected = _feasible(shared, target)
                assert expected, entry.name
                hits = _feasible.cache_info().hits
                assert _feasible(VertexLabel(t, n), target) == expected
                assert _feasible.cache_info().hits == hits + 1
                asked += 1
        assert asked == 66


class TestConleyIndex:
    def test_table_values(self):
        assert conley_index(T.REGULAR, N.S) == ConleyIndex(0, 1, 0)
        assert conley_index(T.TRIPLE, N.R) == ConleyIndex(0, 0, 7)
        assert conley_index(T.DOUBLE, N.SS_S) == ConleyIndex(0, 3, 0)
        assert conley_index(T.CONE, N.R) == ConleyIndex(0, 1, 2)

    def test_whitney_repeller_is_consistent_with_attractor_weight(self):
        # Forced by the boundary-count identity for the Whitney attractor.
        assert conley_index(T.WHITNEY, N.R) == ConleyIndex(0, 0, 2)
        assert ph_residual(sg("W", "a", [2], [])) == 0

    def test_inadmissible(self):
        with pytest.raises(ValueError):
            conley_index(T.REGULAR, N.SA)
        with pytest.raises(ValueError):
            VertexLabel(T.REGULAR, N.SSA)

    def test_attractor_invariant(self):
        with pytest.raises(ValueError):
            ConleyIndex(1, 1, 0)
        with pytest.raises(ValueError):
            ConleyIndex(2, 0, 0)


class TestReverseNature:
    def test_pairings(self):
        assert reverse_nature(N.SS_S) is N.SS_U
        assert reverse_nature(N.S) is N.S
        assert reverse_nature(N.SSA) is N.SSR

    def test_involution(self):
        for n in N:
            assert reverse_nature(reverse_nature(n)) is n

    def test_index_stable_under_double_reversal(self):
        for t, n in ALL_LABELS:
            assert conley_index(t, reverse_nature(reverse_nature(n))) == conley_index(t, n)

    def test_reversal_preserves_admissibility(self):
        for t, n in ALL_LABELS:
            assert reverse_nature(n) in ADMISSIBLE_NATURES[t]


class TestValidate:
    def test_smallest_semigraph_is_valid(self):
        g = graph([("v", "R", "a")], [(OPEN, "v", 1)])
        assert validate_graph(g) == []

    def test_two_cycle(self):
        g = graph([("a", "R", "s"), ("b", "R", "s")], [("a", "b", 1), ("b", "a", 1)])
        assert any("oriented cycle" in item for item in validate_graph(g))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_cycle_report_matches_oracle(self, data):
        ids = [f"v{i}" for i in range(data.draw(st.integers(1, 6)))]
        end = st.sampled_from(ids + [OPEN])
        arcs = data.draw(st.lists(st.tuples(end, end), max_size=12))
        g = graph([(vid, "R", "s") for vid in ids], [(src, dst, 1) for src, dst in arcs])
        cycles = [item for item in validate_graph(g) if item.startswith("oriented cycle: ")]
        assert len(cycles) == has_oriented_cycle(ids, arcs)
        if cycles:
            walk = cycles[0].removeprefix("oriented cycle: ").split("->")
            assert len(walk) >= 2 and walk[0] == walk[-1]
            assert len(set(walk)) == len(walk) - 1
            assert all(pair in arcs for pair in zip(walk, walk[1:]))

    def test_zero_weight(self):
        g = graph([("v", "R", "a")], [])
        g.edges.append(Edge(OPEN, "v", 0))
        assert any("weight" in item for item in validate_graph(g))

    def test_edge_with_both_ends_open(self):
        g = graph([("v", "R", "a")], [(OPEN, "v", 1), (OPEN, OPEN, 1)])
        assert validate_graph(g) == ["edge 1: both ends open"]

    def test_unknown_endpoint_and_isolated(self):
        g = graph([("v", "R", "a")], [("ghost", "v", 1)])
        assert any("unknown" in item for item in validate_graph(g))
        g2 = graph([("v", "R", "a")], [])
        assert any("isolated" in item for item in validate_graph(g2))

    @pytest.mark.parametrize(
        "verts, edges, report",
        [
            pytest.param(
                [("v", "R", "a")], [(OPEN, "v", 0), ("v", OPEN, -2)],
                ["edge 0: weight must be >= 1, got 0", "edge 1: weight must be >= 1, got -2"],
                id="weight-below-1",
            ),
            pytest.param(
                [("v", "R", "a")], [(OPEN, OPEN, 0), (OPEN, "v", 1), (OPEN, OPEN, 1)],
                ["edge 0: weight must be >= 1, got 0", "edge 0: both ends open",
                 "edge 2: both ends open"],
                id="both-ends-open",
            ),
            pytest.param(
                [("a", "R", "r"), ("b", "R", "a")],
                [("ghost", "a", 1), ("a", "b", 1), ("b", "phantom", 0), ("x", "y", -1),
                 ("ghost", OPEN, 1)],
                ["edge 0: unknown source vertex 'ghost'", "edge 2: weight must be >= 1, got 0",
                 "edge 2: unknown target vertex 'phantom'", "edge 3: weight must be >= 1, got -1",
                 "edge 3: unknown source vertex 'x'", "edge 3: unknown target vertex 'y'",
                 "edge 4: unknown source vertex 'ghost'"],
                id="unknown-ends",
            ),
            pytest.param(
                [("a", "R", "s"), ("b", "R", "s"), ("c", "R", "s"), ("d", "R", "s")],
                [(OPEN, "a", 1), ("a", "b", 1), ("ghost", "b", 1), ("b", "c", 1), ("c", "d", 1),
                 ("d", "b", 1), ("d", OPEN, 1), (OPEN, OPEN, 1)],
                ["edge 2: unknown source vertex 'ghost'", "edge 7: both ends open",
                 "oriented cycle: b->c->d->b"],
                id="dangling-ends-next-to-cycle",
            ),
            pytest.param(
                [("x", "R", "a"), ("b", "R", "s"), ("c", "R", "s"), ("i", "R", "a")],
                [("b", "c", 1), ("c", "b", 1), ("c", "x", 1)],
                ["oriented cycle: c->b->c", "vertex i: isolated (semi-graphs need degree >= 1)"],
                id="cycle-named-from-a-vertex-below-it",
            ),
            pytest.param(
                [("b", "R", "s"), ("a", "R", "s"), ("c", "R", "s")],
                [("a", "b", 1), ("c", "b", 1), ("b", "a", 1), ("b", "c", 1)],
                ["oriented cycle: b->a->b"],
                id="cycle-follows-the-first-predecessor",
            ),
            pytest.param(
                [("p", "R", "a"), ("q", "C", "s")], [("q", "q", 1)],
                ["oriented cycle: q->q", "vertex p: isolated (semi-graphs need degree >= 1)"],
                id="self-loop-and-isolated",
            ),
        ],
    )
    def test_report_is_pinned(self, verts, edges, report):
        g = graph(verts, [])
        g.edges.extend(Edge(src, dst, w) for src, dst, w in edges)
        assert validate_graph(g) == report

    def test_report_of_an_inadmissible_label(self):
        # VertexLabel refuses the label on construction; a graph built by
        # other means still gets a report, before the cycle and isolation.
        label = object.__new__(VertexLabel)
        object.__setattr__(label, "kind", T.REGULAR)
        object.__setattr__(label, "nature", N.SA)
        g = graph([("a", "R", "s"), ("z", "R", "a")], [("a", "a", 0)])
        g.vertices["x"] = label
        assert validate_graph(g) == [
            "edge 0: weight must be >= 1, got 0",
            "vertex x: nature sa not admissible for R",
            "oriented cycle: a->a",
            "vertex z: isolated (semi-graphs need degree >= 1)",
            "vertex x: isolated (semi-graphs need degree >= 1)",
        ]


class TestSemigraph:
    def test_projection(self):
        g = graph(
            [("v", "D", "ss_s"), ("p", "D", "r"), ("q", "R", "a")],
            [("p", "v", 1), (OPEN, "v", 2), ("v", "q", 3)],
        )
        s = semigraph(g, "v")
        assert (s.in_weights, s.out_weights) == ((1, 2), (3,))
        assert (s.e_plus, s.e_minus, s.b_plus, s.b_minus) == (2, 1, 3, 3)

    def test_unknown_vertex(self):
        with pytest.raises(KeyError):
            semigraph(graph([("v", "R", "a")], [(OPEN, "v", 1)]), "w")

    def test_isolated_vertex(self):
        g = graph([("v", "R", "a")], [])
        with pytest.raises(ValueError):
            semigraph(g, "v")

    def test_dangling_out_edge_counts(self):
        g = graph([("v", "R", "s")], [(OPEN, "v", 1), ("v", OPEN, 1)])
        s = semigraph(g, "v")
        assert (s.e_plus, s.e_minus) == (1, 1)

    @pytest.mark.parametrize("minimal", [True, False])
    def test_one_pass_matches_projection(self, minimal):
        for seed in range(40):
            g = gen_random_gs_graph(seed, size=4 + seed, minimal=minimal)
            assert classify_graph(g).semigraphs == {vid: semigraph(g, vid) for vid in g.vertices}

    def test_one_pass_keeps_edge_order_with_open_ends(self):
        g = graph(
            [("v", "D", "ss_s"), ("p", "D", "r"), ("q", "R", "a")],
            [(OPEN, "v", 2), ("p", "v", 1), ("v", "q", 3), ("p", OPEN, 4), ("v", OPEN, 5)],
        )
        sgs = classify_graph(g).semigraphs
        assert list(sgs) == ["v", "p", "q"]
        assert sgs == {vid: semigraph(g, vid) for vid in g.vertices}
        assert (sgs["v"].in_weights, sgs["v"].out_weights) == ((2, 1), (3, 5))
        assert (sgs["p"].in_weights, sgs["p"].out_weights) == ((), (1, 4))

    def test_one_pass_rejects_isolated_vertex(self):
        g = graph([("v", "R", "a"), ("w", "R", "a")], [(OPEN, "v", 1)])
        with pytest.raises(InvalidGraphError, match="vertex w: isolated") as err:
            classify_graph(g)
        assert err.value.report == ["vertex w: isolated (semi-graphs need degree >= 1)"]


class TestPoincareHopf:
    def test_regular_attractor(self):
        assert ph_residual(sg("R", "a", [1], [])) == 0
        assert ph_residual(sg("R", "a", [2], [])) != 0

    def test_triple_attractor(self):
        assert ph_residual(sg("T", "a", [7], [])) == 0
        assert ph_residual(sg("T", "a", [6], [])) != 0

    def test_double_saddle(self):
        assert ph_residual(sg("D", "ss_s", [4], [2])) == 0
        assert ph_residual(sg("D", "ss_s", [4], [3])) == -1

    @given(
        st.sampled_from(ALL_LABELS),
        st.lists(st.integers(1, 9), min_size=0, max_size=4),
        st.lists(st.integers(1, 9), min_size=0, max_size=4),
    )
    def test_antisymmetry(self, label, ins, outs):
        if not ins and not outs:
            ins = [1]
        s = SemiGraph(VertexLabel(*label), tuple(ins), tuple(outs))
        assert ph_residual(reverse_semigraph(s)) == -ph_residual(s)


class TestDegreeBounds:
    def test_double_saddle_out_degree(self):
        assert degree_bounds_ok(sg("D", "ss_s", [4], [1, 1, 1, 1]))
        assert not degree_bounds_ok(sg("D", "ss_s", [5], [1, 1, 1, 1, 1]))

    def test_triple_in_degree(self):
        assert not degree_bounds_ok(sg("T", "ssa", [2, 2, 2], [4]))
        assert degree_bounds_ok(sg("T", "ssa", [5], [3]))


class TestFolds:
    def test_degrees(self):
        assert fold_degrees(T.TRIPLE, N.SSA) == (4, 2)
        assert fold_degrees(T.TRIPLE, N.SSR) == (2, 4)
        assert fold_degrees(T.REGULAR, N.S) == (0, 0)
        assert fold_degrees(T.DOUBLE, N.R) == (0, 2)
        assert fold_degrees(T.WHITNEY, N.S_S) == (1, 0)

    def test_totals(self):
        assert [total_folds(t) for t in (T.REGULAR, T.CONE, T.WHITNEY, T.DOUBLE, T.TRIPLE)] == [0, 0, 1, 2, 6]

    def test_totals_agree_with_degrees(self):
        # For every label, entering plus exiting folds give the chart total.
        for t, n in ALL_LABELS:
            fin, fout = fold_degrees(t, n)
            assert fin + fout == total_folds(t)

    def test_balance_pairs(self):
        g = graph([("r", "T", "r"), ("a", "T", "a")], [("r", "a", 7)])
        assert fold_balance(g)
        sums = [fold_degrees(T.WHITNEY, N.A), fold_degrees(T.WHITNEY, N.S_S)]
        assert (sum(x for x, _ in sums), sum(y for _, y in sums)) == (2, 0)

    def test_balance_without_folds(self):
        g = graph([("r", "R", "r"), ("a", "R", "a")], [("r", "a", 1)])
        assert fold_balance(g)

    def test_balance_needs_closed(self):
        g = graph([("v", "R", "a")], [(OPEN, "v", 1)])
        with pytest.raises(ValueError):
            fold_balance(g)


class TestEuler:
    def test_conley_sums(self):
        assert euler_conley(graph([("r", "R", "r"), ("a", "R", "a")], [("r", "a", 1)])) == 2
        assert euler_conley(graph([("r", "T", "r"), ("a", "T", "a")], [("r", "a", 7)])) == 8
        g = graph(
            [("r", "C", "r"), ("s", "C", "s"), ("a", "C", "a")],
            [("r", "s", 1), ("s", "a", 1)],
        )
        assert euler_conley(g) == 1

    def test_formula_instances(self):
        assert euler_characteristic(3, 5, 2, 2, 0) == 1
        assert euler_characteristic(2, 3, 1, 2, 0) == 1
        assert euler_characteristic(2, 6, 2, 4, 0) == 0
        assert euler_characteristic(3, 2, 3, 2, 0) == 5

    def test_empty_graph(self):
        assert euler_gs(LyapunovGraph()) == 0

    def test_exact_rational(self):
        g = graph([("r", "W", "r"), ("a", "W", "a")], [("r", "a", 2)])
        # a - s + r + W/2 = 1 - 0 + 1 + 1, matching the Conley sum 1 + 2.
        assert euler_gs(g) == Fraction(3)
        assert euler_conley(g) == 3
        assert nature_totals(g) == (1, 0, 1)

    def test_nature_totals_multiplicity(self):
        g = graph([("r", "T", "r"), ("a", "T", "a")], [("r", "a", 7)])
        assert nature_totals(g) == (3, 0, 3)
        g2 = graph([("v", "D", "ss_s")], [(OPEN, "v", 3), ("v", OPEN, 1)])
        assert nature_totals(g2) == (0, 2, 0)


class TestFoldParity:
    def test_whitney_plus_double_triple_even_when_balanced(self):
        from gsflows.generator import gen_random_gs_graph

        for seed in range(200):
            g = gen_random_gs_graph(seed, size=5 + seed % 6)
            if fold_balance(g):
                w = sum(1 for l in g.vertices.values() if l.kind is T.WHITNEY)
                t = sum(1 for l in g.vertices.values() if l.kind is T.TRIPLE)
                assert (w + 2 * t) % 2 == 0


class TestCanonicalGraph:
    def test_sorted_copy(self):
        g = graph([("b", "R", "a"), ("a", "R", "r")], [("a", "b", 1)])
        canon = g.canonical()
        assert list(canon.vertices) == ["a", "b"]
        assert canon.edges == g.edges
