import functools
import importlib
import time
from collections import Counter

import pytest

from gsflows.branched import (
    CIRCLE,
    MAX_ENUM_WEIGHT,
    enumerate_connected,
    family_A,
    family_B,
    family_minimal,
    manifold,
    parse_manifold,
)
from gsflows.cli import EX_OK, main
from gsflows.documents import serialize_graph
from gsflows.generator import gen_random_gs_graph
from gsflows.blocks import boundary_feasible, local_realizable
from gsflows.model import (
    Edge,
    LyapunovGraph,
    Nature,
    SemiGraph,
    SingularityType,
    VertexLabel,
    conley_index,
    euler_characteristic,
    euler_conley,
    euler_gs,
    fold_balance,
    fold_degrees,
    incidence,
    nature_totals,
    parse_nature,
    parse_type,
    reverse_nature,
    semigraph,
)
from gsflows.realize import (
    NOT_REALIZABLE,
    REALIZABLE,
    UNKNOWN,
    CONDITIONS,
    InvalidGraphError,
    _search,
    check_condition,
    classify_graph,
    lemma_familyB_ok,
    lemma_firstfamily_ok,
    realize,
    verify_certificate,
)


def G(verts, edges):
    g = LyapunovGraph()
    for vid, t, n in verts:
        g.add_vertex(vid, parse_type(t), parse_nature(n))
    for s, d, w in edges:
        g.add_edge(s, d, w)
    return g


def sg(t, n, ins, outs):
    return SemiGraph(VertexLabel(parse_type(t), parse_nature(n)), tuple(ins), tuple(outs))


SPHERE = G([("r", "R", "r"), ("a", "R", "a")], [("r", "a", 1)])
T_PAIR = G([("r", "T", "r"), ("a", "T", "a")], [("r", "a", 7)])

# Bifurcating Whitney saddle with a non-minimal weight-3 entering edge fed by
# a double-crossing repeller; locally fine everywhere, globally impossible
# because the two blocks force the two different weight-3 boundary forms.
NON_REALIZABLE = G(
    [("d", "D", "r"), ("w", "W", "s_s"), ("wa", "W", "a"), ("ra", "R", "a")],
    [("d", "w", 3), ("w", "wa", 2), ("w", "ra", 1)],
)

# Realizable, but only through a weight-5 form outside both families.
SEARCH_ONLY = G(
    [
        ("dr", "D", "r"),
        ("dsr", "D", "sr"),
        ("w", "W", "s_s"),
        ("dsa", "D", "sa"),
        ("wa", "W", "a"),
        ("ra", "R", "a"),
    ],
    [("dr", "dsr", 3), ("dsr", "w", 5), ("w", "dsa", 4), ("w", "ra", 1), ("dsa", "wa", 2)],
)


class TestClassify:
    def test_sphere_is_minimal(self):
        st = classify_graph(SPHERE)
        assert st.is_gs and st.is_minimal_gs

    def test_ph_violation_breaks_gs(self):
        g = G([("r", "R", "r"), ("a", "R", "a")], [("r", "a", 2)])
        st = classify_graph(g)
        assert not st.is_gs
        assert st.verdicts["r"].reason == "PH-violated"

    def test_generated_minimal_graphs(self):
        for seed in range(20):
            g = gen_random_gs_graph(seed, size=7, minimal=True)
            assert classify_graph(g).is_minimal_gs

    def test_invalid_graph_rejected(self):
        g = G([("a", "R", "s"), ("b", "R", "s")], [("a", "b", 1), ("b", "a", 1)])
        with pytest.raises(ValueError):
            classify_graph(g)


class TestCheckers:
    def test_minimal_case_certificate(self):
        g = G(
            [("dr", "D", "r"), ("dsa", "D", "sa"), ("wa", "W", "a"), ("w", "W", "s_u")],
            [("dr", "dsa", 3), ("dsa", "w", 1), ("w", "wa", 2)],
        )
        # dsa collapses 3 -> 1; the Whitney saddle lifts 1 -> 2.
        cert = check_condition(g, "Thm6")
        assert cert is not None
        assert cert[0] == family_minimal(3)
        assert verify_certificate(g, cert)

    def test_minimal_case_guard(self):
        assert check_condition(NON_REALIZABLE, "Thm6") is None

    def test_linear(self):
        g = G(
            [("r", "R", "r"), ("u1", "W", "s_u"), ("u2", "W", "s_u"),
             ("s1", "W", "s_s"), ("s2", "W", "s_s"), ("a", "R", "a")],
            [("r", "u1", 1), ("u1", "u2", 2), ("u2", "s1", 3), ("s1", "s2", 2), ("s2", "a", 1)],
        )
        cert = check_condition(g, "Thm7")
        assert cert is not None and cert[2] == family_B(3)
        assert verify_certificate(g, cert)

    def test_linear_guards(self):
        assert check_condition(NON_REALIZABLE, "Thm7") is None  # degree-3 vertex
        assert check_condition(T_PAIR, "Thm7") is None  # triple crossing label

    def test_blend(self):
        g = G(
            [("r", "R", "r"), ("dsr", "D", "sr"), ("d", "D", "ss_s"),
             ("u", "W", "s_u"), ("s", "W", "s_s"),
             ("a1", "R", "a"), ("a2", "R", "a"), ("a3", "R", "a")],
            [("r", "dsr", 1), ("dsr", "d", 3), ("d", "a1", 1), ("d", "a2", 1),
             ("d", "u", 1), ("u", "s", 2), ("s", "a3", 1)],
        )
        assert check_condition(g, "Thm7") is None
        cert = check_condition(g, "Thm8")
        assert cert is not None
        assert verify_certificate(g, cert)

    def test_blend_guard_nonminimal_bifurcation(self):
        # Degree-3 double crossing with a non-minimal entering weight.
        g = G(
            [("r", "R", "r"), ("dsr", "D", "sr"), ("u", "W", "s_u"), ("d", "D", "ss_s"),
             ("a1", "W", "a"), ("a2", "R", "a"), ("a3", "R", "a")],
            [("r", "dsr", 1), ("dsr", "u", 3), ("u", "d", 4),
             ("d", "a1", 2), ("d", "a2", 1), ("d", "a3", 1)],
        )
        assert classify_graph(g).is_gs
        assert check_condition(g, "Thm8") is None

    def test_rcw(self):
        g = G(
            [("r1", "R", "r"), ("r2", "R", "r"), ("u", "W", "s_u"),
             ("c", "C", "s"), ("s", "W", "s_s"), ("a1", "R", "a"), ("a2", "R", "a")],
            [("r1", "u", 1), ("u", "c", 2), ("r2", "c", 1), ("c", "s", 2), ("c", "a1", 1), ("s", "a2", 1)],
        )
        assert check_condition(g, "Thm9") is not None
        assert verify_certificate(g, check_condition(g, "Thm9"))

    def test_rcw_guard(self):
        assert check_condition(SEARCH_ONLY, "Thm9") is None


class TestLemmaPredicates:
    def test_first_family(self):
        assert not lemma_firstfamily_ok(sg("D", "sa", [3], [1, 1]))  # degree 3
        assert lemma_firstfamily_ok(sg("D", "ss_s", [4], [1, 1, 1]))  # {1,1,B-2}
        assert not lemma_firstfamily_ok(sg("D", "ss_s", [6], [2, 2, 1]))
        assert not lemma_firstfamily_ok(sg("R", "a", [3], []))  # degree-1 weight
        assert lemma_firstfamily_ok(sg("R", "a", [1], []))
        assert lemma_firstfamily_ok(sg("D", "ss_s", [4], [1, 2]))  # {1, B+-2}
        assert not lemma_firstfamily_ok(sg("D", "ss_s", [5], [2, 2]))

    def test_family_b(self):
        assert not lemma_familyB_ok(sg("W", "s_s", [3], [1, 1]))  # odd entering total
        assert lemma_familyB_ok(sg("W", "s_s", [4], [1, 3]))
        assert not lemma_familyB_ok(sg("W", "s_s", [4], [2, 2]))
        assert lemma_familyB_ok(sg("R", "s", [5], [3, 3]))
        assert not lemma_familyB_ok(sg("R", "s", [5], [2, 4]))
        assert lemma_familyB_ok(sg("D", "ss_s", [4, 2], [3, 1]))
        assert not lemma_familyB_ok(sg("D", "ss_s", [4, 2], [2, 2]))
        assert lemma_familyB_ok(sg("D", "ss_s", [5], [3, 1, 1]))
        assert not lemma_familyB_ok(sg("D", "ss_s", [5], [2, 2, 1]))

    def test_families_dispatch(self):
        g = G(
            [("r", "R", "r"), ("u1", "W", "s_u"), ("u2", "W", "s_u"),
             ("s1", "W", "s_s"), ("s2", "W", "s_s"), ("a", "R", "a")],
            [("r", "u1", 1), ("u1", "u2", 2), ("u2", "s1", 3), ("s1", "s2", 2), ("s2", "a", 1)],
        )
        # Non-minimal interior weights; every vertex passes the loop-chain
        # conditions.
        cert = check_condition(g, "Thm10-i")
        assert cert is not None
        assert verify_certificate(g, cert)


class TestConditionTable:
    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError):
            check_condition(SPHERE, "Thm11")

    def test_realize_takes_first_applicable_row(self):
        for seed in range(100):
            for minimal in (True, False):
                g = gen_random_gs_graph(seed, size=4 + seed % 30, minimal=minimal)
                verdict = realize(g)
                first = next(
                    ((t, c) for t, _, _ in CONDITIONS if (c := check_condition(g, t)) is not None),
                    (None, None),
                )
                assert (verdict.theorem, verdict.certificate) == first

    def test_first_family_wins_tie(self):
        # Corpus graph 0337-n17g of the seed-1 decide workload: both family
        # rows apply and no earlier row does.
        g = gen_random_gs_graph(607901832, size=17)
        applicable = [t for t, _, _ in CONDITIONS if check_condition(g, t) is not None]
        assert applicable == ["Thm10-i", "Thm10-ii"]
        verdict = realize(g)
        assert verdict.theorem == "Thm10-i"
        assert verdict.certificate == check_condition(g, "Thm10-i")

    def test_one_classification_per_realize(self, monkeypatch):
        module = importlib.import_module("gsflows.realize")
        calls = []
        classify = module.classify_graph

        def counting(g):
            calls.append(g)
            return classify(g)

        monkeypatch.setattr(module, "classify_graph", counting)
        graphs = [SPHERE, T_PAIR, NON_REALIZABLE, SEARCH_ONLY]
        graphs += [gen_random_gs_graph(seed, size=12) for seed in range(20)]
        for g in graphs:
            calls.clear()
            realize(g, search_bound=3)
            assert calls == [g]


def reference_classification(g):
    """Unmemoised classification and dispatch of a closed graph, vertex by
    vertex and row by row, with the three sums taken from their formulas."""
    sgs = {vid: semigraph(g, vid) for vid in g.vertices}
    verdicts = {vid: local_realizable(s) for vid, s in sgs.items()}
    rows = tuple(row for row in CONDITIONS if all(row[2](sgs[v], verdicts[v]) for v in g.vertices))
    labels = list(g.vertices.values())
    whitney = sum(l.kind is SingularityType.WHITNEY for l in labels)
    triple = sum(l.kind is SingularityType.TRIPLE for l in labels)
    euler = euler_characteristic(*nature_totals(g), whitney, triple)
    folds = [fold_degrees(l.kind, l.nature) for l in labels]
    balanced = sum(i for i, _ in folds) == sum(o for _, o in folds)
    conley = sum(conley_index(l.kind, l.nature).euler_term for l in labels)
    assert (euler, balanced, conley) == (euler_gs(g), fold_balance(g), euler_conley(g))
    return sgs, verdicts, rows, euler, balanced, conley


def reference_realize(g):
    """(status, theorem, certificate, witness, reason) as `realize` without a bound."""
    _, verdicts, rows, euler, balanced, _ = reference_classification(g)
    bad = tuple(vid for vid, v in verdicts.items() if not v.ok)
    if bad:
        reason = "local: " + ", ".join(f"{vid}={verdicts[vid].reason}" for vid in bad)
        return NOT_REALIZABLE, None, None, bad, reason
    if not balanced:
        return NOT_REALIZABLE, None, None, (), "fold-imbalance"
    if euler.denominator != 1:
        return NOT_REALIZABLE, None, None, (), "fractional-euler-characteristic"
    if rows:
        theorem, family, _ = rows[0]
        return REALIZABLE, theorem, {i: family(e.weight) for i, e in enumerate(g.edges)}, (), None
    return UNKNOWN, None, None, (), None


def perturbed(g, k):
    """The graph with one edge one heavier, and the graph with one vertex's
    nature reversed: the first breaks local verdicts, the second also the
    fold balance when the label carries folds."""
    heavier = LyapunovGraph(dict(g.vertices), list(g.edges))
    e = heavier.edges[k % len(g.edges)]
    heavier.edges[k % len(g.edges)] = Edge(e.src, e.dst, e.weight + 1)
    reversed_ = LyapunovGraph(dict(g.vertices), list(g.edges))
    vid = list(g.vertices)[k % len(g.vertices)]
    label = g.vertices[vid]
    reversed_.vertices[vid] = VertexLabel(label.kind, reverse_nature(label.nature))
    return heavier, reversed_


@functools.cache
def generated_graphs():
    """200 generated graphs of 4 to 48 vertices, minimal and general, fixed seeds."""
    return [gen_random_gs_graph(1000 + seed, size=4 + seed % 45, minimal=minimal)
            for seed in range(100) for minimal in (True, False)]


class TestClassificationMemo:
    """`classify_graph` and `realize` against the unmemoised reference."""

    def check(self, g, reference=None):
        sgs, verdicts, rows, euler, balanced, conley = reference or reference_classification(g)
        st = classify_graph(g)
        assert st.semigraphs == sgs
        assert st.verdicts == verdicts
        assert st.rows == rows
        assert (st.euler, st.fold_balance, st.conley) == (euler, balanced, conley)
        assert st.is_gs == all(v.ok for v in verdicts.values())
        assert st.is_minimal_gs == all(v.is_minimal for v in verdicts.values())

    def test_generated_graphs(self):
        for g in generated_graphs():
            self.check(g)
            verdict = realize(g)
            got = (verdict.status, verdict.theorem, verdict.certificate, verdict.witness, verdict.reason)
            assert got == reference_realize(g)
            assert (verdict.euler, verdict.fold_balance, verdict.conley) == (
                euler_gs(g), fold_balance(g), euler_conley(g))

    def test_perturbed_graphs(self):
        balanced = set()
        for k, g in enumerate(generated_graphs()[:60]):
            for h in perturbed(g, k):
                self.check(h)
                verdict = realize(h)
                assert (verdict.status, verdict.theorem, verdict.certificate, verdict.witness,
                        verdict.reason) == reference_realize(h)
                balanced.add(verdict.fold_balance)
        assert balanced == {True, False}

    def test_more_shapes_than_the_memo_holds(self):
        # A Whitney chain r -> s_u^k -> s_s^k -> a whose vertices are all
        # distinct shapes, more of them than the memo keeps: classifying it
        # twice evicts every entry before it is read again.
        from gsflows.realize import _VERDICT_CACHE_SIZE, _vertex_facts

        k = _VERDICT_CACHE_SIZE // 2 + 8
        names = ["r", *(f"u{i}" for i in range(k)), *(f"s{i}" for i in range(k)), "a"]
        natures = {"r": "r", "u": "s_u", "s": "s_s", "a": "a"}
        g = G([(v, "R" if v in "ra" else "W", natures[v[0]]) for v in names],
              [(u, v, w) for u, v, w in zip(names, names[1:], [*range(1, k + 2), *range(k, 0, -1)])])
        reference = reference_classification(g)
        assert len(set(reference[0].values())) > _VERDICT_CACHE_SIZE
        for _ in range(2):
            self.check(g, reference)
        assert _vertex_facts.cache_info().currsize == _VERDICT_CACHE_SIZE

    def test_repeated_shapes_build_no_semigraph(self, monkeypatch):
        module = importlib.import_module("gsflows.realize")
        g = generated_graphs()[1]
        first = classify_graph(g)

        def refuse(*args):
            raise AssertionError("semi-graph built on a memo hit")

        monkeypatch.setattr(module, "SemiGraph", refuse)
        again = classify_graph(g)
        assert all(again.semigraphs[v] is first.semigraphs[v] for v in g.vertices)


class TestRealize:
    def test_dispatch_priority(self):
        assert realize(SPHERE).theorem == "Thm6"
        assert realize(T_PAIR).theorem == "Thm6"

    def test_certificates_verify(self):
        for seed in range(20):
            g = gen_random_gs_graph(seed, size=7, minimal=True)
            verdict = realize(g)
            assert verdict.theorem == "Thm6"
            assert verify_certificate(g, verdict.certificate)

    def test_local_obstruction(self):
        g = G([("r", "R", "r"), ("a", "R", "a")], [("r", "a", 2)])
        verdict = realize(g)
        assert verdict.status == NOT_REALIZABLE and "r" in verdict.witness

    def test_open_graph_rejected(self):
        g = G([("a", "R", "a")], [(None, "a", 1)])
        with pytest.raises(ValueError):
            realize(g)

    def test_cyclic_graph_rejected(self):
        g = G([("a", "R", "s"), ("b", "R", "s")], [("a", "b", 1), ("b", "a", 1)])
        with pytest.raises(ValueError, match="structurally invalid: oriented cycle"):
            realize(g)

    def test_one_validation_per_realize(self, monkeypatch):
        # `model.incidence` makes every validating pass; the search reads the
        # edge lists of the classification's pass.
        modules = [importlib.import_module(f"gsflows.{name}") for name in ("model", "realize")]
        calls = []
        incidence = modules[0].incidence

        def counting(g):
            calls.append(g)
            return incidence(g)

        for module in modules:
            monkeypatch.setattr(module, "incidence", counting)
        for g in (SPHERE, T_PAIR, NON_REALIZABLE, SEARCH_ONLY):
            calls.clear()
            realize(g, search_bound=3)
            assert calls == [g]

    def test_non_realizable_instance(self):
        st = classify_graph(NON_REALIZABLE)
        assert st.is_gs
        assert fold_balance(NON_REALIZABLE)
        assert euler_gs(NON_REALIZABLE) == euler_conley(NON_REALIZABLE) == 4
        assert realize(NON_REALIZABLE).status == UNKNOWN
        verdict = realize(NON_REALIZABLE, search_bound=3)
        assert verdict.status == NOT_REALIZABLE
        assert verdict.reason == "search-exhausted"

    def test_search_success_outside_families(self):
        assert realize(SEARCH_ONLY).status == UNKNOWN
        verdict = realize(SEARCH_ONLY, search_bound=5)
        assert verdict.status == REALIZABLE and verdict.theorem == "Search"
        assert verify_certificate(SEARCH_ONLY, verdict.certificate)
        w5 = verdict.certificate[1]
        assert w5 not in (family_A(5), family_B(5))

    def test_unknown_when_bound_too_small(self):
        verdict = realize(SEARCH_ONLY, search_bound=4)
        assert verdict.status == UNKNOWN and verdict.searched_bound == 4

    @pytest.mark.parametrize("bound", [0, -3])
    def test_bound_below_one_rejected(self, bound):
        with pytest.raises(ValueError, match="search bound must be >= 1"):
            realize(SEARCH_ONLY, search_bound=bound)

    def test_invalid_graph_error_precedes_bound_check(self):
        cyclic = G([("a", "R", "s"), ("b", "R", "s")], [("a", "b", 1), ("b", "a", 1)])
        open_graph = G([("a", "R", "a")], [(None, "a", 1)])
        for g in (cyclic, open_graph):
            for bound in (None, 0, 3):
                with pytest.raises(InvalidGraphError):
                    realize(g, search_bound=bound)
        with pytest.raises(InvalidGraphError):
            classify_graph(cyclic)
        with pytest.raises(ValueError) as err:
            realize(SEARCH_ONLY, search_bound=0)
        assert not isinstance(err.value, InvalidGraphError)

    def test_bound_clamped_to_enumeration_cap(self):
        # Undecided: the triple-crossing attractor rules out every condition.
        labels = [("D", "r"), ("D", "ss_u"), ("D", "sr"), ("D", "ss_u"), ("D", "sr"), ("W", "s_u")]
        labels += [("W", "s_s")] * 5 + [("T", "a")]
        weights = [3, 5, 7, 9, 11, 12, 11, 10, 9, 8, 7]
        g = G(
            [(f"v{i}", t, n) for i, (t, n) in enumerate(labels)],
            [(f"v{i}", f"v{i + 1}", w) for i, w in enumerate(weights)],
        )
        assert realize(g).status == UNKNOWN
        start = time.perf_counter()
        verdict = realize(g, search_bound=20)
        assert verdict.status == UNKNOWN and verdict.searched_bound == MAX_ENUM_WEIGHT == 8
        assert time.perf_counter() - start < 1.0


class TestVerifyCertificate:
    def test_infeasible_vertex_pair(self):
        cert = {0: family_A(3), 1: family_minimal(2), 2: family_minimal(1)}
        # The loop-chain form is not the repeller boundary.
        assert not verify_certificate(NON_REALIZABLE, cert)

    def test_wrong_weight(self):
        cert = {0: family_minimal(2)}
        assert not verify_certificate(SPHERE, {0: family_minimal(2)})

    def test_missing_edge(self):
        with pytest.raises(ValueError):
            verify_certificate(NON_REALIZABLE, {0: family_minimal(3)})

    def test_isolated_vertex_is_checked(self):
        g = G([("r", "R", "r"), ("a", "R", "a"), ("x", "R", "a")], [("r", "a", 1)])
        with pytest.raises(InvalidGraphError, match="vertex x: isolated"):
            verify_certificate(g, {0: family_minimal(1)})

    def test_graphs_that_realize_rejects(self):
        # Every vertex boundary of these is block-feasible, so only the
        # structure check can reject them, as `realize` does.
        cyclic = G([("a", "R", "s"), ("b", "R", "s")], [("a", "b", 1), ("b", "a", 1)])
        with pytest.raises(InvalidGraphError, match="oriented cycle: a->b->a"):
            verify_certificate(cyclic, {0: family_B(1), 1: family_B(1)})
        open_graph = G([("a", "R", "a")], [(None, "a", 1)])
        with pytest.raises(InvalidGraphError, match="closed"):
            verify_certificate(open_graph, {0: family_B(1)})
        for g in (cyclic, open_graph):
            with pytest.raises(InvalidGraphError):
                realize(g)


def _audit_by_vertex(g, cert):
    """`verify_certificate`'s definition read vertex by vertex: one connected
    form of the edge weight on every edge, and `boundary_feasible` on the
    lists of forms around every vertex."""
    ins, outs, _ = incidence(g)
    forms_fit = all(len(cert[i].components) == 1 and cert[i].total_weight == e.weight
                    for i, e in enumerate(g.edges))
    return forms_fit and all(
        boundary_feasible(label, [cert[i] for i in ins[v]], [cert[i] for i in outs[v]])
        for v, label in g.vertices.items()
    )


def _manifold_search(g):
    """Depth-first assignment of one-component manifolds per edge, in order
    of their encodings, checking each vertex with `boundary_feasible` once its
    last incident edge has a form: the first full assignment, or None."""
    ins, outs, _ = incidence(g)
    candidates = [sorted((manifold([c]) for c in enumerate_connected(e.weight)), key=lambda m: m.encode())
                  for e in g.edges]
    last = {v: max(ins[v] + outs[v], default=-1) for v in g.vertices}
    forms = [None] * len(g.edges)

    def checked(idx):
        return all(boundary_feasible(g.vertices[v], [forms[i] for i in ins[v]], [forms[i] for i in outs[v]])
                   for v in g.vertices if last[v] == idx)

    def extend(idx):
        if idx == len(g.edges):
            return True
        for m in candidates[idx]:
            forms[idx] = m
            if checked(idx) and extend(idx + 1):
                return True
        return False

    return dict(enumerate(forms)) if checked(-1) and extend(0) else None


def _light_graphs():
    """Generated graphs, minimal and general, whose edges weigh at most 5."""
    for seed in range(120):
        g = gen_random_gs_graph(seed, size=4 + seed % 5, minimal=seed % 2 == 0)
        if max(e.weight for e in g.edges) <= 5:
            yield g


class TestComponentAssignment:
    def test_audit_is_the_per_vertex_conjunction(self):
        tampers = Counter()
        for g in _light_graphs():
            verdict = realize(g, search_bound=5)
            if not verdict.realizable:
                continue
            cert = verdict.certificate
            assert verify_certificate(g, cert) and _audit_by_vertex(g, cert)
            bad = {}
            for i, e in enumerate(g.edges):
                # The double-crossing attractor block is rigid: only the
                # minimal form of weight 3 enters it.
                if e.weight == 3 and g.vertices[e.dst] == VertexLabel(SingularityType.DOUBLE, Nature.A):
                    bad["rigid-attractor"] = {**cert, i: family_A(3)}
                    break
            heaviest = max(range(len(g.edges)), key=lambda i: g.edges[i].weight)
            w = g.edges[heaviest].weight
            bad["wrong-weight"] = {**cert, heaviest: family_A(w + 1)}
            if w >= 2:
                bad["two-component"] = {**cert, heaviest: manifold([CIRCLE, *family_B(w - 1).components])}
            for why, tampered in bad.items():
                tampers[why] += 1
                assert not verify_certificate(g, tampered) and not _audit_by_vertex(g, tampered), why
            with pytest.raises(ValueError, match="misses edge"):
                verify_certificate(g, {i: m for i, m in cert.items() if i != heaviest})
        assert min(tampers[why] for why in ("rigid-attractor", "wrong-weight", "two-component")) >= 3

    def test_search_matches_manifold_backtracking(self):
        searched = found = 0
        for g in _light_graphs():
            ins, outs, _ = incidence(g)
            cert = _search(g, ins, outs)
            assert cert == _manifold_search(g)
            searched += 1
            if cert is not None:
                found += 1
                # Each distinct form is one manifold object, encoded once in a report.
                assert len({id(m) for m in cert.values()}) == len(set(cert.values()))
        assert searched > 60 and 0 < found < searched

    @pytest.mark.parametrize("bound", [4, 5])
    def test_search_only_matches_manifold_backtracking(self, bound):
        # Below its weight-5 edge the bound leaves the graph unknown, unsearched.
        expected = _manifold_search(SEARCH_ONLY) if bound >= 5 else None
        assert realize(SEARCH_ONLY, search_bound=bound).certificate == expected


def _whitney_chain(k):
    """Thm7 chain r -> s_u^k -> s_s^k -> a; its maximum edge weight is k + 1."""
    path = ["r", *(f"u{i}" for i in range(k)), *(f"s{i}" for i in range(k)), "a"]
    kinds = {"r": ("R", "r"), "u": ("W", "s_u"), "s": ("W", "s_s"), "a": ("R", "a")}
    weights = [*range(1, k + 2), *range(k, 0, -1)]
    return G([(vid, *kinds[vid[0]]) for vid in path], list(zip(path, path[1:], weights)))


class TestTheoremCertificatesVerify:
    @pytest.mark.parametrize("make, theorem", [
        (lambda: _whitney_chain(8), "Thm7"),
        (lambda: gen_random_gs_graph(1573837159, size=22, minimal=False), "Thm8"),
        (lambda: gen_random_gs_graph(730740100, size=16, minimal=False), "Thm10-ii"),
    ], ids=["whitney-chain-w9", "thm8-n22", "thm10ii-n16"])
    def test_certificate_passes_its_audit(self, make, theorem):
        # Each of these carried an even-weight circle-chain form that no
        # block realizes when that form's loop hung on a middle arc.
        g = make()
        verdict = realize(g)
        assert verdict.status == REALIZABLE and verdict.theorem == theorem
        assert verify_certificate(g, verdict.certificate)


class TestSearchAgreement:
    def test_search_and_minimal_dispatch_agree(self):
        # Exhaustive assignment and the all-minimal condition both say yes.
        for seed in range(200):
            g = gen_random_gs_graph(seed, size=4 + seed % 4, minimal=True)
            by_theorem = realize(g)
            assert by_theorem.theorem == "Thm6"
            by_search = search_only(g)
            assert by_search is not None
            assert verify_certificate(g, by_search)

    def test_realizable_graphs_pass_necessary_checks(self):
        for seed in range(50):
            g = gen_random_gs_graph(seed, size=6)
            verdict = realize(g)
            if verdict.realizable:
                assert fold_balance(g)
                assert euler_gs(g).denominator == 1


def search_only(g):
    from gsflows.model import incidence
    from gsflows.realize import _search

    ins, outs, _ = incidence(g)
    return _search(g, ins, outs)


class TestLongGraphs:
    def test_search_is_not_bounded_by_recursion_depth(self, tmp_path):
        # 1 203 edges: far more than the interpreter's default recursion limit.
        labels = [("d", "D", "r"), ("t1", "T", "ssr"), ("t2", "T", "ssa")]
        labels += [(f"s{i}", "R", "s") for i in range(1200)] + [("a", "D", "a")]
        weights = [3, 5, 3] + [3] * 1200
        g = G(labels, [(u[0], v[0], w) for u, v, w in zip(labels, labels[1:], weights)])
        assert realize(g).status == UNKNOWN
        verdict = realize(g, search_bound=5)
        assert verdict.status == REALIZABLE and verdict.theorem == "Search"
        assert verify_certificate(g, verdict.certificate)
        path = tmp_path / "long.gs"
        path.write_text(serialize_graph(g))
        assert main(["realize", str(path), "--search-bound", "5"]) == EX_OK


class TestMultiEdges:
    def test_parallel_edges_between_one_pair(self):
        # A block may hand two boundary components to the same successor.
        g = G(
            [("r", "C", "r"), ("a", "C", "a")],
            [("r", "a", 1), ("r", "a", 1)],
        )
        verdict = realize(g)
        assert verdict.theorem == "Thm6"
        assert verify_certificate(g, verdict.certificate)


class TestDeterminism:
    def test_search_certificates_are_reproducible(self):
        # Candidate forms are tried in canonical order, so repeated runs
        # return identical certificates.
        first = realize(SEARCH_ONLY, search_bound=5)
        second = realize(SEARCH_ONLY, search_bound=5)
        assert first.certificate == second.certificate

    def test_all_dispatch_paths_reachable(self):
        seen = set()
        for seed in range(120):
            g = gen_random_gs_graph(seed * 13 + 1, size=4 + seed % 9)
            bound = 4 if all(e.weight <= 4 for e in g.edges) else None
            v = realize(g, search_bound=bound)
            seen.add((v.status, v.theorem))
            if v.certificate is not None:
                assert verify_certificate(g, v.certificate)
        assert {"Thm6", "Thm7", "Thm8", "Thm9"} <= {t for _, t in seen if t}
        assert ("unknown", None) in seen
