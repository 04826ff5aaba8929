import hashlib
import itertools
import random
from collections import Counter

import pytest

from gsflows import blocks
from gsflows.blocks import (
    boundary_feasible,
    catalog_counts,
    entries_for,
    local_realizable,
    minimal_block_catalog,
    minimal_weights,
    passageway_closure,
    ph_condition_rows,
    shape_catalog,
    shape_for,
)
from gsflows.branched import (
    CIRCLE,
    BranchedComponent,
    canonical_labelling,
    down_set,
    enumerate_connected,
    family_A,
    family_B,
    family_minimal,
    manifold,
    parse_manifold,
    point_splits,
    split_off,
    suppress,
)
from gsflows import engine
from gsflows.engine import (
    BlockState,
    reachable_pairs_capped,
    state_key,
    successors,
)
from gsflows.model import (
    ADMISSIBLE_NATURES,
    LyapunovGraph,
    Nature,
    SemiGraph,
    SingularityType,
    VertexLabel,
    degree_bounds_ok,
    fold_degrees,
    parse_nature,
    parse_type,
    ph_residual,
    reverse_semigraph,
)
from gsflows.realize import lemma_familyB_ok, lemma_firstfamily_ok, realize, verify_certificate
from oracles import is_automorphism

T = SingularityType
N = Nature


def lab(t, n):
    return VertexLabel(parse_type(t), parse_nature(n))


def sg(t, n, ins, outs):
    return SemiGraph(lab(t, n), tuple(ins), tuple(outs))


class TestShapeCatalog:
    def test_lookup_present(self):
        entry = shape_for(lab("D", "ss_s"), 2, 1)
        assert entry is not None
        assert entry.min_in == (2, 2) and entry.min_out == (1,)
        row = next(r for r in ph_condition_rows() if (r.label, r.e_plus, r.e_minus) == (entry.label, 2, 1))
        assert row.text == "B+ - 3 = B-"

    def test_lookup_absent(self):
        assert shape_for(lab("D", "ss_s"), 2, 3) is None
        assert shape_for(lab("C", "s"), 2, 1) is None
        assert shape_for(lab("R", "a"), 1, 1) is None

    def test_reversed_entries_present(self):
        assert shape_for(lab("R", "s"), 2, 1) is not None
        assert shape_for(lab("D", "ss_u"), 4, 1) is not None
        assert shape_for(lab("T", "ssr"), 2, 1) is not None
        assert shape_for(lab("W", "r"), 0, 1) is not None

    def test_min_weights_satisfy_residual(self):
        for entry in shape_catalog():
            s = SemiGraph(entry.label, entry.min_in, entry.min_out)
            assert ph_residual(s) == 0

    def test_residual_vanishes_exactly_on_equation(self):
        for entry in shape_catalog():
            for b_in in itertools.product(range(1, 7), repeat=entry.e_plus):
                for b_out in itertools.product(range(1, 7), repeat=entry.e_minus):
                    s = SemiGraph(entry.label, b_in, b_out)
                    holds = sum(b_in) - sum(b_out) == sum(entry.min_in) - sum(entry.min_out)
                    assert (ph_residual(s) == 0) == holds

    def test_min_weights_pointwise_least_among_realizable(self):
        for entry in shape_catalog():
            if entry.e_plus + entry.e_minus > 3:
                continue
            for b_in in itertools.product(range(1, 7), repeat=entry.e_plus):
                for b_out in itertools.product(range(1, 7), repeat=entry.e_minus):
                    s = SemiGraph(entry.label, b_in, b_out)
                    if not local_realizable(s).ok:
                        continue
                    assert all(
                        x >= y for x, y in zip(sorted(b_in), sorted(entry.min_in))
                    )
                    assert all(
                        x >= y for x, y in zip(sorted(b_out), sorted(entry.min_out))
                    )


class TestConditionRows:
    def test_row_count(self):
        assert len(ph_condition_rows()) == 23

    def test_row_texts(self):
        texts = [r.text for r in ph_condition_rows()]
        for expected in ("B+ = 1", "b1+ = b2+ = 1", "B+ = 2", "B+ - 3 = B-", "b1+ = 7"):
            assert expected in texts

    def test_rows_in_table_order(self):
        # The weight-condition table, column by column, in its order.
        got = [f"{r.label} {r.e_plus}{r.e_minus}: {r.text}" for r in ph_condition_rows()]
        assert got == [
            "R,a 10: B+ = 1",
            "R,s 11: B+ = B-",
            "R,s 12: B+ = B- - 1",
            "C,a 20: b1+ = b2+ = 1",
            "C,s 11: B+ = B-",
            "C,s 22: B+ = B-",
            "W,a 10: B+ = 2",
            "W,s_s 11: B+ = B- + 1",
            "W,s_s 12: B+ = B-",
            "D,a 10: B+ = 3",
            "D,sa 11: B+ = B- + 2",
            "D,sa 12: B+ = B- + 1",
            "D,ss_s 11: B+ = B- + 2",
            "D,ss_s 21: B+ - 3 = B-",
            "D,ss_s 12: B+ = B- + 1",
            "D,ss_s 22: B+ = B- + 2",
            "D,ss_s 13: B+ = B-",
            "D,ss_s 23: B+ = B- + 1",
            "D,ss_s 14: B+ = B- - 1",
            "D,ss_s 24: B+ = B-",
            "T,a 10: b1+ = 7",
            "T,ssa 11: B+ = B- + 2",
            "T,ssa 12: B+ = B- + 1",
        ]

    def test_rows_match_residual(self):
        for row in ph_condition_rows():
            for b_in in itertools.product(range(1, 6), repeat=row.e_plus):
                for b_out in itertools.product(range(1, 6), repeat=row.e_minus):
                    s = SemiGraph(row.label, b_in, b_out)
                    assert (ph_residual(s) == 0) == (sum(b_in) - sum(b_out) == row.delta)


class TestMirrorRule:
    def test_reversal_keeps_verdict(self):
        cases = 0
        for entry in shape_catalog():
            for b_in in itertools.product(range(1, 7), repeat=entry.e_plus):
                for b_out in itertools.product(range(1, 7), repeat=entry.e_minus):
                    s = SemiGraph(entry.label, b_in, b_out)
                    r = reverse_semigraph(s)
                    for predicate in (local_realizable, lemma_firstfamily_ok, lemma_familyB_ok):
                        assert predicate(s) == predicate(r), (predicate.__name__, s)
                    cases += 1
        assert cases == 25104

    def test_excluded_rows_rejected(self):
        excluded = [r for r in ph_condition_rows() if shape_for(r.label, r.e_plus, r.e_minus) is None]
        assert [(str(r.label), r.e_plus, r.e_minus) for r in excluded] == [("D,ss_s", 2, 3), ("D,ss_s", 2, 4)]
        for row in excluded:
            for b_in in itertools.product(range(1, 7), repeat=row.e_plus):
                for b_out in itertools.product(range(1, 7), repeat=row.e_minus):
                    s = SemiGraph(row.label, b_in, b_out)
                    if ph_residual(s) == 0:
                        assert local_realizable(s).reason == "Thm4-exclusion"
                        assert local_realizable(reverse_semigraph(s)).reason == "Thm4-exclusion"


class TestMinimalWeights:
    def test_folds_match_model(self):
        # Shapes come from the block catalog, folds from the model's table.
        for entry in shape_catalog():
            mi, mo = minimal_weights(entry.label, entry.e_plus, entry.e_minus)
            folds = (sum(mi) - entry.e_plus, sum(mo) - entry.e_minus)
            assert folds == fold_degrees(entry.label.kind, entry.label.nature)

    def test_examples(self):
        assert minimal_weights(lab("T", "ssa"), 1, 1) == ((5,), (3,))
        assert minimal_weights(lab("C", "a"), 2, 0) == ((1, 1), ())
        assert minimal_weights(lab("T", "ssa"), 1, 2) == ((5,), (2, 2))
        assert minimal_weights(lab("D", "ss_s"), 2, 1) == ((2, 2), (1,))

    def test_absent_shape(self):
        with pytest.raises(ValueError):
            minimal_weights(lab("C", "s"), 2, 1)


class TestLocalVerdicts:
    def test_no_reasons(self):
        assert local_realizable(sg("R", "a", [2], [])).reason == "PH-violated"
        assert local_realizable(sg("D", "ss_s", [3], [1, 1, 1, 1, 1])).reason == "degree-bound"
        assert local_realizable(sg("R", "a", [1], [1])).reason == "shape-absent"

    def test_structural_exclusions(self):
        assert local_realizable(sg("D", "ss_s", [3, 2], [1, 1, 1, 2])).reason == "Thm4-exclusion"
        assert local_realizable(sg("D", "ss_s", [3, 2], [1, 1, 2])).reason == "Thm4-exclusion"
        assert local_realizable(sg("D", "ss_u", [1, 1, 2], [3, 2])).reason == "Thm4-exclusion"
        assert local_realizable(sg("D", "ss_u", [1, 1, 1, 2], [3, 2])).reason == "Thm4-exclusion"

    def test_minimal_split_exclusions(self):
        assert local_realizable(sg("D", "ss_s", [3, 1], [1])).reason == "Thm4-exclusion"
        assert local_realizable(sg("D", "ss_s", [3, 1], [1, 1])).reason == "Thm4-exclusion"
        assert local_realizable(sg("T", "ssa", [5], [3, 1])).reason == "Thm4-exclusion"
        assert local_realizable(sg("T", "ssr", [1, 3], [5])).reason == "Thm4-exclusion"
        assert local_realizable(sg("D", "ss_u", [1], [3, 1])).reason == "Thm4-exclusion"

    def test_cone_pairing(self):
        assert local_realizable(sg("C", "s", [3, 1], [2, 2])).reason == "Thm5-ii"
        verdict = local_realizable(sg("C", "s", [3, 1], [1, 3]))
        assert verdict.ok and verdict.passageways == 2

    def test_sheet_minimums(self):
        assert local_realizable(sg("D", "ss_s", [4, 1], [2])).reason == "Thm5-iii"
        assert local_realizable(sg("D", "ss_u", [2], [4, 1])).reason == "Thm5-iii"
        assert local_realizable(sg("T", "ssa", [6], [4, 1])).reason == "Thm5-iv"
        assert local_realizable(sg("T", "ssr", [4, 1], [6])).reason == "Thm5-iv"

    def test_yes_minimal(self):
        assert local_realizable(sg("R", "s", [1], [1, 1])).is_minimal
        assert local_realizable(sg("T", "ssa", [5], [2, 2])).is_minimal
        assert local_realizable(sg("D", "ss_s", [2, 2], [1, 1])).is_minimal

    def test_yes_with_passageways_counts(self):
        v = local_realizable(sg("R", "s", [3], [3]))
        assert v.ok and not v.is_minimal and v.passageways == 2
        v = local_realizable(sg("T", "ssa", [6], [3, 2]))
        assert v.ok and v.passageways == 1

    def test_minimality_criterion(self):
        # Yes-minimal exactly when both weight multisets equal the minima.
        for entry in shape_catalog():
            if entry.e_plus + entry.e_minus > 3:
                continue
            for b_in in itertools.product(range(1, 5), repeat=entry.e_plus):
                for b_out in itertools.product(range(1, 5), repeat=entry.e_minus):
                    s = SemiGraph(entry.label, b_in, b_out)
                    verdict = local_realizable(s)
                    minimal = sorted(b_in) == sorted(entry.min_in) and sorted(b_out) == sorted(entry.min_out)
                    if verdict.ok:
                        assert verdict.is_minimal == minimal


class TestCatalog:
    def test_counts(self):
        counts = catalog_counts()
        assert [counts[t] for t in (T.REGULAR, T.CONE, T.WHITNEY, T.DOUBLE, T.TRIPLE)] == [3, 3, 3, 13, 11]
        assert len(minimal_block_catalog()) == 33

    def test_attractors_unique_and_rigid(self):
        for entry in minimal_block_catalog():
            if entry.label.nature in (N.A, N.R):
                closure = passageway_closure(entry, max_total_weight=12)
                assert closure.complete and len(closure.pairs) == 1

    def test_cone_saddle_exit_options(self):
        options = {
            e.n_minus.encode()
            for e in minimal_block_catalog()
            if e.label == lab("C", "s")
        }
        assert options == {"O", "O|O"}

    def test_triple_saddle_exit_options(self):
        options = {
            e.n_minus.encode()
            for e in minimal_block_catalog()
            if e.label == lab("T", "ssa")
        }
        assert options == {
            family_minimal(3).encode(),
            family_A(3).encode(),
            "0:0,0:0|0:0,0:0",
        }

    def test_triple_common_entry_forms(self):
        by_minus = {}
        for e in minimal_block_catalog():
            if e.label == lab("T", "ssa"):
                by_minus.setdefault(e.n_minus.encode(), set()).add(e.n_plus.encode())
        common = set.intersection(*by_minus.values())
        assert family_minimal(5).encode() in common
        assert len(common) == 2

    def test_boundary_weights_are_minimal(self):
        for entry in minimal_block_catalog():
            mi, mo = minimal_weights(entry.label, entry.e_plus, entry.e_minus)
            got_in = sorted(c.weight for c in entry.n_plus.components) if entry.n_plus else []
            got_out = sorted(c.weight for c in entry.n_minus.components) if entry.n_minus else []
            assert got_in == sorted(mi) and got_out == sorted(mo)

    def test_fold_counts_match_branch_points(self):
        for entry in minimal_block_catalog():
            bp_in = sum(c.order for c in entry.n_plus.components) if entry.n_plus else 0
            bp_out = sum(c.order for c in entry.n_minus.components) if entry.n_minus else 0
            assert (bp_in, bp_out) == (entry.beta_in, entry.beta_out)

    def test_routing_shapes(self):
        entry = {e.name: e for e in minimal_block_catalog()}
        cone = entry["C_s_22"].routing
        assert len(cone) == 2 and len({i for i, _ in cone}) == 2 and len({j for _, j in cone}) == 2
        full = entry["D_sss_22"].routing
        assert len(full) == 4

    def test_reversal_swaps_its_blocks_reading(self, monkeypatch):
        # A reversed state keeps the band order and swaps the sides, so a
        # reversal takes its block's reading swapped and suppresses nothing.
        calls = []
        monkeypatch.setattr(engine, "suppress", lambda arcs: calls.append(arcs) or suppress(arcs))
        catalog = minimal_block_catalog()
        reversals = [block.reversed() for block in catalog]
        assert calls == []
        for block, rev in zip(catalog, reversals):
            assert rev.sides == engine.read_sides(rev.state)
            assert (rev.n_plus, rev.n_minus) == (block.n_minus, block.n_plus)
            assert (rev.min_in, rev.min_out) == (block.min_out, block.min_in)
            assert rev.routing == {(m, p) for p, m in block.routing}

    def test_entries_for_reversal(self):
        assert {e.e_plus for e in entries_for(lab("R", "s"))} >= {1, 2}
        names = {e.name for e in entries_for(lab("D", "r"))}
        assert names == {"D_a~rev"}

    def test_diagonal_entries(self):
        # The cone and regular saddles whose bands carry each entering arc
        # straight onto an exiting arc, and their reversals, and no others.
        diagonal = {e.name for b in minimal_block_catalog() for e in (b, b.reversed())
                    if e.rule[0] == blocks.DIAGONAL}
        assert diagonal == {f"{n}{r}" for n in ("C_s_11", "R_s_11", "C_s_22") for r in ("", "~rev")}

    def test_rules(self):
        # One feasibility rule per entry, read off its state; a reversal
        # takes its block's rule with X on the other side.
        rules = {e.name: e.rule for b in minimal_block_catalog() for e in (b, b.reversed())}
        expected = {}
        for name in rules:
            block, rev = name.removesuffix("~rev"), int(name.endswith("~rev"))
            if block in ("R_a", "C_a", "W_a", "D_a", "T_a"):
                expected[name] = (blocks.BAND_FREE, 0)
            elif block in ("C_s_11", "R_s_11", "C_s_22"):
                expected[name] = (blocks.DIAGONAL, 0)
            elif block in ("W_ss_11", "W_ss_12"):
                expected[name] = (blocks.POINT_SPLIT, rev)
            elif block == "R_s_12":
                expected[name] = (blocks.ARC_SUM, rev)
            else:
                assert block.startswith(("D_sa_", "D_sss_", "T_ssa_")), block
                expected[name] = (blocks.WALK, 0)
        assert rules == expected
        assert Counter(rule for rule, _ in rules.values()) == {
            blocks.BAND_FREE: 10, blocks.DIAGONAL: 6, blocks.POINT_SPLIT: 4, blocks.ARC_SUM: 2, blocks.WALK: 44}

    def test_entries_for_is_built_once(self):
        label = lab("T", "ssr")
        assert entries_for(label) is entries_for(label)
        assert isinstance(entries_for(label), tuple) and len(entries_for(label)) == 10


#: Per catalog entry, in catalog order, a sha256 prefix of
#: (name, label, orientable, provisional, state), so a mistyped row fails by
#: name; the exact states keep closure pairs and routing unchanged.
CATALOG_DIGESTS = (
    ("R_a", "a4e7711af8c3"),
    ("R_s_11", "102cb7a2b380"),
    ("R_s_12", "f5c458db2180"),
    ("C_a", "4cc9d6adcca3"),
    ("C_s_11", "30d073599653"),
    ("C_s_22", "4785d5cf2cbb"),
    ("W_a", "db5d172f7257"),
    ("W_ss_11", "a55bf2c6f680"),
    ("W_ss_12", "6fae76e54b1c"),
    ("D_a", "b3010335a595"),
    ("D_sa_11_or", "fc42e18c72af"),
    ("D_sa_11_non", "758a03224068"),
    ("D_sa_12", "f6bb9b613adc"),
    ("D_sss_11_a", "29cc5636b7ba"),
    ("D_sss_11_b", "305cda47c9a4"),
    ("D_sss_21", "88154cb2996a"),
    ("D_sss_12_a", "a7e41453d469"),
    ("D_sss_12_b", "dbac9b656bd2"),
    ("D_sss_22", "15616281e08f"),
    ("D_sss_13_a", "63df75e207fd"),
    ("D_sss_13_b", "12fd9c56540a"),
    ("D_sss_14", "54f80aff629d"),
    ("T_a", "93b727544153"),
    ("T_ssa_C4L_3a", "02089ff494f7"),
    ("T_ssa_LL-adj_3a", "56239eb0d080"),
    ("T_ssa_SS-adj_3a", "9f5f689c6f75"),
    ("T_ssa_SS-cross_3a", "9be0c8abe5c5"),
    ("T_ssa_LL-adj_3b", "d846078df7cc"),
    ("T_ssa_LL-opp_3b", "63a98b96253f"),
    ("T_ssa_SS-adj_3b", "410e38d0e5fb"),
    ("T_ssa_SS-cross_3b", "a50f36269c95"),
    ("T_ssa_SS-adj_f8f8", "2b719a838fed"),
    ("T_ssa_SS-cross_f8f8", "3b11bfc16634"),
)


class TestCatalogPin:
    def test_entries_match_digests(self):
        got = []
        for e in minimal_block_catalog():
            key = repr((e.name, e.label, e.orientable, e.provisional, e.state))
            got.append((e.name, hashlib.sha256(key.encode()).hexdigest()[:12]))
        assert got == list(CATALOG_DIGESTS)

    @pytest.mark.parametrize("entry", minimal_block_catalog(), ids=lambda e: e.name)
    def test_vertex_degrees_and_band_ids(self, entry):
        st = entry.state
        for kinds, arcs in ((st.plus_kinds, st.plus_arcs), (st.minus_kinds, st.minus_arcs)):
            degree = Counter(v for u, w in arcs for v in (u, w))
            assert [degree[v] for v in range(len(kinds))] == [
                {engine.MARKER: 2, engine.BRANCH: 4}[k] for k in kinds
            ]


#: Per catalog entry and its reversal, a sha256 prefix of the sorted closure
#: pairs and the complete flag at combined weight 7, so a change to the
#: closures or their text encoding fails by name.
CLOSURE_DIGESTS = (
    ("R_a", "2b2df1c60086"),
    ("R_a~rev", "7a30b977f3a4"),
    ("R_s_11", "2a03c20bcbd8"),
    ("R_s_11~rev", "2a03c20bcbd8"),
    ("R_s_12", "0024d5e6d343"),
    ("R_s_12~rev", "f86c0e9b179d"),
    ("C_a", "96ff0aad6ff1"),
    ("C_a~rev", "1992e134da61"),
    ("C_s_11", "2a03c20bcbd8"),
    ("C_s_11~rev", "2a03c20bcbd8"),
    ("C_s_22", "ae9c2208ddc4"),
    ("C_s_22~rev", "ae9c2208ddc4"),
    ("W_a", "cdf9b66d0885"),
    ("W_a~rev", "971741a54104"),
    ("W_ss_11", "8510fd05ca9f"),
    ("W_ss_11~rev", "06c8859b4c25"),
    ("W_ss_12", "7c0d6adcc6c4"),
    ("W_ss_12~rev", "204a70503c07"),
    ("D_a", "dd01813e7d3f"),
    ("D_a~rev", "02b11362bbd1"),
    ("D_sa_11_or", "b1729b794df8"),
    ("D_sa_11_or~rev", "77dcb628c09f"),
    ("D_sa_11_non", "9e389eb1ad90"),
    ("D_sa_11_non~rev", "79105dbf1f29"),
    ("D_sa_12", "21e65343fc72"),
    ("D_sa_12~rev", "c2b88d9aca74"),
    ("D_sss_11_a", "9e389eb1ad90"),
    ("D_sss_11_a~rev", "79105dbf1f29"),
    ("D_sss_11_b", "9dac2878bbf6"),
    ("D_sss_11_b~rev", "5420b3e1a079"),
    ("D_sss_21", "9781ace260f4"),
    ("D_sss_21~rev", "1eea13b19a97"),
    ("D_sss_12_a", "e042752757a6"),
    ("D_sss_12_a~rev", "48d4edcaed76"),
    ("D_sss_12_b", "0727b8bf0107"),
    ("D_sss_12_b~rev", "4f63b7ae2c7f"),
    ("D_sss_22", "b2e3da6f14c6"),
    ("D_sss_22~rev", "cb8b6e8e0eb6"),
    ("D_sss_13_a", "a45ae452b1a9"),
    ("D_sss_13_a~rev", "b36e460dc7a5"),
    ("D_sss_13_b", "dcc9f1a48091"),
    ("D_sss_13_b~rev", "feca5e711279"),
    ("D_sss_14", "6b59f9980f4e"),
    ("D_sss_14~rev", "dc3e0c8c75a1"),
    ("T_a", "a4b17af578ad"),
    ("T_a~rev", "1d2a99c71417"),
    ("T_ssa_C4L_3a", "e6e251545cb4"),
    ("T_ssa_C4L_3a~rev", "e6e251545cb4"),
    ("T_ssa_LL-adj_3a", "e6e251545cb4"),
    ("T_ssa_LL-adj_3a~rev", "e6e251545cb4"),
    ("T_ssa_SS-adj_3a", "e6e251545cb4"),
    ("T_ssa_SS-adj_3a~rev", "e6e251545cb4"),
    ("T_ssa_SS-cross_3a", "e6e251545cb4"),
    ("T_ssa_SS-cross_3a~rev", "e6e251545cb4"),
    ("T_ssa_LL-adj_3b", "e6e251545cb4"),
    ("T_ssa_LL-adj_3b~rev", "e6e251545cb4"),
    ("T_ssa_LL-opp_3b", "e6e251545cb4"),
    ("T_ssa_LL-opp_3b~rev", "e6e251545cb4"),
    ("T_ssa_SS-adj_3b", "e6e251545cb4"),
    ("T_ssa_SS-adj_3b~rev", "e6e251545cb4"),
    ("T_ssa_SS-cross_3b", "e6e251545cb4"),
    ("T_ssa_SS-cross_3b~rev", "e6e251545cb4"),
    ("T_ssa_SS-adj_f8f8", "e6e251545cb4"),
    ("T_ssa_SS-adj_f8f8~rev", "e6e251545cb4"),
    ("T_ssa_SS-cross_f8f8", "e6e251545cb4"),
    ("T_ssa_SS-cross_f8f8~rev", "e6e251545cb4"),
)


class TestClosurePin:
    def test_closures_match_digests(self):
        got = []
        for block in minimal_block_catalog():
            for e in (block, block.reversed()):
                closure = passageway_closure(e, max_total_weight=7)
                key = repr((sorted(closure.pairs), closure.complete))
                got.append((e.name, hashlib.sha256(key.encode()).hexdigest()[:12]))
        assert got == list(CLOSURE_DIGESTS)


class TestClosures:
    def test_regular_attractor_closure(self):
        entry = next(e for e in minimal_block_catalog() if e.name == "R_a")
        closure = passageway_closure(entry, max_total_weight=12)
        assert closure.pairs == frozenset({("O", "")})

    def test_moebius_reaches_loop_chain(self):
        entry = next(e for e in minimal_block_catalog() if e.name == "R_s_11")
        closure = passageway_closure(entry, max_total_weight=6)
        a3 = family_A(3).encode()
        assert (a3, a3) in closure.pairs

    def test_cone_cylinders_stay_matched(self):
        entry = next(e for e in minimal_block_catalog() if e.name == "C_s_22")
        closure = passageway_closure(entry, max_total_weight=8)
        for plus, minus in closure.pairs:
            plus_weights = sorted(c.weight for c in parse_manifold(plus).components)
            minus_weights = sorted(c.weight for c in parse_manifold(minus).components)
            assert plus_weights == minus_weights

    def test_closure_weight_deltas_match(self):
        for name in ("W_ss_12", "D_sss_12_a", "T_ssa_SS-adj_3a"):
            entry = next(e for e in minimal_block_catalog() if e.name == name)
            p0, m0 = sum(entry.min_in), sum(entry.min_out)
            closure = passageway_closure(entry, max_total_weight=p0 + m0 + 4)
            for plus, minus in closure.pairs:
                dp = parse_manifold(plus).total_weight - p0
                dm = parse_manifold(minus).total_weight - m0
                assert dp == dm >= 0

    @pytest.mark.parametrize("extra", range(5))
    def test_closure_matches_breadth_first_reference(self, extra, monkeypatch):
        # Every catalog block and its reversal, every bound from its combined
        # weight up to that weight + 4: the depth-first walk over the state
        # graph gives the pairs of a level-by-level closure that builds every
        # successor state, reads each level's own sides and shares nothing
        # with the state graph.  The bound cuts the search off exactly when
        # the block has a band.
        monkeypatch.setattr(engine, "_GRAPH", engine.StateSet())
        for block in minimal_block_catalog():
            for entry in (block, block.reversed()):
                bound = sum(entry.min_in) + sum(entry.min_out) + extra
                pairs, complete = engine.closure_pairs(entry.state, bound)
                assert pairs == _breadth_first_closure(entry.state, bound), (entry.name, bound)
                assert complete == (not entry.state.bands), entry.name

    def test_bound_below_combined_weight(self):
        # Below its own combined weight a block reaches no pair.  The search
        # is complete exactly when the block has no band, and so no move.
        bandless = []
        for block in minimal_block_catalog():
            if not block.state.bands:
                bandless.append(block.name)
            for entry in (block, block.reversed()):
                complete = not entry.state.bands
                for bound in range(sum(entry.min_in) + sum(entry.min_out)):
                    assert engine.closure_pairs(entry.state, bound) == (set(), complete), (entry.name, bound)
                    closure = passageway_closure(entry, bound)
                    assert (closure.pairs, closure.complete) == (frozenset(), complete), (entry.name, bound)
        assert bandless == ["R_a", "C_a", "W_a", "D_a", "T_a"]

    @pytest.mark.parametrize("name, bound, count", [
        ("W_ss_11", 3, 1), ("W_ss_11", 5, 3), ("W_ss_11", 7, 9), ("W_ss_11", 9, 29), ("W_ss_11", 11, 112),
        ("W_ss_11", 13, 495), ("W_ss_12", 4, 1), ("W_ss_12", 6, 2), ("W_ss_12", 8, 6), ("W_ss_12", 10, 17),
        ("W_ss_12", 12, 59), ("W_ss_12", 13, 59),
    ])
    def test_whitney_saddle_closure_is_one_point_splits(self, name, bound, count):
        # W_ss_11 reaches exactly the pairs (X, Y) with Y a connected
        # one-point split of X (`split_off`, at every branch point), and
        # W_ss_12 exactly the splits of X into two components
        # (`point_splits`), within the bound: the point split rule's set.
        # The reversal reaches the mirrored pairs.
        entry = next(e for e in minimal_block_catalog() if e.name == name)
        expected = set()
        for w in range(2, (bound + 1) // 2 + 1):
            for x in enumerate_connected(w):
                if name == "W_ss_11":
                    splits = {(y,) for v in range(x.order) for y in split_off(x, v)}
                else:
                    splits = {y for y in point_splits(x) if len(y) == 2}
                expected.update(((x,), y) for y in splits if w + sum(c.weight for c in y) <= bound)
        pairs, _ = engine.closure_pairs(entry.state, bound)
        assert pairs == expected
        assert len(pairs) == count
        assert engine.closure_pairs(entry.reversed().state, bound)[0] == {(y, x) for x, y in pairs}

    @pytest.mark.parametrize("bound, count", [(3, 1), (5, 2), (7, 5), (9, 12), (11, 36), (13, 116)])
    def test_regular_saddle_closure_is_arc_sums(self, bound, count):
        # R_s_12 reaches exactly the pairs (X, (Y1, Y2)) with X a sum of Y1
        # and Y2 along one arc of each, joined either way, within the bound:
        # the arc sum rule's set, here from a test-local sum.  The reversal
        # reaches the mirrored pairs.
        entry = next(e for e in minimal_block_catalog() if e.name == "R_s_12")
        expected = set()
        for w1, w2 in itertools.combinations_with_replacement(range(1, (bound + 1) // 2 + 1), 2):
            if 2 * (w1 + w2) - 1 <= bound:
                for y1, y2 in itertools.product(enumerate_connected(w1), enumerate_connected(w2)):
                    expected.update(((x,), tuple(sorted((y1, y2)))) for x in _arc_sums(y1, y2))
        pairs, _ = engine.closure_pairs(entry.state, bound)
        assert pairs == expected
        assert len(pairs) == count
        assert engine.closure_pairs(entry.reversed().state, bound)[0] == {(y, x) for x, y in pairs}

    def test_reversed_block_has_mirrored_closure(self):
        for entry in minimal_block_catalog():
            forward = passageway_closure(entry, max_total_weight=7)
            backward = passageway_closure(entry.reversed(), max_total_weight=7)
            assert backward.pairs == {(q, p) for p, q in forward.pairs}, entry.name
            assert backward.complete == forward.complete, entry.name


def _arc_sums(c: BranchedComponent, d: BranchedComponent) -> set[BranchedComponent]:
    """Every sum of c and d along one arc of each, by index: each arc is cut
    open, its two ends are joined to d's at two new degree-2 points x and y,
    either way round, and the result is read by `suppress`.  A circle cut
    open is one arc from x to y."""
    def pieces(comp, arc, base, near, far):
        if comp.is_circle:
            return [(near, far)]
        (u, v), rest = comp.arcs[arc], [(a + base, b + base) for a, b in comp.arcs]
        del rest[arc]
        return rest + [(u + base, near), (far, v + base)]

    x, y = c.order + d.order, c.order + d.order + 1
    out = set()
    for i in range(max(len(c.arcs), 1)):
        for j in range(max(len(d.arcs), 1)):
            for ends in ((x, y), (y, x)):
                comps, _ = suppress(pieces(c, i, 0, x, y) + pieces(d, j, c.order, *ends))
                assert len(comps) == 1
                out.add(comps[0])
    return out


def _breadth_first_closure(state: BlockState, bound: int) -> set:
    """Boundary pairs within the combined-weight bound, level by level: each
    level is every successor of the one before, one state per `state_key`."""
    def pair(s):
        (plus, _), (minus, _) = engine.read_sides(s)
        return plus, minus

    level, pairs = [state], {pair(state)}
    for _ in range((bound - sum(c.weight for side in pair(state) for c in side)) // 2):
        level = list({state_key(t): t for s in level for t in successors(s)}.values())
        pairs.update(map(pair, level))
    return pairs


def relabel_state(state: BlockState, rng: random.Random) -> BlockState:
    """The same state with shuffled vertex ids, dead-arc order and band order."""
    plus = list(range(len(state.plus_kinds)))
    minus = list(range(len(state.minus_kinds)))
    rng.shuffle(plus)
    rng.shuffle(minus)

    def kinds(old, perm):
        new = [None] * len(old)
        for i, k in enumerate(old):
            new[perm[i]] = k
        return tuple(new)

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return tuple(items)

    return BlockState(
        kinds(state.plus_kinds, plus),
        kinds(state.minus_kinds, minus),
        shuffled((plus[u], plus[v]) for u, v in state.plus_dead),
        shuffled((minus[u], minus[v]) for u, v in state.minus_dead),
        shuffled((plus[pu], plus[pv], minus[mu], minus[mv]) for pu, pv, mu, mv in state.bands),
    )


class TestStateKey:
    def test_invariant_under_relabelling(self):
        rng = random.Random(41)
        for entry in minimal_block_catalog():
            state = entry.state
            for _ in range(3):
                nxt = successors(state)
                if not nxt:
                    break
                state = rng.choice(nxt)
            key = state_key(state)
            for _ in range(3):
                assert state_key(relabel_state(state, rng)) == key

    def test_generators_are_automorphisms(self):
        # Every catalog state and reversal, under seeded random relabellings:
        # each generator the canonizer returns for its auxiliary graph maps
        # that coloured, edge-labelled graph onto itself.
        rng = random.Random(43)
        states = [s for e in minimal_block_catalog() for s in (e.state, e.state.reversed())]
        assert len(states) == 66
        generators = 0
        for state in states:
            for _ in range(3):
                colours, edges = engine._state_units(relabel_state(state, rng))
                autos = canonical_labelling(colours, edges)[2]
                assert all(is_automorphism(colours, edges, g) for g in autos), state
                generators += len(autos)
        assert generators > 0

    def test_band_pairings_stay_apart(self):
        entry = next(e for e in minimal_block_catalog() if e.name == "R_s_11")
        f8 = family_minimal(2).components
        nxt = successors(entry.state)
        assert all((suppress(s.plus_arcs)[0], suppress(s.minus_arcs)[0]) == (f8, f8) for s in nxt)

        def loops(s):
            return sum(u == v for u, v in s.plus_arcs)

        # A loop move on either band leaves a loop arc; the move joining the
        # two bands leaves none, so those states cannot be isomorphic.
        assert sorted(loops(s) for s in nxt) == [0, 1, 1]
        keys = {loops(s): set() for s in nxt}
        for s in nxt:
            keys[loops(s)].add(state_key(s))
        assert len(keys[0]) == len(keys[1]) == 1
        assert keys[0] != keys[1]


def _pair(state: BlockState) -> engine.Pair:
    return suppress(state.plus_arcs)[0], suppress(state.minus_arcs)[0]


class TestLastLevel:
    def test_pairs_match_successor_forms(self):
        # Every catalog block, its reversal and every state one move on: the
        # pair a node reads off its own canonical forms for its k-th move is
        # the forms of its k-th successor, and a relabelled copy of the state
        # reads the same pairs, each against its own successors.
        rng = random.Random(17)
        states = []
        for block in minimal_block_catalog():
            for entry in (block, block.reversed()):
                states += [entry.state, *successors(entry.state)]
        assert len(states) == 444
        for state in states:
            copy = relabel_state(state, rng)
            slots = {}
            for s in (state, copy):
                node = engine._Node(s)
                moves = node.moves
                assert node.comps == _pair(s)
                assert [pair for _, pair in moves] == [_pair(t) for t in successors(s)]
                slots[s] = Counter(pair for _, pair in moves)
            assert slots[copy] == slots[state]

    def test_moves_match_union_find_reference(self):
        # The legal band pairs of the same 444 states, listed by a union-find
        # of the raw arcs: i <= j, and the two bands' arcs share a component
        # on both sides.  A node's reading must give them in the same order.
        def components(kinds, arcs):
            parent = list(range(len(kinds)))

            def find(v):
                while parent[v] != v:
                    v = parent[v]
                return v

            for u, v in arcs:
                parent[find(u)] = find(v)
            return [find(v) for v in range(len(kinds))]

        states = []
        for block in minimal_block_catalog():
            for entry in (block, block.reversed()):
                states += [entry.state, *successors(entry.state)]
        assert len(states) == 444
        for state in states:
            plus = components(state.plus_kinds, state.plus_arcs)
            minus = components(state.minus_kinds, state.minus_arcs)
            bands = state.bands
            legal = [(i, j) for i, j in itertools.combinations_with_replacement(range(len(bands)), 2)
                     if plus[bands[i][0]] == plus[bands[j][0]] and minus[bands[i][2]] == minus[bands[j][2]]]
            assert [ij for ij, _ in engine._Node(state).moves] == legal

    def test_last_level_keys_no_state(self, monkeypatch):
        # A depth-1 walk keys no state: roots are not keyed, and a state at
        # the target's depth is only compared, so the graph gains no
        # successor node.  The Whitney saddle answers by its rule, so the
        # walk is asked of the engine directly.
        monkeypatch.setattr(engine, "_GRAPH", engine.StateSet())
        keyed = []

        def counting(state):
            keyed.append(state)
            return state_key(state)

        monkeypatch.setattr(engine, "state_key", counting)
        entry = next(e for e in entries_for(lab("W", "s_s")) if e.e_minus == 2)
        target = (family_A(3).components, tuple(sorted(family_minimal(2).components + family_minimal(1).components)))
        assert engine.reachable_pairs_capped(entry.state, target)
        assert keyed == []
        assert engine._GRAPH._nodes == {}
        assert set(engine._GRAPH._states) == {entry.state}


class TestBoundaryFeasible:
    def test_attractor_forms_exact(self):
        assert boundary_feasible(lab("D", "r"), [], [family_minimal(3)])
        assert not boundary_feasible(lab("D", "r"), [], [family_A(3)])

    def test_whitney_bifurcation_forces_loop_form(self):
        f8 = family_minimal(2)
        circle = family_minimal(1)
        assert boundary_feasible(lab("W", "s_s"), [family_A(3)], [f8, circle])
        assert not boundary_feasible(lab("W", "s_s"), [family_minimal(3)], [f8, circle])

    def test_shape_mismatch(self):
        assert not boundary_feasible(lab("R", "a"), [family_minimal(1)], [family_minimal(1)])

    def test_states_are_expanded_once(self, monkeypatch):
        # On a fresh state graph, the Whitney saddle walks with caps (5,) ->
        # (4,) and their mirrors with caps (4,) -> (5,) read no state's moves
        # twice, and a second pass over the same walks reads nothing.  The
        # block answers queries by its rule, so the engine is asked directly.
        monkeypatch.setattr(engine, "_GRAPH", engine.StateSet())
        calls = []
        move_pairs = engine._move_pairs

        def counting(state):
            calls.append(state)
            return move_pairs(state)

        monkeypatch.setattr(engine, "_move_pairs", counting)
        block = next(e for e in minimal_block_catalog() if e.name == "W_ss_11")

        def run():
            for five, four in itertools.product(enumerate_connected(5), enumerate_connected(4)):
                reachable_pairs_capped(block.state, ((five,), (four,)))
                reachable_pairs_capped(block.reversed().state, ((four,), (five,)))

        run()
        keys = [state_key(s) for s in calls]
        assert keys and len(set(keys)) == len(keys)
        calls.clear()
        run()
        assert calls == []

    def test_successors_are_kept_only_as_nodes(self, monkeypatch):
        # The state table holds the roots a walk starts from, catalog blocks
        # and their reversals; every successor it keys lives in a node only.
        monkeypatch.setattr(engine, "_GRAPH", engine.StateSet())
        block = next(e for e in minimal_block_catalog() if e.name == "W_ss_11")
        for five in enumerate_connected(5):
            reachable_pairs_capped(block.state, ((five,), family_B(4).components))
        roots = {s for e in minimal_block_catalog() for s in (e.state, e.state.reversed())}
        assert set(engine._GRAPH._states) <= roots
        assert len(engine._GRAPH._nodes) > len(engine._GRAPH._states)

    def test_chain_audit_node_count(self, monkeypatch):
        # The Thm7 Whitney chain r -> s_u^7 -> s_s^7 -> a (maximum edge
        # weight 8) verifies from a fresh state graph and leaves no node: its
        # blocks answer by their rules.  Replayed as engine walks, the same
        # queries (on the regular attractor and the Whitney saddles) leave
        # the 8 successor nodes, from 2 roots, of a walk that judges each
        # move by the pair read off its parent and makes a successor only
        # when it takes that move off its stack (74 nodes when each kept
        # move's successor was made as it was stacked, 731 when every
        # successor was keyed); a walk that built more would show here.
        monkeypatch.setattr(engine, "_GRAPH", engine.StateSet())
        blocks._feasible.cache_clear()
        asked = []
        entry_feasible = blocks._entry_feasible

        def recording(entry, target):
            answer = entry_feasible(entry, target)
            asked.append((entry, target, answer))
            return answer

        monkeypatch.setattr(blocks, "_entry_feasible", recording)
        g = LyapunovGraph()
        path = ["r", *(f"u{i}" for i in range(7)), *(f"s{i}" for i in range(7)), "a"]
        for vid in path:
            nature = {"r": N.R, "a": N.A, "u": N.S_U, "s": N.S_S}[vid[0]]
            g.add_vertex(vid, T.REGULAR if vid in "ra" else T.WHITNEY, nature)
        for src, dst, w in zip(path, path[1:], [*range(1, 9), *range(7, 0, -1)]):
            g.add_edge(src, dst, w)
        verdict = realize(g)
        assert verdict.theorem == "Thm7"
        assert verify_certificate(g, verdict.certificate)
        assert (len(engine._GRAPH._nodes), len(engine._GRAPH._states)) == (0, 0)
        walked = [(entry, target, answer) for entry, target, answer in asked if _admissible(entry, target)]
        assert {entry.rule[0] for entry, _, _ in walked} == {blocks.BAND_FREE, blocks.POINT_SPLIT}
        for entry, target, answer in walked:
            assert reachable_pairs_capped(entry.state, target) == answer
        assert (len(engine._GRAPH._nodes), len(engine._GRAPH._states)) == (8, 2)

    def test_walks_make_only_the_nodes_they_take(self, monkeypatch):
        # An accepting walk stops at its first hit with moves still on its
        # stack.  A successor is made only when a walk takes its move off
        # the stack, so every node on a fresh state graph was yielded by a
        # walk.  The targets are pairs of the D_sa saddle blocks' closures
        # two or more moves from the root, so each walk has a stack to leave.
        targets = []
        for block in minimal_block_catalog():
            if block.rule[0] == blocks.WALK and block.name.startswith("D_sa"):
                total = sum(block.min_in) + sum(block.min_out)
                pairs, _ = engine.closure_pairs(block.state, total + 6)
                targets += [(block.state, t) for t in sorted(pairs)
                            if sum(c.weight for side in t for c in side) >= total + 4]
        monkeypatch.setattr(engine, "_GRAPH", engine.StateSet())
        yielded = set()
        walk = engine._walk

        def recording(root, depth, keep):
            for node, level in walk(root, depth, keep):
                yielded.add(node)
                yield node, level

        monkeypatch.setattr(engine, "_walk", recording)
        assert targets and all(reachable_pairs_capped(state, t) for state, t in targets)
        made = set(engine._GRAPH._nodes.values())
        assert made and made <= yielded

    def test_closed_form_agrees_with_engine(self, monkeypatch):
        # Every diagonal entry and its reversal, every pair of per-side cap
        # tuples with caps up to 4, every target pair of the cap weights: the
        # closed form answers as the targeted engine walk on a fresh state
        # graph does.  Cap pairs of unequal totals are left out, since the
        # weight check rejects them before either answer.  C_s_11 also
        # reaches every diagonal target at (5,)/(5,); its 90 off-diagonal
        # targets there take half a minute of walking, so they are not run.
        monkeypatch.setattr(engine, "_GRAPH", engine.StateSet())
        queries = []
        for block in minimal_block_catalog():
            for entry in (block, block.reversed()):
                if entry.rule[0] != blocks.DIAGONAL:
                    continue
                caps = list(itertools.combinations_with_replacement(range(1, 5), entry.e_plus))
                for caps_p, caps_m in itertools.product(caps, caps):
                    if sum(caps_p) == sum(caps_m):
                        for target in itertools.product(_side_targets(caps_p), _side_targets(caps_m)):
                            queries.append((entry, caps_p, caps_m, target))
                if block.name == "C_s_11":
                    queries += [(entry, (5,), (5,), ((c,), (c,))) for c in enumerate_connected(5)]
        hits = 0
        for entry, caps_p, caps_m, target in queries:
            closed = blocks._entry_feasible(entry, target)
            walked = reachable_pairs_capped(entry.state, target)
            assert closed == walked, (entry.name, caps_p, caps_m, target)
            hits += closed
        assert len(queries) > 600 and 0 < hits < len(queries)

    def test_diagonal_queries_never_walk(self, monkeypatch):
        # Cone saddles with one component per side are decided by C_s_11
        # alone, in closed form: feasible exactly on equal forms.
        def no_walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(engine, "_GRAPH", engine.StateSet())
        monkeypatch.setattr(engine, "successors", no_walk)
        monkeypatch.setattr(engine, "reachable_pairs_capped", no_walk)
        blocks._feasible.cache_clear()
        fives = [manifold([c]) for c in enumerate_connected(5)]
        for a, b in itertools.product(fives, fives):
            assert boundary_feasible(lab("C", "s"), [a], [b]) == (a == b)

    def test_rules_agree_with_engine(self, monkeypatch):
        # Every entry and reversal, every target of its component counts
        # whose sides grow by equal weights, combined weight 9 or less: the
        # entry's rule answers as the targeted walk on a fresh state graph,
        # and a walk entry, whose rule is that walk, answers as membership in
        # its unpruned closure at combined weight 9.
        monkeypatch.setattr(engine, "_GRAPH", engine.StateSet())
        queries = []
        for block in minimal_block_catalog():
            for entry in (block, block.reversed()):
                p0, m0 = sum(entry.min_in), sum(entry.min_out)
                for k in range((9 - p0 - m0) // 2 + 1):
                    for caps_p in _partitions(p0 + k, entry.e_plus):
                        for caps_m in _partitions(m0 + k, entry.e_minus):
                            for target in itertools.product(_side_targets(caps_p), _side_targets(caps_m)):
                                queries.append((entry, target))
        closures = {e.state: engine.closure_pairs(e.state, 9)[0] for e, _ in queries if e.rule[0] == blocks.WALK}

        def reference(e, t):
            return t in closures[e.state] if e.rule[0] == blocks.WALK else reachable_pairs_capped(e.state, t)

        mismatched = [(e.name, t) for e, t in queries if blocks._entry_feasible(e, t) != reference(e, t)]
        assert mismatched == []
        assert len(queries) == 1514 and len(closures) == 44
        # The engine has no mirror of its own: each walk block's reversal,
        # walked from its own state, reaches exactly the mirrored targets.
        walked = [(e, t) for e, t in queries if e.rule[0] == blocks.WALK and not e.name.endswith("~rev")]
        unmirrored = [(e.name, t) for e, t in walked
                      if reachable_pairs_capped(e.state.reversed(), t[::-1]) != reachable_pairs_capped(e.state, t)]
        assert unmirrored == []
        assert len(walked) > 0 and any(reachable_pairs_capped(e.state, t) for e, t in walked)
        hits = Counter(e.rule[0] for e, t in queries if blocks._entry_feasible(e, t))
        assert all(hits[rule] > 0 for rule in (blocks.BAND_FREE, blocks.DIAGONAL, blocks.POINT_SPLIT,
                                               blocks.ARC_SUM, blocks.WALK))

    def test_reversed_natures_ask_the_blocks(self, monkeypatch):
        # Every label of a nature the catalog lists only through reversed
        # blocks, every weight-admissible target of its entries at combined
        # weight 9 or less: the table answers as its reversed entries do,
        # each by its own rule or walk, and the engine is asked only about
        # catalog blocks' own states, every walk block's among them.
        monkeypatch.setattr(engine, "_GRAPH", engine.StateSet())
        blocks._feasible.cache_clear()
        queries = []
        for label in {e.label for b in minimal_block_catalog() for e in (b, b.reversed())}:
            if label.nature not in blocks._REVERSED:
                continue
            for entry in entries_for(label):
                p0, m0 = sum(entry.min_in), sum(entry.min_out)
                for k in range((9 - p0 - m0) // 2 + 1):
                    for caps_p in _partitions(p0 + k, entry.e_plus):
                        for caps_m in _partitions(m0 + k, entry.e_minus):
                            queries += [(label, t) for t in itertools.product(_side_targets(caps_p),
                                                                               _side_targets(caps_m))]
        queries = list(dict.fromkeys(queries))
        answers = [blocks._feasible(label, t) for label, t in queries]
        walk_blocks = {b.state for b in minimal_block_catalog() if b.rule[0] == blocks.WALK}
        assert set(engine._GRAPH._states) == walk_blocks
        direct = [any(blocks._entry_feasible(e, t) for e in entries_for(label)) for label, t in queries]
        assert answers == direct
        assert 0 < sum(answers) < len(answers)

    def test_band_free_queries_never_walk(self, monkeypatch):
        # Attractors and repellers are decided by their band-free blocks
        # alone: feasible exactly on the block's own pair.
        _forbid_walks(monkeypatch)
        hits = 0
        for block in minimal_block_catalog():
            if block.rule[0] != blocks.BAND_FREE:
                continue
            for entry in (block, block.reversed()):
                own = tuple([manifold([c]) for c in comps] for comps, _ in entry.sides)
                assert boundary_feasible(entry.label, *own)
                hits += 1
                for w in range(1, 6):
                    for c in enumerate_connected(w):
                        sides = ([manifold([c])], []) if entry.e_plus else ([], [manifold([c])])
                        assert boundary_feasible(entry.label, *sides) == (sides == own), (entry.name, c)
        assert hits == 10

    def test_point_split_queries_never_walk(self, monkeypatch):
        # Whitney saddles are decided by the point split rule alone: one
        # component per side is feasible exactly on a connected split, at
        # some branch point, and the mirror for the reversed nature.
        _forbid_walks(monkeypatch)
        fours = enumerate_connected(4)
        hits = 0
        for five in enumerate_connected(5):
            splits = {y for v in range(five.order) for y in split_off(five, v)}
            for four in fours:
                expected = four in splits
                assert boundary_feasible(lab("W", "s_s"), [manifold([five])], [manifold([four])]) == expected
                assert boundary_feasible(lab("W", "s_u"), [manifold([four])], [manifold([five])]) == expected
                hits += expected
        assert 0 < hits < len(fours) * len(enumerate_connected(5))

    def test_arc_sum_queries_never_walk(self, monkeypatch):
        # Regular saddles are decided by the diagonal and arc sum rules
        # alone: one component against two is feasible exactly on an arc
        # sum, in either direction.  Both joins of the cut ends first give
        # different sums at weights (4, 4).
        _forbid_walks(monkeypatch)
        hits = total = 0
        for w1, w2 in ((1, 4), (2, 3), (4, 4)):
            pairs = list(itertools.combinations_with_replacement(enumerate_connected(w1), 2)) if w1 == w2 \
                else list(itertools.product(enumerate_connected(w1), enumerate_connected(w2)))
            sums = {pair: _arc_sums(*pair) for pair in pairs}
            candidates = set().union(*sums.values())
            for (y1, y2), own in sums.items():
                parts = [manifold([y1]), manifold([y2])]
                for x in candidates:
                    expected = x in own
                    assert boundary_feasible(lab("R", "s"), [manifold([x])], parts) == expected
                    assert boundary_feasible(lab("R", "s"), parts, [manifold([x])]) == expected
                    hits += expected
                    total += 1
        assert 0 < hits < total

    def test_repeated_query_walks_once(self, monkeypatch):
        # A double-crossing saddle query walks (D_sss_22); the same target
        # with its forms in another order is answered from the table.
        calls = []

        def counting(*args):
            calls.append(args)
            return reachable_pairs_capped(*args)

        monkeypatch.setattr(engine, "reachable_pairs_capped", counting)
        blocks._feasible.cache_clear()
        f8, circle, a3 = family_minimal(2), family_minimal(1), family_A(3)
        assert boundary_feasible(lab("D", "ss_s"), [a3, f8], [f8, circle])
        first = len(calls)
        assert first > 0
        assert boundary_feasible(lab("D", "ss_s"), [f8, a3], [circle, f8])
        assert len(calls) == first

    def test_mirror_queries_are_separate_keys(self):
        # A query and its mirror with sides swapped are two keys, each with
        # its own answer; the label and the caps are part of the key.
        blocks._feasible.cache_clear()
        f8, circle, a3, m3 = family_minimal(2), family_minimal(1), family_A(3), family_minimal(3)
        assert boundary_feasible(lab("W", "s_s"), [a3], [f8, circle])
        assert boundary_feasible(lab("W", "s_u"), [f8, circle], [a3])
        assert not boundary_feasible(lab("W", "s_s"), [m3], [f8, circle])
        assert not boundary_feasible(lab("W", "s_u"), [f8, circle], [m3])
        assert not boundary_feasible(lab("W", "s_u"), [a3], [f8, circle])
        # A W s_u query is answered as its mirror, a W s_s query: the second
        # and fourth find their answers under the first and third keys, and
        # the fifth adds its mirror's key too, so five queries leave six keys.
        info = blocks._feasible.cache_info()
        assert (info.currsize, info.hits) == (6, 2)
        # Two circles as one form or as two: the same target, other caps.
        two = parse_manifold("O|O")
        assert boundary_feasible(lab("C", "s"), [circle, circle], [circle, circle])
        assert not boundary_feasible(lab("C", "s"), [two], [two])

    def test_multi_component_forms_ask_no_query(self, monkeypatch):
        # Moves never merge or split components, so a form of two or more
        # components on either side is infeasible; it is answered without an
        # answer-table entry and without a walk.
        calls = []
        walk = engine.reachable_pairs_capped
        monkeypatch.setattr(engine, "reachable_pairs_capped", lambda *args: calls.append(args) or walk(*args))
        blocks._feasible.cache_clear()
        circle, f8 = family_minimal(1), family_minimal(2)
        for multi in (parse_manifold("O|O"), manifold([CIRCLE, *f8.components])):
            for label in (lab("C", "s"), lab("W", "s_s")):
                for ins, outs in (([multi], [multi]), ([multi], [f8]), ([f8], [multi]),
                                  ([family_A(3)], [multi]), ([family_A(3)], [multi, circle])):
                    assert not boundary_feasible(label, ins, outs), (label, ins, outs)
        assert blocks._feasible.cache_info().currsize == 0
        assert calls == []

    def test_prune_matches_components_in_any_order(self):
        # Sorted targets rarely need it at catalog sizes, but a state's
        # components may match the target's in any order.
        three_a, three_b = family_minimal(3).components[0], family_A(3).components[0]
        pair = ((CIRCLE, three_a), ())
        assert engine._can_grow_into(pair, ((down_set(three_a), down_set(three_b)), ()))
        assert not engine._can_grow_into(pair, ((down_set(three_b), down_set(three_b)), ()))

    def test_targeted_walk_agrees_with_unpruned_walk(self, monkeypatch):
        # Every catalog block and its reversal, per-side cap totals up to 6,
        # depth up to 2, every target pair of the cap weights: the pruned
        # walk reaches the target exactly when the target is in the unpruned
        # closure at its combined weight.  Each side runs on a fresh state
        # graph.
        queries = []
        for block in minimal_block_catalog():
            for entry in (block, block.reversed()):
                for k in range(3):
                    tp, tm = sum(entry.min_in) + k, sum(entry.min_out) + k
                    if tp > 6 or tm > 6:
                        continue
                    for caps_p in _partitions(tp, entry.e_plus):
                        for caps_m in _partitions(tm, entry.e_minus):
                            for target in itertools.product(_side_targets(caps_p), _side_targets(caps_m)):
                                queries.append((entry.state, caps_p, caps_m, target))

        monkeypatch.setattr(engine, "_GRAPH", engine.StateSet())
        pruned = [reachable_pairs_capped(s, t) for s, p, m, t in queries]
        monkeypatch.setattr(engine, "_GRAPH", engine.StateSet())
        closures = {}
        for s, p, m, _ in queries:
            if (s, sum(p) + sum(m)) not in closures:
                closures[s, sum(p) + sum(m)] = engine.closure_pairs(s, sum(p) + sum(m))[0]
        unpruned = [t in closures[s, sum(p) + sum(m)] for s, p, m, t in queries]
        assert len(queries) > 1000 and 0 < sum(unpruned) < len(queries)
        assert pruned == unpruned


class TestLocalAgainstBlocks:
    def test_local_verdicts_match_block_feasibility(self):
        """Every admissible label, every degree with e+ + e- <= 4 and every
        edge weight up to 5 that passes the Poincare-Hopf residual and the
        degree bounds: `local_realizable` says yes exactly when some choice
        of one connected form per edge is block-feasible.
        """
        cases, disagree = 0, []
        for kind in SingularityType:
            for nature in ADMISSIBLE_NATURES[kind]:
                label = VertexLabel(kind, nature)
                for e_plus, e_minus in itertools.product(range(5), repeat=2):
                    if not 0 < e_plus + e_minus <= 4:
                        continue
                    for ins, outs in itertools.product(_weights(e_plus), _weights(e_minus)):
                        sg = SemiGraph(label, ins, outs)
                        if ph_residual(sg) != 0 or not degree_bounds_ok(sg):
                            continue
                        cases += 1
                        feasible = any(
                            blocks._feasible(label, (tuple(sorted(p)), tuple(sorted(m))))
                            for p in itertools.product(*map(enumerate_connected, ins))
                            for m in itertools.product(*map(enumerate_connected, outs)))
                        if feasible != local_realizable(sg).ok:
                            disagree.append((str(label), ins, outs, feasible))
        assert cases == 404
        assert disagree == []


def _weights(degree: int) -> list[tuple[int, ...]]:
    """Sorted weight tuples of `degree` edges, each weight 1 to 5."""
    return list(itertools.combinations_with_replacement(range(1, 6), degree))


class TestDegreeTwoFamilySweep:
    @pytest.mark.parametrize("family", [family_A, family_B], ids=["family_A", "family_B"])
    def test_uniform_family_forms(self, family):
        """One entering and one exiting edge, weights 1 to 10, every label but
        the triple crossings: some block realizes the two family forms at
        every vertex `local_realizable` accepts.

        The theorems' certificates are these forms, so a shape listed here
        would be a `realizable` verdict whose certificate fails its audit.
        """
        accepted, infeasible = 0, set()
        for kind in SingularityType:
            if kind is T.TRIPLE:
                continue
            for nature in ADMISSIBLE_NATURES[kind]:
                label = VertexLabel(kind, nature)
                for w_in, w_out in itertools.product(range(1, 11), repeat=2):
                    if not local_realizable(SemiGraph(label, (w_in,), (w_out,))).ok:
                        continue
                    accepted += 1
                    if not boundary_feasible(label, [family(w_in)], [family(w_out)]):
                        infeasible.add((str(label), w_in, w_out))
        assert accepted == 70
        assert infeasible == set()


def _forbid_walks(monkeypatch) -> None:
    """A fresh state graph and answer table, with every engine walk an error."""
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(engine, "_GRAPH", engine.StateSet())
    monkeypatch.setattr(engine, "successors", no_walk)
    monkeypatch.setattr(engine, "reachable_pairs_capped", no_walk)
    blocks._feasible.cache_clear()


def _admissible(entry, target) -> bool:
    """Whether the target has the entry's component counts and grows both sides by one weight."""
    counts = (entry.e_plus, entry.e_minus) == tuple(map(len, target))
    growth = {sum(c.weight for c in side) - sum(m) for side, m in zip(target, (entry.min_in, entry.min_out))}
    return counts and len(growth) == 1 and min(growth) >= 0


def _partitions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Sorted tuples of `parts` positive weights summing to `total`."""
    if parts == 0:
        return [()] if total == 0 else []
    return [
        caps
        for caps in itertools.combinations_with_replacement(range(1, total + 1), parts)
        if sum(caps) == total
    ]


def _side_targets(caps: tuple[int, ...]) -> set[tuple[BranchedComponent, ...]]:
    """Sorted component tuples of every disjoint union of connected forms with these weights."""
    return {tuple(sorted(comps)) for comps in itertools.product(*(enumerate_connected(w) for w in caps))}
