import hashlib
import json
import re

import pytest

from gsflows.branched import CIRCLE, family_A, manifold
from gsflows.documents import (
    ParseError,
    export_dot,
    parse_graph,
    report_certificate,
    report_document,
    report_to_json,
    serialize_graph,
)
from gsflows.generator import gen_random_gs_graph
from gsflows.model import LABELS_BY_WORDS, OPEN, Nature, SingularityType, VertexLabel
from gsflows.realize import realize, verify_certificate

SPHERE_DOC = """gsgraph v1
vertex a R a
vertex r R r
edge r a 1
"""


class TestParse:
    def test_two_vertex_document(self):
        g = parse_graph(SPHERE_DOC)
        assert set(g.vertices) == {"a", "r"}
        assert len(g.edges) == 1 and g.edges[0].weight == 1

    def test_case_insensitive_enums(self):
        g = parse_graph("gsgraph v1\nvertex v t SSa\nedge OPEN v 5\n")
        assert str(g.vertices["v"]) == "T,ssa"
        g = parse_graph("gsgraph v1\nvertex v D Ss_S\nedge OPEN v 3\nedge v OPEN 1\n")
        assert str(g.vertices["v"]) == "D,ss_s"

    @pytest.mark.parametrize("words, kind, nature", [
        ("R a", SingularityType.REGULAR, Nature.A),
        ("r A", SingularityType.REGULAR, Nature.A),
        ("w S_S", SingularityType.WHITNEY, Nature.S_S),
        ("D Ss_s", SingularityType.DOUBLE, Nature.SS_S),
        ("T ssa\t", SingularityType.TRIPLE, Nature.SSA),
        ("c\t r", SingularityType.CONE, Nature.R),
    ])
    def test_label_spellings(self, words, kind, nature):
        # Canonical spellings take the shared label of `LABELS_BY_WORDS`;
        # other cases and words with a trailing tab go through the enum
        # parsers.
        g = parse_graph(f"gsgraph v1\nvertex v {words}\n")
        assert g.vertices["v"] == VertexLabel(kind, nature)
        if words == f"{kind.value} {nature.value}":
            assert g.vertices["v"] is LABELS_BY_WORDS[(kind.value, nature.value)]

    @pytest.mark.parametrize("words, col, message", [
        ("Rr a", 10, "unknown singularity type 'Rr'"),
        ("R\tx a", 10, "unknown singularity type 'R\\tx'"),
        ("w s-s", 12, "unknown nature 's-s'"),
        ("D ss", 12, "unknown nature 'ss'"),
        ("d SA\tb", 12, "unknown nature 'SA\\tb'"),
    ])
    def test_unknown_label_words_keep_positions(self, words, col, message):
        with pytest.raises(ParseError) as err:
            parse_graph(f"gsgraph v1\nvertex v {words}\n")
        assert (err.value.line, err.value.col) == (2, col)
        assert str(err.value) == f"line 2, col {col}: {message}"

    def test_open_ends(self):
        g = parse_graph("gsgraph v1\nvertex v R s\nedge OPEN v 1\nedge v open 1\n")
        assert g.edges[0].src is OPEN and g.edges[1].dst is OPEN
        assert not g.is_closed()

    def test_comments_and_blanks(self):
        g = parse_graph("gsgraph v1\n\n# a comment\nvertex v R a  # trailing\nedge OPEN v 1\n")
        assert set(g.vertices) == {"v"}

    def test_inadmissible_nature_position(self):
        with pytest.raises(ParseError) as err:
            parse_graph("gsgraph v1\nvertex v R sa\n")
        assert err.value.line == 2 and err.value.col == 12

    def test_duplicate_vertex(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph("gsgraph v1\nvertex v R a\nvertex v R r\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="unknown directive"):
            parse_graph("gsgraph v1\nnode v R a\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_graph("vertex v R a\n")

    def test_bad_weight(self):
        with pytest.raises(ParseError, match="integer"):
            parse_graph("gsgraph v1\nvertex v R a\nedge OPEN v x\n")
        with pytest.raises(ParseError, match=">= 1"):
            parse_graph("gsgraph v1\nvertex v R a\nedge OPEN v 0\n")

    def test_weight_with_leading_zero(self):
        assert parse_graph("gsgraph v1\nvertex v R a\nedge OPEN v 03\n").edges[0].weight == 3

    def test_unknown_vertex_reference(self):
        with pytest.raises(ParseError, match="unknown vertex"):
            parse_graph("gsgraph v1\nvertex v R a\nedge w v 1\n")

    @pytest.mark.parametrize("vid", ["open", "OPEN", "oPeN"])
    def test_vertex_id_reads_as_open(self, vid):
        # An edge end spelled like the id would be read as a dangling end.
        with pytest.raises(ParseError, match="reserved") as err:
            parse_graph(f"gsgraph v1\nvertex {vid} R r\nedge {vid} OPEN 1\n")
        assert err.value.line == 2 and err.value.col == 8


H = "gsgraph v1\n"
V = H + "vertex v R a\n"

# One row per ParseError branch: (document, line, col, message).  Runs of
# spaces and trailing comments move the columns away from the word index.
PARSE_ERRORS = {
    "empty": ("", 1, 1, "empty document"),
    "only-comments": ("\n  \n# note\n", 1, 1, "expected header 'gsgraph v1'"),
    "missing-header": ("vertex v R a\n", 1, 1, "expected header 'gsgraph v1'"),
    "wrong-header": ("  gsgraph   v2  # old\n", 1, 3, "expected header 'gsgraph v1'"),
    "vertex-arity-short": (H + "vertex  v  R\n", 2, 1, "vertex takes: id type nature"),
    "vertex-arity-long": (H + "  vertex v R a extra # x\n", 2, 3, "vertex takes: id type nature"),
    "reserved-id": (H + "vertex   Open R r\n", 2, 10, "vertex id 'Open' is reserved for dangling edge ends"),
    "duplicate-id": (V + "vertex  v   R r   # again\n", 3, 9, "duplicate vertex id 'v'"),
    "unknown-type": (H + "vertex v  Q a\n", 2, 11, "unknown singularity type 'Q'"),
    "unknown-nature": (H + "vertex v R   zz # note\n", 2, 14, "unknown nature 'zz'"),
    "inadmissible-label": (H + "vertex v  R  sa\n", 2, 14, "nature sa not admissible for type R"),
    "edge-arity": (V + " edge OPEN v\n", 3, 2, "edge takes: src dst weight"),
    "weight-word": (V + "edge OPEN  v   x # w\n", 3, 16, "weight must be an integer, got 'x'"),
    "weight-fraction": (V + "edge OPEN v 1.5\n", 3, 13, "weight must be an integer, got '1.5'"),
    "weight-underscore": (V + "edge OPEN v  1_0\n", 3, 14, "weight must be an integer, got '1_0'"),
    "weight-plus": (V + "edge OPEN v +3 # x\n", 3, 13, "weight must be an integer, got '+3'"),
    "weight-arabic-digit": (V + "edge OPEN   v \u0663\n", 3, 15, "weight must be an integer, got '\u0663'"),
    "weight-zero": (V + "edge  OPEN v  0\n", 3, 15, "weight must be >= 1"),
    "weight-negative": (V + "edge OPEN v -1\n", 3, 13, "weight must be >= 1"),
    "unknown-directive": (V + "   node v R a\n", 3, 4, "unknown directive 'node'"),
    "unknown-reference": (V + "edge w v 1\n\n# tail\n", 3, 6, "edge 0 references unknown vertex 'w'"),
    "unknown-reference-later": (
        V + "edge v  OPEN 1\nedge OPEN  u 2   # x\n",
        4,
        12,
        "edge 1 references unknown vertex 'u'",
    ),
}


@pytest.mark.parametrize("doc, line, col, message", PARSE_ERRORS.values(), ids=PARSE_ERRORS.keys())
def test_parse_diagnostics(doc, line, col, message):
    with pytest.raises(ParseError) as err:
        parse_graph(doc)
    assert (err.value.line, err.value.col, str(err.value)) == (line, col, f"line {line}, col {col}: {message}")


class TestRoundTrip:
    def test_serialize_parse_identity_on_canonical(self):
        doc = serialize_graph(parse_graph(SPHERE_DOC))
        assert serialize_graph(parse_graph(doc)) == doc

    def test_parse_serialize_canonicalizes(self):
        shuffled = "gsgraph v1\nvertex r R r\nvertex a R a\nedge r a 1\n"
        assert serialize_graph(parse_graph(shuffled)) == serialize_graph(parse_graph(SPHERE_DOC))

    def test_generated_graphs_round_trip(self):
        for seed in range(10):
            g = gen_random_gs_graph(seed, size=8)
            doc = serialize_graph(g)
            again = parse_graph(doc)
            assert serialize_graph(again) == doc
            assert again.vertices == g.vertices


class TestGenerator:
    def test_pinned_documents(self):
        # The shape order feeds the generator's moves, so this pins it too.
        expected = {
            False: "484c2267b713daea9be6aa7c553bf106889f6da41fd8a66dae25a85c09cf2a51",
            True: "229fc7e000f5d92f3b9f1e9949f3b7ede7513ab38e26a62f3b95652188d42644",
        }
        for minimal, digest in expected.items():
            docs = "".join(
                serialize_graph(gen_random_gs_graph(s, size=4 + s % 40, minimal=minimal)) for s in range(200)
            )
            assert hashlib.sha256(docs.encode()).hexdigest() == digest

    def test_size_below_two_rejected(self):
        with pytest.raises(ValueError, match="size must be >= 2"):
            gen_random_gs_graph(1, size=1)


class TestDot:
    def test_counts_match(self):
        g = gen_random_gs_graph(3, size=8)
        dot = export_dot(g)
        node_lines = [l for l in dot.splitlines() if "[label=" in l and "->" not in l]
        arc_lines = [l for l in dot.splitlines() if "->" in l]
        assert len(node_lines) == len(g.vertices)
        assert len(arc_lines) == len(g.edges)

    def test_open_ends_get_points(self):
        g = parse_graph("gsgraph v1\nvertex v R s\nedge OPEN v 1\nedge v OPEN 1\n")
        dot = export_dot(g)
        assert dot.count("shape=point") == 2

    def test_open_end_names_avoid_vertex_ids(self):
        # A vertex may take the name an open end's point would have had: the
        # point gets another name, every node is declared once, and the open
        # edge starts at a point, not at that vertex.
        doc = ("gsgraph v1\nvertex __open0 R s\nvertex a R a\nvertex r R r\n"
               "edge r __open0 1\nedge __open0 a 1\nedge OPEN a 1\n")
        dot = export_dot(parse_graph(doc))
        declared = re.findall(r'^  ("[^"]*") \[', dot, re.M)
        assert len(declared) == len(set(declared)) == 4
        points = re.findall(r'^  ("[^"]*") \[shape=point', dot, re.M)
        assert len(points) == 1 and points[0] != '"__open0"'
        assert f'  {points[0]} -> "a" [label="1"];' in dot.splitlines()

    def test_ids_are_escaped(self):
        ids = ['a"b', "c\\", 'd\\"e', "plain"]
        doc = "gsgraph v1\n" + "".join(f"vertex {v} R s\n" for v in ids)
        doc += "".join(f"edge {u} {v} 1\n" for u, v in zip(ids, ids[1:])) + "edge OPEN a\"b 1\n"
        dot = export_dot(parse_graph(doc))
        quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
        for line in dot.splitlines():
            assert '"' not in quoted.sub("", line), line
        names = re.findall(r'^  ("(?:[^"\\]|\\.)*") \[label="', dot, re.M)
        assert sorted(re.sub(r"\\(.)", r"\1", n[1:-1]) for n in names) == sorted(ids)


class TestReport:
    def test_report_fields_and_certificate_round_trip(self):
        g = parse_graph(SPHERE_DOC)
        verdict = realize(g)
        report = report_document(g, verdict)
        assert report["status"] == "realizable"
        assert report["theorem"] == "Thm6"
        assert report["euler"] == {"conley": 2, "nature_formula": "2", "integer": True}
        assert report["fold_balance"] is True
        parsed = json.loads(report_to_json(report))
        cert = report_certificate(parsed)
        assert cert[0].encode() == "O"

    def test_old_encoding_still_verifies(self):
        # A report written before the canonical strings changed: edge 1
        # carries the weight-5 form in its old canonical encoding.
        g = parse_graph(
            "gsgraph v1\nvertex r D r\nvertex u T ssr\nvertex s T ssa\nvertex a D a\n"
            "edge r u 3\nedge u s 5\nedge s a 3\n"
        )
        three = "0:1,0:1,0:1,0:1"
        old = "0:1,0:1,0:1,0:2,1:3,2:3,2:3,2:3"
        report = {"version": 1, "certificate": {"0": three, "1": old, "2": three}}
        cert = report_certificate(report)
        assert cert[1].encode() == "0:1,0:2,0:2,0:2,1:3,1:3,1:3,2:3"
        assert verify_certificate(g, cert)
        assert realize(g).certificate[1] == cert[1]

    @pytest.mark.parametrize("form", ["0:1500", "0:0,0:-1"])
    def test_certificate_with_bad_vertex_ids_is_rejected(self, form):
        report = {"version": 2, "certificate": {"0": "O", "1": form}}
        with pytest.raises(ValueError, match="vertex ids"):
            report_certificate(report)

    @pytest.mark.parametrize(
        ("certificate", "key"),
        [({"0": 5}, "'0'"), ({"0": ["O"]}, "'0'"), (["O"], "'certificate'"),
         ([], "'certificate'"), ("", "'certificate'"), (0, "'certificate'"), (False, "'certificate'")],
    )
    def test_certificate_of_the_wrong_shape_is_rejected(self, certificate, key):
        with pytest.raises(ValueError, match=key):
            report_certificate({"version": 2, "certificate": certificate})

    @pytest.mark.parametrize("report", [{"version": 2}, {"version": 2, "certificate": None}])
    def test_missing_or_null_certificate_is_empty(self, report):
        assert report_certificate(report) == {}

    @pytest.mark.parametrize("report", [["O"], "x", None])
    def test_report_that_is_not_an_object_is_rejected(self, report):
        with pytest.raises(ValueError, match="JSON object"):
            report_certificate(report)

    @pytest.mark.parametrize("key", ["01", "00", "007", "-1", "+1", "x", " 1", "1.0", "", "\u0661"])
    def test_key_that_is_not_a_plain_edge_index_is_rejected(self, key):
        # '01' would name edge 1 beside '1', and the later key would win.
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            report_certificate({"version": 2, "certificate": {"1": "O", key: "0:0,0:0"}})

    @pytest.mark.parametrize("key", ["0", "10"])
    def test_plain_decimal_key_is_accepted(self, key):
        cert = report_certificate({"version": 2, "certificate": {key: "0:0,0:0"}})
        assert cert == {int(key): family_A(2)}

    @pytest.mark.parametrize("form", ["O|", "x", "0:1,0:1"])
    def test_malformed_form_names_its_key(self, form):
        with pytest.raises(ValueError, match="^certificate '3': "):
            report_certificate({"version": 2, "certificate": {"0": "O", "3": form}})

    @pytest.mark.parametrize(
        ("certificate", "key"),
        [
            ({0: manifold([CIRCLE]), 7: family_A(5), -3: family_A(2)}, "7"),
            ({0: manifold([CIRCLE]), -3: family_A(2)}, "-3"),
            (report_certificate({"certificate": {"0": "O", "1": "O"}}), "1"),
        ],
        ids=["seven", "minus-three", "report"],
    )
    def test_certificate_naming_no_edge_is_rejected(self, certificate, key):
        # The sphere has one edge, and edge 0's form fits it: only the key
        # that names no edge of the graph can reject the certificate.
        with pytest.raises(ValueError, match=f"names {key}, which is not an edge index"):
            verify_certificate(parse_graph(SPHERE_DOC), certificate)

    def test_fractional_formatting(self):
        g = parse_graph(SPHERE_DOC)
        report = report_document(g, realize(g))
        assert json.loads(report_to_json(report))["version"] == 2
