"""Workload definitions: inputs, per-operation caps and expected answers.

Every workload is a fixed list of operations built before any timing starts.
Most are repeated in every round; the few in ONCE run once per run.  There are
two workloads: `decide`, and `deep`, which interleaves the `search`, `audit`
and `forms` parts.  Graph documents and reports are written under the run's
work directory; the worker only reads them.  Each operation carries its
expected answer, written by hand from the paper's results and the
repository's documented instances; checks.py compares outputs against them.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Seeds for later claims: the baseline figures in README.md were taken with
# the baseline seed; the held-out seed is not used while a change is written
# and must confirm any claim made on the baseline seed.
BASELINE_SEED = 1
HELDOUT_SEED = 97

# Cap per operation, in seconds, by the part its id starts with.  An operation
# that runs past its cap is stopped and counted as failed, and the run resumes
# with the next operation in a fresh worker.  The search cap is more than twice
# the slowest search that ends, and about half the fastest that does not.  The
# forms cap lets chain-w19 reach its canonizer failure (9 to 12 s).
CAP_S = {
    "decide": 5.0,
    "search": 1.25,
    "audit": 15.0,
    "forms": 30.0,
}

# Generated corpus (decide, search, audit): sizes cycle through 4..48 vertices
# so that every seed has the same size mix, alternating minimal and general
# graphs.  Only the generator seeds depend on the workload seed.
CORPUS_SIZE = 600
SEARCH_BOUND = 5
SEARCH_GRAPHS = 36
CHAIN_AUDIT_WEIGHTS = (5, 6, 7)
# forms leaves out enumeration at weight 7 (about 17 s) and the chains of
# maximum weight 17 and 18 (about 11 s each): with them, the once-per-run
# operations would fill the whole run.
CHAIN_FORMS_WEIGHTS = (*range(8, 17), 19, 20)
ENUM_WEIGHTS = (1, 2, 3, 4, 5, 6)
ENUM_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 10, 6: 28}
CATALOG_TOTALS = "3 3 3 13 11 / 33"
CLOSURE_WEIGHT = 7
AUDIT_CORPUS = 160
# General graphs with heavier edges are left out of the audit corpus, and
# decide checks their certificates by weight only: about one in a hundred of
# their certificates takes seconds to minutes to audit, so whether a seed
# draws one would decide the run time.  Deep audits are measured on the fixed
# Whitney chains instead.
AUDIT_GENERAL_WEIGHT = 5
# The identify_points walk of acceptance test 08, as WALK_OPS walks of
# WALK_STEPS steps each from seeds WALK_SEED, WALK_SEED + 1, ...
WALK_SEED = 99
WALK_OPS = 25
WALK_STEPS = 20

# Failures the seed commit is known to have.  They stay in their workloads and
# are reported by name; an operation that fails in the listed way counts in
# failed_share, but not as an incorrect output.
SEARCH_CAP_HITS = ("0049-n35g", "0117-n22g", "0127-n32g", "0133-n11g", "0193-n26g",
                   "0217-n32g", "0265-n44g", "0303-n46g")
KNOWN_FAILURES = {
    "forms/chain-w19": "exit 64: component too symmetric for canonical labeling",
    "forms/chain-w20": "exit 64: component too symmetric for canonical labeling",
    **{f"search/{name}": "cap hit: bounded search runs past the cap"
       for name in SEARCH_CAP_HITS},
}

# Operations run once per run, before the rounds, instead of in every round:
# each hits its cap or takes seconds, about 28 s together, so repeating them
# would leave room for only one round in a run.  They are checked and counted in the shares
# like every other operation; their times are printed but kept out of the
# time metrics.
ONCE = {
    *(f"search/{name}" for name in SEARCH_CAP_HITS),
    "audit/chain-w7",
    "audit/closure-C_s_11",
    "forms/chain-w19",
}


def corpus_specs(seed: int) -> list[tuple[str, int, int, bool]]:
    """(name, generator seed, size, minimal) for the seeded corpus."""
    rng = random.Random(seed)
    specs = []
    for j in range(CORPUS_SIZE):
        size = 4 + (j * 19) % 45
        minimal = j % 2 == 0
        gseed = rng.randrange(1 << 31)
        specs.append((f"{j:04d}-n{size}{'m' if minimal else 'g'}", gseed, size, minimal))
    return specs


def whitney_chain(k: int):
    """Thm7 chain r -> s_u^k -> s_s^k -> a; its maximum edge weight is k + 1."""
    from gsflows.model import LyapunovGraph, Nature, SingularityType

    g = LyapunovGraph()
    g.add_vertex("r", SingularityType.REGULAR, Nature.R)
    prev, w = "r", 1
    for i in range(k):
        vid = f"u{i}"
        g.add_vertex(vid, SingularityType.WHITNEY, Nature.S_U)
        g.add_edge(prev, vid, w)
        prev, w = vid, w + 1
    for i in range(k):
        vid = f"s{i}"
        g.add_vertex(vid, SingularityType.WHITNEY, Nature.S_S)
        g.add_edge(prev, vid, w)
        prev, w = vid, w - 1
    g.add_vertex("a", SingularityType.REGULAR, Nature.A)
    g.add_edge(prev, "a", w)
    return g


def _graph(verts, edges):
    from gsflows.model import LyapunovGraph, parse_nature, parse_type

    g = LyapunovGraph()
    for vid, t, n in verts:
        g.add_vertex(vid, parse_type(t), parse_nature(n))
    for s, d, w in edges:
        g.add_edge(s, d, w)
    return g


def non_realizable():
    """Documented instance: locally fine everywhere, not realizable (bound 3)."""
    return _graph(
        [("d", "D", "r"), ("w", "W", "s_s"), ("wa", "W", "a"), ("ra", "R", "a")],
        [("d", "w", 3), ("w", "wa", 2), ("w", "ra", 1)],
    )


def search_only():
    """Documented instance: realizable only through a weight-5 form (bound 5)."""
    return _graph(
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


class Builder:
    """Writes one workload's inputs under `work` and collects its operations."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        self.ops: list[dict] = []

    def write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return str(path.relative_to(self.root))

    def add(self, op_id: str, kind: str, **fields) -> None:
        cap = CAP_S[op_id.split("/")[0]]
        self.ops.append({"id": op_id, "kind": kind, "cap_s": cap, **fields})


def _corpus(b: Builder, seed: int):
    """Yield (name, minimal, graph, path) for the seeded corpus, writing each document."""
    from gsflows import gen_random_gs_graph, serialize_graph

    for name, gseed, size, minimal in corpus_specs(seed):
        g = gen_random_gs_graph(gseed, size=size, minimal=minimal)
        yield name, minimal, g, b.write(f"{name}.gs", serialize_graph(g))


def _heavy(minimal: bool, g) -> bool:
    """A general graph whose certificate may take minutes to audit."""
    return not minimal and max(e.weight for e in g.edges) > AUDIT_GENERAL_WEIGHT


def build_decide(b: Builder, seed: int) -> None:
    """`gsflows realize FILE` with no bound on the seeded corpus.

    Certificates of heavy general graphs get the weight check only: auditing
    one of them took from one second to past three minutes.
    """
    for name, minimal, g, path in _corpus(b, seed):
        expect = {"corpus": None, **({"light": 1} if _heavy(minimal, g) else {})}
        b.add(f"decide/{name}", "cli", argv=["realize", path], graph=path, expect=expect)


def _open_in_search(g) -> bool:
    """Left unknown by decide, and every edge weight within the search bound."""
    from gsflows import realize

    return max(e.weight for e in g.edges) <= SEARCH_BOUND and realize(g).status == "unknown"


def build_search(b: Builder, seed: int) -> None:
    """The first open graphs of the baseline corpus, whatever the seed.

    About one open graph in twenty runs past the cap whatever its size, and
    which searches find warm engine caches depends on the order they run in.
    A corpus or an order drawn from each seed therefore swings the cap hits
    and the per-operation times far more than any bound could absorb, so this
    workload is a fixed, named set and ignores the seed.
    """
    from gsflows import serialize_graph

    found = 0
    for name, _, g, path in _corpus(b, BASELINE_SEED):
        if found == SEARCH_GRAPHS:
            break
        if _open_in_search(g):
            found += 1
            argv = ["realize", path, "--search-bound", str(SEARCH_BOUND)]
            b.add(f"search/{name}", "cli", argv=argv, graph=path, expect={"corpus": SEARCH_BOUND})
    nr = b.write("non-realizable.gs", serialize_graph(non_realizable()))
    so = b.write("search-only.gs", serialize_graph(search_only()))
    b.add("search/non-realizable-b3", "cli", argv=["realize", nr, "--search-bound", "3"], graph=nr,
          expect={"status": "not-realizable", "reason": "search-exhausted", "code": 1})
    b.add("search/search-only-b4", "cli", argv=["realize", so, "--search-bound", "4"], graph=so,
          expect={"status": "unknown", "searched_bound": 4, "code": 2})
    b.add("search/search-only-b5", "cli", argv=["realize", so, "--search-bound", "5"], graph=so,
          expect={"status": "realizable", "theorem": "Search", "code": 0, "outside_families": 1})


def _tamper(g, cert: dict[str, str]) -> tuple[dict[str, str], str]:
    """A copy of the certificate that must be rejected, and why.

    Attractor blocks are rigid: a double- or triple-crossing attractor only
    accepts its minimal-weight form, so any other form of weight 3 or 7 on an
    edge into one is rejected.  Graphs without such an edge get a form whose
    weight differs from its edge weight.
    """
    from gsflows import family_A

    bad = dict(cert)
    for i, e in enumerate(g.edges):
        label = g.vertices[e.dst]
        if str(label.nature) == "a" and e.weight in (3, 7) and str(label.kind) in ("D", "T"):
            bad[str(i)] = family_A(e.weight).encode()
            return bad, "rigid-attractor"
    heaviest = max(range(len(g.edges)), key=lambda i: g.edges[i].weight)
    bad[str(heaviest)] = family_A(g.edges[heaviest].weight + 1).encode()
    return bad, "wrong-weight"


def _document(b: Builder, name: str, g):
    """Write the graph document; return its path and the graph as read back.

    Documents list edges in canonical order, and certificates index edges, so
    reports must be computed on the graph as the worker will parse it.
    """
    from gsflows import parse_graph, serialize_graph

    text = serialize_graph(g)
    return b.write(name, text), parse_graph(text)


def _report(g) -> dict:
    from gsflows import realize, report_document

    return json.loads(json.dumps(report_document(g, realize(g))))


def build_audit(b: Builder, seed: int) -> None:
    """verify_certificate on read-back certificates, genuine and tampered, and closures.

    Accepting stops at the first reachable target, rejecting explores the
    whole capped set, and closures explore breadth-first: three uses of the
    same engine.  The corpus part is the baseline corpus whatever the seed:
    which rare slow rejections a seed drew moved op_ms_tail by a factor of two.
    """
    from gsflows import family_A, family_minimal, gen_random_gs_graph, minimal_block_catalog

    for w in CHAIN_AUDIT_WEIGHTS:
        path, g = _document(b, f"chain-w{w}.gs", whitney_chain(w - 1))
        report = _report(g)
        good = b.write(f"chain-w{w}.json", json.dumps(report))
        b.add(f"audit/chain-w{w}", "verify", graph=path, report=good, expect={"accept": True})
        bad, why = _tamper(g, report["certificate"])
        rpath = b.write(f"chain-w{w}-tampered.json", json.dumps({**report, "certificate": bad}))
        b.add(f"audit/chain-w{w}-tampered-{why}", "verify", graph=path, report=rpath,
              expect={"accept": False})
    path, nr = _document(b, "non-realizable.gs", non_realizable())
    for label, form in (("minimal", family_minimal(3)), ("loop", family_A(3))):
        cert = {"0": form.encode(), "1": family_minimal(2).encode(), "2": family_minimal(1).encode()}
        rpath = b.write(f"non-realizable-{label}.json", json.dumps({"certificate": cert}))
        b.add(f"audit/non-realizable-{label}", "verify", graph=path, report=rpath,
              expect={"accept": False})
    for name, gseed, size, minimal in corpus_specs(BASELINE_SEED)[:AUDIT_CORPUS]:
        path, g = _document(b, f"{name}.gs", gen_random_gs_graph(gseed, size=size, minimal=minimal))
        if _heavy(minimal, g):
            continue
        report = _report(g)
        if report["status"] != "realizable":
            continue
        good = b.write(f"{name}.json", json.dumps(report))
        b.add(f"audit/{name}", "verify", graph=path, report=good, expect={"accept": True})
        bad, why = _tamper(g, report["certificate"])
        rpath = b.write(f"{name}-tampered.json", json.dumps({**report, "certificate": bad}))
        b.add(f"audit/{name}-tampered-{why}", "verify", graph=path, report=rpath,
              expect={"accept": False})
    for entry in minimal_block_catalog():
        b.add(f"audit/closure-{entry.name}", "closure", block=entry.name, weight=CLOSURE_WEIGHT,
              expect={"closure": CLOSURE_WEIGHT})
    b.add("audit/catalog", "cli", argv=["catalog"], expect={"catalog": CATALOG_TOTALS})


def build_forms(b: Builder, seed: int) -> None:
    """A fixed suite: enumeration, Thm7 chains and the walk of acceptance test 08.

    Every operation is seed-independent.  The walk's cost sits in a few
    identifications that produce new, highly symmetric forms, and which ones
    do depends on the forms met before; a walk drawn from each seed moved the
    slow end of the operation times by a factor of two to ten between runs.
    """
    from gsflows import serialize_graph

    for w in ENUM_WEIGHTS:
        b.add(f"forms/enumerate-w{w}", "cli", argv=["enumerate", "--weight", str(w)],
              expect={"count": ENUM_COUNTS[w], "code": 0})
    for w in CHAIN_FORMS_WEIGHTS:
        path = b.write(f"chain-w{w}.gs", serialize_graph(whitney_chain(w - 1)))
        b.add(f"forms/chain-w{w}", "cli", argv=["realize", path], graph=path,
              expect={"status": "realizable", "theorem": "Thm7", "code": 0, "light": 1})
    for k in range(WALK_OPS):
        b.add(f"forms/walk-{WALK_SEED + k}", "walk", seed=WALK_SEED + k, steps=WALK_STEPS,
              expect={"walk": 8})


def build_deep(b: Builder, seed: int) -> None:
    """Bounded search, certificate audits and form generation, in one worker.

    The three parts' operations are interleaved, each part spread evenly over
    the round, so that each part meets the machine's speed over the whole
    round rather than in one stretch of it.  The parts share the engine and
    branched caches; the order is fixed, so every round does the same work.
    """
    keyed = []
    for k, build in enumerate((build_search, build_audit, build_forms)):
        start = len(b.ops)
        build(b, seed)
        part = b.ops[start:]
        keyed += [((j + 0.5) / len(part), k, op) for j, op in enumerate(part)]
    b.ops[:] = [op for _, _, op in sorted(keyed, key=lambda x: x[:2])]


BUILDERS = {
    "decide": build_decide,
    "deep": build_deep,
}


def build(name: str, seed: int, root: Path, work: Path) -> dict:
    """The workload's plan: operations for every round, and those run once."""
    b = Builder(root, work)
    BUILDERS[name](b, seed)
    return {"workload": name, "seed": seed,
            "cap_s": max(op["cap_s"] for op in b.ops),
            "ops": [op for op in b.ops if op["id"] not in ONCE],
            "once": [op for op in b.ops if op["id"] in ONCE]}
