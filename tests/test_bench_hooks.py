"""The benchmark's traced run wraps library functions by name.

`perfbench/tracer.py` looks each name of its `LAYERS` table up on the
`gsflows` module of that layer, and `Class.method` names on the class.  A
rename in the library would break `perfbench/run.py --trace 1` with an
AttributeError that no other test sees.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for layer, names in load_tracer().LAYERS.items():
        home = importlib.import_module(f"gsflows.{layer}")
        for name in names:
            owner = home
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}.{name}")
    assert missing == []


def test_every_tag_and_pre_hook_reads_a_real_call(monkeypatch):
    # The tracer's TAGS predicates read a function's arguments and result,
    # and its PRE hooks read the arguments; a changed signature or return
    # type would otherwise surface only in a traced bench run.
    from gsflows import blocks, engine
    from gsflows.branched import canonical_component, family_A, family_minimal
    from gsflows.model import LyapunovGraph, VertexLabel, parse_nature, parse_type
    from gsflows.realize import realize, verify_certificate

    tracer = load_tracer()
    calls = {}

    def record(name, fn):
        def wrapper(*args):
            result = fn(*args)
            calls.setdefault(name, (args, result))
            return result

        return wrapper

    # A fresh state graph and an empty answer table, so the query below walks.
    monkeypatch.setattr(engine, "_GRAPH", engine.StateSet())
    monkeypatch.setattr(engine.StateSet, "add", record("engine.StateSet.add", engine.StateSet.add))
    monkeypatch.setattr(engine, "reachable_pairs_capped",
                        record("engine.reachable_pairs_capped", engine.reachable_pairs_capped))
    blocks._feasible.cache_clear()
    # A double-crossing saddle block answers by a walk (D_sss_22).
    query = (VertexLabel(parse_type("D"), parse_nature("ss_s")), [family_A(3), family_minimal(2)],
             [family_minimal(2), family_minimal(1)])
    calls["blocks.boundary_feasible"] = (query, blocks.boundary_feasible(*query))
    sphere = LyapunovGraph()
    sphere.add_vertex("r", parse_type("R"), parse_nature("r"))
    sphere.add_vertex("a", parse_type("R"), parse_nature("a"))
    sphere.add_edge("r", "a", 1)
    audit = (sphere, realize(sphere).certificate)
    calls["realize.verify_certificate"] = (audit, verify_certificate(*audit))
    assert set(tracer.TAGS) <= set(calls)
    for name, tag in tracer.TAGS.items():
        assert isinstance(tag(*calls[name]), bool), name

    component = (2, [(0, 1)] * 4)
    canonical_component(*component)
    assert set(tracer.PRE) == {"branched.canonical_component"}
    state = SimpleNamespace(canon_seen=set(), canon_repeats=0)
    tracer.PRE["branched.canonical_component"](state, component)
    tracer.PRE["branched.canonical_component"](state, component)
    assert state.canon_repeats == 1
