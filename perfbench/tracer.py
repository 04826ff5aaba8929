"""Span tracer for the traced run, installed from outside the library.

Each listed function is replaced, in every gsflows module namespace that
binds it, by a wrapper that records a span (operation id, span id, parent
span id, function, start, end) and per-function aggregates.  A function's
self time is its span time minus the time of wrapped child spans.  Spans are
kept in memory and written out when the worker ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# Layer (module) -> functions whose spans are recorded.
LAYERS = {
    "branched": ("canonical_component", "enumerate_connected", "identify_points", "family_A",
                 "family_B"),
    "engine": ("state_key", "successors", "StateSet.add", "reachable_pairs_capped",
               "closure_pairs"),
    "blocks": ("boundary_feasible", "entries_for", "local_realizable", "passageway_closure"),
    "realize": ("realize", "classify_graph", "_search", "verify_certificate"),
    "model": ("validate_graph", "semigraph"),
    "documents": ("parse_graph", "report_document", "report_to_json"),
    "cli": ("main",),
}

NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Raw spans beyond this many per worker are counted but not kept.
MAX_SPANS = 200_000

# Aggregate slots per function: calls, self seconds, calls that raised, and
# calls whose result carried the function's tag (see TAGS).
CALLS, SELF, RAISED, TAGGED = range(4)


class Clock:
    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.elapsed = 0.0


class NullTracer:
    """Untraced runs: only the operation clock."""

    def __init__(self) -> None:
        self.clock = None
        self.enabled = False

    @contextlib.contextmanager
    def measure(self):
        """Time the block; spans are recorded only inside it."""
        self.clock = Clock()
        self.enabled = True
        try:
            yield self.clock
        finally:
            self.clock.elapsed = time.perf_counter() - self.clock.start
            self.enabled = False

    def clock_elapsed(self) -> float:
        return time.perf_counter() - self.clock.start if self.clock else 0.0

    def begin(self, op: int) -> None:
        self.clock = None

    def end(self):
        return None

    def write_spans(self, path: str) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self, package) -> None:
        super().__init__()
        self.op = -1
        self.stack: list[list] = []  # [span id, child seconds]
        self.next_id = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        self.agg: dict[str, list] = {}
        self.in_search = 0
        self.feasible_in_search = 0
        self.canon_seen: set = set()
        self.canon_repeats = 0
        self._install(package)

    # -- per-operation bookkeeping -------------------------------------------

    def begin(self, op: int) -> None:
        self.op = op
        self.clock = None
        self.stack.clear()
        self.in_search = 0
        self.agg = {}
        self.feasible_in_search = 0
        self.canon_repeats = 0

    def end(self) -> dict:
        out = dict(self.agg)
        out["_search.feasible"] = self.feasible_in_search
        out["canonical_component.repeats"] = self.canon_repeats
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"# op\tspan\tparent\tfunction\tstart\tend\t(dropped {self.dropped})\n")
            for op, sid, parent, name, t0, t1 in self.spans:
                handle.write(f"{op}\t{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")

    # -- wrapping ------------------------------------------------------------

    def _install(self, package) -> None:
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or
                   n.startswith(package.__name__ + ".")]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"{package.__name__}.{layer}"]
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                    continue
                original = getattr(home, fn)
                wrapper = self._wrap(name, original)
                for module in modules:
                    if getattr(module, fn, None) is original:
                        setattr(module, fn, wrapper)

    def _wrap(self, name: str, fn):
        tag = TAGS.get(name)
        pre = PRE.get(name)
        tracer = self
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(tracer, args)
            parent = stack[-1][0] if stack else -1
            frame = [tracer.next_id, 0.0]
            tracer.next_id += 1
            stack.append(frame)
            if name == "realize._search":
                tracer.in_search += 1
            elif name == "blocks.boundary_feasible" and tracer.in_search:
                tracer.feasible_in_search += 1
            raised = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = time.perf_counter()
                if stack and stack[-1] is frame:
                    stack.pop()
                if name == "realize._search":
                    tracer.in_search -= 1
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                slots = tracer.agg.get(name)
                if slots is None:
                    slots = tracer.agg[name] = [0, 0.0, 0, 0]
                slots[CALLS] += 1
                slots[SELF] += duration - frame[1]
                if raised:
                    slots[RAISED] += 1
                elif tag is not None and tag(args, result):
                    slots[TAGGED] += 1
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((tracer.op, frame[0], parent, name, t0, t1))
                else:
                    tracer.dropped += 1

        return wrapper


def _canon_pre(tracer: Tracer, args) -> None:
    order, arcs = args[0], args[1]
    key = (order, tuple(sorted((min(u, v), max(u, v)) for u, v in arcs)))
    if key in tracer.canon_seen:
        tracer.canon_repeats += 1
    else:
        tracer.canon_seen.add(key)


def _capped_hit(args, result) -> bool:
    target = args[3] if len(args) > 3 else None
    return target is not None and target in result


# Result tags: StateSet.add new, reachable_pairs_capped found its target,
# boundary_feasible true, verify_certificate accepted.
TAGS = {
    "engine.StateSet.add": lambda args, result: result is True,
    "engine.reachable_pairs_capped": _capped_hit,
    "blocks.boundary_feasible": lambda args, result: result is True,
    "realize.verify_certificate": lambda args, result: result is True,
}
PRE = {"branched.canonical_component": _canon_pre}


# The per-layer metrics a traced run reports, with their units.
METRICS = (
    "branched.canonical_component.calls", "branched.canonical_component.self_s",
    "branched.canonical_component.repeat_share", "branched.canonical_component.raised",
    "branched.enumerate_connected.calls", "branched.enumerate_connected.self_s",
    "branched.identify_points.calls", "branched.identify_points.self_s",
    "branched.family_A.self_s", "branched.family_B.self_s",
    "engine.state_key.calls", "engine.state_key.self_s", "engine.state_key.raised",
    "engine.successors.calls", "engine.successors.self_s",
    "engine.StateSet.add.calls", "engine.StateSet.add.new_share",
    "engine.reachable_pairs_capped.calls", "engine.reachable_pairs_capped.self_s",
    "engine.reachable_pairs_capped.hit_share", "engine.closure_pairs.self_s",
    "blocks.boundary_feasible.calls", "blocks.boundary_feasible.self_s",
    "blocks.boundary_feasible.true_share",
    "blocks.entries_for.calls", "blocks.entries_for.self_s",
    "blocks.local_realizable.calls", "blocks.local_realizable.self_s",
    "blocks.passageway_closure.self_s",
    "realize.realize.calls", "realize.realize.self_s",
    "realize.classify_graph.calls", "realize.classify_graph.per_realize",
    "realize._search.calls", "realize._search.self_s", "realize._search.feasible_per_search",
    "realize.verify_certificate.calls", "realize.verify_certificate.self_s",
    "realize.verify_certificate.accept_share",
    "model.validate_graph.calls", "model.validate_graph.self_s", "model.semigraph.calls",
    "documents.parse_graph.self_s", "documents.report_document.self_s",
    "documents.report_to_json.self_s",
    "cli.main.self_s",
    "trace.overhead_s",
)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_share"):
        return "share"
    if metric.endswith(("per_realize", "per_search")):
        return "ratio"
    return "count"


def layer_metrics(agg: dict, overhead_s: float) -> dict[str, float]:
    """The METRICS from aggregates summed over a round's operations."""

    def slot(name, k):
        return agg.get(name, [0, 0.0, 0, 0])[k]

    def share(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {"trace.overhead_s": overhead_s}
    for name in NAMES:
        m[f"{name}.calls"] = slot(name, CALLS)
        m[f"{name}.self_s"] = slot(name, SELF)
        m[f"{name}.raised"] = slot(name, RAISED)
    cc = "branched.canonical_component"
    m[f"{cc}.repeat_share"] = share(agg.get("canonical_component.repeats", 0), slot(cc, CALLS))
    add = "engine.StateSet.add"
    m[f"{add}.new_share"] = share(slot(add, TAGGED), slot(add, CALLS))
    rpc = "engine.reachable_pairs_capped"
    m[f"{rpc}.hit_share"] = share(slot(rpc, TAGGED), slot(rpc, CALLS))
    bf = "blocks.boundary_feasible"
    m[f"{bf}.true_share"] = share(slot(bf, TAGGED), slot(bf, CALLS))
    m["realize.classify_graph.per_realize"] = share(slot("realize.classify_graph", CALLS),
                                                    slot("realize.realize", CALLS))
    m["realize._search.feasible_per_search"] = share(agg.get("_search.feasible", 0),
                                                     slot("realize._search", CALLS))
    vc = "realize.verify_certificate"
    m[f"{vc}.accept_share"] = share(slot(vc, TAGGED), slot(vc, CALLS))
    return {name: m[name] for name in METRICS}
