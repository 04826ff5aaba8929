"""Benchmark worker: imports the library, then runs a plan's operations in order.

Usage: python3 perfbench/worker.py PLAN START TRACE SPANS
       python3 perfbench/worker.py --setup-only

The worker measures its own set-up (import plus the first catalogs), then runs
operations START.. of the plan one at a time, writing one JSON line per
operation to standard output.  An operation that runs past its cap is
interrupted, reported, and the worker exits: module-level caches may then hold
half-built state, so the next operation must start in a fresh worker.

Between operations, at most every SPEED_EVERY_S seconds, the worker times a
fixed reference kernel that uses no gsflows code; run.py scales the operation
times by it (see README.md, "Steadiness").
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import importlib  # noqa: E402

import gsflows  # noqa: E402

# Module objects (the package rebinds the name `realize` to the function).
blocks, cli, documents, realize = (importlib.import_module(f"gsflows.{name}")
                                   for name in ("blocks", "cli", "documents", "realize"))

blocks.minimal_block_catalog()
blocks.shape_catalog()
SETUP_S = time.perf_counter() - _T0

EXIT_CAP = 3
SPEED_EVERY_S = 0.25


def reference_kernel() -> None:
    """Fixed pure-Python work of about 5 ms: tuples, frozensets, a dict, a sort."""
    counts = {}
    for i in range(3000):
        key = (i % 97, i % 89, frozenset((i % 13, i % 7)))
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items(), key=lambda item: item[0][:2])


def speed_sample() -> float:
    """Seconds the reference kernel takes now, with the cyclic collector off.

    The collector is off so that the size of the library's heap does not
    change the kernel's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class CapHit(BaseException):
    """Raised by the alarm; a BaseException so no handler in the library eats it."""


def _on_alarm(signum, frame):
    raise CapHit()


def peak_rss_kib() -> int:
    """This process's peak resident set (VmHWM).

    getrusage() is not used: after exec it also reports the parent's peak,
    because the child briefly shares the parent's memory until the exec.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def run_cli(op, tracer):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with tracer.measure() as clock:
            code = cli.main(list(op["argv"]))
    return clock.elapsed, {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_verify(op, tracer):
    g = documents.parse_graph((ROOT / op["graph"]).read_text(encoding="utf-8"))
    text = (ROOT / op["report"]).read_text(encoding="utf-8")
    with tracer.measure() as clock:
        cert = documents.report_certificate(json.loads(text))
        accept = realize.verify_certificate(g, cert)
    return clock.elapsed, {"accept": accept}


def run_closure(op, tracer):
    entry = next(e for e in blocks.minimal_block_catalog() if e.name == op["block"])
    with tracer.measure() as clock:
        result = blocks.passageway_closure(entry, op["weight"])
    return clock.elapsed, {"pairs": sorted(list(p) for p in result.pairs), "complete": result.complete}


def run_walk(op, tracer):
    """Seeded identify_points walk like acceptance test 08, reset above weight 8."""
    from gsflows.branched import ArcPosition, circle_manifold, identify_points

    rng = random.Random(op["seed"])
    steps = []
    with tracer.measure() as clock:
        m = circle_manifold(3)
        for _ in range(op["steps"]):
            spots = []
            for ci, comp in enumerate(m.components):
                for ai in range(1 if comp.is_circle else len(comp.arcs)):
                    spots.append(ArcPosition(ci, ai, 0))
                    spots.append(ArcPosition(ci, ai, 1))
            p1, p2 = rng.sample(spots, 2)
            result = identify_points(m, p1, p2)
            steps.append([p1.component == p2.component, m.total_weight, len(m.components),
                          result.total_weight, len(result.components)])
            m = result
            if m.total_weight > 8:
                m = circle_manifold(rng.randint(1, 3))
    return clock.elapsed, {"steps": steps}


RUNNERS = {"cli": run_cli, "verify": run_verify, "closure": run_closure, "walk": run_walk}


def main(argv):
    proto = sys.stdout
    if argv[1:] == ["--setup-only"]:
        proto.write(json.dumps({"ready": SETUP_S, "k": speed_sample()}) + "\n")
        return 0
    plan_path, start, trace, spans_path = argv[1], int(argv[2]), argv[3] == "1", argv[4]
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    from tracer import NullTracer, Tracer

    tracer = Tracer(gsflows) if trace else NullTracer()
    proto.write(json.dumps({"ready": SETUP_S, "k": speed_sample()}) + "\n")
    sampled = time.perf_counter()
    proto.flush()
    signal.signal(signal.SIGALRM, _on_alarm)
    status = 0
    for i in range(start, len(plan["ops"])):
        op = plan["ops"][i]
        msg = {"i": i}
        if time.perf_counter() - sampled >= SPEED_EVERY_S:
            msg["k"] = speed_sample()
            sampled = time.perf_counter()
        tracer.begin(i)
        try:
            signal.setitimer(signal.ITIMER_REAL, op["cap_s"])
            try:
                elapsed, out = RUNNERS[op["kind"]](op, tracer)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            msg.update(t=elapsed, out=out)
        except CapHit:
            msg.update(t=tracer.clock_elapsed(), cap=True)
            status = EXIT_CAP
        except Exception as err:  # a failed operation is reported, not fatal
            msg.update(t=tracer.clock_elapsed(), err=f"{type(err).__name__}: {err}")
        msg["agg"] = tracer.end()
        msg["rss_kib"] = peak_rss_kib()
        proto.write(json.dumps(msg) + "\n")
        proto.flush()
        if status:
            break
    tracer.write_spans(spans_path)
    proto.write(json.dumps({"end": True}) + "\n")
    proto.flush()
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
