"""gsflows benchmark: one workload per run, closed loop, one client.

Usage:
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A run builds the workload's inputs from the
seed under perfbench/out/NAME/ and measures the library's set-up time in
fresh interpreters.  It runs the workload's few once-per-run operations, then
rounds: each round runs the workload's fixed list of operations, one at a
time, in a fresh worker process (and in another fresh worker after an
operation hits its cap).  Rounds repeat while at least half of another fits
in --seconds; time metrics use each operation's mean over the rounds, scaled
to the reference speed (README.md, "Steadiness").  Every output is checked
after the timed part.  With --trace 1 the run runs the once-per-run
operations traced, makes one untraced and one traced round, and reports
per-layer metrics instead.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up is measured in this many fresh interpreters per run (after one
# unrecorded import that compiles the library), plus every untraced worker.
SETUP_PROBES = 9
# Past its cap the worker interrupts the operation itself; the parent kills a
# worker that has not answered this long after the cap.
GRACE_S = 10.0
READY_TIMEOUT_S = 60.0
# The reference kernel's time (worker.reference_kernel) at the reference speed,
# about its median over the baseline runs on the machine named in README.md.
# Times are reported as if the machine ran at that speed.
REF_KERNEL_S = 0.0045
# Operations with at least this many slower ones define op_ms_tail.
TAIL_BEYOND = 10
# Failed operations listed on standard output; result.json has them all.
SHOW_PROBLEMS = 20

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "decided_share": "share",
    "answered_share": "share",
    "peak_rss_mb": "MB",
}


class WorkerLost(RuntimeError):
    pass


def _note(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args: list[str], env: dict, log) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=log, env=env)


def _reap(proc: subprocess.Popen, stop: bool) -> None:
    """Wait for the worker, killing it first if `stop`."""
    if stop:
        proc.kill()
    proc.stdout.close()
    proc.wait()


def _lines(proc: subprocess.Popen, timeout_for):
    """Yield JSON messages; timeout_for() gives the seconds left to wait."""
    fd = proc.stdout.fileno()
    buf = b""
    while True:
        left = timeout_for()
        if left <= 0:
            return
        ready, _, _ = select.select([fd], [], [], left)
        if not ready:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return
        buf += chunk
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            yield json.loads(line)


def at_ref_speed(seconds: float, kernel_s: float) -> float:
    """`seconds`, measured while the reference kernel took `kernel_s`, at the reference speed."""
    return seconds * REF_KERNEL_S / kernel_s


def probe_setup(env: dict, log) -> float:
    proc = _spawn(["--setup-only"], env, log)
    ready = None
    try:
        deadline = time.monotonic() + READY_TIMEOUT_S
        for msg in _lines(proc, lambda: deadline - time.monotonic()):
            ready = at_ref_speed(msg["ready"], msg["k"])
            break
    finally:
        _reap(proc, stop=ready is None)
    if ready is None:
        raise WorkerLost("set-up probe gave no answer")
    return ready


class Round:
    def __init__(self, n: int) -> None:
        self.results: list[dict | None] = [None] * n
        self.setups: list[float] = []
        self.kernel_s: list[float] = []
        self.rss_kib = 0
        self.agg: dict = {}

    @property
    def wall_s(self) -> float:
        return sum(r["t"] for r in self.results)

    @property
    def scale(self) -> float:
        """Factor that takes this round's times to the reference speed."""
        return at_ref_speed(1.0, statistics.median(self.kernel_s))

    def merge(self, agg: dict | None) -> None:
        for name, value in (agg or {}).items():
            if isinstance(value, list):
                slots = self.agg.setdefault(name, [0] * len(value))
                for k, v in enumerate(value):
                    slots[k] += v
            else:
                self.agg[name] = self.agg.get(name, 0) + value


def run_round(plan: dict, plan_path: Path, trace: bool, work: Path, env: dict, log,
              label: str) -> Round:
    ops = plan["ops"]
    rnd = Round(len(ops))
    i = 0
    workers = 0
    while i < len(ops):
        spans = work / f"spans-{label}-{workers}.tsv"
        proc = _spawn([str(plan_path), str(i), "1" if trace else "0", str(spans)], env, log)
        workers += 1
        started = ended = False
        deadline = [time.monotonic() + READY_TIMEOUT_S]
        last = time.monotonic()
        try:
            for msg in _lines(proc, lambda: deadline[0] - time.monotonic()):
                now = time.monotonic()
                if "k" in msg:
                    rnd.kernel_s.append(msg.pop("k"))
                if "ready" in msg:
                    started = True
                    if not trace:
                        rnd.setups.append(at_ref_speed(msg["ready"], rnd.kernel_s[-1]))
                elif "i" in msg:
                    rnd.results[msg["i"]] = msg
                    rnd.merge(msg.pop("agg", None))
                    rnd.rss_kib = max(rnd.rss_kib, msg.pop("rss_kib"))
                    i = msg["i"] + 1
                elif msg.get("end"):
                    ended = True
                    break
                last = now
                deadline[0] = now + (ops[i]["cap_s"] if i < len(ops) else 0) + GRACE_S
        finally:
            _reap(proc, stop=not ended)
        if not started:
            raise WorkerLost(f"worker did not start (exit {proc.returncode})")
        if not ended and i < len(ops):
            # Killed after the grace period, or died: the operation failed.
            elapsed = time.monotonic() - last
            if elapsed >= ops[i]["cap_s"]:
                rnd.results[i] = {"i": i, "t": elapsed, "cap": True}
            else:
                rnd.results[i] = {"i": i, "t": elapsed, "err": f"worker exited {proc.returncode}"}
            i += 1
    return rnd


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND slower operations."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def classify(runs: list[tuple[list[dict], list[Round]]], checker) -> dict:
    """Outcomes of (operations, rounds) pairs, plus cross-round output agreement.

    `attempted` and `wrong` count results.  `ops`, `decided` and `failed`
    count distinct operations: an operation is decided if every result of it
    is, and failed if any is.  The shares therefore do not depend on how many
    rounds fitted in the run.
    """
    out = {"decided": 0, "failed": 0, "wrong": 0, "attempted": 0, "ops": 0, "problems": {},
           "known": {}}
    for ops, rounds in runs:
        for i, op in enumerate(ops):
            out["ops"] += 1
            seen = None
            all_decided, op_problem = True, None
            for rnd in rounds:
                res = rnd.results[i]
                out["attempted"] += 1
                decided, problem = checker.check(op, res)
                if "out" in res:
                    digest = json.dumps(res["out"], sort_keys=True)
                    if seen is None:
                        seen = digest
                    elif seen != digest:
                        problem = problem or "output differs between rounds"
                all_decided = all_decided and decided and problem is None
                if problem is None:
                    continue
                op_problem = op_problem or problem
                if checker.known(op, problem):
                    out["known"][op["id"]] = problem
                elif problem == "cap":
                    out["problems"].setdefault(op["id"], problem)
                else:
                    out["wrong"] += 1
                    out["problems"][op["id"]] = problem
            out["decided"] += all_decided
            out["failed"] += op_problem is not None
    return out


def e2e_metrics(rounds: list[Round], setups: list[float], outcome: dict) -> tuple[dict, dict]:
    # Each round's times are scaled to the reference speed by the reference
    # kernel timed inside the round; each operation's time is then its mean
    # over the rounds, and wall_s is the mean round.
    mean_ms = [statistics.fmean(rnd.results[i]["t"] * rnd.scale for rnd in rounds) * 1000.0
               for i in range(len(rounds[0].results))]
    tail_ms, percentile = tail(mean_ms)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(rnd.wall_s * rnd.scale for rnd in rounds),
        "op_ms_p50": statistics.median(mean_ms),
        "op_ms_tail": tail_ms,
        "decided_share": outcome["decided"] / outcome["ops"],
        "answered_share": 1.0 - outcome["failed"] / outcome["ops"],
        "peak_rss_mb": max(r.rss_kib for r in rounds) / 1024.0,
    }
    extra = {
        "op_ms_tail_percentile": percentile,
        "ops_per_round": len(mean_ms),
        "rounds": len(rounds),
        "failed_share": outcome["failed"] / outcome["ops"],
        "raw_wall_s": statistics.fmean(rnd.wall_s for rnd in rounds),
        "round_scales": [rnd.scale for rnd in rounds],
    }
    return values, extra


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Build, measure and check one workload; print its summary; return its result."""
    import workloads
    from checks import Checker
    from tracer import NAMES, layer_metrics, unit

    work = HERE / "out" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t_build = time.monotonic()
    plan = workloads.build(name, seed, ROOT, work)
    _note(f"{name}: built {len(plan['ops'])} operations in {time.monotonic() - t_build:.1f} s")
    once = {**plan, "ops": plan.pop("once")}
    plan_path, once_path = work / "plan.json", work / "once.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    once_path.write_text(json.dumps(once), encoding="utf-8")
    env = _worker_env()

    with open(work / "workers.log", "w", encoding="utf-8") as log:
        probe_setup(env, log)  # compiles the library; not recorded
        setups = [probe_setup(env, log) for _ in range(SETUP_PROBES)]
        start = time.monotonic()
        once_round = (run_round(once, once_path, trace, work, env, log, "once")
                      if once["ops"] else None)
        rounds: list[Round] = []
        durations: list[float] = []
        while True:
            t0 = time.monotonic()
            rounds.append(run_round(plan, plan_path, False, work, env, log, "plain"))
            durations.append(time.monotonic() - t0)
            _note(f"{name}: round {len(rounds)}: wall {rounds[-1].wall_s:.2f} s "
                  f"in {durations[-1]:.1f} s")
            # Start another round while at least half of one fits.
            if trace or time.monotonic() - start + statistics.median(durations) / 2 > seconds:
                break
        traced = run_round(plan, plan_path, True, work, env, log, "traced") if trace else None
    for rnd in rounds:
        setups.extend(rnd.setups)

    runs = [(plan["ops"], rounds + ([traced] if traced else []))]
    if once_round:
        runs.append((once["ops"], [once_round]))
    outcome = classify(runs, Checker(ROOT))
    values, extra = e2e_metrics(rounds, setups, outcome)

    print(f"workload {name} seed {seed}: {extra['rounds']} round(s) of "
          f"{extra['ops_per_round']} operations and {len(once['ops'])} once-per-run "
          f"operation(s), caps up to {plan['cap_s']} s per operation")
    for metric, value in values.items():
        print(f"  {metric:16s} {value:12.6f} {E2E_UNITS[metric]}")
    print(f"  {'failed_share':16s} {extra['failed_share']:12.6f} share")
    print(f"  {'raw wall_s':16s} {extra['raw_wall_s']:12.6f} s, unscaled; round scales "
          + " ".join(f"{x:.3f}" for x in extra["round_scales"]))
    print(f"  op_ms_tail is p{extra['op_ms_tail_percentile']:.2f} of "
          f"{extra['ops_per_round']} operations per round")
    slowest = sorted(zip(rounds[0].results, plan["ops"]), key=lambda x: -x[0]["t"])[:5]
    print("  slowest: " + ", ".join(f"{op['id']} {res['t']:.3f} s" for res, op in slowest))
    if once_round:
        print("  once: " + ", ".join(f"{op['id']} {res['t']:.3f} s"
                                      for res, op in zip(once_round.results, once["ops"])))
    for op_id, problem in sorted(outcome["known"].items()):
        print(f"  known failure {op_id}: {problem}")
    problems = sorted(outcome["problems"].items())
    for op_id, problem in problems[:SHOW_PROBLEMS]:
        print(f"  {'cap hit' if problem == 'cap' else 'FAILED'} {op_id}: {problem}")
    if len(problems) > SHOW_PROBLEMS:
        print(f"  ... {len(problems) - SHOW_PROBLEMS} more in {work / 'result.json'}")

    if trace:
        traced_s, untraced_s = traced.wall_s * traced.scale, rounds[0].wall_s * rounds[0].scale
        overhead = traced_s - untraced_s
        if once_round:
            traced.merge(once_round.agg)
        metrics = layer_metrics(traced.agg, overhead)
        print(f"  traced wall {traced_s:.3f} s, untraced {untraced_s:.3f} s, "
              f"overhead {overhead:.3f} s, at the reference speed")
        for fn in NAMES:
            agg = traced.agg.get(fn, [0, 0.0])
            print(f"  {fn:40s} calls {agg[0]:>9} self {agg[1]:10.4f} s")
        result_metrics = {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}
    else:
        result_metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    result = {
        "correct": outcome["wrong"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["wrong"],
        "metrics": result_metrics,
    }
    op_seconds = {op["id"]: [rnd.results[i]["t"] for rnd in rounds]
                  for i, op in enumerate(plan["ops"])}
    if once_round:
        op_seconds.update({op["id"]: [res["t"]]
                           for op, res in zip(once["ops"], once_round.results)})
    (work / "result.json").write_text(json.dumps(
        {**result, "extra": extra, "known": outcome["known"], "problems": outcome["problems"],
         "op_seconds": op_seconds}, indent=1))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gsflows" / "__init__.py").is_file():
        print(f"no library source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import gsflows

    if Path(gsflows.__file__).resolve().parent != (src / "gsflows").resolve():
        print(f"imported gsflows from {gsflows.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import BUILDERS

    names = list(BUILDERS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(BUILDERS):
        print(f"unknown workload {args.workload!r}; choose from {', '.join(BUILDERS)} or all",
              file=sys.stderr)
        return 2
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
