"""Output checks, run in the parent after the timed operations.

Each check returns (decided, problem).  `problem` is None when the output is
right; otherwise it names what is wrong.  `decided` is True when the output is
a definite answer (realizable or not, accepted or rejected, a count, a
closure) rather than "unknown".
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from workloads import KNOWN_FAILURES


def component_weight(text: str) -> int | None:
    """Weight of one encoded connected component, checked without the library.

    A connected 4-regular multigraph on n branch points has first Betti number
    n + 1; the circle "O" has weight 1.  Returns None if the text is not a
    connected 4-regular multigraph.
    """
    text = text.strip()
    if text == "O":
        return 1
    if "|" in text:
        return None
    arcs = [tuple(int(x) for x in item.split(":")) for item in text.split(",")]
    n = max(max(a) for a in arcs) + 1
    degree = [0] * n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in arcs:
        degree[u] += 1
        degree[v] += 1
        parent[find(u)] = find(v)
    if any(d != 4 for d in degree) or len({find(v) for v in range(n)}) != 1:
        return None
    return n + 1


def manifold_weight(text: str) -> int:
    total = 0
    for part in text.split("|"):
        w = component_weight(part)
        if w is None:
            raise ValueError(f"not a branched component: {part!r}")
        total += w
    return total


class Checker:
    """Checks outputs; results are cached per (operation, output)."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.cache: dict[tuple[str, str], tuple[bool, str | None]] = {}
        self.graphs: dict[str, object] = {}

    def check(self, op: dict, result: dict) -> tuple[bool, str | None]:
        if result.get("cap"):
            return False, "cap"
        if result.get("err"):
            return False, "raised " + result["err"]
        key = (op["id"], json.dumps(result["out"], sort_keys=True))
        found = self.cache.get(key)
        if found is None:
            try:
                found = self._check(op, result["out"])
            except (ValueError, KeyError, TypeError) as err:
                found = (False, f"malformed output: {type(err).__name__}: {err}")
            self.cache[key] = found
        return found

    def known(self, op: dict, problem: str) -> bool:
        """Whether the failure is one the seed commit is documented to have."""
        expected = KNOWN_FAILURES.get(op["id"])
        if expected is None:
            return False
        if expected.startswith("cap hit"):
            return problem == "cap"
        code, _, message = expected.partition(": ")
        return problem.startswith(code) and message in problem

    def graph(self, path: str):
        g = self.graphs.get(path)
        if g is None:
            from gsflows import parse_graph

            g = self.graphs[path] = parse_graph((self.root / path).read_text(encoding="utf-8"))
        return g

    def _check(self, op: dict, out: dict) -> tuple[bool, str | None]:
        exp = op["expect"]
        if "accept" in exp:
            ok = out["accept"] is exp["accept"]
            return ok, None if ok else f"verify returned {out['accept']}"
        if "closure" in exp:
            return self._closure(op, out, exp["closure"])
        if "walk" in exp:
            return self._walk(out, exp["walk"])
        code = out["code"]
        if "catalog" in exp:
            last = out["stdout"].strip().splitlines()[-1]
            ok = code == 0 and last == exp["catalog"]
            return ok, None if ok else f"catalog totals {last!r}"
        if "count" in exp:
            return self._enumerate(out, exp["count"])
        if code not in (0, 1, 2):
            return False, f"exit {code}: {out['stderr'].strip()}"
        report = json.loads(out["stdout"])
        problem = self._report(op, report, code)
        decided = report["status"] != "unknown"
        return decided and problem is None, problem

    def _report(self, op, report, code) -> str | None:
        status = report["status"]
        if {"realizable": 0, "not-realizable": 1, "unknown": 2}[status] != code:
            return f"exit {code} for status {status}"
        g = self.graph(op["graph"])
        euler = report["euler"]
        if report["fold_balance"] and euler["conley"] != Fraction(euler["nature_formula"]):
            return "euler.conley differs from nature_formula on a fold-balanced graph"
        exp = op["expect"]
        for key in ("status", "reason", "theorem", "searched_bound"):
            if key in exp and report[key] != exp[key]:
                return f"{key} {report[key]!r}, expected {exp[key]!r}"
        if "corpus" in exp:
            bound = exp["corpus"]
            if bound is None and status == "not-realizable":
                # Generated graphs are locally realizable and fold-balanced, so
                # without a search only a fractional Euler characteristic can
                # rule them out.
                if report["reason"] != "fractional-euler-characteristic" or report["euler"]["integer"]:
                    return f"not-realizable without search: {report['reason']}"
            if bound is not None:
                if status == "unknown":
                    return "unknown although every edge weight is within the bound"
                if status == "not-realizable" and (report["reason"] != "search-exhausted"
                                                   or report["searched_bound"] != bound):
                    return f"not-realizable: {report['reason']}"
        if status == "realizable":
            return self._certificate(op, g, report)
        return None

    def _certificate(self, op, g, report) -> str | None:
        cert = report["certificate"] or {}
        if sorted(cert, key=int) != [str(i) for i in range(len(g.edges))]:
            return "certificate does not cover every edge"
        for i, e in enumerate(g.edges):
            w = component_weight(cert[str(i)])
            if w != e.weight:
                return f"edge {i}: form weight {w}, edge weight {e.weight}"
        if op["expect"].get("outside_families"):
            # SEARCH_ONLY is realizable only through a weight-5 form that is in
            # neither certificate family.
            from gsflows import family_A, family_B

            i = next(i for i, e in enumerate(g.edges) if e.weight == 5)
            if cert[str(i)] in (family_A(5).encode(), family_B(5).encode()):
                return "weight-5 form lies in a family"
        if op["expect"].get("light"):
            # Thm7 chains above weight 7 and heavy general graphs are checked
            # by the weights above; auditing them can take minutes, and the
            # audit workload audits the chains at weights 5 to 7.
            return None
        from gsflows import report_certificate, verify_certificate

        if not verify_certificate(g, report_certificate(report)):
            return "certificate rejected by verify_certificate"
        return None

    def _enumerate(self, out, count) -> tuple[bool, str | None]:
        if out["code"] != 0:
            return False, f"exit {out['code']}: {out['stderr'].strip()}"
        lines = out["stdout"].strip().splitlines()
        forms, last = lines[:-1], lines[-1]
        if last != f"count: {count}":
            return False, f"{last!r}, expected count: {count}"
        if len(forms) != count or len(set(forms)) != count:
            return False, "listed forms do not match the count"
        return True, None

    def _closure(self, op, out, weight) -> tuple[bool, str | None]:
        from gsflows import minimal_block_catalog

        entry = next(e for e in minimal_block_catalog() if e.name == op["block"])
        initial = (entry.n_plus.encode() if entry.n_plus else "",
                   entry.n_minus.encode() if entry.n_minus else "")
        pairs = [tuple(p) for p in out["pairs"]]
        w0 = sum(manifold_weight(s) for s in initial if s)
        if w0 > weight:
            ok = not pairs and out["complete"] is False
            return ok, None if ok else "pairs above the weight bound"
        if initial not in pairs:
            return False, "closure misses the block's own boundary"
        for p, q in pairs:
            w = (manifold_weight(p) if p else 0) + (manifold_weight(q) if q else 0)
            if w > weight or (w - w0) % 2:
                return False, f"pair of combined weight {w}"
        return True, None

    def _walk(self, out, limit) -> tuple[bool, str | None]:
        for same, w0, c0, w1, c1 in out["steps"]:
            if same and (w1 != w0 + 1 or c1 != c0):
                return False, "same-component identification broke conservation"
            if not same and (w1 != w0 or c1 != c0 - 1):
                return False, "two-component identification broke conservation"
            if w0 > limit:
                return False, "walk exceeded its weight reset"
        return True, None

