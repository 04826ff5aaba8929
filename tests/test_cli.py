import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gsflows.cli import EX_FAIL, EX_NOINPUT, EX_OK, EX_SOFTWARE, EX_UNKNOWN, EX_USAGE, main
from gsflows.documents import serialize_graph
from gsflows.generator import gen_random_gs_graph

SPHERE = "gsgraph v1\nvertex a R a\nvertex r R r\nedge r a 1\n"
NON_REALIZABLE = (
    "gsgraph v1\n"
    "vertex d D r\nvertex w W s_s\nvertex wa W a\nvertex ra R a\n"
    "edge d w 3\nedge w wa 2\nedge w ra 1\n"
)


@pytest.fixture
def sphere_file(tmp_path):
    path = tmp_path / "sphere.gs"
    path.write_text(SPHERE)
    return str(path)


def test_validate_ok(sphere_file, capsys):
    assert main(["validate", sphere_file]) == EX_OK
    out = capsys.readouterr().out
    assert "structure: ok" in out and "verdict=yes-minimal" in out


def test_validate_reports_violations(tmp_path, capsys):
    path = tmp_path / "bad.gs"
    path.write_text("gsgraph v1\nvertex a R s\nvertex b R s\nedge a b 1\nedge b a 1\n")
    assert main(["validate", str(path)]) == EX_FAIL
    assert "oriented cycle" in capsys.readouterr().out


def test_validate_rejects_edge_with_both_ends_open(tmp_path, capsys):
    path = tmp_path / "dangling.gs"
    path.write_text("gsgraph v1\nvertex v R a\nedge OPEN v 1\nedge OPEN OPEN 1\n")
    assert main(["validate", str(path)]) == EX_FAIL
    assert "violation: edge 1: both ends open" in capsys.readouterr().out


def test_realize_exit_codes(tmp_path, capsys):
    sphere = tmp_path / "s.gs"
    sphere.write_text(SPHERE)
    assert main(["realize", str(sphere)]) == EX_OK
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "realizable" and report["certificate"]["0"] == "O"

    nr = tmp_path / "nr.gs"
    nr.write_text(NON_REALIZABLE)
    assert main(["realize", str(nr)]) == EX_UNKNOWN
    capsys.readouterr()
    assert main(["realize", str(nr), "--search-bound", "3"]) == EX_FAIL
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "not-realizable"


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_realize_rejects_bound_below_one(sphere_file, capsys, bound):
    assert main(["realize", sphere_file, "--search-bound", bound]) == EX_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "search bound must be >= 1" in captured.err


def test_euler(sphere_file, capsys):
    assert main(["euler", sphere_file]) == EX_OK
    out = capsys.readouterr().out
    assert "euler (Conley sum): 2" in out
    assert "fold balance: True" in out


def test_enumerate(capsys):
    assert main(["enumerate", "--weight", "4"]) == EX_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "count: 4" and len(out) == 5


def test_enumerate_bound(capsys):
    assert main(["enumerate", "--weight", "9"]) == EX_USAGE
    assert "exceeds enumeration cap 8" in capsys.readouterr().err
    assert main(["enumerate", "--weight", "7"]) == EX_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "count: 97"


def test_internal_failure_exits_70(sphere_file, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("gsflows.cli.realize", broken)
    assert main(["realize", sphere_file]) == EX_SOFTWARE
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"


def test_catalog_totals(capsys):
    assert main(["catalog"]) == EX_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "3 3 3 13 11 / 33"
    assert main(["catalog", "--type", "W"]) == EX_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # three entries plus the totals line


@pytest.mark.parametrize(
    ("args", "digest"),
    [
        (["catalog"], "ce11524343e583204500a1d31ec7f16c32f594990e63c7d8ee11f7fee9aa0eb5"),
        (["catalog", "--json"], "f7fdb055865cc31cf5a286cbb3be5291f4890bc74958492698ce5a5a5edb780a"),
    ],
)
def test_catalog_output_is_pinned(capsys, args, digest):
    # Boundary forms, weights and routing of all 33 blocks, byte for byte.
    assert main(args) == EX_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_export_dot(sphere_file, capsys):
    assert main(["export-dot", sphere_file]) == EX_OK
    out = capsys.readouterr().out
    assert out.startswith("digraph") and '"r" -> "a" [label="1"];' in out


def test_gen_random_deterministic(capsys):
    assert main(["gen-random", "--seed", "7", "--minimal"]) == EX_OK
    first = capsys.readouterr().out
    assert main(["gen-random", "--seed", "7", "--minimal"]) == EX_OK
    assert capsys.readouterr().out == first
    assert first.startswith("gsgraph v1")


def test_usage_errors(capsys):
    assert main(["frobnicate"]) == EX_USAGE
    assert main(["enumerate"]) == EX_USAGE


def test_missing_file():
    assert main(["validate", "/nonexistent/file.gs"]) == EX_NOINPUT


def test_realize_reports_a_malformed_document(tmp_path, capsys):
    path = tmp_path / "bad.gs"
    path.write_text("gsgraph v1\nvertex v Q a\n")
    assert main(["realize", str(path)]) == EX_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(re.escape(str(path)) + r": line 2, col \d+: .+\n", captured.err)


@pytest.mark.parametrize("text", [
    "gsgraph v1\nvertex v R a\nedge OPEN v 1\n",
    "gsgraph v1\nvertex a R s\nvertex b R s\nedge a b 1\nedge b a 1\n",
], ids=["open", "cyclic"])
def test_euler_rejects_open_and_invalid_graphs(tmp_path, capsys, text):
    path = tmp_path / "g.gs"
    path.write_text(text)
    assert main(["euler", str(path)]) == EX_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "euler requires a structurally valid closed graph\n"


def test_realize_rejects_open_graph(tmp_path, capsys):
    path = tmp_path / "open.gs"
    path.write_text("gsgraph v1\nvertex v R a\nedge OPEN v 1\n")
    assert main(["realize", str(path)]) == EX_FAIL
    assert "closed graph" in capsys.readouterr().err


def test_catalog_json_round_trips(capsys):
    from gsflows.branched import parse_manifold

    assert main(["catalog", "--json"]) == EX_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == 2 and len(doc["entries"]) == 33
    for entry in doc["entries"]:
        for side in ("n_plus", "n_minus"):
            if entry[side]:
                assert parse_manifold(entry[side]).encode() == entry[side]


def whitney_chain(k: int) -> str:
    """Thm7 chain r -> s_u^k -> s_s^k -> a; its maximum edge weight is k + 1."""
    lines = ["gsgraph v1", "vertex r R r", "vertex a R a"]
    path = ["r"] + [f"u{i}" for i in range(k)] + [f"s{i}" for i in range(k)] + ["a"]
    lines += [f"vertex u{i} W s_u" for i in range(k)]
    lines += [f"vertex s{i} W s_s" for i in range(k)]
    weights = list(range(1, k + 2)) + list(range(k, 0, -1))
    lines += [f"edge {src} {dst} {w}" for src, dst, w in zip(path, path[1:], weights)]
    return "\n".join(lines) + "\n"


def test_realize_symmetric_chain(tmp_path, capsys):
    from gsflows.branched import parse_manifold

    path = tmp_path / "chain.gs"
    path.write_text(whitney_chain(19))
    assert main(["realize", str(path)]) == EX_OK
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "realizable" and report["theorem"] == "Thm7"
    forms = [parse_manifold(form) for form in report["certificate"].values()]
    assert max(m.total_weight for m in forms) == 20


CYCLIC = "gsgraph v1\nvertex a R s\nvertex b R s\nedge a b 1\nedge b a 1\n"
OPEN_GRAPH = "gsgraph v1\nvertex v R a\nedge OPEN v 1\n"


@pytest.mark.parametrize(
    "text, extra",
    [(CYCLIC, []), (OPEN_GRAPH, []), (CYCLIC, ["--search-bound", "0"])],
    ids=["cyclic", "open", "cyclic-bound-0"],
)
def test_realize_rejects_invalid_graph(tmp_path, capsys, text, extra):
    path = tmp_path / "bad.gs"
    path.write_text(text)
    assert main(["realize", str(path), *extra]) == EX_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "realize requires a structurally valid closed graph\n"


def test_realize_validates_once(sphere_file, capsys, monkeypatch):
    # `model.incidence` makes every validating pass, `validate_graph`'s too.
    modules = [importlib.import_module(f"gsflows.{name}") for name in ("model", "realize")]
    incidence = modules[0].incidence
    calls = []

    def counting(g):
        calls.append(g)
        return incidence(g)

    for module in modules:
        monkeypatch.setattr(module, "incidence", counting)
    assert main(["realize", sphere_file]) == EX_OK
    assert len(calls) == 1


def test_validate_makes_one_incidence_pass(sphere_file, capsys, monkeypatch):
    # The report and the semi-graphs are both read off one `incidence` pass,
    # the classification's.
    modules = [importlib.import_module(f"gsflows.{name}") for name in ("model", "realize")]
    incidence = modules[0].incidence
    calls = []

    def counting(g):
        calls.append(g)
        return incidence(g)

    for module in modules:
        monkeypatch.setattr(module, "incidence", counting)
    assert main(["validate", sphere_file]) == EX_OK
    assert len(calls) == 1
    assert "structure: ok" in capsys.readouterr().out


def test_realize_reads_euler_and_fold_balance_once(sphere_file, tmp_path, capsys, monkeypatch):
    # The one classification pass sums the Euler characteristic, the fold
    # balance and the Conley sum; nothing scans the graph for them again.
    model = importlib.import_module("gsflows.model")
    modules = [importlib.import_module(f"gsflows.{name}") for name in ("cli", "realize", "documents")]
    classify = modules[1].classify_graph
    calls = []

    def counting(name, fn):
        def wrapper(g):
            calls.append(name)
            return fn(g)
        return wrapper

    monkeypatch.setattr(modules[1], "classify_graph", counting("classify_graph", classify))
    for name in ("euler_gs", "fold_balance", "euler_conley"):
        wrapper = counting(name, getattr(model, name))
        for module in (model, *modules):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    nr = tmp_path / "nr.gs"
    nr.write_text(NON_REALIZABLE)
    for path, text, code in ((sphere_file, SPHERE, EX_OK), (str(nr), NON_REALIZABLE, EX_UNKNOWN)):
        calls.clear()
        assert main(["realize", path]) == code
        assert calls == ["classify_graph"]
        report = json.loads(capsys.readouterr().out)
        g = modules[0].parse_graph(text)
        assert report["euler"]["conley"] == model.euler_conley(g)
        assert report["euler"]["nature_formula"] == str(model.euler_gs(g))
        assert report["fold_balance"] == model.fold_balance(g)


def test_parser_reused_across_calls(tmp_path, sphere_file, capsys):
    from gsflows.cli import build_parser

    assert build_parser() is build_parser()
    nr = tmp_path / "nr.gs"
    nr.write_text(NON_REALIZABLE)
    assert main(["realize", str(nr), "--search-bound", "3"]) == EX_FAIL
    assert json.loads(capsys.readouterr().out)["searched_bound"] == 3
    assert main(["realize", str(nr)]) == EX_UNKNOWN
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "unknown" and report["searched_bound"] == 0

    assert main(["catalog", "--json"]) == EX_OK
    assert len(json.loads(capsys.readouterr().out)["entries"]) == 33
    assert main(["catalog", "--type", "D"]) == EX_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 14 and all("(D," in line for line in lines[:-1])

    assert main(["realize", sphere_file, "--frobnicate"]) == EX_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --frobnicate" in captured.err
    assert main(["realize", sphere_file]) == EX_OK
    captured = capsys.readouterr()
    assert captured.err == "" and json.loads(captured.out)["status"] == "realizable"


def test_outputs_do_not_depend_on_hash_seed(tmp_path):
    # Labels are dict, set and cache keys throughout; no output may follow
    # the order the hash seed gives them.
    docs = {
        "realizable": serialize_graph(gen_random_gs_graph(4, size=10)),  # by Thm10-ii
        "unknown": serialize_graph(gen_random_gs_graph(3, size=12)),
        "not-realizable": "gsgraph v1\nvertex a R a\nvertex r R r\nedge r a 2\n",
    }
    commands = [["gen-random", "--seed", "3", "--vertices", "12"]]
    for name, text in docs.items():
        path = tmp_path / f"{name}.gs"
        path.write_text(text)
        commands.append(["realize", str(path)])
    src = str(Path(__file__).resolve().parent.parent / "src")

    def run(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = []
        for args in commands:
            proc = subprocess.run([sys.executable, "-m", "gsflows.cli", *args], env=env, capture_output=True)
            out.append((proc.returncode, proc.stdout))
        return out

    first = run("0")
    assert [code for code, _ in first] == [EX_OK, EX_OK, EX_UNKNOWN, EX_FAIL]
    assert [json.loads(out)["status"] for _, out in first[1:]] == list(docs)
    assert run("1") == first
