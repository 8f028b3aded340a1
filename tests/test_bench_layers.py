"""The benchmark's traced run wraps relmod functions by name, listed in
bench/tracing.py's LAYERS; a refactor that renames one fails here instead of
in the traced run."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layers():
    # read, not imported: the table is a literal
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        targets = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if targets == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py has no LAYERS table")


def test_every_traced_function_exists():
    layers = _layers()
    assert layers
    missing = [
        f"{home}.{fname}"
        for home, names in layers.values()
        for fname in names
        if not callable(getattr(importlib.import_module(home), fname, None))
    ]
    assert missing == []


# Run in a fresh interpreter, as the traced run is: the tracer finds each
# defining module in sys.modules, so it sees only what `import relmod` loads.
_TRACED_RUN = """
import json, sys
import relmod
from relmod import RelKind, corpus
import tracing

def bindings():
    return {
        (name, attr): value
        for name, module in sorted(sys.modules.items())
        if name == "relmod" or name.startswith("relmod.")
        for attr, value in vars(module).items()
    }

before = bindings()
tracer = tracing.Tracer()
tracer.install()
alg = relmod.load_algebra(corpus.builtin_json("l2"))
relmod.enumerate_relations(alg, RelKind.CONGRUENCE)
stmt = relmod.catalog_entry("(B1)", m=relmod.INF)
relmod.check_identity(alg, stmt, mode="sample", seed=1, samples=20)
relmod.check_identity(alg, stmt)
relmod.find_day(alg)
relmod.eval_expr(alg, relmod.parse_identity("S:REFL |- tol(S) <= S").lhs, {"S": relmod.delta(2)})
tracer.end_op()
tracer.uninstall()
after = bindings()
print(json.dumps({
    "closure_calls": tracer.layer_calls()["relations.closure"],
    "closure_distinct": tracer.counts["closure_distinct"],
    "changed": sorted(f"{m}.{a}" for m, a in before if after.get((m, a)) is not before[(m, a)]),
}))
"""


def test_traced_run_installs_and_restores():
    root = TRACING.parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "bench")]))
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN], cwd=root, env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["closure_calls"] > 0
    assert report["closure_distinct"] > 0
    assert report["changed"] == []


def test_traced_cli_command_runs(tmp_path):
    # the cli-readme workload's traced run: one README command under
    # bench/cli_traced.py in a fresh interpreter, its counts in a snapshot
    root = TRACING.parents[1]
    snap = tmp_path / "snap.json"
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, str(root / "bench" / "cli_traced.py"), str(snap), "find-terms", "--algebra", "z2", "--family", "dgumm"],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    calls, _, _ = json.loads(snap.read_text(encoding="utf-8"))["stats"]["find_directed_gumm"]
    assert calls >= 1


def test_bench_selftest_passes():
    # the benchmark's own checks: pinned answers against tests/oracles.py,
    # and close_to_kind calls seen by the tracer = samples x quantifiers
    root = TRACING.parents[1]
    out = subprocess.run(
        [sys.executable, str(root / "bench" / "selftest.py")],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr


@pytest.mark.parametrize("workload", ["check-exhaustive", "check-sample"])
def test_check_workloads_answer_correctly(workload, bench_workloads):
    # each op once, judged by its own check against its pinned answer, so a
    # wrong answer fails here before a benchmark run reports it
    for op in bench_workloads.build(workload, 1):
        assert op.check(op.run())[0] == "ok", op.label
