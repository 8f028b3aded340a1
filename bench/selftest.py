#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not part of the tier-1 suite).

    python3 bench/selftest.py

Checks that
  * two seeds give isomorphic inputs: verdicts, k, search node counts,
    relation-lattice sizes and free-algebra sizes agree;
  * the pinned answers in workloads.py agree with the independent oracles
    in tests/oracles.py where those finish;
  * the tracer sees every sample-mode closure: for a holding check-sample
    op, closure calls through close_to_kind equal samples x quantifiers;
  * per-layer counts repeat exactly between two traced passes.
Exits 1 if any check fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import relmod  # noqa: E402
import workloads  # noqa: E402
from run import counts_signature, run_ops  # noqa: E402
from tracing import Tracer  # noqa: E402

SEEDS = (1, 2)
FAILURES = []


def expect(cond, message):
    print(("ok    " if cond else "FAIL  ") + message, flush=True)
    if not cond:
        FAILURES.append(message)


def invariants(seed):
    """Isomorphism-invariant facts about every workload algebra for one seed."""
    out = {}
    for family, name, _, _ in workloads.TERM_SEARCH:
        alg = relmod.load_algebra(workloads.algebra_text(name, seed))
        if family == "dgumm":
            res = relmod.find_directed_gumm(alg)
        else:
            res = relmod.find_day(alg, cap=workloads.M3_DAY_CAP if name == "m3" else relmod.algebras.DEFAULT_CAP)
        k = res.system.k if res.found else None
        out[f"{family}:{name}"] = (res.status.value, k, res.node_count, res.definitive)
    names = sorted({name for _, name, *_ in workloads.TERM_SEARCH + workloads.CHECK_EXHAUSTIVE + workloads.CHECK_SAMPLE})
    for name in names:
        alg = relmod.load_algebra(workloads.algebra_text(name, seed))
        sizes = tuple(len(relmod.enumerate_relations(alg, kind)) for kind in relmod.RelKind)
        out[f"lattices:{name}"] = sizes
        if alg.size <= 5:
            out[f"free3:{name}"] = len(relmod.free_algebra(alg, 3))
    for label, name, params, sorts, *_ in workloads.CHECK_EXHAUSTIVE:
        alg = relmod.load_algebra(workloads.algebra_text(name, seed))
        out[f"check:{label}:{name}"] = relmod.check_identity(alg, workloads.statement(label, params, sorts)).holds
    return out


def test_isomorphic_seeds():
    a, b = (invariants(seed) for seed in SEEDS)
    for key in a:
        expect(a[key] == b[key], f"seeds {SEEDS} agree on {key}: {a[key]} / {b[key]}")


def test_pins_match_oracles():
    try:
        sys.path.insert(0, str(ROOT / "tests"))
        import oracles
    except ImportError:
        print("skip  tests/oracles.py not found")
        return
    for family, name, k, source in workloads.TERM_SEARCH:
        if not source.startswith(workloads.ORACLE):
            continue
        alg = workloads.base_algebra(name)
        got = oracles.dg_shortest(alg) if family == "dgumm" else oracles.day_shortest(alg)
        expect(got == k, f"{family}:{name} pinned k={k}, oracle {got}")
    lattices = {name: oracles.brute_force_refl_adm(workloads.base_algebra(name)) for name in ("l3", "l4", "sl2")}
    tolerances = [r for r in lattices["l4"] if all((b, a) in r for a, b in r)]
    expect(len(lattices["l3"]) ** 3 == workloads.CHECK_EXHAUSTIVE[0][5], "(D3) on l3 total is 25^3 REFL triples")
    expect(len(tolerances) * len(lattices["l4"]) == workloads.CHECK_EXHAUSTIVE[2][5], "(1.1) on l4 total is TOL x REFL")
    expect(len(lattices["sl2"]) == 4, "sl2 has the 4 REFL relations the README enumerate example pins")


def test_sample_closure_count():
    label, name, params, sorts, holds, samples = workloads.CHECK_SAMPLE[0]  # a holding statement
    stmt = workloads.statement(label, params, sorts)
    op = workloads._check_op(label, name, workloads.algebra_text(name, 1), stmt, holds, samples, "sample", 7)
    tracer = Tracer(record_spans=False)
    rows = run_ops([op], tracer)
    want = samples * len(stmt.quantifiers)
    expect(rows[0][2] == "ok", f"{op.label} answers correctly under tracing")
    expect(tracer.stats["close_to_kind"].calls == want, f"{op.label}: close_to_kind calls {tracer.stats['close_to_kind'].calls} == {want}")
    expect(tracer.layer_calls()["relations.closure"] == want, f"{op.label}: closure-layer calls == {want}")


def test_counts_repeat():
    ops = workloads.build("check-sample", 3)[:2] + workloads.build("term-search", 3)[:4]
    sigs = []
    for _ in range(2):
        tracer = Tracer(record_spans=False)
        run_ops(ops, tracer)
        sigs.append(counts_signature(tracer))
    expect(sigs[0] == sigs[1], "per-layer counts repeat between two traced passes")


if __name__ == "__main__":
    test_isomorphic_seeds()
    test_pins_match_oracles()
    test_sample_closure_count()
    test_counts_repeat()
    print(f"{len(FAILURES)} failure(s)")
    sys.exit(1 if FAILURES else 0)
