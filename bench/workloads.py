"""The benchmark's workloads: seeded inputs, operation lists and the
expected answer each operation is checked against.

Every algebra is relabelled by a permutation of its universe drawn from the
workload seed, so each seed gives an isomorphic copy: verdicts, k, lattice
sizes and free-algebra sizes are the same for every seed while the tables
differ.  Each operation loads a fresh ``FiniteAlgebra`` through
``relmod.load_algebra``, because an algebra's closure and lattice caches
would otherwise turn later operations into cache hits that a CLI user never
gets.

Each pinned answer names its source: the independent reference searches
and brute-force lattice filters in ``tests/oracles.py`` (re-derived by
``bench/selftest.py``), or theory.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

import relmod
from relmod import INF, RelKind, corpus

# --- algebras ----------------------------------------------------------------


def _table(n, arity, fn):
    return [fn(*args) for args in itertools.product(range(n), repeat=arity)]


def _chain_lattice(n):
    return relmod.FiniteAlgebra(
        f"l{n}", n, [("meet", 2, _table(n, 2, min)), ("join", 2, _table(n, 2, max))]
    )


def _chain_semilattice(n):
    return relmod.FiniteAlgebra(f"sl{n}", n, [("meet", 2, _table(n, 2, min))])


def _pentagon():
    # N5: 0 < 1 < 2 < 4 and 0 < 3 < 4, with 3 incomparable to 1 and 2
    below = {(a, b) for a in range(5) for b in range(5) if a == b or a == 0 or b == 4}
    below.add((1, 2))

    def meet(a, b):
        lower = [c for c in range(5) if (c, a) in below and (c, b) in below]
        return next(c for c in lower if all((d, c) in below for d in lower))

    def join(a, b):
        upper = [c for c in range(5) if (a, c) in below and (b, c) in below]
        return next(c for c in upper if all((c, d) in below for d in upper))

    return relmod.FiniteAlgebra("n5", 5, [("meet", 2, _table(5, 2, meet)), ("join", 2, _table(5, 2, join))])


def _cyclic_group(n):
    return relmod.FiniteAlgebra(f"z{n}", n, [("add", 2, _table(n, 2, lambda x, y: (x + y) % n))])


def _z3_maltsev():
    return relmod.FiniteAlgebra("z3m", 3, [("m", 3, _table(3, 3, lambda x, y, z: (x - y + z) % 3))])


def _implication():
    return relmod.FiniteAlgebra("imp2", 2, [("imp", 2, _table(2, 2, lambda x, y: int(not x or y)))])


def _symmetric3():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    mul = [index[tuple(p[q[i]] for i in range(3))] for p in perms for q in perms]
    inv = [index[tuple(sorted(range(3), key=p.__getitem__))] for p in perms]
    return relmod.FiniteAlgebra("s3", 6, [("mul", 2, mul), ("inv", 1, inv)])


_BUILT = {
    "l3": lambda: _chain_lattice(3),
    "l4": lambda: _chain_lattice(4),
    "sl4": lambda: _chain_semilattice(4),
    "n5": _pentagon,
    "z4": lambda: _cyclic_group(4),
    "z6": lambda: _cyclic_group(6),
    "s3": _symmetric3,
    "z3m": _z3_maltsev,
    "imp2": _implication,
}


def base_algebra(name):
    """The unrelabelled algebra: a corpus algebra's tables, or one built here."""
    if name in _BUILT:
        return _BUILT[name]()
    return corpus.builtin(name)


def relabel(alg, seed):
    """An isomorphic copy of alg, its universe permuted by a seeded shuffle."""
    perm = list(range(alg.size))
    random.Random(f"{seed}:{alg.name}").shuffle(perm)
    n = alg.size
    ops = []
    for op in alg.operations:
        table = [0] * len(op.table)
        for i, args in enumerate(itertools.product(range(n), repeat=op.arity)):
            j = 0
            for a in args:
                j = j * n + perm[a]
            table[j] = perm[op.table[i]]
        ops.append((op.symbol, op.arity, table))
    return relmod.FiniteAlgebra(alg.name, n, ops)


def algebra_text(name, seed):
    """File-format text of the seed's relabelled copy of a named algebra."""
    return relmod.dump_algebra(relabel(base_algebra(name), seed))


# --- operations ----------------------------------------------------------------


class WrongAnswer(Exception):
    """An operation's result disagrees with its pinned answer."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]  # the timed call
    check: Callable[[object], tuple]  # result -> (outcome, work); raises WrongAnswer


def _require(cond, message):
    if not cond:
        raise WrongAnswer(message)


# Term search.  k comes from the independent BFS over brute-force term
# evaluation in tests/oracles.py (dg_shortest / day_shortest); None means
# the oracle finds no path at all, i.e. no terms for any k (semilattices are
# not congruence modular).  m3 Day is pinned at k=3 by a restricted-coordinate
# prototype whose system passed verify_day; under its cap the unrestricted
# search stops without a verdict, which counts as undecided, not as wrong.
ORACLE = "tests/oracles.py"
TERM_SEARCH = [
    ("dgumm", "sl2", None, ORACLE + " dg_shortest"),
    ("dgumm", "sl3", None, ORACLE + " dg_shortest"),
    ("dgumm", "sl4", None, ORACLE + " dg_shortest"),
    ("dgumm", "z2", 1, ORACLE + " dg_shortest"),
    ("dgumm", "z2xz2", 1, ORACLE + " dg_shortest"),
    ("dgumm", "z4", 1, ORACLE + " dg_shortest"),
    ("dgumm", "z3m", 1, ORACLE + " dg_shortest"),
    ("dgumm", "l2", 2, ORACLE + " dg_shortest"),
    ("dgumm", "l3", 2, ORACLE + " dg_shortest"),
    ("dgumm", "l4", 2, ORACLE + " dg_shortest"),
    ("dgumm", "imp2", 2, ORACLE + " dg_shortest"),
    ("dgumm", "m3", 2, ORACLE + " dg_shortest"),
    ("dgumm", "n5", 2, ORACLE + " dg_shortest"),
    ("day", "sl2", None, ORACLE + " day_shortest"),
    ("day", "sl3", None, ORACLE + " day_shortest"),
    ("day", "sl4", None, ORACLE + " day_shortest"),
    ("day", "z2", 2, ORACLE + " day_shortest"),
    ("day", "z2xz2", 2, ORACLE + " day_shortest"),
    ("day", "z3m", 2, ORACLE + " day_shortest"),
    ("day", "z4", 2, ORACLE + " day_shortest"),
    ("day", "l2", 3, ORACLE + " day_shortest"),
    ("day", "l3", 3, ORACLE + " day_shortest"),
    ("day", "l4", 3, ORACLE + " day_shortest"),
    ("day", "imp2", 3, ORACLE + " day_shortest"),
    ("day", "m3", 3, "restricted-coordinate prototype checked by verify_day"),
]
# the closure cap under which m3 Day search runs; uncapped it does not end
M3_DAY_CAP = 1000


def _search_op(family, name, text, k):
    capped = family == "day" and name == "m3"

    def run():
        alg = relmod.load_algebra(text)
        if family == "dgumm":
            return alg, relmod.find_directed_gumm(alg)
        return alg, relmod.find_day(alg, cap=M3_DAY_CAP) if capped else relmod.find_day(alg)

    def check(out):
        alg, res = out
        if capped and res.status is relmod.SearchStatus.CAP_EXCEEDED:
            return "undecided", 1
        if k is None:
            _require(not res.found and res.definitive, f"want a definitive NO, got {res.status.value}")
            return "ok", 1
        _require(res.found, f"want k={k}, got {res.status.value}")
        _require(res.system.k == k, f"want k={k}, got k={res.system.k}")
        verify = relmod.verify_directed_gumm if family == "dgumm" else relmod.verify_day
        _require(verify(alg, res.system), "returned term system fails its verifier")
        return "ok", 1

    return Op(f"{family}:{name}", run, check)


def term_search(seed):
    return [_search_op(fam, name, algebra_text(name, seed), k) for fam, name, k, _ in TERM_SEARCH]


# Identity checks.  Holds/fails comes from theory: every algebra here but
# the semilattices generates a congruence-modular variety (lattices are
# congruence distributive, groups and Maltsev algebras congruence
# permutable), and the catalog's modular identities hold there; they fail in
# semilattices, which are not modular; (dist) fails on Z2 x Z2, whose
# congruence lattice M3 is not distributive.  Totals of holding exhaustive
# checks are products of lattice sizes from the brute-force filter
# tests/oracles.py brute_force_refl_adm (l3: 25 REFL; l4: 196 REFL, 14 TOL);
# n5 is too large for that filter, so only its verdict is pinned.  How many
# assignments a failing check scans before its counterexample depends on the
# relabelling, so those ops cost more under some seeds than under others.
_CON3 = {"Theta": RelKind.CONGRUENCE, "S": RelKind.CONGRUENCE, "T": RelKind.CONGRUENCE}
CHECK_EXHAUSTIVE = [
    # (label, algebra, params, sort overrides, holds, assignments or None)
    ("(D3)", "l3", {"m": INF}, None, True, 25**3),
    ("(D3)", "n5", {"m": INF}, None, True, None),
    ("(1.1)", "l4", {"m": INF}, None, True, 14 * 196),
    ("(B1)", "l4", {"m": INF}, None, True, 14 * 196),
    ("(1.4)", "sl3", {"m": INF}, None, False, None),
    ("(D1)", "sl3", {"m": INF}, None, False, None),
    ("(dist)", "z2xz2", {}, _CON3, False, None),
]
SAMPLES = 1000
CHECK_SAMPLE = [
    ("(B1)", "z6", {"m": INF}, None, True, SAMPLES),
    ("(B1)", "s3", {"m": INF}, None, True, SAMPLES),
    ("(D3)", "m3", {"m": INF}, None, True, SAMPLES),
    ("(D3)", "n5", {"m": INF}, None, True, SAMPLES),
    ("(D3)", "l4", {"m": INF}, None, True, SAMPLES),
    ("(1.4)", "sl4", {}, None, False, None),
]


def statement(label, params, sorts):
    stmt = relmod.catalog_entry(label, **params)
    return relmod.with_sorts(stmt, sorts) if sorts else stmt


def _check_verdict(alg, stmt, verdict, holds, total):
    _require(verdict.holds == holds, f"want holds={holds}, got holds={verdict.holds}")
    if holds:
        _require(verdict.counterexample is None, "holding verdict carries a counterexample")
        if total is not None:
            _require(verdict.checked == total, f"want {total} assignments, got {verdict.checked}")
        return
    ce = verdict.counterexample
    _require(ce is not None, "failing verdict has no counterexample")
    env = dict(ce.assignment)
    lhs = relmod.eval_expr(alg, stmt.lhs, env)
    rhs = relmod.eval_expr(alg, stmt.rhs, env)
    a, c = ce.witness
    _require(lhs.has(a, c) and not rhs.has(a, c), f"counterexample pair {ce.witness} does not separate")


def _check_op(label, name, text, stmt, holds, total, mode, sample_seed):
    def run():
        alg = relmod.load_algebra(text)
        if mode == "sample":
            return alg, relmod.check_identity(alg, stmt, mode="sample", seed=sample_seed, samples=SAMPLES)
        return alg, relmod.check_identity(alg, stmt)

    def check(out):
        alg, verdict = out
        _check_verdict(alg, stmt, verdict, holds, total)
        return "ok", verdict.checked

    return Op(f"{label}:{name}", run, check)


def check_exhaustive(seed):
    return [
        _check_op(label, name, algebra_text(name, seed), statement(label, params, sorts), holds, total, "exhaustive", None)
        for label, name, params, sorts, holds, total in CHECK_EXHAUSTIVE
    ]


def check_sample(seed):
    rng = random.Random(f"{seed}:samples")
    return [
        _check_op(label, name, algebra_text(name, seed), statement(label, params, sorts), holds, total, "sample", rng.getrandbits(32))
        for label, name, params, sorts, holds, total in CHECK_SAMPLE
    ]


# README CLI examples, run as they are documented except that the parallel
# example runs without --jobs and the sampling example draws its --seed from
# the workload seed.  Each entry: arguments, exit code, and the text some
# line of the report must contain.  Sources: the README's comments and exit-code table, the oracles
# above (sl2 has 4 REFL relations by brute_force_refl_adm; z2 dgumm k=1 and
# l2 Day k=3), and theory (Z2 x Z2 is a group, so (1.4) holds; S <= star(S)
# holds for every S).
def cli_readme(seed):
    sample_seed = random.Random(f"{seed}:cli").randrange(1 << 16)
    con = ["--sort", "Theta=CON", "--sort", "S=CON", "--sort", "T=CON"]
    return [
        (["check", "--algebra", "l2", "--identity", "(1.1)"], 0, ["[check] (1.1): HOLDS"]),
        (["check", "--algebra", "z2xz2", "--identity", "(dist)"] + con, 1, ["[check] (dist): FAILS"]),
        (
            ["check", "--algebra", "sl3", "--identity-text", "S:REFL |- S <= star(S)"],
            0,
            ["[check] (inline): HOLDS"],
        ),
        (
            ["check", "--algebra", "l2", "--identity", "(B1)", "--param", "m=inf", "--mode", "sample",
             "--seed", str(sample_seed), "--samples", "10000"],
            0,
            ["[check] (B1): HOLDS checked=10000"],
        ),
        (["check", "--algebra", "z2xz2", "--identity", "(1.4)"], 0, ["[check] (1.4): HOLDS"]),
        (["enumerate", "--algebra", "sl2", "--kind", "refl"], 0, ["[enumerate] refl: 4 members"]),
        (
            ["find-terms", "--algebra", "z2", "--family", "dgumm"],
            0,
            ["[find-terms] dgumm: FOUND k=1", "  p = xor(xor(x,y),z)"],
        ),
        (
            ["find-terms", "--algebra", "sl2", "--family", "dgumm"],
            1,
            ["[find-terms] dgumm: NOT-UP-TO", "(definitive)"],
        ),
        (["find-terms", "--algebra", "l2", "--family", "day"], 0, ["[find-terms] day: FOUND k=3"]),
        (
            ["witness", "--algebra", "l2", "--theorem", "turt", "--rel", "R=nabla", "--rel", "V=nabla",
             "--rel", "W=nabla", "--rel", "S1=delta+0-1", "--rel", "S2=nabla", "--a", "0", "--b", "1",
             "--chain", "0,1,1"],
            0,
            ["[witness] turt: k=2", "  valid: true"],
        ),
        (["catalog", "--param", "k=3", "--param", "m=inf"], 0, ["[catalog] (1.1): ", "[catalog] (D3): "]),
    ]


def check_cli_output(code, stdout, want_code, want_lines):
    _require(code == want_code, f"want exit code {want_code}, got {code}")
    lines = stdout.splitlines()
    for want in want_lines:
        _require(any(want in line for line in lines), f"no line contains {want!r}")


IN_PROCESS = {
    "term-search": term_search,
    "check-exhaustive": check_exhaustive,
    "check-sample": check_sample,
}


def build(workload, seed):
    """The workload's inputs for one seed: a list of Ops, or CLI commands."""
    if workload == "cli-readme":
        return cli_readme(seed)
    return IN_PROCESS[workload](seed)
