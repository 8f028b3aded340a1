"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (or `-s` to see the lines).
Every expected value is pinned here, either asserted against the
closed-form bounds or computed by the independent oracles in oracles.py.
"""

import itertools
import random

from oracles import (
    brute_force_refl_adm,
    day_shortest,
    dg_shortest,
    naive_compose,
    naive_plus,
    naive_star,
)

from relmod.identities import (
    INF,
    catalog,
    catalog_entry,
    check_identity,
    eval_expr,
    parse_identity,
    print_statement,
    with_sorts,
)
from relmod.identities import _Program  # internal, used for the shared-draw sweep
from relmod.maltsev import (
    SearchStatus,
    find_day,
    find_directed_gumm,
    q_bound,
    r_bound,
    verify_day,
    verify_directed_gumm,
    witness_day,
    witness_turt,
    witness_turtt,
)
from relmod.relations import (
    BinRel,
    RelKind,
    close_to_kind,
    compose,
    delta,
    enumerate_relations,
    plus,
    refl_adm_closure,
    star,
    union,
)


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_term_search_ground_truth(z2, l2, sl2, sl3):
    # directed Gumm: k=1 on Z2, k=2 on L2, definitive NO on both semilattices
    res_z2 = find_directed_gumm(z2)
    assert res_z2.found and res_z2.system.k == 1
    assert verify_directed_gumm(z2, res_z2.system)

    res_l2 = find_directed_gumm(l2)
    assert res_l2.found and res_l2.system.k == 2
    assert verify_directed_gumm(l2, res_l2.system)

    for alg in (sl2, sl3):
        res = find_directed_gumm(alg)
        assert res.status is SearchStatus.NOT_UP_TO and res.definitive
        assert dg_shortest(alg) is None

    # minimality via the independent path search
    assert dg_shortest(z2) == 1
    assert dg_shortest(l2) == 2

    # Day terms: definitive NO on semilattices, FOUND on Z2 and L2
    for alg in (sl2, sl3):
        res = find_day(alg)
        assert res.status is SearchStatus.NOT_UP_TO and res.definitive
        assert day_shortest(alg) is None
    day_z2 = find_day(z2)
    day_l2 = find_day(l2)
    assert day_z2.found and verify_day(z2, day_z2.system)
    assert day_l2.found and verify_day(l2, day_l2.system)
    assert day_shortest(z2) == day_z2.system.k == 2
    assert day_shortest(l2) == day_l2.system.k == 3
    _report(1, "term-search ground truth with verifier and minimality oracles")


def test_criterion_2_modular_positive_suite(z2, l2, z2xz2, m3):
    algebras = (z2, l2, z2xz2, m3)
    for alg in algebras:
        assert find_directed_gumm(alg).found
    checks = 0
    for alg in algebras:
        for label in ("(1.1)", "(1.2)", "(1.3)", "(1.4)", "(1.5)"):
            stmt = catalog_entry(label)
            for sort in (RelKind.TOLERANCE, RelKind.CONGRUENCE):
                verdict = check_identity(alg, with_sorts(stmt, {"Theta": sort}))
                assert verdict.holds and verdict.counterexample is None, (alg.name, label, sort)
                checks += 1
    _report(2, f"(1.1)-(1.5) hold exhaustively, TOL and CON sorts, {checks} runs")


def test_criterion_3_separating_variant(z2xz2):
    sorts = {"Theta": RelKind.CONGRUENCE, "S": RelKind.CONGRUENCE, "T": RelKind.CONGRUENCE}
    stmt = with_sorts(catalog_entry("(dist)"), sorts)
    verdict = check_identity(z2xz2, stmt)
    assert not verdict.holds

    cons = enumerate_relations(z2xz2, RelKind.CONGRUENCE).members
    atoms = [r for r in cons if r != delta(4) and r != BinRel(4, (15, 15, 15, 15))]
    assert len(atoms) == 3

    # independent full scan for the least violating assignment
    first = None
    scanned = 0
    for theta, s, t in itertools.product(cons, repeat=3):
        scanned += 1
        env = {"Theta": theta, "S": s, "T": t}
        lhs = eval_expr(z2xz2, stmt.lhs, env)
        rhs = eval_expr(z2xz2, stmt.rhs, env)
        if not lhs.issubset(rhs):
            first = (theta, s, t, lhs, rhs, scanned)
            break
    assert first is not None
    theta, s, t, lhs, rhs, scanned = first

    got = dict(verdict.counterexample.assignment)
    assert (got["Theta"], got["S"], got["T"]) == (theta, s, t)
    assert verdict.checked == scanned
    # the violation class: three pairwise distinct atoms, LHS = Theta, RHS = delta
    assert {got["Theta"], got["S"], got["T"]} <= set(atoms)
    assert len({got["Theta"], got["S"], got["T"]}) == 3
    assert lhs == theta
    assert rhs == delta(4)
    a, c = verdict.counterexample.witness
    assert theta.has(a, c) and a != c

    # deterministic
    assert check_identity(z2xz2, stmt) == verdict
    _report(3, "distributivity variant fails on z2xz2 exactly at the least atom triple")


def test_criterion_4_exponent_conformance(l2):
    assert q_bound(1, 2) == 2
    assert r_bound(1, 2) == 3
    assert q_bound(2, 3) == 18
    for h in (1, 2):
        q = q_bound(h, 2)
        r = r_bound(h, 2)
        for label in ("(a1)", "(a2)", "(a3)"):
            stmt = catalog_entry(label, k=2, h=h)
            verdict = check_identity(l2, stmt)
            assert verdict.holds, (label, h)
        # the instantiated ASTs carry exactly the bound exponents
        a2_inner = catalog_entry("(a2)", k=2, h=h).rhs.args[1]
        assert a2_inner.op == ";^" and a2_inner.param == q
        a3_rhs = catalog_entry("(a3)", k=2, h=h).rhs
        assert a3_rhs.op == ";^" and a3_rhs.param == r
    _report(4, "(a1)-(a3) hold on l2 for h in {1,2}; q,r match the closed forms")


def _tut_statements():
    out = []
    for m in (2, 3, INF):
        for label, stmt in catalog(m=m):
            if len(label) == 4 and label[1] in "ABCD" and label[2].isdigit():
                out.append((label, m, stmt))
    assert len(out) == 42  # 14 identities x 3 alternation lengths
    return out


def test_criterion_5_tut_catalog(l2, z2xz2, violation_of):
    statements = _tut_statements()
    # exhaustive: every identity holds on both modular members
    for alg in (l2, z2xz2):
        for label, m, stmt in statements:
            verdict = check_identity(alg, stmt)
            assert verdict.holds, (alg.name, label, m)

    # sampling soundness: ten thousand seeded draws per algebra, shared
    # across all 42 statements, which are compiled into one program so that
    # the subterms they share are cached once; zero counterexamples may appear
    for alg in (l2, z2xz2):
        n = alg.size
        rng = random.Random(20240808)
        program = _Program(alg, ("Theta", "R", "S", "T"))
        checks = [(label, m, violation_of(program, stmt)) for label, m, stmt in statements]
        for _ in range(10000):
            def draw():
                return BinRel(n, tuple(rng.getrandbits(n) for _ in range(n)))

            values = (
                close_to_kind(alg, RelKind.TOLERANCE, draw()),
                close_to_kind(alg, RelKind.REFL_ADM, draw()),
                close_to_kind(alg, RelKind.REFL_ADM, draw()),
                close_to_kind(alg, RelKind.REFL_ADM, draw()),
            )
            for label, m, violation in checks:
                assert violation(values) is None, (alg.name, label, m)

    # the public sample mode agrees
    for alg in (l2, z2xz2):
        verdict = check_identity(alg, catalog_entry("(B1)", m=INF), mode="sample", seed=7, samples=10000)
        assert verdict.holds and verdict.checked == 10000
    _report(5, "(A1)-(D5) hold exhaustively for m in {2,3,inf}; 10000 samples sound")


def test_criterion_6_witness_replay(z2, l2):
    gsys = find_directed_gumm(l2).system
    assert gsys.k == 2
    lattice = enumerate_relations(l2, RelKind.REFL_ADM).members
    chains = 0
    for ell in (1, 2):
        for rels in itertools.product(lattice, repeat=3 + ell):
            R, V, W = rels[:3]
            S = list(rels[3:])
            for a, b in itertools.product(range(2), repeat=2):
                for tail in itertools.product(range(2), repeat=ell):
                    chain = (a,) + tail
                    c = chain[-1]
                    if not (R.has(a, c) and V.has(a, b) and W.has(b, c)):
                        continue
                    if not all(S[i].has(chain[i], chain[i + 1]) for i in range(ell)):
                        continue
                    w1 = witness_turt(l2, gsys, R, V, W, S, a, b, list(chain))
                    w2 = witness_turtt(l2, gsys, R, V, W, S, a, b, list(chain))
                    assert w1.validate() and w2.validate()
                    assert w1.lam_blocks <= 2 * gsys.k - 3
                    assert w2.lam_blocks <= gsys.k - 1
                    chains += 2

    day_chains = 0
    for alg in (z2, l2):
        dsys = find_day(alg).system
        tols = enumerate_relations(alg, RelKind.TOLERANCE).members
        refl = enumerate_relations(alg, RelKind.REFL_ADM).members
        for theta, s in itertools.product(tols, refl):
            for a, b, c in itertools.product(range(2), repeat=3):
                if theta.has(a, c) and s.has(a, b) and s.has(c, b):
                    w = witness_day(alg, dsys, theta, s, a, b, c)
                    assert w.validate()
                    assert len(w.steps) <= dsys.k - 1
                    day_chains += 1
    _report(6, f"{chains} turt/turtt and {day_chains} day chains re-validate, 100%")


def test_criterion_7_permutability_corollary(z2, z2xz2):
    # k=1 algebras: every reflexive admissible relation is a congruence
    for alg in (z2, z2xz2):
        assert find_directed_gumm(alg).system.k == 1
        refl = enumerate_relations(alg, RelKind.REFL_ADM).members
        cons = enumerate_relations(alg, RelKind.CONGRUENCE).members
        assert refl == cons
    _report(7, "on Maltsev members the REFL_ADM and CONGRUENCE lattices coincide")


def test_criterion_8_relation_engine_oracles(sl2, z2, l2):
    # enumerate(REFL_ADM) vs brute-force subset filter on every n<=2 member
    for alg in (sl2, z2, l2):
        brute = brute_force_refl_adm(alg)
        fast = {frozenset(r.pairs()) for r in enumerate_relations(alg, RelKind.REFL_ADM)}
        assert fast == brute

        members = enumerate_relations(alg, RelKind.REFL_ADM).members
        for s in members:
            assert star(s) == plus(s, s)  # reflexive members
            for t in members:
                assert refl_adm_closure(alg, union(s, t)).issubset(compose(s, t))

    # star/plus/compose vs naive pairs-set semantics, 1000 seeded draws per size
    for n in (2, 3, 4):
        rng = random.Random(1000 + n)
        for _ in range(1000):
            r = BinRel(n, tuple(rng.getrandbits(n) for _ in range(n)))
            s = BinRel(n, tuple(rng.getrandbits(n) for _ in range(n)))
            rp, sp = set(r.pairs()), set(s.pairs())
            assert set(compose(r, s).pairs()) == naive_compose(rp, sp)
            assert set(star(r).pairs()) == naive_star(rp)
            assert set(plus(r, s).pairs()) == naive_plus(rp, sp)
    _report(8, "lattice filter, closure facts, and 3000 naive-semantics recomputations agree")


def test_criterion_9_parser_round_trip():
    count = 0
    for k in (2, 3):
        for h in (1, 2):
            for m in (2, 3, INF):
                for l in (1, 2, 3):
                    for label, stmt in catalog(k=k, h=h, m=m, l=l):
                        assert parse_identity(print_statement(stmt)) == stmt, label
                        count += 1
    _report(9, f"parse-print identity on {count} instantiated catalog statements")
