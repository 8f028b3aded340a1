import hashlib
import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from relmod import corpus, maltsev
from relmod.algebras import (
    CapExceeded,
    FiniteAlgebra,
    format_term,
    free_algebra,
    generate_subuniverse,
    projection,
    term_table,
)
from relmod.maltsev import (
    PreconditionError,
    SearchStatus,
    TermSystem,
    decide_modularity,
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
    delta,
    enumerate_relations,
    nabla,
    union,
)


def one_element_algebra():
    return FiniteAlgebra("unit", 1, [("f", 1, [0])])


def test_bounds_match_closed_forms():
    assert q_bound(1, 2) == 2
    assert r_bound(1, 2) == 3
    assert q_bound(2, 3) == 18
    assert r_bound(2, 2) == 7
    with pytest.raises(ValueError):
        q_bound(0, 2)
    with pytest.raises(ValueError):
        r_bound(1, 1)


from oracles import (
    day_shortest as _day_shortest,
    day_system_holds,
    dg_shortest as _dg_shortest,
    dg_system_holds,
)

# the corpus when the pins below were taken; it has grown since
FIRST_CORPUS = ("l2", "m3", "sl2", "sl3", "z2", "z2xz2")

# --- directed Gumm search -------------------------------------------------------


def test_find_directed_gumm_z2(z2):
    res = find_directed_gumm(z2)
    assert res.found and res.system.k == 1
    assert verify_directed_gumm(z2, res.system)
    # p is the parity function and j_1 the third projection
    p, j1 = res.system.terms
    assert term_table(z2, p, 3).vector == tuple((c >> 2 ^ c >> 1 ^ c) & 1 for c in range(8))
    assert term_table(z2, j1, 3).vector == projection(2, 3, 2).vector
    assert _dg_shortest(z2) == 1


def test_find_directed_gumm_l2(l2):
    res = find_directed_gumm(l2)
    assert res.found and res.system.k == 2
    assert verify_directed_gumm(l2, res.system)
    # p behaves as the first projection, j_1 as the majority function
    p, j1, j2 = res.system.terms
    assert term_table(l2, p, 3).vector == projection(2, 3, 0).vector
    maj = tuple(1 if bin(c).count("1") >= 2 else 0 for c in range(8))
    assert term_table(l2, j1, 3).vector == maj
    assert term_table(l2, j2, 3).vector == projection(2, 3, 2).vector
    assert _dg_shortest(l2) == 2


@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_find_directed_gumm_semilattices_definitive_no(name, request):
    alg = request.getfixturevalue(name)
    res = find_directed_gumm(alg)
    assert res.status is SearchStatus.NOT_UP_TO
    assert res.definitive
    assert res.node_count == 3
    assert _dg_shortest(alg) is None


def test_find_directed_gumm_z2xz2_and_m3(z2xz2, m3):
    assert find_directed_gumm(z2xz2).system.k == 1
    assert find_directed_gumm(m3).system.k == 2


def test_find_directed_gumm_one_element():
    res = find_directed_gumm(one_element_algebra())
    assert res.found and res.system.k == 1
    assert verify_directed_gumm(one_element_algebra(), res.system)


def test_find_directed_gumm_cap():
    from relmod import corpus

    res = find_directed_gumm(corpus.builtin("l2"), cap=3)
    assert res.status is SearchStatus.CAP_EXCEEDED
    assert res.cap_error is not None


def test_search_deterministic(l2, sl2):
    assert find_directed_gumm(l2) == find_directed_gumm(l2)
    assert find_directed_gumm(sl2) == find_directed_gumm(sl2)


# --- Day search ------------------------------------------------------------------


def test_find_day_z2(z2):
    res = find_day(z2)
    assert res.found and res.system.k == 2
    assert verify_day(z2, res.system)
    assert _day_shortest(z2) == 2


def test_find_day_l2(l2):
    res = find_day(l2)
    assert res.found and res.system.k == 3
    assert verify_day(l2, res.system)
    assert _day_shortest(l2) == 3


@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_find_day_semilattices_definitive_no(name, request):
    alg = request.getfixturevalue(name)
    res = find_day(alg)
    assert res.status is SearchStatus.NOT_UP_TO
    assert res.definitive
    assert _day_shortest(alg) is None


def test_find_day_one_element():
    res = find_day(one_element_algebra())
    assert res.found and res.system.k == 0
    assert verify_day(one_element_algebra(), res.system)


def test_find_day_m3(m3):
    # the full F(4) of the 5-element lattice M3 is too large to search; the
    # restricted search finds k=3 at the default cap
    res = find_day(m3)
    assert res.found and res.system.k == 3
    assert verify_day(m3, res.system)


# k, node_count and the printed d_0..d_k of the Day search on the pentagon
# N5 and on Z6, whose restricted closures are among the largest that end.
# node_count counts the restricted vertices closed when the search ended:
# on Z6 the chain of the least length k=2 stops the closure early, with 16
# vertices closed of the full closure's 36
HARD_DAY = [
    (corpus.builtin("n5"), 3, 292, [
        "x",
        "meet(meet(join(x,y),join(x,w)),join(y,w))",
        "meet(meet(join(x,z),join(x,w)),join(z,w))",
        "w",
    ]),
    (corpus.builtin("z6"), 2, 16, [
        "x",
        "add(add(add(y,z),z),add(add(z,z),add(z,w)))",
        "w",
    ]),
]


@pytest.mark.parametrize("alg,k,nodes,terms", HARD_DAY, ids=lambda v: getattr(v, "name", None))
def test_find_day_hard_cases(alg, k, nodes, terms):
    res = find_day(alg)
    assert res.found and res.system.k == k and res.node_count == nodes
    assert [format_term(t) for t in res.system.terms] == terms
    assert verify_day(alg, res.system)


def test_find_directed_gumm_s3_runs_out_of_closure():
    # the chain k=1 first appears in the closure round that grows the
    # restricted subpower from 175 to 12,776 elements; the cap stops that
    # round before the search can look
    res = find_directed_gumm(corpus.builtin("s3"), cap=5000)
    assert res.status is SearchStatus.CAP_EXCEEDED
    assert res.cap_error.kind == "closure-size"


def test_s3_searches_stop_at_the_least_k():
    # S3 is a group, so it has a Maltsev term; uncapped, both searches stop
    # the closure at the first chain of the least length, certified by the
    # verifiers and the oracles' term evaluation
    s3 = corpus.builtin("s3")
    res = find_directed_gumm(s3)
    assert res.found and res.system.k == 1
    assert verify_directed_gumm(s3, res.system) and dg_system_holds(s3, res.system)
    res = find_day(s3)
    assert res.found and res.system.k == 2
    assert verify_day(s3, res.system) and day_system_holds(s3, res.system)


@pytest.mark.parametrize(
    "alg",
    [corpus.builtin(name) for name in FIRST_CORPUS + ("z4", "z6")],
    ids=lambda alg: alg.name,
)
def test_stopped_closure_is_a_prefix(alg):
    # a closure stopped after round r holds exactly the first elements, with
    # their terms, of the full closure, as many as it had after round r
    width = alg.size**3
    gens = [projection(alg.size, 3, i) for i in range(3)]
    sizes = []  # the element count after each round that adds any
    full = generate_subuniverse(alg, width, gens, stop=lambda vecs: sizes.append(len(vecs)))
    assert sizes[-1] == len(full)
    for r, size in enumerate(sizes, 1):
        rounds = []

        def stop(vecs):
            rounds.append(len(vecs))
            return len(rounds) == r

        part = generate_subuniverse(alg, width, gens, stop=stop)
        assert rounds == sizes[:r]
        assert [(e.vector, e.term) for e in part] == [(e.vector, e.term) for e in full[:size]]


@st.composite
def small_algebras(draw):
    n = draw(st.integers(2, 3))
    entries = st.integers(0, n - 1)
    if draw(st.booleans()):
        table = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    else:
        # an isotope of the cyclic group: random tables on 3 elements almost
        # never have a small free algebra, quasigroups do
        s, t, u = (draw(st.permutations(range(n))) for _ in range(3))
        table = [u[(s[x] + t[y]) % n] for x in range(n) for y in range(n)]
    ops = [("f", 2, table)]
    if draw(st.booleans()):
        ops.append(("g", 1, draw(st.lists(entries, min_size=n, max_size=n))))
    return FiniteAlgebra("r", n, ops)


# the oracles compare every pair of full free-algebra elements by term
# evaluation, so only algebras with a small F(4) stay fast
ORACLE_CAP = 100


@settings(max_examples=30, deadline=None)
@given(small_algebras())
def test_restricted_search_matches_oracles(alg):
    try:
        free_algebra(alg, 4, cap=ORACLE_CAP)
    except CapExceeded:
        assume(False)
    for find, oracle, verify, holds in (
        (find_directed_gumm, _dg_shortest, verify_directed_gumm, dg_system_holds),
        (find_day, _day_shortest, verify_day, day_system_holds),
    ):
        res = find(alg)
        want = oracle(alg)
        if want is None:
            assert res.status is SearchStatus.NOT_UP_TO and res.definitive
        else:
            assert res.found and res.system.k == want
            assert verify(alg, res.system)
            assert holds(alg, res.system)


# --- verifiers -------------------------------------------------------------------


def test_verify_rejects_reversed_j(l2):
    p, *j = find_directed_gumm(l2).system.terms
    reversed_sys = TermSystem((p, *reversed(j)))
    assert not verify_directed_gumm(l2, reversed_sys)
    assert not dg_system_holds(l2, reversed_sys)


def test_verify_rejects_wrong_day(l2):
    sys_ = find_day(l2).system
    broken = TermSystem(tuple(reversed(sys_.terms)))
    assert not verify_day(l2, broken)
    assert not day_system_holds(l2, broken)


def test_verify_wrong_k(l2):
    # a chain one term longer (its next-to-last term repeated) or one term
    # shorter (its last term dropped) fails
    gumm, day = find_directed_gumm(l2).system.terms, find_day(l2).system.terms
    cases = [
        (verify_directed_gumm, dg_system_holds, gumm[:-1] + gumm[-2:]),
        (verify_directed_gumm, dg_system_holds, gumm[:-1]),
        (verify_day, day_system_holds, day[:-1] + day[-2:]),
        (verify_day, day_system_holds, day[:-1]),
    ]
    for verify, holds, terms in cases:
        assert not verify(l2, TermSystem(terms))
        assert not holds(l2, TermSystem(terms))


def test_verify_refuses_chains_too_short_for_the_family(l2):
    # directed Gumm terms need k >= 1 and Day terms k >= 0; the shortest
    # chains are refused without raising, even where their one term would
    # satisfy every identity that reads it
    z, x = find_directed_gumm(l2).system.terms[-1], find_day(l2).system.terms[0]
    for alg in (l2, one_element_algebra()):
        for terms in ((), (z,)):
            assert not verify_directed_gumm(alg, TermSystem(terms))
        assert not verify_day(alg, TermSystem(()))
    assert verify_day(one_element_algebra(), TermSystem((x,)))
    assert TermSystem(()).k == -1 and TermSystem((x,)).k == 0


# status, k, node_count, definitive and the printed terms (p, j_1..j_k or
# d_0..d_k) of the default search on the first corpus: the tie-break
# picks the least term functions in closure order
CORPUS_TERMS = {
    ("l2", "dgumm"): ("found", 2, 9, False, ["x", "meet(meet(join(x,y),join(x,z)),join(y,z))", "z"]),
    ("l2", "day"): ("found", 3, 16, False, [
        "x",
        "meet(meet(join(x,y),join(x,w)),join(y,w))",
        "meet(meet(join(x,z),join(x,w)),join(z,w))",
        "w",
    ]),
    ("m3", "dgumm"): ("found", 2, 9, False, ["x", "meet(meet(join(x,y),join(x,z)),join(y,z))", "z"]),
    ("m3", "day"): ("found", 3, 40, False, [
        "x",
        "meet(meet(join(x,y),join(x,w)),join(y,w))",
        "meet(meet(join(x,z),join(x,w)),join(z,w))",
        "w",
    ]),
    ("sl2", "dgumm"): ("not-up-to", None, 3, True, None),
    ("sl2", "day"): ("not-up-to", None, 3, True, None),
    ("sl3", "dgumm"): ("not-up-to", None, 3, True, None),
    ("sl3", "day"): ("not-up-to", None, 3, True, None),
    ("z2", "dgumm"): ("found", 1, 2, False, ["xor(xor(x,y),z)", "z"]),
    ("z2", "day"): ("found", 2, 4, False, ["x", "xor(xor(y,z),w)", "w"]),
    ("z2xz2", "dgumm"): ("found", 1, 2, False, ["xor(xor(x,y),z)", "z"]),
    ("z2xz2", "day"): ("found", 2, 4, False, ["x", "xor(xor(y,z),w)", "w"]),
}


@pytest.mark.parametrize("family", ["dgumm", "day"])
@pytest.mark.parametrize("name", FIRST_CORPUS)
def test_corpus_terms_pinned(name, family):
    res = (find_directed_gumm if family == "dgumm" else find_day)(corpus.builtin(name))
    got = (
        res.status.value,
        res.system.k if res.found else None,
        res.node_count,
        res.definitive,
        [format_term(t) for t in res.system.terms] if res.found else None,
    )
    assert got == CORPUS_TERMS[name, family]


def test_closure_digest_pinned(monkeypatch):
    # the ordered vectors and first terms of F(3) of the first corpus and
    # of the restricted closures the Day and directed Gumm searches build;
    # the digest was taken from the per-coordinate closure loop that the
    # byte-packed one replaced
    lines = [
        f"free3:{name} {fe.vector} {format_term(fe.term)}"
        for name in FIRST_CORPUS
        for fe in free_algebra(corpus.builtin(name), 3)
    ]
    closures = []

    def recording(*args, **kwargs):
        closures.append(generate_subuniverse(*args, **kwargs))
        return closures[-1]

    monkeypatch.setattr(maltsev, "generate_subuniverse", recording)
    for name in ("l2", "m3", "z2xz2"):
        for family, find in (("day", find_day), ("dgumm", find_directed_gumm)):
            find(corpus.builtin(name))
            (closure,) = closures
            closures.clear()
            lines += [f"{family}:{name} {fe.vector} {format_term(fe.term)}" for fe in closure]
    assert len(lines) == 244
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "617754a67be2c3e3ec10cac988fdecc2393e0c7cdcb128adb45411ce6a23499e"


# --- modularity decision ------------------------------------------------------------


def test_decide_modularity(z2, l2, sl2):
    v = decide_modularity(z2)
    assert v.found and v.system.k == 1
    v = decide_modularity(l2)
    assert v.found and v.system.k == 2
    v = decide_modularity(sl2)
    assert v.status is SearchStatus.NOT_UP_TO and v.definitive


def test_decide_modularity_one_element():
    v = decide_modularity(one_element_algebra())
    assert v.found and v.system.k == 1


def test_two_element_binary_spectrum():
    # every algebra on {0,1} with one binary operation: the minimal k is 1
    # (functionally complete or affine ops), 2 (the implication family), or
    # a definitive no (semilattices, projections, constants)
    spectrum = {}
    for bits in range(16):
        table = [(bits >> i) & 1 for i in range(4)]
        alg = FiniteAlgebra(f"b{bits}", 2, [("f", 2, table)])
        res = find_directed_gumm(alg)
        if res.found:
            key = res.system.k
            assert verify_directed_gumm(alg, res.system)
            assert dg_system_holds(alg, res.system)
        else:
            assert res.definitive
            key = "no"
        spectrum[key] = spectrum.get(key, 0) + 1
    assert spectrum == {1: 4, 2: 4, "no": 8}


def test_found_k_implies_basic_identity():
    # whenever the search succeeds on a random algebra, the simplest
    # modularity identity must hold exhaustively on it
    from relmod.identities import catalog_entry, check_identity

    import random

    rng = random.Random(99)
    found = 0
    for _ in range(40):
        ops = [("f", 2, [rng.randrange(2) for _ in range(4)])]
        if rng.random() < 0.5:
            ops.append(("g", 1, [rng.randrange(2) for _ in range(2)]))
        alg = FiniteAlgebra("r", 2, ops)
        res = find_directed_gumm(alg)
        if res.found:
            found += 1
            assert check_identity(alg, catalog_entry("(1.1)")).holds
    assert found > 0


def test_bare_set_has_no_terms():
    # no operations at all: the only ternary term functions are projections,
    # and the variety of bare sets is as far from modular as it gets
    bare = FiniteAlgebra("set2", 2, [])
    res = find_directed_gumm(bare)
    assert res.status is SearchStatus.NOT_UP_TO and res.definitive
    assert res.node_count == 2  # first and third projections
    day = find_day(bare)
    assert day.status is SearchStatus.NOT_UP_TO and day.definitive


# --- witness chains ------------------------------------------------------------------


def test_witness_rejects_maltsev_system(z2):
    sys_ = find_directed_gumm(z2).system
    nb = nabla(2)
    with pytest.raises(PreconditionError, match="k >= 2"):
        witness_turt(z2, sys_, nb, nb, nb, [nb], 0, 0, [0, 0])


def test_witness_refuses_a_chain_of_the_other_family(l2):
    # a Day chain is no directed Gumm system, and a directed Gumm chain no
    # Day system: the verifiers say so, and each replay names the
    # identities the chain fails
    gumm, day = find_directed_gumm(l2).system, find_day(l2).system
    assert not verify_directed_gumm(l2, day) and not verify_day(l2, gumm)
    nb = nabla(2)
    for build in (witness_turt, witness_turtt):
        with pytest.raises(PreconditionError, match="term system fails the directed Gumm identities"):
            build(l2, day, nb, nb, nb, [nb], 0, 0, [0, 0])
    with pytest.raises(PreconditionError, match="term system fails the Day identities"):
        witness_day(l2, gumm, nb, nb, 0, 0, 0)


def test_witness_precondition_messages(l2):
    sys_ = find_directed_gumm(l2).system
    dl, nb = delta(2), nabla(2)
    with pytest.raises(PreconditionError, match="in R fails"):
        witness_turt(l2, sys_, dl, nb, nb, [nb], 0, 0, [0, 1])
    with pytest.raises(PreconditionError, match="in V fails"):
        witness_turt(l2, sys_, nb, dl, nb, [nb], 0, 1, [0, 0])
    with pytest.raises(PreconditionError, match="in S1 fails"):
        witness_turt(l2, sys_, nb, nb, nb, [dl], 0, 0, [0, 1])
    with pytest.raises(PreconditionError, match="not reflexive"):
        witness_turt(l2, sys_, nb, nb, BinRel.from_pairs(2, [(0, 1)]), [nb], 0, 0, [0, 0])
    with pytest.raises(PreconditionError, match="chain must start"):
        witness_turt(l2, sys_, nb, nb, nb, [nb], 0, 0, [1, 1])


def test_witness_rejects_elements_outside_universe(l2):
    # elements come from the caller, so a bad one is a usage error
    # (ValueError), not a failed precondition
    gumm, day = find_directed_gumm(l2).system, find_day(l2).system
    nb = nabla(2)
    cases = [
        (lambda: witness_day(l2, day, nb, nb, -1, 1, 1), "a=-1"),
        (lambda: witness_day(l2, day, nb, nb, 0, 2, 1), "b=2"),
        (lambda: witness_day(l2, day, nb, nb, 0, 1, 9), "c=9"),
        (lambda: witness_turt(l2, gumm, nb, nb, nb, [nb], 0, -1, [0, 1]), "b=-1"),
        (lambda: witness_turt(l2, gumm, nb, nb, nb, [nb], 0, 1, [0, 2]), "chain\\[1\\]=2"),
        (lambda: witness_turtt(l2, gumm, nb, nb, nb, [nb], 2, 1, [2, 1]), "a=2"),
        (lambda: witness_turtt(l2, gumm, nb, nb, nb, [nb], 0, 1, [0, -1]), "chain\\[1\\]=-1"),
    ]
    for build, name in cases:
        with pytest.raises(ValueError, match=f"element {name} is outside the universe 0..1") as err:
            build()
        assert not isinstance(err.value, PreconditionError)


def test_witness_requires_admissible_relations(m3):
    # on the two-element algebras every reflexive relation is admissible,
    # so the admissibility check needs a bigger carrier
    sys_ = find_directed_gumm(m3).system
    nb = nabla(5)
    bad = union(delta(5), BinRel.from_pairs(5, [(1, 2)]))  # meet with (1,1) escapes
    with pytest.raises(PreconditionError, match="not admissible"):
        witness_turt(m3, sys_, nb, nb, bad, [nb], 0, 0, [0, 0])


def test_witness_turt_degenerate_delta(l2):
    sys_ = find_directed_gumm(l2).system
    dl = delta(2)
    chain = witness_turt(l2, sys_, dl, dl, dl, [dl], 1, 1, [1, 1])
    assert chain.validate()
    assert {chain.start} | {step.target for step in chain.steps} == {1}
    assert all(step.relation == dl for step in chain.steps)


def test_witness_turt_all_nabla(l2):
    sys_ = find_directed_gumm(l2).system
    nb = nabla(2)
    chain = witness_turt(l2, sys_, nb, nb, nb, [nb, nb], 0, 1, [0, 1, 1])
    assert chain.validate()
    assert chain.start == 0 and chain.end == 1
    assert chain.lam_blocks == 2 * sys_.k - 3


def test_witness_turtt_all_nabla(l2):
    sys_ = find_directed_gumm(l2).system
    nb = nabla(2)
    chain = witness_turtt(l2, sys_, nb, nb, nb, [nb, nb], 0, 1, [0, 1, 1])
    assert chain.validate()
    assert chain.lam_blocks == sys_.k - 1


def _chain_line(tag, chain):
    steps = " ".join(f"{s.source},{s.target},{s.label}" for s in chain.steps)
    return f"{tag} {chain.start} {chain.end} {chain.lam_blocks} [{steps}]"


def _turt_instances(alg, ell):
    """Every (R, V, W, S, a, b, chain) meeting the turt preconditions on alg
    with an S-chain of length ell, in a fixed order."""
    lattice = enumerate_relations(alg, RelKind.REFL_ADM).members
    for rels in itertools.product(lattice, repeat=3 + ell):
        R, V, W, S = *rels[:3], list(rels[3:])
        for a, b in itertools.product(range(alg.size), repeat=2):
            for tail in itertools.product(range(alg.size), repeat=ell):
                chain = (a,) + tail
                c = chain[-1]
                if R.has(a, c) and V.has(a, b) and W.has(b, c):
                    if all(S[i].has(chain[i], chain[i + 1]) for i in range(ell)):
                        yield R, V, W, S, a, b, list(chain)


def _day_instances(alg):
    tols = enumerate_relations(alg, RelKind.TOLERANCE).members
    refl = enumerate_relations(alg, RelKind.REFL_ADM).members
    for theta, s in itertools.product(tols, refl):
        for a, b, c in itertools.product(range(alg.size), repeat=3):
            if theta.has(a, c) and s.has(a, b) and s.has(c, b):
                yield theta, s, a, b, c


def test_witness_turt_property_sweep_l1(l2):
    sys_ = find_directed_gumm(l2).system
    count = 0
    for R, V, W, S, a, b, chain in _turt_instances(l2, 1):
        assert witness_turt(l2, sys_, R, V, W, S, a, b, chain).validate()
        count += 1
    assert count > 0


def test_witness_day_degenerate(l2):
    sys_ = find_day(l2).system
    chain = witness_day(l2, sys_, delta(2), delta(2), 1, 1, 1)
    assert chain.validate()
    assert len(chain.steps) <= sys_.k - 1


def test_witness_day_l2_instance(l2):
    sys_ = find_day(l2).system
    s = union(delta(2), BinRel.from_pairs(2, [(0, 1)]))
    chain = witness_day(l2, sys_, nabla(2), s, 0, 1, 1)
    assert chain.validate()
    labels = [step.label for step in chain.steps]
    assert labels == ["Theta & S", "Theta & conv(S)"][: len(labels)]


def test_witness_day_degenerate_one_element():
    alg = one_element_algebra()
    sys_ = find_day(alg).system
    chain = witness_day(alg, sys_, delta(1), delta(1), 0, 0, 0)
    assert chain.validate()
    assert chain.steps == ()


def test_witness_day_precondition(l2):
    sys_ = find_day(l2).system
    with pytest.raises(PreconditionError, match="in Theta fails"):
        witness_day(l2, sys_, delta(2), nabla(2), 0, 0, 1)
    with pytest.raises(PreconditionError, match="not a tolerance"):
        asym = union(delta(2), BinRel.from_pairs(2, [(0, 1)]))
        witness_day(l2, sys_, asym, nabla(2), 0, 0, 1)


def test_witness_turt_on_m3(m3):
    sys_ = find_directed_gumm(m3).system
    nb = nabla(5)
    le = enumerate_relations(m3, RelKind.REFL_ADM).members[1]  # an order relation
    a, c = next((a, c) for a, c in le.pairs() if a != c)
    chain = witness_turt(m3, sys_, nb, nb, le, [le, nb], a, a, [a, c, c])
    assert chain.validate()
    assert chain.start == a and chain.end == c


def test_witness_day_on_z2xz2(z2xz2):
    sys_ = find_day(z2xz2).system
    nb = nabla(4)
    for a, b, c in [(0, 3, 2), (1, 1, 1), (0, 0, 3)]:
        chain = witness_day(z2xz2, sys_, nb, nb, a, b, c)
        assert chain.validate()
        assert len(chain.steps) <= sys_.k - 1


def _padded_gumm(alg, extra):
    """A valid system with a larger k: appending copies of the last term
    (the third projection) preserves all five defining identities."""
    base = find_directed_gumm(alg).system.terms
    sys_ = TermSystem(base + (base[-1],) * extra)
    assert verify_directed_gumm(alg, sys_)
    return sys_


def test_witness_turt_deep_blocks(l2):
    # k >= 3 exercises the middle (wrapped) and tail block constructions,
    # which are empty loops for k = 2
    for extra in (1, 2):
        sys_ = _padded_gumm(l2, extra)
        count = 0
        for R, V, W, S, a, b, chain in _turt_instances(l2, 1):
            w1 = witness_turt(l2, sys_, R, V, W, S, a, b, chain)
            w2 = witness_turtt(l2, sys_, R, V, W, S, a, b, chain)
            assert w1.validate() and w1.lam_blocks == 2 * sys_.k - 3
            assert w2.validate() and w2.lam_blocks == sys_.k - 1
            assert len(w1.steps) == 1 + (2 * sys_.k - 3)
            count += 1
        assert count > 0


def test_witness_chains_digest_pinned(z2, l2, m3, z2xz2):
    # start, end, lam_blocks and every step's (source, target, label) of the
    # criterion-6 sweep, of directed Gumm systems padded to k=3 and k=4, of
    # padded Day systems and of the m3 and z2xz2 instances; the digest was
    # taken from the hand-written step loops the walker replaced
    lines = []
    gumm = find_directed_gumm(l2).system
    systems = [("k2", gumm)] + [(f"k{2 + extra}", _padded_gumm(l2, extra)) for extra in (1, 2)]
    for tag, sys_ in systems:
        for ell in (1, 2) if sys_ is gumm else (1,):
            for R, V, W, S, a, b, chain in _turt_instances(l2, ell):
                for build in (witness_turt, witness_turtt):
                    w = build(l2, sys_, R, V, W, S, a, b, chain)
                    lines.append(_chain_line(f"{build.__name__.removeprefix('witness_')}:{tag}", w))
    for alg in (z2, l2):
        base = find_day(alg).system.terms
        for extra in (0, 1, 2):
            sys_ = TermSystem(base + (base[-1],) * extra)
            for theta, s, a, b, c in _day_instances(alg):
                chain = witness_day(alg, sys_, theta, s, a, b, c)
                lines.append(_chain_line(f"day:{alg.name}:k{sys_.k}", chain))
    nb5 = nabla(5)
    le = enumerate_relations(m3, RelKind.REFL_ADM).members[1]
    msys = find_directed_gumm(m3).system
    for a, c in le.pairs():
        for build in (witness_turt, witness_turtt):
            chain = build(m3, msys, nb5, nb5, le, [le, nb5], a, a, [a, c, c])
            lines.append(_chain_line(f"m3:{build.__name__}", chain))
    zsys = find_day(z2xz2).system
    for a, b, c in itertools.product(range(4), repeat=3):
        lines.append(_chain_line("z2xz2:day", witness_day(z2xz2, zsys, nabla(4), nabla(4), a, b, c)))
    assert len(lines) == 13288
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "fb89bbf12e6f88a5b8711ec9ed6dc6ef49e8d356d5312bee03066fe61fd515b6"


def test_witness_verifies_a_system_once_per_algebra(monkeypatch, l2):
    # a chain's verdict is kept on the algebra with the term tables it was
    # verified on: the search's own verification serves every replay, a
    # system built with lists of terms is the same chain, a failing system
    # is verified once and then refused from the memo, and another algebra
    # verifies for itself; a verification tabulates each term of the chain
    calls = []
    real = maltsev.term_table
    monkeypatch.setattr(maltsev, "term_table", lambda alg, t, g: calls.append(alg) or real(alg, t, g))
    fresh = FiniteAlgebra("l2-copy", l2.size, l2.operations)
    gumm, day = find_directed_gumm(fresh).system, find_day(fresh).system
    verified = [fresh] * (gumm.k + 1 + day.k + 1)
    assert calls == verified
    instances = list(itertools.islice(_turt_instances(fresh, 1), 20))
    for R, V, W, S, a, b, chain in instances:
        witness_turt(fresh, gumm, R, V, W, S, a, b, chain)
        witness_turtt(fresh, gumm, R, V, W, S, a, b, chain)
    day_instances = list(itertools.islice(_day_instances(fresh), 20))
    for theta, s, a, b, c in day_instances:
        witness_day(fresh, day, theta, s, a, b, c)
    witness_turt(fresh, TermSystem(list(gumm.terms)), *instances[0])
    witness_day(fresh, TermSystem(list(day.terms)), *day_instances[0])
    assert calls == verified
    broken = TermSystem((gumm.terms[0], *reversed(gumm.terms[1:])))
    for _ in range(3):
        with pytest.raises(PreconditionError, match="directed Gumm identities"):
            witness_turt(fresh, broken, *instances[0])
    assert not verify_directed_gumm(fresh, broken)
    verified += [fresh] * (gumm.k + 1)
    assert calls == verified
    other = FiniteAlgebra("l2-other", l2.size, l2.operations)
    witness_turt(other, gumm, *instances[0])
    assert calls == verified + [other] * (gumm.k + 1)


def test_witness_tabulates_each_term_once_per_algebra(monkeypatch, l2):
    # the replays read their term functions from the tables each chain was
    # verified on, so the searches and a sweep over both systems' instances
    # tabulate each term of each chain once, at the chain's arity; a memo
    # that holds one chain, emptied as the sweep moves from one system to
    # the other, gives the same chains
    fresh = FiniteAlgebra("l2-copy", l2.size, l2.operations)
    calls = []
    real = maltsev.term_table
    monkeypatch.setattr(maltsev, "term_table", lambda alg, t, g: calls.append((t, g)) or real(alg, t, g))
    gumm, day = find_directed_gumm(fresh).system, find_day(fresh).system
    turt = list(itertools.islice(_turt_instances(fresh, 1), 20))
    days = list(itertools.islice(_day_instances(fresh), 20))

    def sweep(alg):
        chains = []
        for instance in turt:
            chains.append(witness_turt(alg, gumm, *instance))
            chains.append(witness_turtt(alg, gumm, *instance))
        for instance in days:
            chains.append(witness_day(alg, day, *instance))
        return chains

    chains = sweep(fresh)
    assert calls == [(t, 3) for t in gumm.terms] + [(t, 4) for t in day.terms]
    monkeypatch.setattr(maltsev, "_CHAINS_CAP", 1)
    capped = FiniteAlgebra("l2-capped", l2.size, l2.operations)
    assert sweep(capped) == chains
    assert len(capped._chains) == 1


def test_witness_day_deep_chain(l2):
    # padding a Day system with copies of the last projection stays valid
    # and drives longer alternating chains
    base = find_day(l2).system.terms
    for extra in (1, 2):
        sys_ = TermSystem(base + (base[-1],) * extra)
        assert verify_day(l2, sys_)
        s = union(delta(2), BinRel.from_pairs(2, [(0, 1)]))
        chain = witness_day(l2, sys_, nabla(2), s, 0, 1, 1)
        assert chain.validate()
        assert len(chain.steps) == sys_.k - 1


# --- search results against the identity checker -------------------------------------


def test_found_systems_imply_inclusion_identities(l2, m3):
    # with a k-system in hand, the replayed inclusions must check out
    # exhaustively over the algebra's own relation lattices
    from relmod.identities import catalog_entry, check_identity

    for alg in (l2, m3):
        k = find_directed_gumm(alg).system.k
        assert k == 2
        for label in ("(turt)", "(turtt)"):
            for ell in (1, 2):
                assert check_identity(alg, catalog_entry(label, k=k, l=ell)).holds
        for label in ("(a1)", "(a2)", "(a3)"):
            assert check_identity(alg, catalog_entry(label, k=k, h=1)).holds


def test_found_systems_imply_inclusions_sampled(m3):
    from relmod.identities import catalog_entry, check_identity

    k = find_directed_gumm(m3).system.k
    verdict = check_identity(m3, catalog_entry("(turt)", k=k, l=2), mode="sample", seed=2, samples=1000)
    assert verdict.holds and verdict.checked == 1000


def test_day_k_implies_day_identity(z2, l2, z2xz2):
    from relmod.identities import catalog_entry, check_identity

    for alg in (z2, l2, z2xz2):
        k = find_day(alg).system.k
        assert check_identity(alg, catalog_entry("(day)", k=k)).holds
