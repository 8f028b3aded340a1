import hashlib
import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from relmod import INF, corpus
from relmod import relations as rel
from relmod.algebras import CapExceeded, FiniteAlgebra, _apply, free_algebra
from relmod.relations import (
    BinRel,
    RelKind,
    close_to_kind,
    compose,
    congruence_generated,
    converse,
    delta,
    enumerate_relations,
    format_rel_literal,
    intersect,
    is_admissible,
    is_congruence,
    is_reflexive,
    is_tolerance,
    m_compose,
    nabla,
    parse_rel_literal,
    plus,
    power,
    refl_adm_closure,
    star,
    tolerance_of,
    union,
)


def rel_of(n, *pairs):
    return BinRel.from_pairs(n, pairs)


def rels(n):
    return st.builds(
        lambda rows: BinRel(n, tuple(rows)),
        st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
    )


def maybe_reflexive(n):
    """A relation on n elements, made reflexive or left as drawn."""
    return st.tuples(rels(n), st.booleans()).map(lambda d: union(d[0], delta(n)) if d[1] else d[0])


# relation sizes for the differential tests; 9 needs a second byte per row
sizes = st.integers(1, 9)


import oracles
from oracles import (
    brute_force_relations,
    naive_admissible,
    naive_compose,
    naive_congruence,
    naive_plus,
    naive_star,
    naive_subuniverse,
)
from relmod.corpus import _chain, _table as table


# --- basic operators ---------------------------------------------------------


def test_delta_nabla():
    assert set(delta(2).pairs()) == {(0, 0), (1, 1)}
    assert set(nabla(1).pairs()) == {(0, 0)}
    assert len(delta(3).pairs()) == 3


@pytest.mark.parametrize(
    "n, rows, message",
    [(2, (4, 1), "row 0 = 4"), (2, (1, -1), "row 1 = -1"), (3, (1, 2), "expected 3 rows")],
    ids=["bit-past-n", "negative", "too-few-rows"],
)
def test_binrel_rejects_malformed_rows(n, rows, message):
    # a packed row with a bit at n or above would spill into the next row
    with pytest.raises(ValueError, match=message):
        BinRel(n, rows)


def test_compose_identity():
    s = rel_of(2, (0, 1), (1, 1))
    assert compose(delta(2), s) == s
    assert compose(s, delta(2)) == s


def test_compose_example():
    r = rel_of(2, (0, 0), (1, 1), (0, 1))
    s = rel_of(2, (0, 0), (1, 1), (1, 0))
    assert compose(r, s) == nabla(2)


def test_compose_nabla():
    assert compose(nabla(3), nabla(3)) == nabla(3)


def test_compose_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch"):
        compose(delta(2), delta(3))


def test_converse():
    assert converse(delta(2)) == delta(2)
    assert converse(rel_of(2, (0, 0), (1, 1), (0, 1))) == rel_of(2, (0, 0), (1, 1), (1, 0))


@given(rels(3))
def test_converse_involution(r):
    assert converse(converse(r)) == r


@given(rels(3), rels(3))
def test_converse_antihomomorphism(r, s):
    assert converse(compose(r, s)) == compose(converse(s), converse(r))


def test_intersect_union():
    r = rel_of(2, (0, 1))
    assert intersect(r, nabla(2)) == r
    assert intersect(delta(2), union(delta(2), r)) == delta(2)
    assert union(r, r) == r


def test_m_compose_small(monkeypatch):
    r = rel_of(2, (0, 1))
    s = rel_of(2, (1, 0))
    assert m_compose(r, s, 1) == r
    assert m_compose(r, s, 2) == compose(r, s)
    with pytest.raises(ValueError):
        m_compose(r, s, 0)
    # a large alternation count takes O(log m) compositions, not m - 1
    calls = []
    kernel = rel._compose
    monkeypatch.setattr(rel, "_compose", lambda n, x, y, width=1: calls.append(1) or kernel(n, x, y, width))
    assert m_compose(r, s, 1 << 25) == compose(r, s)
    assert len(calls) <= 51


@given(rels(3), rels(3))
def test_m_compose_three_is_direct_recomputation(r, s):
    assert m_compose(r, s, 3) == compose(compose(r, s), r)


@given(rels(3), rels(3), st.integers(1, 6))
def test_m_compose_matches_naive(r, s, m):
    cur = set(r.pairs())
    for i in range(2, m + 1):
        cur = naive_compose(cur, set(s.pairs()) if i % 2 == 0 else set(r.pairs()))
    assert set(m_compose(r, s, m).pairs()) == cur


@pytest.mark.parametrize("m", [0, -1, 2.0, 0.5, "2", None, True])
def test_m_compose_rejects_a_count_that_is_not_a_positive_integer_or_inf(m):
    r = rel_of(2, (0, 1))
    with pytest.raises(ValueError, match=rf"^m must be an integer >= 1 or INF, got {re.escape(repr(m))}$"):
        m_compose(r, r, m)


@pytest.mark.parametrize("h", [0, -1, 2.0, INF, "2", None, True])
def test_power_rejects_an_exponent_that_is_not_a_positive_integer(h):
    with pytest.raises(ValueError, match=rf"^h must be an integer >= 1, got {re.escape(repr(h))}$"):
        power(rel_of(2, (0, 1)), h)


def test_power_trivial():
    r = rel_of(3, (0, 1))
    assert power(r, 1) == r
    assert power(delta(3), 5) == delta(3)


def test_power_saturates_for_reflexive():
    # reflexive relations on n elements reach their transitive closure by n steps
    rng = random.Random(7)
    for _ in range(50):
        r = union(delta(3), BinRel(3, tuple(rng.getrandbits(3) for _ in range(3))))
        assert power(r, 3) == star(r)


def test_star_examples():
    t = rel_of(3, (0, 1), (1, 2), (0, 2))
    assert star(t) == t
    assert star(rel_of(3, (0, 1), (1, 2))).has(0, 2)


@given(sizes.flatmap(rels))
def test_star_matches_naive(r):
    assert set(star(r).pairs()) == naive_star(set(r.pairs()))


def test_star_equals_plus_for_reflexive_exhaustive_n2():
    for bits in range(4):
        r = union(delta(2), rel_of(2, *[p for i, p in enumerate([(0, 1), (1, 0)]) if bits >> i & 1]))
        assert star(r) == plus(r, r)


@given(sizes.flatmap(rels))
def test_star_equals_plus_for_reflexive(r):
    r = union(r, delta(r.n))
    assert star(r) == plus(r, r)


def test_plus_trivial():
    assert plus(delta(2), delta(2)) == delta(2)
    # n = 1: every pair of the empty relation and delta
    for r in (BinRel(1, (0,)), delta(1)):
        for s in (BinRel(1, (0,)), delta(1)):
            assert plus(r, s) == (delta(1) if is_reflexive(r) else r)


def test_plus_equals_star_of_union_all_reflexive_pairs():
    # brute force over every reflexive pair for n <= 3, against the oracle's
    # transitive closure of the union and its alternation loop
    for n in (1, 2, 3):
        free = n * n - n
        offdiag = [(a, b) for a in range(n) for b in range(n) if a != b]
        rels_n = []
        for bits in range(1 << free):
            rels_n.append(union(delta(n), rel_of(n, *[p for i, p in enumerate(offdiag) if bits >> i & 1])))
        for r in rels_n:
            for s in rels_n:
                got = set(plus(r, s).pairs())
                assert got == naive_star(set(union(r, s).pairs()))
                assert got == naive_plus(set(r.pairs()), set(s.pairs()))
    # seeded sparse reflexive pairs for n = 4..9, where the union takes
    # several steps to saturate
    rng = random.Random(11)
    for n in range(4, 10):
        for _ in range(40):
            r, s = (
                BinRel.from_pairs(n, [(a, b) for a in range(n) for b in range(n) if a == b or rng.random() < 1.5 / n])
                for _ in range(2)
            )
            assert set(plus(r, s).pairs()) == naive_plus(set(r.pairs()), set(s.pairs()))


@settings(max_examples=300)
@given(sizes.flatmap(lambda n: st.tuples(maybe_reflexive(n), maybe_reflexive(n))))
def test_plus_matches_naive(pair):
    # both, one or neither operand reflexive
    r, s = pair
    assert set(plus(r, s).pairs()) == naive_plus(set(r.pairs()), set(s.pairs()))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 12, 16, 17])
def test_packed_operators_match_row_reference(n):
    # every packed operator against its row-tuple definition in oracles.py,
    # on seeded draws of mixed density, half of them made reflexive so that
    # plus takes both branches; n >= 9 has rows wider than a byte and
    # n * n > 64 bits, and converse reads two byte chunks per row at 16 and
    # three at 17
    from relmod.identities import _first_missing_pair

    rng = random.Random(n)

    def draw():
        p = rng.choice((0.05, 0.2, 0.5, 0.9))
        rows = tuple(sum(1 << b for b in range(n) if rng.random() < p) for _ in range(n))
        if rng.random() < 0.5:
            rows = oracles.rows_union(rows, delta(n).rows)
        return rows

    branches = set()
    for _ in range(30):
        r, s = draw(), draw()
        R, S = BinRel(n, r), BinRel(n, s)
        assert R.rows == r and BinRel.from_pairs(n, R.pairs()) == R
        assert compose(R, S).rows == oracles.rows_compose(r, s)
        assert converse(R).rows == oracles.rows_converse(r)
        assert intersect(R, S).rows == oracles.rows_intersect(r, s)
        assert union(R, S).rows == oracles.rows_union(r, s)
        for m in (1, 2, 3, 4, 5, 6, 7, 19, 20, 1 << 25, (1 << 25) + 1):
            assert m_compose(R, S, m).rows == oracles.rows_m_compose(r, s, m)
            assert power(R, m).rows == oracles.rows_m_compose(r, r, m)
        assert star(R).rows == oracles.rows_star(r)
        assert plus(R, S).rows == oracles.rows_plus(r, s)
        assert m_compose(R, S, INF).rows == oracles.rows_plus(r, s)
        branches.add(is_reflexive(R) and is_reflexive(S))
        for x, y in ((R, S), (S, R), (intersect(R, S), R), (R, union(R, S))):
            assert x.issubset(y) == oracles.rows_issubset(x.rows, y.rows)
            assert _first_missing_pair(n, x.bits, y.bits) == oracles.rows_first_missing_pair(x.rows, y.rows)
        for x in (R, union(R, converse(R)), star(R)):
            assert rel.is_reflexive(x) == oracles.rows_is_reflexive(x.rows)
            assert rel.is_symmetric(x) == oracles.rows_is_symmetric(x.rows)
            assert rel.is_transitive(x) == oracles.rows_is_transitive(x.rows)
    assert branches == {True, False}


@pytest.mark.parametrize("n", range(1, 9))
def test_width_kernels_match_row_oracles_member_by_member(n):
    # _compose, _star, _m_compose and _plus on `width` relations packed n^2
    # bits apart, as an exhaustive check's innermost level calls them on a
    # block, against the row oracles on each member: blocks full and short
    # (the last block of a lattice holds fewer members than its width, and
    # the members past it must stay empty), with delta, nabla and empty
    # members, with one operand an outer value broadcast as x * R, and with
    # every member reflexive, so that _plus takes both of its branches
    rng = random.Random(n)
    nn = n * n
    diag = rel._delta(n)
    pool = [0, diag, rel._nabla(n)] + [rng.getrandbits(nn) | diag * (k % 2) for k in range(7)]
    reflexive = [bits for bits in pool if bits & diag == diag]
    rows = {bits: BinRel._of(n, bits).rows for bits in pool}
    memo = {}

    def want(name, operands, *params):
        # the oracle rows_<name> on the packed operands' rows, memoized
        key = (name, operands, params)
        if key not in memo:
            memo[key] = getattr(oracles, "rows_" + name)(*(rows[a] for a in operands), *params)
        return memo[key]

    def members(packed, count):
        assert packed >> count * nn == 0  # the members past the last are empty
        return [BinRel._of(n, packed >> i * nn & (1 << nn) - 1).rows for i in range(count)]

    for width in (1, 2, 3, 63, 64):
        for count in sorted({width, (width + 1) // 2}):
            R = sum(1 << i * nn for i in range(count))
            rs = (pool[:3] + [rng.choice(pool) for _ in range(count)])[:count]
            ss = [rng.choice(pool) for _ in range(count)]
            rng.shuffle(rs)
            x = rng.choice(pool)
            refl = [[rng.choice(reflexive) for _ in range(count)] for _ in "rs"]
            for left, right in ((rs, ss), (rs, [x] * count), ([x] * count, ss), refl):
                # a side of one repeated value is packed as the broadcast
                # x * R of generated code
                r, s = (x * R if side == [x] * count else sum(v << i * nn for i, v in enumerate(side)) for side in (left, right))
                pairs = list(zip(left, right))
                got = members(rel._compose(n, r, s, width), count)
                assert got == [want("compose", p) for p in pairs], (width, count)
                got = members(rel._star(n, r, width), count)
                assert got == [want("star", (a,)) for a in left], (width, count)
                for m in range(1, 6):
                    got = members(rel._m_compose(n, r, s, m, width), count)
                    assert got == [want("m_compose", p, m) for p in pairs], (width, count, m)
                for got in (rel._plus(n, r, s, width), rel._m_compose(n, r, s, INF, width)):
                    assert members(got, count) == [want("plus", p) for p in pairs], (width, count)


def test_plus_of_kernels_is_nabla(z2xz2):
    ker1 = congruence_generated(z2xz2, rel_of(4, (0, 1)))  # collapse second coordinate
    ker2 = congruence_generated(z2xz2, rel_of(4, (0, 2)))  # collapse first coordinate
    assert ker1 != ker2
    assert plus(ker1, ker2) == nabla(4)


# --- predicates and closures --------------------------------------------------


def test_delta_nabla_are_congruences(sl2, z2, l2, z2xz2, m3, sl3):
    for alg in (sl2, z2, l2, z2xz2, m3, sl3):
        assert is_congruence(alg, delta(alg.size))
        assert is_congruence(alg, nabla(alg.size))


def test_not_admissible_on_z2(z2):
    r = union(delta(2), rel_of(2, (0, 1)))
    assert not is_admissible(z2, r)


def test_admissible_checks_constants():
    alg = FiniteAlgebra("pointed", 2, [("one", 0, [1])])
    assert not is_admissible(alg, rel_of(2, (0, 0)))
    assert is_admissible(alg, rel_of(2, (0, 0), (1, 1)))


def test_admissible_matches_oracle(sl2, z2, l2, z2xz2, sl3, m3):
    # random relations of several densities, the empty relation, and the
    # refl-adm lattice members with their diagonal removed, none of them
    # reflexive in general, against the product-loop oracle
    mixed = FiniteAlgebra(
        "mixed", 3, [("c", 0, [1]), ("g", 1, [1, 2, 1]), ("f", 2, [0, 0, 0, 0, 1, 1, 0, 1, 2])]
    )
    rng = random.Random(11)
    verdicts = []
    for alg in (sl2, z2, l2, z2xz2, sl3, m3, mixed):
        n = alg.size
        cases = [BinRel(n, (0,) * n)]
        cases += [
            BinRel.from_pairs(n, [(a, b) for a in range(n) for b in range(n) if rng.random() < p])
            for p in (0.1, 0.3, 0.6, 0.9)
            for _ in range(25)
        ]
        off = BinRel(n, tuple(((1 << n) - 1) ^ (1 << a) for a in range(n)))
        cases += [intersect(r, off) for r in enumerate_relations(alg, RelKind.REFL_ADM)]
        for r in cases:
            want = naive_admissible(alg, set(r.pairs()))
            assert is_admissible(alg, r) == want, (alg.name, format_rel_literal(r))
            verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_refl_adm_closure_fixpoint(sl2, z2, l2):
    for alg in (sl2, z2, l2):
        for r in enumerate_relations(alg, RelKind.REFL_ADM):
            assert refl_adm_closure(alg, r) == r


def test_refl_adm_closure_examples(sl2, z2):
    assert refl_adm_closure(sl2, rel_of(2, (0, 1))) == union(delta(2), rel_of(2, (0, 1)))
    assert refl_adm_closure(z2, rel_of(2, (0, 1))) == nabla(2)


def test_closures_match_oracles(sl2, z2, l2, z2xz2, sl3, m3):
    # cl(R) is exactly the subuniverse of A x A generated by R + delta, tol
    # and Cg are the oracle closures, and admissibility is the product-loop
    # oracle's.  The algebras take every branch of the row kernel: a
    # constant, a unary operation beside a binary one (s3), a ternary one
    # (z3m), n = 9 and n = 10, whose rows span two 8-element chunks (c9's
    # successor reads its argument's second chunk through the image tables
    # alone), and n = 1.  Dense draws close mostly to nabla, so they reach
    # the kernel's skip of full target rows and its stop once every row is
    # full; so do nabla but for one bit (every bit when n <= 6, some bits
    # and each constant's diagonal bit otherwise) and nabla itself
    pointed = FiniteAlgebra(
        "pointed", 3, [("c", 0, [2]), ("f", 2, table(3, 2, lambda x, y: min(x, y) if x else y))]
    )
    c9 = FiniteAlgebra("c9", 9, [("succ", 1, table(9, 1, lambda x: (x + 1) % 9))])
    z10 = FiniteAlgebra("z10", 10, [("add", 2, table(10, 2, lambda x, y: (x + y) % 10))])
    unit = FiniteAlgebra("unit", 1, [("c", 0, [0]), ("f", 2, [0])])
    bare_unit = FiniteAlgebra("bare-unit", 1, [("g", 1, [0])])
    l9 = FiniteAlgebra("l9", 9, _chain(9))
    algs = (sl2, z2, l2, z2xz2, sl3, m3, pointed, corpus.builtin("s3"), corpus.builtin("z3m"), l9, c9, z10)
    rng = random.Random(3)
    verdicts = []
    for alg in algs + (unit, bare_unit):
        n = alg.size
        full = (1 << n) - 1
        diag = set(delta(n).pairs())
        off = BinRel(n, tuple(full ^ (1 << a) for a in range(n)))
        holes = [(a, b) for a in range(n) for b in range(n)]
        if n > 6:
            constants = [(op.table[0], op.table[0]) for op in alg.operations if op.arity == 0]
            holes = rng.sample(holes, 4) + constants
        cases = [BinRel(n, (0,) * n), nabla(n)]
        cases += [
            BinRel.from_pairs(n, [(a, b) for a in range(n) for b in range(n) if rng.random() < p])
            for p in (0.05, 0.15, 0.4, 0.5, 0.8, 0.95)
            for _ in range(4)
        ]
        cases += [BinRel(n, tuple(full ^ (1 << b if x == a else 0) for x in range(n))) for a, b in holes]
        for r in cases:
            pairs = set(r.pairs())
            sym = pairs | {(b, a) for a, b in pairs} | diag
            where = (alg.name, format_rel_literal(r))
            closed = refl_adm_closure(alg, r)
            assert set(closed.pairs()) == naive_subuniverse(alg, 2, pairs | diag), where
            assert set(tolerance_of(alg, r).pairs()) == naive_subuniverse(alg, 2, sym), where
            assert set(congruence_generated(alg, r).pairs()) == naive_congruence(alg, sym), where
            for s in (r, closed, intersect(closed, off)):
                want = naive_admissible(alg, set(s.pairs()))
                assert is_admissible(alg, s) == want, (alg.name, format_rel_literal(s))
                verdicts.append(want)
    assert True in verdicts and False in verdicts


def memo_images_hold(alg):
    """Every image an operation's memo keeps is the image of the masks its
    key packs, n bits apart with the first argument highest."""
    n = alg.size
    full = (1 << n) - 1
    for arity, tab, _, memo in alg._image_tables:
        for key, image in memo.items():
            masks = [key >> (arity - 1 - j) * n & full for j in range(arity)]
            want = 0
            for args in itertools.product(*[[b for b in range(n) if m >> b & 1] for m in masks]):
                code = 0
                for b in args:
                    code = code * n + b
                want |= 1 << tab[code]
            assert image == want, (alg.name, arity, masks)


def test_warm_image_memo_matches_naive_oracle(monkeypatch):
    # one algebra per branch of the kernel: two binary operations (l4), a
    # ternary one (z3m), a unary one beside a binary one (s3), a constant
    # (pointed) and rows of two 8-element chunks (z10).  A long seeded
    # sequence of kernel runs on each shares one warm memo per operation;
    # every result is the naive subuniverse, and again when the memos hold
    # at most 3 images each, so they are emptied and refilled mid-run
    pointed = FiniteAlgebra(
        "pointed", 3, [("c", 0, [2]), ("f", 2, table(3, 2, lambda x, y: min(x, y) if x else y))]
    )
    z10 = FiniteAlgebra("z10", 10, [("add", 2, table(10, 2, lambda x, y: (x + y) % 10))])
    bases = [corpus.builtin(name) for name in ("l4", "z3m", "s3")] + [pointed, z10]
    rng = random.Random(11)
    sequences = []
    for base in bases:
        n = base.size
        diag = delta(n).pairs()
        draws = []
        for i in range(40):
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 3))]
            if i % 4 == 3:
                pairs += [(a, b) for a in range(n) for b in range(n) if rng.random() < 0.3]
            draws.append(pairs + diag if i % 2 else pairs)
        draws += draws[:10]  # repeated inputs read only warm images
        want = [naive_subuniverse(base, 2, pairs) for pairs in draws]
        sequences.append((base, [rel_of(n, *pairs).bits for pairs in draws], want))

    def close_all(cap):
        """The most images any memo held on each algebra."""
        most = []
        for base, inputs, want in sequences:
            alg = FiniteAlgebra(base.name + "-copy", base.size, base.operations)
            n = alg.size
            held = 0
            for bits, pairs in zip(inputs, want):
                closed = rel._pair_closure(alg, bits)
                assert set(BinRel._of(n, closed).pairs()) == pairs, (alg.name, format_rel_literal(BinRel._of(n, bits)))
                held = max(held, *(len(memo) for *_, memo in alg._image_tables))
            memo_images_hold(alg)
            most.append(held)
        return most

    assert min(close_all(rel._CLOSURE_CACHE_CAP)) > 3  # so a cap of 3 empties every memo
    monkeypatch.setattr(rel, "_CLOSURE_CACHE_CAP", 3)
    assert max(close_all(3)) <= 3


def free_algebra_of(alg, g):
    """F_V(g) of alg's variety as an algebra: the g-ary term functions,
    numbered in discovery order, each operation applied coordinatewise."""
    n = alg.size
    vecs = [bytes(fe.vector) for fe in free_algebra(alg, g)]
    index = {vec: i for i, vec in enumerate(vecs)}
    ops = []
    for op in alg.operations:
        args = itertools.product(vecs, repeat=op.arity)
        ops.append((op.symbol, op.arity, [index[_apply(op, n, n**g, list(a), None)] for a in args]))
    return FiniteAlgebra(f"F{g}({alg.name})", len(vecs), ops)


def test_free_algebra_closures_match_naive_oracle(l2):
    # F_V(3) of the 2-element lattice has 18 elements, above the principal
    # table bound, so every closure runs the kernel from r itself through
    # the image memos; sparse seeds keep the naive oracle fast
    free = free_algebra_of(l2, 3)
    n = free.size
    assert n == 18 and n > rel._PRINCIPAL_TABLE_MAX_N
    diag = set(delta(n).pairs())
    rng = random.Random(29)
    sizes = set()
    for _ in range(20):
        pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 3))}
        r = rel_of(n, *pairs)
        where = format_rel_literal(r)
        closed = set(refl_adm_closure(free, r).pairs())
        assert closed == naive_subuniverse(free, 2, pairs | diag), where
        sym = pairs | {(b, a) for a, b in pairs} | diag
        assert set(tolerance_of(free, r).pairs()) == naive_subuniverse(free, 2, sym), where
        sizes.add(len(closed))
    assert len(sizes) > 5 and free._principal_rows is None
    memo_images_hold(free)


def test_image_tables_over_the_cap_are_refused_unbuilt():
    # a binary operation on 400 elements would take 400 * 50 * 256 image
    # entries, above the cap of 2^22: the closure stops before building any
    n = 400
    alg = FiniteAlgebra("big", n, [("f", 2, [0] * n * n)])
    with pytest.raises(CapExceeded) as exc:
        refl_adm_closure(alg, rel_of(n, (0, 1)))
    assert (exc.value.kind, exc.value.limit, exc.value.reached) == ("image-table", 1 << 22, 5_120_000)
    assert alg._image_tables is None


def kernel_closure(alg, r):
    """cl(r) by the pair-closure kernel started from r | delta itself, as
    every closure started before the principal seed."""
    return BinRel._of(alg.size, rel._pair_closure(alg, r.bits | delta(alg.size).bits))


def kernel_congruence(alg, r):
    cur = union(r, converse(r))
    while True:
        nxt = star(kernel_closure(alg, cur))
        if nxt == cur:
            return cur
        cur = nxt


def principal_slots(alg):
    """The n^2 principal slots, slot a*n + b the closure of (a, b) that row
    a's memo keeps at the one-bit mask 1 << b, or None while it is empty;
    None for an algebra that keeps no row memos."""
    rows = alg._principal_rows
    if rows is None:
        return None
    return [memo[1 << b] for _, memo in rows for b in range(alg.size)]


@st.composite
def mixed_algebras(draw):
    """A random algebra with one to four operations of arity 0 to 3, mixed
    freely: on 1 to 5 elements with random tables, or the product of two
    random 2-element algebras.  Random tables make nearly every principal
    closure nabla; a product's are often smaller, and a union of them is
    often not closed, so the kernel has to grow the seed."""
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))

    def tables(n):
        return [draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k)) for k in arities]

    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        ops = tables(n)
    else:
        # element 2*x + y is the pair (x, y)
        def code(args, bit):
            c = 0
            for v in args:
                c = 2 * c + (v >> bit & 1)
            return c

        n = 4
        ops = [
            [2 * t[code(args, 1)] + u[code(args, 0)] for args in itertools.product(range(4), repeat=k)]
            for k, t, u in zip(arities, tables(2), tables(2))
        ]
    return FiniteAlgebra("random", n, [(f"f{i}", k, t) for i, (k, t) in enumerate(zip(arities, ops))])


def closure_inputs(n):
    """Single pairs, nabla but for one bit, sparse draws of up to three
    pairs and dense draws of uniform rows."""
    full = (1 << n) - 1
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return st.one_of(
        pair.map(lambda p: rel_of(n, p)),
        pair.map(lambda p: BinRel(n, tuple(full ^ (1 << p[1]) if a == p[0] else full for a in range(n)))),
        st.lists(pair, min_size=1, max_size=3).map(lambda ps: rel_of(n, *ps)),
        rels(n),
    )


@settings(deadline=None, max_examples=80)
@given(mixed_algebras().flatmap(lambda a: st.tuples(st.just(a), st.lists(closure_inputs(a.size), max_size=8))))
def test_seeded_closures_match_kernel_from_r(drawn):
    # each closure starts from the union of its pairs' principal closures;
    # it must equal the kernel started from r itself, and the naive oracle
    # for Cg on up to 3 elements (larger ternary tables make it slow)
    alg, drawn_rels = drawn
    n = alg.size
    cases = [BinRel(n, (0,) * n), delta(n), nabla(n)] + drawn_rels
    for r in cases:
        where = format_rel_literal(r)
        assert refl_adm_closure(alg, r) == kernel_closure(alg, r), where
        assert tolerance_of(alg, r) == kernel_closure(alg, union(r, converse(r))), where
        cg = congruence_generated(alg, r)
        assert cg == kernel_congruence(alg, r), where
        if n <= 3:
            sym = set(union(union(r, converse(r)), delta(n)).pairs())
            assert set(cg.pairs()) == naive_congruence(alg, sym), where
    # closing each pair on its own fills every off-diagonal slot, and each
    # slot is the closure of its pair
    for a in range(n):
        for b in range(n):
            assert refl_adm_closure(alg, rel_of(n, (a, b))) == kernel_closure(alg, rel_of(n, (a, b)))
    for i, slot in enumerate(principal_slots(alg)):
        a, b = divmod(i, n)
        if a == b:
            assert slot is None
        else:
            assert BinRel._of(n, slot) == kernel_closure(alg, rel_of(n, (a, b))), (a, b)


@pytest.mark.parametrize("n", [rel._PRINCIPAL_TABLE_MAX_N - 1, rel._PRINCIPAL_TABLE_MAX_N])
def test_row_seeds_match_kernel_from_r_at_the_largest_tables(n):
    # a fresh algebra at the largest sizes that keep principal slots: a
    # meet of a shuffled chain and a random unary map, whose closures are
    # a mix of nabla and smaller relations.  The first closures read rows
    # whose slots are still empty; every closure must equal the kernel
    # started from r itself, dense rows and sparse pairs alike, and every
    # row the memo keeps must be the union of that row's slots
    rng = random.Random(f"rows:{n}")
    order = list(range(n))
    rng.shuffle(order)
    rank = {x: i for i, x in enumerate(order)}
    meet = table(n, 2, lambda a, b: order[min(rank[a], rank[b])])
    alg = FiniteAlgebra(f"rand{n}", n, [("meet", 2, meet), ("g", 1, table(n, 1, lambda a: rng.randrange(n)))])
    sizes = set()
    for i in range(400):
        if i % 2:
            r = BinRel(n, tuple(rng.getrandbits(n) for _ in range(n)))
        else:
            r = rel_of(n, *((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 3))))
        where = format_rel_literal(r)
        closed, tol = refl_adm_closure(alg, r), tolerance_of(alg, r)
        assert closed == kernel_closure(alg, r), where
        assert tol == kernel_closure(alg, union(r, converse(r))), where
        sizes |= {len(closed.pairs()), len(tol.pairs())}
    assert len(sizes) > 10 and n * n in sizes
    slots = principal_slots(alg)
    assert [i for i, slot in enumerate(slots) if slot is None] == list(range(0, n * n, n + 1))
    kept = 0
    for a, (i, memo) in enumerate(alg._principal_rows):
        assert i == a * n
        for m, row in enumerate(memo):
            if row is not None:
                assert not m >> a & 1
                want = 0
                for b in range(n):
                    if m >> b & 1:
                        want |= slots[a * n + b]
                assert row == want, (a, m)
                kept += 1
    assert n < kept <= n << n - 1


@pytest.mark.parametrize("n", [rel._PRINCIPAL_TABLE_MAX_N, rel._PRINCIPAL_TABLE_MAX_N + 1])
def test_principal_table_bound(n):
    # an algebra above the bound closes without the row memos, one at the
    # bound builds them
    cycle = FiniteAlgebra("cycle", n, [("succ", 1, table(n, 1, lambda x: (x + 1) % n))])
    step2 = rel_of(n, *[(x, (x + 2) % n) for x in range(n)])
    assert refl_adm_closure(cycle, rel_of(n, (0, 2))) == union(delta(n), step2)
    assert tolerance_of(cycle, rel_of(n, (0, 2))) == union(union(delta(n), step2), converse(step2))
    assert (cycle._principal_rows is None) == (n > rel._PRINCIPAL_TABLE_MAX_N)


def test_is_admissible_builds_no_principal_table(m3):
    fresh = FiniteAlgebra("m3-copy", m3.size, m3.operations)
    rng = random.Random(7)
    verdicts = {
        is_admissible(fresh, BinRel(5, tuple(rng.getrandbits(5) for _ in range(5)))) for _ in range(200)
    }
    verdicts |= {is_admissible(fresh, r) for r in enumerate_relations(m3, RelKind.REFL_ADM)}
    assert verdicts == {True, False}
    assert fresh._principal_rows is None


def test_closures_compute_each_slot_once(monkeypatch):
    # on the pentagon few dense draws close to nabla; a closure fills every
    # empty slot its rows need, so over all closures on one algebra each
    # slot's kernel runs once, n(n-1) runs at most, and each closure runs
    # the kernel on its seed at most once besides
    n5 = corpus.builtin("n5")
    alg = FiniteAlgebra("n5-copy", n5.size, n5.operations)
    n = alg.size
    diag = delta(n).bits
    kernel = rel._pair_closure
    runs = []

    def recorded_kernel(alg, bits):
        runs.append(bits)
        return kernel(alg, bits)

    monkeypatch.setattr(rel, "_pair_closure", recorded_kernel)
    rng = random.Random(3)
    principal, closed = [], []
    for _ in range(60):
        runs.clear()
        r = BinRel(n, tuple(rng.getrandbits(n) for _ in range(n)))
        closed.append((r, refl_adm_closure(alg, r)))
        # a slot's input is delta and its one pair; a seed has two or more
        slots = [bits for bits in runs if not (bits ^ diag) & (bits ^ diag) - 1]
        assert len(runs) - len(slots) <= 1
        principal += slots
    assert len(set(principal)) == len(principal) <= n * (n - 1)
    assert len(principal) == sum(slot is not None for slot in principal_slots(alg))
    monkeypatch.undo()
    for r, got in closed:
        assert got == kernel_closure(alg, r), format_rel_literal(r)


@pytest.mark.parametrize("later", [(1, 2)], ids=["next-row"])
def test_seed_at_nabla_fills_no_later_slot(monkeypatch, later):
    # on z6 the closure of (0, 1) is nabla: once it is in its slot, a
    # closure of (0, 1) and a pair whose slot is still empty, in a later
    # row, is nabla with no kernel run
    z6 = corpus.builtin("z6")
    alg = FiniteAlgebra("z6-copy", z6.size, z6.operations)
    n = alg.size
    assert refl_adm_closure(alg, rel_of(n, (0, 1))) == nabla(n)
    kernel = rel._pair_closure
    runs = []

    def counted_kernel(alg, bits):
        runs.append(1)
        return kernel(alg, bits)

    monkeypatch.setattr(rel, "_pair_closure", counted_kernel)
    assert refl_adm_closure(alg, rel_of(n, (0, 1), later)) == nabla(n)
    assert runs == [] and principal_slots(alg)[later[0] * n + later[1]] is None


def test_sampled_check_runs_kernel_once_per_slot_or_open_seed(monkeypatch, m3):
    # a (D3) sample on m3 runs the kernel once per principal slot it fills
    # and otherwise only for a closure whose seed, the union of the naive
    # closures of its off-diagonal pairs, is not nabla: a closure fills
    # each empty slot of its pairs before it takes the union of them all,
    # so a full seed runs no kernel beyond those; closing each draw from
    # the draw itself would run the kernel thousands of times
    from relmod.identities import catalog_entry, check_identity

    alg = FiniteAlgebra("m3-copy", m3.size, m3.operations)
    n = alg.size
    kernel, closure = rel._pair_closure, rel._refl_adm_closure
    runs, inputs = [], []

    def counted_kernel(alg, bits):
        runs.append(1)
        return kernel(alg, bits)

    def recorded_closure(alg, bits):
        inputs.append(BinRel._of(alg.size, bits))
        return closure(alg, bits)

    monkeypatch.setattr(rel, "_pair_closure", counted_kernel)
    # the sampled draws close through close_to_kind's kernel table
    monkeypatch.setitem(rel._KERNELS, RelKind.REFL_ADM, recorded_closure)
    verdict = check_identity(alg, catalog_entry("(D3)", m=INF), mode="sample", seed=5, samples=1000)
    assert verdict.holds and verdict.checked == 1000
    assert len(inputs) >= 3000
    diag = set(delta(n).pairs())
    everything = set(nabla(n).pairs())
    principal = {p: naive_subuniverse(alg, 2, diag | {p}) for p in everything - diag}
    seeds = [set().union(*(principal[p] for p in r.pairs() if p in principal)) for r in inputs]
    open_seeds = sum(seed != everything for seed in seeds)
    filled = sum(slot is not None for slot in principal_slots(alg) or ())
    assert len(runs) <= filled + open_seeds


@pytest.mark.parametrize("name", ["n5", "l4"])
def test_sampled_check_closes_each_kernel_input_once(monkeypatch, name):
    # on a lattice few seeds reach nabla, so most sampled closures run the
    # kernel; the closure cache keeps its result under the kernel's input,
    # so a (D3) sample runs it once per distinct input, besides the runs
    # that fill principal slots
    from relmod.identities import catalog_entry, check_identity

    base = corpus.builtin(name)
    alg = FiniteAlgebra(name + "-copy", base.size, base.operations)
    kernel = rel._pair_closure
    inputs = []

    def recorded_kernel(alg, bits):
        inputs.append(bits)
        return kernel(alg, bits)

    monkeypatch.setattr(rel, "_pair_closure", recorded_kernel)
    verdict = check_identity(alg, catalog_entry("(D3)", m=INF), mode="sample", seed=5, samples=1000)
    assert verdict.holds and verdict.checked == 1000
    filled = sum(slot is not None for slot in principal_slots(alg))
    assert len(inputs) <= len(set(inputs)) + filled


def test_lattices_digest_pinned():
    # the canonically ordered REFL, TOL and CON lattices of ten corpus
    # algebras; the digest was taken from the pair-at-a-time product loop
    # that the row kernel replaced
    names = ("l2", "m3", "sl2", "sl3", "z2", "z2xz2", "l4", "n5", "s3", "z3m")
    algs = [corpus.builtin(name) for name in names]
    lines = []
    for alg in algs:
        for kind in RelKind:
            members = enumerate_relations(alg, kind).members
            lines.append(f"{alg.name} {kind.value} {len(members)}")
            lines += ["".join(map(str, r.flat_bits())) for r in members]
    assert len(lines) == 389
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "9c0c021d5b4ab701236112daf9899e50b3bd7d8d4b42e80cd766c9627570c2ee"


def test_tolerance_of(sl2):
    assert tolerance_of(sl2, delta(2)) == delta(2)
    assert tolerance_of(sl2, rel_of(2, (0, 1))) == nabla(2)
    for t in enumerate_relations(sl2, RelKind.TOLERANCE):
        assert tolerance_of(sl2, t) == t


def test_congruence_generated(z2xz2):
    assert congruence_generated(z2xz2, delta(4)) == delta(4)
    assert congruence_generated(z2xz2, nabla(4)) == nabla(4)
    # elements are 2*hi + lo; gluing (0,0)~(0,1) collapses the low bit
    ker = congruence_generated(z2xz2, rel_of(4, (0, 1)))
    classes = {frozenset({b for b in range(4) if ker.has(a, b)}) for a in range(4)}
    assert classes == {frozenset({0, 1}), frozenset({2, 3})}


def test_congruence_generated_is_a_congruence(sl3):
    rng = random.Random(5)
    for _ in range(40):
        r = BinRel(3, tuple(rng.getrandbits(3) for _ in range(3)))
        assert is_congruence(sl3, congruence_generated(sl3, r))


# --- enumeration ---------------------------------------------------------------


def test_enumerate_sl2_refl(sl2):
    members = enumerate_relations(sl2, RelKind.REFL_ADM).members
    assert [format_rel_literal(r) for r in members] == [
        "delta",
        "delta+1-0",
        "delta+0-1",
        "nabla",
    ]


def test_enumerate_z2_refl(z2):
    assert len(enumerate_relations(z2, RelKind.REFL_ADM)) == 2


def test_enumerate_two_element_congruences(sl2, z2, l2):
    for alg in (sl2, z2, l2):
        assert len(enumerate_relations(alg, RelKind.CONGRUENCE)) == 2


def test_enumerate_members_pass_their_predicate(sl2, z2, l2, sl3, z2xz2, m3):
    for alg in (sl2, z2, l2, sl3, z2xz2, m3):
        for kind in RelKind:
            lattice = enumerate_relations(alg, kind)
            assert len(set(lattice.members)) == len(lattice.members)
            assert delta(alg.size) in lattice.members
            assert nabla(alg.size) in lattice.members
            for r in lattice:
                if kind is RelKind.REFL_ADM:
                    assert is_reflexive(r) and is_admissible(alg, r)
                elif kind is RelKind.TOLERANCE:
                    assert is_tolerance(alg, r)
                else:
                    assert is_congruence(alg, r)


@pytest.mark.parametrize("kind, members", [(RelKind.TOLERANCE, 14), (RelKind.CONGRUENCE, 8)])
def test_symmetric_joins_take_no_converse(monkeypatch, kind, members):
    # a join of two tolerances or congruences is symmetric already, so
    # enumeration closes it with no converse: on a cold l4, only the n^2
    # principals take one
    alg = corpus.builtin("l4")
    alg = FiniteAlgebra(alg.name + "-copy", alg.size, alg.operations)
    calls = []
    kernel = rel._converse
    monkeypatch.setattr(rel, "_converse", lambda n, r: calls.append(r) or kernel(n, r))
    assert len(enumerate_relations(alg, kind)) == members
    assert len(calls) == alg.size**2 == 16


def test_enumerate_closed_under_meet_and_join(sl2, sl3, l2):
    for alg in (sl2, sl3, l2):
        lattice = enumerate_relations(alg, RelKind.REFL_ADM)
        members = set(lattice.members)
        for r in lattice:
            for s in lattice:
                assert intersect(r, s) in members
                assert refl_adm_closure(alg, union(r, s)) in members


def test_every_member_is_join_of_its_principals(sl2, sl3, l2, z2xz2, m3):
    # the completeness argument behind principal-join enumeration
    from relmod.relations import close_to_kind

    for alg in (sl2, sl3, l2, z2xz2, m3):
        n = alg.size
        for kind in RelKind:
            for member in enumerate_relations(alg, kind):
                seed = BinRel(n, (0,) * n)
                for a, b in member.pairs():
                    seed = union(seed, BinRel.from_pairs(n, [(a, b)]))
                assert close_to_kind(alg, kind, seed) == member


def test_enumerate_bare_set():
    # with no operations every reflexive relation is admissible and the
    # congruences are exactly the equivalence relations
    bare = FiniteAlgebra("set2", 2, [])
    assert len(enumerate_relations(bare, RelKind.REFL_ADM)) == 4
    assert len(enumerate_relations(bare, RelKind.CONGRUENCE)) == 2


def test_enumerate_matches_brute_force_on_three_elements(sl3):
    # all 512 subsets of a 3x3 matrix, filtered by the defining predicates
    brute = brute_force_relations(sl3, RelKind.REFL_ADM)
    fast = {frozenset(r.pairs()) for r in enumerate_relations(sl3, RelKind.REFL_ADM)}
    assert fast == brute
    assert len(fast) == 36


@st.composite
def small_algebras(draw):
    """A random algebra on 2 or 3 elements with one to three operations of
    arity 0 to 2 (to 3 on 2 elements)."""
    n = draw(st.integers(2, 3))
    arities = draw(st.lists(st.integers(0, 5 - n), min_size=1, max_size=3))
    ops = [
        (f"f{i}", k, draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k)))
        for i, k in enumerate(arities)
    ]
    return FiniteAlgebra("random", n, ops)


@settings(deadline=None, max_examples=60)
@given(small_algebras())
def test_enumerate_matches_brute_force_on_random_algebras(alg):
    # the principal-join enumeration against every subset of A x A that
    # passes the defining predicates, for each kind
    for kind in RelKind:
        fast = enumerate_relations(alg, kind).members
        assert {frozenset(r.pairs()) for r in fast} == brute_force_relations(alg, kind), kind
        assert list(fast) == sorted(fast, key=BinRel.flat_bits)


def test_enumerate_cap(m3):
    from relmod.algebras import CapExceeded

    fresh = FiniteAlgebra("m3-copy", m3.size, m3.operations)
    with pytest.raises(CapExceeded) as exc:
        enumerate_relations(fresh, RelKind.REFL_ADM, cap=2)
    assert exc.value.kind == "lattice-size"


@pytest.mark.parametrize("uncapped_first", [False, True])
def test_enumerate_cap_ignores_earlier_calls(uncapped_first):
    # the lattice an algebra keeps is checked against each call's cap, so a
    # capped call fails the same way before and after an uncapped one
    from relmod.algebras import CapExceeded
    from relmod.identities import catalog_entry, check_identity

    alg = corpus.builtin("l2")
    alg = FiniteAlgebra("l2-copy", alg.size, alg.operations)
    if uncapped_first:
        assert len(enumerate_relations(alg, RelKind.REFL_ADM).members) == 4
    with pytest.raises(CapExceeded) as exc:
        enumerate_relations(alg, RelKind.REFL_ADM, cap=2)
    assert (exc.value.kind, exc.value.limit, exc.value.reached) == ("lattice-size", 2, 3)
    with pytest.raises(CapExceeded, match="reached 3, limit 2"):
        check_identity(alg, catalog_entry("(1.1)"), cap=2)
    assert len(enumerate_relations(alg, RelKind.REFL_ADM, cap=4).members) == 4
    # an exhaustive check's cap also bounds its assignments, 2 x 4 here
    assert check_identity(alg, catalog_entry("(1.1)"), cap=8).checked == 8


def test_overline_union_below_composition(sl2, sl3, l2, m3):
    for alg in (sl2, sl3, l2, m3):
        lattice = enumerate_relations(alg, RelKind.REFL_ADM)
        for r in lattice:
            for s in lattice:
                assert refl_adm_closure(alg, union(r, s)).issubset(compose(r, s))


def test_m_compose_monotone_for_reflexive(sl3):
    lattice = enumerate_relations(sl3, RelKind.REFL_ADM).members
    rng = random.Random(11)
    for _ in range(30):
        r = rng.choice(lattice)
        s = rng.choice(lattice)
        prev = m_compose(r, s, 1)
        for m in range(2, 6):
            cur = m_compose(r, s, m)
            assert prev.issubset(cur)
            prev = cur


@pytest.mark.parametrize("entry", ["enumerate_relations", "close_to_kind"])
@pytest.mark.parametrize("kind", ["REFL", "TOL", "CON", None, ["TOL"]])
def test_a_sort_that_is_not_a_relkind_is_refused(l2, entry, kind):
    # the spelling of a sort is not the sort: both entries refuse it as
    # check_identity does, naming the choices
    message = rf"^sort {re.escape(repr(kind))}, expected a RelKind \(REFL, TOL or CON\)$"
    with pytest.raises(ValueError, match=message) as refused:
        if entry == "enumerate_relations":
            enumerate_relations(l2, kind)
        else:
            close_to_kind(l2, kind, delta(l2.size))
    # raised on its own, not while handling the failed kernel lookup, so
    # no "During handling of the above exception" is printed above it
    assert refused.value.__context__ is None


def test_sort_ordering_is_flat_bits():
    r = rel_of(2, (0, 0), (0, 1), (1, 1))
    assert delta(2).flat_bits() < r.flat_bits()


# --- literals -------------------------------------------------------------------


def test_rel_literal_round_trip():
    for n in (2, 3, 4):
        rng = random.Random(n)
        for _ in range(50):
            r = BinRel(n, tuple(rng.getrandbits(n) for _ in range(n)))
            assert parse_rel_literal(format_rel_literal(r), n) == r


def test_rel_literal_examples():
    assert parse_rel_literal("delta+0-1", 2) == union(delta(2), rel_of(2, (0, 1)))
    assert parse_rel_literal("nabla", 3) == nabla(3)
    with pytest.raises(ValueError):
        parse_rel_literal("0:1", 2)
    with pytest.raises(ValueError):
        parse_rel_literal("0-5", 2)
