import json
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import naive_subuniverse, ordered_subuniverse
from relmod import algebras, identities, maltsev, relations
from relmod.algebras import (
    AlgebraError,
    Apply,
    CapExceeded,
    FiniteAlgebra,
    FreeElement,
    Operation,
    TermError,
    Variable,
    dump_algebra,
    eval_term,
    format_term,
    free_algebra,
    generate_subuniverse,
    load_algebra,
    projection,
    term_table,
)
from relmod.corpus import _table

SL2_TEXT = json.dumps(
    {"name": "sl2", "size": 2, "operations": [{"symbol": "meet", "arity": 2, "table": [0, 0, 0, 1]}]}
)


def xor3(a, b, c):
    return Apply("xor", (Apply("xor", (a, b)), c))


def test_load_semilattice():
    alg = load_algebra(SL2_TEXT)
    assert alg.size == 2
    assert alg.operations[0].symbol == "meet"
    assert alg.operations[0].table == (0, 0, 0, 1)


def test_load_z2():
    alg = load_algebra(
        json.dumps(
            {"name": "z2", "size": 2, "operations": [{"symbol": "xor", "arity": 2, "table": [0, 1, 1, 0]}]}
        )
    )
    assert alg.size == 2


def test_load_table_length_mismatch():
    text = json.dumps(
        {"name": "bad", "size": 2, "operations": [{"symbol": "f", "arity": 2, "table": [0, 1, 1]}]}
    )
    with pytest.raises(AlgebraError, match="table length mismatch"):
        load_algebra(text)


def test_load_entry_out_of_range():
    text = json.dumps(
        {"name": "bad", "size": 2, "operations": [{"symbol": "f", "arity": 1, "table": [0, 2]}]}
    )
    with pytest.raises(AlgebraError, match="out of range"):
        load_algebra(text)


def test_load_duplicate_symbol():
    text = json.dumps(
        {
            "name": "bad",
            "size": 2,
            "operations": [
                {"symbol": "f", "arity": 0, "table": [0]},
                {"symbol": "f", "arity": 0, "table": [1]},
            ],
        }
    )
    with pytest.raises(AlgebraError, match="duplicate symbol"):
        load_algebra(text)


@pytest.mark.parametrize(
    "data, message",
    [
        (
            {"name": "b", "size": True, "operations": [{"symbol": "f", "arity": 1, "table": [False]}]},
            "size must be a positive integer",
        ),
        ({"name": "b", "size": 2, "operations": [{"symbol": "f", "arity": True, "table": [0, 1]}]}, "bad arity"),
        ({"name": "b", "size": 2, "operations": [{"symbol": "f", "arity": 1, "table": [False, 1]}]}, "table entry"),
        ({"name": ["x"], "size": 2, "operations": []}, "name must be a string"),
    ],
    ids=["bool-size", "bool-arity", "bool-entry", "list-name"],
)
def test_load_rejects_bools_and_non_string_names(data, message):
    # JSON true and false are Python bools, an int subclass
    with pytest.raises(AlgebraError, match=message):
        load_algebra(json.dumps(data))


def test_load_syntax_error_reports_position():
    with pytest.raises(AlgebraError, match=r"line 1, column"):
        load_algebra("{not json")


def test_load_missing_key():
    with pytest.raises(AlgebraError, match="missing key"):
        load_algebra('{"name": "x", "size": 2}')


def test_dump_round_trips(z2):
    again = load_algebra(dump_algebra(z2))
    assert again.size == z2.size
    assert again.operations == z2.operations


def test_nullary_operations_allowed():
    alg = FiniteAlgebra("pointed", 3, [("c", 0, [2])])
    assert eval_term(alg, Apply("c", ()), []) == 2


def test_eval_xor_chain(z2):
    t = xor3(Variable(0), Variable(1), Variable(2))
    assert eval_term(z2, t, [1, 1, 0]) == 0
    assert eval_term(z2, t, [1, 0, 0]) == 1


def test_eval_projection(sl2):
    assert eval_term(sl2, Variable(2), [0, 1, 0]) == 0
    assert eval_term(sl2, Variable(2), [1, 1, 1]) == 1


def test_eval_meet(sl2):
    assert eval_term(sl2, Apply("meet", (Variable(0), Variable(1))), [0, 1]) == 0


def test_eval_errors(z2):
    with pytest.raises(TermError, match="unknown symbol"):
        eval_term(z2, Apply("nope", ()), [])
    with pytest.raises(TermError, match="arity mismatch"):
        eval_term(z2, Apply("xor", (Variable(0),)), [0])
    with pytest.raises(TermError, match="out of range"):
        eval_term(z2, Variable(3), [0, 1])


def test_term_table_parity(z2):
    fe = term_table(z2, xor3(Variable(0), Variable(1), Variable(2)), 3)
    assert len(fe.vector) == 8
    for code in range(8):
        bits = [(code >> 2) & 1, (code >> 1) & 1, code & 1]
        assert fe.vector[code] == (bits[0] ^ bits[1] ^ bits[2])


def test_term_table_projection(sl2):
    fe = term_table(sl2, Variable(0), 3)
    # first variable is most significant in the tuple encoding
    assert fe.vector == tuple(code // 4 for code in range(8))
    # a projection index outside 0..g-1 names no variable
    for g, i in ((2, 3), (2, 2), (3, -1)):
        with pytest.raises(TermError, match="out of range"):
            projection(2, g, i)


def test_term_table_triple_meet(sl2):
    t = Apply("meet", (Variable(0), Apply("meet", (Variable(1), Variable(2)))))
    fe = term_table(sl2, t, 3)
    assert fe.vector == (0, 0, 0, 0, 0, 0, 0, 1)


def test_term_table_cap():
    alg = FiniteAlgebra("a", 4, [])
    with pytest.raises(CapExceeded) as exc:
        term_table(alg, Variable(0), 5, cap=100)
    assert exc.value.kind == "vector-length"
    assert exc.value.limit == 100


def _check_closure_certificate(alg, width, gens, result):
    """Independent correctness certificate: result contains the generators,
    is closed under every operation, and every element's term re-evaluates
    to its vector over the generators."""
    vectors = {fe.vector for fe in result}
    for g in gens:
        assert tuple(g.vector) in vectors
    for op in alg.operations:
        if op.arity == 0:
            assert (op.table[0],) * width in vectors
            continue
        from itertools import product as iproduct

        for args in iproduct(result, repeat=op.arity):
            out = []
            for coord in range(width):
                idx = 0
                for fe in args:
                    idx = idx * alg.size + fe.vector[coord]
                out.append(op.table[idx])
            assert tuple(out) in vectors
    for fe in result:
        for coord in range(width):
            env = [g.vector[coord] for g in gens]
            assert eval_term(alg, fe.term, env) == fe.vector[coord]


def test_closure_z2_projections(z2):
    gens = [projection(2, 3, i) for i in range(3)]
    result = generate_subuniverse(z2, 8, gens)
    # xor of any two projections is itself a term function, so the closure
    # is the full xor-span of the generators: 8 elements including 0
    assert len(result) == 8
    parity = term_table(z2, xor3(Variable(0), Variable(1), Variable(2)), 3)
    assert parity in result
    _check_closure_certificate(z2, 8, gens, result)


def test_closure_fixpoint(sl2):
    gens = [projection(2, 3, i) for i in range(3)]
    closed = generate_subuniverse(sl2, 8, gens)
    again = generate_subuniverse(sl2, 8, closed)
    assert set(again) == set(closed)


def test_closure_sl2_projections(sl2):
    gens = [projection(2, 3, i) for i in range(3)]
    result = generate_subuniverse(sl2, 8, gens)
    assert len(result) == 7  # nonempty meets of three generators
    _check_closure_certificate(sl2, 8, gens, result)


def test_closure_cap(sl2):
    gens = [projection(2, 4, i) for i in range(4)]
    with pytest.raises(CapExceeded) as exc:
        generate_subuniverse(sl2, 16, gens, cap=5)
    assert exc.value.kind == "closure-size"


def test_closure_counts_the_generators_against_the_cap(sl2):
    # three distinct generators already exceed a cap of 2; a repeated one
    # adds no element
    gens = [projection(2, 3, i) for i in range(3)]
    with pytest.raises(CapExceeded, match="closure-size cap exceeded: reached 3, limit 2"):
        generate_subuniverse(sl2, 8, gens, cap=2)
    with pytest.raises(CapExceeded, match="reached 3, limit 2"):
        generate_subuniverse(sl2, 8, gens[:2] + gens[:1], cap=2)


@pytest.mark.parametrize("g", [-1, 1.0, True, None])
def test_free_algebra_refuses_a_bad_g(sl2, g):
    with pytest.raises(ValueError, match=f"g must be a non-negative integer, got {g!r}"):
        free_algebra(sl2, g)


@pytest.mark.parametrize("cap", [0, -5, 2.5, True, None])
@pytest.mark.parametrize(
    "entry",
    [
        lambda alg, cap: generate_subuniverse(alg, 1, [], cap),
        lambda alg, cap: free_algebra(alg, 2, cap),
        lambda alg, cap: term_table(alg, Variable(0), 2, cap),
        lambda alg, cap: maltsev.find_directed_gumm(alg, cap),
        lambda alg, cap: maltsev.find_day(alg, cap),
    ],
    ids=["generate_subuniverse", "free_algebra", "term_table", "find_directed_gumm", "find_day"],
)
def test_subpower_entry_points_refuse_a_bad_cap(sl2, entry, cap):
    # a cap that is not a positive int is a usage error, not a capped result
    with pytest.raises(ValueError, match=f"cap must be a positive integer, got {cap!r}"):
        entry(sl2, cap)
    with pytest.raises(ValueError, match="cap must be a positive integer"):
        entry(FiniteAlgebra("one", 1, []), cap)


def test_closure_rejects_entries_outside_the_universe(z2):
    # a negative entry would read the table from its end, and one >= n the
    # zero padding of the byte-packed table
    for bad in (-1, 2):
        gens = [FreeElement((0, 1), None), FreeElement((1, bad), None)]
        with pytest.raises(ValueError, match=f"generator 1 has entry {bad} outside 0..1"):
            generate_subuniverse(z2, 2, gens)


@st.composite
def closure_instances(draw):
    """A random algebra with n = 1..7 and arities 0..3, some binary tables
    symmetrised so that they are commutative, a width with at most 49
    vectors, and up to three generators."""
    n = draw(st.integers(1, 7))
    entries = st.integers(0, n - 1)
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    ops = []
    for i, ar in enumerate(arities):
        table = draw(st.lists(entries, min_size=n**ar, max_size=n**ar))
        if ar == 2 and draw(st.booleans()):
            table = [table[min(a, b) * n + max(a, b)] for a in range(n) for b in range(n)]
        ops.append((f"f{i}", ar, table))
    width = draw(st.integers(1, 3).filter(lambda w: n**w <= 49))
    gens = draw(st.lists(st.tuples(*[entries] * width), max_size=3))
    return FiniteAlgebra("r", n, ops), width, gens


# whole-vector ops of every arity, on n = 3
PACKED = FiniteAlgebra(
    "packed",
    3,
    [
        ("c", 0, [2]),
        ("u", 1, [1, 2, 0]),
        ("f", 2, _table(3, 2, lambda x, y: (x * y + 1) % 3)),
        ("t", 3, _table(3, 3, lambda x, y, z: (x - y + z) % 3)),
    ],
)
# 7**3 argument codes do not fit a byte: one coordinate at a time
UNPACKED = FiniteAlgebra("unpacked", 7, [("m", 3, _table(7, 3, lambda x, y, z: (x * y + z) % 7))])
# 17**2 argument codes do not fit a byte either: a commutative binary
# operation applied one coordinate at a time
UNPACKED_BINARY = FiniteAlgebra("unpacked-binary", 17, [("j", 2, _table(17, 2, lambda x, y: (x * y + x + y) % 17))])
# 257 elements do not fit a byte: tuple vectors, one coordinate at a time
WIDE = FiniteAlgebra(
    "wide",
    257,
    [("u", 1, _table(257, 1, lambda x: (x + 1) % 257)), ("f", 2, _table(257, 2, lambda x, y: (x * y + 1) % 257))],
)


@settings(deadline=None, max_examples=60)
@given(closure_instances())
@example((PACKED, 3, [(0, 1, 1), (1, 0, 2)]))
@example((UNPACKED, 2, [(0, 1), (3, 5)]))
@example((WIDE, 1, [(3,)]))
def test_closure_matches_naive_oracle(instance):
    alg, width, gens = instance
    result = generate_subuniverse(alg, width, [FreeElement(g, None) for g in gens])
    vectors = [fe.vector for fe in result]
    assert len(set(vectors)) == len(vectors)
    assert set(vectors) == naive_subuniverse(alg, width, gens)
    for fe in result:
        for coord in range(width):
            assert eval_term(alg, fe.term, [g[coord] for g in gens]) == fe.vector[coord]


@settings(deadline=None, max_examples=60)
@given(closure_instances(), st.integers(1, 3))
@example((PACKED, 3, [(0, 1, 1), (1, 0, 2)]), 2)
@example((UNPACKED, 2, [(0, 1), (3, 5)]), 1)
@example((UNPACKED_BINARY, 2, [(0, 1), (3, 5)]), 2)
@example((WIDE, 1, [(3,)]), 3)
def test_closure_matches_ordered_reference(instance, stop_at):
    # a commutative operation skips the swaps of the pairs it has applied:
    # the same vectors in the same order with the same terms, and the same
    # prefixes passed to stop, run to the end or stopped at its stop_at-th
    # call
    alg, width, gens = instance

    def stop_after(calls, prefixes):
        def stop(vecs):
            prefixes.append([tuple(v) for v in vecs])
            return len(prefixes) == calls

        return stop

    for calls in (None, stop_at):
        got_prefixes, want_prefixes = [], []
        got = generate_subuniverse(alg, width, [FreeElement(g, None) for g in gens], stop=stop_after(calls, got_prefixes))
        want = ordered_subuniverse(alg, width, gens, stop=stop_after(calls, want_prefixes))
        assert [fe.vector for fe in got] == want[0]
        assert [fe.term for fe in got] == want[1]
        assert got_prefixes == want_prefixes


@pytest.mark.parametrize(
    "alg, width, gens, symbol", [(UNPACKED_BINARY, 2, [(0, 1), (3, 5), (0, 1)], "j"), (WIDE, 1, [(3,), (7,)], "f")]
)
def test_commutative_operation_is_applied_once_per_unordered_pair(monkeypatch, alg, width, gens, symbol):
    # a round with O older elements and a frontier of F applies a
    # commutative operation F*O + F(F+1)/2 times, not F*O twice and F^2
    calls = []
    apply = algebras._apply

    def counting(op, *args):
        calls.append(op.symbol)
        return apply(op, *args)

    monkeypatch.setattr(algebras, "_apply", counting)
    ends = [0, len(set(gens))]  # the element count before each round
    result = generate_subuniverse(alg, width, [FreeElement(g, None) for g in gens], stop=lambda vecs: ends.append(len(vecs)))
    assert len(ends) >= 4 and len(result) == ends[-1]
    want = sum((new - old) * old + (new - old) * (new - old + 1) // 2 for old, new in zip(ends, ends[1:]))
    assert calls.count(symbol) == want


@st.composite
def term_instances(draw):
    """A random algebra, an arity g and a term over it built bottom-up, whose
    subterms may be shared."""
    alg, _, _ = draw(closure_instances())
    constants = [Apply(op.symbol, ()) for op in alg.operations if op.arity == 0]
    g = draw(st.integers(0 if constants else 1, 3))
    pool = [Variable(i) for i in range(g)] + constants
    for _ in range(draw(st.integers(0, 5))):
        op = draw(st.sampled_from(alg.operations))
        pool.append(Apply(op.symbol, tuple(draw(st.sampled_from(pool)) for _ in range(op.arity))))
    return alg, g, pool[-1]


@settings(deadline=None, max_examples=60)
@given(term_instances())
@example((PACKED, 2, Apply("t", (Apply("u", (Variable(0),)),) * 2 + (Apply("c", ()),))))
@example((UNPACKED, 2, Apply("m", (Variable(1), Variable(0), Variable(1)))))
@example((WIDE, 2, Apply("f", (Apply("u", (Variable(1),)), Variable(0)))))
def test_term_table_matches_eval_term(instance):
    alg, g, t = instance
    want = tuple(eval_term(alg, t, env) for env in product(range(alg.size), repeat=g))
    assert term_table(alg, t, g).vector == want


def test_term_table_errors_match_eval_term(z2):
    # the first error eval_term meets, in its order: a node before its
    # children, children left to right
    for t in (
        Apply("nope", ()),
        Apply("xor", (Variable(0),)),
        Variable(3),
        Variable(-1),
        Apply("xor", (Variable(3), Apply("nope", ()))),
        Apply("xor", (Apply("xor", (Variable(0), Variable(1), Variable(2))), Variable(5))),
    ):
        with pytest.raises(TermError) as want:
            eval_term(z2, t, (0, 0, 0))
        with pytest.raises(TermError) as got:
            term_table(z2, t, 3)
        assert str(got.value) == str(want.value)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(0, 15), min_size=1, max_size=4), st.integers(0, 15))
def test_closure_monotone(gens_codes, extra):
    from relmod import corpus

    alg = corpus.builtin("sl2")
    width = 4

    def to_fe(code):
        return FreeElement(tuple((code >> i) & 1 for i in range(width)), Variable(0))

    small = [to_fe(c) for c in gens_codes]
    big = small + [to_fe(extra)]
    close_small = {fe.vector for fe in generate_subuniverse(alg, width, small)}
    close_big = {fe.vector for fe in generate_subuniverse(alg, width, big)}
    assert close_small <= close_big


@pytest.mark.parametrize(
    "name,g,expected",
    [("z2", 3, 8), ("sl2", 3, 7), ("sl2", 4, 15), ("l2", 3, 18)],
)
def test_free_algebra_sizes(name, g, expected):
    from relmod import corpus

    alg = corpus.builtin(name)
    free = free_algebra(alg, g)
    assert len(free) == expected
    # the g projections are always present
    for i in range(g):
        assert projection(alg.size, g, i) in free


def test_format_term():
    t = Apply("meet", (Variable(0), Apply("join", (Variable(1), Variable(3)))))
    assert format_term(t) == "meet(x,join(y,w))"
    assert format_term(Variable(4)) == "v4"
    with pytest.raises(TermError, match="negative variable index -1"):
        format_term(Apply("meet", (Variable(0), Variable(-1))))


# One instance of every value class, as (class, fields in declaration order),
# then one Node per operator of the identity language, named after it.
_S, _T = identities.Var("S"), identities.Var("T")
_RECORDS = [
    (Operation, {"symbol": "f", "arity": 1, "table": (1, 0)}),
    (Variable, {"index": 2}),
    (Apply, {"symbol": "f", "children": (Variable(0), Apply("c", ()))}),
    (relations.RelLattice, {"kind": relations.RelKind.CONGRUENCE, "members": (relations.delta(2),)}),
    (identities.Var, {"name": "S"}),
    (
        identities.IdentityStatement,
        {"quantifiers": (("S", relations.RelKind.REFL_ADM),), "relation": identities.StmtRel.EQUALS, "lhs": _S, "rhs": _S},
    ),
    (identities.Counterexample, {"assignment": (("S", relations.delta(2)),), "witness": (0, 1)}),
    (identities.Verdict, {"holds": False, "checked": 3, "counterexample": None}),
    (maltsev.TermSystem, {"terms": (Variable(2), Variable(2))}),
    (
        maltsev.SearchResult,
        {"status": maltsev.SearchStatus.CAP_EXCEEDED, "system": None, "node_count": 0, "cap_error": CapExceeded("closure-size", 5, 6)},
    ),
    (
        maltsev._PathCondition,
        {
            "arity": 2, "start": 0, "head": None, "vertex": ("xy", "x"), "links": (("xx", "yy"),), "cycle": 0, "end": 1,
            "trivial": (Variable(0),),
        },
    ),
    (maltsev.WitnessStep, {"source": 0, "target": 1, "label": "S", "relation": relations.nabla(2)}),
    (maltsev.WitnessChain, {"start": 0, "end": 0, "steps": (), "lam_blocks": 2}),
]
_IDS = [cls.__name__ for cls, _ in _RECORDS]
for _name, _op, _args, _param in [
    ("Delta", "delta", (), None),
    ("Nabla", "nabla", (), None),
    ("Intersect", "&", (_S, _T), None),
    ("Union", "|", (_S, _T), None),
    ("Compose", ";", (_S, _T), None),
    ("ComposeM", ";^", (_S, _T), identities.INF),
    ("Plus", "+", (_S, _T), None),
    ("Power", "pow", (_S,), 3),
    ("Converse", "conv", (_S,), None),
    ("Star", "star", (_S,), None),
    ("Overline", "cl", (_S,), None),
    ("ToleranceOf", "tol", (_S,), None),
]:
    _RECORDS.append((identities.Node, {"op": _op, "args": _args, "param": _param}))
    _IDS.append(_name)


@pytest.mark.parametrize("cls, fields", _RECORDS, ids=_IDS)
def test_value_classes(cls, fields):
    # built by position or by keyword: equal, equal hashes, the fields read
    # back, a dataclass-style repr, and no assignment
    a, b = cls(*fields.values()), cls(**fields)
    assert a == b and hash(a) == hash(b)
    assert {name: getattr(a, name) for name in fields} == fields
    assert repr(a) == f"{cls.__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    for name in fields:
        assert a != cls(**{**fields, name: object()})
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = None
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


def test_value_classes_compare_by_type():
    # nodes that differ only in op, or only in param, differ, hashes included
    Node = identities.Node
    pairs = [
        (Node("&", (_S, _T)), Node("|", (_S, _T))),
        (Node(";", (_S, _T)), Node("+", (_S, _T))),
        (Node("star", (_S,)), Node("cl", (_S,))),
        (Node("delta", ()), Node("nabla", ())),
        (Node(";^", (_S, _T), 2), Node(";^", (_S, _T), identities.INF)),
    ]
    for x, y in pairs:
        assert x != y and hash(x) != hash(y)
    assert len({x for pair in pairs for x in pair}) == 2 * len(pairs)


def test_value_class_defaults():
    status = maltsev.SearchStatus.FOUND
    assert maltsev.SearchResult(status, None, 1) == maltsev.SearchResult(status, None, 1, None)
    assert maltsev.SearchResult(status, None, node_count=1).cap_error is None
    assert maltsev.WitnessChain(0, 1, ()).lam_blocks is None
    assert maltsev.WitnessChain(start=0, end=1, steps=()) == maltsev.WitnessChain(0, 1, (), None)
