import hashlib
import itertools
import pathlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from relmod import corpus, identities, relations
from relmod.identities import (
    INF,
    Counterexample,
    IdentityStatement,
    Node,
    ParseError,
    StmtRel,
    Var,
    Verdict,
    catalog,
    catalog_entry,
    catalog_labels,
    check_identity,
    eval_expr,
    lower,
    parse_identity,
    print_expr,
    print_statement,
    with_sorts,
)
from relmod.algebras import CapExceeded, FiniteAlgebra
from relmod.maltsev import q_bound, r_bound
from relmod.relations import (
    BinRel,
    RelKind,
    close_to_kind,
    compose,
    converse,
    delta,
    enumerate_relations,
    format_rel_literal,
    intersect,
    m_compose,
    nabla,
    plus,
    power,
    refl_adm_closure,
    star,
    tolerance_of,
    union,
)
from oracles import naive_congruence, naive_subuniverse


def cold(name):
    """A copy of a corpus algebra whose closure and lattice caches are empty."""
    alg = corpus.builtin(name)
    return FiniteAlgebra(name + "-copy", alg.size, alg.operations)


S, T, Theta = Var("S"), Var("T"), Var("Theta")


def test_parse_identity_1_1():
    stmt = parse_identity("Theta:TOL, S:REFL |- Theta & (S ; S) <= star(Theta & S)")
    assert stmt == IdentityStatement(
        (("Theta", RelKind.TOLERANCE), ("S", RelKind.REFL_ADM)),
        StmtRel.INCLUDED_IN,
        Node("&", (Theta, Node(";", (S, S)))),
        Node("star", (Node("&", (Theta, S)),)),
    )
    assert stmt == catalog_entry("(1.1)")


def test_parse_trivial():
    stmt = parse_identity("S:REFL |- S <= S")
    assert stmt.lhs == stmt.rhs == S


def test_parse_unquantified_variable():
    with pytest.raises(ParseError, match="unquantified variable 'T'"):
        parse_identity("S:REFL |- S <= T")


def test_parse_duplicate_quantifier():
    with pytest.raises(ParseError, match="duplicate quantifier"):
        parse_identity("S:REFL, S:TOL |- S <= S")


def test_parse_unquantified_variable_position():
    # the first unquantified occurrence, not position 0
    with pytest.raises(ParseError, match=r"unquantified variable 'T' \(at position 14\)"):
        parse_identity("S:REFL |- S ; T <= T")


def test_parse_duplicate_quantifier_position():
    # the second binding of the name
    with pytest.raises(ParseError, match=r"duplicate quantifier 'S' \(at position 16\)"):
        parse_identity("S:REFL, T:REFL, S:TOL |- S <= T")


def test_parse_reports_position():
    with pytest.raises(ParseError, match="position"):
        parse_identity("S:REFL |- S <= )")


def test_parse_bad_sort():
    with pytest.raises(ParseError, match="expected REFL, TOL or CON, found 'EQ'"):
        parse_identity("S:EQ |- S <= S")
    with pytest.raises(ParseError, match="expected REFL, TOL or CON, found 3"):
        parse_identity("S:3 |- S <= S")


def test_parse_reserved_names():
    with pytest.raises(ParseError, match="reserved"):
        parse_identity("star:REFL |- star <= star")


def test_parse_bad_compose_count():
    with pytest.raises(ParseError, match=">= 1"):
        parse_identity("S:REFL |- S ;^0 S <= S")
    with pytest.raises(ParseError, match="pow exponent"):
        parse_identity("S:REFL |- pow(S,0) <= S")


_DEEP_PARENS = "(" * 101 + "S" + ")" * 101
_DEEP_CONV = "conv(" * 101 + "S" + ")" * 101
_DEEP_CHAIN = " ; ".join(["S"] * 102)


@pytest.mark.parametrize(
    "text, message, pos",
    [
        ("S:REFL |- S <= S @", "unexpected character '@'", 17),
        ("S:REFL |- (S <= S", "expected ')', found '<='", 13),
        ("S:REFL |- S <= (S", "expected ')', found end of input", 17),
        ("S:REFL |- conv(S <= S", "expected ')', found '<='", 17),
        ("S:REFL |- conv S <= S", "expected '(', found 'S'", 15),
        ("S:REFL |- pow(S) <= S", "expected ',', found ')'", 15),
        ("S:REFL S <= S", "expected '|-', found 'S'", 7),
        ("S REFL |- S <= S", "expected ':', found 'REFL'", 2),
        ("S:REFL |- S", "expected '<=' or '=', found end of input", 11),
        ("S:REFL |- S S", "expected '<=' or '=', found 'S'", 12),
        ("S:REFL |- S <= S S", "unexpected trailing input 'S'", 17),
        ("3:REFL |- S <= S", "expected a variable name, found 3", 0),
        ("S:REFL,", "expected a variable name, found end of input", 7),
        ("star:REFL |- S <= S", "'star' is reserved and cannot be quantified", 0),
        ("S:REFL, S:TOL |- S <= S", "duplicate quantifier 'S'", 8),
        ("S:EQ |- S <= S", "expected REFL, TOL or CON, found 'EQ'", 2),
        ("S:", "expected REFL, TOL or CON, found end of input", 2),
        ("S:REFL |- S ;^x S <= S", "expected an integer or 'inf' after ';^', found 'x'", 14),
        ("S:REFL |- S ;^", "expected an integer or 'inf' after ';^', found end of input", 14),
        ("S:REFL |- S ;^0 S <= S", "composition count must be >= 1", 14),
        ("S:REFL |- REFL <= S", "'REFL' cannot be used here", 10),
        ("S:REFL |- inf <= S", "'inf' cannot be used here", 10),
        ("S:REFL |- <= S", "expected an expression, found '<='", 10),
        ("S:REFL |- S <=", "expected an expression, found end of input", 14),
        ("S:REFL |- pow(S,0) <= S", "pow exponent must be a positive integer, found 0", 16),
        ("S:REFL |- pow(S,", "pow exponent must be a positive integer, found end of input", 16),
        ("S:REFL |- S <= T", "unquantified variable 'T'", 15),
        (f"S:REFL |- {_DEEP_PARENS} <= S", "expression nests more than 100 parentheses deep", 110),
        (f"S:REFL |- {_DEEP_CONV} <= S", "expression nests more than 100 parentheses deep", 510),
        (f"S:REFL |- {_DEEP_CHAIN} <= S", "expression nests more than 100 operators deep", 10),
    ],
)
def test_parse_error_message_and_position(text, message, pos):
    with pytest.raises(ParseError) as info:
        parse_identity(text)
    assert str(info.value) == f"{message} (at position {pos})"
    assert info.value.pos == pos


_ENTRIES = {
    "print_expr": print_expr,
    "lower": lower,
    "eval_expr": lambda e: eval_expr(corpus.builtin("l2"), e, {"S": delta(2)}),
    "check_identity": lambda e: check_identity(
        corpus.builtin("l2"), IdentityStatement((("S", RelKind.REFL_ADM),), StmtRel.INCLUDED_IN, e, S)
    ),
}


@pytest.mark.parametrize("entry", _ENTRIES)
@pytest.mark.parametrize(
    "expr", [3, Node("?", ()), Node("&", (S,)), Node("delta", (S,))], ids=["int", "unknown-op", "arity-1-of-2", "arity-1-of-0"]
)
def test_entry_points_reject_a_non_expression(expr, entry):
    # a tree built outside the parser is checked by one walk before any
    # entry point reads it, at the top and below
    for tree in (expr, Node("conv", (expr,))):
        with pytest.raises(TypeError, match=rf"^not a relation expression: {re.escape(repr(expr))}$"):
            _ENTRIES[entry](tree)


@pytest.mark.parametrize("entry", _ENTRIES)
@pytest.mark.parametrize(
    "expr, message",
    [
        (Node("pow", (S,)), "h must be an integer >= 1, got None"),
        (Node("pow", (S,), 0), "h must be an integer >= 1, got 0"),
        (Node("pow", (S,), 2.0), "h must be an integer >= 1, got 2.0"),
        (Node("pow", (S,), True), "h must be an integer >= 1, got True"),
        (Node("pow", (S,), INF), "h must be an integer >= 1, got inf"),
        (Node(";^", (S, S), 0), "m must be an integer >= 1 or INF, got 0"),
        (Node(";^", (S, S)), "m must be an integer >= 1 or INF, got None"),
        (Node(";^", (S, S), 2.0), "m must be an integer >= 1 or INF, got 2.0"),
        (Node(";^", (S, S), True), "m must be an integer >= 1 or INF, got True"),
        (Node("&", (S, S), 5), "'&' takes no parameter, got 5"),
    ],
    ids=["pow-None", "pow-0", "pow-2.0", "pow-True", "pow-inf", "m-0", "m-None", "m-2.0", "m-True", "and-5"],
)
def test_entry_points_reject_a_param_that_does_not_fit(expr, message, entry):
    # the walk that refuses a non-expression also refuses a param its
    # operator does not take, naming m or h, at the top and below
    for tree in (expr, Node("conv", (expr,))):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _ENTRIES[entry](tree)


def test_entry_points_take_every_param_that_fits(l2):
    # the bounds of the check above: m = 1, m = INF and h = 1 print, lower
    # and evaluate as the parsed expressions do
    for text in ("S ;^1 S", "S ;^inf S", "pow(S,1)"):
        expr = parse_identity(f"S:REFL |- {text} <= S").lhs
        assert print_expr(expr) == text
        assert eval_expr(l2, expr, {"S": delta(2)}) == delta(2)
        assert lower(expr) in (S, Node("|", (S, S)))


def _grammar_spellings(grammar):
    """The operator spellings quoted in an EBNF grammar's expr rule: each
    quoted token with a trailing "(" dropped, less the punctuation and
    "inf"."""
    rule = grammar[grammar.index("expr  :="):]
    return {token.rstrip("(") for token in re.findall(r'"([^"]*)"', rule)} - {"", ")", ",", "inf"}


def test_documented_grammars_spell_the_operator_table():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Identity language", 1)[1].split("```")[1]
    docstring = identities.__doc__.split("Grammar (EBNF)::", 1)[1].split("Precedence", 1)[0]
    assert _grammar_spellings(block) == set(identities._OPS)
    assert _grammar_spellings(docstring) == set(identities._OPS)


def test_parse_precedence():
    stmt = parse_identity("S:REFL, T:REFL |- S & T ; S + T | S <= S")
    # & tightest, then ;, then +/| left-assoc
    assert stmt.lhs == Node("|", (Node("+", (Node(";", (Node("&", (S, T)), S)), T)), S))


def test_parse_inf():
    stmt = parse_identity("S:REFL, T:REFL |- S ;^inf T <= S + T")
    assert stmt.lhs == Node(";^", (S, T), INF)
    assert stmt.rhs == Node("+", (S, T))


def _exprs(names=("S", "T")):
    leaves = st.sampled_from([Var(n) for n in names] + [Node("delta", ()), Node("nabla", ())])

    def extend(children):
        unary = st.builds(
            lambda op, a: Node(op, (a,)),
            st.sampled_from(["conv", "star", "cl", "tol"]),
            children,
        )
        powers = st.builds(lambda a, h: Node("pow", (a,), h), children, st.integers(1, 3))
        binary = st.builds(
            lambda op, a, b: Node(op, (a, b)),
            st.sampled_from(["&", "|", ";", "+"]),
            children,
            children,
        )
        composem = st.builds(
            lambda a, b, m: Node(";^", (a, b), m), children, children, st.sampled_from([1, 2, 3, INF])
        )
        return st.one_of(unary, powers, binary, composem)

    return st.recursive(leaves, extend, max_leaves=8)


@settings(deadline=None, max_examples=120)
@given(_exprs())
def test_print_parse_round_trip_random_exprs(expr):
    stmt = IdentityStatement(
        (("S", RelKind.REFL_ADM), ("T", RelKind.REFL_ADM)), StmtRel.INCLUDED_IN, expr, expr
    )
    assert parse_identity(print_statement(stmt)) == stmt


def _rels(n):
    return st.builds(
        lambda rows: BinRel(n, tuple(rows)),
        st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
    )


def _reference(alg, e, env):
    """e's value, evaluated from scratch straight from the relation operators."""
    if isinstance(e, Var):
        return env[e.name]
    op, args = e.op, [_reference(alg, a, env) for a in e.args]
    if op == "delta":
        return delta(alg.size)
    if op == "nabla":
        return nabla(alg.size)
    if op == "pow":
        return power(*args, e.param)
    if op == ";^" and e.param != INF:
        return m_compose(*args, e.param)
    if op == "cl":
        return refl_adm_closure(alg, *args)
    if op == "tol":
        return tolerance_of(alg, *args)
    return {"conv": converse, "star": star, "&": intersect, "|": union, ";": compose, "+": plus, ";^": plus}[op](*args)


@settings(deadline=None, max_examples=80)
@given(_exprs(), _rels(2), _rels(2))
def test_eval_is_compositional(expr, rs, rt):
    alg = corpus.builtin("sl2")
    env = {"S": rs, "T": rt}
    assert eval_expr(alg, expr, env) == _reference(alg, expr, env)


def _reference_check(alg, stmt, assignments):
    """check_identity's verdict, from a loop that evaluates every assignment
    from scratch and scans every pair."""
    names = [name for name, _ in stmt.quantifiers]
    pairs = [(a, c) for a in range(alg.size) for c in range(alg.size)]
    checked = 0
    for checked, values in enumerate(assignments, 1):
        env = dict(zip(names, values))
        lhs, rhs = _reference(alg, stmt.lhs, env), _reference(alg, stmt.rhs, env)
        missing = [p for p in pairs if lhs.has(*p) and not rhs.has(*p)]
        if not missing and stmt.relation is StmtRel.EQUALS:
            missing = [p for p in pairs if rhs.has(*p) and not lhs.has(*p)]
        if missing:
            return Verdict(False, checked, Counterexample(tuple(zip(names, values)), missing[0]))
    return Verdict(True, checked, None)


def _reference_draws(alg, kinds, seed, samples):
    rng = random.Random(seed)
    n = alg.size
    for _ in range(samples):
        yield tuple(
            close_to_kind(alg, kind, BinRel(n, tuple(rng.getrandbits(n) for _ in range(n))))
            for kind in kinds
        )


def test_sampled_closures_match_naive_oracles(m3, z2xz2, sl3):
    # the dense draws of sample mode, closed to each sort, against the naive
    # closures of tests/oracles.py rather than relmod's own closers; fresh
    # algebras start with empty principal tables and closure caches, and
    # the second pass over the same draws is served from the cache
    algs = [corpus.builtin("n5"), corpus.builtin("l4"), m3, z2xz2, sl3]
    algs = [FiniteAlgebra(alg.name, alg.size, alg.operations) for alg in algs]
    for alg in algs:
        n = alg.size
        diag = set(delta(n).pairs())
        rng = random.Random(f"oracle:{alg.name}")
        draws = [BinRel(n, tuple(rng.getrandbits(n) for _ in range(n))) for _ in range(200)]
        want = {}
        for r in draws:
            pairs = set(r.pairs())
            sym = pairs | {(b, a) for a, b in pairs} | diag
            want[r] = {
                RelKind.REFL_ADM: naive_subuniverse(alg, 2, pairs | diag),
                RelKind.TOLERANCE: naive_subuniverse(alg, 2, sym),
                RelKind.CONGRUENCE: naive_congruence(alg, sym),
            }
        for _ in range(2):
            for r in draws:
                for kind, closed in want[r].items():
                    assert set(close_to_kind(alg, kind, r).pairs()) == closed, (alg.name, kind, format_rel_literal(r))


@st.composite
def _statements(draw):
    # the sides read a drawn subset of the quantifiers, so some occur
    # nowhere and some subterms lie over later quantifiers only (conv(U),
    # T ; U): in exhaustive mode those are the cached slots whose free
    # variables are not a prefix of the quantifiers
    names = ("S", "T", "U", "V")[: draw(st.integers(2, 4))]
    kinds = draw(st.lists(st.sampled_from(list(RelKind)), min_size=len(names), max_size=len(names)))
    used = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    return IdentityStatement(
        tuple(zip(names, kinds)),
        draw(st.sampled_from(list(StmtRel))),
        draw(_exprs(used)),
        draw(_exprs(used)),
    )


@settings(deadline=None, max_examples=120)
@given(
    st.sampled_from(["sl2", "l2", "z2"]),
    _statements(),
    st.integers(0, 2**16),
    st.integers(1, 40),
)
def test_check_matches_reference_loop(name, stmt, seed, samples):
    alg = corpus.builtin(name)
    kinds = [kind for _, kind in stmt.quantifiers]
    lattices = [enumerate_relations(alg, kind).members for kind in kinds]
    assert check_identity(alg, stmt) == _reference_check(alg, stmt, itertools.product(*lattices))
    assert check_identity(alg, stmt, mode="sample", seed=seed, samples=samples) == _reference_check(
        alg, stmt, _reference_draws(alg, kinds, seed, samples)
    )


_EXAMPLES = [
    "S:REFL, T:REFL |- T <= S ;^1 T",
    "S:REFL, T:REFL |- S ;^1 T = S",
    "Theta:TOL, S:REFL |- Theta & (S ; conv(S)) <= Theta & S ;^1 Theta & conv(S)",
    "S:REFL, T:TOL |- tol(S) & T <= S ;^1 T",
    "S:REFL |- tol(S) <= S | conv(S)",
    "S:REFL |- tol(S) <= S",
    "S:REFL |- conv(S) <= S",
    "S:REFL, T:REFL |- S <= conv(S ; T) & T",
    "S:REFL |- pow(S,3) <= pow(S,2)",
    "S:REFL |- pow(S,2) <= S",
    "S:REFL, T:REFL |- conv(S ; T) = conv(T) ; conv(S)",
    "S:REFL |- S = star(S)",
]


@pytest.mark.parametrize("text", _EXAMPLES)
def test_check_matches_reference_examples(text, l2, sl3, z2xz2):
    # each operator whose lower bound has its own rule, through the
    # lower-bound test and its fall-through to the full right side
    stmt = parse_identity(text)
    for alg in (l2, sl3, z2xz2):
        lattices = [enumerate_relations(alg, kind).members for _, kind in stmt.quantifiers]
        assert check_identity(alg, stmt) == _reference_check(alg, stmt, itertools.product(*lattices))


@pytest.mark.parametrize(
    "text",
    [
        "S:REFL, T:REFL, U:TOL |- conv(U) & (T ; U) <= star(T ; U)",
        "S:REFL, T:REFL, U:REFL |- S & (T ; U) <= conv(U) + T",
        "S:TOL, T:REFL, U:REFL, V:REFL |- T ; U = conv(U) + T",
        "S:REFL, T:REFL, U:REFL, V:TOL |- conv(U) ; V <= (T ; U) | conv(V)",
        "S:REFL, T:REFL, U:REFL, V:REFL |- (T ; U) & conv(U) = conv(U) & (T ; U)",
        "S:CON, T:REFL, U:REFL, V:REFL |- cl(U | V) & S <= S ; (U ;^inf V)",
    ],
)
def test_check_matches_reference_over_later_quantifiers(text, l2, z2xz2, sl3):
    # subterms over later quantifiers only, and quantifiers that occur
    # nowhere, in both modes and for both "<=" and "="
    stmt = parse_identity(text)
    kinds = [kind for _, kind in stmt.quantifiers]
    for alg in (l2, z2xz2):
        lattices = [enumerate_relations(alg, kind).members for kind in kinds]
        assert check_identity(alg, stmt) == _reference_check(alg, stmt, itertools.product(*lattices))
    for alg in (l2, sl3):
        assert check_identity(alg, stmt, mode="sample", seed=4, samples=60) == _reference_check(
            alg, stmt, _reference_draws(alg, kinds, 4, 60)
        )


# Statements whose subterms over one quantifier p > 0 alone, which an
# exhaustive check tabulates per block when p is the innermost quantifier
# and caches per member of p's lattice otherwise, are: only on the right
# side past its lower bound (star(T)), nested (conv(tol(T))), under cl
# (cl(conv(S))), or in a statement that fails after its first member
# (star(U), conv(U), conv(T | conv(T)))
_TABLED = [
    "S:REFL, T:REFL |- S ; T <= S ;^inf star(T)",
    "S:REFL, T:REFL |- S ; T <= S | star(T)",
    "S:TOL, T:REFL |- S & conv(tol(T)) <= S & tol(T)",
    "S:REFL, T:REFL |- conv(tol(T)) ; S <= S ; conv(tol(T))",
    "T:TOL, S:REFL |- cl(conv(S)) & T <= T ; cl(conv(S))",
    "T:TOL, S:REFL |- T ; cl(conv(S)) = cl(conv(S) | T)",
    "S:REFL, T:REFL, U:REFL |- conv(U) & (S ; T) <= star(U) ; conv(T | conv(T))",
]


@pytest.mark.parametrize("name", ["l3", "n5", "sl3", "z2xz2"])
def test_tabled_subterms_match_reference(name):
    alg = corpus.builtin(name)
    for text in _TABLED:
        stmt = parse_identity(text)
        kinds = [kind for _, kind in stmt.quantifiers]
        lattices = [enumerate_relations(alg, kind).members for kind in kinds]
        verdict = check_identity(alg, stmt)
        assert verdict == _reference_check(alg, stmt, itertools.product(*lattices)), (name, text)
        assert check_identity(alg, stmt, mode="sample", seed=6, samples=40) == _reference_check(
            alg, stmt, _reference_draws(alg, kinds, 6, 40)
        ), (name, text)
    if name != "z2xz2":
        # the last statement fails past the first member of its outer loop
        assert not verdict.holds and verdict.checked > len(lattices[1]) * len(lattices[2])


# Statements whose first failing block, in blocks of the default size, has
# an earlier member that escapes the lower bound but holds on the full right
# side ("<="), or whose first failing member fails only rhs <= lhs while a
# later member of its block fails lhs <= rhs ("=")
_FIRST_FAILURES = [
    ("sl3", "S:REFL, T:REFL |- star(T) ; S <= S ; star(T)"),
    ("l3", "S:REFL, T:REFL |- T ; S ; T <= S ; star(T)"),
    ("sl3", "S:REFL, T:REFL |- T ; S ; T = S ; tol(T)"),
    ("l3", "S:REFL, T:REFL |- star(S | T) = tol(T) ; S"),
]


def _first_failing_block(alg, stmt):
    """The block of the innermost lattice, in blocks of the default size,
    that holds the first failing assignment, and that member's index in it.
    Each member is (lhs escapes lower(rhs), lhs <= rhs fails, rhs <= lhs
    fails), the last False for "<="."""
    names = [name for name, _ in stmt.quantifiers]
    lattices = [enumerate_relations(alg, kind).members for _, kind in stmt.quantifiers]
    first = None
    for values in itertools.product(*lattices):
        i = lattices[-1].index(values[-1])
        if i % identities._BLOCK == 0:
            if first is not None:
                break
            block = []
        env = dict(zip(names, values))
        lhs, rhs = _reference(alg, stmt.lhs, env), _reference(alg, stmt.rhs, env)
        escapes = not lhs.issubset(_reference(alg, lower(stmt.rhs), env))
        block.append((escapes, not lhs.issubset(rhs), stmt.relation is StmtRel.EQUALS and not rhs.issubset(lhs)))
        if first is None and (block[-1][1] or block[-1][2]):
            first = len(block) - 1
    return block, first


def test_blocks_of_the_innermost_lattice_match_reference(monkeypatch, l2, sl3, z2xz2):
    # the innermost lattice cut into blocks of one member, of three and of
    # the default size, so that blocks end inside every lattice and a check
    # that fails may fail at any place in a block; each verdict is the
    # reference loop's, so the first failing member of a block is found
    # whatever the members before it and after it do
    cases = [(corpus.builtin(name), parse_identity(text)) for name in ("l3", "n5", "sl3", "z2xz2") for text in _TABLED]
    cases += [(alg, parse_identity(text)) for alg in (l2, sl3, z2xz2) for text in _EXAMPLES]
    cases += [(corpus.builtin(name), catalog_entry(label, m=INF)) for name in ("l3", "n5", "sl3") for label in ("(D3)", "(1.4)")]
    for name, text in _FIRST_FAILURES:
        alg, stmt = corpus.builtin(name), parse_identity(text)
        block, first = _first_failing_block(alg, stmt)
        _, fails, fails_back = block[first]
        if stmt.relation is StmtRel.EQUALS:
            assert fails_back and not fails and any(f for _, f, _ in block[first + 1 :])
        else:
            assert fails and any(escapes and not f for escapes, f, _ in block[:first])
        cases.append((alg, stmt))
    references = []
    for alg, stmt in cases:
        lattices = [enumerate_relations(alg, kind).members for _, kind in stmt.quantifiers]
        references.append(_reference_check(alg, stmt, itertools.product(*lattices)))
    assert [v.holds for v in references[-10:-4]] == [True] * 4 + [False] * 2  # sl3 is not modular
    for block in (1, 3, identities._BLOCK):
        monkeypatch.setattr(identities, "_BLOCK", block)
        for (alg, stmt), reference in zip(cases, references):
            assert check_identity(alg, stmt) == reference, (block, alg.name, print_statement(stmt))


@pytest.mark.parametrize("block", [3, identities._BLOCK], ids=["3", "default"])
@pytest.mark.parametrize("cap", [1, 5])
def test_cache_counts_each_member_of_a_wide_value(cap, block, monkeypatch, l2, sl3):
    # a wide value counts one member value per member of its block toward
    # _CACHE_CAP, so the cache never holds more than the cap, and a value
    # wider than the cap is not kept; verdicts stay those of the default cap
    runs = [(cold("l3"), catalog_entry("(D3)", m=INF)), (sl3, catalog_entry("(1.4)")), (l2, catalog_entry("(B1)", m=INF))]
    runs.append((sl3, parse_identity("S:REFL, T:REFL |- conv(S ; T) = conv(T) ; conv(S)")))
    normal = [check_identity(alg, stmt) for alg, stmt in runs]
    put = identities._Program._put
    weights, held = {}, []

    def recording(self, key, value, members=1):
        weights[key] = members
        out = put(self, key, value, members)
        held.append(sum(weights[k] for k in self._cache))
        return out

    monkeypatch.setattr(identities._Program, "_put", recording)
    monkeypatch.setattr(identities, "_BLOCK", block)
    monkeypatch.setattr(identities, "_CACHE_CAP", cap)
    for (alg, stmt), verdict in zip(runs, normal):
        assert check_identity(alg, stmt) == verdict
    assert held and max(held) <= cap
    assert max(weights.values()) == min(block, 36)  # the widest: a block of sl3's 36 REFL members


def test_D3_on_l3_tabulates_each_single_quantifier_subterm(patch_kernel):
    # conv(R), conv(S) and conv(T) each lie over one quantifier and are
    # computed in its loop, each through the cache, and tol(R) converses R
    # once more inside its kernel, so every member of the lattice is
    # conversed exactly four times, once per subterm
    l3 = cold("l3")
    stmt = catalog_entry("(D3)", m=INF)
    seen = []
    kernel = relations._converse
    patch_kernel("_converse", lambda n, r: seen.append(r) or kernel(n, r))
    verdict = check_identity(l3, stmt)
    lattice = [r.bits for r in enumerate_relations(l3, RelKind.REFL_ADM).members]
    assert verdict.holds and verdict.checked == 25**3
    assert sorted(seen) == sorted(lattice * 4)
    # the subterms over T alone, the innermost quantifier, are one wide
    # y<slot> per block of T's lattice, computed in T's function L2 like
    # every other slot over T and looked up in the cache under (slot,
    # block); conv(S), over the middle quantifier S alone, is looked up in
    # the cache too.  No table function is generated
    program = identities._Program(l3, ("R", "S", "T"))
    program.search(stmt)
    single = [s for s, free in enumerate(program.free) if free in ((1,), (2,)) and re.search(rf"\b[xy]{s}\b", program.source)]
    assert len(single) >= 3  # conv(S), S | conv(S), conv(T)
    assert "def T(" not in program.source
    innermost = program.source[program.source.index("def L2(") : program.source.index("def L1(")]
    for s in single:
        if program.free[s] == (2,):
            assert re.search(rf"\bk = \({s}, V\)\n +y{s} = get\(k\)", innermost)
    conv_s = program.slot(parse_identity("S:REFL |- conv(S) <= S").lhs)
    assert program.free[conv_s] == (1,) and re.search(rf"\bx{conv_s} = get\(", program.source)
    assert not re.search(r"\bfor v2\b", program.source)  # no loop over T's members
    assert "get(" in program.source  # star(S | T) and cl(...) over S and T still do


@pytest.mark.parametrize("name", ["l3", "n5", "sl3"])
def test_subterm_over_the_innermost_quantifier_alone_waits_for_the_bound(name, patch_kernel):
    # cl(T) lies over T alone, and only the right side needs it; S & T is
    # inside lower(S | cl(T)) = S | T, so every block is settled by the
    # bound and no closure runs once the lattice is enumerated
    alg = cold(name)
    lattice = enumerate_relations(alg, RelKind.REFL_ADM).members
    calls = []
    kernel = relations._refl_adm_closure
    patch_kernel("_refl_adm_closure", lambda alg, bits: calls.append(bits) or kernel(alg, bits))
    verdict = check_identity(alg, parse_identity("S:REFL, T:REFL |- S & T <= S | cl(T)"))
    assert verdict.holds and verdict.checked == len(lattice) ** 2
    assert calls == []


def test_no_catalog_source_has_a_table_function(l2):
    # every slot, over the innermost quantifier alone or not, is computed
    # in the loop of its last free variable
    for label, stmt in catalog():
        program = identities._Program(l2, [name for name, _ in stmt.quantifiers])
        program.search(stmt)
        assert "def T(" not in program.source, label
        assert len(re.findall(r"^def ", program.source, re.M)) == len(stmt.quantifiers), label


def test_sampled_check_over_the_cap_draws_nothing(l2, monkeypatch):
    stmt = catalog_entry("(B1)", m=INF)
    draws = []
    monkeypatch.setattr(relations, "close_to_kind", lambda *args: draws.append(args))
    with pytest.raises(CapExceeded) as exc:
        check_identity(l2, stmt, mode="sample", samples=101, cap=100)
    assert (exc.value.kind, exc.value.limit, exc.value.reached) == ("samples", 100, 101)
    assert draws == []
    monkeypatch.undo()
    assert check_identity(l2, stmt, mode="sample", samples=100, cap=100).checked == 100


@pytest.mark.parametrize("l", [18, 20])
def test_check_many_quantifiers_in_sample_mode(l, l2):
    # (turt) has l + 3 quantifiers, one generated loop each: more than the
    # 20 blocks CPython lets one function nest
    stmt = catalog_entry("(turt)", l=l)
    kinds = [kind for _, kind in stmt.quantifiers]
    assert len(kinds) == l + 3
    verdict = check_identity(l2, stmt, mode="sample", seed=9, samples=25)
    assert verdict == _reference_check(l2, stmt, _reference_draws(l2, kinds, 9, 25))
    assert verdict.holds and verdict.checked == 25


def test_check_many_quantifiers_exhaustively():
    # every lattice of a one-element algebra has one member, so the 25
    # nested loops run one assignment
    one = FiniteAlgebra("one", 1, [("f", 2, [0])])
    stmt = catalog_entry("(turt)", l=22)
    assert len(stmt.quantifiers) == 25
    lattices = [enumerate_relations(one, kind).members for _, kind in stmt.quantifiers]
    verdict = check_identity(one, stmt)
    assert verdict == _reference_check(one, stmt, itertools.product(*lattices))
    assert verdict.holds and verdict.checked == 1


def test_D3_on_l3_hoists_tol_and_caches_the_join(patch_kernel):
    # tol(R) lies over R alone, so it runs once per pass of R's loop;
    # S ;^inf T, folded to star(S | T), lies over S and T but not R, so it
    # is cached per S for the block of every T and built by one wide star
    # per block: 25, as T's 25 members are one block.  The right side's
    # three joins fold into one star, built with its compose only in a
    # block where some member escapes the lower bound, one wide call each:
    # 144 of the 25^2 blocks (1359 of the 25^3 assignments escape).  No
    # saturating join runs.  The check calls the int kernels, so those are
    # counted
    l3 = cold("l3")
    counts = {"_tolerance_of": 0, "_compose": 0, "_plus": 0, "_star": 0}

    def counting(name):
        original = getattr(relations, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        patch_kernel(name, counted)

    for name in counts:
        counting(name)
    verdict = check_identity(l3, catalog_entry("(D3)", m=INF))
    lattice = enumerate_relations(l3, RelKind.REFL_ADM).members
    assert verdict.holds and verdict.checked == len(lattice) ** 3 == 25**3
    assert counts == {"_tolerance_of": 25, "_compose": 144, "_plus": 0, "_star": 25 + 144}


def test_equality_failing_only_rightward_keeps_its_witness(sl3):
    # S <= star(S) always holds, so the witness is the least pair of
    # star(S) outside S, found through the test against lower(lhs) = S
    verdict = check_identity(sl3, parse_identity("S:REFL |- S = star(S)"))
    assert not verdict.holds and verdict.checked == 6
    (name, value), = verdict.counterexample.assignment
    assert (name, format_rel_literal(value)) == ("S", "delta+1-0+2-1")
    assert verdict.counterexample.witness == (2, 0)


def _subterms(expr):
    yield expr
    for child in getattr(expr, "args", ()):
        yield from _subterms(child)


@pytest.mark.parametrize("params", [{}, {"k": 3, "m": INF}], ids=["k2-m2", "k3-minf"])
@pytest.mark.parametrize("label", catalog_labels())
def test_lower_is_a_subrelation(label, params):
    # every lower-bound rule, on every subterm of every catalog statement,
    # over every exhaustive assignment; k=2 puts a ;^1 into (day)
    stmt = catalog_entry(label, **params)
    names = [name for name, _ in stmt.quantifiers]
    terms = set(_subterms(stmt.lhs)) | set(_subterms(stmt.rhs))
    for alg in map(corpus.builtin, ("l2", "sl2", "z2")):
        program = identities._Program(alg, names)
        runs = [(e, program._runner(program.slot(lower(e))), program._runner(program.slot(e))) for e in terms]
        lattices = [enumerate_relations(alg, kind).members for _, kind in stmt.quantifiers]
        for values in itertools.product(*lattices):
            for e, bound, value in runs:
                assert bound(values).issubset(value(values)), (
                    alg.name, print_expr(e), [format_rel_literal(r) for r in values]
                )


def test_lower_bound_settles_without_building_the_right_side(patch_kernel):
    # S is inside lower(S ; T) = S | T, so no assignment composes
    calls = []
    kernel = relations._compose

    def counting_compose(n, r, s, **kwargs):
        calls.append((r, s))
        return kernel(n, r, s, **kwargs)

    patch_kernel("_compose", counting_compose)
    verdict = check_identity(cold("l3"), parse_identity("S:REFL, T:REFL |- S <= S ; T"))
    assert verdict.holds and verdict.checked == 25**2
    assert calls == []


def test_eval_does_not_fold_saturating_joins(l2):
    # on S and T that are not reflexive, S + T and S ;^inf T are not
    # star(S | T), which a check folds them to; eval_expr keeps plus
    s, t = BinRel.from_pairs(2, [(0, 1)]), BinRel.from_pairs(2, [(1, 0)])
    env = {"S": s, "T": t}
    want = plus(s, t)
    assert want != star(union(s, t)) == nabla(2)
    for expr in (Node("+", (S, T)), Node(";^", (S, T), INF)):
        assert eval_expr(l2, expr, env) == want
        assert eval_expr(l2, Node("star", (expr,)), env) == star(want) != nabla(2)


@settings(deadline=None, max_examples=80)
@given(_exprs(), st.integers(0, 2**16))
def test_fold_keeps_lower_and_every_reflexive_value(expr, seed):
    # lower of the folded tree is lower of the tree, and on reflexive
    # values, the only ones a check evaluates, both trees are equal
    assert lower(identities._fold(expr)) == lower(expr)
    alg = corpus.builtin("sl3")
    lattice = enumerate_relations(alg, RelKind.REFL_ADM).members
    rng = random.Random(seed)
    env = {"S": rng.choice(lattice), "T": rng.choice(lattice)}
    assert eval_expr(alg, identities._fold(expr), env) == eval_expr(alg, expr, env)


def test_fold_makes_one_star_of_each_chain():
    # (D3)'s right side joins four terms by "+": folded, one Warshall pass
    # over their union; its left side's S ;^inf T is star(S | T)
    stmt = catalog_entry("(D3)", m=INF)
    rhs, lhs = identities._fold(stmt.rhs), identities._fold(stmt.lhs)
    assert print_expr(rhs) == (
        "R & cl(S | conv(S) | T | conv(T)) ; star(tol(R) & S | tol(R) & T | tol(R) & conv(S) | tol(R) & conv(T))"
    )
    assert print_expr(lhs) == "R & star(S | T)"
    assert identities._fold(parse_identity("S:REFL, T:REFL |- S <= star(star(S) + T ;^2 star(S))").rhs) == (
        Node("star", (Node("|", (S, Node(";^", (T, Node("star", (S,))), 2))),))
    )


def test_lower_bound_settles_most_of_D3_on_l3(patch_kernel, violation_of):
    # the right side of (D3) folds its three saturating joins into one star
    # over R, S and T, which every assignment built before the lower-bound
    # test; now only an assignment whose left side escapes the bound builds
    # it.  The left side's S ;^inf T, folded to star(S | T), is built once
    # per (S, T), so a run on one assignment at a time, each a block of one
    # member, runs one star per pair and one per escape.  The exhaustive
    # check runs each wide, once per block of T's
    # lattice, which on l3 is one block: one star per S, and one per (R, S)
    # block where some T escapes
    l3 = cold("l3")
    stmt = catalog_entry("(D3)", m=INF)
    lattice = enumerate_relations(l3, RelKind.REFL_ADM).members
    reference = identities._Program(l3, ("R", "S", "T"))
    lhs = reference._runner(reference.slot(stmt.lhs))
    bound = reference._runner(reference.slot(lower(stmt.rhs)))
    assignments = list(itertools.product(lattice, repeat=3))
    escaping = [values for values in assignments if not lhs(values).issubset(bound(values))]
    escapes, escaping_blocks = len(escaping), len({values[:2] for values in escaping})
    assert len(assignments) == 15625 and escapes == 1359 and escaping_blocks == 144
    calls = []
    kernel = relations._star
    patch_kernel("_star", lambda n, r, **kwargs: calls.append(r) or kernel(n, r, **kwargs))
    violation = violation_of(identities._Program(l3, ("R", "S", "T")), stmt)
    for values in assignments:
        assert violation(values) is None
    assert len(calls) == 25**2 + escapes
    calls.clear()
    assert check_identity(l3, stmt) == Verdict(True, 15625, None)
    assert len(calls) == 25 + escaping_blocks


def test_cache_cap_keeps_verdicts(l2, sl3, monkeypatch, violation_of):
    stmts = [catalog_entry(label, m=m) for label in ("(B1)", "(D3)") for m in (2, INF)]
    runs = [(l2, "exhaustive"), (l2, "sample"), (sl3, "sample")]

    def verdicts():
        return [
            check_identity(alg, stmt, mode=mode, seed=5, samples=300)
            for alg, mode in runs
            for stmt in stmts
        ]

    normal = verdicts()
    assert not all(v.holds for v in normal)  # sl3 is not modular
    monkeypatch.setattr(identities, "_CACHE_CAP", 1)
    assert verdicts() == normal
    # the cap bounds what a program holds
    program = identities._Program(l2, ("R", "S", "T"))
    violation = violation_of(program, stmts[-1])
    lattice = enumerate_relations(l2, RelKind.REFL_ADM).members
    for values in itertools.product(lattice, repeat=3):
        assert violation(values) is None
        assert len(program._cache) <= 1


def test_closure_cache_cap_keeps_verdicts(monkeypatch):
    # on the 3-element chain and on the pentagon, whose sampled closures
    # mostly run the kernel from a seed short of nabla and so fill the cache
    # with kernel inputs
    stmts = [catalog_entry(label, m=INF) for label in ("(B1)", "(D3)")]
    sizes = []
    kernel = relations._pair_closure

    def verdicts(name):
        # a fresh copy, so no closure comes from an earlier test's cache
        alg = cold(name)

        def recording(alg_, bits):
            sizes.append(len(alg._closures))
            return kernel(alg_, bits)

        monkeypatch.setattr(relations, "_pair_closure", recording)
        out = []
        for mode in ("exhaustive", "sample"):
            for stmt in stmts:
                out.append(check_identity(alg, stmt, mode=mode, seed=5, samples=300))
                sizes.append(len(alg._closures))
        return out

    default_cap = relations._CLOSURE_CACHE_CAP
    for name in ("l3", "n5"):
        monkeypatch.setattr(relations, "_CLOSURE_CACHE_CAP", default_cap)
        sizes.clear()
        normal = verdicts(name)
        assert all(v.holds for v in normal)
        assert max(sizes) > 1
        monkeypatch.setattr(relations, "_CLOSURE_CACHE_CAP", 1)
        sizes.clear()
        assert verdicts(name) == normal
        assert max(sizes) == 1


def test_each_generated_source_is_compiled_once(l2, z2xz2, monkeypatch):
    # the generated source depends on the statement, not the algebra, and
    # a sampled draw runs the code an exhaustive check runs: one (dist)
    # source on both algebras in both modes, one run function for both
    # eval_expr calls
    compiled = []

    def counted(source, *args):
        compiled.append(source)
        return compile(source, *args)

    monkeypatch.setattr(identities, "compile", counted, raising=False)
    stmt = catalog_entry("(dist)")
    for alg in (l2, z2xz2):
        for mode in ("exhaustive", "sample"):
            check_identity(alg, stmt, mode=mode, seed=5, samples=50)
    assert len(compiled) == 1
    env = {"S": nabla(4), "T": delta(4)}
    expr = parse_identity("S:REFL, T:REFL |- conv(S) ; T <= S").lhs
    assert eval_expr(z2xz2, expr, env) == eval_expr(z2xz2, expr, env) == nabla(4)
    assert len(compiled) == len(set(compiled)) == 2
    assert set(identities._CODE) == set(compiled)


def test_code_store_cap_keeps_verdicts(monkeypatch):
    # at a cap of 2 the store of compiled checks is emptied whenever a third
    # source comes, and every verdict, count and counterexample is that of
    # a check that compiles its source afresh
    runs = [
        (name, catalog_entry(label, m=m), mode)
        for name in ("l2", "sl3", "z2xz2")
        for label in ("(1.1)", "(dist)", "(B1)", "(D3)")
        for m in (2, INF)
        for mode in ("exhaustive", "sample")
    ]

    def check(name, stmt, mode):
        return check_identity(corpus.builtin(name), stmt, mode=mode, seed=5, samples=100)

    afresh = []
    for run in runs:
        identities._CODE.clear()
        afresh.append(check(*run))
    assert not all(v.holds for v in afresh)  # sl3 and z2xz2 are not distributive
    monkeypatch.setattr(identities, "_CODE", {})
    monkeypatch.setattr(identities, "_CODE_CAP", 2)
    for run, verdict in zip(runs, afresh):
        assert check(*run) == verdict
        assert len(identities._CODE) <= 2


def test_subterm_over_every_quantifier_is_computed_once_per_assignment(l2, patch_kernel):
    # S ; T depends on both quantifiers, so no assignment can reuse another's
    # value of it, but its three uses within one assignment share one compose;
    # exhaustively that compose is one wide call per S and block of T's
    # lattice, here one block of l2's 4 members; a sampled assignment drawn
    # again has held already and is not evaluated
    stmt = parse_identity("S:REFL, T:REFL |- (S ; T) & (S ; T) <= S ; T")
    calls = []
    kernel = relations._compose

    def counting_compose(n, r, s, **kwargs):
        calls.append((r, s))
        return kernel(n, r, s, **kwargs)

    patch_kernel("_compose", counting_compose)
    verdict = check_identity(l2, stmt)
    assert verdict.holds and verdict.checked == 16 and len(calls) == 4
    calls.clear()
    verdict = check_identity(l2, stmt, mode="sample", seed=3, samples=50)
    kinds = [kind for _, kind in stmt.quantifiers]
    distinct = {tuple(v.bits for v in values) for values in identities._draws(l2, kinds, 3, 50)}
    assert verdict.holds and verdict.checked == 50 and len(calls) == len(distinct) < 50


def test_eval_examples(z2xz2):
    assert eval_expr(z2xz2, Node(";", (S, S)), {"S": delta(4)}) == delta(4)
    from relmod.relations import congruence_generated

    ker_lo = congruence_generated(z2xz2, BinRel.from_pairs(4, [(0, 1)]))
    ker_hi = congruence_generated(z2xz2, BinRel.from_pairs(4, [(0, 2)]))
    assert eval_expr(z2xz2, Node(";^", (S, T), INF), {"S": ker_lo, "T": ker_hi}) == nabla(4)


def test_eval_overline_union_contained_in_compose(sl2):
    lattice = enumerate_relations(sl2, RelKind.REFL_ADM)
    for a in lattice:
        for b in lattice:
            lhs = eval_expr(sl2, Node("cl", (Node("|", (S, T)),)), {"S": a, "T": b})
            assert lhs.issubset(eval_expr(sl2, Node(";", (S, T)), {"S": a, "T": b}))


def test_eval_unbound_variable(sl2):
    with pytest.raises(ValueError, match="unbound variable"):
        eval_expr(sl2, S, {})


def test_eval_size_mismatch(sl2):
    with pytest.raises(ValueError, match="size mismatch"):
        eval_expr(sl2, S, {"S": delta(3)})


@pytest.mark.parametrize(
    "value, error, message",
    [
        ("x", TypeError, "T must be a BinRel, got 'x'"),
        (None, TypeError, "T must be a BinRel, got None"),
        (delta(3), ValueError, "size mismatch: T has n=3, algebra n=2"),
    ],
    ids=["str", "None", "size-3"],
)
def test_eval_refuses_a_bad_env_value(l2, value, error, message):
    # every env value is checked, also one the expression does not read
    for expr in (S, T):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            eval_expr(l2, expr, {"S": delta(2), "T": value})


def test_check_1_1_on_l2(l2):
    verdict = check_identity(l2, catalog_entry("(1.1)"))
    assert verdict.holds
    assert verdict.checked == 8  # 2 tolerances x 4 reflexive-admissible
    assert verdict.counterexample is None


def test_check_trivial_everywhere(sl2, z2, l2, sl3):
    stmt = parse_identity("S:REFL |- S <= S")
    for alg in (sl2, z2, l2, sl3):
        assert check_identity(alg, stmt).holds


def test_check_dist_counterexample_on_z2xz2(z2xz2):
    stmt = with_sorts(
        catalog_entry("(dist)"),
        {"Theta": RelKind.CONGRUENCE, "S": RelKind.CONGRUENCE, "T": RelKind.CONGRUENCE},
    )
    verdict = check_identity(z2xz2, stmt)
    assert not verdict.holds
    env = dict(verdict.counterexample.assignment)
    a, c = verdict.counterexample.witness
    lhs = eval_expr(z2xz2, stmt.lhs, env)
    rhs = eval_expr(z2xz2, stmt.rhs, env)
    assert lhs.has(a, c) and not rhs.has(a, c)


def test_check_counterexamples_reverify(l2, sl3):
    # every returned counterexample must re-evaluate to a genuine violation;
    # sl3's lattice has 36 members, so only run the two-variable statements there
    failures = 0
    for alg, max_vars in ((l2, 6), (sl3, 2)):
        for label, stmt in catalog():
            if len(stmt.quantifiers) > max_vars:
                continue
            verdict = check_identity(alg, stmt)
            if verdict.counterexample is None:
                continue
            failures += 1
            env = dict(verdict.counterexample.assignment)
            a, c = verdict.counterexample.witness
            assert eval_expr(alg, stmt.lhs, env).has(a, c)
            assert not eval_expr(alg, stmt.rhs, env).has(a, c)
    assert failures > 0  # sl3 is not modular, so some identities must fail there


def test_check_equality_statements(l2, sl3):
    stmt = parse_identity("S:REFL |- star(S) = star(star(S))")
    assert check_identity(l2, stmt).holds
    # sl3 has non-transitive reflexive-admissible relations, e.g. delta+0-1+1-2
    bad = parse_identity("S:REFL |- S = star(S)")
    verdict = check_identity(sl3, bad)
    assert not verdict.holds
    # the witness comes from the rhs-minus-lhs direction of the equality
    env = dict(verdict.counterexample.assignment)
    a, c = verdict.counterexample.witness
    lhs = eval_expr(sl3, bad.lhs, env)
    rhs = eval_expr(sl3, bad.rhs, env)
    assert lhs.has(a, c) != rhs.has(a, c)


def test_sample_mode_reproducible(l2):
    stmt = catalog_entry("(perm)")
    a = check_identity(l2, stmt, mode="sample", seed=11, samples=400)
    b = check_identity(l2, stmt, mode="sample", seed=11, samples=400)
    assert a == b
    assert not a.holds  # the permutability variant fails on the two-element lattice


def test_sample_mode_draws_sorted_relations(sl3):
    stmt = parse_identity("Theta:TOL, S:REFL |- Theta & S <= Theta")
    verdict = check_identity(sl3, stmt, mode="sample", seed=3, samples=50)
    assert verdict.holds and verdict.checked == 50


@pytest.mark.parametrize(
    "quantifiers, message",
    [
        ((), "at least one quantifier"),
        ((("S", RelKind.REFL_ADM), ("S", RelKind.TOLERANCE)), "duplicate quantifier 'S'"),
    ],
    ids=["none", "duplicate"],
)
@pytest.mark.parametrize("mode", ["exhaustive", "sample"])
def test_check_rejects_malformed_quantifiers(l2, quantifiers, message, mode):
    # what the parser rejects, though an expression alone may bind nothing
    stmt = IdentityStatement(quantifiers, StmtRel.INCLUDED_IN, Node("delta", ()), Node("nabla", ()))
    with pytest.raises(ValueError, match=message):
        check_identity(l2, stmt, mode=mode)
    assert eval_expr(l2, Node("delta", ()), {}) == delta(2)


def test_trees_built_in_python_keep_the_parsers_depth_bound(l2):
    # a tree built outside the parser that nests deeper than a parsed side
    # may is refused before the recursive compiler overflows on it
    def converses(depth):
        e = Var("S")
        for _ in range(depth):
            e = Node("conv", (e,))
        return e

    order = BinRel(2, (0b11, 0b10))  # 0 <= 1
    quantifiers = (("S", RelKind.REFL_ADM),)
    message = "expression nests more than 100 operators deep"
    deep = converses(2000)
    with pytest.raises(ValueError, match=message):
        eval_expr(l2, deep, {"S": order})
    for lhs, rhs in ((deep, Var("S")), (Var("S"), deep)):
        with pytest.raises(ValueError, match=message):
            check_identity(l2, IdentityStatement(quantifiers, StmtRel.EQUALS, lhs, rhs))
    # the deepest a parsed side may be still evaluates
    assert eval_expr(l2, converses(100), {"S": order}) == order
    verdict = check_identity(l2, IdentityStatement(quantifiers, StmtRel.EQUALS, converses(100), Var("S")))
    assert verdict.holds and verdict.checked == 4


@pytest.mark.parametrize("cap", [0, -1, 2.5, True, None])
@pytest.mark.parametrize(
    "entry",
    [
        lambda alg, cap: check_identity(alg, catalog_entry("(B1)", m=INF), cap=cap),
        lambda alg, cap: check_identity(alg, catalog_entry("(B1)", m=INF), mode="sample", samples=10, cap=cap),
        lambda alg, cap: enumerate_relations(alg, RelKind.TOLERANCE, cap=cap),
    ],
    ids=["exhaustive", "sample", "enumerate_relations"],
)
def test_checks_and_enumeration_refuse_a_bad_cap(entry, cap, monkeypatch):
    # a cap that is not a positive int is a usage error, not a resource
    # stop, refused before any lattice is enumerated or any draw is made
    alg = cold("l2")
    draws = []
    monkeypatch.setattr(relations, "close_to_kind", lambda *args: draws.append(args))
    with pytest.raises(ValueError, match=f"^cap must be a positive integer, got {re.escape(repr(cap))}$"):
        entry(alg, cap)
    assert alg._lattices == {} and draws == []


@pytest.mark.parametrize("samples", [0, -5, True, 2.5])
def test_sample_count_must_be_positive(l2, samples):
    # True would run one draw and 2.5 fail inside range, were they let through
    with pytest.raises(ValueError, match=re.escape(f"samples must be an integer >= 1, got {samples!r}")):
        check_identity(l2, catalog_entry("(B1)", m=INF), mode="sample", samples=samples)


@pytest.mark.parametrize("seed", [None, "x", 2.5, True])
def test_sample_seed_must_be_an_integer(l2, seed):
    # None would draw from OS entropy, so two equal calls could disagree
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
        check_identity(l2, catalog_entry("(1.4)"), mode="sample", seed=seed, samples=50)


def test_sort_weakening(z2, l2, z2xz2, m3):
    # TOL-exhaustive success implies CON-exhaustive success
    for alg in (z2, l2, z2xz2, m3):
        for label in ("(1.1)", "(1.2)", "(1.3)", "(1.4)", "(1.5)"):
            stmt = catalog_entry(label)
            if check_identity(alg, stmt).holds:
                strong = with_sorts(stmt, {"Theta": RelKind.CONGRUENCE})
                assert check_identity(alg, strong).holds


def test_catalog_labels_stable():
    assert catalog_labels() == [
        "(1.1)", "(1.2)", "(1.3)", "(1.4)", "(1.5)", "(dist)", "(perm)",
        "(turt)", "(turtt)", "(a1)", "(a2)", "(a3)",
        "(A1)", "(A2)", "(A3)", "(B1)", "(B2)",
        "(C1)", "(C2)", "(C3)", "(C4)", "(D1)", "(D2)", "(D3)", "(D4)", "(D5)",
        "(day)",
    ]


def test_catalog_digest_pinned():
    # every entry over the parameter grid, printed; the digest was taken from
    # the hand-built ASTs the statement templates replaced
    lines = [
        f"{label} {print_statement(stmt)}"
        for k in (2, 3, 4)
        for h in (1, 2, 3)
        for m in (2, 3, 5, INF)
        for l in (1, 2, 3, 4)
        for label, stmt in catalog(k, h, m, l)
    ]
    assert len(lines) == 3888
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "9e8527eecafd0c29bd54881dd6da831deef04fee4337fc9fab76985d2e892347"


# the corpus when the digests below were pinned; it has grown since
FIRST_CORPUS = ("l2", "m3", "sl2", "sl3", "z2", "z2xz2")


def test_exhaustive_verdicts_digest_pinned():
    # holds, checked and counterexample of exhaustive checks on the first
    # corpus, through plus and star at every m=inf; the digest was taken
    # from the alternation and squaring loops the Warshall closed forms
    # replaced
    con = {name: RelKind.CONGRUENCE for name in ("Theta", "S", "T")}
    checks = [
        ("(D3)", {"m": INF}, None),
        ("(B1)", {"m": INF}, None),
        ("(1.1)", {}, None),
        ("(1.4)", {}, None),
        ("(D1)", {"m": INF}, None),
        ("(dist)", {}, con),
    ]
    lines = []
    for name in FIRST_CORPUS:
        alg = corpus.builtin(name)
        for label, params, sorts in checks:
            stmt = catalog_entry(label, **params)
            if sorts:
                stmt = with_sorts(stmt, sorts)
            verdict = check_identity(alg, stmt)
            line = f"{name} {label} {verdict.holds} {verdict.checked}"
            ce = verdict.counterexample
            if ce is not None:
                line += "".join(f" {q}={format_rel_literal(r)}" for q, r in ce.assignment)
                line += f" {ce.witness[0]}-{ce.witness[1]}"
            lines.append(line)
    assert len(lines) == 36
    assert sum("False" in line for line in lines) == 6
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "4e9a277235b14eb1db5ea95c99697b50369ce683f4b3ea5e0f1d1ad0a44421ba"


def test_sampled_verdicts_digest_pinned():
    # holds, checked and counterexample of sampled checks on the first
    # corpus and on s3, z3m, l4 and n5, whose dense draws close mostly to
    # nabla; the digest was taken before the pair closure skipped full rows
    checks = [("(B1)", {"m": INF}), ("(D3)", {"m": INF}), ("(1.4)", {}), ("(perm)", {})]
    algs = [corpus.builtin(name) for name in FIRST_CORPUS + ("s3", "z3m", "l4", "n5")]
    lines = []
    for alg in algs:
        for label, params in checks:
            stmt = catalog_entry(label, **params)
            for seed in (5, 23):
                verdict = check_identity(alg, stmt, mode="sample", seed=seed, samples=200)
                line = f"{alg.name} {label} {seed} {verdict.holds} {verdict.checked}"
                ce = verdict.counterexample
                if ce is not None:
                    line += "".join(f" {q}={format_rel_literal(r)}" for q, r in ce.assignment)
                    line += f" {ce.witness[0]}-{ce.witness[1]}"
                lines.append(line)
    assert len(lines) == 80
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "00baefb3924826ca9d026599a1835a2a5e316280b2935f33cf89791a895c8117"


def test_sampled_congruence_verdicts_digest_pinned():
    # the sampled checks above with every quantifier a congruence, and the
    # congruences each seed draws; every verdict holds, so the draws are
    # what pins the congruence closure.  The digest was taken from the loop
    # that alternated admissible and transitive closure until stable
    checks = [("(B1)", {"m": INF}), ("(perm)", {})]
    algs = [corpus.builtin(name) for name in FIRST_CORPUS + ("s3", "z3m", "l4", "n5")]
    lines = []
    for alg in algs:
        for seed in (5, 23):
            for label, params in checks:
                stmt = catalog_entry(label, **params)
                stmt = with_sorts(stmt, {name: RelKind.CONGRUENCE for name, _ in stmt.quantifiers})
                verdict = check_identity(alg, stmt, mode="sample", seed=seed, samples=200)
                lines.append(f"{alg.name} {label} {seed} {verdict.holds} {verdict.checked}")
            draws = identities._draws(alg, [RelKind.CONGRUENCE] * 2, seed, 200)
            lines += [" ".join(map(format_rel_literal, values)) for values in draws]
    assert len(lines) == 10 * 2 * (2 + 200)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "4b2a129ff8ae62dbdec37601b70cb0125245a2839cb4de3ae5428d93f7917659"


def test_draw_stream_digest_pinned():
    # every REFL and TOL value that sample mode draws, on algebras whose
    # principal tables start empty; the digest was taken from the draw loop
    # of generator expressions and the pair-at-a-time seeds that the local
    # loop and the row memo replaced
    lines = []
    for name in ("l4", "n5", "z6", "s3"):
        alg = cold(name)
        for seed in (5, 23):
            for values in identities._draws(alg, [RelKind.REFL_ADM, RelKind.TOLERANCE], seed, 200):
                lines.append(" ".join(map(format_rel_literal, values)))
    assert len(lines) == 4 * 2 * 200
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "bf4ba096817b014454e690bc0ad95a4adbf4018cda4a9bf94219fb5fc9ad9935"


def test_held_assignment_memo_is_bounded(monkeypatch):
    # a sampled (D3) check on l4 draws 905 distinct assignments in 1000; the
    # memo of those that held is bounded like the program cache and, at a
    # cap of 8, is emptied when full, with the same verdict
    stmt = catalog_entry("(D3)", m=INF)
    kinds = [kind for _, kind in stmt.quantifiers]
    drawn = [tuple(v.bits for v in values) for values in identities._draws(cold("l4"), kinds, 5, 1000)]
    assert len(set(drawn)) == 905
    normal = check_identity(cold("l4"), stmt, mode="sample", seed=5, samples=1000)
    assert normal.holds and normal.checked == 1000
    sizes = []
    put = identities._put

    def recording(cache, cap, key, value):
        out = put(cache, cap, key, value)
        if key in drawn:
            sizes.append(len(cache))
        return out

    monkeypatch.setattr(identities, "_CACHE_CAP", 8)
    monkeypatch.setattr(identities, "_put", recording)
    assert check_identity(cold("l4"), stmt, mode="sample", seed=5, samples=1000) == normal
    # each assignment that is not in the memo is evaluated and put there
    assert 905 < len(sizes) <= 1000 and max(sizes) == 8


def test_sampled_D3_on_l4_runs_each_closure_once_per_distinct_value(patch_kernel):
    # each draw runs as a block of one member of the same code an exhaustive
    # check runs; every subterm not over all of R, S and T, tol(R) and
    # conv(T) among them, is looked up in the cache under the values of its
    # free variables, so the 905 distinct assignments of 1000 run the
    # closure kernels only for values not met before
    counts = dict.fromkeys(("_converse", "_tolerance_of", "_refl_adm_closure"), 0)

    def counting(name):
        original = getattr(relations, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        patch_kernel(name, counted)

    for name in counts:
        counting(name)
    verdict = check_identity(cold("l4"), catalog_entry("(D3)", m=INF), mode="sample", seed=5, samples=1000)
    assert verdict.holds and verdict.checked == 1000
    assert counts == {"_converse": 484, "_tolerance_of": 118, "_refl_adm_closure": 156}


def test_catalog_entry_matches_catalog():
    for params in ({}, {"k": 3, "h": 2, "m": INF, "l": 1}):
        assert [(label, catalog_entry(label, **params)) for label in catalog_labels()] == catalog(
            **params
        )


def test_catalog_1_2_shape():
    assert print_statement(catalog_entry("(1.2)")) == (
        "Theta:TOL, S:REFL |- Theta & star(S) <= star(Theta & S)"
    )


def test_catalog_B1_inf_shape():
    stmt = catalog_entry("(B1)", m=INF)
    conv_s = Node("conv", (S,))
    assert stmt.lhs == Node("&", (Theta, Node(";^", (S, conv_s), INF)))
    assert stmt.rhs == Node("+", (Node("&", (Theta, S)), Node("&", (Theta, conv_s))))


def test_catalog_a2_exponent():
    stmt = catalog_entry("(a2)", h=1, k=2)
    assert q_bound(1, 2) == 2
    inner = stmt.rhs.args[1]  # the (tol(R)&S ;^q tol(R)&T) factor
    assert inner.op == ";^" and inner.param == 2


def test_catalog_turt_l_variables():
    stmt = catalog_entry("(turt)", l=3)
    names = [name for name, _ in stmt.quantifiers]
    assert names == ["R", "V", "W", "S1", "S2", "S3"]


def test_catalog_param_validation():
    with pytest.raises(ValueError):
        catalog(k=1)
    with pytest.raises(ValueError):
        catalog(h=0)
    with pytest.raises(ValueError):
        catalog(m=1)
    with pytest.raises(ValueError):
        catalog(l=0)
    with pytest.raises(KeyError):
        catalog_entry("(zz)")


def test_with_sorts_unknown_name():
    with pytest.raises(ValueError, match="no quantifier named"):
        with_sorts(catalog_entry("(1.1)"), {"X": RelKind.CONGRUENCE})


def test_with_sorts_rejects_a_sort_that_is_not_a_relkind():
    # the spelling of a sort is not the sort
    with pytest.raises(ValueError, match=r"quantifier 'S' has sort 'TOL', expected a RelKind \(REFL, TOL or CON\)"):
        with_sorts(catalog_entry("(1.1)"), {"S": "TOL"})


@pytest.mark.parametrize("mode", ["exhaustive", "sample"])
def test_check_rejects_a_hand_built_sort_before_any_enumeration_or_draw(mode, l2, monkeypatch):
    stmt = catalog_entry("(1.1)")
    stmt = IdentityStatement((stmt.quantifiers[0], ("S", "TOL")), stmt.relation, stmt.lhs, stmt.rhs)
    calls = []
    monkeypatch.setattr(relations, "enumerate_relations", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(relations, "close_to_kind", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=r"quantifier 'S' has sort 'TOL', expected a RelKind \(REFL, TOL or CON\)"):
        check_identity(l2, stmt, mode=mode)
    assert calls == []


@pytest.mark.parametrize(
    "fn, args, kwargs",
    [
        (catalog_entry, ("(a1)",), {"h": True}),
        (catalog_entry, ("(turt)",), {"l": True}),
        (catalog_entry, ("(day)",), {"k": 3.0}),
        (catalog_entry, ("(A1)",), {"m": 2.5}),
        (catalog_entry, ("(A1)",), {"m": True}),
        (q_bound, (1.5, 2), {}),
        (q_bound, (True, 2), {}),
        (r_bound, (1, 2.0), {}),
        (r_bound, (1, True), {}),
    ],
    ids=["a1-h-True", "turt-l-True", "day-k-3.0", "A1-m-2.5", "A1-m-True", "q-1.5", "q-True", "r-2.0", "r-True"],
)
def test_a_bool_or_float_parameter_is_refused(fn, args, kwargs):
    # bool is an int subclass and a float compares with ints, so neither
    # may pass for the int a bound or a catalog parameter needs
    with pytest.raises(ValueError, match="integer"):
        fn(*args, **kwargs)


def test_monotone_m_failures(sl3):
    # the left-hand sides grow with m, so a counterexample at m persists
    # for every larger m, up to an alternation count too large to compose
    # one factor at a time; spot-check on the non-modular chain semilattice
    env = None
    for m in (2, 3, 4, 10**8):
        verdict = check_identity(sl3, catalog_entry("(A1)", m=m))
        assert not verdict.holds, m
        if env is None:
            env = dict(verdict.counterexample.assignment)
            witness = verdict.counterexample.witness
        # the m=2 counterexample assignment still violates at larger m
        stmt = catalog_entry("(A1)", m=m)
        lhs = eval_expr(sl3, stmt.lhs, env)
        rhs = eval_expr(sl3, stmt.rhs, env)
        assert lhs.has(*witness) and not rhs.has(*witness)
