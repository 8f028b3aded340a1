"""Relation-identity DSL: AST, parser, pretty-printer, evaluator, exhaustive
and sampled checking, and the built-in catalog of inclusion identities.

Grammar (EBNF)::

    stmt  := quants "|-" expr ("<=" | "=") expr
    quants := binding ("," binding)* ; binding := NAME ":" ("REFL"|"TOL"|"CON")
    expr  := expr "&" expr | expr ";" expr | expr ";^" (INT|"inf") expr
           | expr "+" expr | expr "|" expr
           | "conv(" expr ")" | "star(" expr ")" | "cl(" expr ")" | "tol(" expr ")"
           | "pow(" expr "," INT ")" | "delta" | "nabla" | NAME | "(" expr ")"

Precedence, tightest first: unary wrappers, "&", ";" / ";^m", "+" / "|";
all binary operators associate to the left.  "&" is intersection, ";" is
composition, ";^m" the m-fold alternation (";^inf" its saturation), "+" the
saturating join, "|" plain set union, "cl" the reflexive-admissible closure
and "tol" the least containing tolerance.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from enum import Enum
from itertools import product
from math import prod

from .algebras import DEFAULT_CAP, FiniteAlgebra
from .maltsev import q_bound, r_bound
from . import relations as rel
from .relations import BinRel, RelKind

INF = float("inf")


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Delta:
    pass


@dataclass(frozen=True)
class Nabla:
    pass


@dataclass(frozen=True)
class Intersect:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Union:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Compose:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class ComposeM:
    lhs: object
    rhs: object
    m: object  # int >= 1 or INF


@dataclass(frozen=True)
class Plus:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Power:
    arg: object
    h: int


@dataclass(frozen=True)
class Converse:
    arg: object


@dataclass(frozen=True)
class Star:
    arg: object


@dataclass(frozen=True)
class Overline:
    arg: object


@dataclass(frozen=True)
class ToleranceOf:
    arg: object


class StmtRel(Enum):
    INCLUDED_IN = "<="
    EQUALS = "="


@dataclass(frozen=True)
class IdentityStatement:
    quantifiers: tuple  # ((name, RelKind), ...)
    relation: StmtRel
    lhs: object
    rhs: object


_SORT_NAMES = {"REFL": RelKind.REFL_ADM, "TOL": RelKind.TOLERANCE, "CON": RelKind.CONGRUENCE}
_SORT_TEXT = {v: k for k, v in _SORT_NAMES.items()}
_FUNCS = ("conv", "star", "cl", "tol", "pow")
_RESERVED = set(_FUNCS) | set(_SORT_NAMES) | {"delta", "nabla", "inf"}

_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)"
    r"|(?P<sym>\|-|<=|;\^|[=,:;&+|()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        elif m.group("int") is not None:
            tokens.append(("int", int(m.group("int")), m.start("int")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym):
        kind, value, pos = self.next()
        if kind != "sym" or value != sym:
            raise ParseError(f"expected {sym!r}, found {value!r}", pos)

    def at_sym(self, *syms):
        kind, value, _ = self.peek()
        return kind == "sym" and value in syms

    def parse_statement(self):
        quantifiers = [self.parse_binding()]
        while self.at_sym(","):
            self.next()
            quantifiers.append(self.parse_binding())
        names = [name for name, _ in quantifiers]
        for name in names:
            if names.count(name) > 1:
                raise ParseError(f"duplicate quantifier {name!r}", 0)
        self.expect_sym("|-")
        lhs = self.parse_expr()
        kind, value, pos = self.next()
        if kind != "sym" or value not in ("<=", "="):
            raise ParseError(f"expected '<=' or '=', found {value!r}", pos)
        relation = StmtRel.INCLUDED_IN if value == "<=" else StmtRel.EQUALS
        rhs = self.parse_expr()
        kind, value, pos = self.next()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        declared = set(names)
        for side in (lhs, rhs):
            for name in sorted(free_vars(side)):
                if name not in declared:
                    raise ParseError(f"unquantified variable {name!r}", 0)
        return IdentityStatement(tuple(quantifiers), relation, lhs, rhs)

    def parse_binding(self):
        kind, name, pos = self.next()
        if kind != "name":
            raise ParseError(f"expected a variable name, found {name!r}", pos)
        if name in _RESERVED:
            raise ParseError(f"{name!r} is reserved and cannot be quantified", pos)
        self.expect_sym(":")
        kind, sort, pos = self.next()
        if kind != "name" or sort not in _SORT_NAMES:
            raise ParseError(f"expected REFL, TOL or CON, found {sort!r}", pos)
        return (name, _SORT_NAMES[sort])

    def parse_expr(self):
        e = self.parse_comp()
        while self.at_sym("+", "|"):
            _, op, _ = self.next()
            rhs = self.parse_comp()
            e = Plus(e, rhs) if op == "+" else Union(e, rhs)
        return e

    def parse_comp(self):
        e = self.parse_and()
        while self.at_sym(";", ";^"):
            _, op, _ = self.next()
            if op == ";":
                e = Compose(e, self.parse_and())
            else:
                kind, value, pos = self.next()
                if kind == "int":
                    m = value
                elif kind == "name" and value == "inf":
                    m = INF
                else:
                    raise ParseError(f"expected an integer or 'inf' after ';^', found {value!r}", pos)
                if m != INF and m < 1:
                    raise ParseError("composition count must be >= 1", pos)
                e = ComposeM(e, self.parse_and(), m)
        return e

    def parse_and(self):
        e = self.parse_atom()
        while self.at_sym("&"):
            self.next()
            e = Intersect(e, self.parse_atom())
        return e

    def parse_atom(self):
        kind, value, pos = self.next()
        if kind == "sym" and value == "(":
            e = self.parse_expr()
            self.expect_sym(")")
            return e
        if kind != "name":
            raise ParseError(f"expected an expression, found {value!r}", pos)
        if value == "delta":
            return Delta()
        if value == "nabla":
            return Nabla()
        if value in _FUNCS:
            self.expect_sym("(")
            arg = self.parse_expr()
            if value == "pow":
                self.expect_sym(",")
                hkind, h, hpos = self.next()
                if hkind != "int" or h < 1:
                    raise ParseError(f"pow exponent must be a positive integer, found {h!r}", hpos)
                self.expect_sym(")")
                return Power(arg, h)
            self.expect_sym(")")
            return {"conv": Converse, "star": Star, "cl": Overline, "tol": ToleranceOf}[value](arg)
        if value in _RESERVED:
            raise ParseError(f"{value!r} cannot be used here", pos)
        return Var(value)


def parse_identity(text: str) -> IdentityStatement:
    return _Parser(text).parse_statement()


def free_vars(expr) -> frozenset:
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, (Delta, Nabla)):
        return frozenset()
    if isinstance(expr, (Power, Converse, Star, Overline, ToleranceOf)):
        return free_vars(expr.arg)
    return free_vars(expr.lhs) | free_vars(expr.rhs)


_PLUS_PREC, _COMP_PREC, _AND_PREC, _ATOM_PREC = 1, 2, 3, 4


def _prec(expr):
    if isinstance(expr, (Plus, Union)):
        return _PLUS_PREC
    if isinstance(expr, (Compose, ComposeM)):
        return _COMP_PREC
    if isinstance(expr, Intersect):
        return _AND_PREC
    return _ATOM_PREC


def print_expr(expr) -> str:
    return _pp(expr, 0)


def _pp(expr, context):
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Delta):
        return "delta"
    if isinstance(expr, Nabla):
        return "nabla"
    if isinstance(expr, Converse):
        return f"conv({_pp(expr.arg, 0)})"
    if isinstance(expr, Star):
        return f"star({_pp(expr.arg, 0)})"
    if isinstance(expr, Overline):
        return f"cl({_pp(expr.arg, 0)})"
    if isinstance(expr, ToleranceOf):
        return f"tol({_pp(expr.arg, 0)})"
    if isinstance(expr, Power):
        return f"pow({_pp(expr.arg, 0)},{expr.h})"
    p = _prec(expr)
    if isinstance(expr, Intersect):
        op = " & "
    elif isinstance(expr, Compose):
        op = " ; "
    elif isinstance(expr, ComposeM):
        op = " ;^inf " if expr.m == INF else f" ;^{expr.m} "
    elif isinstance(expr, Plus):
        op = " + "
    else:
        op = " | "
    text = _pp(expr.lhs, p) + op + _pp(expr.rhs, p + 1)
    return f"({text})" if p < context else text


def print_statement(stmt: IdentityStatement) -> str:
    quants = ", ".join(f"{name}:{_SORT_TEXT[kind]}" for name, kind in stmt.quantifiers)
    return f"{quants} |- {print_expr(stmt.lhs)} {stmt.relation.value} {print_expr(stmt.rhs)}"


def eval_expr(alg: FiniteAlgebra, expr, env, memo=None) -> BinRel:
    """Compositional evaluation; each node delegates to the relations module.

    `memo` (optional dict) caches node values, valid for a single fixed env.
    """
    if memo is not None:
        hit = memo.get(expr)
        if hit is not None:
            return hit
    if isinstance(expr, Var):
        out = env.get(expr.name)
        if out is None:
            raise ValueError(f"unbound variable {expr.name!r}")
        if out.n != alg.size:
            raise ValueError(f"size mismatch: {expr.name} has n={out.n}, algebra n={alg.size}")
    elif isinstance(expr, Delta):
        out = rel.delta(alg.size)
    elif isinstance(expr, Nabla):
        out = rel.nabla(alg.size)
    elif isinstance(expr, Intersect):
        out = rel.intersect(eval_expr(alg, expr.lhs, env, memo), eval_expr(alg, expr.rhs, env, memo))
    elif isinstance(expr, Union):
        out = rel.union(eval_expr(alg, expr.lhs, env, memo), eval_expr(alg, expr.rhs, env, memo))
    elif isinstance(expr, Compose):
        out = rel.compose(eval_expr(alg, expr.lhs, env, memo), eval_expr(alg, expr.rhs, env, memo))
    elif isinstance(expr, ComposeM):
        lhs = eval_expr(alg, expr.lhs, env, memo)
        rhs = eval_expr(alg, expr.rhs, env, memo)
        out = rel.plus(lhs, rhs) if expr.m == INF else rel.m_compose(lhs, rhs, expr.m)
    elif isinstance(expr, Plus):
        out = rel.plus(eval_expr(alg, expr.lhs, env, memo), eval_expr(alg, expr.rhs, env, memo))
    elif isinstance(expr, Power):
        out = rel.power(eval_expr(alg, expr.arg, env, memo), expr.h)
    elif isinstance(expr, Converse):
        out = rel.converse(eval_expr(alg, expr.arg, env, memo))
    elif isinstance(expr, Star):
        out = rel.star(eval_expr(alg, expr.arg, env, memo))
    elif isinstance(expr, Overline):
        out = rel.refl_adm_closure(alg, eval_expr(alg, expr.arg, env, memo))
    elif isinstance(expr, ToleranceOf):
        out = rel.tolerance_of(alg, eval_expr(alg, expr.arg, env, memo))
    else:
        raise TypeError(f"not a relation expression: {expr!r}")
    if memo is not None:
        memo[expr] = out
    return out


@dataclass(frozen=True)
class Counterexample:
    assignment: tuple  # ((name, BinRel), ...) in quantifier order
    witness: tuple  # (a, c)


@dataclass(frozen=True)
class Verdict:
    holds: bool
    checked: int
    counterexample: Counterexample | None


def _first_missing_pair(lhs: BinRel, rhs: BinRel):
    for a in range(lhs.n):
        extra = lhs.rows[a] & ~rhs.rows[a]
        if extra:
            return (a, (extra & -extra).bit_length() - 1)
    return None


def _violation(alg, stmt, env, memo):
    lhs = eval_expr(alg, stmt.lhs, env, memo)
    rhs = eval_expr(alg, stmt.rhs, env, memo)
    witness = _first_missing_pair(lhs, rhs)
    if witness is None and stmt.relation is StmtRel.EQUALS:
        witness = _first_missing_pair(rhs, lhs)
    return witness


def check_identity(
    alg: FiniteAlgebra,
    stmt: IdentityStatement,
    mode: str = "exhaustive",
    seed: int = 0,
    samples: int = 1000,
    cap: int = DEFAULT_CAP,
) -> Verdict:
    """Quantify the statement over alg's relation lattices.

    Exhaustive mode iterates the full product of the sorted lattices in
    canonical order (declaration order outermost) and reports the least
    counterexample; sample mode draws each assignment by closing a random
    relation to its sort, reproducibly from the seed.
    """
    names = [name for name, _ in stmt.quantifiers]
    if mode == "exhaustive":
        lattices = [
            rel.enumerate_relations(alg, kind, cap=cap).members for _, kind in stmt.quantifiers
        ]
        memo = {}
        for idx, values in enumerate(product(*lattices)):
            env = dict(zip(names, values))
            memo.clear()
            witness = _violation(alg, stmt, env, memo)
            if witness is not None:
                return Verdict(False, idx + 1, Counterexample(tuple(zip(names, values)), witness))
        return Verdict(True, prod(len(lat) for lat in lattices), None)

    if mode == "sample":
        rng = random.Random(seed)
        n = alg.size
        memo = {}
        for i in range(samples):
            values = []
            for _, kind in stmt.quantifiers:
                raw = BinRel(n, tuple(rng.getrandbits(n) for _ in range(n)))
                values.append(rel.close_to_kind(alg, kind, raw))
            env = dict(zip(names, values))
            memo.clear()
            witness = _violation(alg, stmt, env, memo)
            if witness is not None:
                return Verdict(False, i + 1, Counterexample(tuple(zip(names, values)), witness))
        return Verdict(True, samples, None)

    raise ValueError(f"unknown mode {mode!r}")


def with_sorts(stmt: IdentityStatement, overrides) -> IdentityStatement:
    """Replace quantifier sorts by name; unknown names are rejected."""
    known = {name for name, _ in stmt.quantifiers}
    for name in overrides:
        if name not in known:
            raise ValueError(f"no quantifier named {name!r}")
    quants = tuple(
        (name, overrides.get(name, kind)) for name, kind in stmt.quantifiers
    )
    return IdentityStatement(quants, stmt.relation, stmt.lhs, stmt.rhs)


def _chain(node, *exprs):
    out = exprs[0]
    for e in exprs[1:]:
        out = node(out, e)
    return out


def catalog(k: int = 2, h: int = 1, m=2, l: int = 2):
    """Every built-in identity, fully instantiated for the given parameters.

    k >= 2 sizes the directed Gumm system, h >= 1 the doubling exponent,
    m >= 2 (or INF) the alternation length, l >= 1 the S-chain length.
    Labels follow the source tags; (dist) and (perm) are the two stricter
    variations used as separating tests.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    if not isinstance(h, int) or h < 1:
        raise ValueError(f"h must be an integer >= 1, got {h!r}")
    if m != INF and (not isinstance(m, int) or m < 2):
        raise ValueError(f"m must be an integer >= 2 or INF, got {m!r}")
    if not isinstance(l, int) or l < 1:
        raise ValueError(f"l must be an integer >= 1, got {l!r}")

    REFL, TOL = RelKind.REFL_ADM, RelKind.TOLERANCE
    Theta, S, T, R, V, W = Var("Theta"), Var("S"), Var("T"), Var("R"), Var("V"), Var("W")
    Sc, Tc = Converse(S), Converse(T)
    q = q_bound(h, k)
    r = r_bound(h, k)
    two_h = 2 ** h

    def inc(label, quants, lhs, rhs):
        entries.append((label, IdentityStatement(tuple(quants), StmtRel.INCLUDED_IN, lhs, rhs)))

    entries = []
    ts = [(Theta, TOL), (S, REFL)]
    tst = [(Theta, TOL), (S, REFL), (T, REFL)]

    def qs(pairs):
        return [(v.name, kind) for v, kind in pairs]

    inc("(1.1)", qs(ts), Intersect(Theta, Compose(S, S)), Star(Intersect(Theta, S)))
    inc("(1.2)", qs(ts), Intersect(Theta, Star(S)), Star(Intersect(Theta, S)))
    inc(
        "(1.3)",
        qs(ts),
        Intersect(Theta, Compose(S, Sc)),
        Star(Compose(Intersect(Theta, S), Intersect(Theta, Sc))),
    )
    inc(
        "(1.4)",
        qs(tst),
        Intersect(Theta, Star(Compose(S, T))),
        Compose(
            Intersect(Theta, Overline(Union(S, T))),
            Star(Compose(Intersect(Theta, S), Intersect(Theta, T))),
        ),
    )
    inc(
        "(1.5)",
        qs(tst),
        Intersect(Theta, Compose(S, T)),
        Compose(
            Intersect(Theta, Overline(Union(Sc, T))),
            Star(Compose(Intersect(Theta, S), Intersect(Theta, T))),
        ),
    )
    # stricter variations: equivalent to distributivity / to m-permutability
    inc(
        "(dist)",
        qs(tst),
        Intersect(Theta, Compose(S, Tc)),
        Star(Compose(Intersect(Theta, S), Intersect(Theta, Tc))),
    )
    inc("(perm)", qs(ts), Intersect(Theta, Compose(S, S)), Star(Intersect(Theta, Sc)))

    s_vars = [Var(f"S{i}") for i in range(1, l + 1)]
    turt_quants = [("R", REFL), ("V", REFL), ("W", REFL)] + [(v.name, REFL) for v in s_vars]
    s_chain = _chain(Compose, *s_vars)
    lam = _chain(Compose, *[Intersect(ToleranceOf(R), v) for v in s_vars])
    turt_lhs = Intersect(Intersect(R, Compose(V, W)), s_chain)
    inc(
        "(turt)",
        turt_quants,
        turt_lhs,
        Compose(Intersect(R, Overline(Union(V, W))), Power(lam, 2 * k - 3)),
    )
    inc(
        "(turtt)",
        turt_quants,
        turt_lhs,
        Compose(
            Intersect(Intersect(R, Converse(R)), Overline(Union(Converse(V), W))),
            Power(lam, k - 1),
        ),
    )

    inc(
        "(a1)",
        qs(ts),
        Intersect(Theta, ComposeM(S, S, two_h)),
        Power(Intersect(Theta, S), q + 1),
    )
    inc(
        "(a2)",
        [("R", REFL), ("S", REFL), ("T", REFL)],
        Intersect(R, ComposeM(S, T, two_h)),
        Compose(
            Intersect(R, Overline(Union(S, T))),
            ComposeM(Intersect(ToleranceOf(R), S), Intersect(ToleranceOf(R), T), q),
        ),
    )
    inc(
        "(a3)",
        qs(ts),
        Intersect(Theta, ComposeM(S, Sc, two_h)),
        ComposeM(Intersect(Theta, Sc), Intersect(Theta, S), r),
    )

    theta_s = Intersect(Theta, S)
    theta_sc = Intersect(Theta, Sc)
    theta_t = Intersect(Theta, T)
    theta_tc = Intersect(Theta, Tc)
    tr_s = Intersect(ToleranceOf(R), S)
    tr_t = Intersect(ToleranceOf(R), T)
    tr_sc = Intersect(ToleranceOf(R), Sc)
    tr_tc = Intersect(ToleranceOf(R), Tc)
    rst = [("R", REFL), ("S", REFL), ("T", REFL)]

    inc("(A1)", qs(ts), Intersect(Theta, ComposeM(S, S, m)), Star(theta_s))
    inc("(A2)", qs(ts), Intersect(Theta, ComposeM(S, S, m)), Plus(theta_s, theta_sc))
    inc("(A3)", qs(ts), Intersect(Theta, ComposeM(S, S, m)), Star(Intersect(Theta, Compose(Sc, S))))
    inc("(B1)", qs(ts), Intersect(Theta, ComposeM(S, Sc, m)), Plus(theta_s, theta_sc))
    inc("(B2)", qs(ts), Intersect(Theta, ComposeM(S, Sc, m)), Star(Intersect(Theta, Compose(Sc, S))))
    inc(
        "(C1)",
        rst,
        Intersect(R, ComposeM(S, T, m)),
        Compose(Intersect(R, Overline(Union(S, T))), Plus(tr_s, tr_t)),
    )
    inc(
        "(C2)",
        qs(tst),
        Intersect(Theta, ComposeM(S, T, m)),
        Star(Intersect(Theta, Overline(Union(S, T)))),
    )
    inc(
        "(C3)",
        rst,
        Intersect(R, ComposeM(S, T, m)),
        Compose(Intersect(R, Compose(T, Overline(Union(S, T)))), Plus(tr_s, tr_t)),
    )
    inc(
        "(C4)",
        qs(tst),
        Intersect(Theta, ComposeM(S, T, m)),
        Star(Intersect(Theta, Compose(T, S))),
    )
    inc(
        "(D1)",
        rst,
        Intersect(R, ComposeM(S, T, m)),
        Compose(Intersect(R, Overline(Union(Sc, T))), Plus(tr_s, tr_t)),
    )
    inc(
        "(D2)",
        rst,
        Intersect(R, ComposeM(S, T, m)),
        Compose(
            _chain(
                Intersect,
                R,
                Overline(Union(S, T)),
                Overline(Union(Sc, T)),
                Overline(Union(S, Tc)),
                Overline(Union(Sc, Tc)),
            ),
            Plus(tr_s, tr_t),
        ),
    )
    inc(
        "(D3)",
        rst,
        Intersect(R, ComposeM(S, T, m)),
        Compose(
            Intersect(R, Overline(_chain(Union, S, Sc, T, Tc))),
            _chain(Plus, tr_s, tr_t, tr_sc, tr_tc),
        ),
    )
    inc(
        "(D4)",
        qs(tst),
        Intersect(Theta, ComposeM(S, T, m)),
        _chain(
            Plus,
            Intersect(Theta, Compose(T, S)),
            Intersect(Theta, Compose(T, Tc)),
            Intersect(Theta, Compose(Sc, S)),
            Intersect(Theta, Compose(Sc, T)),
            Intersect(Theta, Compose(Sc, Tc)),
            Intersect(Theta, Compose(Tc, S)),
            Intersect(Theta, Compose(Tc, T)),
        ),
    )
    t_sym = Plus(T, Tc)
    inc(
        "(D5)",
        qs(tst),
        Intersect(Theta, ComposeM(S, T, m)),
        _chain(
            Plus,
            Intersect(Theta, Compose(t_sym, S)),
            Intersect(Theta, Compose(Sc, S)),
            Intersect(Theta, Compose(Sc, t_sym)),
        ),
    )
    inc(
        "(day)",
        qs(ts),
        Intersect(Theta, Compose(S, Sc)),
        ComposeM(theta_s, theta_sc, k - 1),
    )
    return entries


def catalog_labels():
    return [label for label, _ in catalog()]


def catalog_entry(label: str, k: int = 2, h: int = 1, m=2, l: int = 2) -> IdentityStatement:
    for tag, stmt in catalog(k=k, h=h, m=m, l=l):
        if tag == label:
            return stmt
    raise KeyError(f"unknown identity label {label!r}")
