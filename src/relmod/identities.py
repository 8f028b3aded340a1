"""Relation-identity DSL: AST, parser, pretty-printer, evaluator, exhaustive
and sampled checking, and the built-in catalog of inclusion identities.

The catalog is written in the grammar below: each entry is one statement
template, instantiated for the parameters k, h, m, l and parsed on demand;
`relmod catalog` prints every entry back in the same grammar.

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

An expression is a `Var` or a `Node(op, args, param)`: op is the
operator's spelling, args its operands and param the m of ";^m" or the h of
"pow".  The operator set is spelled once, in the table `_OPS`, keyed by
spelling: each row gives the operator's arity, its precedence, its kernel
in `relations` and its parameter.  One precedence loop parses the binary
operators from it, and the printer, `lower` and the compiled `_Program`
read it.
"""

from __future__ import annotations

import random
import re
import sys
from enum import Enum
from functools import partial
from math import prod
from operator import and_, or_
from typing import NamedTuple

from .algebras import CapExceeded, DEFAULT_CAP, FiniteAlgebra, Record, _check_cap, _is_int, _put
from .maltsev import q_bound, r_bound
from . import relations as rel
from .relations import INF, BinRel, RelKind, _SORT_CHOICES, _SORTS


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class Var(Record):
    __slots__ = ("name",)


class Node(Record):
    # op: the operator's spelling, its key in _OPS; args: the operands;
    # param: the m of ";^m" (an int >= 1 or INF) or the h of "pow", else None
    __slots__ = ("op", "args", "param")

    def __init__(self, op, args, param=None):
        super().__init__(op, args, param)


class _Op(NamedTuple):
    arity: int  # 2 for an infix operator, 1 for one written name(e), 0 for a constant
    prec: int  # binding strength, tightest highest; _ATOM_PREC for all but infix operators
    kernel: object  # the operator on packed ints, after the size (or algebra) unless inline
    param: str | None = None  # the name of Node.param, the kernel's keyword for ";^"; None if it has none
    alg: bool = False  # the kernel takes the algebra first, not its size
    inline: bool = False  # the kernel is the int operator of the same symbol, written inline
    wide: bool = False  # the kernel takes width=, relations packed n^2 bits apart, all in one call


_ATOM_PREC = 4

# The operator set of the language, by spelling: the parser, the printer,
# lower and _Program all read it.
_OPS = {
    "+": _Op(2, 1, rel._plus, wide=True),
    "|": _Op(2, 1, or_, inline=True),
    ";": _Op(2, 2, rel._compose, wide=True),
    ";^": _Op(2, 2, rel._m_compose, param="m", wide=True),
    "&": _Op(2, 3, and_, inline=True),
    "conv": _Op(1, _ATOM_PREC, rel._converse),
    "star": _Op(1, _ATOM_PREC, rel._star, wide=True),
    "cl": _Op(1, _ATOM_PREC, rel._refl_adm_closure, alg=True),
    "tol": _Op(1, _ATOM_PREC, rel._tolerance_of, alg=True),
    "pow": _Op(1, _ATOM_PREC, rel._m_compose, param="h", wide=True),  # e ;^h e, as _Program interns it
    "delta": _Op(0, _ATOM_PREC, rel._delta),
    "nabla": _Op(0, _ATOM_PREC, rel._nabla),
}


# The deepest a statement side may nest: at most this many parentheses
# around any point, and at most this many operators on any path from the
# root of its tree to a leaf.  The parser, the printer and _Program recurse
# once per level, so each stays far inside the interpreter's recursion limit.
_MAX_DEPTH = 100


def _depth(expr):
    """The most operators on a path from expr's root to a leaf.  A subtree
    that is neither a Var nor a Node whose operator _OPS has, with that
    operator's arity, is a TypeError; a Node whose param does not fit its
    operator is a ValueError."""
    most, todo = 0, [(expr, 0)]
    while todo:
        e, depth = todo.pop()
        most = max(most, depth)
        if type(e) is Node and e.op in _OPS and len(e.args) == _OPS[e.op].arity:
            _check_param(e)
            todo += [(c, depth + 1) for c in e.args]
        elif type(e) is not Var:
            raise TypeError(f"not a relation expression: {e!r}")
    return most


def _check_param(node):
    """The m of ";^" is an int >= 1 or INF, the h of pow an int >= 1, and
    every other operator has no param."""
    name, p = _OPS[node.op].param, node.param
    if name is None:
        if p is not None:
            raise ValueError(f"{node.op!r} takes no parameter, got {p!r}")
        return
    inf = node.op == ";^"
    if not (_is_int(p) and p >= 1 or inf and p == INF):
        raise ValueError(f"{name} must be an integer >= 1{' or INF' if inf else ''}, got {p!r}")


def _check_depth(expr):
    """Refuse a tree built outside the parser that is not a relation
    expression, or nests deeper than the parser lets a side nest, before
    a recursive walk fails or overflows on it; every public entry does."""
    if _depth(expr) > _MAX_DEPTH:
        raise ValueError(f"expression nests more than {_MAX_DEPTH} operators deep")


class StmtRel(Enum):
    INCLUDED_IN = "<="
    EQUALS = "="


class IdentityStatement(Record):
    # quantifiers: ((name, RelKind), ...)
    __slots__ = ("quantifiers", "relation", "lhs", "rhs")


_RESERVED = {spelling for spelling, op in _OPS.items() if op.arity < 2} | set(_SORTS) | {"inf"}

_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)"
    r"|(?P<sym>\|-|<=|;\^|[=,:;&+|()]))"
)


class _EndOfInput:
    def __repr__(self):  # how messages show the token that ends the input
        return "end of input"


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
    tokens.append(("end", _EndOfInput(), len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.declared = {}  # name -> RelKind, filled before the expressions are read
        self.nesting = 0  # parentheses open at the current token

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
        quantifiers = {}
        while True:
            pos = self.peek()[2]
            name, kind = self.parse_binding()
            if name in quantifiers:
                raise ParseError(f"duplicate quantifier {name!r}", pos)
            quantifiers[name] = kind
            if not self.at_sym(","):
                break
            self.next()
        self.declared = quantifiers
        self.expect_sym("|-")
        lhs = self.parse_side()
        kind, value, pos = self.next()
        if kind != "sym" or value not in ("<=", "="):
            raise ParseError(f"expected '<=' or '=', found {value!r}", pos)
        relation = StmtRel.INCLUDED_IN if value == "<=" else StmtRel.EQUALS
        rhs = self.parse_side()
        kind, value, pos = self.next()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return IdentityStatement(tuple(quantifiers.items()), relation, lhs, rhs)

    def parse_binding(self):
        kind, name, pos = self.next()
        if kind != "name":
            raise ParseError(f"expected a variable name, found {name!r}", pos)
        if name in _RESERVED:
            raise ParseError(f"{name!r} is reserved and cannot be quantified", pos)
        self.expect_sym(":")
        _, sort, pos = self.next()
        try:
            return (name, RelKind(sort))
        except ValueError:
            raise ParseError(f"expected {_SORT_CHOICES}, found {sort!r}", pos) from None

    def parse_side(self):
        pos = self.peek()[2]
        e = self.parse_expr()
        if _depth(e) > _MAX_DEPTH:
            raise ParseError(f"expression nests more than {_MAX_DEPTH} operators deep", pos)
        return e

    def parse_nested(self, pos):
        """The expression inside a parenthesis, opened at pos or by the
        operator name there."""
        if self.nesting == _MAX_DEPTH:
            raise ParseError(f"expression nests more than {_MAX_DEPTH} parentheses deep", pos)
        self.nesting += 1
        e = self.parse_expr()
        self.nesting -= 1
        return e

    def parse_expr(self, prec=1):
        """An expression whose outermost binary operators have precedence
        prec or tighter; each level associates to the left."""
        if prec == _ATOM_PREC:
            return self.parse_atom()
        e = self.parse_expr(prec + 1)
        while True:
            kind, value, _ = self.peek()
            op = _OPS.get(value) if kind == "sym" else None
            if op is None or op.prec != prec:
                return e
            self.next()
            param = self.parse_count() if op.param else None
            e = Node(value, (e, self.parse_expr(prec + 1)), param)

    def parse_count(self):
        kind, value, pos = self.next()
        if kind == "int":
            m = value
        elif kind == "name" and value == "inf":
            m = INF
        else:
            raise ParseError(f"expected an integer or 'inf' after ';^', found {value!r}", pos)
        if m != INF and m < 1:
            raise ParseError("composition count must be >= 1", pos)
        return m

    def parse_atom(self):
        kind, value, pos = self.next()
        if kind == "sym" and value == "(":
            e = self.parse_nested(pos)
            self.expect_sym(")")
            return e
        if kind != "name":
            raise ParseError(f"expected an expression, found {value!r}", pos)
        op = _OPS.get(value)
        if op is None:
            if value in _RESERVED:
                raise ParseError(f"{value!r} cannot be used here", pos)
            if value not in self.declared:
                raise ParseError(f"unquantified variable {value!r}", pos)
            return Var(value)
        if not op.arity:
            return Node(value, ())
        self.expect_sym("(")
        args = (self.parse_nested(pos),)
        param = None
        if op.param:
            self.expect_sym(",")
            kind, param, hpos = self.next()
            if kind != "int" or param < 1:
                raise ParseError(f"pow exponent must be a positive integer, found {param!r}", hpos)
        self.expect_sym(")")
        return Node(value, args, param)


def parse_identity(text: str) -> IdentityStatement:
    return _Parser(text).parse_statement()


def print_expr(expr) -> str:
    _check_depth(expr)
    return _pp(expr, 0)


def _pp(expr, context):
    if type(expr) is Var:
        return expr.name
    op = _OPS[expr.op]
    if op.arity == 0:
        return expr.op
    if op.arity == 1:
        param = f",{expr.param}" if op.param else ""
        return f"{expr.op}({_pp(expr.args[0], 0)}{param})"
    symbol = f"{expr.op}{expr.param}" if op.param else expr.op  # str(INF) is "inf"
    lhs, rhs = expr.args
    text = f"{_pp(lhs, op.prec)} {symbol} {_pp(rhs, op.prec + 1)}"
    return f"({text})" if op.prec < context else text


def print_statement(stmt: IdentityStatement) -> str:
    quants = ", ".join(f"{name}:{kind.value}" for name, kind in stmt.quantifiers)
    return f"{quants} |- {print_expr(stmt.lhs)} {stmt.relation.value} {print_expr(stmt.rhs)}"


def lower(expr):
    """A subrelation of expr, written in the same grammar and cheaper to
    evaluate.

    It relies on every relation it is evaluated on being reflexive, as every
    value a check evaluates is: every quantifier sort is reflexive, so are
    delta and nabla, and every operator keeps reflexivity.  Then r ; s,
    r ;^m s with m >= 2 or inf, and r + s each contain r | s, while r ;^1 s
    is r; star, pow and cl contain their argument; tol(a) contains
    a | conv(a); and &, | and conv, being monotone, pass to their operands.
    """
    _check_depth(expr)
    return _lower(expr)


def _lower(expr):
    if type(expr) is Var:
        return expr
    op, args = expr.op, expr.args
    if op == ";^" and expr.param == 1:
        return _lower(args[0])
    if op in (";", ";^", "+"):
        return Node("|", tuple(map(_lower, args)))
    if op in ("&", "|", "conv"):
        return Node(op, tuple(map(_lower, args)))
    if op in ("star", "pow", "cl"):
        return _lower(args[0])
    if op == "tol":
        arg = _lower(args[0])
        return Node("|", (arg, Node("conv", (arg,))))
    return expr


def _fold(expr, chained=False):
    """expr with every maximal tree of "+", ";^inf" and "star" nodes written
    as one star of the union of its leaves, so that it runs one Warshall
    pass; chained: expr lies under such a node, so it adds no star of its
    own.  The union keeps the tree's shape, "|" for each binary node, so
    `lower` of the result is `lower` of expr.

    Exact on the reflexive values a check evaluates (see `lower`): there
    r + s and r ;^inf s are star(r | s), and star(star(a) | b) is
    star(a | b).  Not on other values, so only checks fold."""
    if type(expr) is Var:
        return expr
    if expr.op in ("+", "star") or expr.op == ";^" and expr.param == INF:
        args = tuple(_fold(e, True) for e in expr.args)
        union = args[0] if expr.op == "star" else Node("|", args)
        return union if chained else Node("star", (union,))
    return Node(expr.op, tuple(map(_fold, expr.args)), expr.param)


class Counterexample(Record):
    # assignment: ((name, BinRel), ...) in quantifier order; witness: (a, c)
    __slots__ = ("assignment", "witness")


class Verdict(Record):
    __slots__ = ("holds", "checked", "counterexample")


# The most member values one compiled program keeps cached: a value for one
# assignment counts one, a wide value (see _Program) one per member it
# holds.  A cache that would pass it is emptied and refills, so a check
# never holds more.
_CACHE_CAP = 1 << 16

# The most members of the innermost lattice one wide value holds.  An
# exhaustive check packs that lattice into blocks of at most this many
# members, n^2 bits each, so no int it builds or caches grows with the
# lattice.
_BLOCK = 64

# The most compiled checks one process keeps, keyed by their generated
# source.  The source is a function of a program's slot table, never of
# its algebra, whose kernels, constants and cache reach the code through
# the namespace it runs in; a store that would pass the cap is emptied and
# refills.
_CODE_CAP = 256
_CODE = {}  # generated source -> its compiled code object

# The locals a generated line reads: quantifier values v<position> and
# computed slots x<slot>.
_LOCAL_RE = re.compile(r"\b[vx]\d+\b")


def _blocks(nn, values):
    """The packed relations `values`, nn bits each, in blocks of at most
    _BLOCK: (V, R, I) per block, with member i of V at bits i*nn, I those
    shifts and R the sum of 1 << i*nn over them."""
    out = []
    for lo in range(0, len(values), _BLOCK):
        members = values[lo : lo + _BLOCK]
        shifts = range(0, len(members) * nn, nn)
        packed = sum(v << i for v, i in zip(members, shifts))
        out.append((packed, sum(1 << i for i in shifts), shifts))
    return out


def _each(kernel, wide, shifts, mask):
    """The one-operand kernel on each member of the wide value `wide`, at
    the bit offsets `shifts`, packed the same way."""
    out = 0
    for i in shifts:
        out |= kernel(wide >> i & mask) << i
    return out


def _assignment(values, d):
    """D for the loops over quantifiers 0..d run on one assignment, the
    `BinRel`s `values` in quantifier order: quantifier d's value is a block
    of one member."""
    D = [(v.bits,) for v in values]
    D[d] = [(values[d].bits, 1, range(1))]
    return D


class _Program:
    """Relation expressions over the quantifiers `names`, compiled for one
    algebra into interned slots and run as generated loop code.

    Every distinct subterm is one slot, interned bottom-up by (operator,
    child slots, parameter), so a subterm met twice is one slot; pow(e, h)
    is interned as e ;^h e.  Each slot records the ascending positions of
    its free variables in `names`; a slot with none is a constant, computed
    when it is interned.  Slot values are packed relations, ints as
    `BinRel.bits`.  "|" and "&" are written inline as the int operators of
    the same symbols; every other operator is a call of its kernel in
    `relations`, bound to the algebra or its size and to the node's
    parameter, on the slot ints.

    `search` writes a statement as Python source, kept in `source`, and
    runs it through `exec` once, into a namespace of its own that binds
    the kernels, constants and cache.  The compiled code is shared by
    source text within a process (`_CODE`), since nothing of the algebra
    is in the source.  Quantifier i gets its own function: one
    `for` loop over its values, which calls quantifier i+1's function, so
    the block nesting stays within CPython's limit.  The innermost
    quantifier d is no loop over members: its values come in blocks
    (V, R, I), member i at bits i*n^2 of V, I those shifts and R the sum of
    1 << i*n^2 over them, and d's function runs once per block.  An
    exhaustive check passes d's lattice cut by `_blocks`; one assignment, a
    sampled draw or an `eval_expr` call, passes the block of one member
    (bits, 1, range(1)), so it runs the same code.

    Each slot is computed in the loop of its last free variable, once per
    pass.  A slot over d has one wide value there, y<slot>, its value at
    every member packed the same way: V for d itself; one int operation for
    "|" and "&", an outer value broadcast by one multiply with R, which
    cannot carry as a value is below 2^(n^2); one kernel call per block, on
    the wide operands, for ";", ";^", pow and star, whose kernels take
    `width` (_OPS' `wide`); one kernel call per member, packed, for cl, tol
    and conv.

    One rule says which slots are cached: "|", "&" and a slot over every
    quantifier of the loops are computed in place; every other slot is
    looked up in the cache under (slot, values of its free variables), V
    standing last for d's, since a later pass of the outer loops or a later
    assignment meets it again (tol(R) in the next draw, conv(S) under R,
    S; S ;^inf T under R, S, T; conv(T), over d alone, under R, S).  A
    block of one member is keyed as its one assignment.  The cache holds
    at most `_CACHE_CAP` member values, a wide one counting each of its
    block's members, and is emptied when full.  `violation` and
    `_runner(slot)` run the loops on one assignment, a tuple of `BinRel`
    in the order of `names`.
    """

    def __init__(self, alg: FiniteAlgebra, names):
        self.alg = alg
        self.names = tuple(names)
        self._position = {name: p for p, name in enumerate(self.names)}
        self._slots = {}  # (operator, child slots, parameter) -> slot
        self._keys = []  # slot -> (operator, child slots, parameter)
        self.free = []  # slot -> ascending positions of its free variables
        self._fns = {}  # slot -> its bound kernel, unless written inline
        self._constants = {}  # slot without free variables -> its packed value
        self._cache = {}  # (slot, packed values of its free variables) -> packed value
        self._held = 0  # the member values in _cache
        self.source = None

    def slot(self, expr) -> int:
        """Compile expr and its subterms; return expr's slot."""
        if type(expr) is Var:
            p = self._position.get(expr.name)
            if p is None:
                raise ValueError(f"unbound variable {expr.name!r}")
            key = (Var, (), p)
        else:
            kids = tuple(self.slot(e) for e in expr.args)
            key = (";^", kids * 2, expr.param) if expr.op == "pow" else (expr.op, kids, expr.param)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = self._add(*key)
        return slot

    def _add(self, node, kids, param):
        slot = len(self._keys)
        self._keys.append((node, kids, param))
        if node is Var:
            self.free.append((param,))
            return slot
        free = tuple(sorted({p for k in kids for p in self.free[k]}))
        self.free.append(free)
        op = _OPS[node]
        fn = op.kernel if op.inline else self._kernel(op, param)
        if not free:
            self._constants[slot] = fn(*(self._constants[k] for k in kids))
        elif not op.inline:
            self._fns[slot] = fn
        return slot

    def _kernel(self, op, param):
        """op's kernel, bound to the algebra or its size and to param."""
        first = self.alg if op.alg else self.alg.size
        return partial(op.kernel, first, **({op.param: param} if op.param else {}))

    def _put(self, key, value, members=1):
        """Cache value under key as `members` member values: a cache they
        would take past `_CACHE_CAP` is emptied first, and a value of more
        members than the cap is not kept.  Returns value."""
        if members <= _CACHE_CAP:
            if self._held + members > _CACHE_CAP:
                self._cache.clear()
                self._held = 0
            self._cache[key] = value
            self._held += members
        return value

    def _name(self, slot):
        """The name generated code reads slot's value by."""
        node, _, param = self._keys[slot]
        if node is Var:
            return f"v{param}"
        return f"c{slot}" if slot in self._constants else f"x{slot}"

    def _wide_name(self, slot, d):
        """What a wide line reads slot's wide value by: V for quantifier d,
        y<slot> for another slot over d, else its value broadcast."""
        free = self.free[slot]
        if free and free[-1] == d:
            return "V" if self._keys[slot][0] is Var else f"y{slot}"
        return f"({self._name(slot)} * R)"

    def _needed(self, roots):
        """The slots that computing `roots` runs: every slot below them but
        variables and constants."""
        needed = set()
        todo = list(roots)
        while todo:
            slot = todo.pop()
            if slot not in needed and self._name(slot)[0] == "x":
                needed.add(slot)
                todo.extend(self._keys[slot][1])
        return needed

    def _lines(self, slot, d):
        """The generated lines that set slot's value from its children in
        the loops over quantifiers 0..d: x<slot> for a slot not over d, else
        y<slot>, its wide value over a block of d's values."""
        node, kids, _ = self._keys[slot]
        free = self.free[slot]
        op = _OPS[node]
        wide = free[-1] == d
        target = f"y{slot}" if wide else f"x{slot}"
        args = [self._wide_name(k, d) if wide else self._name(k) for k in kids]
        if op.inline:
            return [f"{target} = {args[0]} {node} {args[1]}"]
        members = ", len(I)" if wide else ""
        if not wide:
            value = f"f{slot}({', '.join(args)})"
        elif op.wide:
            value = f"f{slot}({', '.join(args)}, width=len(I))"
        else:  # a kernel without width has one operand
            value = f"each(f{slot}, {args[0]}, I, M)"
        if len(free) == d + 1:  # over every quantifier: in place
            return [f"{target} = {value}"]
        key = ", ".join([str(slot)] + ["V" if p == d else f"v{p}" for p in free])
        return [f"k = ({key})", f"{target} = get(k)", f"if {target} is None:", f"    {target} = put(k, {value}{members})"]

    def _compile(self, depth, slots, tail):
        """Generate and exec the loops over quantifiers 0..depth-1, with
        `slots` computed each in the loop of its last free variable, and the
        lines `tail` ending the innermost level, which runs once per block,
        after the wide values of the slots over it.  The source is compiled
        only if `_CODE` does not hold it yet, and run into a fresh namespace
        that binds this program's kernels, constants and cache.  Returns
        the outermost loop's function: given D, with D[i] the packed values
        of quantifier i and D[depth-1] the blocks (V, R, I) of the
        innermost, it returns the first value `tail` returns, or None."""
        d = depth - 1
        bodies = [[] for _ in range(depth)]
        for slot in sorted(slots):
            bodies[self.free[slot][-1]] += self._lines(slot, d)
        bodies[d] += tail
        functions = []

        def level(name):
            i = int(name[1:])
            return i if name[0] == "v" else self.free[i][-1]

        args = []
        for i in reversed(range(depth)):
            body = bodies[i]
            if i < d:
                body += [f"r = L{i + 1}({', '.join(['D'] + args)})", "if r is not None:", "    return r"]
            args = sorted(name for name in set(_LOCAL_RE.findall("\n".join(body))) if level(name) < i)
            functions.append(f"def L{i}({', '.join(['D'] + args)}):")
            functions.append(f"    for {f'v{i}' if i < d else 'V, R, I'} in D[{i}]:")
            functions += ["        " + line for line in body]
        n = self.alg.size
        namespace = {"get": self._cache.get, "put": self._put, "each": _each, "M": rel._nabla(n), "NN": n * n}
        namespace.update((f"f{slot}", fn) for slot, fn in self._fns.items())
        namespace.update((f"c{slot}", value) for slot, value in self._constants.items())
        self.source = "\n".join(functions)
        code = _CODE.get(self.source)
        if code is None:
            code = _put(_CODE, _CODE_CAP, self.source, compile(self.source, "<string>", "exec"))
        exec(code, namespace)
        return namespace["L0"]

    def search(self, stmt: IdentityStatement):
        """Compile a statement whose quantifiers are among `names` into loops
        over all of `names`.  The function returned takes D, with D[i] the
        packed values of quantifier i and, for the innermost, its blocks
        (V, R, I); it runs the assignments in product order and returns
        (small, big, v0, v1, ...) for the first that fails, with small the
        packed side that is not inside the packed side big, or None.

        Each side is compiled through `_fold`, so a chain of "+", ";^inf"
        and "star" is one Warshall pass.  Each inclusion is first tested
        against `lower` of its larger side, compiled beside the statement
        into the same slots.  The bound lies inside the larger side, so an
        assignment it settles holds.  All of it runs on wide values, once
        per block: only a block where some member escapes the bound builds
        the slots over the innermost quantifier that only the larger side
        needs, and tests the larger side wide.  For "=", rhs is then tested
        against lower(lhs) the same way.  Only the first member that fails
        is taken out, see `_first_failure`.
        """
        sides = [(stmt.lhs, stmt.rhs)]
        if stmt.relation is StmtRel.EQUALS:
            sides.append((stmt.rhs, stmt.lhs))
        checks = [(self.slot(_fold(small)), self.slot(_lower(big)), self.slot(_fold(big))) for small, big in sides]
        depth = len(self.names)
        d = depth - 1
        always = self._needed([s for small, bound, _ in checks for s in (small, bound)])
        slots = set(always)
        tail = []
        for t, (small, bound, big) in enumerate(checks):
            # b<t>: nonzero in the segment of each member where check t fails
            name, limit, low = (self._wide_name(s, d) for s in (small, big, bound))
            test = [f"b{t} = {name} & ~{limit}"]
            if bound != big:
                rest = self._needed([big]) - always
                lazy = sorted(s for s in rest if self.free[s][-1] == d)
                slots |= rest.difference(lazy)
                build = [line for s in lazy for line in self._lines(s, d)]
                test = [f"b{t} = {name} & ~{low}", f"if b{t}:"] + ["    " + line for line in build + test]
            tail += test
        return self._compile(depth, slots, tail + self._first_failure(checks, d))

    def _first_failure(self, checks, d):
        """The end of the wide innermost level, after each check t has set
        b<t>, nonzero in the n^2-bit segment of each member at which it
        fails: the lowest set bit of their union lies in the first failing
        member, whose values are taken out by shift and mask and returned
        with the first check that fails there."""
        lines = [f"b = {' | '.join(f'b{t}' for t in range(len(checks)))}"]
        lines += ["if b:", "    i = ((b & -b).bit_length() - 1) // NN * NN"]
        values = "".join([f", v{p}" for p in range(d)] + [", V >> i & M"])
        for t, (small, _, big) in enumerate(checks):
            found = f"return ({self._wide_name(small, d)} >> i & M, {self._wide_name(big, d)} >> i & M{values})"
            lines += [f"    if b{t} >> i & M:", f"        {found}"] if t < len(checks) - 1 else [f"    {found}"]
        return lines

    def violation(self, stmt: IdentityStatement):
        """`search` run on one assignment: a function from a tuple of
        `BinRel` to the least pair of lhs outside rhs (then, for "=", of
        rhs outside lhs), or None if the statement holds there."""
        loops = self.search(stmt)
        n, d = self.alg.size, len(self.names) - 1

        def violation(values):
            found = loops(_assignment(values, d))
            return None if found is None else _first_missing_pair(n, found[0], found[1])

        return violation

    def _runner(self, slot):
        """A function from a tuple of `BinRel` to slot's `BinRel` there."""
        n = self.alg.size
        free = self.free[slot]
        if not free:
            value = BinRel._of(n, self._constants[slot])
            return lambda values: value
        d = free[-1]
        loops = self._compile(d + 1, self._needed([slot]), [f"return {self._wide_name(slot, d)}"])
        return lambda values: BinRel._of(n, loops(_assignment(values, d)))


def _first_missing_pair(n, lhs, rhs):
    """The least pair (a, b) of the packed relation lhs outside rhs, or None."""
    extra = lhs & ~rhs
    if extra:
        return divmod((extra & -extra).bit_length() - 1, n)
    return None


def eval_expr(alg: FiniteAlgebra, expr, env) -> BinRel:
    """The value of expr on alg with its variables bound by `env` (name ->
    BinRel on alg's universe, each checked whether expr reads it or not): one
    run of the compiled program that `check_identity` uses."""
    _check_depth(expr)
    for name, value in env.items():
        if not isinstance(value, BinRel):
            raise TypeError(f"{name} must be a BinRel, got {value!r}")
        if value.n != alg.size:
            raise ValueError(f"size mismatch: {name} has n={value.n}, algebra n={alg.size}")
    program = _Program(alg, env)
    return program._runner(program.slot(expr))(tuple(env.values()))


def check_identity(
    alg: FiniteAlgebra,
    stmt: IdentityStatement,
    mode: str = "exhaustive",
    seed: int = 0,
    samples: int = 1000,
    cap: int = DEFAULT_CAP,
) -> Verdict:
    """Quantify the statement over alg's relation lattices.

    Exhaustive mode runs the full product of the sorted lattices in
    canonical order (declaration order outermost) and reports the least
    counterexample; sample mode draws `samples` >= 1 assignments, each by
    closing a random relation to its sort, reproducibly from the integer
    seed.  cap, a positive int, bounds each lattice and the number of
    assignments, run or drawn, checked before the first.

    The statement is compiled once into a `_Program`: generated code, one
    loop per quantifier in declaration order, that calls the relation
    kernels on packed ints.  The code reads the algebra only through the
    namespace it runs in, so a process compiles each generated source
    once and shares it between checks, in a store bounded at `_CODE_CAP`.
    Every chain of "+", ";^inf" and "star" is compiled as one star of the
    union of its operands, exact on the reflexive values a check
    evaluates.  The innermost quantifier is no loop: its values come
    packed side by side into blocks of wide ints, and "|", "&", ";",
    ";^m", "pow", "star" and the tests below run once per block on them;
    "cl", "tol" and "conv" run once per member.
    Exhaustively, its lattice is cut into blocks of at most `_BLOCK`
    members; sample mode runs each distinct draw as a block of one member:
    the packed values of the assignments that held are kept, bounded like
    the cache, and a repeated one is settled by a lookup.  Each subterm is
    computed in the loop of its last free variable, the innermost level
    for a subterm over the innermost quantifier, alone or not.
    "|", "&" and a subterm over every quantifier are computed in place,
    every other subterm through the bounded cache, under the values of its
    free variables.  At the innermost level the left side is tested first
    against `lower` of the right side, and the rest of the right side is
    built only for a block where some member fails that test.  The
    witness is still the least pair of lhs outside the full rhs, at the
    first assignment in product order that fails: only that member is
    taken out of its block.
    """
    _check_cap(cap)
    names = [name for name, _ in stmt.quantifiers]
    kinds = [kind for _, kind in stmt.quantifiers]
    if not names:
        raise ValueError("a statement needs at least one quantifier")
    for p, (name, kind) in enumerate(stmt.quantifiers):
        if name in names[:p]:
            raise ValueError(f"duplicate quantifier {name!r}")
        _check_sort(name, kind)
    _check_depth(stmt.lhs)
    _check_depth(stmt.rhs)
    if mode == "exhaustive":
        lattices = [rel.enumerate_relations(alg, kind, cap=cap).members for kind in kinds]
        total = prod(map(len, lattices))
        if total > cap:
            raise CapExceeded("assignments", cap, total)
    elif mode == "sample":
        if not _is_int(samples) or samples < 1:
            raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
        if not _is_int(seed):
            # None would seed from the OS and draw differently on every call
            raise ValueError(f"seed must be an integer, got {seed!r}")
        if samples > cap:
            raise CapExceeded("samples", cap, samples)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    program = _Program(alg, names)
    if mode == "sample":
        violation = program.violation(stmt)
        held = {}  # packed assignments that held, bounded like the program cache
        for checked, values in enumerate(_draws(alg, kinds, seed, samples), 1):
            key = tuple(v.bits for v in values)
            if key in held:
                continue
            witness = violation(values)
            if witness is not None:
                return Verdict(False, checked, Counterexample(tuple(zip(names, values)), witness))
            _put(held, _CACHE_CAP, key, None)
        return Verdict(True, samples, None)
    packed = [[r.bits for r in members] for members in lattices]
    found = program.search(stmt)([*packed[:-1], _blocks(alg.size**2, packed[-1])])
    if found is None:
        return Verdict(True, total, None)
    small, big, *values = found
    index = [bits.index(v) for bits, v in zip(packed, values)]
    checked = 0
    for i, bits in zip(index, packed):
        checked = checked * len(bits) + i
    assignment = tuple(zip(names, (members[i] for members, i in zip(lattices, index))))
    return Verdict(False, checked + 1, Counterexample(assignment, _first_missing_pair(alg.size, small, big)))


def _draws(alg, kinds, seed, samples):
    """`samples` assignments, each a random relation per quantifier closed to
    its sort, drawn lazily from one seeded generator."""
    bits = random.Random(seed).getrandbits
    close = rel.close_to_kind
    n = alg.size
    shifts = range(0, n * n, n)
    for _ in range(samples):
        values = []
        for kind in kinds:
            r = 0
            for s in shifts:
                r |= bits(n) << s
            values.append(close(alg, kind, BinRel._of(n, r)))
        yield tuple(values)


def _check_sort(name, kind):
    """Reject a quantifier sort that is not a `RelKind`, such as its
    spelling "TOL"."""
    rel._check_kind(kind, f"quantifier {name!r} has sort")


def with_sorts(stmt: IdentityStatement, overrides) -> IdentityStatement:
    """Replace quantifier sorts by name; unknown names and sorts that are
    not a `RelKind` are rejected."""
    known = {name for name, _ in stmt.quantifiers}
    for name, kind in overrides.items():
        if name not in known:
            raise ValueError(f"no quantifier named {name!r}")
        _check_sort(name, kind)
    quants = tuple(
        (name, overrides.get(name, kind)) for name, kind in stmt.quantifiers
    )
    return IdentityStatement(quants, stmt.relation, stmt.lhs, stmt.rhs)


# The paper's identities, written in the statement language.  A field in
# braces is named after the expression it stands for and is filled in by
# _fields.  (dist) and (perm) are the stricter variations used as separating
# tests: they are equivalent to distributivity and to m-permutability.
_CATALOG = {
    "(1.1)": "Theta:TOL, S:REFL |- Theta & (S ; S) <= star(Theta & S)",
    "(1.2)": "Theta:TOL, S:REFL |- Theta & star(S) <= star(Theta & S)",
    "(1.3)": "Theta:TOL, S:REFL |- Theta & (S ; conv(S)) <= star(Theta & S ; Theta & conv(S))",
    "(1.4)": "Theta:TOL, S:REFL, T:REFL |- Theta & star(S ; T)"
    " <= Theta & cl(S | T) ; star(Theta & S ; Theta & T)",
    "(1.5)": "Theta:TOL, S:REFL, T:REFL |- Theta & (S ; T)"
    " <= Theta & cl(conv(S) | T) ; star(Theta & S ; Theta & T)",
    "(dist)": "Theta:TOL, S:REFL, T:REFL |- Theta & (S ; conv(T))"
    " <= star(Theta & S ; Theta & conv(T))",
    "(perm)": "Theta:TOL, S:REFL |- Theta & (S ; S) <= star(Theta & conv(S))",
    "(turt)": "R:REFL, V:REFL, W:REFL, {S_quants} |- R & (V ; W) & ({S_chain})"
    " <= R & cl(V | W) ; pow({lam}, {2k-3})",
    "(turtt)": "R:REFL, V:REFL, W:REFL, {S_quants} |- R & (V ; W) & ({S_chain})"
    " <= R & conv(R) & cl(conv(V) | W) ; pow({lam}, {k-1})",
    "(a1)": "Theta:TOL, S:REFL |- Theta & (S ;^{2^h} S) <= pow(Theta & S, {q+1})",
    "(a2)": "R:REFL, S:REFL, T:REFL |- R & (S ;^{2^h} T)"
    " <= R & cl(S | T) ; (tol(R) & S ;^{q} tol(R) & T)",
    "(a3)": "Theta:TOL, S:REFL |- Theta & (S ;^{2^h} conv(S)) <= Theta & conv(S) ;^{r} Theta & S",
    "(A1)": "Theta:TOL, S:REFL |- Theta & (S ;^{m} S) <= star(Theta & S)",
    "(A2)": "Theta:TOL, S:REFL |- Theta & (S ;^{m} S) <= Theta & S + Theta & conv(S)",
    "(A3)": "Theta:TOL, S:REFL |- Theta & (S ;^{m} S) <= star(Theta & (conv(S) ; S))",
    "(B1)": "Theta:TOL, S:REFL |- Theta & (S ;^{m} conv(S)) <= Theta & S + Theta & conv(S)",
    "(B2)": "Theta:TOL, S:REFL |- Theta & (S ;^{m} conv(S)) <= star(Theta & (conv(S) ; S))",
    "(C1)": "R:REFL, S:REFL, T:REFL |- R & (S ;^{m} T)"
    " <= R & cl(S | T) ; (tol(R) & S + tol(R) & T)",
    "(C2)": "Theta:TOL, S:REFL, T:REFL |- Theta & (S ;^{m} T) <= star(Theta & cl(S | T))",
    "(C3)": "R:REFL, S:REFL, T:REFL |- R & (S ;^{m} T)"
    " <= R & (T ; cl(S | T)) ; (tol(R) & S + tol(R) & T)",
    "(C4)": "Theta:TOL, S:REFL, T:REFL |- Theta & (S ;^{m} T) <= star(Theta & (T ; S))",
    "(D1)": "R:REFL, S:REFL, T:REFL |- R & (S ;^{m} T)"
    " <= R & cl(conv(S) | T) ; (tol(R) & S + tol(R) & T)",
    "(D2)": "R:REFL, S:REFL, T:REFL |- R & (S ;^{m} T)"
    " <= R & cl(S | T) & cl(conv(S) | T) & cl(S | conv(T)) & cl(conv(S) | conv(T))"
    " ; (tol(R) & S + tol(R) & T)",
    "(D3)": "R:REFL, S:REFL, T:REFL |- R & (S ;^{m} T)"
    " <= R & cl(S | conv(S) | T | conv(T))"
    " ; (tol(R) & S + tol(R) & T + tol(R) & conv(S) + tol(R) & conv(T))",
    "(D4)": "Theta:TOL, S:REFL, T:REFL |- Theta & (S ;^{m} T)"
    " <= Theta & (T ; S) + Theta & (T ; conv(T)) + Theta & (conv(S) ; S)"
    " + Theta & (conv(S) ; T) + Theta & (conv(S) ; conv(T))"
    " + Theta & (conv(T) ; S) + Theta & (conv(T) ; T)",
    "(D5)": "Theta:TOL, S:REFL, T:REFL |- Theta & (S ;^{m} T)"
    " <= Theta & ((T + conv(T)) ; S) + Theta & (conv(S) ; S)"
    " + Theta & (conv(S) ; (T + conv(T)))",
    "(day)": "Theta:TOL, S:REFL |- Theta & (S ; conv(S)) <= Theta & S ;^{k-1} Theta & conv(S)",
}


def _fields(k, h, m, l):
    """Validate the catalog parameters and derive the template fields."""
    if not _is_int(k) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    if not _is_int(h) or h < 1:
        raise ValueError(f"h must be an integer >= 1, got {h!r}")
    if m != INF and (not _is_int(m) or m < 2):
        raise ValueError(f"m must be an integer >= 2 or INF, got {m!r}")
    if not _is_int(l) or l < 1:
        raise ValueError(f"l must be an integer >= 1, got {l!r}")
    # the right sides of (turt) and (turtt) nest l+3 operators deep
    if l > _MAX_DEPTH - 3:
        raise ValueError(f"l must be at most {_MAX_DEPTH - 3}")
    # q+1 is the largest number the templates print; its text must have no
    # more digits than the interpreter converts (no limit before Python 3.10.7)
    digits = getattr(sys, "get_int_max_str_digits", int)()
    if digits:
        most = 10**digits - 2  # the largest q that prints
        if 2 * k - 3 > most // 2:  # q_bound(1, k) = 2(2k-3)
            raise ValueError(f"k must be at most {(most // 2 + 3) // 2}")
        # the largest h with q_bound(h, k) = (2^(h+1) - 2)(2k-3) <= most
        h_max = (most // (2 * k - 3) + 2).bit_length() - 2
        if h > h_max:
            raise ValueError(f"h must be at most {h_max} when k={k}")
    q = q_bound(h, k)
    s_vars = [f"S{i}" for i in range(1, l + 1)]
    return {
        "k-1": k - 1,
        "2k-3": 2 * k - 3,
        "2^h": 2**h,
        "q": q,
        "q+1": q + 1,
        "r": r_bound(h, k),
        "m": "inf" if m == INF else m,
        "S_quants": ", ".join(f"{s}:REFL" for s in s_vars),
        "S_chain": " ; ".join(s_vars),
        "lam": " ; ".join(f"tol(R) & {s}" for s in s_vars),
    }


def catalog(k: int = 2, h: int = 1, m=2, l: int = 2):
    """Every built-in identity, fully instantiated for the given parameters.

    k >= 2 sizes the directed Gumm system, h >= 1 the doubling exponent,
    m >= 2 (or INF) the alternation length, l >= 1 the S-chain length.
    Labels follow the source tags.
    """
    fields = _fields(k, h, m, l)
    return [(label, parse_identity(text.format_map(fields))) for label, text in _CATALOG.items()]


def catalog_labels():
    return list(_CATALOG)


def catalog_entry(label: str, k: int = 2, h: int = 1, m=2, l: int = 2) -> IdentityStatement:
    fields = _fields(k, h, m, l)
    if label not in _CATALOG:
        raise KeyError(f"unknown identity label {label!r}")
    return parse_identity(_CATALOG[label].format_map(fields))
