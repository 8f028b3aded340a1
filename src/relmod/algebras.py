"""Finite algebras given by operation tables, term evaluation, and subpower
closure with term provenance.

Elements are the integers 0..n-1.  Argument tuples are encoded mixed-radix
with the first argument most significant, both in operation tables and in
the vectors of induced term functions.

Subpower closure and term tables keep vectors byte-packed, one byte per
coordinate, and apply an operation to whole vectors at once: the argument
vectors are folded into one int whose bytes are the coordinates' argument
codes, and one bytes.translate through the padded table gives the result.
Operations with more than 256 argument codes, and universes of more than
256 elements, are applied one coordinate at a time.
"""

from __future__ import annotations

import json
from itertools import product
from operator import attrgetter

DEFAULT_CAP = 1 << 20

VAR_NAMES = ("x", "y", "z", "w")


class AlgebraError(ValueError):
    """Malformed algebra description."""


class TermError(ValueError):
    """Term does not fit the algebra (unknown symbol, arity, variable)."""


class CapExceeded(RuntimeError):
    def __init__(self, kind: str, limit: int, reached: int):
        super().__init__(f"{kind} cap exceeded: reached {reached}, limit {limit}")
        self.kind = kind
        self.limit = limit
        self.reached = reached


_set = object.__setattr__


class Record:
    """Base of relmod's immutable value classes.

    A subclass names its fields in ``__slots__``; they follow its bases'
    fields.  An instance is built from its fields by position or keyword,
    equals another of the same class with equal fields, hashes by its class
    and fields, prints as ``Name(field=value, ...)`` and refuses assignment.
    A subclass may map fields to the values a call that omits them gets in
    ``_defaults``.  The methods are written out once here, so defining a
    subclass compiles and generates no code at import.  Only `Apply`
    writes its own constructor, two plain stores, since term search builds
    one Apply per element it discovers.
    """

    __slots__ = ()
    _fields = ()
    _defaults = {}  # field -> its value when a call omits it

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields += cls.__dict__.get("__slots__", ())
        # the fields' values: a tuple for two or more, the value for one
        cls._key = staticmethod(attrgetter(*cls._fields) if cls._fields else lambda _: ())

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} arguments, got {len(args)}")
        for field, value in zip(fields, args):
            _set(self, field, value)
        for field in fields[len(args):]:
            if field in kwargs:
                _set(self, field, kwargs.pop(field))
            elif field in self._defaults:
                _set(self, field, self._defaults[field])
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got an unexpected argument {next(iter(kwargs))!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.__class__, self._key(self)))

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r}")


class Operation(Record):
    # table: flat, row-major, first argument most significant
    __slots__ = ("symbol", "arity", "table")


class FiniteAlgebra:
    """Universe {0..n-1} plus finitary operations given by flat tables."""

    def __init__(self, name, size, operations):
        if not isinstance(name, str):
            raise AlgebraError(f"name must be a string, got {name!r}")
        if not _is_int(size) or size < 1:
            raise AlgebraError(f"size must be a positive integer, got {size!r}")
        ops = []
        seen = set()
        for entry in operations:
            op = entry if isinstance(entry, Operation) else Operation(entry[0], entry[1], tuple(entry[2]))
            if not isinstance(op.symbol, str) or not op.symbol:
                raise AlgebraError(f"bad operation symbol {op.symbol!r}")
            if op.symbol in seen:
                raise AlgebraError(f"duplicate symbol {op.symbol!r}")
            seen.add(op.symbol)
            if not _is_int(op.arity) or op.arity < 0:
                raise AlgebraError(f"bad arity for {op.symbol!r}: {op.arity!r}")
            want = size ** op.arity
            if len(op.table) != want:
                raise AlgebraError(
                    f"table length mismatch for {op.symbol!r}: got {len(op.table)}, want {want}"
                )
            for v in op.table:
                if not _is_int(v) or not 0 <= v < size:
                    raise AlgebraError(f"table entry out of range for {op.symbol!r}: {v!r}")
            ops.append(op)
        self.name = name
        self.size = size
        self.operations = tuple(ops)
        self._by_symbol = {op.symbol: op for op in ops}
        # lazily filled by the relations module
        # a closure kernel's packed input -> its closed relation, bounded;
        # refl_adm_closure is its only reader and writer
        self._closures = {}
        # pair-closure image tables, built on first use: at most 32 ints,
        # each an n-bit mask, per entry of each operation table, and at most
        # relations._IMAGE_TABLE_CAP in all, else none is built; beside
        # each table a memo from the argument row masks, packed n bits
        # apart, to their image, which depends on that key alone; at most
        # relations._CLOSURE_CACHE_CAP images per operation, emptied when full
        self._image_tables = None
        # the principal closures, kept only by algebras of at most 8
        # elements: for each row a, (a*n, memo), where memo[1 << b] is the
        # slot of pair (a, b), its packed closure, filled the first time a
        # closure needs it, and memo[m] for a wider off-diagonal row mask m
        # is the union of the slots over the bits of m, kept by the closure
        # that first reads row a at m, so at most n * 2^(n-1) entries
        self._principal_rows = None
        self._lattices = {}  # RelKind -> RelLattice
        # (path condition, terms) -> the full term tables of a chain that
        # passed its laws here, or None for one that failed them; filled by
        # the maltsev verifier and read by the witness replays, bounded
        self._chains = {}

    def operation(self, symbol: str) -> Operation:
        op = self._by_symbol.get(symbol)
        if op is None:
            raise TermError(f"unknown symbol {symbol!r}")
        return op

    def __repr__(self):
        return f"FiniteAlgebra({self.name!r}, n={self.size}, ops={[o.symbol for o in self.operations]})"


def _put(cache, cap, key, value):
    """Store value under key in a cache of at most cap entries, emptying a
    full one first so that it refills; return value."""
    if len(cache) >= cap:
        cache.clear()
    cache[key] = value
    return value


def _is_int(value):
    """An int that is not a bool: bool is an int subclass, so JSON true and
    false would otherwise pass as 1 and 0."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_cap(cap):
    """Refuse a cap that is not a positive int."""
    if not _is_int(cap) or cap < 1:
        raise ValueError(f"cap must be a positive integer, got {cap!r}")


def load_algebra(text: str) -> FiniteAlgebra:
    """Parse the JSON algebra file format and validate every invariant."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise AlgebraError(f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(data, dict):
        raise AlgebraError("top level must be an object")
    for key in ("name", "size", "operations"):
        if key not in data:
            raise AlgebraError(f"missing key {key!r}")
    if not isinstance(data["operations"], list):
        raise AlgebraError("'operations' must be a list")
    ops = []
    for entry in data["operations"]:
        if not isinstance(entry, dict):
            raise AlgebraError("each operation must be an object")
        for key in ("symbol", "arity", "table"):
            if key not in entry:
                raise AlgebraError(f"operation missing key {key!r}")
        if not isinstance(entry["table"], list):
            raise AlgebraError(f"table of {entry['symbol']!r} must be a list")
        ops.append((entry["symbol"], entry["arity"], entry["table"]))
    return FiniteAlgebra(data["name"], data["size"], ops)


def dump_algebra(alg: FiniteAlgebra) -> str:
    """Canonical file-format text for an algebra (inverse of load_algebra)."""
    return json.dumps(
        {
            "name": alg.name,
            "size": alg.size,
            "operations": [
                {"symbol": op.symbol, "arity": op.arity, "table": list(op.table)}
                for op in alg.operations
            ],
        },
        indent=2,
    )


class Variable(Record):
    __slots__ = ("index",)


class Apply(Record):
    __slots__ = ("symbol", "children")

    # term search builds one Apply per element it discovers
    def __init__(self, symbol, children):
        _set(self, "symbol", symbol)
        _set(self, "children", children)


Term = Variable | Apply


def format_term(t: Term) -> str:
    """Fully parenthesized prefix text; variables 0..3 print as x,y,z,w."""
    if isinstance(t, Variable):
        if t.index < 0:
            raise TermError(f"negative variable index {t.index}")
        return VAR_NAMES[t.index] if t.index < len(VAR_NAMES) else f"v{t.index}"
    if not t.children:
        return t.symbol
    return t.symbol + "(" + ",".join(format_term(c) for c in t.children) + ")"


def _operation_of(alg: FiniteAlgebra, t: Apply) -> Operation:
    """The operation t applies, once t is checked to have its arity."""
    op = alg.operation(t.symbol)
    if len(t.children) != op.arity:
        raise TermError(
            f"arity mismatch for {t.symbol!r}: got {len(t.children)} arguments, want {op.arity}"
        )
    return op


def eval_term(alg: FiniteAlgebra, t: Term, env) -> int:
    """Value of t under env, computed bottom-up from the tables."""
    if isinstance(t, Variable):
        if not 0 <= t.index < len(env):
            raise TermError(f"variable index {t.index} out of range for env of length {len(env)}")
        return env[t.index]
    op = _operation_of(alg, t)
    idx = 0
    for child in t.children:
        idx = idx * alg.size + eval_term(alg, child, env)
    return op.table[idx]


class FreeElement:
    """A g-ary term function, stored as its value vector plus a witnessing term.

    Equality and hashing are on the vector; the term records how the element
    was first derived from the generators.  The vector reads as a tuple; one
    given as bytes, as closures and term tables make them, is kept packed
    until it is first read.
    """

    __slots__ = ("_vector", "term")

    def __init__(self, vector, term):
        self._vector = vector if type(vector) is bytes else tuple(vector)
        self.term = term

    @property
    def vector(self):
        if type(self._vector) is bytes:
            self._vector = tuple(self._vector)
        return self._vector

    def __eq__(self, other):
        return isinstance(other, FreeElement) and self.vector == other.vector

    def __hash__(self):
        return hash(self.vector)

    def __repr__(self):
        return f"FreeElement({format_term(self.term)})"


def _translation(op: Operation, n: int):
    """op's table padded to a 256-byte bytes.translate table, or None when
    an argument code can exceed a byte (n**arity > 256)."""
    if n > 256 or n ** op.arity > 256:
        return None
    return bytes(op.table).ljust(256, b"\0")


def _apply(op: Operation, n: int, width: int, args, tab):
    """op applied coordinatewise to the width-vectors args, all bytes (n <=
    256) or all tuples; tab is _translation(op, n).

    With a table the arguments are packed into one int, one byte per
    coordinate with the first argument most significant, so each byte of
    (U*n + V)*n + W is the coordinate's argument code and one translate
    reads the whole result.  No byte carries: every code is below
    n**arity <= 256.  Otherwise the codes are built one coordinate at a
    time.
    """
    if tab is not None:
        code = 0
        for a in args:
            code = code * n + int.from_bytes(a, "big")
        return code.to_bytes(width, "big").translate(tab)
    table = op.table
    out = []
    for column in zip(*args) if args else [()] * width:
        code = 0
        for x in column:
            code = code * n + x
        out.append(table[code])
    return bytes(out) if n <= 256 else tuple(out)


def term_table(alg: FiniteAlgebra, t: Term, g: int, cap: int = DEFAULT_CAP) -> FreeElement:
    """Tabulate t over all argument tuples in mixed-radix order.

    The term is evaluated bottom-up on whole vectors, from the projections,
    with each shared subterm evaluated once; errors are eval_term's.
    """
    _check_cap(cap)
    n = alg.size
    width = n ** g
    if width > cap:
        raise CapExceeded("vector-length", cap, width)
    memo = {}  # id of a subterm of t -> its vector

    def value(s):
        vec = memo.get(id(s))
        if vec is None:
            if isinstance(s, Variable):
                if not 0 <= s.index < g:
                    raise TermError(f"variable index {s.index} out of range for env of length {g}")
                vec = projection(n, g, s.index).vector
                vec = bytes(vec) if n <= 256 else vec
            else:
                op = _operation_of(alg, s)
                vec = _apply(op, n, width, [value(c) for c in s.children], _translation(op, n))
            memo[id(s)] = vec
        return vec

    return FreeElement(value(t), t)


def generate_subuniverse(alg: FiniteAlgebra, width: int, generators, cap: int = DEFAULT_CAP, *, stop=None):
    """Least set of width-vectors containing the generators and closed under
    every operation applied coordinatewise.

    Returns the elements in deterministic breadth-first discovery order;
    each carries the first (shortest-discovered) term over the generators
    that produces it, with Variable(i) naming generator i.

    stop, when given, is called after every round that adds elements, with
    the vectors closed so far in discovery order (bytes, or tuples when
    n > 256), which it must not change.  When it returns true, the elements
    closed so far are returned: a prefix of the full closure, with the same
    order and terms, since each round adds exactly the elements one level
    deeper.

    Vectors are kept as bytes (tuples when n > 256) beside their big-endian
    ints, and an operation with n**arity <= 256 is applied to whole vectors
    at once, as in _apply.

    A commutative binary operation is applied once per unordered pair: a
    round applies it to (a, b) with a in the frontier and b older or in the
    frontier at or after a, and skips the rest.  The swap of each skipped
    pair was applied earlier in the same round, since the pass with the
    head in the frontier runs first and takes its heads in order.  So the
    skipped values are already seen, and the order, the terms, the
    prefixes passed to stop and the point where the cap is hit are those
    of applying the operation to every pair.

    cap, a positive int, bounds the number of elements, generators
    included.
    """
    _check_cap(cap)
    n = alg.size
    vecs, ints, terms = [], [], []
    seen = set()

    def add(vec, term):
        if len(vecs) >= cap:
            raise CapExceeded("closure-size", cap, len(vecs) + 1)
        seen.add(vec)
        vecs.append(vec)
        ints.append(int.from_bytes(vec, "big") if n <= 256 else None)
        terms.append(term)

    for i, gen in enumerate(generators):
        vec = tuple(gen.vector)
        if len(vec) != width:
            raise ValueError(f"generator {i} has width {len(vec)}, want {width}")
        for v in vec:
            if not 0 <= v < n:
                raise ValueError(f"generator {i} has entry {v} outside 0..{n - 1}")
        vec = bytes(vec) if n <= 256 else vec
        if vec not in seen:
            add(vec, Variable(i))

    # each operation with its translate table, and whether it is binary and
    # commutative: row a of its table equals column a
    plans = [
        (op, _translation(op, n), op.arity == 2 and all(op.table[a * n : a * n + n] == op.table[a::n] for a in range(n)))
        for op in alg.operations
    ]
    frontier_start = 0
    first_round = True
    while True:
        round_len = len(vecs)
        for op, tab, commutative in plans:
            ar = op.arity
            if ar == 0:
                out = _apply(op, n, width, [], tab)
                if first_round and out not in seen:
                    add(out, Apply(op.symbol, ()))
                continue
            # tuples over the pre-round elements with >=1 coordinate in the
            # frontier, in product order: each head of ar-1 arguments, then
            # every last argument.  A commutative operation runs only the
            # frontier-head pass and skips each frontier last below its head
            for r in range(1 if commutative else ar):
                *pools, last = (
                    [range(frontier_start)] * r
                    + [range(frontier_start, round_len)]
                    + [range(round_len)] * (ar - 1 - r)
                )
                for head in product(*pools):
                    if commutative:
                        last = [*range(frontier_start), *range(head[0], round_len)]
                    if tab is None:
                        args = [vecs[i] for i in head]
                        outs = [_apply(op, n, width, args + [vecs[j]], None) for j in last]
                    else:
                        # _apply, with the head folded once for every last argument
                        acc = 0
                        for i in head:
                            acc = (acc + ints[i]) * n
                        if commutative:
                            us = ints[:frontier_start] + ints[head[0] : round_len]
                        else:
                            us = ints[last.start : last.stop]
                        outs = [(acc + u).to_bytes(width, "big").translate(tab) for u in us]
                    if seen.issuperset(outs):  # most batches add nothing
                        continue
                    for j, out in zip(last, outs):
                        if out not in seen:
                            add(out, Apply(op.symbol, tuple(terms[i] for i in head) + (terms[j],)))
        first_round = False
        if len(vecs) == round_len or (stop is not None and stop(vecs)):
            return [FreeElement(vec, term) for vec, term in zip(vecs, terms)]
        frontier_start = round_len


def projection(n: int, g: int, i: int) -> FreeElement:
    """The i-th of the g projections on an n-element universe."""
    if not 0 <= i < g:
        raise TermError(f"variable index {i} out of range for env of length {g}")
    stride = n ** (g - 1 - i)
    vec = tuple((code // stride) % n for code in range(n ** g))
    return FreeElement(vec, Variable(i))


def free_algebra(alg: FiniteAlgebra, g: int, cap: int = DEFAULT_CAP):
    """All g-ary term functions of alg: the subalgebra of A^(A^g) generated
    by the projections."""
    if not _is_int(g) or g < 0:
        raise ValueError(f"g must be a non-negative integer, got {g!r}")
    _check_cap(cap)
    width = alg.size ** g
    if width > cap:
        raise CapExceeded("vector-length", cap, width)
    gens = [projection(alg.size, g, i) for i in range(g)]
    return generate_subuniverse(alg, width, gens, cap)
