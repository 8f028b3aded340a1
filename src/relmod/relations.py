"""Binary relations over a finite algebra's universe.

Every operator the identity checker evaluates, and the enumeration of the
relation lattices (REFL, TOL, CON) of a small algebra.

A relation is held as one n^2-bit int, ``BinRel.bits``, with pair (a, b)
at bit a*n + b, so row a is bits a*n .. a*n+n-1.  Union, intersection,
inclusion, equality and the hash are one int operation each.  Every other
operator is one kernel over such ints, named after its public function
with a leading underscore: ``_compose(n, r, s)``, ``_converse``,
``_m_compose`` (``power`` is ``m_compose`` of r with itself), ``_star``,
``_plus``, and the closures ``_refl_adm_closure(alg, r)``,
``_tolerance_of`` and ``_congruence_generated``.  Each public function is
a one-line wrapper that checks sizes and wraps the kernel's int in a
``BinRel``.  The identity checks and the lattice enumeration call the
kernels on ints; the witness replays call the wrappers.

``_compose``, ``_star``, ``_m_compose`` and ``_plus`` take ``width``, a
number of relations packed n^2 bits apart, member i at bits i*n^2 ..; they
handle them all in one call, and width 1 is one relation.  A member past
the last one packed is empty and stays so.  An exhaustive check calls them
once per block of its innermost lattice; the other operators run once per
member.  With ``ones``, the int with the low bit of every row of every
member set, ``r >> b & ones`` is column b of each member moved to the low
bit of each row, and multiplying it by ``full``, one n-bit row of ones,
fills every row that has bit b.  With ``row0``, row 0 of every member,
``s >> b*n & row0`` is row b of each member moved to its row 0, and
multiplying it by ``one``, the low bit of every row of one member, copies
it into each of that member's rows.  Neither multiply carries from one row
or member into the next.  So ``_compose`` is n steps of
``out |= (r >> b & ones) * full & (s >> b*n & row0) * one`` (every row of
r with bit b takes in row b of s), and the Warshall pass of ``_star`` is n
such steps of r with itself, for each pivot k in turn.

Every closure comes from one kernel function, ``_pair_closure``, which
takes a packed relation and returns, packed, the subuniverse of A x A
that it generates, growing a whole row at a time through per-operation
image tables.  Each operation also keeps a memo of images: its key is the
argument rows' masks m1..mk packed n bits apart, its value the image of
m1 x ... x mk, which depends on the key alone, so every later kernel call
on the algebra reads it.  The memo holds at most ``_CLOSURE_CACHE_CAP``
images and is emptied when full.  ``is_admissible`` asks that the kernel
return r unchanged, which on an admissible r takes one round.

A reflexive-admissible closure is the join of the principal closures of
its pairs, so ``_refl_adm_closure`` starts the kernel from the seed, the
union of the closures cl({(a,b)} | delta) of r's off-diagonal pairs, and
a seed that is already nabla needs no kernel round at all.  An algebra of
at most ``_PRINCIPAL_TABLE_MAX_N`` elements keeps them in one memo per
row: row a's memo at an off-diagonal row mask m holds the union of the
closures of the pairs (a, b) over the bits b of m, so at the one-bit mask
1 << b it is the slot of (a, b), the closure of that pair.  A closure
fills each empty slot its rows need and keeps each row it computes, so a
slot runs the kernel once per algebra and a seed is at most n lookups
and ORs.  Larger algebras close r itself.  The kernel's result is cached
under its input, r | delta with the seed, not under r: random relations
seldom repeat, but their seeds are unions of a few closed relations and
do.  That cache of ints is the one memo of kernel results;
``_refl_adm_closure`` alone reads and fills it.  The other sorts are
closed forms over it:

    tol(r) = cl(r | r^-1)
    Cg(r)  = star(tol(r))

since the transitive closure of a tolerance is a congruence (its powers
are reflexive, admissible and symmetric) and every congruence holding r
holds tol(r).  Every closure, through a wrapper or a kernel, goes through
these three kernels.

``_plus(r, s)``, the union over all m of r o_m s, which ``r ;^inf s`` also
means, is ``star(r | s)`` when r and s are both reflexive.  Every relation
an identity check evaluates is: every quantifier sort (REFL, TOL, CON) is,
so are delta and nabla, and every operator here keeps reflexivity.  So
``identities.lower`` may bound each right side from below by a union of
its operands, and a check compiles each tree of ``+``, ``;^inf`` and
``star`` as one ``_star`` of the union of its leaves, one Warshall pass:
``star(star(a) | b)`` is ``star(a | b)``.  Checks never call ``_plus``;
``eval_expr`` and the wrappers do, on relations that need not be
reflexive.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import product

from .algebras import CapExceeded, DEFAULT_CAP, FiniteAlgebra, Record, _check_cap, _is_int, _put

INF = float("inf")


class BinRel:
    """n x n boolean matrix packed into one n^2-bit int, ``bits``: pair
    (a, b) is bit a*n + b, so row a is bits a*n .. a*n+n-1.

    Immutable by convention; hashable, so relations can key caches.
    ``rows`` unpacks the n row bitmasks.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n, rows):
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} rows for n={n}, got {len(rows)}")
        for a, m in enumerate(rows):
            if not 0 <= m < 1 << n:
                raise ValueError(f"row {a} = {m} out of range for n={n}: it must be in 0..{(1 << n) - 1}")
        self.n = n
        self.bits = _pack(n, rows)

    @classmethod
    def _of(cls, n, bits):
        """The relation whose packed bits are ``bits``, already valid for n."""
        r = object.__new__(cls)
        r.n = n
        r.bits = bits
        return r

    @staticmethod
    def from_pairs(n, pairs):
        bits = 0
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"pair ({a},{b}) out of range for n={n}")
            bits |= 1 << a * n + b
        return BinRel._of(n, bits)

    @property
    def rows(self):
        full = (1 << self.n) - 1
        return tuple(self.bits >> a & full for a in range(0, self.n * self.n, self.n))

    def has(self, a, b):
        n = self.n
        return 0 <= a < n and 0 <= b < n and self.bits >> a * n + b & 1 == 1

    def pairs(self):
        n, bits = self.n, self.bits
        return [divmod(i, n) for i in range(n * n) if bits >> i & 1]

    def flat_bits(self):
        """Row-major 0/1 tuple; the canonical sort key for relation lattices."""
        return tuple(self.bits >> i & 1 for i in range(self.n * self.n))

    def issubset(self, other):
        _size(self, other)
        return self.bits & ~other.bits == 0

    def __eq__(self, other):
        return isinstance(other, BinRel) and self.n == other.n and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        return f"BinRel({self.n}, {format_rel_literal(self)!r})"


def _size(r: BinRel, s: BinRel):
    """The size of r, which s must share."""
    if r.n != s.n:
        raise ValueError(f"relation size mismatch: {r.n} vs {s.n}")
    return r.n


def _on(alg: FiniteAlgebra, r: BinRel):
    """The bits of r, which must be a relation on alg's universe."""
    if r.n != alg.size:
        raise ValueError(f"relation size {r.n} does not match algebra size {alg.size}")
    return r.bits


def _pack(n, rows):
    """The n row bitmasks ``rows`` as one n^2-bit int, row a at bits a*n.."""
    return sum(m << a * n for a, m in enumerate(rows))


@lru_cache(maxsize=256)
def _masks(n, width=1):
    """(full, one, ones, row0, diag) for `width` relations of size n packed
    n^2 bits apart: one full n-bit row, the low bit of every row of one
    relation, then the low bit of every row, row 0 and the diagonal of
    every member, as packed ints."""
    full = (1 << n) - 1
    one = _pack(n, [1] * n)
    every = sum(1 << i for i in range(0, width * n * n, n * n))
    return full, one, one * every, full * every, _pack(n, [1 << a for a in range(n)]) * every


def _delta(n):
    return _masks(n)[4]


def _nabla(n):
    return (1 << n * n) - 1


def delta(n: int) -> BinRel:
    return BinRel._of(n, _delta(n))


def nabla(n: int) -> BinRel:
    return BinRel._of(n, _nabla(n))


def _compose(n, r, s, width=1):
    """a (r o s) c iff there is b with a r b and b s c: for each b, every
    row of r with bit b set takes in row b of s, in every member at once."""
    full, one, ones, row0, _ = _masks(n, width)
    out = 0
    for b in range(n):
        column = r >> b & ones
        if column:
            out |= column * full & (s >> b * n & row0) * one
    return out


def compose(r: BinRel, s: BinRel) -> BinRel:
    return BinRel._of(r.n, _compose(_size(r, s), r.bits, s.bits))


def _converse(n, r):
    """b r^-1 a iff a r b: each row is cut into chunks of 8, and a chunk at
    column lo of row a goes to bit lo*n + a of the result spread to stride
    n, read from the byte table of ``_spread``: n * ceil(n/8) lookups."""
    spread = _spread(n)
    out = 0
    for lo in range(0, n, 8):
        chunk = (1 << min(8, n - lo)) - 1
        for a in range(n):
            out |= spread[r >> a * n + lo & chunk] << lo * n + a
    return out


def converse(r: BinRel) -> BinRel:
    return BinRel._of(r.n, _converse(r.n, r.bits))


@lru_cache(maxsize=64)
def _spread(n):
    """For each byte value v (each value below 2**n when n < 8), the int
    with bit j*n set for each bit j of v: a row chunk laid down a column."""
    table = [0]
    for j in range(min(8, n)):
        bit = 1 << j * n
        table += [t | bit for t in table]
    return table


def intersect(r: BinRel, s: BinRel) -> BinRel:
    return BinRel._of(_size(r, s), r.bits & s.bits)


def union(r: BinRel, s: BinRel) -> BinRel:
    return BinRel._of(_size(r, s), r.bits | s.bits)


def _m_compose(n, r, s, m, width=1):
    """r o s o r o ... with m alternating factors (m-1 composition signs):
    (r;s)^(m//2), then ; r when m is odd; ``_plus`` when m is INF.  The
    power is taken by square-and-multiply, so m costs O(log m)
    compositions; powers of r;s commute, so each factor is put in front of
    the ones already taken."""
    if m == INF:
        return _plus(n, r, s, width)
    if not _is_int(m) or m < 1:
        raise ValueError(f"m must be an integer >= 1 or INF, got {m!r}")
    out = r if m % 2 else None
    k = m // 2
    base = _compose(n, r, s, width) if k else None
    while k:
        if k & 1:
            out = base if out is None else _compose(n, base, out, width)
        k >>= 1
        if k:
            base = _compose(n, base, base, width)
    return out


def m_compose(r: BinRel, s: BinRel, m: int) -> BinRel:
    return BinRel._of(r.n, _m_compose(_size(r, s), r.bits, s.bits, m))


def power(r: BinRel, h: int) -> BinRel:
    """h-fold composition of r with itself."""
    if not _is_int(h) or h < 1:
        raise ValueError(f"h must be an integer >= 1, got {h!r}")
    return m_compose(r, r, h)


def _star(n, r, width=1):
    """Transitive closure, by Warshall: for each pivot k in turn, every row
    with bit k set takes in row k as it stands after the earlier pivots,
    all rows of every member at once by the step of ``_compose``.  Row k
    itself only takes in row k, so reading it before the step is the same
    as after."""
    full, one, ones, row0, _ = _masks(n, width)
    for k in range(n):
        r |= (r >> k & ones) * full & (r >> k * n & row0) * one
    return r


def star(r: BinRel) -> BinRel:
    return BinRel._of(r.n, _star(r.n, r.bits))


def _plus(n, r, s, width=1):
    """Union over all m >= 1 of r o_m s, in closed form.

    When r and s are both reflexive, r o_m s only grows with m, and a word
    of length L over {r, s} lies inside r o_2L s, so the union is
    star(r | s).  Otherwise r o_2j s = (r;s)^j and r o_2j+1 s = (r;s)^j ; r,
    so the union is r | P | P ; r with P = star(r ; s).  The second form
    holds for every r and s, so it is taken unless every member of both is
    reflexive.
    """
    diag = _masks(n, width)[4]
    if r & s & diag == diag:
        return _star(n, r | s, width)
    p = _star(n, _compose(n, r, s, width), width)
    return r | p | _compose(n, p, r, width)


def plus(r: BinRel, s: BinRel) -> BinRel:
    return BinRel._of(r.n, _plus(_size(r, s), r.bits, s.bits))


def is_reflexive(r: BinRel) -> bool:
    diag = _delta(r.n)
    return r.bits & diag == diag


def is_symmetric(r: BinRel) -> bool:
    return r.bits == _converse(r.n, r.bits)


def is_transitive(r: BinRel) -> bool:
    return _compose(r.n, r.bits, r.bits) & ~r.bits == 0


def is_admissible(alg: FiniteAlgebra, r: BinRel) -> bool:
    """True iff r is closed under every operation applied componentwise,
    i.e. r is a subuniverse of A x A: the pair-closure kernel returns r
    unchanged, after one round that grows no row (none on nabla)."""
    bits = _on(alg, r)
    return _pair_closure(alg, bits) == bits


def is_tolerance(alg: FiniteAlgebra, r: BinRel) -> bool:
    return is_reflexive(r) and is_symmetric(r) and is_admissible(alg, r)


def is_congruence(alg: FiniteAlgebra, r: BinRel) -> bool:
    return is_tolerance(alg, r) and is_transitive(r)


# The most entries the image tables of one algebra may hold, about 32 per
# entry of its operation tables.  It admits the 99-element F_V(3) of n5
# (0.61 M entries) and the 166-element F_V(4) of l2 (1.72 M); the
# 972-element F_V(2) of s3 would need 30.2 M, which took 8 s and about
# 4 GB to build (2-core x86-64 VM, Python 3.11).
_IMAGE_TABLE_CAP = 1 << 22


def _image_stride(n):
    """The image-table entries per code of an operation's first arity-1
    arguments: 2**w for each chunk of w <= 8 last-argument values."""
    return sum(1 << min(8, n - lo) for lo in range(0, n, 8))


def _image_tables(alg: FiniteAlgebra):
    """(arity, table, img, memo) for each operation of positive arity,
    built on first use and kept on the algebra.

    The last argument's values are cut into chunks of 8 (one chunk when
    n <= 8).  For each code p of the first arity-1 arguments, img holds
    one block per chunk with the image of every subset of that chunk:
    img[p*stride + 32*lo + m] is the bitmask of the values
    table[p*n + lo + j] over the bits j of m, for the chunk whose first
    value is lo.  A chunk of w values takes 2**w <= 32*w entries, so img
    has at most 32 entries per entry of the operation table.

    memo maps row masks m1..mk, packed n bits apart with m1 highest, to
    the image of m1 x ... x mk under the operation.  The image depends on
    the key alone, so the memo outlives every kernel call; it holds at
    most ``_CLOSURE_CACHE_CAP`` images and is emptied by ``_put`` when
    full, so it refills.

    Raises CapExceeded, before building anything, when the tables would
    hold more than ``_IMAGE_TABLE_CAP`` entries in all.
    """
    tables = alg._image_tables
    if tables is None:
        n = alg.size
        size = sum(n ** (op.arity - 1) * _image_stride(n) for op in alg.operations if op.arity)
        if size > _IMAGE_TABLE_CAP:
            raise CapExceeded("image-table", _IMAGE_TABLE_CAP, size)
        tables = []
        for op in alg.operations:
            if op.arity == 0:
                continue
            img = []
            for base in range(0, len(op.table), n):
                for lo in range(base, base + n, 8):
                    block = [0]
                    for v in op.table[lo : min(lo + 8, base + n)]:
                        bit = 1 << v
                        block += [m | bit for m in block]
                    img += block
            tables.append((op.arity, op.table, img, {}))
        alg._image_tables = tables
    return tables


def _pair_closure(alg: FiniteAlgebra, bits):
    """The packed relation ``bits`` closed under the operations applied
    componentwise: the subuniverse of A x A that it generates, packed.

    The kernel unpacks the relation into a list of row bitmasks.  A nullary
    c adds (c, c) once.  An operation f of arity k, applied to first
    coordinates a1..ak whose rows are non-empty, adds to row f(a1..ak) the
    image of rows[a1] x ... x rows[ak], looked up in f's memo under the k
    masks packed n bits apart: hkey packs the head a1..a(k-1), and the key
    is hkey | rows[ak].  On a miss the image is the OR, over every prefix
    b1..b(k-1) drawn from the head's masks, of the image-table entries for
    the chunks of rows[ak]; the prefixes are listed once per head, on its
    first miss, from the masks in hkey, since rows grow in place during a
    round and a grown row would not match the key.  Each round applies
    every operation to every such tuple, so later tuples read the grown
    rows.  A tuple whose target row is full is skipped before its image is
    looked up, since a full row cannot grow.  The closure is reached when
    a round grows no row, or at once when every row is full, even in the
    middle of a round: nabla is closed.
    """
    n = alg.size
    full = (1 << n) - 1
    rows = [bits >> a & full for a in range(0, n * n, n)]
    for op in alg.operations:
        if op.arity == 0:
            c = op.table[0]
            rows[c] |= 1 << c
    tables = _image_tables(alg)
    lows = range(0, n, 8)
    stride = _image_stride(n)
    grew = rows.count(full) < n
    while grew:
        grew = False
        live = [a for a in range(n) if rows[a]]
        for arity, tab, img, memo in tables:
            get = memo.get
            for head in product(live, repeat=arity - 1):
                code = hkey = 0
                for a in head:
                    code = code * n + a
                    hkey = (hkey | rows[a]) << n
                code *= n
                prefix = None
                for a in live:
                    t = tab[code + a]
                    if rows[t] == full:
                        continue
                    m = rows[a]
                    key = hkey | m
                    image = get(key)
                    if image is None:
                        if prefix is None:
                            prefix = [0]
                            for shift in range((arity - 1) * n, 0, -n):
                                h = hkey >> shift & full
                                prefix = [x * n + b * stride for x in prefix for b in range(n) if h >> b & 1]
                        image = 0
                        for lo in lows:
                            k = m >> lo & 255
                            if k:
                                k += 32 * lo
                                for o in prefix:
                                    image |= img[o + k]
                        _put(memo, _CLOSURE_CACHE_CAP, key, image)
                    if image & ~rows[t]:
                        rows[t] |= image
                        grew = True
                        if rows[t] == full and rows.count(full) == n:
                            return _nabla(n)
    return _pack(n, rows)


# The most kernel results one algebra keeps cached.  A full cache is
# emptied and refills, so random relations drawn by sampled checks cannot
# grow it without bound.
_CLOSURE_CACHE_CAP = 1 << 16

# The largest algebra that keeps the principal closures, each the one-bit
# slot of its row's memo (n^2 slots of n^2 bits, and at most n * 2^(n-1)
# unions of them).  A slot costs one kernel run, which on a larger algebra
# can cost more than the closures it saves.  Closing 10, 100 and 1000
# seeded random draws, dense rows and 1-3 pairs apart, on a fresh F_V(3)
# with the image memos took this long closing r itself over the time
# through the row memos (2-core VM, Python 3.11, medians of 7 seeds):
# 0.23-0.68, 0.78-1.00 and 1.09-1.37 on n = 7 (sl2, sl3); 0.13-0.62,
# 0.55-1.07 and 3.0-3.5 on n = 8 (z2, z2xz2); 0.03-0.23, 0.18-0.48 and
# 0.93-1.26 on l2's, of 18 elements.  So the table pays only from about
# 1000 draws, which a sampled check of 1000 samples reaches at n <= 8.
# On m3's, of 28 elements, the row memos would not fit (28 lists of 2^28).
_PRINCIPAL_TABLE_MAX_N = 8


def _refl_adm_closure(alg: FiniteAlgebra, bits):
    """Least reflexive admissible relation containing the packed relation
    bits, through the row memos and the closure cache of the module
    docstring.  The seed is built a row at a time: a row mask missing from
    its row's memo is the OR of its slots, each empty one filled on the
    way, and is kept; a seed that is nabla after a row is returned.  So
    all closures on one algebra run at most n(n-1) principal kernels
    between them, and each call runs the kernel at most once more, on
    bits | delta | seed, looked up in the cache first.  bits | delta is
    looked up before all of it: a union of closed relations, which the
    lattice enumeration closes, is its own input."""
    n = alg.size
    diag = _delta(n)
    bits |= diag
    cache = alg._closures
    closed = cache.get(bits)
    if closed is None and n <= _PRINCIPAL_TABLE_MAX_N:
        rows = alg._principal_rows
        if rows is None:
            # row a's first bit, and its memo: an empty mask adds nothing, and
            # a mask never has the row's own bit
            rows = alg._principal_rows = [(a * n, [0] + [None] * ((1 << n) - 1)) for a in range(n)]
        every = _nabla(n)
        full = (1 << n) - 1
        off = bits ^ diag
        seed = 0
        for i, memo in rows:
            m = off >> i & full
            row = memo[m]
            if row is None:
                row = 0
                for b in range(n):
                    if m >> b & 1:
                        slot = memo[1 << b]
                        if slot is None:
                            slot = memo[1 << b] = _pair_closure(alg, diag | 1 << i + b)
                        row |= slot
                memo[m] = row
            seed |= row
            if seed == every:
                return every
        bits |= seed
        if not off & off - 1:
            # delta, or the slot of the one pair: closed already
            return bits
        closed = cache.get(bits)
    if closed is None:
        closed = _put(cache, _CLOSURE_CACHE_CAP, bits, _pair_closure(alg, bits))
    return closed


def _tolerance_of(alg: FiniteAlgebra, bits):
    """Least tolerance containing bits: the reflexive-admissible closure
    of bits together with its converse."""
    return _refl_adm_closure(alg, bits | _converse(alg.size, bits))


def _congruence_generated(alg: FiniteAlgebra, bits):
    """Least congruence containing bits: the transitive closure of the
    least tolerance containing it, a congruence (see the module docstring)."""
    return _star(alg.size, _tolerance_of(alg, bits))


def refl_adm_closure(alg: FiniteAlgebra, r: BinRel) -> BinRel:
    return BinRel._of(r.n, _refl_adm_closure(alg, _on(alg, r)))


def tolerance_of(alg: FiniteAlgebra, r: BinRel) -> BinRel:
    return BinRel._of(r.n, _tolerance_of(alg, _on(alg, r)))


def congruence_generated(alg: FiniteAlgebra, r: BinRel) -> BinRel:
    return BinRel._of(r.n, _congruence_generated(alg, _on(alg, r)))


class RelKind(Enum):
    REFL_ADM = "REFL"
    TOLERANCE = "TOL"
    CONGRUENCE = "CON"

    # members are singletons and Enum equality is identity, so the identity
    # hash keys the same dicts as Enum's name hash, without a Python call
    __hash__ = object.__hash__


# the sorts' spellings, and how messages list them: "REFL, TOL or CON"
_SORTS = tuple(kind.value for kind in RelKind)
_SORT_CHOICES = f"{', '.join(_SORTS[:-1])} or {_SORTS[-1]}"


def _check_kind(kind, what="sort"):
    """Refuse a sort that is not a `RelKind`, such as its spelling "TOL"."""
    if not isinstance(kind, RelKind):
        raise ValueError(f"{what} {kind!r}, expected a RelKind ({_SORT_CHOICES})")


_KERNELS = {
    RelKind.REFL_ADM: _refl_adm_closure,
    RelKind.TOLERANCE: _tolerance_of,
    RelKind.CONGRUENCE: _congruence_generated,
}


def close_to_kind(alg: FiniteAlgebra, kind: RelKind, r: BinRel) -> BinRel:
    try:
        close = _KERNELS[kind]
    except (KeyError, TypeError):  # not a RelKind; no test on the sampled path
        pass
    else:
        return BinRel._of(r.n, close(alg, _on(alg, r)))
    _check_kind(kind)  # raises outside the handler, so with no context


class RelLattice(Record):
    __slots__ = ("kind", "members")  # members: BinRel, canonically sorted

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def enumerate_relations(alg: FiniteAlgebra, kind: RelKind, cap: int = DEFAULT_CAP) -> RelLattice:
    """All relations of the given kind on alg.

    Computes the principal members (closure of each single pair) and
    joins each new member with the principal members not below it;
    complete because every member is the join of the principals below it,
    so adding one principal at a time reaches it.  A principal is closed
    by its kind's kernel.  A join x | y of two symmetric members is
    symmetric already, so a TOL join is its reflexive-admissible closure,
    with no converse, and a CON join the transitive closure of that.  It
    closes and deduplicates packed ints, and wraps the members in
    ``BinRel`` once, in canonical order: lexicographic on the flattened bit
    matrix, which is the order of the binary spellings read from bit 0 up.
    cap, a positive int, bounds the members.
    """
    _check_kind(kind)
    _check_cap(cap)

    def build():
        close = _KERNELS[kind]
        n = alg.size
        members = set()
        work = []

        def join(bits):
            closed = _refl_adm_closure(alg, bits)
            return _star(n, closed) if kind is RelKind.CONGRUENCE else closed

        def add(bits):
            if bits not in members:
                if len(members) >= cap:
                    raise CapExceeded("lattice-size", cap, len(members) + 1)
                members.add(bits)
                work.append(bits)

        for i in range(n * n):
            add(close(alg, 1 << i))
        principals = list(work)
        while work:
            x = work.pop()
            for y in principals:
                if y & ~x:  # else x | y is x, a member already
                    add(join(x | y))
        width = f"0{n * n}b"
        order = sorted(members, key=lambda bits: format(bits, width)[::-1])
        return RelLattice(kind, tuple(BinRel._of(n, bits) for bits in order))

    lattice = alg._lattices.get(kind)
    if lattice is None:
        lattice = alg._lattices[kind] = build()
    elif len(lattice.members) > cap:
        # what build would raise, so a kept lattice answers as a fresh one
        raise CapExceeded("lattice-size", cap, cap + 1)
    return lattice


def parse_rel_literal(text: str, n: int) -> BinRel:
    """Parse the relation literal syntax: '+'-joined terms, each "delta",
    "nabla", "empty", or a pair "a-b"."""
    out = 0
    text = text.strip()
    if not text:
        raise ValueError("empty relation literal")
    for part in text.split("+"):
        part = part.strip()
        if part == "delta":
            out |= _delta(n)
        elif part == "nabla":
            out |= _nabla(n)
        elif part != "empty":
            bits = part.split("-")
            if len(bits) != 2:
                raise ValueError(f"bad relation literal term {part!r}")
            try:
                a, b = int(bits[0]), int(bits[1])
            except ValueError:
                raise ValueError(f"bad relation literal term {part!r}") from None
            out |= BinRel.from_pairs(n, [(a, b)]).bits
    return BinRel._of(n, out)


def format_rel_literal(r: BinRel) -> str:
    """Inverse of parse_rel_literal, shortest spelling first."""
    if r == nabla(r.n):
        return "nabla"
    extra = [(a, b) for a, b in r.pairs() if a != b]
    if is_reflexive(r):
        if not extra:
            return "delta"
        return "delta+" + "+".join(f"{a}-{b}" for a, b in extra)
    prs = r.pairs()
    if not prs:
        return "empty"
    return "+".join(f"{a}-{b}" for a, b in prs)
