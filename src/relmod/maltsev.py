"""Directed Gumm and Day term systems, the exponent bounds, and
constructive witness chains replaying the inclusion proofs step by step.

Both term conditions are chains t_0..t_k whose links are identities between
neighbours, so one engine decides both: each is a _PathCondition record,
_search finds a shortest chain among the term functions restricted to the
argument tuples the record reads, and _verify checks a chain against the
record over every tuple of the algebra.  The search is anytime: _chain
looks for a chain in the closure as it grows, and the first chain of the
least length any algebra allows stops the closure.  _verify keeps on the
algebra the full term tables of each chain it verified, or None for one
that failed, at most 2^10 chains; the witness replays read their term
functions from those tables.

The witness constructors replay the inclusion proofs through one walker,
_walk: a theorem lists its head step and its Lambda blocks as
(label, relation, next element) moves, _walk re-checks every step against
its relation, and the chain must end at c.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter

from .algebras import (
    CapExceeded,
    DEFAULT_CAP,
    FiniteAlgebra,
    FreeElement,
    Record,
    TermError,
    Variable,
    _check_cap,
    _is_int,
    _put,
    generate_subuniverse,
    term_table,
)
from .relations import (
    BinRel,
    converse,
    intersect,
    is_admissible,
    is_reflexive,
    is_tolerance,
    refl_adm_closure,
    tolerance_of,
    union,
)


class PreconditionError(ValueError):
    """A witness constructor was handed an instance outside its hypotheses."""


class ElementError(ValueError):
    """A witness constructor was handed an element outside the universe: a
    usage error rather than a failed precondition."""


class TermSystem(Record):
    """A chain of terms t_0..t_k: directed Gumm terms p, j_1..j_k (k=1
    degenerates to a Maltsev term) or Day terms d_0..d_k."""

    __slots__ = ("terms",)

    @property
    def k(self):
        return len(self.terms) - 1


class SearchStatus(Enum):
    FOUND = "found"
    NOT_UP_TO = "not-up-to"  # no chain of any length exists
    CAP_EXCEEDED = "cap-exceeded"


class SearchResult(Record):
    """A search's status, its system (None unless FOUND), the number of
    restricted vertices among the elements closed when the search ended (0
    when the cap stopped it), and the cap's error when it did."""

    __slots__ = ("status", "system", "node_count", "cap_error")

    def __init__(
        self,
        status: SearchStatus,
        system: TermSystem | None,
        node_count: int,
        cap_error: CapExceeded | None = None,
    ):
        super().__init__(status, system, node_count, cap_error)

    @property
    def found(self):
        return self.status is SearchStatus.FOUND

    @property
    def definitive(self):
        """True when no chain of any length exists."""
        return self.status is SearchStatus.NOT_UP_TO


def _check_bound_args(h, k):
    if not (_is_int(h) and _is_int(k) and h >= 1 and k >= 2):
        raise ValueError(f"require integers h >= 1 and k >= 2, got h={h!r}, k={k!r}")


def q_bound(h: int, k: int) -> int:
    _check_bound_args(h, k)
    return (2 ** (h + 1) - 2) * (2 * k - 3)


def r_bound(h: int, k: int) -> int:
    _check_bound_args(h, k)
    return 1 + (2 ** (h + 1) - 2) * (k - 1)


# The variables of the argument patterns below; pattern variable i is also
# generator i, Variable(i).
_VARS = "xyzw"


class _PathCondition(Record):
    """A linear Maltsev condition on a chain of terms t_0..t_k of one arity,
    written with argument patterns over the variables x, y, z, w.

    An identity (P, v) says t(P) = v; a link (L, R) says t_i(L) = t_{i+1}(R).
    Link i is links[i] while there is one, then links[cycle:] repeat.  t_0
    is the generator start or, when start is None, any term satisfying the
    head identity; t_1..t_k satisfy the vertex identity; t_k is the
    generator end.  trivial is the shortest chain the condition allows,
    which is the chain on a one-element algebra.
    """

    __slots__ = ("arity", "start", "head", "vertex", "links", "cycle", "end", "trivial")


# p(x,z,z)=x; j_i(x,y,x)=x; p(x,x,z)=j_1(x,x,z), then j_i(x,z,z)=j_{i+1}(x,x,z); j_k=z
_DGUMM = _PathCondition(
    3, None, ("xzz", "x"), ("xyx", "x"), (("xxz", "xxz"), ("xzz", "xxz")), 1, 2, (Variable(2), Variable(2))
)
# d_0=x; d_i(x,y,y,x)=x; d_i and d_{i+1} agree on (x,x,w,w) for even i and
# on (x,y,y,w) for odd i; d_k=w
_DAY = _PathCondition(4, 0, None, ("xyyx", "x"), (("xxww", "xxww"), ("xyyw", "xyyw")), 0, 3, (Variable(0),))


def _phase(cond, i):
    """The index in cond.links of link i."""
    if i < len(cond.links):
        return i
    return cond.cycle + (i - cond.cycle) % (len(cond.links) - cond.cycle)


def _read(n, law):
    """The mixed-radix codes of the argument tuples each side of law spells,
    one per assignment of elements to the left side's variables, in
    lexicographic order.  A side that is one variable spells its value."""
    sides = ([0], [0])
    for name in sorted(set(law[0]), key=_VARS.index):
        # a code is linear in the values: name weighs the place values of
        # its positions
        weights = [sum(n ** (len(p) - 1 - i) for i, v in enumerate(p) if v == name) for p in law]
        sides = tuple([c + w * a for c in codes for a in range(n)] for codes, w in zip(sides, weights))
    return sides


# The most term chains one algebra remembers.  A full memo is emptied and
# refills.
_CHAINS_CAP = 1 << 10


def _verify(cond, alg, terms):
    """The full term tables of the chain terms = (t_0..t_k) when every law
    of cond holds on it over every tuple of alg, else None.  A chain shorter
    than cond.trivial, or with a term that is not a term of cond's arity
    over alg, fails.  The answer is kept on alg under (cond, terms), so each
    chain is tabulated and verified once per algebra, and the witness
    replays read the tables it was verified on."""
    if len(terms) < len(cond.trivial):
        return None
    key = (cond, terms)
    if key in alg._chains:
        return alg._chains[key]
    try:
        tables = tuple(term_table(alg, t, cond.arity).vector for t in terms)
    except TermError:
        return _put(alg._chains, _CHAINS_CAP, key, None)
    every = _VARS[: cond.arity]
    value = range(alg.size)  # an identity t(P) = v is a link to v's value
    checks = [
        (cond.head or (every, _VARS[cond.start]), tables[0], value),
        ((every, _VARS[cond.end]), tables[-1], value),
    ]
    checks += [(cond.vertex, t, value) for t in tables[1:]]
    checks += [(cond.links[_phase(cond, i)], tables[i], tables[i + 1]) for i in range(len(terms) - 1)]
    reads = {law: _read(alg.size, law) for law, _, _ in checks}
    holds = all(t[a] == u[b] for law, t, u in checks for a, b in zip(*reads[law]))
    return _put(alg._chains, _CHAINS_CAP, key, tables if holds else None)


def _search(cond, alg, cap):
    """Shortest chain for cond among the term functions of alg restricted to
    the argument tuples its laws read: the subpower of A^width generated by
    the restricted projections, width the number of those tuples.  The
    result's system is the TermSystem t_0..t_k; node_count counts the
    restricted vertices among the elements closed when the search ended.
    cap bounds both the width and the closure size.

    The restriction is exact: every law reads only those tuples, so the
    restricted graph is the full one with vertices of equal restriction
    merged, and it has a chain of length k exactly when the full graph does.
    The tuples are chosen so that the projections differ pairwise, and the
    endpoints are generators, which keep their terms Variable(i).

    _chain runs after each closure round that at least doubles the elements
    since its last run, and on the full closure.  A chain of the least
    length any algebra allows stops the closure: 1 when t_0 is free, else 2,
    since t_0 = x links to t_1 = w only when x = w.  The closed elements are
    a prefix of the full closure with the same terms, and at that length
    the pick depends on each vertex alone, so it is the full search's.  A
    longer chain, or none, on a prefix decides nothing.
    """
    identities = [cond.vertex] + ([cond.head] if cond.head else [])
    reads = {law: _read(alg.size, law) for law in identities + list(cond.links)}
    codes = {c for law in identities for c in reads[law][0]}
    codes |= {c for law in cond.links for side in reads[law] for c in side}
    codes = sorted(codes)
    column = {code: c for c, code in enumerate(codes)}
    least = 1 if cond.start is None else 2
    closed, found = 0, None  # elements at the last _chain run, and its answer

    def stop(vecs):
        nonlocal closed, found
        if len(vecs) < 2 * closed:
            return False
        closed, found = len(vecs), _chain(cond, reads, column, vecs)
        return found[1] is not None and len(found[1]) == least + 1

    try:
        if len(codes) > cap:
            raise CapExceeded("vector-length", cap, len(codes))
        n, g = alg.size, cond.arity
        gens = [FreeElement([c // n ** (g - 1 - i) % n for c in codes], Variable(i)) for i in range(g)]
        free = generate_subuniverse(alg, len(codes), gens, cap, stop=stop)
    except CapExceeded as e:
        return SearchResult(SearchStatus.CAP_EXCEEDED, None, 0, e)
    if len(free) > closed:
        found = _chain(cond, reads, column, [e.vector for e in free])
    nodes, chain = found
    if chain is None:
        return SearchResult(SearchStatus.NOT_UP_TO, None, nodes)
    return SearchResult(SearchStatus.FOUND, TermSystem(tuple(free[pos].term for pos in chain)), nodes)


def _chain(cond, reads, column, vec):
    """The number of restricted vertices among the vectors vec, and the
    positions in vec of the least chain t_0..t_k, or None when there is
    none: the shortest, with t_1..t_k least in closure order, then the
    least t_0 linked to t_1.  column maps each code that reads holds to its
    coordinate."""

    def reader(codes):
        return itemgetter(*[column[c] for c in codes])

    def satisfying(law):
        get, want = reader(reads[law][0]), tuple(reads[law][1])
        return [pos for pos, v in enumerate(vec) if get(v) == want]

    vertices = satisfying(cond.vertex)
    heads = satisfying(cond.head) if cond.head else [cond.start]
    sides = [tuple(map(reader, reads[law])) for law in cond.links]
    into = [{} for _ in cond.links]  # per link: vertices by their right side
    for index, (_, right) in zip(into, sides):
        for v in vertices:
            index.setdefault(right(vec[v]), []).append(v)

    def linked(pos, phase):
        return into[phase].get(sides[phase][0](vec[pos]), ())

    # 1. layered BFS over (vertex, phase of its outgoing link) for the least k
    firsts = {v for h in heads for v in linked(h, 0)}
    frontier = {(v, _phase(cond, 1)) for v in firsts}
    seen = set(frontier)
    k = 1
    while frontier and cond.end not in {v for v, _ in frontier}:
        frontier = {(u, _phase(cond, p + 1)) for v, p in frontier for u in linked(v, p)} - seen
        seen |= frontier
        k += 1
    if not frontier:
        return len(vertices), None

    # 2. exact-length backward sets: from can[i], links i..k-1 reach the end
    can = {k: {cond.end}}
    for i in range(k - 1, 0, -1):
        left, right = sides[_phase(cond, i)]
        keys = {right(vec[v]) for v in can[i + 1]}
        can[i] = {v for v in vertices if left(vec[v]) in keys}

    # 3. greedy: the least t_1..t_k in closure order, then the least head
    # linked to t_1
    path = [min(firsts & can[1])]
    for i in range(1, k):
        path.append(next(v for v in linked(path[-1], _phase(cond, i)) if v in can[i + 1]))
    left, right = sides[0]
    head = next(h for h in heads if left(vec[h]) == right(vec[path[0]]))
    return len(vertices), [head] + path


def verify_directed_gumm(alg: FiniteAlgebra, system: TermSystem) -> bool:
    """Check the directed Gumm identities of p, j_1..j_k, k >= 1, at every tuple."""
    return _verify(_DGUMM, alg, tuple(system.terms)) is not None


def verify_day(alg: FiniteAlgebra, system: TermSystem) -> bool:
    """Check the Day identities of d_0..d_k, k >= 0, at every tuple."""
    return _verify(_DAY, alg, tuple(system.terms)) is not None


def _find(cond, alg, cap):
    """The search find_directed_gumm and find_day share: cond's trivial
    chain on a one-element algebra, else _search's chain, checked by
    _verify before it is returned."""
    _check_cap(cap)
    if alg.size == 1:
        res = SearchResult(SearchStatus.FOUND, TermSystem(cond.trivial), 1)
    else:
        res = _search(cond, alg, cap)
    if res.found and _verify(cond, alg, tuple(res.system.terms)) is None:
        raise RuntimeError("internal error: the search produced an invalid term system")
    return res


def find_directed_gumm(alg: FiniteAlgebra, cap: int = DEFAULT_CAP) -> SearchResult:
    """Shortest directed Gumm system for the variety generated by alg: the
    _DGUMM chain p, j_1..j_k, found by _search among the ternary term
    functions restricted to (a,b,a), (a,c,c) and (a,a,c), a subpower of
    width 3n^2-2n instead of F(3)'s n^3.  The returned k is minimal; the
    graph is finite, so NOT_UP_TO means no chain of any length exists.  cap
    bounds the restricted width and the closure size."""
    return _find(_DGUMM, alg, cap)


def find_day(alg: FiniteAlgebra, cap: int = DEFAULT_CAP) -> SearchResult:
    """Minimal Day system for the variety generated by alg: the _DAY chain
    d_0..d_k, found by _search among the quaternary term functions
    restricted to (a,b,b,c) and (a,a,c,c), which cover the vertex tuples
    (a,b,b,a): a subpower of width n^3+n^2-n instead of F(4)'s n^4.  The
    returned k is minimal; NOT_UP_TO means no chain of any length exists.
    cap bounds the restricted width and the closure size."""
    return _find(_DAY, alg, cap)


def decide_modularity(alg: FiniteAlgebra, cap: int = DEFAULT_CAP) -> SearchResult:
    """Congruence modularity of the generated variety, decided by directed
    Gumm terms: find_directed_gumm's result.  FOUND means modular; NOT_UP_TO
    means no chain of any length exists, so the variety is not modular."""
    return find_directed_gumm(alg, cap)


class WitnessStep(Record):
    __slots__ = ("source", "target", "label", "relation")


class WitnessChain(Record):
    """Alternating elements and labelled relation steps certifying one
    membership in the right-hand side of an inclusion."""

    __slots__ = ("start", "end", "steps", "lam_blocks")

    def __init__(self, start: int, end: int, steps: tuple, lam_blocks: int | None = None):
        super().__init__(start, end, steps, lam_blocks)

    def validate(self) -> bool:
        cur = self.start
        for s in self.steps:
            if s.source != cur or not s.relation.has(s.source, s.target):
                return False
            cur = s.target
        return cur == self.end


def _require(cond, message):
    if not cond:
        raise PreconditionError(message)


def _require_elements(alg, named):
    """Raise ElementError for the first (name, element) pair outside alg's
    universe."""
    for name, x in named:
        if not 0 <= x < alg.size:
            raise ElementError(f"element {name}={x} is outside the universe 0..{alg.size - 1}")


def _require_refl_adm(alg, name, rel):
    _require(rel.n == alg.size, f"{name} has size {rel.n}, algebra has size {alg.size}")
    _require(is_reflexive(rel), f"{name} is not reflexive")
    _require(is_admissible(alg, rel), f"{name} is not admissible")


def _fn(n, vec):
    """The term function on an n-element universe whose table is vec."""

    def fn(*args):
        code = 0
        for x in args:
            code = code * n + x
        return vec[code]

    return fn


def _term_functions(cond, alg, system, family):
    """The term functions t_0..t_k of system, read from the tables it was
    verified on against cond; a precondition error when it fails cond."""
    tables = _verify(cond, alg, tuple(system.terms))
    _require(tables is not None, f"term system fails the {family} identities")
    return [_fn(alg.size, vec) for vec in tables]


def _walk(a, c, moves, lam_blocks=None):
    """The chain from a through moves, each a (label, relation, next
    element); every step is re-checked against its relation, and the chain
    must end at c."""
    steps = []
    cur = a
    for label, relation, nxt in moves:
        if not relation.has(cur, nxt):
            raise RuntimeError(f"internal error: emitted step ({cur},{nxt}) fails its relation {label}")
        steps.append(WitnessStep(cur, nxt, label, relation))
        cur = nxt
    if cur != c:
        raise RuntimeError("internal error: witness chain did not terminate at c")
    return WitnessChain(a, c, tuple(steps), lam_blocks)


def _lam_moves(alg, R, S, chain, blocks):
    """The moves of Lambda^len(blocks), Lambda = tol(R)&S1 ; ... ;
    tol(R)&Sl: each block function y -> element walks y along chain[1:],
    one tol(R)&Si step per element."""
    theta = tolerance_of(alg, R)
    lam = [(f"tol(R) & S{i}", intersect(theta, s)) for i, s in enumerate(S, start=1)]
    return [(label, r, block(y)) for block in blocks for (label, r), y in zip(lam, chain[1:])]


def _check_turt_instance(alg, system, R, V, W, S, a, b, chain):
    named = [("a", a), ("b", b)] + [(f"chain[{i}]", x) for i, x in enumerate(chain)]
    _require_elements(alg, named)
    _require(system.k >= 2, f"witness construction needs k >= 2, system has k={system.k}")
    j = _term_functions(_DGUMM, alg, system, "directed Gumm")[1:]
    _require(len(chain) == len(S) + 1, "chain must have one more element than S has relations")
    _require(chain[0] == a, f"chain must start at a={a}")
    c = chain[-1]
    _require_refl_adm(alg, "R", R)
    _require_refl_adm(alg, "V", V)
    _require_refl_adm(alg, "W", W)
    for i, s in enumerate(S, start=1):
        _require_refl_adm(alg, f"S{i}", s)
    _require(R.has(a, c), f"precondition (a,c)=({a},{c}) in R fails")
    _require(V.has(a, b), f"precondition (a,b)=({a},{b}) in V fails")
    _require(W.has(b, c), f"precondition (b,c)=({b},{c}) in W fails")
    for i, s in enumerate(S, start=1):
        _require(
            s.has(chain[i - 1], chain[i]),
            f"precondition ({chain[i - 1]},{chain[i]}) in S{i} fails",
        )
    return c, j


def witness_turt(alg, system, R, V, W, S, a, b, chain) -> WitnessChain:
    """Element chain landing (a,c) in R(cl(V|W)) ; Lambda^(2k-3), where
    Lambda = tol(R)&S1 ; ... ; tol(R)&Sl.

    The head step goes through p-evaluations into R & cl(V|W); each Lambda
    block walks the S-chain through j* = j1(x,y,j1(xyz)) or through the
    later j_i, every step re-validated against the supplied relations.
    """
    c, (j1, *later) = _check_turt_instance(alg, system, R, V, W, S, a, b, chain)
    head_rel = intersect(R, refl_adm_closure(alg, union(V, W)))
    head = ("R & cl(V|W)", head_rel, j1(a, a, j1(a, a, c)))
    # first block: both occurrences of y move together, via j*; then the
    # middle blocks advance j_2..j_{k-1} inside the fixed outer j1(a, c, _),
    # and the tail blocks advance them bare
    blocks = [lambda y: j1(a, y, j1(a, y, c))]
    blocks += [lambda y, ji=ji: j1(a, c, ji(a, y, c)) for ji in later[:-1]]
    blocks += [lambda y, ji=ji: ji(a, y, c) for ji in later[:-1]]
    return _walk(a, c, [head] + _lam_moves(alg, R, S, chain, blocks), len(blocks))


def witness_turtt(alg, system, R, V, W, S, a, b, chain) -> WitnessChain:
    """Element chain landing (a,c) in R conv(R) cl(conv(V)|W) ; Lambda^(k-1);
    the simpler replay starting from a = p(a,b,b)."""
    c, j = _check_turt_instance(alg, system, R, V, W, S, a, b, chain)
    head_rel = intersect(intersect(R, converse(R)), refl_adm_closure(alg, union(converse(V), W)))
    head = ("R & conv(R) & cl(conv(V)|W)", head_rel, j[0](a, a, c))  # = p(a,a,c)
    blocks = [lambda y, ji=ji: ji(a, y, c) for ji in j[:-1]]
    return _walk(a, c, [head] + _lam_moves(alg, R, S, chain, blocks), len(blocks))


def witness_day(alg, system, theta, s_rel, a, b, c) -> WitnessChain:
    """Chain of at most k-1 steps alternating Theta&S and Theta&conv(S),
    for (a,c) in Theta & (S ; conv(S)) with midpoint b."""
    _require_elements(alg, [("a", a), ("b", b), ("c", c)])
    d = _term_functions(_DAY, alg, system, "Day")
    _require(theta.n == alg.size and s_rel.n == alg.size, "relation size mismatch")
    _require(is_tolerance(alg, theta), "Theta is not a tolerance")
    _require_refl_adm(alg, "S", s_rel)
    _require(theta.has(a, c), f"precondition (a,c)=({a},{c}) in Theta fails")
    _require(s_rel.has(a, b), f"precondition (a,b)=({a},{b}) in S fails")
    _require(s_rel.has(c, b), f"precondition (c,b)=({c},{b}) in conv(S) fails")
    if system.k == 0:
        _require(a == c, "k=0 system only certifies a=c")
    fwd = ("Theta & S", intersect(theta, s_rel))
    bwd = ("Theta & conv(S)", intersect(theta, converse(s_rel)))
    # from a = d_1(a,a,c,c), odd d_i step by (a,b,b,c), even ones by (a,a,c,c)
    moves = [(*fwd, d[i](a, b, b, c)) if i % 2 else (*bwd, d[i](a, a, c, c)) for i in range(1, system.k)]
    return _walk(a, c, moves)
