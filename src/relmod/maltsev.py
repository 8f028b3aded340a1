"""Directed Gumm and Day term systems: decision by shortest-path search in
free algebras restricted to the argument tuples their conditions read,
exhaustive verifiers, the exponent bounds, and constructive witness chains
replaying the inclusion proofs step by step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .algebras import (
    CapExceeded,
    DEFAULT_CAP,
    FiniteAlgebra,
    FreeElement,
    Term,
    Variable,
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


@dataclass(frozen=True)
class DirectedGummSystem:
    """Terms p, j_1..j_k; k=1 degenerates to a Maltsev term."""

    k: int
    p: Term
    j: tuple


@dataclass(frozen=True)
class DaySystem:
    """Quaternary terms d_0..d_k with the parity-alternating linking laws."""

    k: int
    d: tuple


class SearchStatus(Enum):
    FOUND = "found"
    NOT_UP_TO = "not-up-to"
    CAP_EXCEEDED = "cap-exceeded"


@dataclass(frozen=True)
class SearchResult:
    status: SearchStatus
    system: DirectedGummSystem | DaySystem | None
    max_k: int
    node_count: int
    definitive: bool  # True when no path of any length exists
    cap_error: CapExceeded | None = None

    @property
    def found(self):
        return self.status is SearchStatus.FOUND


def q_bound(h: int, k: int) -> int:
    if h < 1 or k < 2:
        raise ValueError(f"require h >= 1 and k >= 2, got h={h}, k={k}")
    return (2 ** (h + 1) - 2) * (2 * k - 3)


def r_bound(h: int, k: int) -> int:
    if h < 1 or k < 2:
        raise ValueError(f"require h >= 1 and k >= 2, got h={h}, k={k}")
    return 1 + (2 ** (h + 1) - 2) * (k - 1)


def verify_directed_gumm(alg: FiniteAlgebra, system: DirectedGummSystem) -> bool:
    """Check the five defining identities over every tuple of the algebra."""
    n = alg.size
    p = term_table(alg, system.p, 3).vector
    js = [term_table(alg, t, 3).vector for t in system.j]
    if system.k != len(js) or system.k < 1:
        return False

    def at(v, x, y, z):
        return v[(x * n + y) * n + z]

    for x in range(n):
        for z in range(n):
            if at(p, x, z, z) != x:
                return False
            if at(p, x, x, z) != at(js[0], x, x, z):
                return False
            for i in range(len(js) - 1):
                if at(js[i], x, z, z) != at(js[i + 1], x, x, z):
                    return False
        for y in range(n):
            for i in range(len(js)):
                if at(js[i], x, y, x) != x:
                    return False
            for z in range(n):
                if at(js[-1], x, y, z) != z:
                    return False
    return True


def verify_day(alg: FiniteAlgebra, system: DaySystem) -> bool:
    """Check the Day linking conditions over every tuple of the algebra."""
    n = alg.size
    ds = [term_table(alg, t, 4).vector for t in system.d]
    if len(ds) != system.k + 1 or system.k < 0:
        return False

    def at(v, x, y, z, w):
        return v[((x * n + y) * n + z) * n + w]

    for x in range(n):
        for y in range(n):
            for i in range(len(ds)):
                if at(ds[i], x, y, y, x) != x:
                    return False
            for z in range(n):
                for w in range(n):
                    if at(ds[0], x, y, z, w) != x:
                        return False
                    if at(ds[-1], x, y, z, w) != w:
                        return False
            for w in range(n):
                for i in range(len(ds) - 1):
                    if i % 2 == 0:
                        if at(ds[i], x, x, w, w) != at(ds[i + 1], x, x, w, w):
                            return False
                    else:
                        if at(ds[i], x, y, y, w) != at(ds[i + 1], x, y, y, w):
                            return False
    return True


class _Node:
    __slots__ = ("pos", "elem", "sig_a", "sig_b")

    def __init__(self, pos, elem, sig_a, sig_b):
        self.pos = pos
        self.elem = elem
        self.sig_a = sig_a
        self.sig_b = sig_b


def _restricted_free(alg, g, codes, cap):
    """The g-ary term functions of alg restricted to the argument tuples
    with mixed-radix codes in codes: the subpower of A^len(codes) generated
    by the restricted projections, in generate_subuniverse order.

    Returns the elements and the code -> column map.  Callers pass codes on
    which the g projections differ pairwise, so generator i keeps position i
    and the term Variable(i).  cap bounds both the width len(codes) and the
    closure size.
    """
    n = alg.size
    codes = sorted(set(codes))
    if len(codes) > cap:
        raise CapExceeded("vector-length", cap, len(codes))
    gens = [
        FreeElement(tuple(code // n ** (g - 1 - i) % n for code in codes), Variable(i))
        for i in range(g)
    ]
    free = generate_subuniverse(alg, len(codes), gens, cap)
    return free, {code: column for column, code in enumerate(codes)}


def _values(vec, columns):
    return tuple(vec[i] for i in columns)


def find_directed_gumm(alg: FiniteAlgebra, max_k: int = 16, cap: int = DEFAULT_CAP) -> SearchResult:
    """Shortest directed Gumm system for the variety generated by alg.

    Searches the graph on ternary term functions whose vertices satisfy
    j(x,y,x)=x, with an edge f->g when f(a,c,c)=g(a,a,c) everywhere; a vertex
    is a source when some q with q(x,z,z)=x plays p for it, and the target is
    the third projection.  The returned k is minimal; the graph is finite, so
    a missing path is a definitive no for every k.

    The term functions are restricted to the argument tuples (a,b,a), (a,c,c)
    and (a,a,c), a subpower of width 3n^2-2n instead of F(3)'s n^3.  This is
    exact: every vertex, edge and p condition reads only those tuples, so
    the restricted graph is the full one with vertices of equal restriction
    merged, and it has a path of length k exactly when the full graph does.
    The target is the generator z, which keeps its term Variable(2), so the
    last j is the projection on every tuple.  cap bounds the restricted
    width and the closure size; node_count counts restricted vertices.
    """
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    n = alg.size
    if n == 1:
        system = DirectedGummSystem(1, Variable(2), (Variable(2),))
        return SearchResult(SearchStatus.FOUND, system, max_k, 1, False)
    rng = range(n)
    aba = [(a * n + b) * n + a for a in rng for b in rng]
    acc = [(a * n + c) * n + c for a in rng for c in rng]
    aac = [(a * n + a) * n + c for a in rng for c in rng]
    try:
        free, column = _restricted_free(alg, 3, aba + acc + aac, cap)
    except CapExceeded as e:
        return SearchResult(SearchStatus.CAP_EXCEEDED, None, max_k, 0, False, e)
    aba, acc, aac = ([column[code] for code in codes] for codes in (aba, acc, aac))

    # the first projection's values at (a,b,a), (a,c,c): a for every pair
    first_sig = tuple(a for a in rng for _ in rng)

    # vertices: j(x,y,x) = x everywhere
    nodes = []
    for pos, e in enumerate(free):
        v = e.vector
        if _values(v, aba) == first_sig:
            nodes.append(_Node(pos, e, _values(v, aac), _values(v, acc)))

    # p candidates: q(a,c,c) = a everywhere, keyed by their (a,a,c) behaviour
    p_by_sig = {}
    for e in free:
        if _values(e.vector, acc) == first_sig:
            p_by_sig.setdefault(_values(e.vector, aac), e)

    by_aac = {}
    by_acc = {}
    for node in nodes:
        by_aac.setdefault(node.sig_a, []).append(node)
        by_acc.setdefault(node.sig_b, []).append(node)

    target = next(node for node in nodes if node.pos == 2)  # the generator z
    sources = [node for node in nodes if node.sig_a in p_by_sig]

    # backward BFS from the target: rdist counts edges to the target
    rdist = {target.pos: 0}
    queue = deque([target])
    while queue:
        v = queue.popleft()
        for u in by_acc.get(v.sig_a, ()):
            if u.pos not in rdist:
                rdist[u.pos] = rdist[v.pos] + 1
                queue.append(u)

    reachable = [s for s in sources if s.pos in rdist]
    if not reachable:
        return SearchResult(SearchStatus.NOT_UP_TO, None, max_k, len(nodes), True)
    k_star = min(rdist[s.pos] for s in reachable) + 1
    if k_star > max_k:
        return SearchResult(SearchStatus.NOT_UP_TO, None, max_k, len(nodes), False)

    # lexicographically least shortest path in free-element canonical order
    cur = next(s for s in nodes if s in reachable and rdist[s.pos] == k_star - 1)
    path = [cur]
    while rdist[cur.pos] > 0:
        cur = next(v for v in by_aac[cur.sig_b] if rdist.get(v.pos) == rdist[cur.pos] - 1)
        path.append(cur)

    system = DirectedGummSystem(
        k_star, p_by_sig[path[0].sig_a].term, tuple(node.elem.term for node in path)
    )
    if not verify_directed_gumm(alg, system):
        raise RuntimeError("internal error: directed Gumm search produced an invalid system")
    return SearchResult(SearchStatus.FOUND, system, max_k, len(nodes), False)


def find_day(alg: FiniteAlgebra, max_k: int = 16, cap: int = DEFAULT_CAP) -> SearchResult:
    """Minimal Day system via layered BFS over quaternary term functions,
    from the first projection to the last, alternating the even (x,x,w,w)
    and odd (x,y,y,w) agreement conditions among the vertices d with
    d(x,y,y,x)=x.

    The term functions are restricted to the argument tuples (a,b,b,c) and
    (a,a,c,c), which cover the vertex tuples (a,b,b,a): a subpower of width
    n^3+n^2-n instead of F(4)'s n^4.  This is exact: every vertex and edge
    condition reads only those tuples, so the restricted graph is the full
    one with vertices of equal restriction merged, and it has a path of
    length k exactly when the full graph does.  The endpoints are the
    generators x and w, which keep their terms Variable(0) and Variable(3),
    so d_0 and d_k are projections on every tuple.  cap bounds the
    restricted width and the closure size; node_count counts restricted
    vertices.
    """
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    n = alg.size
    if n == 1:
        system = DaySystem(0, (Variable(0),))
        return SearchResult(SearchStatus.FOUND, system, max_k, 1, False)
    rng = range(n)
    odd = [((a * n + b) * n + b) * n + c for a in rng for b in rng for c in rng]
    even = [((a * n + a) * n + c) * n + c for a in rng for c in rng]
    abba = [((a * n + b) * n + b) * n + a for a in rng for b in rng]
    try:
        free, column = _restricted_free(alg, 4, odd + even, cap)
    except CapExceeded as e:
        return SearchResult(SearchStatus.CAP_EXCEEDED, None, max_k, 0, False, e)
    odd, even, abba = ([column[code] for code in codes] for codes in (odd, even, abba))

    # vertices: d(x,y,y,x) = x everywhere
    first_sig = tuple(a for a in rng for _ in rng)
    nodes = []
    for pos, e in enumerate(free):
        v = e.vector
        if _values(v, abba) == first_sig:
            nodes.append(_Node(pos, e, _values(v, even), _values(v, odd)))

    groups = ({}, {})  # by even sig, by odd sig
    for node in nodes:
        groups[0].setdefault(node.sig_a, []).append(node)
        groups[1].setdefault(node.sig_b, []).append(node)

    def sig(node, parity):
        return node.sig_a if parity == 0 else node.sig_b

    x_node = next(node for node in nodes if node.pos == 0)  # the generator x
    w_node = next(node for node in nodes if node.pos == 3)  # the generator w

    seen = {(x_node.pos, 0)}
    frontier = [x_node]
    level = 0
    found_k = None
    while frontier:
        if any(v.pos == w_node.pos for v in frontier):
            found_k = level
            break
        parity = level % 2
        nxt = []
        for u in frontier:
            for v in groups[parity][sig(u, parity)]:
                state = (v.pos, (level + 1) % 2)
                if state not in seen:
                    seen.add(state)
                    nxt.append(v)
        frontier = nxt
        level += 1

    if found_k is None:
        return SearchResult(SearchStatus.NOT_UP_TO, None, max_k, len(nodes), True)
    if found_k > max_k:
        return SearchResult(SearchStatus.NOT_UP_TO, None, max_k, len(nodes), False)

    # exact-length reachability sets, then greedy least-position choices
    can = [None] * (found_k + 1)
    can[found_k] = {w_node.pos}
    node_by_pos = {node.pos: node for node in nodes}
    for i in range(found_k - 1, -1, -1):
        parity = i % 2
        sigs = {sig(node_by_pos[p], parity) for p in can[i + 1]}
        can[i] = {node.pos for node in nodes if sig(node, parity) in sigs}
    if x_node.pos not in can[0]:
        raise RuntimeError("internal error: Day reconstruction lost the start node")
    path = [x_node]
    cur = x_node
    for i in range(found_k):
        parity = i % 2
        cur = next(v for v in groups[parity][sig(cur, parity)] if v.pos in can[i + 1])
        path.append(cur)

    system = DaySystem(found_k, tuple(node.elem.term for node in path))
    if not verify_day(alg, system):
        raise RuntimeError("internal error: Day search produced an invalid system")
    return SearchResult(SearchStatus.FOUND, system, max_k, len(nodes), False)


class ModularityStatus(Enum):
    MODULAR = "modular"
    NO_TERMS_UP_TO = "no-terms-up-to"
    CAP_EXCEEDED = "cap-exceeded"


@dataclass(frozen=True)
class ModularityVerdict:
    status: ModularityStatus
    k: int | None
    system: DirectedGummSystem | None
    max_k: int
    node_count: int
    definitive: bool
    cap_error: CapExceeded | None = None


def decide_modularity(alg: FiniteAlgebra, max_k: int = 16, cap: int = DEFAULT_CAP) -> ModularityVerdict:
    """Congruence modularity of the generated variety, via directed Gumm
    terms found by find_directed_gumm, which searches ternary term functions
    restricted to the tuples (a,b,a), (a,c,c) and (a,a,c); that restriction
    is exact, since the conditions read nothing else.  A NO is definitive
    once the finite node set admits no path at all, or once max_k reaches
    the node count, which counts restricted vertices: a shortest path in the
    restricted graph visits distinct vertices."""
    res = find_directed_gumm(alg, max_k, cap)
    if res.status is SearchStatus.CAP_EXCEEDED:
        return ModularityVerdict(
            ModularityStatus.CAP_EXCEEDED, None, None, max_k, 0, False, res.cap_error
        )
    if res.status is SearchStatus.FOUND:
        return ModularityVerdict(
            ModularityStatus.MODULAR, res.system.k, res.system, max_k, res.node_count, True
        )
    definitive = res.definitive or max_k >= res.node_count
    return ModularityVerdict(
        ModularityStatus.NO_TERMS_UP_TO, None, None, max_k, res.node_count, definitive
    )


@dataclass(frozen=True)
class WitnessStep:
    source: int
    target: int
    label: str
    relation: BinRel


@dataclass(frozen=True)
class WitnessChain:
    """Alternating elements and labelled relation steps certifying one
    membership in the right-hand side of an inclusion."""

    start: int
    end: int
    steps: tuple
    lam_blocks: int | None = None

    def elements(self):
        return [self.start] + [s.target for s in self.steps]

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


def _require_refl_adm(alg, name, rel):
    _require(rel.n == alg.size, f"{name} has size {rel.n}, algebra has size {alg.size}")
    _require(is_reflexive(rel), f"{name} is not reflexive")
    _require(is_admissible(alg, rel), f"{name} is not admissible")


def _fn3(alg, term):
    vec = term_table(alg, term, 3).vector
    n = alg.size
    return lambda x, y, z: vec[(x * n + y) * n + z]


def _fn4(alg, term):
    vec = term_table(alg, term, 4).vector
    n = alg.size
    return lambda x, y, z, w: vec[((x * n + y) * n + z) * n + w]


def _checked_step(label, rel, u, v):
    if not rel.has(u, v):
        raise RuntimeError(
            f"internal error: emitted step ({u},{v}) fails its relation {label}"
        )
    return WitnessStep(u, v, label, rel)


def _check_turt_instance(alg, system, R, V, W, S, a, b, chain):
    _require(system.k >= 2, f"witness construction needs k >= 2, system has k={system.k}")
    _require(
        verify_directed_gumm(alg, system), "term system fails the directed Gumm identities"
    )
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
    return c


def witness_turt(alg, system, R, V, W, S, a, b, chain) -> WitnessChain:
    """Element chain landing (a,c) in R(cl(V|W)) ; Lambda^(2k-3), where
    Lambda = tol(R)&S1 ; ... ; tol(R)&Sl.

    The head step goes through p-evaluations into R & cl(V|W); each Lambda
    block walks the S-chain through j* = j1(x,y,j1(xyz)) or through the
    later j_i, every step re-validated against the supplied relations.
    """
    c = _check_turt_instance(alg, system, R, V, W, S, a, b, chain)
    k, ell = system.k, len(S)
    j = [_fn3(alg, t) for t in system.j]

    def jstar(x, y, z):
        return j[0](x, y, j[0](x, y, z))

    theta = tolerance_of(alg, R)
    lam_rels = [intersect(theta, s) for s in S]
    lam_labels = [f"tol(R) & S{i}" for i in range(1, ell + 1)]
    head_rel = intersect(R, refl_adm_closure(alg, union(V, W)))

    steps = []
    cur = a
    nxt = jstar(a, a, c)
    steps.append(_checked_step("R & cl(V|W)", head_rel, cur, nxt))
    cur = nxt
    blocks = 0
    # first block: both occurrences of y move together, via j*
    for h in range(ell):
        nxt = jstar(a, chain[h + 1], c)
        steps.append(_checked_step(lam_labels[h], lam_rels[h], cur, nxt))
        cur = nxt
    blocks += 1
    # middle blocks: advance j_i inside the fixed outer j1(a, c, _)
    for i in range(2, k):
        ji = j[i - 1]
        for h in range(ell):
            nxt = j[0](a, c, ji(a, chain[h + 1], c))
            steps.append(_checked_step(lam_labels[h], lam_rels[h], cur, nxt))
            cur = nxt
        blocks += 1
    # tail blocks: advance the bare j_i
    for i in range(2, k):
        ji = j[i - 1]
        for h in range(ell):
            nxt = ji(a, chain[h + 1], c)
            steps.append(_checked_step(lam_labels[h], lam_rels[h], cur, nxt))
            cur = nxt
        blocks += 1
    if cur != c or blocks != 2 * k - 3:
        raise RuntimeError("internal error: witness chain did not terminate at c")
    return WitnessChain(a, c, tuple(steps), blocks)


def witness_turtt(alg, system, R, V, W, S, a, b, chain) -> WitnessChain:
    """Element chain landing (a,c) in R conv(R) cl(conv(V)|W) ; Lambda^(k-1);
    the simpler replay starting from a = p(a,b,b)."""
    c = _check_turt_instance(alg, system, R, V, W, S, a, b, chain)
    k, ell = system.k, len(S)
    j = [_fn3(alg, t) for t in system.j]

    theta = tolerance_of(alg, R)
    lam_rels = [intersect(theta, s) for s in S]
    lam_labels = [f"tol(R) & S{i}" for i in range(1, ell + 1)]
    head_rel = intersect(
        intersect(R, converse(R)), refl_adm_closure(alg, union(converse(V), W))
    )

    steps = []
    cur = a
    nxt = j[0](a, a, c)  # = p(a,a,c)
    steps.append(_checked_step("R & conv(R) & cl(conv(V)|W)", head_rel, cur, nxt))
    cur = nxt
    blocks = 0
    for i in range(1, k):
        ji = j[i - 1]
        for h in range(ell):
            nxt = ji(a, chain[h + 1], c)
            steps.append(_checked_step(lam_labels[h], lam_rels[h], cur, nxt))
            cur = nxt
        blocks += 1
    if cur != c or blocks != k - 1:
        raise RuntimeError("internal error: witness chain did not terminate at c")
    return WitnessChain(a, c, tuple(steps), blocks)


def witness_day(alg, system, theta, s_rel, a, b, c) -> WitnessChain:
    """Chain of at most k-1 steps alternating Theta&S and Theta&conv(S),
    for (a,c) in Theta & (S ; conv(S)) with midpoint b."""
    _require(verify_day(alg, system), "term system fails the Day identities")
    _require(theta.n == alg.size and s_rel.n == alg.size, "relation size mismatch")
    _require(is_tolerance(alg, theta), "Theta is not a tolerance")
    _require_refl_adm(alg, "S", s_rel)
    _require(theta.has(a, c), f"precondition (a,c)=({a},{c}) in Theta fails")
    _require(s_rel.has(a, b), f"precondition (a,b)=({a},{b}) in S fails")
    _require(s_rel.has(c, b), f"precondition (c,b)=({c},{b}) in conv(S) fails")
    k = system.k
    if k == 0:
        _require(a == c, "k=0 system only certifies a=c")
        return WitnessChain(a, c, (), None)
    d = [_fn4(alg, t) for t in system.d]
    fwd = intersect(theta, s_rel)
    bwd = intersect(theta, converse(s_rel))
    steps = []
    cur = a  # = d_1(a,a,c,c)
    for i in range(1, k):
        if i % 2 == 1:
            nxt = d[i](a, b, b, c)
            steps.append(_checked_step("Theta & S", fwd, cur, nxt))
        else:
            nxt = d[i](a, a, c, c)
            steps.append(_checked_step("Theta & conv(S)", bwd, cur, nxt))
        cur = nxt
    if cur != c:
        raise RuntimeError("internal error: witness chain did not terminate at c")
    return WitnessChain(a, c, tuple(steps), None)
