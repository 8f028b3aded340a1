"""Independent reference implementations used to cross-check the package:
pairs-set relation semantics, relation operators on row tuples, brute-force
lattice filters, a naive subpower closure and one in the documented
discovery order, term-level graph searches recomputed without the
production signatures, and term system certificates written straight from
the defining identities."""

from itertools import product
from operator import and_, or_

from relmod.algebras import Apply, Variable, eval_term, free_algebra, projection
from relmod.relations import RelKind


# --- naive pairs-set relation semantics --------------------------------------


def naive_compose(r_pairs, s_pairs):
    return {(a, c) for a, b in r_pairs for b2, c in s_pairs if b == b2}


def naive_star(r_pairs):
    cur = set(r_pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(cur):
            for b2, c in list(cur):
                if b == b2 and (a, c) not in cur:
                    cur.add((a, c))
                    changed = True
    return cur


def naive_plus(r_pairs, s_pairs):
    acc = set(r_pairs)
    cur = set(r_pairs)
    m = 1
    seen = {(frozenset(cur), m % 2)}
    while True:
        m += 1
        cur = naive_compose(cur, s_pairs if m % 2 == 0 else r_pairs)
        acc |= cur
        state = (frozenset(cur), m % 2)
        if state in seen:
            return acc
        seen.add(state)


# --- relation operators on row tuples ------------------------------------------
# A relation on n elements held as a tuple of n row bitmasks, bit b of row a
# set iff (a, b) is related; each operator is written from its definition,
# one row or one pair at a time.


def rows_compose(r, s):
    return tuple(
        sum(1 << c for c in range(len(r)) if any(m >> b & 1 and s[b] >> c & 1 for b in range(len(r))))
        for m in r
    )


def rows_converse(r):
    n = len(r)
    return tuple(sum(1 << a for a in range(n) if r[a] >> b & 1) for b in range(n))


def rows_intersect(r, s):
    return tuple(map(and_, r, s))


def rows_union(r, s):
    return tuple(map(or_, r, s))


def rows_m_compose(r, s, m):
    """r o s o r o ... with m factors, composed one factor at a time.  The
    product of the first i factors and the parity of i fix every later
    product, so once that state repeats the products repeat with the
    distance as period, and whole periods of the steps left are skipped."""
    out, i, seen = r, 1, {}
    while i < m and (out, i % 2) not in seen:
        seen[out, i % 2] = i
        i += 1
        out = rows_compose(out, s if i % 2 == 0 else r)
    if i < m:
        i = m - (m - i) % (i - seen[out, i % 2])
    while i < m:
        i += 1
        out = rows_compose(out, s if i % 2 == 0 else r)
    return out


def rows_star(r):
    """r | r;r | r;r;r | ..., until no power adds a pair."""
    cur = r
    while True:
        nxt = rows_union(cur, rows_compose(cur, r))
        if nxt == cur:
            return cur
        cur = nxt


def rows_plus(r, s):
    """The union over m >= 1 of r o_m s, until (r o_m s, m mod 2) repeats."""
    acc = cur = r
    m = 1
    seen = {(cur, 1)}
    while True:
        m += 1
        cur = rows_compose(cur, s if m % 2 == 0 else r)
        acc = rows_union(acc, cur)
        if (cur, m % 2) in seen:
            return acc
        seen.add((cur, m % 2))


def rows_issubset(r, s):
    return all(a & ~b == 0 for a, b in zip(r, s))


def rows_is_reflexive(r):
    return all(m >> a & 1 for a, m in enumerate(r))


def rows_is_symmetric(r):
    return r == rows_converse(r)


def rows_is_transitive(r):
    return rows_issubset(rows_compose(r, r), r)


def rows_first_missing_pair(lhs, rhs):
    """The least pair (a, b), row a first, of lhs outside rhs, or None."""
    for a, (m, k) in enumerate(zip(lhs, rhs)):
        for b in range(len(lhs)):
            if m >> b & 1 and not k >> b & 1:
                return (a, b)
    return None


def naive_admissible(alg, pairs):
    n = alg.size
    for op in alg.operations:
        if op.arity == 0:
            if (op.table[0], op.table[0]) not in pairs:
                return False
            continue
        for args in product(tuple(pairs), repeat=op.arity):
            i = j = 0
            for x, y in args:
                i = i * n + x
                j = j * n + y
            if (op.table[i], op.table[j]) not in pairs:
                return False
    return True


def brute_force_relations(alg, kind):
    """All relations of the given kind, by filtering every subset of AxA
    through the defining predicates: reflexive and admissible (REFL), also
    symmetric (TOL), also transitive (CON).  It reads all 2^(n*n) subsets,
    so it is for n <= 4."""
    n = alg.size
    all_pairs = [(a, b) for a in range(n) for b in range(n)]
    out = set()
    for bits in range(1 << (n * n)):
        pairs = {p for i, p in enumerate(all_pairs) if bits >> i & 1}
        if not all((a, a) in pairs for a in range(n)):
            continue
        if kind is not RelKind.REFL_ADM and any((b, a) not in pairs for a, b in pairs):
            continue
        if kind is RelKind.CONGRUENCE and not naive_compose(pairs, pairs) <= pairs:
            continue
        if naive_admissible(alg, pairs):
            out.add(frozenset(pairs))
    return out


def brute_force_refl_adm(alg):
    """All reflexive admissible relations."""
    return brute_force_relations(alg, RelKind.REFL_ADM)


# --- naive subpower closure ------------------------------------------------------


def naive_subuniverse(alg, width, generators):
    """The set of width-tuples generated by the generator tuples: a plain
    fixpoint that applies every operation to every argument tuple, read
    straight from the tables one coordinate at a time."""
    n = alg.size
    elems = {tuple(g) for g in generators}
    while True:
        new = set()
        for op in alg.operations:
            for args in product(elems, repeat=op.arity):
                out = []
                for coord in range(width):
                    code = 0
                    for vec in args:
                        code = code * n + vec[coord]
                    out.append(op.table[code])
                new.add(tuple(out))
        if new <= elems:
            return elems
        elems |= new


def ordered_subuniverse(alg, width, generators, stop=None):
    """The closure in generate_subuniverse's documented order, applying
    every operation to every argument tuple it is due, with no tuple
    skipped.  Each round takes the operations in turn: a nullary one in
    the first round only, and one of arity k to every k-tuple over the
    elements before the round with some coordinate in the frontier, the
    elements the last round added, grouped by the position r of the first
    such coordinate and in product order within each group.  A new vector
    gets the term of the tuple that first produced it.  stop is called as
    generate_subuniverse calls it, with the vectors as tuples.  Returns the
    vectors, as tuples, and their terms, both in discovery order."""
    n = alg.size
    vecs, terms, seen = [], [], set()

    def add(vec, term):
        if vec not in seen:
            seen.add(vec)
            vecs.append(vec)
            terms.append(term)

    for i, gen in enumerate(generators):
        add(tuple(gen), Variable(i))
    start, first = 0, True
    while True:
        end = len(vecs)
        for op in alg.operations:
            k = op.arity
            if k == 0:
                if first:
                    add((op.table[0],) * width, Apply(op.symbol, ()))
                continue
            for r in range(k):
                pools = [range(start)] * r + [range(start, end)] + [range(end)] * (k - 1 - r)
                for args in product(*pools):
                    out = []
                    for coord in range(width):
                        code = 0
                        for i in args:
                            code = code * n + vecs[i][coord]
                        out.append(op.table[code])
                    add(tuple(out), Apply(op.symbol, tuple(terms[i] for i in args)))
        first = False
        if len(vecs) == end or (stop is not None and stop(vecs)):
            return vecs, terms
        start = end


def naive_congruence(alg, pairs):
    """The least congruence containing a reflexive, symmetric set of pairs:
    the naive subuniverse and the naive transitive closure, alternated until
    stable."""
    cur = set(pairs)
    while True:
        nxt = naive_star(naive_subuniverse(alg, 2, cur))
        if nxt == cur:
            return cur
        cur = nxt


# --- independent term-graph searches ------------------------------------------


def dg_shortest(alg):
    """Minimal directed-Gumm k by brute-force term evaluation, or None."""
    n = alg.size
    free = free_algebra(alg, 3)

    def fn(e):
        return lambda x, y, z: eval_term(alg, e.term, (x, y, z))

    nodes = [e for e in free if all(fn(e)(a, b, a) == a for a in range(n) for b in range(n))]
    p_cands = [e for e in free if all(fn(e)(a, c, c) == a for a in range(n) for c in range(n))]
    sources = []
    for g in nodes:
        for q in p_cands:
            if all(fn(q)(a, a, c) == fn(g)(a, a, c) for a in range(n) for c in range(n)):
                sources.append(g)
                break
    edges = {
        u.vector: [
            v
            for v in nodes
            if all(fn(u)(a, c, c) == fn(v)(a, a, c) for a in range(n) for c in range(n))
        ]
        for u in nodes
    }
    target = projection(n, 3, 2).vector
    dist = {s.vector: 1 for s in sources}
    frontier = list(sources)
    while frontier:
        hits = [dist[u.vector] for u in frontier if u.vector == target]
        if hits:
            return min(hits)
        nxt = []
        for u in frontier:
            for v in edges[u.vector]:
                if v.vector not in dist:
                    dist[v.vector] = dist[u.vector] + 1
                    nxt.append(v)
        frontier = nxt
    return None


def day_shortest(alg):
    """Minimal Day k by brute-force parity BFS, or None."""
    n = alg.size
    free = free_algebra(alg, 4)

    def fn(e):
        return lambda x, y, z, w: eval_term(alg, e.term, (x, y, z, w))

    nodes = [e for e in free if all(fn(e)(a, b, b, a) == a for a in range(n) for b in range(n))]

    def agree_even(u, v):
        return all(fn(u)(a, a, c, c) == fn(v)(a, a, c, c) for a in range(n) for c in range(n))

    def agree_odd(u, v):
        return all(
            fn(u)(a, b, b, c) == fn(v)(a, b, b, c)
            for a in range(n)
            for b in range(n)
            for c in range(n)
        )

    start = next(e for e in nodes if e.vector == projection(n, 4, 0).vector)
    goal = projection(n, 4, 3).vector
    seen = {(start.vector, 0)}
    frontier = [start]
    level = 0
    while frontier:
        if any(u.vector == goal for u in frontier):
            return level
        agree = agree_even if level % 2 == 0 else agree_odd
        nxt = []
        for u in frontier:
            for v in nodes:
                if agree(u, v) and (v.vector, (level + 1) % 2) not in seen:
                    seen.add((v.vector, (level + 1) % 2))
                    nxt.append(v)
        frontier = nxt
        level += 1
    return None


# --- term system certificates ------------------------------------------------------


def dg_system_holds(alg, system):
    """The directed Gumm identities for p, j_1..j_k, by term evaluation at
    every tuple."""
    n, terms = alg.size, system.terms
    if len(terms) < 2:
        return False
    p, j = terms[0], terms[1:]

    def ev(t, *args):
        return eval_term(alg, t, args)

    for x, y, z in product(range(n), repeat=3):
        if ev(p, x, z, z) != x or ev(p, x, x, z) != ev(j[0], x, x, z):
            return False
        if any(ev(t, x, y, x) != x for t in j) or ev(j[-1], x, y, z) != z:
            return False
        if any(ev(j[i], x, z, z) != ev(j[i + 1], x, x, z) for i in range(len(j) - 1)):
            return False
    return True


def day_system_holds(alg, system):
    """The Day identities for d_0..d_k, by term evaluation at every tuple."""
    n, d = alg.size, system.terms
    if not d:
        return False

    def ev(t, *args):
        return eval_term(alg, t, args)

    for x, y, z, w in product(range(n), repeat=4):
        if ev(d[0], x, y, z, w) != x or ev(d[-1], x, y, z, w) != w:
            return False
        if any(ev(t, x, y, y, x) != x for t in d):
            return False
        for i in range(len(d) - 1):
            args = (x, x, w, w) if i % 2 == 0 else (x, y, y, w)
            if ev(d[i], *args) != ev(d[i + 1], *args):
                return False
    return True
