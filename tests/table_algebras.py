"""Algebras outside the corpus that several test modules share, each built
from its operation tables: the chain lattice l_n, the pentagon N5, the
symmetric group S3 and the Maltsev algebra of Z3."""

import itertools

from relmod.algebras import FiniteAlgebra


def table(n, arity, fn):
    return [fn(*args) for args in itertools.product(range(n), repeat=arity)]


def chain_lattice(n):
    return FiniteAlgebra(f"l{n}", n, [("meet", 2, table(n, 2, min)), ("join", 2, table(n, 2, max))])


def pentagon():
    # N5: 0 < 1 < 2 < 4 and 0 < 3 < 4, with 3 incomparable to 1 and 2
    below = {(a, b) for a in range(5) for b in range(5) if a == b or a == 0 or b == 4}
    below.add((1, 2))

    def meet(a, b):
        lower = [c for c in range(5) if (c, a) in below and (c, b) in below]
        return next(c for c in lower if all((d, c) in below for d in lower))

    def join(a, b):
        upper = [c for c in range(5) if (a, c) in below and (b, c) in below]
        return next(c for c in upper if all((c, d) in below for d in upper))

    return FiniteAlgebra("n5", 5, [("meet", 2, table(5, 2, meet)), ("join", 2, table(5, 2, join))])


def symmetric3():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    mul = [index[tuple(p[q[i]] for i in range(3))] for p in perms for q in perms]
    inv = [index[tuple(sorted(range(3), key=p.__getitem__))] for p in perms]
    return FiniteAlgebra("s3", 6, [("mul", 2, mul), ("inv", 1, inv)])


def z3_maltsev():
    return FiniteAlgebra("z3m", 3, [("m", 3, table(3, 3, lambda x, y, z: (x - y + z) % 3))])
