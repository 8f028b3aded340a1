"""Built-in example algebras shared by the CLI and the test-suite.

Each algebra is built from its operation tables on its first `builtin` call
and kept, so its relation-lattice caches are reused across calls and a
process builds only the algebras it names.
"""

from __future__ import annotations

import itertools
import operator

from .algebras import FiniteAlgebra, dump_algebra


def _table(n, arity, fn):
    return [fn(*args) for args in itertools.product(range(n), repeat=arity)]


def _lattice(n, leq):
    """Meet and join of the lattice ordered by leq(a, b) on {0..n-1}."""

    def glb(below):
        def bound(a, b):
            lower = [c for c in range(n) if below(c, a) and below(c, b)]
            return next(c for c in lower if all(below(d, c) for d in lower))

        return bound

    return [("meet", 2, _table(n, 2, glb(leq))), ("join", 2, _table(n, 2, glb(lambda a, b: leq(b, a))))]


def _m3_leq(a, b):
    # M3: bottom 0, atoms 1..3, top 4
    return a == b or a == 0 or b == 4


def _n5_leq(a, b):
    # N5: 0 < 1 < 2 < 4 and 0 < 3 < 4, with 3 incomparable to 1 and 2
    return _m3_leq(a, b) or (a, b) == (1, 2)


def _symmetric3(_):
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    mul = [index[tuple(p[q[i]] for i in range(3))] for p in perms for q in perms]
    inv = [index[tuple(sorted(range(3), key=p.__getitem__))] for p in perms]
    return [("mul", 2, mul), ("inv", 1, inv)]


def _chain(n):
    return _lattice(n, operator.le)


def _semilattice(n):
    return [("meet", 2, _table(n, 2, min))]


def _xor(n):
    return [("xor", 2, _table(n, 2, operator.xor))]


def _cyclic(n):
    return [("add", 2, _table(n, 2, lambda x, y: (x + y) % n))]


# name -> (size, the operations of the algebra of that size)
_BUILDERS = {
    "imp2": (2, lambda n: [("imp", 2, _table(n, 2, lambda x, y: int(not x or y)))]),
    "l2": (2, _chain),
    "l3": (3, _chain),
    "l4": (4, _chain),
    "m3": (5, lambda n: _lattice(n, _m3_leq)),
    "n5": (5, lambda n: _lattice(n, _n5_leq)),
    "s3": (6, _symmetric3),
    "sl2": (2, _semilattice),
    "sl3": (3, _semilattice),
    "sl4": (4, _semilattice),
    "z2": (2, _xor),
    "z2xz2": (4, _xor),
    "z3m": (3, lambda n: [("m", 3, _table(n, 3, lambda x, y, z: (x - y + z) % n))]),
    "z4": (4, _cyclic),
    "z6": (6, _cyclic),
}

_BUILT = {}


def builtin_names():
    return sorted(_BUILDERS)


def builtin(name: str) -> FiniteAlgebra:
    alg = _BUILT.get(name)
    if alg is None:
        try:
            size, operations = _BUILDERS[name]
        except KeyError:
            raise KeyError(f"unknown built-in algebra {name!r}; have {builtin_names()}") from None
        alg = _BUILT[name] = FiniteAlgebra(name, size, operations(size))
    return alg


def builtin_json(name: str) -> str:
    """File-format text for a built-in algebra."""
    return dump_algebra(builtin(name))
