import hashlib
import pathlib
import re
from itertools import product

from relmod.algebras import dump_algebra, load_algebra
from relmod.corpus import builtin, builtin_json, builtin_names

ROOT = pathlib.Path(__file__).resolve().parents[1]

LATTICES = ("l2", "l3", "l4", "m3", "n5")


def table_fn(alg, symbol):
    op = alg.operation(symbol)

    def fn(*args):
        code = 0
        for a in args:
            code = code * alg.size + a
        return op.table[code]

    return fn


def test_names():
    assert builtin_names() == [
        "imp2", "l2", "l3", "l4", "m3", "n5", "s3", "sl2", "sl3", "sl4", "z2", "z2xz2", "z3m", "z4", "z6"
    ]


def test_first_corpus_json_pinned():
    # the file text of the six algebras the corpus first held, pinned before
    # their hand-written tables gave way to the shared builders
    pinned = {
        "l2": "b0bf2c1235b1ee6dd5e62edf162b85d00452505a262327f152fe587f51473185",
        "m3": "edcfcfbe9b8b23c0cc1f4782039b5c7b84933e829525d5ab7171fb8683926251",
        "sl2": "6ea10e71373a3d0a5d5092247cca11680940fe89f50d21bafcbdb272c7f7ac5d",
        "sl3": "e147edc3354258e278657b8ebb54e4beea9a3298304e6fc4fba5dd0dd57a9670",
        "z2": "14ab12780aafa95ac49a0ac1eab44185f2df65d91b54a85667e1f04ea800187c",
        "z2xz2": "22f041cf021bf22e9c28c51bbd67b437b5ed83147e52e09e57c8d1929b1f43bd",
    }
    assert {name: hashlib.sha256(builtin_json(name).encode()).hexdigest() for name in pinned} == pinned


def test_bench_algebras_are_the_corpus(bench_workloads):
    # the benchmark builds some algebras itself; each must dump as the
    # corpus algebra of its name does
    assert bench_workloads._BUILT
    for name in bench_workloads._BUILT:
        assert dump_algebra(bench_workloads.base_algebra(name)) == builtin_json(name), name


def test_readme_lists_the_corpus():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    bullet = re.search(r"^- `relmod\.corpus` - (.*?)\n(?=- |\n)", readme, re.M | re.S)
    assert bullet is not None
    assert sorted(re.findall(r"`([^`]+)`", bullet.group(1))) == builtin_names()


def test_builtin_is_built_once():
    assert builtin("n5") is builtin("n5")


def test_json_round_trip():
    for name in builtin_names():
        again = load_algebra(builtin_json(name))
        assert again.name == name
        assert again.size == builtin(name).size
        assert again.operations == builtin(name).operations


def test_semilattice_laws():
    for name in ("sl2", "sl3", "sl4"):
        alg = builtin(name)
        meet = table_fn(alg, "meet")
        for a, b, c in product(range(alg.size), repeat=3):
            assert meet(a, b) == meet(b, a)
            assert meet(a, meet(b, c)) == meet(meet(a, b), c)
            assert meet(a, a) == a


def test_group_laws():
    for name, symbol in (("z2", "xor"), ("z2xz2", "xor"), ("z4", "add"), ("z6", "add"), ("s3", "mul")):
        alg = builtin(name)
        mul = table_fn(alg, symbol)
        elements = range(alg.size)
        for a, b, c in product(elements, repeat=3):
            assert mul(a, mul(b, c)) == mul(mul(a, b), c)
        (unit,) = [e for e in elements if all(mul(e, a) == a == mul(a, e) for a in elements)]
        assert unit == 0
        assert all(any(mul(a, b) == unit for b in elements) for a in elements)
        abelian = all(mul(a, b) == mul(b, a) for a, b in product(elements, repeat=2))
        assert abelian == (name != "s3")
    s3 = builtin("s3")
    mul, inv = table_fn(s3, "mul"), table_fn(s3, "inv")
    assert all(mul(a, inv(a)) == 0 == mul(inv(a), a) for a in range(s3.size))


def test_lattice_laws():
    for name in LATTICES:
        alg = builtin(name)
        meet = table_fn(alg, "meet")
        join = table_fn(alg, "join")
        for a, b, c in product(range(alg.size), repeat=3):
            assert meet(a, b) == meet(b, a) and join(a, b) == join(b, a)
            assert meet(a, meet(b, c)) == meet(meet(a, b), c)
            assert join(a, join(b, c)) == join(join(a, b), c)
            assert meet(a, join(a, b)) == a and join(a, meet(a, b)) == a


def test_m3_is_not_distributive():
    m3 = builtin("m3")
    meet = table_fn(m3, "meet")
    join = table_fn(m3, "join")
    assert meet(1, join(2, 3)) != join(meet(1, 2), meet(1, 3))


def test_n5_alone_fails_the_modular_law():
    # a <= c implies a | (b & c) = (a | b) & c
    for name in LATTICES:
        alg = builtin(name)
        meet = table_fn(alg, "meet")
        join = table_fn(alg, "join")
        modular = all(
            join(a, meet(b, c)) == meet(join(a, b), c)
            for a, b, c in product(range(alg.size), repeat=3)
            if meet(a, c) == a
        )
        assert modular == (name != "n5"), name


def test_z3m_is_a_maltsev_algebra():
    alg = builtin("z3m")
    m = table_fn(alg, "m")
    for x, y in product(range(alg.size), repeat=2):
        assert m(x, x, y) == y == m(y, x, x)
