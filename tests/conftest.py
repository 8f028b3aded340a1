import importlib.util
import pathlib
import sys

import pytest

from relmod import corpus, identities, relations

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def bench_workloads(monkeypatch):
    """bench/workloads.py, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up while it builds the module's classes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.fixture(autouse=True)
def empty_code_store(monkeypatch):
    """An empty store of compiled checks for each test, so what a test
    compiles does not depend on the tests run before it."""
    monkeypatch.setattr(identities, "_CODE", {})


@pytest.fixture
def patch_kernel(monkeypatch):
    """patch_kernel(name, fn) replaces the relations kernel `name` by fn for
    the test: in the module, which the kernels call each other through,
    and in every identities._OPS row that holds it, which checks call."""

    def patch(name, fn):
        old = getattr(relations, name)
        monkeypatch.setattr(relations, name, fn)
        for spelling, op in identities._OPS.items():
            if op.kernel is old:
                monkeypatch.setitem(identities._OPS, spelling, op._replace(kernel=fn))

    return patch


@pytest.fixture(scope="session")
def sl2():
    return corpus.builtin("sl2")


@pytest.fixture(scope="session")
def z2():
    return corpus.builtin("z2")


@pytest.fixture(scope="session")
def l2():
    return corpus.builtin("l2")


@pytest.fixture(scope="session")
def z2xz2():
    return corpus.builtin("z2xz2")


@pytest.fixture(scope="session")
def sl3():
    return corpus.builtin("sl3")


@pytest.fixture(scope="session")
def m3():
    return corpus.builtin("m3")
