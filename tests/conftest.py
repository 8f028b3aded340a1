import importlib.util
import pathlib
import sys

import pytest

from relmod import corpus

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
