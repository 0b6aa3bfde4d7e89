import itertools
import os
from pathlib import Path

import pytest

from hyperec import builders, designs, galois, new_hypergraph

DATA = Path(__file__).parent / "data"


def rook_graph():
    """Two vertices of a 3x3 array joined when they share a row or column."""
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(9), 2)
        if i // 3 == j // 3 or i % 3 == j % 3
    ]
    return new_hypergraph(2, 9, edges)


@pytest.fixture
def bounded_factoring(monkeypatch):
    """Every binding of ``prime_power`` fails on an n above 2^32, whose trial
    division could run for minutes, so a caller that factors an order before
    it bounds it fails at once."""
    real = galois.prime_power

    def bounded(n):
        assert n <= 2**32, f"prime_power({n}) called before the order was bounded"
        return real(n)

    monkeypatch.setattr(galois, "prime_power", bounded)
    if hasattr(designs, "prime_power"):
        monkeypatch.setattr(designs, "prime_power", bounded)


@pytest.fixture
def forks(monkeypatch):
    """The ``os.fork`` calls of this process, listed as they happen; at the
    end of the test it has no child left, running or unreaped."""
    calls, fork = [], os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def two_triple():
    return new_hypergraph(3, 4, [(0, 1, 2), (0, 2, 3)])


@pytest.fixture(scope="session")
def k3k3():
    return rook_graph()


@pytest.fixture(scope="session")
def fig5_path():
    return str(DATA / "fig5.txt")


@pytest.fixture(scope="session")
def k3k3_path():
    return str(DATA / "k3k3.txt")


@pytest.fixture(scope="session")
def fano():
    return designs.fano()


@pytest.fixture(scope="session")
def pg2():
    return designs.projective_plane(2)


@pytest.fixture(scope="session")
def pg3():
    return designs.projective_plane(3)


@pytest.fixture(scope="session")
def pg4():
    return designs.projective_plane(4)


@pytest.fixture(scope="session")
def inv3():
    return designs.inversive_plane(3)


@pytest.fixture(scope="session")
def inv4():
    return designs.inversive_plane(4)


@pytest.fixture(scope="session")
def inv5():
    return designs.inversive_plane(5)


@pytest.fixture(scope="session")
def mols4_build():
    return builders.build_from_mols(designs.complete_mols(4))


@pytest.fixture(scope="session")
def mols5_build():
    return builders.build_from_mols(designs.complete_mols(5))


@pytest.fixture(scope="session")
def mols7_build():
    return builders.build_from_mols(designs.complete_mols(7))


@pytest.fixture(scope="session")
def mols8_build():
    """h = 7, m = 64: its 2016-set shadow is within ``MAX_SETS``, its complement is not."""
    return builders.build_from_mols(designs.complete_mols(8))
