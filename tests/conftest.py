import numpy as np
import pytest
from hypothesis import settings

from stabscape import get_code

# Fixed examples on every checkout: no wall-clock deadline (shared machines
# stall), a derandomized search, and no example database carried between runs.
settings.register_profile("stabscape", deadline=None, derandomize=True, database=None)
settings.load_profile("stabscape")


@pytest.fixture(scope="session")
def cubic4():
    return get_code("cubic1", 4)


@pytest.fixture(scope="session")
def cubic8():
    return get_code("cubic1", 8)


@pytest.fixture(scope="session")
def toric3():
    return get_code("toric2d", 3)


@pytest.fixture(scope="session")
def toric4():
    return get_code("toric2d", 4)


@pytest.fixture(scope="session")
def rep5():
    return get_code("rep1d", 5)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_operator(code, rng, max_terms=6):
    from stabscape.lattice import QubitIndex
    from stabscape.pauli import PauliOperator

    g = code.geometry
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        site = tuple(int(c) for c in rng.integers(0, g.L, size=g.D))
        terms.append((QubitIndex(site, int(rng.integers(0, g.q))), "XYZ"[int(rng.integers(0, 3))]))
    return PauliOperator.from_terms(g, terms)


def retired_dense_run(geometry, cubes, params):
    """The retired per-level loop: ``cluster_partition`` at p = 0, 1, ...
    until sparse (test oracle for ``dense_runs``)."""
    from stabscape.defects import cluster_partition

    p = 0
    while not cluster_partition(geometry, cubes, p, params).sparse:
        p += 1
    return p - 1
