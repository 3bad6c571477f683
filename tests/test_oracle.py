"""Brute-force barrier and distance oracles on hand-checkable instances."""

import gc
import weakref

import pytest

from stabscape import get_code
from stabscape.lattice import QubitIndex
from stabscape.oracle import (
    BarrierResult,
    SearchBudget,
    canonicalize,
    code_distance,
    min_barrier_cluster,
    min_barrier_logical,
)
from stabscape.pauli import PauliOperator
from stabscape.paths import energy_profile, pyramid_operator

from conftest import random_operator

# Frozen by exhaustive enumeration on first run (see test below): the L=2
# cubic instance has a weight-2 logical, and the level-1 pyramid class has
# minimal barrier 4 (every single-qubit error already creates 4 defects).
CUBIC_L2_DISTANCE = 2
CUBIC_L2_PYRAMID_BARRIER = 4


def all_x(code):
    g = code.geometry
    return PauliOperator.from_terms(g, [(g.qubit_at(j), "X") for j in range(g.n_qubits)])


def test_canonicalize_stabilizers_to_zero(cubic4):
    assert canonicalize(cubic4, PauliOperator.identity(cubic4.geometry)) == 0
    assert canonicalize(cubic4, cubic4.generator((1, 2, 3), 0)) == 0
    prod = cubic4.generator((0, 0, 0), 0) * cubic4.generator((1, 1, 1), 1)
    assert canonicalize(cubic4, prod) == 0


def test_canonicalize_constant_on_cosets(cubic4, rng):
    for _ in range(50):
        e = random_operator(cubic4, rng)
        gen = cubic4.generator(
            tuple(int(c) for c in rng.integers(0, 4, size=3)), int(rng.integers(0, 2))
        )
        assert canonicalize(cubic4, e) == canonicalize(cubic4, e * gen)


def test_canonicalize_homologous_strings_match(toric4):
    g = toric4.geometry
    short = PauliOperator.from_terms(g, [(QubitIndex((x, 1), 1), "X") for x in (1, 2)])
    around = PauliOperator.from_terms(g, [(QubitIndex((x % 4, 1), 1), "X") for x in (3, 0)])
    assert toric4.syndrome_of(short) == toric4.syndrome_of(around)
    assert canonicalize(toric4, short) != canonicalize(toric4, around)  # differ by a logical
    deformed = short * toric4.generator((1, 1), 0)  # multiply by a plaquette
    assert canonicalize(toric4, short) == canonicalize(toric4, deformed)


def test_canonicalize_is_linear(cubic4, rng):
    # key of a product depends only on the factors' keys (coset homomorphism)
    space_key = lambda e: canonicalize(cubic4, e)
    for _ in range(1000):
        a, b = random_operator(cubic4, rng), random_operator(cubic4, rng)
        assert space_key(a * b) == space_key(a) ^ space_key(b)


def test_barrier_identity_target(cubic4):
    res = min_barrier_logical(cubic4, PauliOperator.identity(cubic4.geometry))
    assert res.omega == 0 and res.exact
    assert len(res.witness) == 0


def test_barrier_rejects_detectable_target(cubic4):
    bad = PauliOperator.single(cubic4.geometry, QubitIndex((0, 0, 0), 0), "X")
    with pytest.raises(ValueError):
        min_barrier_logical(cubic4, bad)


def test_rep4_all_x_barrier_is_two():
    code = get_code("rep1d", 4)
    res = min_barrier_logical(code, all_x(code))
    assert res.exact and res.omega == 2


def test_toric3_string_barrier_is_two(toric3):
    g = toric3.geometry
    xstring = PauliOperator.from_terms(g, [(QubitIndex((x, 0), 1), "X") for x in range(3)])
    res = min_barrier_logical(toric3, xstring)
    assert res.exact and res.omega == 2


def test_witness_reruns_to_claimed_barrier(toric3):
    g = toric3.geometry
    xstring = PauliOperator.from_terms(g, [(QubitIndex((x, 0), 1), "X") for x in range(3)])
    res = min_barrier_logical(toric3, xstring)
    prof = energy_profile(toric3, res.witness)
    assert prof.barrier == res.omega  # minimality forces an exact peak
    assert canonicalize(toric3, res.witness.product(toric3)) == canonicalize(toric3, xstring)


def test_barrier_monotone_under_higher_ceiling(toric3):
    g = toric3.geometry
    xstring = PauliOperator.from_terms(g, [(QubitIndex((x, 0), 1), "X") for x in range(3)])
    exact = min_barrier_logical(toric3, xstring).omega
    deep = min_barrier_logical(toric3, xstring, SearchBudget(omega_max=exact + 3))
    assert deep.omega == exact


def test_cluster_barrier_empty_target(toric3):
    res = min_barrier_cluster(toric3, frozenset())
    assert res.omega == 0 and len(res.witness) == 0


def test_cluster_barrier_toric_pair(toric3):
    z = toric3.species_index("z")
    res = min_barrier_cluster(toric3, {((0, 0), z), ((1, 0), z)})
    assert res.exact and res.omega == 2
    assert len(res.witness) == 1  # one bit flip creates exactly the pair


def test_cluster_barrier_unreachable_single_defect(toric3):
    res = min_barrier_cluster(toric3, {((0, 0), toric3.species_index("z"))})
    assert res.status == "unreachable"


def test_cluster_barrier_cubic_pyramid():
    code = get_code("cubic1", 2)
    S = code.syndrome_of(PauliOperator.single(code.geometry, QubitIndex((1, 1, 1), 0), "X"))
    res = min_barrier_cluster(code, S)
    assert res.exact and res.omega == 4
    assert len(res.witness) == 1


def test_budget_exhaustion_reports_ruled_out(toric3):
    g = toric3.geometry
    xstring = PauliOperator.from_terms(g, [(QubitIndex((x, 0), 1), "X") for x in range(3)])
    res = min_barrier_logical(toric3, xstring, SearchBudget(omega_max=1))
    assert res.status == "budget_exhausted"
    assert res.omega is None and res.ruled_out == 1


def test_cubic_l2_oracle_fixtures():
    code = get_code("cubic1", 2)
    target = pyramid_operator(code, 1, (1, 1, 1))
    res = min_barrier_logical(code, target, SearchBudget(state_cap=10_000_000))
    assert res.exact
    assert res.omega == CUBIC_L2_PYRAMID_BARRIER
    assert res.omega <= 8  # must not exceed the constructed path's barrier
    dist = code_distance(code)
    assert dist.status == "exact" and dist.d == CUBIC_L2_DISTANCE
    w = dist.witness
    assert w.weight == dist.d
    assert code.syndrome_of(w) == frozenset()
    assert not code.in_stabilizer_group(w)


def test_distance_rep5_is_classical_five(rep5):
    res = code_distance(rep5)
    assert res.status == "exact" and res.d == 5
    assert res.skipped_diagonal_classes == 1  # the diagonal class acts trivially
    assert res.witness.weight == 5


def test_distance_toric3_is_three(toric3):
    res = code_distance(toric3)
    assert res.status == "exact" and res.d == 3
    assert res.classes_enumerated == 15
    w = res.witness
    assert toric3.syndrome_of(w) == frozenset()
    assert not toric3.in_stabilizer_group(w)


def test_distance_budget_exhausted(toric3):
    res = code_distance(toric3, SearchBudget(state_cap=100))
    assert res.status == "budget_exhausted"
    assert res.d is None and res.d_upper is not None


def test_searched_code_is_freed():
    """The coset space lives on the code, so a searched code is not pinned."""
    code = get_code("rep1d", 4)
    assert min_barrier_logical(code, all_x(code)).omega == 2
    ref = weakref.ref(code)
    del code
    gc.collect()
    assert ref() is None
