"""Brute-force barrier and distance oracles on hand-checkable instances."""

import gc
import itertools
import math
import weakref
from collections import deque
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabscape import get_code, gf2, oracle
from stabscape.codes import CodeSpec, InputError, build_code
from stabscape.lattice import QubitIndex
from stabscape.oracle import (
    BarrierResult,
    CosetSpace,
    SearchBudget,
    _search_pass,
    code_distance,
    coset_space,
    min_barrier_cluster,
    min_barrier_logical,
)
from stabscape.pauli import PauliOperator
from stabscape.paths import ErrorPath, energy_profile, pyramid_operator

from conftest import canonicalize, random_operator, reference_classical, reference_syndrome_matrix, to_int

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


def test_cluster_barrier_reads_defects_modulo_L(toric3):
    """A wrapped duplicate is one defect: it neither raises the floor nor
    changes the target.  A species the code lacks is an input error, not
    another generator."""
    res = min_barrier_cluster(toric3, [((0, 0), 0), ((0, 1), 0), ((0, 3), 0)])
    assert res.exact and res.omega == 2 == energy_profile(toric3, res.witness).barrier
    with pytest.raises(InputError):
        min_barrier_cluster(toric3, [((0, 0), 2), ((0, 1), 2)])


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


# -- the retired int routine: the reference for the word-array distance ----------


def reference_class_reps(code):
    """Greedy residue loop: a centralizer row is kept when its residue modulo
    the stabilizers does not reduce to zero against the kept residues."""
    centralizer = gf2.nullspace(reference_syndrome_matrix(code))
    rref, pivots = code.stabilizer_rref()
    by_high, reps = {}, []
    for row in centralizer.words:
        residue = to_int(gf2.reduce_by_rref(rref, pivots, row.copy()))
        while residue:
            high = residue.bit_length() - 1
            if high not in by_high:
                by_high[high] = residue
                reps.append(to_int(row))
                break
            residue ^= by_high[high]
    return reps


def reference_gray(basis):
    """Subset XORs in Gray-code order, one XOR per element."""
    out = [0]
    for i in range(1, 1 << len(basis)):
        out.append(out[-1] ^ basis[(i & -i).bit_length() - 1])
    return out


def reference_distance(code, state_cap):
    """(d, status, classes, elements, skipped, d_upper) by Gray enumeration
    of Python-int classes against a uint64 stabilizer table."""
    n = code.n_qubits
    mask = (1 << n) - 1
    weight = lambda v: ((v & mask) | (v >> n)).bit_count()
    classical_z, classical_x = reference_classical(code)
    skip = lambda v: (classical_z and v & mask == 0) or (classical_x and v >> n == 0)
    reps = reference_class_reps(code)
    stab_basis = [to_int(row) for row in code.stabilizer_rref()[0].words]
    if (1 << len(reps)) * (1 << len(stab_basis)) > state_cap:
        return None, "budget_exhausted", 0, 0, 0, min((weight(r) for r in reps if not skip(r)), default=None)
    assert 2 * n <= 63
    stab = np.array(reference_gray(stab_basis), dtype=np.uint64)
    best = None
    skipped = classes = 0
    for cls in reference_gray(reps)[1:]:
        if skip(cls):
            skipped += 1
            continue
        classes += 1
        coset = stab ^ np.uint64(cls)
        weights = np.bitwise_count((coset & np.uint64(mask)) | (coset >> np.uint64(n)))
        best = int(weights.min()) if best is None else min(best, int(weights.min()))
    return best, "exact", classes, classes * len(stab), skipped, best


# xrep1d: the XX repetition code, the one classical-X instance (its Z-free classes are skipped)
XREP_SPEC = '{"name": "xrep1d", "D": 1, "q": 1, "species": [{"name": "x", "offsets": [[0], [1]], "labels": ["X", "X"]}]}'
DISTANCE_CODES = [("rep1d", L) for L in range(2, 9)] + [("xrep1d", 3), ("xrep1d", 6)]
DISTANCE_CODES += [("toric2d", 2), ("toric2d", 3), ("cubic1", 2), ("toric3d", 2)]


@lru_cache(maxsize=None)
def distance_code(name, L):
    return build_code(CodeSpec.from_json(XREP_SPEC), L) if name == "xrep1d" else engine_code(name, L)


@pytest.mark.parametrize("name_L", DISTANCE_CODES)
def test_logical_class_reps_match_greedy_residue_loop(name_L):
    code = distance_code(*name_L)
    reps = code.logical_basis()
    assert reps.dtype == np.uint64 and len(reps) == 2 * code.k
    assert [to_int(row) for row in reps] == reference_class_reps(code)


@pytest.mark.parametrize("name_L", DISTANCE_CODES)
@settings(max_examples=6)
@given(cap=st.integers(1, 2**12))
def test_distance_matches_retired_int_routine(name_L, cap):
    """The default cap, and a small one that often leaves only ``d_upper``."""
    code = distance_code(*name_L)
    for state_cap in (SearchBudget().state_cap, cap):
        d, status, classes, elements, skipped, d_upper = reference_distance(code, state_cap)
        res = code_distance(code, SearchBudget(state_cap=state_cap))
        assert (res.d, res.status, res.classes_enumerated, res.elements_enumerated) == (d, status, classes, elements)
        assert (res.skipped_diagonal_classes, res.d_upper) == (skipped, d_upper)
        if d is None:
            assert res.witness is None
        else:
            assert res.witness.weight == d
            assert code.syndrome_of(res.witness) == frozenset()
            assert not code.in_stabilizer_group(res.witness)


def test_searched_code_is_freed():
    """The coset space and the logical basis live on the code, so a searched
    code is not pinned."""
    code = get_code("rep1d", 4)
    assert min_barrier_logical(code, all_x(code)).omega == 2
    assert code_distance(code).d == 4 and code._logical_basis is code.logical_basis()
    ref = weakref.ref(code)
    del code
    gc.collect()
    assert ref() is None


def test_passes_sum_to_states_visited(toric3):
    g = toric3.geometry
    xstring = PauliOperator.from_terms(g, [(QubitIndex((x, 0), 1), "X") for x in range(3)])
    for budget in (SearchBudget(), SearchBudget(state_cap=40), SearchBudget(omega_max=1)):
        res = min_barrier_logical(toric3, xstring, budget)
        assert sum(states for _, states, _ in res.passes) == res.states_visited
        assert [omega for omega, _, _ in res.passes] == list(range(len(res.passes)))
        assert all(1 <= peak <= states for _, states, peak in res.passes)
    cluster = min_barrier_cluster(toric3, {((0, 0), 0), ((1, 0), 0)})
    assert cluster.passes[0][0] == 2 and sum(p[1] for p in cluster.passes) == cluster.states_visited


def test_time_cap_ends_search_as_budget_exhausted():
    code = get_code("toric2d", 5)
    g = code.geometry
    xstring = PauliOperator.from_terms(g, [(QubitIndex((x, 0), 1), "X") for x in range(5)])
    res = min_barrier_logical(code, xstring, SearchBudget(time_cap=1e-9))
    assert res.status == "budget_exhausted" and res.omega is None


def test_zero_time_cap_trips_at_the_first_check(toric3, monkeypatch):
    """``time_cap=0`` is a cap that has already run out, as in the string
    scan, not "no cap": the search ends at its first clock check."""
    ticks = itertools.count()
    monkeypatch.setattr(oracle.time, "monotonic", lambda: next(ticks))
    g = toric3.geometry
    xstring = PauliOperator.from_terms(g, [(QubitIndex((x, 0), 1), "X") for x in range(3)])
    res = min_barrier_logical(toric3, xstring, SearchBudget(time_cap=0))
    assert res.status == "budget_exhausted" and res.omega is None


@pytest.mark.parametrize("name_L", [("rep1d", 8), ("toric2d", 3), ("cubic1", 2)])
def test_capped_upper_bound_is_at_least_the_distance(name_L):
    """``d_upper`` comes only from class generators the enumeration keeps, so
    on a classical code the skipped diagonal ones cannot pull it below d."""
    code = distance_code(*name_L)
    capped = code_distance(code, SearchBudget(state_cap=100))
    assert capped.status == "budget_exhausted"
    assert capped.d_upper >= code_distance(code).d


def test_distance_time_cap_ends_enumeration_with_an_upper_bound(toric3, monkeypatch):
    """The distance enumeration checks its deadline before each (class,
    stabilizer) block.  Cut before the first block, it bounds d by the class
    generators, as a refused enumeration does; cut after one, by the lightest
    element of that block."""
    exact = code_distance(toric3)
    generator_bound = code_distance(toric3, SearchBudget(state_cap=1)).d_upper
    ticks = itertools.count()
    monkeypatch.setattr(oracle.time, "monotonic", lambda: next(ticks))
    res = code_distance(toric3, SearchBudget(time_cap=0))
    assert (res.status, res.d, res.d_upper) == ("budget_exhausted", None, generator_bound)
    readings = iter([0.0, 0.0])  # the deadline, then the first block's check
    monkeypatch.setattr(oracle.time, "monotonic", lambda: next(readings, 10.0))
    res = code_distance(toric3, SearchBudget(time_cap=1.0))
    assert (res.status, res.d) == ("budget_exhausted", None) and res.d_upper >= exact.d


def xstring_search(L, budget=None):
    """The toric2d X-string barrier search, each ``_fresh`` call recorded as
    (the level's ``seen`` index, candidates, new states)."""
    code = get_code("toric2d", L)
    xstring = PauliOperator.from_terms(code.geometry, [(QubitIndex((x, 0), 1), "X") for x in range(L)])
    calls, fresh = [], oracle._fresh

    def spy(indexes, fps, states):
        out = fresh(indexes, fps, states)
        calls.append((indexes[0], len(fps), len(out)))
        return out

    with mock.patch.object(oracle, "_fresh", spy):
        return min_barrier_logical(code, xstring, budget), calls, coset_space(code).move_dstate.shape[1]


def test_dedup_runs_once_per_level_and_full_block():
    """Ceiling-passing candidates wait for a full dedup block of ``BLOCK``
    state words or the level's end: one ``_fresh`` call per BFS level plus one
    per full block.  The passes below omega 2 enter no state, and the goal
    lies as many levels deep as the witness has steps."""
    res, calls, words = xstring_search(7)
    assert res.omega == 2 and [states for _, states, _ in res.passes[:2]] == [1, 1]
    assert all(n * words <= oracle.BLOCK for _, n, _ in calls)
    levels = len(res.witness.sites)
    assert len(calls) <= levels + sum(n for _, n, _ in calls) * words // oracle.BLOCK


def test_time_cap_trips_inside_a_level_of_several_dedup_blocks(monkeypatch):
    """The deadline is read once per dedup block that enters states.  A clock
    that jumps past the cap at a block with more of its level still to come
    ends the search there, with that block's states counted."""
    with mock.patch.object(oracle, "BLOCK", 64):
        _, calls, _ = xstring_search(5)
        entering = [(seen, new) for seen, _, new in calls if new]
        trip = next(k for k in range(len(entering) - 1) if entering[k + 1][0] is entering[k][0])
        readings = itertools.chain([0.0], itertools.repeat(0.0, trip), itertools.repeat(10.0))
        monkeypatch.setattr(oracle.time, "monotonic", lambda: next(readings))
        res, _, _ = xstring_search(5, SearchBudget(time_cap=1.0))
    assert (res.status, res.omega) == ("budget_exhausted", None)
    assert res.passes[-1][1] == 1 + sum(new for _, new in entering[: trip + 1])


# -- the retired dict BFS: the reference for the level-synchronous pass ----------


@lru_cache(maxsize=None)
def reference_moves(code):
    """Per-move key and syndrome deltas as Python ints, built from single-qubit
    Paulis through ``canonicalize`` and ``syndrome_of``, not the engine's tables."""
    g = code.geometry
    ops = [PauliOperator.single(g, g.qubit_at(j), p) for j in range(code.n_qubits) for p in oracle.MOVE_PAULIS]
    dkey = [canonicalize(code, op) for op in ops]
    dsynd = [to_int(code.syndrome_to_words(code.syndrome_of(op))) for op in ops]
    return dkey, dsynd


def reference_search_pass(code, omega, goal_key, goal_synd, state_cap):
    """One move at a time over Python-int keys, FIFO order, a dict of parents.

    Returns (moves or None, visited, capped)."""
    dkey, dsynd = reference_moves(code)
    nmoves = len(dkey)
    start = 0
    if goal_key == start and (goal_synd is None or goal_synd == 0):
        return [], 1, False
    if goal_key is None and goal_synd == 0:
        return [], 1, False
    parents = {start: None}
    queue = deque([(start, 0)])
    visited = 1
    while queue:
        key, synd = queue.popleft()
        for j in range(nmoves):
            nk = key ^ dkey[j]
            if nk in parents:
                continue
            ns = synd ^ dsynd[j]
            if ns.bit_count() > omega:
                continue
            parents[nk] = key * nmoves + j
            visited += 1
            if (goal_key is not None and nk == goal_key) or (goal_synd is not None and ns == goal_synd):
                return reference_reconstruct(parents, nk, nmoves), visited, False
            if visited >= state_cap:
                return None, visited, True
            queue.append((nk, ns))
    return None, visited, False


def reference_reconstruct(parents, state, nmoves):
    moves = []
    while parents[state] is not None:
        state, j = divmod(parents[state], nmoves)
        moves.append(j)
    return moves[::-1]


ENGINE_CODES = [(name, L) for name in ("rep1d", "toric2d", "toric3d", "cubic1") for L in (2, 3, 4)]
REFERENCE_CAP = 400  # keeps the dict BFS fast; smaller caps are drawn below it


@lru_cache(maxsize=None)
def engine_code(name, L):
    return get_code(name, L)


def draw_goal(data, code):
    """A random operator and whether its syndrome, not its coset, is the goal."""
    g = code.geometry
    qubit_paulis = st.tuples(st.integers(0, g.n_qubits - 1), st.sampled_from("XYZ"))
    steps = data.draw(st.lists(qubit_paulis, max_size=4), label="op")
    op = PauliOperator.from_terms(g, [(g.qubit_at(q), p) for q, p in steps])
    return op, data.draw(st.booleans(), label="syndrome goal")


def compare_with_reference(space, omega, op, syndrome_goal, cap, block=oracle.BLOCK):
    """The engine's pass against the dict BFS, towards the coset of ``op`` or,
    with ``syndrome_goal``, towards its syndrome."""
    code = space.code
    synd = code.syndrome_to_words(code.syndrome_of(op))
    if syndrome_goal:
        expected = reference_search_pass(code, omega, None, to_int(synd), cap)
    else:
        expected = reference_search_pass(code, omega, canonicalize(code, op), None, cap)
    with mock.patch.object(oracle, "BLOCK", block):
        budget = SearchBudget(state_cap=cap)
        goal = synd if syndrome_goal else space.state(op)
        moves, visited, capped, peak = _search_pass(space, omega, goal, budget, math.inf)
    assert (moves, visited, capped) == expected
    assert 1 <= peak <= visited
    return expected


@settings(max_examples=80)
@given(data=st.data())
def test_search_pass_matches_dict_bfs(data):
    code = engine_code(*data.draw(st.sampled_from(ENGINE_CODES), label="code"))
    space = coset_space(code)
    op, syndrome_goal = draw_goal(data, code)
    omega = data.draw(st.integers(0, 6), label="omega")
    # block sizes where a level spans many dedup blocks (1), where one dedup
    # block gathers several ceiling chunks (2048), both (64, 300), and the
    # shipped size: the dedup must not depend on where blocks end
    block = data.draw(st.sampled_from([1, 64, 300, 2048, oracle.BLOCK]), label="block")
    moves, visited, capped = compare_with_reference(space, omega, op, syndrome_goal, REFERENCE_CAP, block)
    # caps that trip on the first insertion, mid-level, just before the goal
    # and on the goal's own insertion
    caps = {1, 2, visited, max(visited - 1, 1), data.draw(st.integers(1, visited), label="cap")}
    for cap in sorted(caps):
        compare_with_reference(space, omega, op, syndrome_goal, cap, block)


@settings(max_examples=50)
@given(data=st.data())
def test_run_merge_matches_the_sorted_concatenation(data):
    """``_merge`` of two indexes is a stable sort of their concatenation, entry
    for entry; fingerprints drawn from four values collide all the time."""
    def index(label, offset):
        fps = np.array(data.draw(st.lists(st.integers(0, 3), max_size=12), label=label), dtype=np.uint64)
        order = np.argsort(fps)  # an index: sorted by fingerprint, as a search level builds one
        return fps[order], np.arange(offset, offset + 2 * len(fps), dtype=np.uint64).reshape(-1, 2)[order]

    older, newer = index("older", 0), index("newer", 100)
    fps, states = (np.concatenate(pair) for pair in zip(older, newer))
    order = np.argsort(fps, kind="stable")
    for got, want in zip(oracle._merge(older, newer), (fps[order], states[order])):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["rep1d", "toric2d", "toric3d", "cubic1"])
@pytest.mark.parametrize("L", [2, 3, 4])
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_coset_state_is_the_canonical_key(name, L, seed):
    """Two Paulis share a ``CosetSpace`` state iff they share a canonical key:
    a random operator against itself times random generators and random
    logical basis rows.  The state's leading words are the syndrome."""
    code = engine_code(name, L)
    space, rng = coset_space(code), np.random.default_rng(seed)
    a = random_operator(code, rng)
    stabs, basis = code.stabilizer_matrix().words, code.logical_basis()
    vec = np.bitwise_xor.reduce(stabs[rng.random(len(stabs)) < 0.5], axis=0, initial=0)
    vec ^= np.bitwise_xor.reduce(basis[rng.random(len(basis)) < 0.5], axis=0, initial=0)
    b = a * PauliOperator.from_symplectic(code.geometry, vec)
    assert np.array_equal(space.state(a), space.state(b)) == (canonicalize(code, a) == canonicalize(code, b))
    synd = code.syndrome_to_words(code.syndrome_of(a))
    assert np.array_equal(space.state(a)[: len(synd)], synd)


def test_logical_audit_rejects_a_witness_in_another_class(toric3):
    """A witness with the right syndrome (none) that applies the other X
    string's logical class fails the audit's stabilizer-group test."""
    g = toric3.geometry
    horizontal = [(QubitIndex((x, 0), 1), "X") for x in range(3)]
    vertical = [(QubitIndex((0, y), 0), "X") for y in range(3)]
    strings = [PauliOperator.from_terms(g, terms) for terms in (horizontal, vertical)]
    assert not any(toric3.syndrome_of(op) for op in strings)
    assert not toric3.in_stabilizer_group(strings[0] * strings[1])
    witness = ErrorPath.from_steps(horizontal)
    oracle._audit_witness(toric3, witness, 2, strings[0])
    with pytest.raises(RuntimeError, match="missed the target coset"):
        oracle._audit_witness(toric3, witness, 2, strings[1])


@pytest.mark.parametrize("name_L", [("rep1d", 4), ("toric2d", 3), ("toric3d", 2), ("cubic1", 2)])
@pytest.mark.parametrize("fp_bits", [0, 2])
def test_degenerate_fingerprints_match_dict_bfs(name_L, fp_bits):
    """Fingerprints of 0 or 2 bits make distinct states collide all the time:
    the state words alone must then keep the pass exact."""
    code = engine_code(*name_L)
    space = CosetSpace(code)
    rng = np.random.default_rng(7)
    masks = rng.integers(0, 2**63, size=(fp_bits, space.move_dstate.shape[1]), dtype=np.uint64)
    space.move_fp = np.zeros(len(space.move_dstate), dtype=np.uint64)
    for b, mask in enumerate(masks):  # a linear map of the state onto bits 62 - b
        parity = np.bitwise_count(space.move_dstate & mask).sum(axis=1) & 1
        space.move_fp |= parity.astype(np.uint64) << np.uint64(62 - b)
    g = code.geometry
    all_x = PauliOperator.from_terms(g, [(g.qubit_at(j), "X") for j in range(g.n_qubits)])
    pair = PauliOperator.from_terms(g, [(g.qubit_at(0), "Y"), (g.qubit_at(g.n_qubits - 1), "X")])
    for op, syndrome_goal in [(all_x, False), (pair, True)]:
        for omega in range(5):
            _, visited, _ = compare_with_reference(space, omega, op, syndrome_goal, 300, block=64)
            compare_with_reference(space, omega, op, syndrome_goal, max(visited // 2, 1))
