"""Exact brute-force energy barriers and code distances on small instances.

Search states are stabilizer cosets, not raw Paulis: two operators differing
by a stabilizer see identical defect landscapes ahead of them, so coset-level
search is exact while shrinking the space from 4^n to 2^(n+k).  Coset keys are
canonical symplectic vectors (reduced against the stabilizer basis) packed
into python ints, and both the key and the syndrome evolve linearly under
single-qubit moves, so a move is two XORs and a popcount.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import gf2
from .codes import CodeInstance, Syndrome
from .lattice import QubitIndex
from .pauli import PAULI_CODE, PauliOperator
from .paths import ErrorPath, energy_profile

MOVE_PAULIS = "XYZ"


@dataclass
class SearchBudget:
    """Exactness envelope: the search is exact until a cap trips."""

    omega_max: int = 64
    state_cap: int = 10_000_000
    time_cap: float | None = None


@dataclass
class BarrierResult:
    omega: int | None
    witness: ErrorPath | None
    states_visited: int
    status: str  # "exact", "budget_exhausted", or "unreachable"
    ruled_out: int | None = None  # largest ceiling fully excluded

    @property
    def exact(self) -> bool:
        return self.status == "exact"


class CosetSpace:
    """Precomputed coset arithmetic for one code instance.

    Keys are ints over 2n bits (X-part low, Z-part high) reduced to the
    canonical representative modulo the stabilizer row space; the reduction is
    linear, so neighbor keys come from XOR with per-move constants.
    """

    def __init__(self, code: CodeInstance):
        self.code = code
        rref, pivots = code.stabilizer_rref()
        self._basis = (rref, np.asarray(pivots, dtype=np.int64))
        self.n = code.n_qubits
        g = code.geometry
        self.move_labels: list[tuple[QubitIndex, str]] = []
        self.move_dkey: list[int] = []
        for j in range(self.n):
            qubit = g.qubit_at(j)
            for p in MOVE_PAULIS:
                vec = ((p in "XY") << j) | ((p in "ZY") << (self.n + j))
                self.move_labels.append((qubit, p))
                self.move_dkey.append(self._key(gf2.from_int(vec, 2 * self.n)))
        codes = [PAULI_CODE[p] for p in MOVE_PAULIS]
        moves, gens = code.qubit_flip_events(np.repeat(np.arange(self.n), len(codes)), np.tile(codes, self.n))
        self.move_dsynd: list[int] = [0] * len(self.move_labels)
        for m, gi in zip(moves.tolist(), gens.tolist()):
            self.move_dsynd[m] |= 1 << gi

    def _key(self, vec: np.ndarray) -> int:
        return gf2.to_int(gf2.reduce_by_rref(*self._basis, vec))

    def key_of(self, op: PauliOperator) -> int:
        return self._key(op.symplectic())

    def syndrome_int(self, syndrome: Syndrome) -> int:
        out = 0
        for cube, s in syndrome:
            out |= 1 << self.code.generator_index(cube, s)
        return out


def coset_space(code: CodeInstance) -> CosetSpace:
    """The code's coset arithmetic, built on first use and kept on the code,
    so it lives exactly as long as the code does."""
    if code._coset_space is None:
        code._coset_space = CosetSpace(code)
    return code._coset_space


def canonicalize(code: CodeInstance, op: PauliOperator) -> int:
    """Canonical coset key: equal for two Paulis iff their product is a
    stabilizer; the identity coset maps to 0."""
    return coset_space(code).key_of(op)


def _search_pass(
    space: CosetSpace,
    omega: int,
    goal_key: int | None,
    goal_synd: int | None,
    budget: SearchBudget,
    deadline: float | None,
):
    """One bounded-ceiling BFS from the identity coset.

    Returns (found_state, parents, visited_count, capped).  States whose
    syndrome weight exceeds the ceiling are never entered; the vacuum start
    and the goal state count against the ceiling like any other state.
    """
    dkey = space.move_dkey
    dsynd = space.move_dsynd
    nmoves = len(dkey)
    start = 0
    if goal_key == start and (goal_synd is None or goal_synd == 0):
        return start, {start: None}, 1, False
    if goal_key is None and goal_synd == 0:
        return start, {start: None}, 1, False
    parents: dict[int, int | None] = {start: None}
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
            if (goal_key is not None and nk == goal_key) or (
                goal_synd is not None and ns == goal_synd
            ):
                return nk, parents, visited, False
            if visited >= budget.state_cap or (
                deadline is not None and time.monotonic() > deadline
            ):
                return None, parents, visited, True
            queue.append((nk, ns))
    return None, parents, visited, False


def _reconstruct(space: CosetSpace, parents: dict, state: int) -> ErrorPath:
    nmoves = len(space.move_dkey)
    steps = []
    cur = state
    while parents[cur] is not None:
        packed = parents[cur]
        prev, j = divmod(packed, nmoves)
        steps.append(space.move_labels[j])
        cur = prev
    steps.reverse()
    return ErrorPath.from_steps(steps)


def _deepening_search(
    code: CodeInstance,
    goal_key: int | None,
    goal_synd: int | None,
    omega_floor: int,
    budget: SearchBudget,
) -> BarrierResult:
    space = coset_space(code)
    deadline = time.monotonic() + budget.time_cap if budget.time_cap else None
    total_visited = 0
    for omega in range(omega_floor, budget.omega_max + 1):
        state, parents, visited, capped = _search_pass(
            space, omega, goal_key, goal_synd, budget, deadline
        )
        total_visited += visited
        if state is not None:
            witness = _reconstruct(space, parents, state)
            _audit_witness(code, space, witness, omega, goal_key, goal_synd)
            return BarrierResult(omega, witness, total_visited, "exact", ruled_out=omega - 1)
        if capped:
            return BarrierResult(None, None, total_visited, "budget_exhausted", ruled_out=omega - 1)
    return BarrierResult(None, None, total_visited, "budget_exhausted", ruled_out=budget.omega_max)


def _audit_witness(
    code: CodeInstance,
    space: CosetSpace,
    witness: ErrorPath,
    omega: int,
    goal_key: int | None,
    goal_synd: int | None,
) -> None:
    """Replay the witness: the profile must peak exactly at the claimed
    barrier (minimality already excludes anything lower) and land on goal."""
    profile = energy_profile(code, witness)
    if profile.barrier > omega:
        raise RuntimeError("witness path exceeds the claimed barrier")
    if goal_synd is not None:
        if space.syndrome_int(profile.final_syndrome) != goal_synd:
            raise RuntimeError("witness path missed the target syndrome")
    if goal_key is not None:
        if space.key_of(witness.product(code)) != goal_key:
            raise RuntimeError("witness path missed the target coset")


def min_barrier_logical(
    code: CodeInstance, target: PauliOperator, budget: SearchBudget | None = None
) -> BarrierResult:
    """Least ceiling under which some path implements the target's coset.

    Iterative deepening over the ceiling; each pass is a BFS over coset keys
    restricted to syndromes of weight at most the ceiling, so the returned
    value is exact and the witness peaks at exactly that many defects.
    """
    budget = budget or SearchBudget()
    if code.syndrome_of(target):
        raise ValueError("target does not centralize the stabilizer group")
    goal = canonicalize(code, target)
    return _deepening_search(code, goal, None, 0, budget)


def min_barrier_cluster(
    code: CodeInstance, syndrome, budget: SearchBudget | None = None
) -> BarrierResult:
    """Least ceiling under which some path creates the syndrome from vacuum.

    Any coset carrying the syndrome is a goal.  The final state holds the
    full cluster, so the cluster size floors the answer and seeds the
    deepening loop.
    """
    budget = budget or SearchBudget()
    syndrome = frozenset(syndrome)
    space = coset_space(code)
    target_vec = code.syndrome_to_words(syndrome)
    if gf2.gf2_solve(code.syndrome_matrix(), target_vec) is None:
        return BarrierResult(None, None, 0, "unreachable")
    goal = space.syndrome_int(syndrome)
    return _deepening_search(code, None, goal, len(syndrome), budget)


# -- code distance ---------------------------------------------------------------


@dataclass
class DistanceResult:
    d: int | None
    witness: PauliOperator | None
    status: str  # "exact" or "budget_exhausted"
    classes_enumerated: int = 0
    elements_enumerated: int = 0
    skipped_diagonal_classes: int = 0
    d_upper: int | None = None


def _gray_ints(basis: list[int]) -> "np.ndarray | list[int]":
    """All subset XORs of the basis in Gray-code order (first element 0)."""
    out = [0]
    cur = 0
    for i in range(1, 1 << len(basis)):
        cur ^= basis[(i & -i).bit_length() - 1]
        out.append(cur)
    return out


def _logical_class_reps(code: CodeInstance) -> list[int]:
    """One symplectic int per independent logical direction (2k of them)."""
    centralizer = gf2.nullspace(code.syndrome_matrix())
    rref, pivots = code.stabilizer_rref()
    by_high: dict[int, int] = {}
    reps: list[int] = []
    for i in range(centralizer.nrows):
        vec = centralizer.words[i].copy()
        residue = gf2.to_int(gf2.reduce_by_rref(rref, pivots, vec))
        raw = gf2.to_int(vec)
        while residue:
            high = residue.bit_length() - 1
            if high not in by_high:
                by_high[high] = residue
                reps.append(raw)
                break
            residue ^= by_high[high]
    return reps


def code_distance(code: CodeInstance, budget: SearchBudget | None = None) -> DistanceResult:
    """Minimum weight over centralizer elements outside the stabilizer group.

    Enumerates logical classes times the stabilizer subgroup exactly when the
    budget allows.  For classical instances (all generators diagonal) the
    purely diagonal classes act trivially on the classical ground states and
    are skipped, so the reported distance is the state-changing one.
    """
    budget = budget or SearchBudget()
    n = code.n_qubits
    reps = _logical_class_reps(code)
    rref, _ = code.stabilizer_rref()
    stab_basis = [gf2.to_int(rref.words[i]) for i in range(rref.nrows)]
    mask = (1 << n) - 1
    skip_x_free = code.is_classical_z()
    skip_z_free = code.is_classical_x()

    def qubit_weight(v: int) -> int:
        return ((v & mask) | (v >> n)).bit_count()

    total = (1 << len(reps)) * (1 << len(stab_basis))
    if total > budget.state_cap:
        # Too many elements to enumerate exactly; the raw class generators
        # still give an upper bound on the distance.
        d_upper = min((qubit_weight(r) for r in reps), default=None)
        return DistanceResult(None, None, "budget_exhausted", 0, 0, 0, d_upper)
    class_list = _gray_ints(reps)

    use_numpy = 2 * n <= 63
    if use_numpy:
        stab_arr = np.array(_gray_ints(stab_basis), dtype=np.uint64)
        nmask = np.uint64(mask)
        shift = np.uint64(n)
    else:
        stab_list = _gray_ints(stab_basis)

    best = None
    best_vec = None
    skipped = 0
    classes = 0
    for cls in class_list[1:]:
        if skip_x_free and (cls & mask) == 0:
            skipped += 1
            continue
        if skip_z_free and (cls >> n) == 0:
            skipped += 1
            continue
        classes += 1
        if use_numpy:
            coset = stab_arr ^ np.uint64(cls)
            weights = np.bitwise_count((coset & nmask) | (coset >> shift))
            i = int(np.argmin(weights))
            w, v = int(weights[i]), int(coset[i])
            if best is None or w < best:
                best, best_vec = w, v
        else:
            for s in stab_list:
                v = s ^ cls
                w = qubit_weight(v)
                if best is None or w < best:
                    best, best_vec = w, v
    witness = None
    if best_vec is not None:
        witness = PauliOperator.from_symplectic(code.geometry, gf2.from_int(best_vec, 2 * n))
    elements = classes * (1 << len(stab_basis))
    return DistanceResult(best, witness, "exact", classes, elements, skipped, best)
