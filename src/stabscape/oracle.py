"""Exact brute-force energy barriers and code distances on small instances.

Search states are stabilizer cosets, not raw Paulis: two operators differing
by a stabilizer see identical defect landscapes ahead of them, so coset-level
search is exact while shrinking the space from 4^n to 2^(n+k).  A coset key is
the canonical symplectic vector (reduced against the stabilizer basis) held
as uint64 words.  The key, the syndrome and a 64-bit fingerprint of the key
are linear (``fp(a ^ b) = fp(a) ^ fp(b)``), so a move is three XORs.  Each
ceiling pass is a level-synchronous BFS over blocks of (state, move)
candidates; fingerprints sort and bucket them, the key words decide equality.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from . import gf2
from .codes import CodeInstance, InputError, SearchBudget
from .pauli import PAULI_CODE, PauliOperator
from .paths import ErrorPath, energy_profile

MOVE_PAULIS = "XYZ"
BLOCK = 1 << 15  # candidates per block; its largest array, one syndrome word each, is 256 KiB
FINGERPRINT_SEED = 0x5EED


@dataclass
class BarrierResult:
    omega: int | None
    witness: ErrorPath | None
    states_visited: int
    status: str  # "exact", "budget_exhausted", or "unreachable"
    ruled_out: int | None = None  # largest ceiling fully excluded
    passes: tuple[tuple[int, int, int], ...] = ()  # (omega, states, frontier_peak) per ceiling pass

    @property
    def exact(self) -> bool:
        return self.status == "exact"


class CosetSpace:
    """Coset arithmetic for one code.  Keys are words over 2n bits (X-part low, Z-part high)
    reduced modulo the stabilizer row space.  Row ``3 * j + MOVE_PAULIS.index(p)`` of
    ``move_dkey``, ``move_dsynd`` and ``move_fp`` is what the Pauli ``p`` on qubit ``j``
    XORs into the key, the syndrome and the fingerprint."""

    def __init__(self, code: CodeInstance):
        self.code = code
        rref, pivots = code.stabilizer_rref()
        self._basis = (rref, np.asarray(pivots, dtype=np.int64))
        self.n = n = code.n_qubits
        # The residue of a unit vector is itself, XOR the row whose pivot it hits.
        bits = np.arange(2 * n)
        unit = np.zeros((2 * n, gf2.n_words(2 * n)), dtype=np.uint64)
        unit[bits, bits >> 6] = np.uint64(1) << (bits & 63).astype(np.uint64)
        unit[self._basis[1]] ^= rref.words
        self.move_dkey = np.stack([unit[:n], unit[:n] ^ unit[n:], unit[n:]], axis=1).reshape(3 * n, -1)
        moves, gens = code.qubit_flip_events(np.arange(3 * n) // 3, np.tile([PAULI_CODE[p] for p in MOVE_PAULIS], n))
        self.move_dsynd = np.zeros((3 * n, gf2.n_words(code.n_generators)), dtype=np.uint64)
        np.bitwise_or.at(self.move_dsynd, (moves, gens >> 6), np.uint64(1) << (gens & 63).astype(np.uint64))
        # The fingerprint XORs one fixed random word per key bit, so the unit residues' fingerprints
        # follow from the basis rows' as their keys do (stdlib random: numpy.random costs ~6 MiB RSS).
        ufp = np.frombuffer(random.Random(FINGERPRINT_SEED).randbytes(16 * n), np.uint64).copy()
        ufp[self._basis[1]] ^= np.bitwise_xor.reduce(np.where(rref.to_bool_array(), ufp, np.uint64(0)), axis=1)
        self.move_fp = np.stack([ufp[:n], ufp[:n] ^ ufp[n:], ufp[n:]], axis=1).ravel()

    def _key(self, vec: np.ndarray) -> np.ndarray:
        return gf2.reduce_by_rref(*self._basis, vec)

    def path(self, moves: list[int]) -> ErrorPath:
        return ErrorPath.from_steps((self.code.geometry.qubit_at(m // 3), MOVE_PAULIS[m % 3]) for m in moves)


def coset_space(code: CodeInstance) -> CosetSpace:
    """The code's coset arithmetic, built on first use and kept on the code,
    so it lives exactly as long as the code does."""
    if code._coset_space is None:
        code._coset_space = CosetSpace(code)
    return code._coset_space


def canonicalize(code: CodeInstance, op: PauliOperator) -> int:
    """Canonical coset key: equal for two Paulis iff their product is a
    stabilizer; the identity coset maps to 0."""
    return gf2.to_int(coset_space(code)._key(op.symplectic()))


def _rows_equal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    eq = a[:, 0] == b[:, 0]
    for c in range(1, a.shape[1]):
        eq &= a[:, c] == b[:, c]
    return eq


def _index(fps: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fingerprints, keys) sorted by fingerprint; the stable sort merges sorted runs in linear time."""
    order = np.argsort(fps, kind="stable")
    return fps[order], keys[order]


def _lookup(index: tuple[np.ndarray, np.ndarray], fps: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which candidates an index holds.  Round t compares a candidate with the t-th entry
    of its fingerprint's run, so colliding fingerprints cost rounds, never a wrong answer."""
    sfp, skeys = index
    pos = np.searchsorted(sfp, fps)
    found = np.zeros(len(fps), dtype=bool)
    live = np.flatnonzero(pos < len(sfp))
    while len(live):
        live = live[sfp[pos[live]] == fps[live]]
        hit = _rows_equal(skeys[pos[live]], keys[live])
        found[live[hit]] = True
        live = live[~hit]
        pos[live] += 1
        live = live[pos[live] < len(sfp)]
    return found


def _fresh(indexes, fps: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Indices of the candidates whose key no index and no earlier candidate holds, sorted
    by fingerprint.  Both sorts are stable, so equal keys stay in candidate order; the
    key words join the sort only when two distinct keys share a fingerprint."""
    order = np.argsort(fps, kind="stable")
    same_fp = fps[order[1:]] == fps[order[:-1]]
    dup = same_fp & _rows_equal(keys[order[1:]], keys[order[:-1]])
    if (dup != same_fp).any():
        order = np.lexsort((*keys.T[::-1], fps))
        dup = (fps[order[1:]] == fps[order[:-1]]) & _rows_equal(keys[order[1:]], keys[order[:-1]])
    first = order[np.concatenate([[True], ~dup])] if len(order) else order
    for index in indexes:
        first = first[~_lookup(index, fps[first], keys[first])]
    return first


def _search_pass(space: CosetSpace, omega: int, goal_key, goal_synd, budget: SearchBudget, deadline: float):
    """One bounded-ceiling BFS from the identity coset to a goal key or goal
    syndrome (exactly one is given); states above the ceiling are never entered.

    Returns (moves to the goal or None, states entered, capped, largest
    frontier level).  Moves are involutions, so a neighbour of level k lies
    in level k-1, k or k+1: ``seen`` indexes k-1 and k, ``runs`` the part of
    k+1 found so far.  New states keep their (state, move) discovery order,
    the order of a FIFO search that applies one move at a time.
    """
    goal = goal_key if goal_key is not None else goal_synd
    if not goal.any():
        return [], 1, False, 1
    dkey, dfp, dsynd, dsynd_t = space.move_dkey, space.move_fp, space.move_dsynd, space.move_dsynd.T.copy()
    keys, synd, fps = np.zeros_like(dkey[:1]), np.zeros_like(dsynd[:1]), np.zeros_like(dfp[:1])
    seen, history = (fps, keys), []  # history: (parent, move) arrays per level past the start
    visited = peak = 1
    step = max(1, BLOCK // len(dkey))  # frontier states per block
    while len(keys):
        runs, level, peak = [], [], max(peak, len(keys))
        for a in range(0, len(keys), step):
            weight = np.zeros((len(synd[a : a + step]), len(dkey)), dtype=np.uint16)
            for c in range(dsynd.shape[1]):  # one word at a time: contiguous (state, move) planes
                weight += np.bitwise_count(synd[a : a + step, c, None] ^ dsynd_t[c])
            si, j = np.divmod(np.flatnonzero(weight <= omega) + a * len(dkey), len(dkey))
            ckeys, cfps = keys[si] ^ dkey[j], fps[si] ^ dfp[j]
            fresh = _fresh((seen, *runs), cfps, ckeys)
            runs.append((cfps[fresh], ckeys[fresh]))
            new = np.zeros(len(cfps), dtype=bool)  # a mask, not np.sort: no sort kernel to page in
            new[fresh] = True
            idx = np.flatnonzero(new)
            si, j = si[idx], j[idx]
            # The per-insertion goal and cap tests, replayed at each insertion's index.
            hits = np.flatnonzero(_rows_equal(ckeys[idx] if goal_key is not None else synd[si] ^ dsynd[j], goal[None]))
            cap_at = max(budget.state_cap - visited - 1, 0)
            if len(hits) and hits[0] <= cap_at:
                moves, parent = [int(j[hits[0]])], int(si[hits[0]])
                for par, mv in reversed(history):
                    moves.append(int(mv[parent]))
                    parent = int(par[parent])
                return moves[::-1], visited + int(hits[0]) + 1, False, peak
            if cap_at < len(idx):
                return None, visited + cap_at + 1, True, peak
            visited += len(idx)
            if len(idx) and time.monotonic() > deadline:
                return None, visited, True, peak
            level.append((si.astype(np.int32), j.astype(np.int32)))
            while len(runs) > 1 and len(runs[-2][0]) <= 2 * len(runs[-1][0]):
                newer, older = runs.pop(), runs.pop()
                runs.append(_index(np.concatenate([older[0], newer[0]]), np.concatenate([older[1], newer[1]])))
        # Level k+1 was held only in ``runs``; its states follow from their
        # parents, built once both old indexes are released.
        parent, move = (np.concatenate(c) for c in zip(*level))
        runs = seen = None
        new_keys, new_fps, synd = keys[parent] ^ dkey[move], fps[parent] ^ dfp[move], synd[parent] ^ dsynd[move]
        seen = _index(np.concatenate([fps, new_fps]), np.concatenate([keys, new_keys]))
        keys, fps = new_keys, new_fps
        history.append((parent, move))
    return None, visited, False, peak


def _deepening_search(code: CodeInstance, goal_key, goal_synd, omega_floor: int, budget: SearchBudget) -> BarrierResult:
    space = coset_space(code)
    deadline = budget.deadline()
    passes: list[tuple[int, int, int]] = []
    for omega in range(omega_floor, budget.omega_max + 1):
        moves, visited, capped, peak = _search_pass(space, omega, goal_key, goal_synd, budget, deadline)
        passes.append((omega, visited, peak))
        if moves is not None:
            witness = space.path(moves)
            _audit_witness(code, space, witness, omega, goal_key, goal_synd)
            return BarrierResult(omega, witness, sum(p[1] for p in passes), "exact", omega - 1, tuple(passes))
        if capped:
            return BarrierResult(None, None, sum(p[1] for p in passes), "budget_exhausted", omega - 1, tuple(passes))
    return BarrierResult(None, None, sum(p[1] for p in passes), "budget_exhausted", budget.omega_max, tuple(passes))


def _audit_witness(code: CodeInstance, space: CosetSpace, witness: ErrorPath, omega: int, goal_key, goal_synd) -> None:
    """Replay the witness: the profile must peak exactly at the claimed
    barrier (minimality already excludes anything lower) and land on goal."""
    profile = energy_profile(code, witness)
    if profile.barrier > omega:
        raise RuntimeError("witness path exceeds the claimed barrier")
    if goal_synd is not None and not np.array_equal(code.syndrome_to_words(profile.final_syndrome), goal_synd):
        raise RuntimeError("witness path missed the target syndrome")
    if goal_key is not None and not np.array_equal(space._key(witness.product(code).symplectic()), goal_key):
        raise RuntimeError("witness path missed the target coset")


def min_barrier_logical(code: CodeInstance, target: PauliOperator, budget: SearchBudget | None = None) -> BarrierResult:
    """Least ceiling under which some path implements the target's coset.

    Iterative deepening over the ceiling; each pass is a BFS over coset keys
    restricted to syndromes of weight at most the ceiling, so the returned
    value is exact and the witness peaks at exactly that many defects.
    """
    budget = budget or SearchBudget()
    if code.syndrome_of(target):
        raise InputError("target does not centralize the stabilizer group")
    return _deepening_search(code, coset_space(code)._key(target.symplectic()), None, 0, budget)


def min_barrier_cluster(code: CodeInstance, syndrome, budget: SearchBudget | None = None) -> BarrierResult:
    """Least ceiling under which some path creates the syndrome from vacuum.

    Any coset carrying the syndrome is a goal.  The final state holds the
    full cluster, so the cluster size floors the answer and seeds the
    deepening loop.
    """
    budget = budget or SearchBudget()
    syndrome = code.defect_set(syndrome)
    target_vec = code.syndrome_to_words(syndrome)
    if gf2.gf2_solve(code.syndrome_matrix(), target_vec) is None:
        return BarrierResult(None, None, 0, "unreachable")
    return _deepening_search(code, None, target_vec, len(syndrome), budget)


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


def code_distance(code: CodeInstance, budget: SearchBudget | None = None) -> DistanceResult:
    """Minimum weight over centralizer elements outside the stabilizer group.

    Enumerates logical classes times the stabilizer subgroup exactly when the
    budget allows, in blocks of (class, stabilizer) pairs over the X and Z
    halves of two subset-XOR tables; the witness is the first lightest pair.
    For classical instances (all generators diagonal) the purely diagonal
    classes act trivially on the classical ground states and are skipped, so
    the reported distance is the state-changing one.
    """
    budget = budget or SearchBudget()
    n = code.n_qubits
    reps = code.logical_basis()
    stab_basis = code.stabilizer_rref()[0].words
    def skipped(xs, zs):  # classes that act trivially on a classical code's ground states
        return (code.is_classical_z() & ~xs.any(axis=1)) | (code.is_classical_x() & ~zs.any(axis=1))
    x, z = gf2.split_halves(reps, n)
    kept = ~skipped(x, z)  # the kept class generators bound d, should the budget cut the enumeration
    d_upper = int(np.bitwise_count(x[kept] | z[kept]).sum(axis=1).min()) if kept.any() else None
    if (1 << len(reps)) * (1 << len(stab_basis)) > budget.state_cap:
        return DistanceResult(None, None, "budget_exhausted", 0, 0, 0, d_upper)
    deadline = budget.deadline()
    cx, cz = (gf2.subset_xors(half)[1:] for half in (x, z))
    skip = skipped(cx, cz)
    cx, cz = cx[~skip], cz[~skip]
    sx, sz = (gf2.subset_xors(half) for half in gf2.split_halves(stab_basis, n))
    span = min(len(sx), BLOCK)  # stabilizers per block
    step = max(1, BLOCK // len(sx))  # classes per block
    best = None  # (weight, class, stabilizer)
    for c in range(0, len(cx), step):
        for s in range(0, len(sx), span):
            if time.monotonic() > deadline:  # the lightest element so far bounds d
                return DistanceResult(None, None, "budget_exhausted", 0, 0, 0, d_upper if best is None else best[0])
            cs, ss = slice(c, c + step), slice(s, s + span)
            weights = np.bitwise_count((cx[cs, None] ^ sx[ss]) | (cz[cs, None] ^ sz[ss])).sum(axis=-1)
            i, j = np.unravel_index(np.argmin(weights), weights.shape)  # row-major: the first lightest
            if best is None or weights[i, j] < best[0]:
                best = (int(weights[i, j]), c + int(i), s + int(j))
    d = witness = None
    if best is not None:
        d, c, s = best
        witness = PauliOperator(code.geometry, cx[c] ^ sx[s], cz[c] ^ sz[s])
    return DistanceResult(d, witness, "exact", len(cx), len(cx) * len(sx), int(skip.sum()), d)
