"""Exact brute-force energy barriers and code distances on small instances.

Search states are stabilizer cosets, not raw Paulis: two operators differing
by a stabilizer see identical defect landscapes ahead of them, so coset-level
search is exact while shrinking the space from 4^n to 2^(n+k).  A coset is
named by its syndrome, which fixes its energy, and its 2k-bit logical label,
which fixes the ground state it reaches: the state is the syndrome words
followed by the label words.  The state and a 64-bit fingerprint of it are
linear (``fp(a ^ b) = fp(a) ^ fp(b)``), so a move is two XORs.  Each ceiling
pass is a level-synchronous BFS over blocks of (state, move) candidates;
fingerprints sort and bucket them, the state words decide equality.
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
BLOCK = 1 << 15  # (state, move) pairs per ceiling chunk, state words per dedup block: 256 KiB arrays at most
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
    """Coset arithmetic for one code.  A state is the syndrome's generator words followed
    by the label's words, label bit ``i`` being the symplectic product with row ``i`` of
    ``code.logical_basis()``: two Paulis share a state iff their product is a stabilizer.
    Row ``3 * j + MOVE_PAULIS.index(p)`` of ``move_dstate`` and ``move_fp`` is what the
    Pauli ``p`` on qubit ``j`` XORs into the state and its fingerprint."""

    def __init__(self, code: CodeInstance):
        self.code = code
        n = code.n_qubits
        moves, gens = code.qubit_flip_events(np.arange(3 * n) // 3, np.tile([PAULI_CODE[p] for p in MOVE_PAULIS], n))
        width = gf2.n_words(code.n_generators) * gf2.WORD_BITS
        dsynd = gf2.from_indices(moves * width + gens, 3 * n * width).reshape(3 * n, -1)
        # X on qubit j flips label bit i iff row i has a Z bit on j, Z iff an X bit, Y iff exactly one:
        # row j of the column gather is X column j, row n + j is Z column j
        x, z = np.split(gf2.BitMatrix(code.logical_basis(), 2 * n).columns(np.arange(2 * n)).words, 2)
        dlabel = np.stack([z, x ^ z, x], axis=1).reshape(3 * n, x.shape[1])
        self.move_dstate = np.hstack([dsynd, dlabel])
        # The fingerprint XORs one fixed random word per state bit (stdlib random: numpy.random costs ~6 MiB RSS)
        rand = np.frombuffer(random.Random(FINGERPRINT_SEED).randbytes(512 * self.move_dstate.shape[1]), np.uint64)
        self.move_fp = np.zeros(3 * n, dtype=np.uint64)
        row, bit = gf2.nonzero_bits(self.move_dstate)
        np.bitwise_xor.at(self.move_fp, row, rand[bit])

    def state(self, op: PauliOperator) -> np.ndarray:
        """The state of the coset of ``op``: the XOR of its X and Z factors' rows (Y = XZ)."""
        x, z = (gf2.nonzero_indices(w, self.code.n_qubits) for w in (op.xwords, op.zwords))
        return np.bitwise_xor.reduce(self.move_dstate[np.concatenate([3 * x, 3 * z + 2])], axis=0)


def coset_space(code: CodeInstance) -> CosetSpace:
    """The code's coset arithmetic, built on first use and kept on the code,
    so it lives exactly as long as the code does."""
    if code._coset_space is None:
        code._coset_space = CosetSpace(code)
    return code._coset_space


def _rows_equal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    eq = a[:, 0] == b[:, 0]
    for c in range(1, a.shape[1]):
        eq &= a[:, c] == b[:, c]
    return eq


def _merge(older: tuple[np.ndarray, np.ndarray], newer: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, ...]:
    """Two indexes as one, an equal fingerprint's older entries first.  Each entry is
    scattered to its merged position: no sort, and no concatenated copy to sort."""
    at = np.searchsorted(older[0], newer[0], side="right") + np.arange(len(newer[0]))
    rest = np.ones(len(older[0]) + len(newer[0]), dtype=bool)
    rest[at] = False
    merged = tuple(np.empty((len(rest), *a.shape[1:]), a.dtype) for a in older)
    for m, a, b in zip(merged, older, newer):
        m[at], m[rest] = b, a
    return merged


def _lookup(index: tuple[np.ndarray, np.ndarray], fps: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Which candidates an index holds.  Round t compares a candidate with the t-th entry
    of its fingerprint's run, so colliding fingerprints cost rounds, never a wrong answer."""
    sfp, sstates = index
    pos = np.searchsorted(sfp, fps)
    found = np.zeros(len(fps), dtype=bool)
    live = np.flatnonzero(pos < len(sfp))
    while len(live):
        live = live[sfp[pos[live]] == fps[live]]
        hit = _rows_equal(sstates[pos[live]], states[live])
        found[live[hit]] = True
        live = live[~hit]
        pos[live] += 1
        live = live[pos[live] < len(sfp)]
    return found


def _fresh(indexes, fps: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Indices of the candidates whose state no index and no earlier candidate holds, sorted
    by fingerprint.  Sorting puts equal states side by side, and each group keeps its least
    index; state words are compared where fingerprints tie, and join the sort only when
    two distinct states share a fingerprint."""
    order = np.argsort(fps)
    tie = np.flatnonzero(fps[order[1:]] == fps[order[:-1]])
    dup = _rows_equal(states[order[tie + 1]], states[order[tie]])
    if not dup.all():
        order = np.lexsort((*states.T[::-1], fps))
        tie = np.flatnonzero(fps[order[1:]] == fps[order[:-1]])
        dup = _rows_equal(states[order[tie + 1]], states[order[tie]])
    starts = np.ones(len(order), dtype=bool)
    starts[tie[dup] + 1] = False
    first = np.minimum.reduceat(order, np.flatnonzero(starts))
    for index in indexes:
        first = first[~_lookup(index, fps[first], states[first])]
    return first


def _ceiling_blocks(states: np.ndarray, dsynd_t: np.ndarray, omega: int, span: int):
    """The flat (state, move) indices whose syndrome weight is at most ``omega``, ascending,
    in blocks of ``span`` (the level's last one may be shorter).  The ceiling is tested on
    dense chunks of ``BLOCK`` pairs, one syndrome word at a time: contiguous planes."""
    nmoves = dsynd_t.shape[1]
    step = max(1, BLOCK // nmoves)  # frontier states per ceiling chunk
    held = np.zeros(0, dtype=np.int64)
    for a in range(0, len(states), step):
        weight = np.zeros((len(states[a : a + step]), nmoves), dtype=np.uint16)
        for c, row in enumerate(dsynd_t):
            weight += np.bitwise_count(states[a : a + step, c, None] ^ row)
        held = np.concatenate([held, np.flatnonzero(weight <= omega) + a * nmoves])
        full = len(held) - len(held) % span
        yield from held[:full].reshape(-1, span)
        held = held[full:]
    if len(held):
        yield held


def _search_pass(space: CosetSpace, omega: int, goal: np.ndarray, budget: SearchBudget, deadline: float):
    """One bounded-ceiling BFS from the identity coset to the goal: a whole state,
    or a syndrome matched against the leading state words; states above the
    ceiling are never entered.

    Returns (moves to the goal or None, states entered, capped, largest
    frontier level).  Moves are involutions, so a neighbour of level k lies
    in level k-1, k or k+1: ``seen`` indexes k-1 and k, ``runs`` the part of
    k+1 found so far.  New states keep their (state, move) discovery order,
    the order of a FIFO search that applies one move at a time.
    """
    if not goal.any():
        return [], 1, False, 1
    dstate, dfp = space.move_dstate, space.move_fp
    dsynd_t = dstate[:, : gf2.n_words(space.code.n_generators)].T.copy()
    states, fps = np.zeros_like(dstate[:1]), np.zeros_like(dfp[:1])
    seen, history = (fps, states), []  # history: (parent, move) arrays per level past the start
    visited = peak = 1
    span = max(1, BLOCK // dstate.shape[1])  # candidates per dedup block
    while len(states):
        runs, level, peak = [], [], max(peak, len(states))
        for pairs in _ceiling_blocks(states, dsynd_t, omega, span):
            si, j = np.divmod(pairs, len(dstate))
            cstates, cfps = states[si] ^ dstate[j], fps[si] ^ dfp[j]
            fresh = _fresh((seen, *runs), cfps, cstates)
            runs.append((cfps[fresh], cstates[fresh]))
            new = np.zeros(len(cfps), dtype=bool)  # a mask, not np.sort: no sort kernel to page in
            new[fresh] = True
            idx = np.flatnonzero(new)
            si, j = si[idx], j[idx]
            # The per-insertion goal and cap tests, replayed at each insertion's index.
            hits = np.flatnonzero(_rows_equal(cstates[idx, : len(goal)], goal[None]))
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
                runs[-2:] = [_merge(*runs[-2:])]
        if not level:
            break
        # Level k+1 was held only in ``runs``; its states follow from their
        # parents, built once both old indexes are released.
        parent, move = (np.concatenate(c) for c in zip(*level))
        runs = seen = None
        new_states, new_fps = states[parent] ^ dstate[move], fps[parent] ^ dfp[move]
        seen_fps = np.concatenate([fps, new_fps])
        order = np.argsort(seen_fps)  # equal fingerprints in any order
        seen = seen_fps[order], np.concatenate([states, new_states])[order]
        states, fps = new_states, new_fps
        history.append((parent, move))
    return None, visited, False, peak


def _deepening_search(code: CodeInstance, goal, omega_floor: int, budget: SearchBudget) -> BarrierResult:
    space = coset_space(code)
    goal_state = space.state(goal) if isinstance(goal, PauliOperator) else goal
    deadline = budget.deadline()
    passes: list[tuple[int, int, int]] = []
    for omega in range(omega_floor, budget.omega_max + 1):
        moves, visited, capped, peak = _search_pass(space, omega, goal_state, budget, deadline)
        passes.append((omega, visited, peak))
        if moves is not None:
            witness = ErrorPath.from_steps((code.geometry.qubit_at(m // 3), MOVE_PAULIS[m % 3]) for m in moves)
            _audit_witness(code, witness, omega, goal)
            return BarrierResult(omega, witness, sum(p[1] for p in passes), "exact", omega - 1, tuple(passes))
        if capped:
            return BarrierResult(None, None, sum(p[1] for p in passes), "budget_exhausted", omega - 1, tuple(passes))
    return BarrierResult(None, None, sum(p[1] for p in passes), "budget_exhausted", budget.omega_max, tuple(passes))


def _audit_witness(code: CodeInstance, witness: ErrorPath, omega: int, goal) -> None:
    """Replay the witness: the profile must peak exactly at the claimed barrier
    (minimality already excludes anything lower) and land on the goal, the
    target's coset by stabilizer-group membership or the goal syndrome."""
    profile = energy_profile(code, witness)
    if profile.barrier > omega:
        raise RuntimeError("witness path exceeds the claimed barrier")
    if isinstance(goal, PauliOperator) and not code.in_stabilizer_group(witness.product(code) * goal):
        raise RuntimeError("witness path missed the target coset")
    if not isinstance(goal, PauliOperator) and not np.array_equal(code.syndrome_to_words(profile.final_syndrome), goal):
        raise RuntimeError("witness path missed the target syndrome")


def min_barrier_logical(code: CodeInstance, target: PauliOperator, budget: SearchBudget | None = None) -> BarrierResult:
    """Least ceiling under which some path implements the target's coset.

    Iterative deepening over the ceiling; each pass is a BFS over cosets
    restricted to syndromes of weight at most the ceiling, so the returned
    value is exact and the witness peaks at exactly that many defects.
    """
    budget = budget or SearchBudget()
    if code.syndrome_of(target):
        raise InputError("target does not centralize the stabilizer group")
    return _deepening_search(code, target, 0, budget)


def min_barrier_cluster(code: CodeInstance, syndrome, budget: SearchBudget | None = None) -> BarrierResult:
    """Least ceiling under which some path creates the syndrome from vacuum.

    Any coset carrying the syndrome is a goal.  The final state holds the
    full cluster, so the cluster size floors the answer and seeds the
    deepening loop.
    """
    budget = budget or SearchBudget()
    syndrome = code.defect_set(syndrome)
    target_vec = code.syndrome_to_words(syndrome)
    if gf2.gf2_solve(code.stabilizer_matrix(), target_vec) is None:  # the syndrome map's column span
        return BarrierResult(None, None, 0, "unreachable")
    return _deepening_search(code, target_vec, len(syndrome), budget)


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
    For classical instances (a half of ``code.halves()`` without generators)
    the classes without that half's Pauli type act trivially on the ground
    states and are skipped, so the reported distance is the state-changing one.
    """
    budget = budget or SearchBudget()
    n = code.n_qubits
    reps = code.logical_basis()
    stab_basis = code.stabilizer_rref()[0].words
    empty = [column for column, mask, _, _ in code.halves() if not mask.any()]
    def skipped(xs, zs):  # classes that act trivially on a classical code's ground states
        return ((0 in empty) & ~xs.any(axis=1)) | ((n in empty) & ~zs.any(axis=1))
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
            # a weight is at most n, which the dense views cap at 4,096: uint16 sums cannot wrap
            weights = np.bitwise_count((cx[cs, None] ^ sx[ss]) | (cz[cs, None] ^ sz[ss])).sum(-1, np.uint16)
            i, j = np.unravel_index(np.argmin(weights), weights.shape)  # row-major: the first lightest
            if best is None or weights[i, j] < best[0]:
                best = (int(weights[i, j]), c + int(i), s + int(j))
    d = witness = None
    if best is not None:
        d, c, s = best
        witness = PauliOperator(code.geometry, cx[c] ^ sx[s], cz[c] ^ sz[s])
    return DistanceResult(d, witness, "exact", len(cx), len(cx) * len(sx), int(skip.sum()), d)
