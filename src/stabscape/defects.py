"""Syndrome analysis: cluster partitions, sparsity levels, neutrality,
error localization, and logical string-segment classification.

All geometry is torus geometry.  The diameter of a set of elementary cubes is
``1 + max pairwise l-infinity distance`` between cube coordinates, so a single
cube has diameter 1; this one convention is shared by every routine below.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import xor
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import gf2
from .codes import _SHAPES, CodeInstance, Defect, InputError, SearchBudget, Syndrome
from .lattice import LatticeGeometry, QubitIndex, Site
from .pauli import PAULI_CODE, PauliOperator


class TQOViolationError(Exception):
    """A neutral cluster admits no creation operator near its enclosing cube."""


@dataclass(frozen=True)
class ScaleParams:
    """Length-scale bookkeeping: the aspect constant and the unit ladder.

    ``alpha`` is the no-strings aspect constant (15 for the cubic code family),
    ``xi(p) = (10 * alpha) ** p`` the level-p unit of length, ``ltqo`` the
    locality scale for neutrality solves (defaults to ``L // 2``).
    """

    alpha: float = 15.0
    ltqo: int | None = None

    def __post_init__(self):
        if not 1 <= self.alpha < math.inf:  # NaN and infinity fail too
            raise InputError("alpha must be at least 1 and finite")
        if self.ltqo is not None and self.ltqo < 1:
            raise InputError("ltqo must be at least 1")

    def xi(self, p: int) -> float:
        return float(10 * self.alpha) ** p

    def ltqo_for(self, geometry: LatticeGeometry) -> int:
        return self.ltqo if self.ltqo is not None else geometry.L // 2


def occupied_cubes(syndrome_or_cubes: Iterable) -> frozenset[Site]:
    """Cube coordinates occupied by a syndrome (or an explicit cube set)."""
    # a (cube, species) defect, or a cube
    return frozenset(el[0] if len(el) == 2 and isinstance(el[0], tuple) else tuple(el) for el in syndrome_or_cubes)


@dataclass(frozen=True)
class SparsityVerdict:
    """Level-p sparsity decision, with the partition the decision rests on."""

    level: int
    sparse: bool
    clusters: tuple[frozenset[Site], ...]
    diameters: tuple[int, ...]


def _torus_distances(geometry: LatticeGeometry, cubes) -> np.ndarray:
    """Pairwise torus l-infinity distances between cubes, ``(..., m, m)`` from
    ``(..., m, D)``: one axis at a time with a running max, in m^2 per set."""
    L = geometry.L
    cubes = np.asarray(cubes, dtype=np.int64)
    dist = np.zeros(cubes.shape[:-1] + cubes.shape[-2:-1], dtype=np.int64)
    for axis in np.moveaxis(cubes, -1, 0):
        delta = np.abs(axis[..., :, None] - axis[..., None, :]) % L
        np.maximum(dist, np.minimum(delta, L - delta), out=dist)
    return dist


_PAIR_BLOCK = 1 << 16  # most padded cube pairs (sets x m x m) in one block of cube sets


def _padded_blocks(cube_lists: Sequence[Sequence[Site]]) -> Iterator[tuple[slice, np.ndarray]]:
    """Consecutive blocks of nonempty cube lists, each as its slice and one
    ``(S, m, D)`` coordinate array of at most ``_PAIR_BLOCK`` pairs (or one
    list).  Each list is padded to the block's longest with repeats of its
    first cube, which add no distance and no footprint."""
    step = max(1, _PAIR_BLOCK // max(map(len, cube_lists), default=1) ** 2)
    for k in range(0, len(cube_lists), step):
        block = cube_lists[k : k + step]
        m = max(map(len, block))
        yield slice(k, k + step), np.array([[*c, *[c[0]] * (m - len(c))] for c in block], dtype=np.int64)


def set_distance(geometry: LatticeGeometry, a: Iterable[Site], b: Iterable[Site]) -> int:
    """Least torus distance between two nonempty cube sets: the smallest
    entry of the cross block of their joint distance matrix."""
    a = list(a)
    return int(_torus_distances(geometry, a + list(b))[: len(a), len(a):].min())


def _complete_linkage(dist: np.ndarray, cap: float) -> Iterator[tuple[int, int, int]]:
    """Complete-linkage merges of the cubes behind ``dist`` (sorted order),
    as ``(kept row, retired row, height)``, while ``1 + height <= cap``.

    The two clusters whose union has the smallest diameter merge first; ties
    go to the pair whose minimum cubes come first in lexicographic order.
    Row k stands for the cluster whose minimum cube is cube k; a merge keeps
    the smaller row, and the row-major argmin is the smallest (distance, row,
    column), i.e. the lexicographic tie-break.

    Complete linkage never merges below an earlier merge height: the linkage
    of a merged cluster to any other, ``max(d_ik, d_jk)`` (the Lance-Williams
    max rule), is at least the height just merged.  So heights never
    decrease, a merged cluster's spread is the height it merged at, and the
    merges below a smaller cap are a prefix of these.  ``dist`` is consumed.
    """
    m = len(dist)
    retired = np.iinfo(np.int64).max
    np.fill_diagonal(dist, retired)
    while True:
        i, j = divmod(int(np.argmin(dist)), m)
        height = int(dist[i, j])
        if 1 + height > cap:
            return
        linkage = np.maximum(dist[i], dist[j])
        dist[i, :] = linkage
        dist[:, i] = linkage
        dist[j, :] = retired
        dist[:, j] = retired
        yield i, j, height


def cluster_partitions(geometry: LatticeGeometry, syndromes: Sequence, p: int, params: ScaleParams) -> list[SparsityVerdict]:
    """Decide level-``p`` sparsity of every syndrome by complete-linkage merging.

    Clusters merge (see ``_complete_linkage``) while their union's diameter
    is at most ``xi(p+1)``.  A syndrome is sparse iff every remaining cluster
    has diameter at most ``xi(p)``; when it is, its partition satisfies both
    defining conditions exactly.  One padded array per block of syndromes
    (``_padded_blocks``) gives every pairwise distance; only a syndrome of
    diameter above ``xi(p+1)`` runs the merge loop, on its own distances.
    """
    orders = [sorted(occupied_cubes(s)) for s in syndromes]
    if not all(orders):
        raise ValueError("sparsity is undefined for the empty syndrome")
    if p < 0:
        raise ValueError("level must be non-negative")
    xi_p, xi_p1 = params.xi(p), params.xi(p + 1)
    verdicts = []
    for block, cubes in _padded_blocks(orders):
        dist = _torus_distances(geometry, cubes)
        for order, own, top in zip(orders[block], dist, dist.max(axis=(1, 2)).tolist()):
            members, spreads = [order], [top]
            if 1 + top > xi_p1:  # not every merge qualifies
                members, spreads = [[c] for c in order], [0] * len(order)
                for i, j, height in _complete_linkage(own[: len(order), : len(order)], xi_p1):
                    members[i], members[j], spreads[i] = members[i] + members[j], [], height
                members, spreads = zip(*[(m, s) for m, s in zip(members, spreads) if m])
            diameters = tuple(1 + s for s in spreads)
            verdicts.append(SparsityVerdict(p, all(d <= xi_p for d in diameters), tuple(map(frozenset, members)), diameters))
    return verdicts


def cluster_partition(geometry: LatticeGeometry, syndrome, p: int, params: ScaleParams) -> SparsityVerdict:
    """Level-``p`` sparsity of one syndrome (``cluster_partitions``)."""
    return cluster_partitions(geometry, [syndrome], p, params)[0]


def _dense_run(geometry: LatticeGeometry, cubes: frozenset[Site], params: ScaleParams) -> int:
    """Dense run (see ``min_dense_run``) of one syndrome's occupied cubes.

    A single cube is sparse at level 0: -1.  Torus distances never exceed
    ``L // 2``, so at the cap level P, the lowest with ``1 + L // 2 <=
    xi(P+1)``, every syndrome is one cluster; at ``P = 0`` (every ``L < 300``
    at the default alpha) the run is 0 with no distances.  Otherwise let q
    be the lowest level with ``1 + top <= xi(q+1)``, ``top`` the largest
    distance between the cubes.  From q up every merge qualifies, so
    the syndrome is one cluster, dense at q (for q > 0) and sparse above.
    Below q the level-p partition is the prefix of one merge run to ``xi(q)``
    with ``1 + height <= xi(p+1)``; its largest spread is the prefix's last
    height, and the syndrome is sparse at p iff that height plus 1 is at
    most ``xi(p)``.
    """
    if len(cubes) == 1:
        return -1
    if 1 + geometry.L // 2 <= params.xi(1):
        return 0
    dist = _torus_distances(geometry, sorted(cubes))
    top = int(dist.max())
    q = 0
    while 1 + top > params.xi(q + 1):
        q += 1
    heights = [h for _, _, h in _complete_linkage(dist, params.xi(q))]
    for p in range(q):
        below = [h for h in heights if 1 + h <= params.xi(p + 1)]
        if 1 + (below[-1] if below else 0) <= params.xi(p):
            return p - 1
    return q


def dense_runs(geometry: LatticeGeometry, syndromes: Sequence, params: ScaleParams) -> list[int]:
    """Dense run (see ``min_dense_run``) of every syndrome, each from one
    distance matrix at most (``_dense_run``)."""
    cube_sets = [occupied_cubes(s) for s in syndromes]
    if not all(cube_sets):
        raise ValueError("sparsity is undefined for the empty syndrome")
    runs = [_dense_run(geometry, cubes, params) for cubes in cube_sets]
    for cubes, run in zip(cube_sets, runs):
        if len(cubes) < run + 2:
            raise RuntimeError(f"counting bound violated: {len(cubes)} cubes, dense run {run}")
    return runs


def min_dense_run(geometry: LatticeGeometry, syndrome, params: ScaleParams) -> int:
    """Largest ``p`` with the syndrome dense at every level ``0..p`` (-1 if
    already sparse at level 0).

    A run of length ``p`` forces at least ``p + 2`` occupied cubes; that bound
    is re-checked here because its failure would mean the partition logic is
    broken, not that the input is unusual.
    """
    return dense_runs(geometry, [syndrome], params)[0]


# -- neutrality ---------------------------------------------------------------


@dataclass
class NeutralityResult:
    neutral: bool
    witness: PauliOperator | None
    reason: str
    placements_tried: int = 0


def _footprint_boxes(geometry: LatticeGeometry, cubes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least boxes covering the corner sites of padded cube sets ``(C, k, D)``
    (``_padded_blocks``), as corners and extents ``(C, D)``.  Per axis the
    corners' coordinates are the cubes' and their successors mod L, and the
    shortest circular interval covering them starts after the first largest
    gap between them in sorted order (the last gap wraps round to the first)."""
    L = geometry.L
    coords = np.sort(np.concatenate([cubes, cubes + 1], axis=1) % L, axis=1)
    ends = np.concatenate([coords, coords[:, :1] + L], axis=1)  # the first again, one turn on
    gaps = ends[:, 1:] - ends[:, :-1]
    after = gaps.argmax(axis=1) + 1
    return ends[np.arange(len(after))[:, None], after, np.arange(after.shape[1])] % L, L + 1 - gaps.max(axis=1)


def _single_qubit_witness(code: CodeInstance, site_ids: np.ndarray, target: Syndrome) -> PauliOperator | None:
    """The first single-qubit Pauli (site, sub, then X, Z, Y) on the given
    flat site ids whose flips are exactly the nonempty ``target``, or None."""
    g = code.geometry
    # a flip in the target scores 1, any other flip pushes the score past len(target)
    cand = (site_ids[:, None] * g.q + np.arange(g.q)).ravel()
    step, gens = code.qubit_flip_events(np.repeat(cand, 3), np.tile([PAULI_CODE[p] for p in "XZY"], len(cand)))
    hit = gf2.get_bit(code.syndrome_to_words(target), gens)
    exact = np.bincount(step, np.where(hit, 1, len(target) + 1), minlength=3 * len(cand)) == len(target)
    if not exact.any():
        return None
    j, k = divmod(int(exact.argmax()), 3)
    return PauliOperator.single(g, g.qubit_at(int(cand[j])), "XZY"[k])


class _BoxSolver:
    """Syndrome algebra of one support-box shape: the one local solver.

    The restricted syndrome matrix of a size-cube is the same for every
    placement (translation invariance), so it is factored once and per
    placement only the row labels shift, by a lookup over the box's cube
    offsets.  A defect pattern is achievable iff every defect is a row of the
    box and the rows have even overlap with every vector of the left
    nullspace.  That test, and whether any anchor pattern passes it, run over
    every placement in array operations; the patterns that pass at one
    placement are walked as a kernel; the same factorization solves for a witness.
    """

    def __init__(self, code: CodeInstance, size: int):
        g = self.geometry = code.geometry  # not the code: codes._SHAPES keeps this solver past it
        self.size = min(size, g.L)
        # Cube offsets -1..size-1 from the corner, row-major: the box's sites
        # are the offsets with no -1, and the box touches no other cube.
        grid = np.indices((self.size + 1,) * g.D).reshape(g.D, -1).T - 1
        self._box = grid[(grid >= 0).all(axis=1)]
        # site coordinates and slot of each qubit of the origin box, in column order
        self._sites, self._subs = np.repeat(self._box, g.q, axis=0), np.tile(np.arange(g.q), len(self._box))
        nq = len(self._subs)
        # rows: every species on every grid cube, by generator index, each once
        gens = (g.site_indices(grid)[:, None] * code.n_species + np.arange(code.n_species)).ravel()
        rows = np.sort(gens)
        rows = rows[np.diff(rows, prepend=-1) != 0]
        nrows, ncols = len(rows), 2 * nq
        # column j is an X error on qubit j, column j + nq a Z error
        paulis = np.repeat([PAULI_CODE["X"], PAULI_CODE["Z"]], nq)
        cols, flipped = code.flip_events(np.tile(self._sites, (2, 1)), np.tile(self._subs, 2), paulis)
        # One elimination of [matrix | I], built by one scatter: the identity
        # part of reduced row j lists the matrix rows that sum to it.  Reduced
        # rows past the rank span the left nullspace; the rest give the pivot
        # values of gf2_solve's solution, which is unique because the RREF is.
        matrix = gf2.from_bits(np.concatenate([np.searchsorted(rows, flipped), np.arange(nrows)]),
                               np.concatenate([cols, np.arange(nrows) + ncols]), nrows, ncols + nrows)
        reduced, pivots = gf2.BitMatrix(matrix, ncols + nrows).rref()
        self._pivots = np.array([c for c in pivots if c < ncols], dtype=np.int64)
        # row i's membership in every reduced row, as an int, and in the left
        # nullspace (the reduced rows past the rank), packed
        self._memberships = tuple(gf2.to_ints(reduced.columns(np.arange(ncols, ncols + nrows)).words))
        rank = len(self._pivots)
        self._null = gf2.from_ints([x >> rank for x in self._memberships], gf2.n_words(nrows - rank))
        # local row of the generator of each species on the cube at offset o - 1
        # from the corner, o in 0..size per axis
        self._row_at = np.searchsorted(rows, gens).reshape((self.size + 1,) * g.D + (code.n_species,))
        for shared in (self._box, self._sites, self._subs, self._pivots, self._null, self._row_at):
            shared.flags.writeable = False
        self._solutions: dict[tuple[int, ...], np.ndarray | None] = {}

    def local_rows(self, defects: Sequence[Defect], corners: np.ndarray) -> np.ndarray:
        """Local rows of the defects in the box at each corner, ``(P, m)``;
        -1 marks a defect outside that box."""
        g = self.geometry
        cubes = np.array([c for c, _ in defects], dtype=np.int64).reshape(-1, g.D)
        species = np.array([s for _, s in defects], dtype=np.int64)
        offsets = (cubes[None] - np.asarray(corners, dtype=np.int64).reshape(-1, 1, g.D) + 1) % g.L
        rows = self._row_at[(*np.moveaxis(np.minimum(offsets, self.size), -1, 0), species)]
        return np.where((offsets <= self.size).all(axis=-1), rows, -1)

    def achievable(self, rows: np.ndarray) -> np.ndarray:
        """Whether the box can flip exactly each row set (last axis of ``rows``)."""
        return (rows >= 0).all(axis=-1) & ~np.bitwise_xor.reduce(self._null[rows], axis=-2).any(axis=-1)

    def admits_pattern(self, rows: np.ndarray) -> np.ndarray:
        """Whether ``achievable_subsets`` yields anything for each row set
        (last axis of ``rows``): whether the present rows' left-nullspace
        memberships are dependent.  One elimination runs over every set in
        lockstep: row i, reduced by the rows before it, is zero or pivots on
        its lowest set bit, which the later rows holding it clear."""
        vecs = np.where(rows[..., None] >= 0, self._null[rows], 0)
        for i in range(rows.shape[-1] - 1):
            vec, later, nonzero = vecs[..., i, :], vecs[..., i + 1 :, :], vecs[..., i, :] != 0
            lead = np.where(nonzero & (np.cumsum(nonzero, axis=-1) == 1), vec & (~vec + np.uint64(1)), 0)
            later ^= np.where((later & lead[..., None, :]).any(axis=-1, keepdims=True), vec[..., None, :], 0)
        return ((rows >= 0) & ~vecs.any(axis=-1)).any(axis=-1)

    def achievable_subsets(self, rows: np.ndarray) -> Iterator[int]:
        """Nonempty anchor patterns (bit i picks anchor i, at local row
        ``rows[i]``, -1 if outside the box) that the box can flip exactly, in
        ascending order.  They are the kernel of "pattern -> XOR of its rows'
        left-nullspace memberships": the rows that one forward elimination of
        the memberships, each with its anchor's tag bit below them, leaves
        led by a tag.  Their leads are distinct tags; ascending by lead and
        each cleared of the lower leads, they are the reduced kernel basis,
        whose subset XORs ascend with the subset; the walk goes in chunks of
        4096 and costs 2^(kernel dimension), not 2^m."""
        rank, m = len(self._pivots), len(rows)
        tagged = [self._memberships[r] >> rank << m | 1 << i for i, r in enumerate(rows.tolist()) if r >= 0]
        table = gf2._echelon(tagged)[0]
        basis: list[int] = []
        for lead in sorted(lead for lead in table if lead <= m):
            basis.append(reduce(lambda x, b: min(x, x ^ b), basis, table[lead]))  # min clears b's top bit
        low = reduce(lambda table, b: table + [x ^ b for x in table], basis[:12], [0])
        for h in range(1 << max(len(basis) - 12, 0)):
            offset = reduce(xor, [b for j, b in enumerate(basis[12:]) if h >> j & 1], 0)
            yield from (x ^ offset for x in (low[1:] if h == 0 else low))

    def achievable_witness(self, rows, corner: Sequence[int]) -> PauliOperator | None:
        """Operator on the box at ``corner`` flipping exactly the given local
        rows (each a row of the box), or None: ``gf2_solve``'s solution (free
        variables zero), whose columns (X parts, then Z parts, of the box's
        qubits) are kept per pattern and placed at the corner by translation
        invariance."""
        key = tuple(sorted(int(r) for r in rows))
        if key not in self._solutions:  # a scan meets each pattern at many corners
            combined, rank = reduce(xor, [self._memberships[r] for r in key], 0), len(self._pivots)
            self._solutions[key] = (None if combined >> rank
                                    else self._pivots[[j for j in range(rank) if combined >> j & 1]])
        cols = self._solutions[key]
        if cols is None:
            return None
        g, nq = self.geometry, len(self._subs)
        sites = self._sites[cols % nq] + np.asarray(corner, dtype=np.int64)
        paulis = np.where(cols < nq, PAULI_CODE["X"], PAULI_CODE["Z"])
        return PauliOperator.from_codes(g, g.site_indices(sites) * g.q + self._subs[cols % nq], paulis)


def _box_solver(code: CodeInstance, size: int) -> _BoxSolver:
    """The box solver at effective size ``min(size, L)``, built once per shape in ``codes._SHAPES``."""
    eff = min(size, code.geometry.L)
    shape = _SHAPES.setdefault((code.spec, code.geometry.L), {})
    if eff not in shape:
        shape[eff] = _BoxSolver(code, eff)
    return shape[eff]


def _cube_placements(geometry: LatticeGeometry, corner: Site, extents: Sequence[int], size: int) -> np.ndarray:
    """Corners of every placement of an axis-aligned size-cube covering the
    given box, as a ``(P, D)`` array.

    An axis the cube spans entirely contributes one placement, not L.
    """
    slacks = [0 if size >= geometry.L else size - e for e in extents]
    offsets = np.array(list(product(*[range(s + 1) for s in slacks])), dtype=np.int64)
    return (np.asarray(corner, dtype=np.int64) - offsets) % geometry.L


def _local_witness(code: CodeInstance, syndrome: Syndrome, size: int, corners: np.ndarray):
    """Create ``syndrome`` inside the first of the size-boxes at ``corners``
    that can: returns (corners tried, corner, witness), or
    (len(corners), None, None) when no box can."""
    solver = _box_solver(code, size)
    rows = solver.local_rows(sorted(syndrome), corners)
    ok = solver.achievable(rows)
    if not ok.any():
        return len(corners), None, None
    k = int(ok.argmax())
    corner = tuple(corners[k].tolist())
    # the box's sites in sorted coordinate order
    witness = _single_qubit_witness(code, np.sort(code.geometry.site_indices(solver._box + corners[k])), syndrome)
    if witness is None:
        witness = solver.achievable_witness(rows[k], corner)
    if code.syndrome_of(witness) != syndrome:
        raise RuntimeError("box solver returned an inconsistent witness")
    return k + 1, corner, witness


def neutralities(code: CodeInstance, syndromes: Sequence, size: int) -> list[NeutralityResult]:
    """Whether each defect cluster can be created, alone, by an operator
    whose support fits in a cube of linear ``size``.

    The footprints come from one padded array per block (``_padded_blocks``),
    and one wider than ``min(size, L)`` is charged.  For the rest, every
    placement of the size-cube covering the footprint is tested at once
    (``_local_witness``); the witness, for the first achievable one, is valid
    but not weight-reduced.  A cluster with no witness at this scale is charged.
    """
    g, eff = code.geometry, min(size, code.geometry.L)
    syndromes = [code.defect_set(s) for s in syndromes]
    live = [s for s in syndromes if s]
    found = []
    for block, padded in _padded_blocks([list({c for c, _ in s}) for s in live]):
        corners, extents = (a.tolist() for a in _footprint_boxes(g, padded))
        for syndrome, corner, ext in zip(live[block], corners, extents):
            if max(ext) > eff:
                found.append(NeutralityResult(False, None, f"cluster footprint {tuple(ext)} exceeds size-{size} cube"))
                continue
            tried, place, witness = _local_witness(code, syndrome, eff, _cube_placements(g, corner, ext, eff))
            found.append(NeutralityResult(False, None, "no creation operator at this scale", tried) if witness is None
                         else NeutralityResult(True, witness, f"witness in cube at {place}", tried))
    results = iter(found)
    return [next(results) if s else NeutralityResult(True, PauliOperator.identity(g), "empty cluster") for s in syndromes]


def is_neutral(code: CodeInstance, syndrome, size: int) -> NeutralityResult:
    """Neutrality of one defect cluster (``neutralities``)."""
    return neutralities(code, [syndrome], size)[0]


def creation_operator(code: CodeInstance, syndrome, params: ScaleParams | None = None) -> PauliOperator:
    """Creation witness supported on the 1-neighborhood of the cluster's
    minimal enclosing cube (valid, not weight-reduced).

    Raises ValueError for charged clusters, and TQOViolationError for the
    pathological case where the cluster is neutral at the TQO scale yet no
    witness exists this close to it.
    """
    syndrome = code.defect_set(syndrome)
    g = code.geometry
    params = params or ScaleParams()
    if not syndrome:
        return PauliOperator.identity(g)
    _, padded = next(_padded_blocks([list(occupied_cubes(syndrome))]))
    corner, extents = (a[0].tolist() for a in _footprint_boxes(g, padded))
    size = min(max(extents), g.L)
    _, _, witness = _local_witness(code, syndrome, size + 2, _cube_placements(g, corner, extents, size) - 1)
    if witness is not None:
        return witness
    verdict = is_neutral(code, syndrome, params.ltqo_for(g))
    if verdict.neutral:
        raise TQOViolationError(
            "cluster is neutral at the TQO scale but has no witness on the "
            "1-neighborhood of its minimal enclosing cube"
        )
    raise ValueError("cluster is charged; no creation operator exists")


# -- localization ---------------------------------------------------------------


def localize(code: CodeInstance, op: PauliOperator, region_sites: Iterable[Site]) -> PauliOperator | None:
    """Find an operator supported on the region with the same syndrome as
    ``op`` and with ``op * result`` a stabilizer, if one exists.

    The two requirements pin the result to ``op`` times a stabilizer that
    cancels the support outside the region, so the search is one linear solve
    over stabilizer-basis coefficients; no candidate enumeration is needed,
    and a None return is a proof that no such operator exists.
    """
    g = code.geometry
    n = g.n_qubits
    region = {g.wrap(s) for s in region_sites}
    allowed = {g.qubit_index(QubitIndex(s, sub)) for s in region for sub in range(g.q)}
    outside = [j for j in range(n) if j not in allowed]
    out_cols = np.array(outside + [j + n for j in outside], dtype=np.int64)
    e = op.symplectic()
    rref, _ = code.stabilizer_rref()
    if not len(out_cols):
        return op
    # rows: the outside columns of the stabilizer RREF; right-hand side: op's bits there
    y = gf2.gf2_solve(rref.columns(out_cols), gf2.from_indices(np.flatnonzero(gf2.get_bit(e, out_cols)), len(out_cols)))
    if y is None:
        return None
    combo = np.bitwise_xor.reduce(rref.words[gf2.nonzero_indices(y, rref.nrows)], axis=0)
    result = PauliOperator.from_symplectic(g, e ^ combo)
    # Post-condition audit: support containment, syndrome equality, membership.
    if not result.support_sites() <= region:
        raise RuntimeError("localized operator escaped the region")
    if code.syndrome_of(result) != code.syndrome_of(op):
        raise RuntimeError("localized operator changed the syndrome")
    if not code.in_stabilizer_group(op * result):
        raise RuntimeError("localized operator is not stabilizer-equivalent")
    return result


# -- string segments ----------------------------------------------------------


@dataclass(frozen=True)
class CubeBox:
    """Axis-aligned box of elementary cubes: corner plus linear size."""

    corner: Site
    size: int

    def cubes(self, geometry: LatticeGeometry) -> list[Site]:
        return geometry.box_sites(self.corner, self.size)


def _aspect_ratios(geometry: LatticeGeometry, box1: CubeBox, corners2, size2: int) -> np.ndarray:
    """Aspect ratios of ``box1`` and a size-``size2`` box at each of ``corners2 (N, D)``:
    the diameter of the two anchor regions over ``box1.size``, so two unit anchors at
    torus distance d score d + 1.  The diameter is 1 + the largest torus length
    ``min(t, -t) mod L`` of the per-axis coordinate differences t, which fill a range
    within either box and one across.  Over a range it peaks at ``L // 2`` or at an end."""
    L, half = geometry.L, geometry.L // 2
    delta = np.asarray(corners2, dtype=np.int64).reshape(-1, geometry.D) - np.asarray(box1.corner, dtype=np.int64)
    lo = np.stack(np.broadcast_arrays(0, 0, delta - (box1.size - 1)))
    hi = np.stack(np.broadcast_arrays(box1.size - 1, size2 - 1, delta + (size2 - 1)))
    ends = np.maximum(np.minimum(lo % L, -lo % L), np.minimum(hi % L, -hi % L))
    spread = np.where((half - lo) % L <= hi - lo, half, ends)
    return (1 + spread.max(axis=(0, 2))) / box1.size


@dataclass
class SegmentFinding:
    box1: CubeBox
    box2: CubeBox
    aspect_ratio: float
    charged_anchors: tuple[int, ...]
    syndrome: Syndrome
    operator_weight: int


@dataclass
class StringScanReport:
    nontrivial: list[SegmentFinding]
    pairs_scanned: int
    patterns_tested: int
    budget_exhausted: bool


_SCAN_BATCH = 4096  # most support-box placements of a batch of scanned pairs


def _support_placements(geometry: LatticeGeometry, size: int, box1: CubeBox, corners2, size2: int):
    """Corners of the size-cubes that touch the generator footprints of both
    ``box1`` and a size-``size2`` box at each of ``corners2 (N, D)``, as
    ``(pair (P,), corners (P, D))``, pair by pair and each pair's sorted.

    A segment's support must fit in one cube of the TQO scale, and it can only
    flip an anchor generator if it reaches that generator's footprint, so
    these placements exhaust the searchable support regions.  A footprint
    spans the anchor's corner plus ``0..anchor size`` per axis, so a cube
    reaches it iff each corner coordinate is in a run from ``corner + 1 - size``."""
    L, D = geometry.L, geometry.D
    runs = [sorted({(c + o) % L for o in range(1 - size, box1.size + 1)}) for c in box1.corner]
    reach1 = np.zeros((1, D), dtype=np.int64) if size >= L else np.array(list(product(*runs)))
    offsets = reach1 - np.asarray(corners2, dtype=np.int64).reshape(-1, 1, D) + size - 1
    pair, k = np.nonzero((offsets % L < size + size2).all(axis=-1))
    return pair, reach1[k]


def scan_for_strings(
    code: CodeInstance, rho: int, budget: SearchBudget | None = None, params: ScaleParams | None = None
) -> StringScanReport:
    """Search for non-trivial string segments with aspect ratio above
    ``params.alpha``.

    Anchor pairs are placed on a stride-``rho`` grid; since the shipped codes
    are translation invariant, one anchor is pinned at the origin and only
    relative placements (up to inversion) are enumerated.  Batches of pairs
    find, in one pass, which support boxes admit a defect pattern on the
    anchors (``_BoxSolver.admits_pattern``); only there are the patterns
    walked in ascending order (``_BoxSolver.achievable_subsets``), and the
    new ones, up to the budget, get their anchors classified.  An empty
    report bounds only the searched family, it is not a proof.
    """
    if rho < 1:
        raise InputError("rho must be at least 1")
    g = code.geometry
    budget = budget or SearchBudget()
    params = params or ScaleParams()
    deadline = budget.deadline()
    box1 = CubeBox((0,) * g.D, rho)
    cubes1 = set(box1.cubes(g))  # box1 is pinned at the origin for every placement
    scale = params.ltqo_for(g)
    solver = _box_solver(code, scale)
    # box2 corners: the stride grid in product order, keeping the first met of
    # each inverse pair v, -v (one pair up to translation), boxes apart from
    # box1 on some axis and aspect ratios above alpha
    grid = np.indices((len(range(0, g.L, rho)),) * g.D).reshape(g.D, -1).T * rho
    inverse, place = -grid % g.L, g.L ** np.arange(g.D - 1, -1, -1)
    ratios = _aspect_ratios(g, box1, grid, rho)
    keep = (inverse % rho != 0).any(axis=1) | (inverse @ place >= grid @ place)
    keep &= ((grid >= rho) & (grid <= g.L - rho)).any(axis=1) & (ratios > params.alpha)
    corners2, ratios = grid[keep], ratios[keep]
    anchors1 = [(c, s) for c in box1.cubes(g) for s in range(code.n_species)]
    widest = 1 if solver.size >= g.L else min(g.L, solver.size + rho) ** g.D  # placements per pair
    findings: list[SegmentFinding] = []
    pairs_scanned = patterns_tested = 0
    exhausted = False
    batch_end = 0
    for k, v in enumerate(corners2.tolist()):
        if pairs_scanned >= budget.max_pairs or time.monotonic() > deadline:
            exhausted = True
            break
        pairs_scanned += 1
        if k == batch_end:  # built when the pair loop first reaches it
            batch_start, batch_end = k, min(k + max(1, _SCAN_BATCH // widest), len(corners2))
            pair, corners = _support_placements(g, solver.size, box1, corners2[k:batch_end], rho)
            # box2's anchors sit in a box where box1's sit in that box moved back by v
            rows = np.hstack([solver.local_rows(anchors1, c) for c in (corners, corners - corners2[k + pair])])
            admits = solver.admits_pattern(rows)
            bounds = np.searchsorted(pair, np.arange(batch_end - k + 1))
        box2, ratio = CubeBox(tuple(v), rho), float(ratios[k])
        anchors = anchors1 + [(g.shift(c, v), s) for c, s in anchors1]
        seen_patterns: set[int] = set()
        for j in range(bounds[k - batch_start], bounds[k - batch_start + 1]):
            if len(seen_patterns) >= budget.max_patterns or time.monotonic() > deadline:
                exhausted = True
                break
            if not admits[j]:
                continue
            corner, local_rows = tuple(corners[j].tolist()), rows[j]
            for pattern_bits in solver.achievable_subsets(local_rows):
                if pattern_bits in seen_patterns:
                    continue
                chosen = [i for i in range(len(anchors)) if pattern_bits >> i & 1]
                op = solver.achievable_witness(local_rows[chosen], corner)
                seen_patterns.add(pattern_bits)
                patterns_tested += 1
                syndrome = code.syndrome_of(op)
                if syndrome != frozenset(anchors[i] for i in chosen):
                    raise RuntimeError("box witness produced the wrong defect pattern")
                in1 = frozenset(d for d in syndrome if d[0] in cubes1)
                in2 = frozenset(syndrome - in1)
                charged = tuple(i for i, r in enumerate(neutralities(code, (in1, in2), scale)) if not r.neutral)
                if charged:
                    findings.append(SegmentFinding(box1, box2, ratio, charged, syndrome, op.weight))
                if len(seen_patterns) >= budget.max_patterns:
                    exhausted = True
                    break
    findings.sort(key=lambda f: (-f.aspect_ratio, f.box2.corner))
    return StringScanReport(findings, pairs_scanned, patterns_tested, exhausted)
