"""Syndrome analysis: cluster partitions, sparsity levels, neutrality,
error localization, and logical string-segment classification.

All geometry is torus geometry.  The diameter of a set of elementary cubes is
``1 + max pairwise l-infinity distance`` between cube coordinates, so a single
cube has diameter 1; this one convention is shared by every routine below.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from . import gf2
from .codes import CodeInstance, Syndrome
from .lattice import LatticeGeometry, QubitIndex, Site
from .pauli import PauliOperator


class TQOViolationError(Exception):
    """A neutral cluster admits no creation operator near its enclosing cube."""


@dataclass(frozen=True)
class ScaleParams:
    """Length-scale bookkeeping: the aspect constant and the unit ladder.

    ``alpha`` is the no-strings aspect constant (15 for the cubic code family),
    ``xi(p) = (10 * alpha) ** p`` the level-p unit of length, ``ltqo`` the
    locality scale for neutrality solves (defaults to ``L // 2``), and ``beta``
    is recorded metadata for the ``ltqo >= L**beta`` assumption.
    """

    alpha: float = 15.0
    ltqo: int | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError("alpha must be at least 1")

    def xi(self, p: int) -> float:
        return float(10 * self.alpha) ** p

    def ltqo_for(self, geometry: LatticeGeometry) -> int:
        return self.ltqo if self.ltqo is not None else geometry.L // 2


def occupied_cubes(syndrome_or_cubes: Iterable) -> frozenset[Site]:
    """Cube coordinates occupied by a syndrome (or an explicit cube set)."""
    out = set()
    for el in syndrome_or_cubes:
        if len(el) == 2 and isinstance(el[0], tuple):
            out.add(el[0])  # (cube, species) defect
        else:
            out.add(tuple(el))
    return frozenset(out)


def cluster_diameter(geometry: LatticeGeometry, cubes: Iterable[Site]) -> int:
    """Diameter of a cube set: 1 + max pairwise torus distance."""
    return 1 + geometry.spread(cubes)


@dataclass(frozen=True)
class SparsityVerdict:
    """Level-p sparsity decision, with the partition the decision rests on."""

    level: int
    sparse: bool
    clusters: tuple[frozenset[Site], ...]
    diameters: tuple[int, ...]
    xi_p: float
    xi_p1: float
    scale_capped: bool  # xi(p+1) saturates the torus; comparisons degenerate


def _torus_distances(geometry: LatticeGeometry, cubes: Sequence[Site]) -> np.ndarray:
    """Pairwise torus l-infinity distances between cubes, as an m x m matrix.

    Built one axis at a time with a running max, so the work space stays m^2.
    """
    L = geometry.L
    dist = np.zeros((len(cubes), len(cubes)), dtype=np.int64)
    for axis in np.asarray(cubes, dtype=np.int64).T:
        delta = np.abs(axis[:, None] - axis[None, :]) % L
        np.maximum(dist, np.minimum(delta, L - delta), out=dist)
    return dist


def cluster_partition(geometry: LatticeGeometry, syndrome, p: int, params: ScaleParams) -> SparsityVerdict:
    """Decide level-``p`` sparsity by complete-linkage merging.

    The two clusters whose union has the smallest diameter are merged while
    that diameter is at most ``xi(p+1)``; ties go to the pair whose minimum
    cubes come first in lexicographic order.  The syndrome is sparse iff every
    remaining cluster has diameter at most ``xi(p)``; when it is, the returned
    partition satisfies both defining conditions exactly.

    Complete linkage never merges below an earlier merge height: the linkage
    of a merged cluster to any other, ``max(d_ik, d_jk)`` (the Lance-Williams
    max rule), is at least the height just merged.  So every live cluster's
    spread is at most the current minimum cross distance, a pair's union
    diameter is ``1 + cross``, and the merges run on one distance matrix.
    """
    cubes = occupied_cubes(syndrome)
    if not cubes:
        raise ValueError("sparsity is undefined for the empty syndrome")
    if p < 0:
        raise ValueError("level must be non-negative")
    xi_p, xi_p1 = params.xi(p), params.xi(p + 1)

    order = sorted(cubes)
    dist = _torus_distances(geometry, order)
    top = int(dist.max())
    if 1 + top <= xi_p1:  # every merge qualifies: one cluster
        members, spreads = [order], [top]
    else:
        # Row k stands for the cluster whose minimum cube is order[k]; a merge
        # keeps the smaller row, and the row-major argmin is the smallest
        # (distance, row, column), i.e. the lexicographic tie-break.
        members = [[c] for c in order]
        spreads = [0] * len(order)
        retired = np.iinfo(np.int64).max
        np.fill_diagonal(dist, retired)
        while True:
            i, j = divmod(int(np.argmin(dist)), len(order))
            height = int(dist[i, j])
            if 1 + height > xi_p1:
                break
            linkage = np.maximum(dist[i], dist[j])
            dist[i, :] = linkage
            dist[:, i] = linkage
            dist[j, :] = retired
            dist[:, j] = retired
            members[i] += members[j]
            members[j] = []
            spreads[i] = height
        live = [k for k, m in enumerate(members) if m]
        members = [members[k] for k in live]
        spreads = [spreads[k] for k in live]

    diameters = tuple(1 + s for s in spreads)
    sparse = all(d <= xi_p for d in diameters)
    return SparsityVerdict(
        level=p,
        sparse=sparse,
        clusters=tuple(frozenset(c) for c in members),
        diameters=diameters,
        xi_p=xi_p,
        xi_p1=xi_p1,
        scale_capped=xi_p1 >= geometry.L / 2,
    )


def min_dense_run(geometry: LatticeGeometry, syndrome, params: ScaleParams) -> int:
    """Largest ``p`` with the syndrome dense at every level ``0..p`` (-1 if
    already sparse at level 0).

    A run of length ``p`` forces at least ``p + 2`` occupied cubes; that bound
    is re-checked here because its failure would mean the partition logic is
    broken, not that the input is unusual.
    """
    cubes = occupied_cubes(syndrome)
    if not cubes:
        raise ValueError("sparsity is undefined for the empty syndrome")
    p = 0
    while True:
        if cluster_partition(geometry, cubes, p, params).sparse:
            run = p - 1
            break
        p += 1
    if len(cubes) < run + 2:
        raise RuntimeError(f"counting bound violated: {len(cubes)} cubes, dense run {run}")
    return run


# -- neutrality ---------------------------------------------------------------


@dataclass
class NeutralityResult:
    neutral: bool
    witness: PauliOperator | None
    reason: str
    placements_tried: int = 0

    def __bool__(self) -> bool:
        return self.neutral


def _syndrome_footprint(code: CodeInstance, cubes: Iterable[Site]) -> set[Site]:
    sites: set[Site] = set()
    for c in cubes:
        sites.update(code.geometry.cube_corner_sites(c))
    return sites


def _restricted_solve(
    code: CodeInstance,
    support_sites: Iterable[Site],
    target: np.ndarray,
    tidy: bool = True,
) -> PauliOperator | None:
    """Solve for an operator with the given syndrome, supported on ``sites``.

    ``target`` is a packed indicator over all generators.  Solvability is
    exact; with ``tidy`` the witness is also post-processed toward low weight
    (single-qubit short-circuit, then greedy reduction by syndrome-free
    elements of the restricted space), all deterministically.
    """
    g = code.geometry
    sites = sorted(set(support_sites))
    target_syndrome = code.words_to_syndrome(target)
    if tidy:
        if len(target_syndrome) == 0:
            return PauliOperator.identity(g)
        for site in sites:
            for sub in range(g.q):
                qb = QubitIndex(site, sub)
                for p in "XZY":
                    if frozenset(code.flips(qb, p)) == target_syndrome:
                        return PauliOperator.single(g, qb, p)
    sub, qubits, gen_rows = code.restricted_syndrome_matrix(sites)
    row_set = set(gen_rows)
    if any(code.generator_index(c, s) not in row_set for c, s in target_syndrome):
        return None  # a target defect is out of reach of this support
    x = gf2.gf2_solve(sub, gf2.to_bool(target, code.n_generators)[gen_rows])
    if x is None:
        return None
    if tidy:
        x = _tidy_solution(code, sub, x, sites, qubits)
    return _lift(g, qubits, x)


def _lift(geometry: LatticeGeometry, qubits: list[int], x: np.ndarray) -> PauliOperator:
    """Global operator of a local solution ``x`` over the (X || Z) columns of
    the given qubits, in the layout of ``restricted_syndrome_matrix``."""
    nq = len(qubits)
    local = gf2.nonzero_indices(x, 2 * nq)
    cols = np.asarray(qubits, dtype=np.int64)[local % nq] + geometry.n_qubits * (local >= nq)
    return PauliOperator.from_symplectic(geometry, gf2.from_indices(cols, 2 * geometry.n_qubits))


def _local_weight(bits: np.ndarray, nq: int) -> int:
    return int(np.count_nonzero(bits[:nq] | bits[nq:]))


def _region_generator_moves(code: CodeInstance, sites: list[Site], qubit_cols: list[int]) -> list[np.ndarray]:
    """Generators fully supported inside the region, in local column layout."""
    g = code.geometry
    site_set = set(sites)
    col_of = {q: i for i, q in enumerate(qubit_cols)}
    nq = len(qubit_cols)
    moves = []
    for cube in sorted(site_set):
        if not all(corner in site_set for corner in g.cube_corner_sites(cube)):
            continue
        for s in range(code.n_species):
            gen = code.generator(cube, s)
            local = np.zeros(2 * nq, dtype=bool)
            ok = True
            for q, p in gen.terms():
                j = g.qubit_index(q)
                if j not in col_of:
                    ok = False
                    break
                if p in "XY":
                    local[col_of[j]] = True
                if p in "ZY":
                    local[col_of[j] + nq] = True
            if ok:
                moves.append(local)
    return moves


def _tidy_solution(
    code: CodeInstance,
    sub: gf2.BitMatrix,
    x: np.ndarray,
    sites: list[Site],
    qubit_cols: list[int],
) -> np.ndarray:
    """Greedily lower a restricted solution's qubit weight.

    XORs in syndrome-free directions (region-supported generators plus the
    restricted nullspace basis) while the weight drops; deterministic and
    bounded, a heuristic rather than a true minimum-weight decoder.
    """
    nq = len(qubit_cols)
    move_bits = _region_generator_moves(code, sites, qubit_cols)
    moves = gf2.nullspace(sub)
    move_bits += [gf2.to_bool(moves.words[i], sub.ncols) for i in range(moves.nrows)]
    if not move_bits:
        return x
    cur = gf2.to_bool(x, sub.ncols)
    best = _local_weight(cur, nq)
    for _ in range(16):
        improved = False
        for mb in move_bits:
            trial = cur ^ mb
            w = _local_weight(trial, nq)
            if w < best:
                cur, best, improved = trial, w, True
        if not improved:
            break
    return gf2.from_bool(cur)


def _cube_placements(geometry: LatticeGeometry, corner: Site, extents: Sequence[int], size: int):
    """All placements of an axis-aligned size-cube covering the given box.

    An axis the cube spans entirely contributes one placement, not L.
    """
    slacks = [0 if size >= geometry.L else size - e for e in extents]
    for offs in product(*[range(s + 1) for s in slacks]):
        yield tuple((c - o) % geometry.L for c, o in zip(corner, offs))


def is_neutral(code: CodeInstance, syndrome, size: int) -> NeutralityResult:
    """Whether the defect cluster can be created, alone, by an operator whose
    support fits in a cube of linear ``size``.

    Tries every placement of the size-cube that covers the cluster footprint,
    solving the support-restricted syndrome system for each; the first witness
    found is returned.  A cluster with no witness at this scale is charged.
    """
    syndrome = frozenset(syndrome)
    g = code.geometry
    if not syndrome:
        return NeutralityResult(True, PauliOperator.identity(g), "empty cluster")
    cubes = occupied_cubes(syndrome)
    footprint = _syndrome_footprint(code, cubes)
    eff = min(size, g.L)
    corner, extents = g.bounding_box(footprint)
    if max(extents) > eff:
        return NeutralityResult(False, None, f"cluster footprint {extents} exceeds size-{size} cube")
    target = code.syndrome_to_words(syndrome)
    tried = 0
    for place in _cube_placements(g, corner, extents, eff):
        tried += 1
        witness = _restricted_solve(code, g.box_sites(place, eff), target)
        if witness is not None:
            if code.syndrome_of(witness) != syndrome:
                raise RuntimeError("restricted solve returned an inconsistent witness")
            return NeutralityResult(True, witness, f"witness in cube at {place}", tried)
    return NeutralityResult(False, None, "no creation operator at this scale", tried)


def creation_operator(code: CodeInstance, syndrome, params: ScaleParams | None = None) -> PauliOperator:
    """Creation witness supported on the 1-neighborhood of the cluster's
    minimal enclosing cube.

    Raises ValueError for charged clusters, and TQOViolationError for the
    pathological case where the cluster is neutral at the TQO scale yet no
    witness exists this close to it.
    """
    syndrome = frozenset(syndrome)
    g = code.geometry
    params = params or ScaleParams()
    if not syndrome:
        return PauliOperator.identity(g)
    cubes = occupied_cubes(syndrome)
    footprint = _syndrome_footprint(code, cubes)
    corner, extents = g.bounding_box(footprint)
    size = min(max(extents), g.L)
    target = code.syndrome_to_words(syndrome)
    for place in _cube_placements(g, corner, extents, size):
        ball_corner = tuple((c - 1) % g.L for c in place)
        support = g.box_sites(ball_corner, min(size + 2, g.L))
        witness = _restricted_solve(code, support, target)
        if witness is not None:
            if code.syndrome_of(witness) != syndrome:
                raise RuntimeError("restricted solve returned an inconsistent witness")
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
    region = set(region_sites)
    allowed = {g.qubit_index(QubitIndex(s, sub)) for s in region for sub in range(g.q)}
    outside = [j for j in range(n) if j not in allowed]
    out_cols = [j for j in outside] + [j + n for j in outside]
    e = op.symplectic()
    rref, _ = code.stabilizer_rref()
    if not out_cols:
        return op
    system = rref.select_columns(out_cols).transpose()  # |out_cols| x rank
    rhs = gf2.from_bool([gf2.get_bit(e, c) for c in out_cols])
    y = gf2.gf2_solve(system, rhs)
    if y is None:
        return None
    combo = gf2.zeros(2 * n)
    for r in gf2.nonzero_indices(y, rref.nrows):
        combo ^= rref.words[int(r)]
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


NOT_SEGMENT = "not_segment"
TRIVIAL = "trivial"
NONTRIVIAL = "nontrivial"


@dataclass
class SegmentClassification:
    kind: str
    aspect_ratio: float
    anchor_syndromes: tuple[Syndrome, Syndrome]
    charged_anchors: tuple[int, ...]
    stray_defects: Syndrome


def anchor_aspect_ratio(geometry: LatticeGeometry, box1: CubeBox, box2: CubeBox) -> float:
    """Overall extent of the anchor pair in units of the anchor size.

    Measured as the diameter of the combined anchor regions divided by the
    anchor size, so two unit anchors at torus distance d score d + 1.
    """
    combined = set(box1.cubes(geometry)) | set(box2.cubes(geometry))
    return cluster_diameter(geometry, combined) / box1.size


def classify_string_segment(
    code: CodeInstance,
    op: PauliOperator,
    box1: CubeBox,
    box2: CubeBox,
    params: ScaleParams,
) -> SegmentClassification:
    """Classify an operator against a pair of anchor regions.

    An operator whose defects all sit inside the anchors is a string segment;
    it is trivial iff both anchor clusters are neutral at the TQO scale.
    """
    g = code.geometry
    if box1.size != box2.size:
        raise ValueError("anchor boxes must have equal linear size")
    cubes1, cubes2 = set(box1.cubes(g)), set(box2.cubes(g))
    if cubes1 & cubes2:
        raise ValueError("anchor boxes overlap")
    syndrome = code.syndrome_of(op)
    ratio = anchor_aspect_ratio(g, box1, box2)
    in1 = frozenset(d for d in syndrome if d[0] in cubes1)
    in2 = frozenset(d for d in syndrome if d[0] in cubes2)
    stray = frozenset(syndrome - in1 - in2)
    if stray:
        return SegmentClassification(NOT_SEGMENT, ratio, (in1, in2), (), stray)
    scale = params.ltqo_for(g)
    charged = tuple(
        i for i, cluster in enumerate((in1, in2)) if not is_neutral(code, cluster, scale).neutral
    )
    kind = TRIVIAL if not charged else NONTRIVIAL
    return SegmentClassification(kind, ratio, (in1, in2), charged, stray)


@dataclass
class ScanBudget:
    max_anchor_pairs: int = 2000
    max_patterns_per_pair: int = 64
    time_cap: float | None = None


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
    notes: str = ""

    def found_violation(self, alpha: float) -> bool:
        return any(f.aspect_ratio > alpha for f in self.nontrivial)


class _BoxSolver:
    """Cached syndrome algebra of one support-box shape.

    The restricted syndrome matrix of a size-cube is the same for every
    placement (translation invariance), so its column space is factored once;
    per placement only the row labels shift.  A defect pattern is achievable
    iff it has even overlap with every vector of the left nullspace (the
    orthogonal complement of the column space); that parity test is cheap,
    and a witness solve runs only for the achievable patterns.
    """

    def __init__(self, code: CodeInstance, size: int):
        g = code.geometry
        self.code = code
        self.size = min(size, g.L)
        origin = (0,) * g.D
        sites = g.box_sites(origin, self.size)
        self.matrix, self.qubits0, gen_rows0 = code.restricted_syndrome_matrix(sites)
        self.gen_cubes0 = [code.generator_at(r) for r in gen_rows0]
        self._checks = gf2.nullspace(self.matrix.transpose()).to_bool_array()
        self._witness_cache: dict[tuple, PauliOperator | None] = {}

    def rows_for(self, corner: Site) -> dict[int, int]:
        """Absolute generator index -> local row, for the box at ``corner``."""
        code, g = self.code, self.code.geometry
        return {
            code.generator_index(g.shift(cube, corner), s): i
            for i, (cube, s) in enumerate(self.gen_cubes0)
        }

    def achievable_witness(self, local_pattern: tuple[int, ...]) -> PauliOperator | None:
        """Operator on the origin box flipping exactly the given local rows."""
        key = tuple(sorted(local_pattern))
        if key in self._witness_cache:
            return self._witness_cache[key]
        rows = list(key)
        witness = None
        if not np.logical_xor.reduce(self._checks[:, rows], axis=1).any():
            rhs = np.zeros(self.matrix.nrows, dtype=np.uint8)
            rhs[rows] = 1
            witness = _lift(self.code.geometry, self.qubits0, gf2.gf2_solve(self.matrix, rhs))
        self._witness_cache[key] = witness
        return witness


def _support_placements(code: CodeInstance, box1: CubeBox, box2: CubeBox, size: int) -> list[Site]:
    """Corners of the size-cubes that touch both anchors' generator footprints.

    A segment's support must fit in one cube of the TQO scale, and it can only
    flip an anchor generator if it reaches that generator's footprint, so
    these placements exhaust the searchable support regions.
    """
    g = code.geometry
    eff = min(size, g.L)
    if eff >= g.L:
        return [(0,) * g.D]  # one cube covers everything

    def corners_reaching(footprint: set[Site]) -> set[Site]:
        out: set[Site] = set()
        for s in footprint:
            out.update(g.box_sites(tuple(c - eff + 1 for c in s), eff))
        return out

    f1 = _syndrome_footprint(code, box1.cubes(g))
    f2 = _syndrome_footprint(code, box2.cubes(g))
    return sorted(corners_reaching(f1) & corners_reaching(f2))


def scan_for_strings(
    code: CodeInstance,
    rho: int,
    alpha: float,
    budget: ScanBudget | None = None,
    params: ScaleParams | None = None,
) -> StringScanReport:
    """Search for non-trivial string segments with aspect ratio above alpha.

    Anchor pairs are placed on a stride-``rho`` grid; since the shipped codes
    are translation invariant, one anchor is pinned at the origin and only
    relative placements (up to inversion) are enumerated.  For each placement
    the support-restricted solve enumerates every achievable anchor defect
    pattern up to the budget and classifies its anchors.  An empty report
    bounds only the searched family, it is not a proof.
    """
    g = code.geometry
    budget = budget or ScanBudget()
    params = params or ScaleParams()
    start = time.monotonic()
    origin = (0,) * g.D
    box1 = CubeBox(origin, rho)
    seen: set[Site] = set()
    placements: list[CubeBox] = []
    for v in product(range(0, g.L, rho), repeat=g.D):
        if v in seen:
            continue
        neg = tuple((-c) % g.L for c in v)
        seen.update({v, neg})
        box2 = CubeBox(v, rho)
        if set(box1.cubes(g)) & set(box2.cubes(g)):
            continue
        if anchor_aspect_ratio(g, box1, box2) > alpha:
            placements.append(box2)
    placements.sort(key=lambda b: b.corner)

    findings: list[SegmentFinding] = []
    pairs_scanned = patterns_tested = 0
    exhausted = False
    neutrality_cache: dict = {}

    def cached_neutral(cluster: Syndrome, scale: int) -> bool:
        if not cluster:
            return True
        cubes = sorted(c for c, _ in cluster)
        base = cubes[0]
        key = (frozenset(((tuple((x - y) % g.L for x, y in zip(c, base))), s) for c, s in cluster), scale)
        if key not in neutrality_cache:
            neutrality_cache[key] = is_neutral(code, cluster, scale).neutral
        return neutrality_cache[key]

    scale = params.ltqo_for(g)
    solver = _BoxSolver(code, scale)
    for box2 in placements:
        if pairs_scanned >= budget.max_anchor_pairs or (
            budget.time_cap is not None and time.monotonic() - start > budget.time_cap
        ):
            exhausted = True
            break
        pairs_scanned += 1
        anchor_cubes = box1.cubes(g) + box2.cubes(g)
        anchor_rows = [code.generator_index(c, s) for c in anchor_cubes for s in range(code.n_species)]
        anchor_pos = {r: i for i, r in enumerate(anchor_rows)}
        ratio = anchor_aspect_ratio(g, box1, box2)
        seen_patterns: set[int] = set()
        for corner in _support_placements(code, box1, box2, scale):
            if len(seen_patterns) >= budget.max_patterns_per_pair:
                exhausted = True
                break
            local_rows = solver.rows_for(corner)
            present = [r for r in anchor_rows if r in local_rows]
            for subset in range(1, 1 << len(present)):
                chosen = [present[i] for i in range(len(present)) if (subset >> i) & 1]
                pattern_bits = sum(1 << anchor_pos[r] for r in chosen)
                if pattern_bits in seen_patterns:
                    continue
                witness0 = solver.achievable_witness(tuple(local_rows[r] for r in chosen))
                if witness0 is None:
                    continue
                seen_patterns.add(pattern_bits)
                patterns_tested += 1
                op = witness0.translate(corner)
                syndrome = code.syndrome_of(op)
                if syndrome != frozenset(code.generator_at(r) for r in chosen):
                    raise RuntimeError("box witness produced the wrong defect pattern")
                cubes1 = set(box1.cubes(g))
                in1 = frozenset(d for d in syndrome if d[0] in cubes1)
                in2 = frozenset(syndrome - in1)
                charged = tuple(i for i, cl in enumerate((in1, in2)) if not cached_neutral(cl, scale))
                if charged:
                    findings.append(
                        SegmentFinding(box1, box2, ratio, charged, syndrome, op.weight)
                    )
                if len(seen_patterns) >= budget.max_patterns_per_pair:
                    exhausted = True
                    break
    findings.sort(key=lambda f: (-f.aspect_ratio, f.box2.corner))
    return StringScanReport(findings, pairs_scanned, patterns_tested, exhausted)
