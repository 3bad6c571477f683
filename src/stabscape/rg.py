"""Renormalization over syndrome histories, world-line tracking, and
fractal-support measurements.

A path's syndrome history is thinned level by level: level p retains the
syndromes dense at every level below p, the endpoints stay pinned throughout,
and the errors between consecutive retained syndromes aggregate into level-p
errors.  The ladder stops at the first level that retains nothing interior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .codes import CodeInstance, Defect, Syndrome
from .defects import ScaleParams, cluster_partition, is_neutral, min_dense_run
from .lattice import LatticeGeometry, QubitIndex, Site
from .pauli import PauliOperator


@dataclass(frozen=True)
class SyndromeHistory:
    """Per-step syndromes of an error path, starting from a declared state."""

    steps: tuple[tuple[QubitIndex, str], ...]
    syndromes: tuple[Syndrome, ...]

    @property
    def T(self) -> int:
        return len(self.steps)

    @property
    def m(self) -> int:
        """Maximum defect count over the whole history."""
        return max(len(s) for s in self.syndromes)

    @property
    def initial(self) -> Syndrome:
        return self.syndromes[0]

    @property
    def final(self) -> Syndrome:
        return self.syndromes[-1]


def syndrome_history(
    code: CodeInstance,
    path: Iterable[tuple[QubitIndex, str]],
    initial: Iterable[Defect] = (),
) -> SyndromeHistory:
    steps = tuple(path)
    defects: set[Defect] = set(initial)
    syndromes = [frozenset(defects)]
    for qubit, p in steps:
        for d in code.flips(qubit, p):
            if d in defects:
                defects.discard(d)
            else:
                defects.add(d)
        syndromes.append(frozenset(defects))
    return SyndromeHistory(steps, tuple(syndromes))


@dataclass(frozen=True)
class LevelHistory:
    """One rung of the ladder: retained time indices and aggregated errors.

    ``errors[k]`` is the product of the path steps between the retained times
    ``retained[k]`` and ``retained[k + 1]``.  The errors are full-lattice
    operators, so they are built on first access and then kept; a ladder that
    is only counted never holds them.
    """

    level: int
    retained: tuple[int, ...]
    history: SyndromeHistory = field(repr=False, compare=False)
    geometry: LatticeGeometry = field(repr=False, compare=False)

    def interior(self) -> tuple[int, ...]:
        return self.retained[1:-1]

    @cached_property
    def errors(self) -> tuple[PauliOperator, ...]:
        steps = self.history.steps
        return tuple(
            PauliOperator.from_terms(self.geometry, steps[a:b])
            for a, b in zip(self.retained, self.retained[1:])
        )


@dataclass
class RGAnalysis:
    levels: list[LevelHistory]
    p_max: int
    empty_path: bool = False


def level_histories(code: CodeInstance, history: SyndromeHistory, params: ScaleParams) -> RGAnalysis:
    """Build the full ladder of level histories for one syndrome history.

    Interior syndromes are retained at level p iff they are dense at all
    levels below p; interior vacua are never retained above level 0.  Every
    level-p retained interior syndrome must carry at least p + 1 defects
    (the counting bound one level down); a violation is an internal error.
    """
    g = code.geometry
    T = history.T
    if T == 0:
        return RGAnalysis([LevelHistory(0, (0,), history, g)], 0, empty_path=True)

    dense_run: list[int] = []
    for t in range(1, T):
        s = history.syndromes[t]
        dense_run.append(min_dense_run(g, s, params) if s else -1)

    levels = [LevelHistory(0, tuple(range(T + 1)), history, g)]
    p = 1
    while True:
        interior = tuple(t for t in range(1, T) if history.syndromes[t] and dense_run[t - 1] >= p - 1)
        retained = (0,) + interior + (T,)
        for t in interior:
            if len(history.syndromes[t]) < p + 1:
                raise RuntimeError(
                    f"counting bound violated at t={t}: retained at level {p} "
                    f"with {len(history.syndromes[t])} defects"
                )
        levels.append(LevelHistory(p, retained, history, g))
        if not interior:
            return RGAnalysis(levels, p)
        p += 1


# -- charged-cluster world lines ---------------------------------------------------


@dataclass
class WorldLine:
    """Positions of one charged cluster across a history segment."""

    clusters: list[frozenset[Site]]

    def drift(self, geometry: LatticeGeometry) -> int:
        """Largest excursion from the initial position."""
        first = self.clusters[0]
        return max(geometry.set_dist(c, first) for c in self.clusters)


@dataclass
class TrackingReport:
    charged_counts: list[int]
    g_constant: bool
    continuity_violations: list[tuple[int, int]]  # (time, distance)
    locking_violations: list[tuple[int, int, int]]  # (worldline, time, distance)
    ambiguities: list[int]  # times with non-unique nearest-cluster matching

    @property
    def locking_holds(self) -> bool:
        return not self.locking_violations


def track_charged_clusters(
    code: CodeInstance,
    segment: Sequence[Syndrome],
    p: int,
    params: ScaleParams,
) -> tuple[list[WorldLine], TrackingReport]:
    """Follow charged clusters through a segment of level-p sparse syndromes.

    Every syndrome is partitioned at level p, clusters are classified
    neutral/charged at the TQO scale, and charged clusters are matched to
    their nearest successor within the continuity radius ``xi(p)``.  Locking
    excursions beyond ``alpha * xi(p)`` are diagnostics, not failures: codes
    with movable charges are expected to produce them.
    """
    g = code.geometry
    xi_p = params.xi(p)
    scale = params.ltqo_for(g)
    per_time: list[list[frozenset[Site]]] = []
    for syn in segment:
        if not syn:
            per_time.append([])
            continue
        verdict = cluster_partition(g, syn, p, params)
        if not verdict.sparse:
            raise ValueError("segment contains a syndrome dense at this level")
        charged = []
        for cluster in verdict.clusters:
            cluster_syndrome = frozenset(d for d in syn if d[0] in cluster)
            if not is_neutral(code, cluster_syndrome, scale).neutral:
                charged.append(cluster)
        per_time.append(sorted(charged, key=sorted))

    counts = [len(c) for c in per_time]
    g_constant = len(set(counts)) <= 1
    worldlines = [WorldLine([c]) for c in per_time[0]] if per_time else []
    continuity: list[tuple[int, int]] = []
    ambiguities: list[int] = []
    if g_constant and worldlines:
        for t in range(1, len(per_time)):
            nxt = list(per_time[t])
            taken: set[int] = set()
            for wl in worldlines:
                cur = wl.clusters[-1]
                dists = sorted(
                    (g.set_dist(cur, cand), i) for i, cand in enumerate(nxt) if i not in taken
                )
                d, i = dists[0]
                if len(dists) > 1 and dists[1][0] <= xi_p and d <= xi_p:
                    ambiguities.append(t)
                if d > xi_p:
                    continuity.append((t, d))
                taken.add(i)
                wl.clusters.append(nxt[i])
    locking = []
    alpha_xi = params.alpha * xi_p
    for a, wl in enumerate(worldlines):
        first = wl.clusters[0]
        for t, cluster in enumerate(wl.clusters):
            d = g.set_dist(cluster, first)
            if d > alpha_xi:
                locking.append((a, t, d))
    report = TrackingReport(counts, g_constant, continuity, locking, sorted(set(ambiguities)))
    return worldlines, report


# -- fractal measurements --------------------------------------------------------


@dataclass
class BoxCountEstimate:
    gamma: float
    counts: list[tuple[int, int]]  # (scale, occupied boxes)
    degenerate: bool = False
    anchor: tuple[int, ...] | None = None


def box_counting_dimension(
    sites: Iterable[Site],
    scales: Sequence[int],
    L: int | None = None,
    anchor: Sequence[int] | None = None,
) -> BoxCountEstimate:
    """Box-counting dimension of a site set.

    Boxes are axis-aligned cubes of each scale anchored at the origin (or at
    ``anchor``); the estimate is the least-squares slope of log(count)
    against log(1/scale).  At least 3 scales are required.
    """
    coords = np.asarray(sorted(set(sites)), dtype=np.int64)
    if coords.size == 0:
        raise ValueError("empty support")
    if len(scales) < 3:
        raise ValueError("need at least 3 scales")
    if anchor is not None:
        coords = coords - np.asarray(anchor, dtype=np.int64)
        coords = coords % L if L else coords
    counts = []
    for s in scales:
        boxes = coords // int(s)
        counts.append((int(s), int(np.unique(boxes, axis=0).shape[0])))
    if coords.shape[0] == 1:
        return BoxCountEstimate(0.0, counts, degenerate=True, anchor=tuple(anchor) if anchor else None)
    xs = np.log([1.0 / s for s, _ in counts])
    ys = np.log([c for _, c in counts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return BoxCountEstimate(slope, counts, anchor=tuple(anchor) if anchor else None)


def box_counting_anchor_spread(
    sites: Iterable[Site],
    scales: Sequence[int],
    L: int,
    n_anchors: int = 4,
    seed: int = 0,
) -> tuple[BoxCountEstimate, list[BoxCountEstimate], float]:
    """Baseline estimate plus re-runs at random anchors; returns the spread."""
    sites = list(sites)
    base = box_counting_dimension(sites, scales, L)
    rng = np.random.default_rng(seed)
    D = len(sites[0])
    others = []
    for _ in range(n_anchors):
        anchor = tuple(int(a) for a in rng.integers(0, L, size=D))
        others.append(box_counting_dimension(sites, scales, L, anchor))
    gammas = [base.gamma] + [o.gamma for o in others]
    return base, others, float(max(gammas) - min(gammas))


def support_connectivity(
    geometry: LatticeGeometry,
    support: Iterable[Site],
    A: Iterable[Site],
    B: Iterable[Site],
) -> list[Site] | None:
    """Shortest path from A to B inside the support under unit l-infinity hops.

    Breadth-first over support sites; returns the site sequence or None when
    A and B lie in different connected components.
    """
    support_set = set(support)
    A, B = set(A), set(B)
    if not A <= support_set or not B <= support_set:
        raise ValueError("endpoints must lie inside the support")
    goal = A & B
    if goal:
        return [sorted(goal)[0]]
    deltas = [d for d in product((-1, 0, 1), repeat=geometry.D) if any(d)]
    parents: dict[Site, Site | None] = {a: None for a in sorted(A)}
    frontier = sorted(A)
    while frontier:
        nxt = []
        for site in frontier:
            for d in deltas:
                nb = geometry.shift(site, d)
                if nb in parents or nb not in support_set:
                    continue
                parents[nb] = site
                if nb in B:
                    path = [nb]
                    while parents[path[-1]] is not None:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                nxt.append(nb)
        frontier = nxt
    return None
