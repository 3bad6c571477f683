"""Renormalization over syndrome histories, world-line tracking, and
fractal-support measurements.

A path's syndrome history is thinned level by level: level p retains the
syndromes dense at every level below p, the endpoints stay pinned throughout,
and the errors between consecutive retained syndromes aggregate into level-p
errors.  The ladder stops at the first level that retains nothing interior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .codes import CodeInstance, Defect, InputError, ScaleParams, Syndrome
from .defects import cluster_partitions, dense_runs, neutralities, set_distance
from .lattice import LatticeGeometry, Site
from .pauli import PauliOperator
from .paths import ErrorPath, walk_events


@dataclass(frozen=True)
class SyndromeHistory:
    """Per-step syndromes of an error path, starting from a declared state."""

    path: ErrorPath
    syndromes: tuple[Syndrome, ...]

    @property
    def T(self) -> int:
        return len(self.path)

    @property
    def m(self) -> int:
        """Maximum defect count over the whole history."""
        return max(len(s) for s in self.syndromes)


def syndrome_history(code: CodeInstance, path: ErrorPath, initial: Iterable[Defect] = ()) -> SyndromeHistory:
    """Per-step syndromes from the walker's events: each step toggles the
    generators it flips (no step flips one generator twice)."""
    step, gens = walk_events(code, path, initial)
    flipped = code.generators_at(gens)
    bounds = np.searchsorted(step, np.arange(len(path) + 2)).tolist()
    syndromes = [frozenset(flipped[: bounds[1]])]
    for a, b in zip(bounds[1:], bounds[2:]):
        syndromes.append(syndromes[-1].symmetric_difference(flipped[a:b]))
    return SyndromeHistory(path, tuple(syndromes))


@dataclass(frozen=True)
class LevelHistory:
    """One rung of the ladder: retained time indices and aggregated errors.

    ``error(k)`` is the product of the path steps between the retained times
    ``retained[k]`` and ``retained[k + 1]``.  It is a full-lattice operator,
    so it is built on each call and not kept.
    """

    level: int
    retained: tuple[int, ...]
    history: SyndromeHistory = field(repr=False, compare=False)
    geometry: LatticeGeometry = field(repr=False, compare=False)

    def interior(self) -> tuple[int, ...]:
        return self.retained[1:-1]

    def error(self, k: int) -> PauliOperator:
        if not 0 <= k < len(self.retained) - 1:
            raise IndexError(f"level {self.level} has {len(self.retained) - 1} errors, not an error {k}")
        g, path = self.geometry, self.history.path
        a, b = self.retained[k], self.retained[k + 1]
        return PauliOperator.from_codes(g, g.site_indices(path.sites[a:b]) * g.q + path.subs[a:b], path.paulis[a:b])


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

    occupied = [t for t in range(1, T) if history.syndromes[t]]
    runs = dense_runs(g, [history.syndromes[t] for t in occupied], params)

    levels = [LevelHistory(0, tuple(range(T + 1)), history, g)]
    p = 1
    while True:
        interior = tuple(t for t, run in zip(occupied, runs) if run >= p - 1)
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


class DenseSegmentError(ValueError):
    """A segment handed to world-line tracking holds a syndrome dense at its level."""


@dataclass
class WorldLine:
    """Positions of one charged cluster across a history segment."""

    clusters: list[frozenset[Site]]


@dataclass
class TrackingReport:
    charged_counts: list[int]
    g_constant: bool
    continuity_violations: list[tuple[int, int]]  # (time, distance)
    locking_violations: list[tuple[int, int, int]]  # (worldline, time, distance)
    ambiguities: list[int]  # times with non-unique nearest-cluster matching


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
    with movable charges are expected to produce them.  The partitions and
    the neutralities each run once over the whole segment.
    """
    g = code.geometry
    xi_p = params.xi(p)
    occupied = [t for t, syn in enumerate(segment) if syn]
    verdicts = cluster_partitions(g, [segment[t] for t in occupied], p, params)
    # classify the clusters before the first dense syndrome, then raise: a per-syndrome loop's order
    dense = next((k for k, v in enumerate(verdicts) if not v.sparse), len(verdicts))
    found = [(t, cl) for t, v in zip(occupied, verdicts[:dense]) for cl in v.clusters]
    clusters = [frozenset(d for d in segment[t] if d[0] in cl) for t, cl in found]
    neutral = neutralities(code, clusters, params.ltqo_for(g))
    if dense < len(verdicts):
        raise DenseSegmentError("segment contains a syndrome dense at this level")
    per_time: list[list[frozenset[Site]]] = [[] for _ in segment]
    for (t, cl), verdict in zip(found, neutral):
        if not verdict.neutral:
            per_time[t].append(cl)
    per_time = [sorted(charged, key=sorted) for charged in per_time]

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
                    (set_distance(g, cur, cand), i) for i, cand in enumerate(nxt) if i not in taken
                )
                d, i = dists[0]
                if len(dists) > 1 and dists[1][0] <= xi_p and d <= xi_p:
                    ambiguities.append(t)
                if d > xi_p:
                    continuity.append((t, d))
                taken.add(i)
                wl.clusters.append(nxt[i])
    locking = [(a, t, d) for a, wl in enumerate(worldlines) for t, cluster in enumerate(wl.clusters)
               if (d := set_distance(g, cluster, wl.clusters[0])) > params.alpha * xi_p]
    report = TrackingReport(counts, g_constant, continuity, locking, sorted(set(ambiguities)))
    return worldlines, report


# -- fractal measurements --------------------------------------------------------


@dataclass
class BoxCountEstimate:
    gamma: float
    counts: list[tuple[int, int]]  # (scale, occupied boxes)
    degenerate: bool = False


def box_counting_dimension(sites: np.ndarray | Iterable[Site], scales: Sequence[int]) -> BoxCountEstimate:
    """Box-counting dimension of a site set, given as an ``(N, D)`` array-like
    or any iterable of coordinate tuples; repeated sites count once.

    Boxes are axis-aligned cubes of each scale anchored at the origin; the
    estimate is the least-squares slope of log(count) against log(1/scale).
    At least 3 distinct scales, each at least 1, are required.
    """
    # an iterable with no array dimension (a set, a generator) is listed first
    coords = np.asarray(sites if np.ndim(sites) else [*sites], dtype=np.int64)
    if not coords.size:
        raise InputError("empty support")
    if len(set(scales)) < 3 or min(scales) < 1:
        raise InputError(f"need at least 3 distinct box scales, each at least 1; got {list(scales)}")
    coords = np.ascontiguousarray(coords.reshape(len(coords), -1).T)  # one row per axis
    counts = []
    for s in scales:
        boxes = coords // int(s)
        boxes -= boxes.min(axis=1, keepdims=True)
        keys = np.sort(np.ravel_multi_index(tuple(boxes), tuple(boxes.max(axis=1) + 1)))
        # distinct boxes by sort and diff (np.unique would import numpy.ma)
        counts.append((int(s), int(np.count_nonzero(np.diff(keys))) + 1))
    if (coords == coords[:, :1]).all():  # one distinct site
        return BoxCountEstimate(0.0, counts, degenerate=True)
    xs = np.log([1.0 / s for s, _ in counts])
    ys = np.log([c for _, c in counts])
    dx = xs - xs.mean()
    slope = float(dx @ (ys - ys.mean()) / (dx @ dx))  # least squares in closed form, as np.polyfit
    return BoxCountEstimate(slope, counts)
