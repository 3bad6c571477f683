"""Level histories, world-line tracking, and fractal-support measurements."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pairwise_reference_partition, reference_set_distance, retired_dense_run
from stabscape import defects, get_code, rg
from stabscape.defects import ScaleParams, neutralities
from stabscape.lattice import QubitIndex
from stabscape.pauli import PauliOperator
from stabscape.paths import ErrorPath, pyramid_operator, pyramid_path
from stabscape.rg import (
    DenseSegmentError,
    SyndromeHistory,
    box_counting_dimension,
    level_histories,
    syndrome_history,
    track_charged_clusters,
)

PARAMS = ScaleParams()


def test_history_of_double_flip(cubic4):
    u = QubitIndex((1, 1, 1), 0)
    hist = syndrome_history(cubic4, ErrorPath.from_steps([(u, "X"), (u, "X")]))
    assert len(hist.syndromes) == 3
    assert hist.syndromes[0] == hist.syndromes[2] == frozenset()
    assert len(hist.syndromes[1]) == 4
    assert hist.m == 4


def test_empty_history_flagged(cubic4):
    analysis = level_histories(cubic4, syndrome_history(cubic4, ErrorPath.from_steps([])), PARAMS)
    assert analysis.p_max == 0
    assert analysis.empty_path


def synthetic_history(code, syndromes):
    """History with pinned syndromes; the self-cancelling steps keep the
    aggregated level errors well-defined."""
    u = QubitIndex((0,) * code.geometry.D, 0)
    path = ErrorPath.from_steps((u, "X") for _ in range(len(syndromes) - 1))
    return SyndromeHistory(path, tuple(frozenset(s) for s in syndromes))


def test_single_cube_history_pmax_one(cubic8):
    z = cubic8.species_index("z")
    hist = synthetic_history(cubic8, [set(), {((1, 1, 1), z)}, set()])
    analysis = level_histories(cubic8, hist, PARAMS)
    assert analysis.p_max == 1
    assert analysis.levels[1].interior() == ()


def test_adjacent_pair_history_pmax_two(cubic8):
    z = cubic8.species_index("z")
    pair = {((1, 1, 1), z), ((2, 1, 1), z)}
    hist = synthetic_history(cubic8, [set(), pair, set()])
    analysis = level_histories(cubic8, hist, PARAMS)
    assert analysis.p_max == 2
    assert analysis.levels[1].interior() == (1,)
    assert analysis.levels[2].interior() == ()


def test_endpoints_pinned_for_cluster_variant(cubic8):
    # creation variant: final syndrome nonempty, still retained at all levels
    z = cubic8.species_index("z")
    final = {((0, 0, 0), z)}
    hist = synthetic_history(cubic8, [set(), {((3, 3, 3), z), ((4, 3, 3), z)}, final])
    analysis = level_histories(cubic8, hist, PARAMS)
    for lvl in analysis.levels:
        assert lvl.retained[0] == 0 and lvl.retained[-1] == 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pyramid_rg_pipeline(n):
    code = get_code("cubic1", 2**n)
    path = pyramid_path(code, n, (0, 0, 0))
    hist = syndrome_history(code, path)
    analysis = level_histories(code, hist, PARAMS)
    assert hist.m <= 4 * n + 4
    # measured fixture: with the default aspect constant, every multi-cube
    # syndrome is dense at level 0 and sparse at level 1, so the ladder
    # always tops out at level 2 on these paths
    assert analysis.p_max == 2
    # nesting
    for lo, hi in zip(analysis.levels, analysis.levels[1:]):
        assert set(hi.retained) <= set(lo.retained)
    # retained syndromes carry at least p+1 defects
    for lvl in analysis.levels[1:]:
        for t in lvl.interior():
            assert len(hist.syndromes[t]) >= lvl.level + 1
    # product of level-p errors between consecutive level-(p+1) syndromes
    for lo, hi in zip(analysis.levels, analysis.levels[1:]):
        idx = {t: i for i, t in enumerate(lo.retained)}
        for k, (a, b) in enumerate(zip(hi.retained, hi.retained[1:])):
            prod = PauliOperator.identity(code.geometry)
            for i in range(idx[a], idx[b]):
                prod = prod * lo.error(i)
            assert prod == hi.error(k)
    # the top level holds a single aggregated error equal to the full product
    top = analysis.levels[-1]
    assert len(top.retained) == 2
    assert top.error(0) == pyramid_operator(code, n, (0, 0, 0))


@settings(max_examples=30)
@given(
    steps=st.lists(
        st.tuples(st.tuples(*[st.integers(0, 3)] * 3), st.integers(0, 1), st.sampled_from("XYZ")),
        max_size=12,
    )
)
def test_level_errors_built_per_call(cubic4, steps):
    """Each ``error(k)`` is built on its call and kept nowhere; the errors of
    every level multiply to the whole path, and there is no error past the
    last retained interval."""
    path = [(QubitIndex(site, sub), p) for site, sub, p in steps]
    analysis = level_histories(cubic4, syndrome_history(cubic4, ErrorPath.from_steps(path)), PARAMS)
    whole = PauliOperator.from_terms(cubic4.geometry, path)
    for lvl in analysis.levels:
        held = dict(vars(lvl))
        prod = PauliOperator.identity(cubic4.geometry)
        for k in range(len(lvl.retained) - 1):
            prod = prod * lvl.error(k)
        assert prod == whole
        assert vars(lvl) == held
        for k in (-1, len(lvl.retained) - 1):
            with pytest.raises(IndexError):
                lvl.error(k)


def retired_ladder(code, history, params):
    """The retired per-syndrome ladder: every occupied syndrome's dense run
    from ``cluster_partition`` level by level, then the retained times of
    each level.  Returns the retained tuples and p_max."""
    g, T = code.geometry, history.T
    runs = [retired_dense_run(g, s, params) if s else -1 for s in history.syndromes[1:T]]
    ladder = [tuple(range(T + 1))]
    p = 1
    while True:
        interior = tuple(t for t in range(1, T) if history.syndromes[t] and runs[t - 1] >= p - 1)
        ladder.append((0,) + interior + (T,))
        if not interior:
            return ladder, p
        p += 1


@st.composite
def short_paths(draw):
    """A short random path on cubic1 or toric3d.  At L = 24 and alpha = 1 the
    cap level is 1, so scattered defects take the merge path."""
    code = get_code(draw(st.sampled_from(["cubic1", "toric3d"])), draw(st.sampled_from([3, 8, 24, 24])))
    g = code.geometry
    site = st.tuples(*[st.integers(0, g.L - 1)] * g.D)
    steps = draw(st.lists(st.tuples(site, st.integers(0, g.q - 1), st.sampled_from("XYZ")), min_size=1, max_size=14))
    return code, [(QubitIndex(s, sub), p) for s, sub, p in steps]


@settings(max_examples=150)
@given(case=short_paths(), alpha=st.sampled_from([1.0, 1.3, 2.0, 15.0]))
def test_level_histories_match_the_retired_ladder(case, alpha):
    code, path = case
    params = ScaleParams(alpha=alpha)
    history = syndrome_history(code, ErrorPath.from_steps(path))
    analysis = level_histories(code, history, params)
    assert ([lvl.retained for lvl in analysis.levels], analysis.p_max) == retired_ladder(code, history, params)


def test_track_static_syndrome(cubic8):
    z = cubic8.species_index("z")
    pair = frozenset({((0, 0, 0), z), ((1, 0, 0), z), ((0, 1, 0), z), ((0, 0, 1), z)})
    params = ScaleParams(alpha=1.0, ltqo=2)
    worldlines, report = track_charged_clusters(cubic8, [pair, pair, pair], 1, params)
    assert report.g_constant
    assert not report.continuity_violations
    assert not report.locking_violations
    for wl in worldlines:
        assert max(reference_set_distance(cubic8.geometry, c, wl.clusters[0]) for c in wl.clusters) == 0


def test_track_toric_transport_violates_locking():
    code = get_code("toric2d", 32)
    g = code.geometry
    params = ScaleParams(alpha=1.0, ltqo=4)
    prep = [(QubitIndex((x, 0), 1), "X") for x in range(1, 17)]
    start = syndrome_history(code, ErrorPath.from_steps(prep)).syndromes[-1]
    move = [(QubitIndex((x, 0), 1), "X") for x in range(17, 20)]
    hist = syndrome_history(code, ErrorPath.from_steps(move), initial=start)
    worldlines, report = track_charged_clusters(code, hist.syndromes, 0, params)
    assert report.g_constant and report.charged_counts[0] == 2
    assert not report.continuity_violations  # one step moves one unit
    assert report.locking_violations  # transport beyond alpha * xi(0)
    assert max(reference_set_distance(g, c, wl.clusters[0]) for wl in worldlines for c in wl.clusters) == 3


def test_track_cubic_low_weight_paths_show_no_locking_violations(cubic8, rng):
    params = ScaleParams(alpha=1.0, ltqo=4)
    g = cubic8.geometry
    for _ in range(10):
        start = tuple(int(c) for c in rng.integers(0, 8, size=3))
        steps = []
        site = np.array(start)
        for _ in range(3):
            steps.append((QubitIndex(tuple(int(c) for c in site % 8), 0), "X"))
            site = site + rng.integers(-1, 2, size=3)
        hist = syndrome_history(cubic8, ErrorPath.from_steps(steps))
        try:
            _, report = track_charged_clusters(cubic8, hist.syndromes[1:], 1, params)
        except ValueError:
            continue  # a syndrome was dense at level 1; not trackable
        assert not report.locking_violations


@pytest.mark.parametrize("block", [4, 8, 1 << 16])  # 1, 2 and all syndromes of 2 cubes per block
@pytest.mark.parametrize("dense_at", [0, 2, 5])
def test_track_raises_where_the_per_syndrome_loop_did(dense_at, block):
    """A segment of sparse level-0 syndromes (string ends 12 apart) with one
    dense syndrome (an adjacent pair) inserted raises DenseSegmentError, and
    before raising classifies exactly the clusters that a loop over the
    syndromes, one at a time, classified before it reached the dense one."""
    code = get_code("toric2d", 32)
    g = code.geometry
    params = ScaleParams(alpha=1.0, ltqo=4)

    def string(x, length):
        return code.syndrome_of(PauliOperator.from_terms(g, [(QubitIndex((x + i, 0), 1), "X") for i in range(length)]))

    sparse = [string(x, 12) for x in range(5)]
    segment = sparse[:dense_at] + [string(20, 1)] + sparse[dense_at:]
    classified = []

    def recording(code, clusters, size):
        classified.extend(clusters)
        return neutralities(code, clusters, size)

    with mock.patch.object(defects, "_PAIR_BLOCK", block), mock.patch.object(rg, "neutralities", recording):
        with pytest.raises(DenseSegmentError):
            track_charged_clusters(code, segment, 0, params)
        _, report = track_charged_clusters(code, sparse, 0, params)
    verdicts = [pairwise_reference_partition(g, syn, 0, params) for syn in segment]
    assert [sparse for _, _, sparse in verdicts].index(False) == dense_at
    before = [frozenset(d for d in syn if d[0] in cl) for syn, v in zip(segment[:dense_at], verdicts) for cl in v[0]]
    assert classified[: len(before)] == before and len(classified) == len(before) + 2 * len(sparse)
    assert report.charged_counts == [2] * len(sparse)


def test_track_rejects_dense_segment(toric3):
    z = toric3.species_index("z")
    pair = frozenset({((0, 0), z), ((1, 0), z)})  # adjacent: dense at level 0
    with pytest.raises(ValueError):
        track_charged_clusters(toric3, [pair], 0, ScaleParams(alpha=1.0, ltqo=1))


# -- box counting ------------------------------------------------------------------


def test_box_counting_analytic_sets():
    L = 32
    line = [(x, 0, 0) for x in range(L)]
    plane = [(x, y, 0) for x in range(L) for y in range(L)]
    solid = [(x, y, z) for x in range(L) for y in range(L) for z in range(L)]
    scales = [1, 2, 4, 8, 16]
    for sites, expect in ((line, 1.0), (plane, 2.0), (solid, 3.0)):
        est = box_counting_dimension(sites, scales)
        assert abs(est.gamma - expect) <= 0.05


def test_box_counting_pyramid_dimension_two():
    for p in (4, 5, 6):
        code = get_code("cubic1", 2**p)
        sites = pyramid_operator(code, p, (0, 0, 0)).support_sites()
        est = box_counting_dimension(sites, [2**j for j in range(p)])
        assert abs(est.gamma - 2.0) <= 0.1
        assert est.counts[0] == (1, 4**p)


def test_box_counting_matches_set_count_and_polyfit():
    """Sort-and-diff counts against a set of box tuples, and the closed-form
    slope against np.polyfit, on pyramid supports at three base sites."""
    code = get_code("cubic1", 32)
    for p in range(6):
        for u in [(0, 0, 0), (5, 17, 30), (31, 1, 20)]:
            sites = pyramid_operator(code, p, u).support_sites()
            coords = np.array(sorted(sites))
            for scales in ([1, 2, 4], [2**j for j in range(max(p, 3))], [1, 3, 5, 7]):
                est = box_counting_dimension(sites, scales)
                assert est.counts == [(s, len({tuple(c) for c in coords // s})) for s in scales]
                if not est.degenerate:
                    logs = np.log([[1.0 / s, c] for s, c in est.counts]).T
                    assert abs(est.gamma - np.polyfit(*logs, 1)[0]) <= 1e-9


@settings(max_examples=100)
@given(rows=st.lists(st.tuples(*[st.integers(-3, 20)] * 3), min_size=1, max_size=40), data=st.data())
def test_box_counting_reads_an_array_as_the_set_of_its_rows(rows, data):
    """An ``(N, D)`` array, repeated rows included, gives the gamma, counts
    and degenerate flag of the set of its distinct rows as tuples."""
    scales = data.draw(st.lists(st.integers(1, 9), min_size=3, max_size=5, unique=True), label="scales")
    repeats = data.draw(st.lists(st.sampled_from(rows), max_size=10), label="repeats")
    from_array = box_counting_dimension(np.array(rows + repeats), scales)
    from_set = box_counting_dimension(set(rows), scales)
    assert (from_array.gamma, from_array.counts, from_array.degenerate) == (
        from_set.gamma, from_set.counts, from_set.degenerate)
    assert from_set.degenerate == (len(set(rows)) == 1)


def test_box_counting_reads_support_coords_as_support_sites():
    """``support_coords`` lists each support site once, in the rows of an
    array; a site with both sub-qubits in the support counts once."""
    code = get_code("cubic1", 16)
    both = PauliOperator.from_terms(code.geometry, [(QubitIndex((1, 2, 3), 0), "X"), (QubitIndex((1, 2, 3), 1), "Z")])
    for op in (pyramid_operator(code, 3, (5, 0, 9)), pyramid_operator(code, 3, (5, 0, 9)) * both, both):
        coords, sites = op.support_coords(), op.support_sites()
        assert coords.shape == (len(sites), 3) and {tuple(c) for c in coords.tolist()} == sites
        a, b = box_counting_dimension(coords, [1, 2, 4]), box_counting_dimension(sites, [1, 2, 4])
        assert (a.gamma, a.counts, a.degenerate) == (b.gamma, b.counts, b.degenerate)
    assert box_counting_dimension(np.array([[3, 3, 3]] * 4), [1, 2, 4]).degenerate


def test_box_counting_guards():
    with pytest.raises(ValueError):
        box_counting_dimension([], [1, 2, 4])
    with pytest.raises(ValueError):
        box_counting_dimension([(0, 0, 0)], [1, 2])
    # a zero scale divides by zero, a negative one gives a NaN slope, and
    # fewer than 3 distinct scales leave the fit undetermined
    for scales in ([0, 1, 2], [-1, 1, 2], [1, 1, 1], [1, 1, 2, 2], [1, 2, 4, 0]):
        with pytest.raises(ValueError, match="3 distinct box scales"):
            box_counting_dimension([(0, 0, 0), (1, 2, 3)], scales)
    est = box_counting_dimension([(3, 3, 3)], [1, 2, 4])
    assert est.degenerate and est.gamma == 0.0
