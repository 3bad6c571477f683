"""Level histories, world-line tracking, and fractal-support measurements."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabscape import get_code
from stabscape.defects import ScaleParams
from stabscape.lattice import LatticeGeometry, QubitIndex
from stabscape.pauli import PauliOperator
from stabscape.paths import pyramid_operator, pyramid_path
from stabscape.rg import (
    SyndromeHistory,
    box_counting_anchor_spread,
    box_counting_dimension,
    level_histories,
    support_connectivity,
    syndrome_history,
    track_charged_clusters,
)

PARAMS = ScaleParams()


def test_history_of_double_flip(cubic4):
    u = QubitIndex((1, 1, 1), 0)
    hist = syndrome_history(cubic4, [(u, "X"), (u, "X")])
    assert len(hist.syndromes) == 3
    assert hist.syndromes[0] == hist.syndromes[2] == frozenset()
    assert len(hist.syndromes[1]) == 4
    assert hist.m == 4


def test_empty_history_flagged(cubic4):
    analysis = level_histories(cubic4, syndrome_history(cubic4, []), PARAMS)
    assert analysis.p_max == 0
    assert analysis.empty_path


def synthetic_history(code, syndromes):
    """History with pinned syndromes; the self-cancelling steps keep the
    aggregated level errors well-defined."""
    u = QubitIndex((0,) * code.geometry.D, 0)
    steps = tuple((u, "X") for _ in range(len(syndromes) - 1))
    return SyndromeHistory(steps, tuple(frozenset(s) for s in syndromes))


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
        for (a, b), err in zip(zip(hi.retained, hi.retained[1:]), hi.errors):
            prod = PauliOperator.identity(code.geometry)
            for i in range(idx[a], idx[b]):
                prod = prod * lo.errors[i]
            assert prod == err
    # the top level holds a single aggregated error equal to the full product
    top = analysis.levels[-1]
    assert len(top.errors) == 1
    assert top.errors[0] == pyramid_operator(code, n, (0, 0, 0))


@settings(max_examples=30, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.tuples(*[st.integers(0, 3)] * 3), st.integers(0, 1), st.sampled_from("XYZ")),
        max_size=12,
    )
)
def test_level_errors_built_on_first_access(cubic4, steps):
    path = [(QubitIndex(site, sub), p) for site, sub, p in steps]
    analysis = level_histories(cubic4, syndrome_history(cubic4, path), PARAMS)
    assert all("errors" not in vars(lvl) for lvl in analysis.levels)
    whole = PauliOperator.from_terms(cubic4.geometry, path)
    for lvl in analysis.levels:
        assert len(lvl.errors) == len(lvl.retained) - 1
        assert "errors" in vars(lvl)
        prod = PauliOperator.identity(cubic4.geometry)
        for err in lvl.errors:
            prod = prod * err
        assert prod == whole


def test_track_static_syndrome(cubic8):
    z = cubic8.species_index("z")
    pair = frozenset({((0, 0, 0), z), ((1, 0, 0), z), ((0, 1, 0), z), ((0, 0, 1), z)})
    params = ScaleParams(alpha=1.0, ltqo=2)
    worldlines, report = track_charged_clusters(cubic8, [pair, pair, pair], 1, params)
    assert report.g_constant
    assert not report.continuity_violations
    assert not report.locking_violations
    for wl in worldlines:
        assert wl.drift(cubic8.geometry) == 0


def test_track_toric_transport_violates_locking():
    code = get_code("toric2d", 32)
    g = code.geometry
    params = ScaleParams(alpha=1.0, ltqo=4)
    prep = [(QubitIndex((x, 0), 1), "X") for x in range(1, 17)]
    start = syndrome_history(code, prep).final
    move = [(QubitIndex((x, 0), 1), "X") for x in range(17, 20)]
    hist = syndrome_history(code, move, initial=start)
    worldlines, report = track_charged_clusters(code, hist.syndromes, 0, params)
    assert report.g_constant and report.charged_counts[0] == 2
    assert not report.continuity_violations  # one step moves one unit
    assert report.locking_violations  # transport beyond alpha * xi(0)
    assert max(wl.drift(g) for wl in worldlines) == 3


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
        hist = syndrome_history(cubic8, steps)
        try:
            _, report = track_charged_clusters(cubic8, hist.syndromes[1:], 1, params)
        except ValueError:
            continue  # a syndrome was dense at level 1; not trackable
        assert not report.locking_violations


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
        est = box_counting_dimension(sites, scales, L)
        assert abs(est.gamma - expect) <= 0.05


def test_box_counting_pyramid_dimension_two():
    for p in (4, 5, 6):
        code = get_code("cubic1", 2**p)
        sites = pyramid_operator(code, p, (0, 0, 0)).support_sites()
        est = box_counting_dimension(sites, [2**j for j in range(p)], 2**p)
        assert abs(est.gamma - 2.0) <= 0.1
        assert est.counts[0] == (1, 4**p)


def test_box_counting_guards():
    with pytest.raises(ValueError):
        box_counting_dimension([], [1, 2, 4])
    with pytest.raises(ValueError):
        box_counting_dimension([(0, 0, 0)], [1, 2])
    est = box_counting_dimension([(3, 3, 3)], [1, 2, 4])
    assert est.degenerate and est.gamma == 0.0


def test_box_counting_anchor_spread_small_on_plane():
    L = 32
    plane = [(x, y, 0) for x in range(L) for y in range(L)]
    base, others, spread = box_counting_anchor_spread(plane, [1, 2, 4, 8], L, seed=7)
    assert abs(base.gamma - 2.0) <= 0.05
    assert len(others) == 4
    assert spread <= 0.2


# -- connectivity -------------------------------------------------------------------


def test_connectivity_trivial_and_disconnected():
    geo = LatticeGeometry(3, 8, 2)
    support = {(0, 0, 0), (1, 1, 1), (5, 5, 5)}
    assert support_connectivity(geo, support, [(0, 0, 0)], [(0, 0, 0)]) == [(0, 0, 0)]
    path = support_connectivity(geo, support, [(0, 0, 0)], [(1, 1, 1)])
    assert path == [(0, 0, 0), (1, 1, 1)]
    assert support_connectivity(geo, support, [(0, 0, 0)], [(5, 5, 5)]) is None
    with pytest.raises(ValueError):
        support_connectivity(geo, support, [(2, 2, 2)], [(0, 0, 0)])


def test_connectivity_pyramid_far_corner():
    # L = 2**(p+1) so the wrap shortcut is outside the support
    p = 4
    code = get_code("cubic1", 2 ** (p + 1))
    sites = pyramid_operator(code, p, (0, 0, 0)).support_sites()
    path = support_connectivity(code.geometry, sites, [(0, 0, 0)], [(2**p - 1, 0, 0)])
    assert path is not None
    assert len(path) - 1 >= 2**p - 1
