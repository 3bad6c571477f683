"""Cluster partitions, sparsity levels, neutrality, localization, segments."""

import gc
import itertools
import time
import weakref
from functools import lru_cache
from types import FunctionType, ModuleType, SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    bounding_box,
    cluster_diameter,
    cube_corner_sites,
    from_bool,
    from_bool_array,
    neighborhood,
    pairwise_reference_partition,
    reference_achievable_subsets,
    reference_aspect_ratio,
    reference_footprint_box,
    reference_lift,
    reference_restricted_matrix,
    reference_set_distance,
    retired_dense_run,
    to_bool,
    to_int,
    translate,
)
from stabscape import cli, codes, defects, get_code, gf2, registered_spec
from stabscape.codes import CodeInstance, InputError
from stabscape.defects import (
    _BoxSolver,
    _aspect_ratios,
    _box_solver,
    _footprint_box,
    _footprint_boxes,
    _padded_blocks,
    _single_qubit_witness,
    _support_placements,
    CubeBox,
    ScaleParams,
    SearchBudget,
    SegmentFinding,
    StringScanReport,
    TQOViolationError,
    cluster_partition,
    cluster_partitions,
    creation_operator,
    dense_runs,
    is_neutral,
    localize,
    min_dense_run,
    occupied_cubes,
    scan_for_strings,
    set_distance,
)
from stabscape.lattice import LatticeGeometry, QubitIndex
from stabscape.pauli import PauliOperator
from stabscape.paths import apex_cube, pyramid_syndrome

PARAMS = ScaleParams()
GEO8 = LatticeGeometry(3, 8, 2)


def aspect_ratio(g, box1, box2):
    """The aspect ratio of one anchor pair, read through the scan's batched closed form."""
    return float(_aspect_ratios(g, box1, [box2.corner], box2.size)[0])


def zdefects(code, *cubes):
    z = code.species_index("z")
    return frozenset((c, z) for c in cubes)


# -- diameters and partitions -------------------------------------------------


def test_single_cube_diameter_is_one():
    assert cluster_diameter(GEO8, [(3, 3, 3)]) == 1


@st.composite
def two_site_sets(draw):
    D, L = draw(st.integers(1, 3)), draw(st.integers(2, 16))
    site = st.tuples(*[st.integers(0, L - 1)] * D)
    sets = st.lists(site, min_size=1, max_size=6)
    return LatticeGeometry(D, L, 1), draw(sets), draw(sets)


@settings(max_examples=300)
@given(case=two_site_sets())
# the short way round crosses the seam on every axis
@example(case=(LatticeGeometry(3, 16, 1), [(0, 15, 1)], [(15, 1, 14), (8, 8, 8)]))
@example(case=(LatticeGeometry(1, 2, 1), [(0,)], [(1,), (0,)]))
def test_set_distance_matches_pairwise_reference(case):
    geo, A, B = case
    assert set_distance(geo, A, B) == set_distance(geo, B, A) == reference_set_distance(geo, A, B)


def test_single_cube_sparse_at_every_level():
    for p in range(4):
        v = cluster_partition(GEO8, [(2, 5, 1)], p, PARAMS)
        assert v.sparse and len(v.clusters) == 1


def test_adjacent_pair_dense_then_sparse():
    cubes = [(0, 0, 0), (1, 0, 0)]
    assert not cluster_partition(GEO8, cubes, 0, PARAMS).sparse
    assert cluster_partition(GEO8, cubes, 1, PARAMS).sparse


def test_far_singletons_sparse_at_zero():
    geo = LatticeGeometry(3, 64, 2)
    params = ScaleParams(alpha=1.0)  # xi(1) = 10
    cubes = [(0, 0, 0), (30, 30, 30)]  # torus distance 30 > 10
    v = cluster_partition(geo, cubes, 0, params)
    assert v.sparse and len(v.clusters) == 2


def test_empty_syndrome_rejected():
    with pytest.raises(ValueError):
        cluster_partition(GEO8, [], 0, PARAMS)
    with pytest.raises(ValueError):
        min_dense_run(GEO8, [], PARAMS)


def test_scale_params_validation():
    with pytest.raises(ValueError):
        ScaleParams(alpha=0.5)
    params = ScaleParams(alpha=2.0)
    assert params.xi(0) == 1.0
    assert params.xi(2) == 400.0
    assert params.ltqo_for(GEO8) == 4
    assert ScaleParams(ltqo=3).ltqo_for(GEO8) == 3
    assert ScaleParams(ltqo=1).ltqo_for(GEO8) == 1
    for ltqo in (0, -2):  # a neutrality solve box holds at least one cube
        with pytest.raises(InputError, match="ltqo must be at least 1"):
            ScaleParams(ltqo=ltqo)


def test_scale_params_rejects_nan_alpha():
    """NaN fails every comparison, so ``alpha < 1`` alone would let it through."""
    with pytest.raises(ValueError, match="alpha must be at least 1"):
        ScaleParams(alpha=float("nan"))


def test_scale_params_rejects_infinite_alpha():
    """An infinite alpha passes ``alpha >= 1``; no aspect ratio exceeds it."""
    with pytest.raises(ValueError, match="alpha must be at least 1 and finite"):
        ScaleParams(alpha=float("inf"))


@st.composite
def cube_clusters(draw):
    """A geometry and a cube set on it: small tori give clusters that wrap
    or fill an axis, larger ones sparse clusters with wide gaps."""
    D = draw(st.integers(1, 3))
    L = draw(st.integers(2, 16))
    cube = st.tuples(*[st.integers(-L, 2 * L - 1)] * D)
    return LatticeGeometry(D, L, 1), draw(st.lists(cube, min_size=1, max_size=3 * L))


@given(cube_clusters(), st.data())
@settings(max_examples=400)
def test_footprint_box_matches_the_corner_site_expansion(case, data):
    """One cluster through ``_footprint_box``, and it with a list of further
    clusters on the same torus through the padded blocks of
    ``_footprint_boxes``, give the reference box of every cluster."""
    geometry, cubes = case
    assert _footprint_box(geometry, cubes) == reference_footprint_box(geometry, cubes)
    cube = st.tuples(*[st.integers(-geometry.L, 2 * geometry.L - 1)] * geometry.D)
    more = data.draw(st.lists(st.lists(cube, min_size=1, max_size=3 * geometry.L), max_size=5), label="more")
    clusters = [cubes, *more]
    boxes = [box for _, padded in _padded_blocks(clusters)
             for box in zip(*(a.tolist() for a in _footprint_boxes(geometry, padded)))]
    assert [(tuple(c), tuple(e)) for c, e in boxes] == [reference_footprint_box(geometry, c) for c in clusters]


def definition_holds(geometry, clusters, p, params):
    """Direct re-check of both defining conditions on a partition."""
    for cl in clusters:
        if cluster_diameter(geometry, cl) > params.xi(p):
            return False
    for a, b in itertools.combinations(clusters, 2):
        if cluster_diameter(geometry, set(a) | set(b)) <= params.xi(p + 1):
            return False
    return True


def random_syndrome_cubes(rng, geometry, max_clusters=3, max_pts=4):
    cubes = set()
    for _ in range(int(rng.integers(1, max_clusters + 1))):
        center = rng.integers(0, geometry.L, size=geometry.D)
        for _ in range(int(rng.integers(1, max_pts + 1))):
            offset = rng.integers(-2, 3, size=geometry.D)
            cubes.add(tuple(int(c) for c in (center + offset) % geometry.L))
    return cubes


def test_sparse_verdicts_reverify_exactly(rng):
    geo = LatticeGeometry(3, 32, 2)
    for alpha in (1.0, 2.0, 15.0):
        params = ScaleParams(alpha=alpha)
        for _ in range(120):
            cubes = random_syndrome_cubes(rng, geo)
            for p in (0, 1):
                v = cluster_partition(geo, cubes, p, params)
                assert set().union(*v.clusters) == cubes
                assert sum(len(c) for c in v.clusters) == len(cubes)
                if v.sparse:
                    assert definition_holds(geo, v.clusters, p, params)


def set_partitions(items):
    """All partitions of a list (Bell-number enumeration, test oracle)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def test_sparse_partition_unique_against_exhaustive(rng):
    geo = LatticeGeometry(3, 32, 2)
    checked = 0
    for alpha in (1.0, 2.0):
        params = ScaleParams(alpha=alpha)
        for _ in range(150):
            cubes = sorted(random_syndrome_cubes(rng, geo, max_clusters=2, max_pts=3))
            if len(cubes) > 6:
                continue
            v = cluster_partition(geo, cubes, 0, params)
            valid = [
                part
                for part in set_partitions(cubes)
                if definition_holds(geo, [frozenset(c) for c in part], 0, params)
            ]
            if v.sparse:
                checked += 1
                assert len(valid) == 1
                assert {frozenset(c) for c in valid[0]} == set(v.clusters)
            else:
                assert not valid
    assert checked >= 20


def clump(draw, D, L):
    """Up to 14 cubes in a few clumps.  A coarse grid step makes distance ties
    common, and small tori make wrap-around common; only on the large tori
    can clusters stay apart at level 0 (xi(1) >= 10)."""
    step = draw(st.sampled_from([1, 2, 5, 8]))
    radius = draw(st.integers(0, 4))
    site = st.tuples(*[st.integers(0, L - 1)] * D)
    centers = draw(st.lists(site, min_size=1, max_size=6))
    cubes = set()
    for _ in range(draw(st.integers(1, 14))):
        center = draw(st.sampled_from(centers))
        offset = draw(st.tuples(*[st.integers(-radius, radius)] * D))
        cubes.add(tuple((step * (c + o)) % L for c, o in zip(center, offset)))
    return sorted(cubes)


@st.composite
def clumped_cubes(draw):
    D = draw(st.sampled_from([2, 3]))
    L = draw(st.sampled_from([4, 5, 32, 64]))
    return LatticeGeometry(D, L, 1), clump(draw, D, L)


@st.composite
def clumped_histories(draw):
    """A few clumped cube sets on one torus.  Over these tori and the alphas
    of the test below, the cap level P (the lowest with 1 + L // 2 <=
    xi(P+1)) takes the values 0, 1 and 2, and sets spread past xi(1) merge
    below the cap."""
    D = draw(st.sampled_from([2, 3]))
    L = draw(st.sampled_from([4, 8, 32, 64, 256]))
    return LatticeGeometry(D, L, 1), [clump(draw, D, L) for _ in range(draw(st.integers(1, 5)))]


@settings(max_examples=400)
@given(
    case=clumped_cubes(),
    alpha=st.sampled_from([1.0, 1.3, 2.0, 15.0]),
    p=st.sampled_from([0, 0, 0, 1, 2]),
)
def test_cluster_partition_matches_pairwise_reference(case, alpha, p):
    geo, cubes = case
    params = ScaleParams(alpha=alpha)
    v = cluster_partition(geo, cubes, p, params)
    got = (v.clusters, v.diameters, v.sparse)
    assert got == pairwise_reference_partition(geo, cubes, p, params)


@settings(max_examples=250)
@given(
    case=clumped_histories(),
    alpha=st.sampled_from([1.0, 1.3, 2.0, 15.0]),
    p=st.sampled_from([0, 1, 2]),
    block=st.sampled_from([1, 20, 200, defects._PAIR_BLOCK]),
)
def test_cluster_partitions_match_the_per_syndrome_reference(case, alpha, p, block):
    """Every syndrome of a history gets the pairwise reference's verdict when
    the partition runs over the whole history, in blocks that a lowered block
    size splits at different places (one syndrome per block at size 1)."""
    geo, history = case
    params = ScaleParams(alpha=alpha)
    with mock.patch.object(defects, "_PAIR_BLOCK", block):
        verdicts = cluster_partitions(geo, history, p, params)
        blocks = [b for b, _ in _padded_blocks(history)]
    assert [i for b in blocks for i in range(len(history))[b]] == list(range(len(history)))
    if block == 1:
        assert len(blocks) == len(history)
    assert all(v.level == p for v in verdicts)
    got = [(v.clusters, v.diameters, v.sparse) for v in verdicts]
    assert got == [pairwise_reference_partition(geo, cubes, p, params) for cubes in history]


@settings(max_examples=250)
@given(case=clumped_histories(), alpha=st.sampled_from([1.0, 1.3, 2.0, 15.0]))
# merges at heights 5, 30 and 80 below the cap xi(2) = 100: the level-1
# partition's largest spread is its last merge height, not its first
@example(case=(LatticeGeometry(2, 256, 1), [[(0, 0), (5, 0), (50, 0), (80, 0), (0, 128)]]), alpha=1.0)
# diameter exactly xi(1) = 10: one cluster at level 0, sparse at level 1
@example(case=(LatticeGeometry(2, 32, 1), [[(0, 0), (9, 0)]]), alpha=1.0)
def test_dense_runs_match_the_per_level_loop(case, alpha):
    geo, history = case
    params = ScaleParams(alpha=alpha)
    runs = dense_runs(geo, history, params)
    assert runs == [retired_dense_run(geo, cubes, params) for cubes in history]
    assert runs == [min_dense_run(geo, cubes, params) for cubes in history]


def test_dense_runs_reject_an_empty_syndrome():
    with pytest.raises(ValueError):
        dense_runs(GEO8, [[(1, 1, 1)], []], PARAMS)
    assert dense_runs(GEO8, [], PARAMS) == []


def test_min_dense_run_examples():
    assert min_dense_run(GEO8, [(1, 1, 1)], PARAMS) == -1
    pair = [(1, 1, 1), (2, 1, 1)]
    assert min_dense_run(GEO8, pair, PARAMS) == 0
    assert len(pair) >= 0 + 2


def test_counting_bound_random_suite(rng):
    geo = LatticeGeometry(3, 64, 2)
    for alpha in (1.0, 2.0, 15.0):
        params = ScaleParams(alpha=alpha)
        for _ in range(350):
            cubes = random_syndrome_cubes(rng, geo, max_clusters=4, max_pts=4)
            run = min_dense_run(geo, cubes, params)
            assert len(cubes) >= run + 2


# -- neutrality -----------------------------------------------------------------


def test_pyramid_cluster_neutral_with_unit_witness(cubic8):
    u = (4, 4, 4)
    S = zdefects(cubic8, *[cubic8.geometry.shift(apex_cube(cubic8, u), d)
                           for d in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))])
    res = is_neutral(cubic8, S, 4)
    assert res.neutral
    assert res.witness.weight == 1
    assert cubic8.syndrome_of(res.witness) == S


def test_single_defect_charged_at_half_lattice(cubic8):
    res = is_neutral(cubic8, zdefects(cubic8, (2, 2, 2)), 4)
    assert not res.neutral
    assert res.witness is None


def test_is_neutral_reads_defects_modulo_L(toric3):
    """The pair ``min_barrier_cluster`` creates in one flip, named with a
    wrapped duplicate, is neutral with a witness for the pair; a species the
    code lacks is an input error, not another species or a crash."""
    pair = {((0, 0), 0), ((0, 1), 0)}
    res = is_neutral(toric3, [*pair, ((0, 3), 0)], 3)
    assert res.neutral and toric3.syndrome_of(res.witness) == pair
    for bad in ([((0, 0), -1)], [((0, 0), 2)]):
        with pytest.raises(InputError):
            is_neutral(toric3, bad, 2)


def test_empty_cluster_neutral(cubic8):
    res = is_neutral(cubic8, frozenset(), 4)
    assert res.neutral and res.witness.is_identity()


def test_not_enclosable_reported(cubic8):
    far = zdefects(cubic8, (0, 0, 0), (4, 4, 4))
    res = is_neutral(cubic8, far, 2)
    assert not res.neutral
    assert "exceeds" in res.reason


def test_neutrality_at_full_lattice_scale(cubic8):
    # size >= L degenerates to one whole-lattice placement, and any
    # achievable syndrome (here a creatable pair of pyramids) is neutral
    g = cubic8.geometry
    op = PauliOperator.from_terms(
        g, [(QubitIndex((1, 1, 1), 0), "X"), (QubitIndex((5, 5, 5), 0), "X")]
    )
    res = is_neutral(cubic8, cubic8.syndrome_of(op), 8)
    assert res.neutral
    assert res.placements_tried == 1


def test_witness_support_stays_in_cube(cubic8):
    u = (3, 3, 3)
    S = cubic8.syndrome_of(PauliOperator.single(cubic8.geometry, QubitIndex(u, 0), "X"))
    res = is_neutral(cubic8, S, 4)
    corner, extents = bounding_box(
        cubic8.geometry, [s for c in occupied_cubes(S) for s in cube_corner_sites(cubic8.geometry, c)]
    )
    assert max(extents) <= 4
    assert res.neutral and res.witness.weight >= 1


def test_creation_operator_pyramids(cubic8):
    g = cubic8.geometry
    u = (3, 3, 3)
    xi = PauliOperator.single(g, QubitIndex(u, 0), "X")
    S0 = cubic8.syndrome_of(xi)
    w = creation_operator(cubic8, S0)
    assert w == xi  # the weight-1 short-circuit finds the bit flip itself
    for p in (1, 2):
        S = pyramid_syndrome(cubic8, p, apex_cube(cubic8, u))
        w = creation_operator(cubic8, S)
        assert cubic8.syndrome_of(w) == S
    assert creation_operator(cubic8, frozenset()).is_identity()


def test_pyramid_operator_is_a_near_minimal_creation_witness(cubic8):
    # The level-p cluster admits a creation operator of weight exactly 4**p
    # inside the 1-neighborhood of its minimal enclosing cube: the recursive
    # construction itself.  (The generic solver is not a minimum-weight
    # decoder, so this existence claim is checked on the explicit witness.)
    from stabscape.paths import pyramid_operator

    g = cubic8.geometry
    u = (3, 3, 3)
    for p in (1, 2):
        S = pyramid_syndrome(cubic8, p, apex_cube(cubic8, u))
        op = pyramid_operator(cubic8, p, u)
        assert cubic8.syndrome_of(op) == S
        assert op.weight == 4**p
        footprint = {s for c in occupied_cubes(S) for s in cube_corner_sites(g, c)}
        corner, extents = bounding_box(g, footprint)
        ball = g.box_sites(
            tuple(c - 1 for c in corner), tuple(min(e + 2, g.L) for e in extents)
        )
        assert op.support_sites() <= set(ball)


def test_creation_operator_rejects_charged(cubic8):
    with pytest.raises(ValueError):
        creation_operator(cubic8, zdefects(cubic8, (1, 1, 1)))


# -- localization ---------------------------------------------------------------


def test_localize_support_already_inside(toric4):
    g = toric4.geometry
    op = PauliOperator.single(g, QubitIndex((1, 1), 1), "X")
    region = set(itertools.product(range(g.L), repeat=g.D))
    assert localize(toric4, op, region) == op


def test_localize_stabilizer_to_identity(toric4):
    gen = toric4.generator((1, 1), 0)
    out = localize(toric4, gen, set())
    assert out is not None and out.is_identity()


def test_localize_finds_short_homologous_path(toric4):
    g = toric4.geometry
    # transport a plaquette defect the long way round; localize to the
    # 1-neighborhood of the defect pair and expect the 2-step path.
    long_path = PauliOperator.from_terms(g, [(QubitIndex((x % 4, 1), 1), "X") for x in (3, 0)])
    S = toric4.syndrome_of(long_path)
    region = neighborhood(g, [c for c, _ in S], 1)
    out = localize(toric4, long_path, region)
    assert out is not None
    assert toric4.syndrome_of(out) == S
    assert toric4.in_stabilizer_group(long_path * out)
    assert out.support_sites() <= region


def test_localize_reads_the_region_modulo_L(toric4):
    """A region named with unwrapped coordinates is the same region: sites
    (4, 0) and (4, 1) are (0, 0) and (0, 1) on L=4."""
    op = PauliOperator.single(toric4.geometry, QubitIndex((0, 0), 0), "X")
    assert localize(toric4, op, {(4, 0), (4, 1), (5, 0), (5, 1)}) == op


def test_localize_none_when_region_too_small(toric4):
    g = toric4.geometry
    # a logical operator cannot be compressed into a small patch
    logical = PauliOperator.from_terms(g, [(QubitIndex((x, 0), 1), "X") for x in range(4)])
    assert not toric4.syndrome_of(logical)
    assert not toric4.in_stabilizer_group(logical)
    out = localize(toric4, logical, g.box_sites((0, 0), 2))
    assert out is None


# -- string segments --------------------------------------------------------------


def test_scan_charged_anchors_make_a_nontrivial_finding(toric3):
    """A single X between two unit plaquette anchors leaves one defect on
    each; neither is neutral, so both anchors are charged."""
    report = scan_for_strings(toric3, 1, SearchBudget(), ScaleParams(alpha=1.0, ltqo=2))
    assert not report.budget_exhausted and report.nontrivial
    findings = {(f.box2.corner, f.syndrome): f for f in report.nontrivial}
    string = findings[(0, 1), frozenset({((0, 0), 0), ((0, 1), 0)})]
    assert string.charged_anchors == (0, 1) and string.operator_weight == 1
    assert all(f.charged_anchors == (0, 1) for f in report.nontrivial)


def test_scan_rejects_a_witness_with_a_stray_defect(toric3, monkeypatch):
    """Every scanned pattern lies on the anchors; a witness whose syndrome
    strays from its pattern fails the scan's audit rather than being classified."""
    witness = _BoxSolver.achievable_witness
    stray = PauliOperator.single(toric3.geometry, QubitIndex((1, 1), 0), "X")
    monkeypatch.setattr(_BoxSolver, "achievable_witness", lambda self, *args: witness(self, *args) * stray)
    with pytest.raises(RuntimeError, match="wrong defect pattern"):
        scan_for_strings(toric3, 1, SearchBudget(), ScaleParams(alpha=1.0, ltqo=2))


def test_scan_pairs_only_disjoint_anchors_of_one_size(toric4):
    """On the stride-2 grid of toric2d L=4 the origin's own box overlaps the
    pinned anchor and is never paired; the three other corners are."""
    report = scan_for_strings(toric4, 2, SearchBudget(), ScaleParams(alpha=1.0, ltqo=2))
    assert report.pairs_scanned == 3
    assert {f.box2.corner for f in report.nontrivial} == {(0, 2), (2, 0), (2, 2)}
    g = toric4.geometry
    for f in report.nontrivial:
        assert f.box1.size == f.box2.size == 2
        assert not set(f.box1.cubes(g)) & set(f.box2.cubes(g))


def test_scan_finds_strings_on_toric():
    code = get_code("toric2d", 6)
    report = scan_for_strings(code, 1, SearchBudget(), ScaleParams(alpha=2.0, ltqo=3))
    assert report.nontrivial
    assert any(f.aspect_ratio > 2.0 for f in report.nontrivial)
    for f in report.nontrivial:
        assert f.aspect_ratio > 2.0


def test_scan_finds_domain_walls_on_rep():
    code = get_code("rep1d", 8)
    report = scan_for_strings(code, 1, SearchBudget(), ScaleParams(alpha=3.0, ltqo=4))
    assert report.nontrivial
    assert all(f.aspect_ratio > 3.0 for f in report.nontrivial)


def test_scan_reads_its_aspect_threshold_from_params():
    """The one threshold is ``params.alpha``: on rep1d L=8 the unit anchor
    pairs have aspect ratios 2, 3, 4 and 5, so alpha 1, 3 and 4 keep 4, 2
    and 1 pairs."""
    code = get_code("rep1d", 8)
    for alpha, pairs in ((1.0, 4), (3.0, 2), (4.0, 1)):
        report = scan_for_strings(code, 1, SearchBudget(), ScaleParams(alpha=alpha, ltqo=4))
        assert report.pairs_scanned == pairs and not report.budget_exhausted
        assert all(f.aspect_ratio > alpha for f in report.nontrivial)
    assert scan_for_strings(code, 1).pairs_scanned == 0  # the default alpha, 15


def test_scan_rejects_an_anchor_size_below_one():
    """rho 0 would be a zero grid stride, and rho -1 an empty anchor box that
    scans no pair and reads as "no anchor pair"."""
    code = get_code("toric2d", 6)
    for rho in (0, -1):
        with pytest.raises(InputError, match="rho must be at least 1"):
            scan_for_strings(code, rho, SearchBudget(), ScaleParams(alpha=2.0, ltqo=3))


def test_scan_time_cap_trips_inside_a_pair(monkeypatch):
    """The time cap is checked before each support box, not only before each
    anchor pair: a clock that jumps past the cap after the first pair check
    ends the scan inside that pair."""
    code = get_code("toric2d", 4)
    uncapped = scan_for_strings(code, 1, SearchBudget(max_pairs=1), ScaleParams(alpha=1.0))
    readings = iter([0.0, 0.0])  # the scan's start, then the first pair's check
    monkeypatch.setattr(defects.time, "monotonic", lambda: next(readings, 10.0))
    capped = scan_for_strings(code, 1, SearchBudget(time_cap=1.0), ScaleParams(alpha=1.0))
    assert capped.pairs_scanned == 1 and capped.budget_exhausted
    assert capped.patterns_tested < uncapped.patterns_tested


# -- box-restricted algebra -------------------------------------------------------


@pytest.mark.parametrize("name,L,size", [("toric2d", 4, 2), ("toric3d", 3, 1), ("cubic1", 4, 1)])
def test_box_achievability_matches_solve(name, L, size):
    """The left-nullspace parity test accepts exactly the solvable patterns,
    and the factored solve returns gf2_solve's own solution, checked on
    every pattern of up to three rows of the box."""
    code = get_code(name, L)
    solver = _BoxSolver(code, size)
    dense, qubits, gen_rows = reference_restricted_matrix(code, code.geometry.box_sites((0,) * code.geometry.D, size))
    matrix, nrows = from_bool_array(dense), len(dense)
    for k in (1, 2, 3):
        for pattern in itertools.combinations(range(nrows), k):
            rhs = np.zeros(nrows, dtype=np.uint8)
            rhs[list(pattern)] = 1
            witness = solver.achievable_witness(pattern, (0,) * code.geometry.D)
            x = gf2.gf2_solve(matrix, from_bool(rhs))
            assert (witness is None) == (x is None)
            if witness is not None:
                assert witness == reference_lift(code.geometry, qubits, x)
                assert code.syndrome_of(witness) == frozenset(code.generator_at(gen_rows[r]) for r in pattern)


@settings(max_examples=100)
@given(
    corner=st.tuples(*[st.integers(0, 3)] * 3),
    size=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_lift_matches_bitwise_reference(corner, size, seed):
    """The witness placed at a corner is the bit-by-bit lift of the origin
    box's ``gf2_solve`` solution, moved to that corner."""
    code = get_code("cubic1", 4)
    g = code.geometry
    dense, qubits, _ = reference_restricted_matrix(code, g.box_sites((0,) * g.D, size))
    pattern = np.flatnonzero(np.random.default_rng(seed).random(len(dense)) < 0.3)
    rhs = np.zeros(len(dense), dtype=np.uint8)
    rhs[pattern] = 1
    x = gf2.gf2_solve(from_bool_array(dense), from_bool(rhs))
    witness = _BoxSolver(code, size).achievable_witness(pattern, corner)
    assert (witness is None) == (x is None)
    if x is not None:
        assert witness == translate(reference_lift(g, qubits, x), corner)


@settings(max_examples=60)
@given(
    case=st.sampled_from([("rep1d", 5, 2), ("toric2d", 4, 2), ("toric3d", 3, 2), ("cubic1", 4, 2), ("cubic1", 3, 3)]),
    corner=st.tuples(*[st.integers(-5, 5)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_achievable_witness_at_corner_is_translated_origin_witness(case, corner, seed):
    """A box witness built at a corner equals the origin witness translated
    there, for achievable and unachievable row sets alike."""
    name, L, size = case
    code = get_code(name, L)
    g = code.geometry
    solver = _box_solver(code, size)
    nrows = len(solver._memberships)
    rows = np.flatnonzero(np.random.default_rng(seed).random(nrows) < 0.4)
    corner = corner[: g.D]
    origin = solver.achievable_witness(rows, (0,) * g.D)
    placed = solver.achievable_witness(rows, corner)
    assert (placed is None) == (origin is None) == (not solver.achievable(rows))
    if origin is not None:
        assert placed == translate(origin, corner)


# -- the box engine against the per-placement solve it replaced -------------------


@lru_cache(maxsize=None)
def code_for(name, L):
    return get_code(name, L)


def reference_first_box(code, syndrome, corners, size):
    """Retired per-placement solve: build and solve the restricted syndrome
    system of each box in turn; returns (boxes tried, first solvable corner)."""
    g = code.geometry
    bits = to_bool(code.syndrome_to_words(syndrome), code.n_generators)
    for tried, corner in enumerate(corners, 1):
        dense, _, gen_rows = reference_restricted_matrix(code, g.box_sites(corner, size))
        sub, rhs = from_bool_array(dense), bits[gen_rows]
        if rhs.sum() == len(syndrome) and gf2.gf2_solve(sub, from_bool(rhs)) is not None:
            return tried, corner
    return len(corners), None


def reference_placements(g, syndrome, size=None):
    """Corners of the size-cubes covering the cluster footprint, in the
    retired loop's order (size defaults to the footprint's largest extent),
    or None when the footprint does not fit; with the size used."""
    corner, extents = bounding_box(g, {s for c, _ in syndrome for s in cube_corner_sites(g, c)})
    size = min(max(extents) if size is None else size, g.L)
    if max(extents) > size:
        return None, size
    slacks = [0 if size >= g.L else size - e for e in extents]
    offs = itertools.product(*[range(s + 1) for s in slacks])
    return [tuple((c - o) % g.L for c, o in zip(corner, off)) for off in offs], size


@st.composite
def clusters(draw):
    """A code, a box size and a nonempty defect cluster: either the syndrome
    of a random operator in a small box (the neutral-prone kind) or an
    arbitrary defect set near one cube (on cubic1 nearly always charged).
    The size is the footprint's extent plus a slack of -1 (does not fit) up
    to the lattice size."""
    name = draw(st.sampled_from(["rep1d", "toric2d", "toric3d", "cubic1"]), label="code")
    L = draw(st.integers(2, 6), label="L")
    code = code_for(name, L)
    g = code.geometry
    base = draw(st.tuples(*[st.integers(0, L - 1)] * g.D), label="base")
    span = draw(st.integers(1, 3), label="span")
    near = st.tuples(*[st.integers(0, span - 1)] * g.D).map(lambda d: g.shift(base, d))
    if draw(st.booleans(), label="from_operator"):
        terms = draw(st.lists(st.tuples(near, st.integers(0, g.q - 1), st.sampled_from("XYZ")), min_size=1, max_size=4))
        syndrome = code.syndrome_of(PauliOperator.from_terms(g, [(QubitIndex(s, sub), p) for s, sub, p in terms]))
    else:
        syndrome = frozenset(draw(st.sets(st.tuples(near, st.integers(0, code.n_species - 1)), min_size=1, max_size=4)))
    assume(syndrome)
    _, fits = reference_placements(g, syndrome)
    return code, syndrome, max(1, fits + draw(st.integers(-1, L - fits), label="slack"))


@settings(max_examples=250)
@given(case=clusters())
def test_is_neutral_matches_per_placement_solve(case):
    code, syndrome, size = case
    g = code.geometry
    res = is_neutral(code, syndrome, size)
    corners, eff = reference_placements(g, syndrome, size)
    if corners is None:
        assert not res.neutral and "exceeds" in res.reason
        return
    tried, place = reference_first_box(code, syndrome, corners, eff)
    assert res.neutral == (place is not None)
    assert res.placements_tried == tried
    if res.neutral:
        assert code.syndrome_of(res.witness) == syndrome
        assert res.witness.support_sites() <= set(g.box_sites(place, eff))


@settings(max_examples=150)
@given(case=clusters())
def test_single_qubit_witness_scans_sites_in_coordinate_order(case):
    """The short-circuit witness of ``is_neutral`` is the first single-qubit
    Pauli over the box's sites in sorted coordinate order."""
    code, syndrome, size = case
    g = code.geometry
    res = is_neutral(code, syndrome, size)
    corners, eff = reference_placements(g, syndrome, size)
    if not res.neutral:
        return
    _, place = reference_first_box(code, syndrome, corners, eff)
    expected = _single_qubit_witness(code, g.site_indices(sorted(g.box_sites(place, eff))), syndrome)
    if expected is not None:
        assert res.witness == expected


@settings(max_examples=150)
@given(case=clusters(), data=st.data())
def test_box_verdict_at_any_corner_matches_per_placement_solve(case, data):
    """Boxes that need not cover the cluster, as in a string scan: a defect
    outside the box makes the pattern unachievable there."""
    code, syndrome, size = case
    g = code.geometry
    corner = data.draw(st.tuples(*[st.integers(0, g.L - 1)] * g.D), label="corner")
    solver = _box_solver(code, size)
    verdict = solver.achievable(solver.local_rows(sorted(syndrome), np.array([corner])))
    assert verdict.tolist() == [reference_first_box(code, syndrome, [corner], solver.size)[1] is not None]


@settings(max_examples=150)
@given(case=clusters())
def test_creation_operator_matches_per_placement_solve(case):
    """Witnesses on the 1-neighborhood of the minimal enclosing cube."""
    code, syndrome, _ = case
    g = code.geometry
    corners, size = reference_placements(g, syndrome)
    size = min(size + 2, g.L)
    _, place = reference_first_box(code, syndrome, [g.shift(c, (-1,) * g.D) for c in corners], size)
    if place is None:
        with pytest.raises((ValueError, TQOViolationError)):
            creation_operator(code, syndrome)
        return
    witness = creation_operator(code, syndrome)
    assert code.syndrome_of(witness) == syndrome
    assert witness.support_sites() <= set(g.box_sites(place, size))


def reference_support_placements(code, box1, box2, size):
    """Retired set-based expansion of the corners reaching both anchors."""
    g = code.geometry
    eff = min(size, g.L)
    if eff >= g.L:
        return [(0,) * g.D]

    def corners_reaching(box):
        footprint = {s for c in box.cubes(g) for s in cube_corner_sites(g, c)}
        return {t for s in footprint for t in g.box_sites(tuple(c - eff + 1 for c in s), eff)}

    return sorted(corners_reaching(box1) & corners_reaching(box2))


@settings(max_examples=200)
@given(
    name_L=st.sampled_from([("rep1d", 8), ("toric2d", 6), ("toric3d", 4), ("cubic1", 6)]),
    corners=st.lists(st.tuples(*[st.integers(0, 7)] * 3), min_size=1, max_size=4),
    rho=st.integers(1, 3),
    size=st.integers(1, 8),
)
def test_support_placements_match_set_expansion(name_L, corners, rho, size):
    """One call places a batch of pairs: pair by pair, each pair's corners
    are the set expansion's, in sorted order."""
    code = code_for(*name_L)
    g = code.geometry
    box1, boxes = CubeBox((0,) * g.D, rho), [CubeBox(g.wrap(c[: g.D]), rho) for c in corners]
    pair, placed = _support_placements(g, min(size, g.L), box1, [b.corner for b in boxes], rho)
    assert np.all(np.diff(pair) >= 0)
    for i, box2 in enumerate(boxes):
        expected = reference_support_placements(code, box1, box2, size)
        assert [tuple(c) for c in placed[pair == i].tolist()] == expected


# -- the string scan against the per-subset loop it replaced ----------------------


def reference_scan(code, rho, budget, params):
    """Retired per-subset scan loop: every subset of every box's present
    anchor rows, in ascending bitmask order, through its own
    ``achievable_witness`` call."""
    g = code.geometry
    start = time.monotonic()
    origin = (0,) * g.D
    box1 = CubeBox(origin, rho)
    cubes1 = set(box1.cubes(g))
    seen = set()
    placements = []
    for v in itertools.product(range(0, g.L, rho), repeat=g.D):
        if v in seen:
            continue
        neg = tuple((-c) % g.L for c in v)
        seen.update({v, neg})
        box2 = CubeBox(v, rho)
        if cubes1 & set(box2.cubes(g)):
            continue
        if aspect_ratio(g, box1, box2) > params.alpha:
            placements.append(box2)
    placements.sort(key=lambda b: b.corner)
    findings = []
    pairs_scanned = patterns_tested = 0
    exhausted = False
    scale = params.ltqo_for(g)
    solver = _box_solver(code, scale)
    for box2 in placements:
        if pairs_scanned >= budget.max_pairs or (
            budget.time_cap is not None and time.monotonic() - start > budget.time_cap
        ):
            exhausted = True
            break
        pairs_scanned += 1
        anchors = [(c, s) for c in box1.cubes(g) + box2.cubes(g) for s in range(code.n_species)]
        ratio = aspect_ratio(g, box1, box2)
        corners = reference_support_placements(code, box1, box2, scale)
        seen_patterns = set()
        for corner, local_rows in zip(corners, solver.local_rows(anchors, np.array(corners))):
            if len(seen_patterns) >= budget.max_patterns:
                exhausted = True
                break
            present = np.flatnonzero(local_rows >= 0).tolist()
            for subset in range(1, 1 << len(present)):
                chosen = [present[i] for i in range(len(present)) if (subset >> i) & 1]
                pattern_bits = sum(1 << i for i in chosen)
                if pattern_bits in seen_patterns:
                    continue
                witness0 = solver.achievable_witness(local_rows[chosen], (0,) * g.D)
                if witness0 is None:
                    continue
                seen_patterns.add(pattern_bits)
                patterns_tested += 1
                op = translate(witness0, corner)
                syndrome = code.syndrome_of(op)
                in1 = frozenset(d for d in syndrome if d[0] in cubes1)
                in2 = frozenset(syndrome - in1)
                charged = tuple(i for i, cl in enumerate((in1, in2)) if not is_neutral(code, cl, scale).neutral)
                if charged:
                    findings.append(SegmentFinding(box1, box2, ratio, charged, syndrome, op.weight))
                if len(seen_patterns) >= budget.max_patterns:
                    exhausted = True
                    break
    findings.sort(key=lambda f: (-f.aspect_ratio, f.box2.corner))
    return StringScanReport(findings, pairs_scanned, patterns_tested, exhausted)


@st.composite
def scan_cases(draw):
    """A small code, anchor size, aspect constant, TQO scale and tight
    budgets, so both early breaks fire.  Anchor size 2 is drawn only where
    it leaves anchor pairs and the reference loop's 2^m subsets per box stay
    cheap; on cubic1 it gets the smallest scales and budgets."""
    name, L, rho = draw(st.sampled_from([
        ("rep1d", 4, 1), ("rep1d", 6, 1), ("rep1d", 8, 1), ("toric2d", 3, 1), ("toric2d", 4, 1), ("toric2d", 6, 1),
        ("toric3d", 2, 1), ("toric3d", 3, 1), ("cubic1", 2, 1), ("cubic1", 3, 1), ("cubic1", 4, 1),
        ("rep1d", 4, 2), ("rep1d", 6, 2), ("rep1d", 8, 2), ("toric2d", 4, 2), ("toric2d", 6, 2), ("toric2d", 8, 2),
        ("cubic1", 4, 2),
    ]), label="code")
    small = name == "cubic1" and rho == 2
    alpha = draw(st.sampled_from([1.0, 1.2, 2.0, 3.0]), label="alpha")
    ltqo = draw(st.sampled_from([1, 2] if small else [1, 2, 3, None]), label="ltqo")
    budget = SearchBudget(
        max_pairs=draw(st.integers(1, 2 if small else 8), label="max_pairs"),
        max_patterns=draw(st.integers(1, 4 if small else 16), label="max_patterns"),
    )
    return code_for(name, L), rho, budget, ScaleParams(alpha=alpha, ltqo=ltqo)


@settings(max_examples=120)
@given(case=scan_cases())
def test_scan_matches_per_subset_loop(case):
    code, rho, budget, params = case
    expected = reference_scan(code, rho, budget, params)
    report = scan_for_strings(code, rho, budget, params)
    assert report.pairs_scanned == expected.pairs_scanned
    assert report.patterns_tested == expected.patterns_tested
    assert report.budget_exhausted == expected.budget_exhausted
    assert report.nontrivial == expected.nontrivial


@settings(max_examples=80)
@given(case=scan_cases(), batch=st.integers(1, 300))
def test_scan_batches_match_per_subset_loop(case, batch):
    """Any batch size, down to one pair per batch, gives the per-subset
    loop's report, also where a ``max_pairs`` cap falls inside a batch."""
    code, rho, budget, params = case
    expected = reference_scan(code, rho, budget, params)
    with mock.patch.object(defects, "_SCAN_BATCH", batch):
        report = scan_for_strings(code, rho, budget, params)
    assert (report.pairs_scanned, report.patterns_tested) == (expected.pairs_scanned, expected.patterns_tested)
    assert report.budget_exhausted == expected.budget_exhausted
    assert report.nontrivial == expected.nontrivial


@pytest.mark.parametrize("batch, max_pairs", [(1, 3), (40, 2), (40, 3), (80, 7), (4096, 5)])
def test_scan_pair_cap_inside_a_batch(batch, max_pairs):
    """toric2d L=6 at scale 3: a pair has at most 4^2 placements, so a batch
    of 40 placements holds two pairs and one of 80 holds five; the pair cap
    ends the scan in the middle of a batch, as the per-subset loop does."""
    code, params = code_for("toric2d", 6), ScaleParams(alpha=1.0, ltqo=3)
    budget = SearchBudget(max_pairs=max_pairs, max_patterns=4)
    expected = reference_scan(code, 1, budget, params)
    with mock.patch.object(defects, "_SCAN_BATCH", batch):
        report = scan_for_strings(code, 1, budget, params)
    assert report.pairs_scanned == max_pairs and report.budget_exhausted
    assert (report.patterns_tested, report.nontrivial) == (expected.patterns_tested, expected.nontrivial)


@settings(max_examples=200)
@given(
    case=st.sampled_from([("rep1d", 8), ("toric2d", 6), ("toric3d", 4), ("cubic1", 6)]),
    size=st.integers(1, 3),
    data=st.data(),
)
def test_admits_pattern_matches_kernel_walk(case, size, data):
    """The lockstep independence test says a placement admits a pattern
    exactly where ``achievable_subsets`` yields one, on random local rows
    with absent anchors (-1) and repeated rows."""
    solver = _box_solver(code_for(*case), size)
    row = st.integers(-1, len(solver._memberships) - 1)
    sets = data.draw(st.lists(st.lists(row, max_size=10), min_size=1, max_size=6), label="sets")
    for s in sets:
        if s and data.draw(st.booleans(), label="repeat"):
            s.append(s[data.draw(st.integers(0, len(s) - 1), label="which")])
    m = max(map(len, sets))
    rows = np.array([s + [-1] * (m - len(s)) for s in sets], dtype=np.int64).reshape(len(sets), m)
    expected = [next(solver.achievable_subsets(r), None) is not None for r in rows]
    assert solver.admits_pattern(rows).tolist() == expected
    # seeds with independent memberships, plus rows they span where dim > 0
    dim = data.draw(st.integers(0, 2), label="dim")
    spanned = data.draw(kernel_rows(solver, dim), label="spanned")
    assert solver.admits_pattern(spanned[None]).tolist() == [dim > 0]


@st.composite
def vector_tables(draw):
    """A word count, a table of vectors over it with bits at both ends of
    each word (some the XOR of two before them), and a row set into it."""
    words = draw(st.integers(0, 3))
    bits = [64 * w + b for w in range(words) for b in (0, 1, 63)]
    table = []
    for _ in range(draw(st.integers(1, 8))):
        if len(table) >= 2 and draw(st.booleans()):
            i, j = draw(st.lists(st.integers(0, len(table) - 1), min_size=2, max_size=2, unique=True))
            table.append(table[i] ^ table[j])
        else:
            table.append(sum(1 << b for b in draw(st.sets(st.sampled_from(bits), max_size=4))) if bits else 0)
    every = st.permutations(list(range(len(table))) + [-1])
    return words, table, draw(st.one_of(every, st.lists(st.integers(-1, len(table) - 1), max_size=8)))


@settings(max_examples=300)
@given(case=vector_tables())
@example(case=(2, [1 | 1 << 64, 1 << 64, 1], [0, 1, 2]))  # a pivot is one bit, in its first nonzero word
@example(case=(1, [3, 2, 1], [0, 1, 2]))  # and its lowest bit there, not the whole word
def test_admits_pattern_elimination_on_any_vectors(case):
    """The lockstep elimination alone: a row set is dependent iff the GF(2)
    rank of its present rows is below their count."""
    words, table, rows = case
    null = np.array([[x >> (64 * w) & (2**64 - 1) for w in range(words)] for x in table], dtype=np.uint64)
    present = [table[r] for r in rows if r >= 0]
    stub = SimpleNamespace(_null=null.reshape(len(table), words))
    got = _BoxSolver.admits_pattern(stub, np.array(rows, dtype=np.int64).reshape(1, -1))
    assert got.tolist() == [membership_rank(present) < len(present)]


@pytest.mark.parametrize("name,L", [("toric2d", 6), ("toric3d", 4), ("cubic1", 6)])
@pytest.mark.parametrize("rho", [1, 2])
def test_aspect_ratio_matches_set_based_diameter(name, L, rho):
    """The closed form against the retired set-based diameter on every
    stride-grid anchor pair, overlapping ones included."""
    g = code_for(name, L).geometry
    box1 = CubeBox((0,) * g.D, rho)
    for v in itertools.product(range(0, L, rho), repeat=g.D):
        assert aspect_ratio(g, box1, CubeBox(v, rho)) == reference_aspect_ratio(g, box1, CubeBox(v, rho))


@settings(max_examples=300)
@given(data=st.data(), D=st.integers(1, 3), L=st.integers(2, 9))
def test_aspect_ratio_closed_form_on_any_boxes(data, D, L):
    """Any corners and sizes, including boxes that wrap the torus."""
    g = LatticeGeometry(D, L, 1)
    corner = st.tuples(*[st.integers(-L, 2 * L)] * D)
    box1 = CubeBox(data.draw(corner), data.draw(st.integers(1, L + 2)))
    box2 = CubeBox(data.draw(corner), data.draw(st.integers(1, L + 2)))
    assert aspect_ratio(g, box1, box2) == reference_aspect_ratio(g, box1, box2)


@pytest.mark.parametrize("rows", [0, 3, 12, 13, 14])
def test_achievable_subsets_match_per_subset_test(rows):
    """Subset tables below, at and across the 12-row chunk boundary against
    one parity test per subset, on toric2d rows of which about half of all
    subsets are achievable."""
    code = code_for("toric2d", 6)
    solver = _box_solver(code, 3)
    local = np.arange(rows) * 2
    expected = [
        subset for subset in range(1, 1 << rows)
        if solver.achievable(local[[i for i in range(rows) if subset >> i & 1]][None])[0]
    ]
    assert list(solver.achievable_subsets(local)) == expected


def null_memberships(solver, rows):
    """Left-nullspace membership of each row, as ints, from the packed table."""
    return [to_int(c) for c in solver._null[rows]]


def membership_rank(memberships):
    """GF(2) rank of int vectors, by a basis with one vector per top bit."""
    basis = []
    for x in memberships:
        for b in sorted(basis, reverse=True):
            x = min(x, x ^ b)
        basis += [x] if x else []
    return len(basis)


@st.composite
def kernel_rows(draw, solver, dim):
    """Anchor rows whose achievable patterns form a kernel of dimension
    ``dim``: 1-3 seed rows with independent memberships, then one row per
    kernel dimension drawn from the rows whose memberships the seeds span
    (the seeds themselves among them), shuffled among absent anchors."""
    order = draw(st.permutations(range(len(solver._memberships))), label="order")
    members = null_memberships(solver, np.arange(len(solver._memberships)))
    n_seeds = draw(st.integers(0 if dim == 0 else 1, 3), label="seeds")
    seeds = []
    for r in order:
        if len(seeds) < n_seeds and membership_rank([members[s] for s in seeds] + [members[r]]) > len(seeds):
            seeds.append(r)
    spanned = [r for r in order if membership_rank([members[s] for s in seeds] + [members[r]]) == len(seeds)]
    picked = draw(st.lists(st.sampled_from(spanned), min_size=dim, max_size=dim), label="picked") if dim else []
    absent = draw(st.integers(0, 4), label="absent")
    return np.array(draw(st.permutations(seeds + picked + [-1] * absent), label="rows"), dtype=np.int64)


@pytest.mark.parametrize("dim", [0, 2, 12, 13, 14])
@pytest.mark.parametrize("name,L,size", [("rep1d", 32, 16), ("toric2d", 6, 3), ("toric3d", 3, 2), ("cubic1", 4, 2)])
@settings(max_examples=4)
@given(data=st.data())
def test_achievable_subsets_walk_matches_subset_table(name, L, size, dim, data):
    """The kernel walk yields the retired 2^m table's subsets, in its order,
    at kernel dimensions below, at and across the 4096-pattern chunk."""
    solver = _box_solver(code_for(name, L), size)
    rows = data.draw(kernel_rows(solver, dim), label="rows")
    expected = list(reference_achievable_subsets(solver, rows))
    assert len(expected) == (1 << dim) - 1
    assert list(solver.achievable_subsets(rows)) == expected


@st.composite
def wide_cases(draw):
    """32-64 distinct rows of a box (a few anchors absent), too many for the
    subset table."""
    name, L, size = draw(st.sampled_from([("toric2d", 6, 3), ("toric3d", 3, 2), ("cubic1", 4, 2), ("cubic1", 4, 3)]))
    solver = _box_solver(code_for(name, L), size)
    order = draw(st.permutations(range(len(solver._memberships))))
    m = draw(st.integers(32, min(64, len(order))))
    rows = draw(st.permutations(list(order[:m]) + [-1] * draw(st.integers(0, 4))))
    return solver, np.array(rows, dtype=np.int64)


@settings(max_examples=40)
@given(case=wide_cases())
def test_achievable_subsets_walk_on_wide_boxes(case):
    """Where 2^m subsets cannot be listed: the walk ascends, every pattern
    it yields is achievable, and it yields 2^(kernel dimension) - 1 patterns
    whenever that is at most 2^14."""
    solver, rows = case
    present = rows[rows >= 0]
    dim = len(present) - membership_rank(null_memberships(solver, present))
    walk = solver.achievable_subsets(rows)
    head = list(itertools.islice(walk, 300))
    assert head == sorted(set(head))
    for bits in head:
        assert solver.achievable(rows[[i for i in range(len(rows)) if bits >> i & 1]][None])[0]
    if dim <= 14:
        assert len(head) + sum(1 for _ in walk) == (1 << dim) - 1


# -- the per-process store of box solvers ------------------------------------------


@pytest.mark.parametrize("name", ["rep1d", "toric2d", "toric3d", "cubic1"])
@pytest.mark.parametrize("L", [3, 4])
def test_stored_solver_equals_a_fresh_build(name, L):
    """Every code of one shape reads one stored solver per box size, and it
    holds what a fresh build holds, up to and past the wrapped size L."""
    for size in range(1, 5):
        stored, fresh = _box_solver(code_for(name, L), size), _BoxSolver(get_code(name, L), size)
        assert _box_solver(get_code(name, L), size) is stored and stored.size == fresh.size == min(size, L)
        assert stored._memberships == fresh._memberships
        for attr in ("_pivots", "_null", "_row_at"):
            assert np.array_equal(getattr(stored, attr), getattr(fresh, attr)), attr


def test_shared_solver_arrays_reject_writes():
    solver = _box_solver(code_for("cubic1", 4), 2)
    for attr in ("_box", "_sites", "_subs", "_pivots", "_null", "_row_at"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(solver, attr)[...] = 0
    assert isinstance(solver._memberships, tuple)


def _reachable(root):
    """Objects reachable from ``root`` by ``gc.get_referents``, not entering
    classes, modules or functions (which reach every loaded module)."""
    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType)):
            continue
        seen.add(id(obj))
        yield obj
        todo.extend(gc.get_referents(obj))


def test_code_with_stored_rank_and_solver_is_freed():
    """The store holds data fixed by a shape, never a code: a code whose rank
    and box solver were built is freed, and no store value reaches a code."""
    code = get_code("toric2d", 5)
    assert code.stabilizer_rank() == 48 and _box_solver(code, 2) is codes._SHAPES[(code.spec, 5)][2]
    ref = weakref.ref(code)
    del code
    gc.collect()
    assert ref() is None
    reached = list(_reachable(codes._SHAPES))
    assert any(isinstance(obj, _BoxSolver) for obj in reached)
    assert not [obj for obj in reached if isinstance(obj, CodeInstance)]


def test_a_second_tracked_rg_job_builds_no_box_solver(tmp_path, monkeypatch):
    """Charged-cluster tracking reads the stored solver: a second tracked
    ``rg`` job of one shape in a process builds none and reports the same."""
    monkeypatch.delitem(codes._SHAPES, (registered_spec("cubic1"), 16), raising=False)
    built = []
    init = _BoxSolver.__init__
    monkeypatch.setattr(_BoxSolver, "__init__", lambda self, code, size: built.append(size) or init(self, code, size))
    argv = ["rg", "--code", "cubic1", "--L", "16", "--p", "3", "--track-level", "1", "--ltqo", "4", "--format", "json"]
    reports = []
    for run in ("first", "second"):
        assert cli.main(argv + ["--out", str(tmp_path / run)]) == 0
        reports.append(next((tmp_path / run).glob("rg-*/report.json")).read_bytes())
    assert built == [4] and reports[0] == reports[1]  # the first job built the one solver
