"""Cluster partitions, sparsity levels, neutrality, localization, segments."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabscape import get_code, gf2
from stabscape.defects import (
    _BoxSolver,
    _lift,
    NONTRIVIAL,
    NOT_SEGMENT,
    TRIVIAL,
    CubeBox,
    ScaleParams,
    ScanBudget,
    classify_string_segment,
    cluster_diameter,
    cluster_partition,
    creation_operator,
    is_neutral,
    localize,
    min_dense_run,
    occupied_cubes,
    scan_for_strings,
)
from stabscape.lattice import LatticeGeometry, QubitIndex
from stabscape.pauli import PauliOperator
from stabscape.paths import apex_cube, pyramid_syndrome

PARAMS = ScaleParams()
GEO8 = LatticeGeometry(3, 8, 2)


def zdefects(code, *cubes):
    z = code.species_index("z")
    return frozenset((c, z) for c in cubes)


# -- diameters and partitions -------------------------------------------------


def test_single_cube_diameter_is_one():
    assert cluster_diameter(GEO8, [(3, 3, 3)]) == 1


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


def pairwise_reference_partition(geometry, cubes, p, params):
    """The retired greedy loop: on every merge, the union diameter of every
    cluster pair (test oracle for the distance-matrix version)."""
    xi_p, xi_p1 = params.xi(p), params.xi(p + 1)
    clusters = [(c,) for c in sorted(occupied_cubes(cubes))]
    spreads = [0] * len(clusters)
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                cross = max(geometry.dist(a, b) for a in clusters[i] for b in clusters[j])
                s = max(spreads[i], spreads[j], cross)
                if 1 + s <= xi_p1:
                    key = (1 + s, clusters[i][0], clusters[j][0])
                    if best is None or key < best[0]:
                        best = (key, i, j, s)
        if best is None:
            break
        _, i, j, s = best
        merged = tuple(sorted(clusters[i] + clusters[j]))
        for idx in sorted((i, j), reverse=True):
            del clusters[idx]
            del spreads[idx]
        clusters.append(merged)
        spreads.append(s)
        order = sorted(range(len(clusters)), key=lambda t: clusters[t][0])
        clusters = [clusters[t] for t in order]
        spreads = [spreads[t] for t in order]
    diameters = tuple(1 + s for s in spreads)
    return (
        tuple(frozenset(c) for c in clusters),
        diameters,
        all(d <= xi_p for d in diameters),
        xi_p,
        xi_p1,
        xi_p1 >= geometry.L / 2,
    )


@st.composite
def clumped_cubes(draw):
    """Up to 14 cubes in a few clumps.  A coarse grid step makes distance ties
    common, and small tori make wrap-around common; only on the large tori
    can clusters stay apart at level 0 (xi(1) >= 10)."""
    D = draw(st.sampled_from([2, 3]))
    L = draw(st.sampled_from([4, 5, 32, 64]))
    step = draw(st.sampled_from([1, 2, 5, 8]))
    radius = draw(st.integers(0, 4))
    site = st.tuples(*[st.integers(0, L - 1)] * D)
    centers = draw(st.lists(site, min_size=1, max_size=6))
    cubes = set()
    for _ in range(draw(st.integers(1, 14))):
        center = draw(st.sampled_from(centers))
        offset = draw(st.tuples(*[st.integers(-radius, radius)] * D))
        cubes.add(tuple((step * (c + o)) % L for c, o in zip(center, offset)))
    return LatticeGeometry(D, L, 1), sorted(cubes)


@settings(max_examples=400, deadline=None)
@given(
    case=clumped_cubes(),
    alpha=st.sampled_from([1.0, 1.3, 2.0, 15.0]),
    p=st.sampled_from([0, 0, 0, 1, 2]),
)
def test_cluster_partition_matches_pairwise_reference(case, alpha, p):
    geo, cubes = case
    params = ScaleParams(alpha=alpha)
    v = cluster_partition(geo, cubes, p, params)
    got = (v.clusters, v.diameters, v.sparse, v.xi_p, v.xi_p1, v.scale_capped)
    assert got == pairwise_reference_partition(geo, cubes, p, params)


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
    corner, extents = cubic8.geometry.bounding_box(
        [s for c in occupied_cubes(S) for s in cubic8.geometry.cube_corner_sites(c)]
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
        footprint = {s for c in occupied_cubes(S) for s in g.cube_corner_sites(c)}
        corner, extents = g.bounding_box(footprint)
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
    region = set(g.all_sites())
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
    region = g.neighborhood([c for c, _ in S], 1)
    out = localize(toric4, long_path, region)
    assert out is not None
    assert toric4.syndrome_of(out) == S
    assert toric4.in_stabilizer_group(long_path * out)
    assert out.support_sites() <= region


def test_localize_none_when_region_too_small(toric4):
    g = toric4.geometry
    # a logical operator cannot be compressed into a small patch
    logical = PauliOperator.from_terms(g, [(QubitIndex((x, 0), 1), "X") for x in range(4)])
    assert not toric4.syndrome_of(logical)
    assert not toric4.in_stabilizer_group(logical)
    out = localize(toric4, logical, g.box_sites((0, 0), 2))
    assert out is None


# -- string segments --------------------------------------------------------------


def test_toric_string_segment_nontrivial(toric3):
    g = toric3.geometry
    # vertical-edge X path: defects at plaquettes (0,1) and (2,1)
    seg = PauliOperator.from_terms(g, [(QubitIndex((x, 1), 1), "X") for x in (1, 2)])
    out = classify_string_segment(
        toric3, seg, CubeBox((0, 1), 1), CubeBox((2, 1), 1), ScaleParams(ltqo=1)
    )
    assert out.kind == NONTRIVIAL
    assert out.charged_anchors == (0, 1)


def test_cubic_pyramid_segment_trivial(cubic8):
    g = cubic8.geometry
    u = (1, 1, 1)
    seg = PauliOperator.single(g, QubitIndex(u, 0), "X")
    box1 = CubeBox((0, 0, 0), 2)  # holds all four pyramid defects
    box2 = CubeBox((5, 5, 5), 2)
    out = classify_string_segment(cubic8, seg, box1, box2, ScaleParams(ltqo=4))
    assert out.kind == TRIVIAL


def test_stray_defect_is_not_segment(toric3):
    g = toric3.geometry
    seg = PauliOperator.from_terms(g, [(QubitIndex((x, 1), 1), "X") for x in (1, 2)])
    out = classify_string_segment(
        toric3, seg, CubeBox((0, 1), 1), CubeBox((1, 0), 1), ScaleParams(ltqo=1)
    )
    assert out.kind == NOT_SEGMENT
    assert out.stray_defects


def test_segment_validation_errors(toric3):
    op = PauliOperator.identity(toric3.geometry)
    with pytest.raises(ValueError):
        classify_string_segment(toric3, op, CubeBox((0, 0), 1), CubeBox((0, 0), 1), PARAMS)
    with pytest.raises(ValueError):
        classify_string_segment(toric3, op, CubeBox((0, 0), 1), CubeBox((2, 2), 2), PARAMS)


def test_scan_finds_strings_on_toric():
    code = get_code("toric2d", 6)
    report = scan_for_strings(code, 1, 2.0, ScanBudget(), ScaleParams(ltqo=3))
    assert report.nontrivial
    assert report.found_violation(2.0)
    for f in report.nontrivial:
        assert f.aspect_ratio > 2.0


def test_scan_finds_domain_walls_on_rep():
    code = get_code("rep1d", 8)
    report = scan_for_strings(code, 1, 3.0, ScanBudget(), ScaleParams(ltqo=4))
    assert report.nontrivial
    assert all(f.aspect_ratio > 3.0 for f in report.nontrivial)


# -- box-restricted algebra -------------------------------------------------------


@pytest.mark.parametrize("name,L,size", [("toric2d", 4, 2), ("toric3d", 3, 1), ("cubic1", 4, 1)])
def test_box_achievability_matches_solve(name, L, size):
    """The left-nullspace parity test accepts exactly the solvable patterns,
    checked on every pattern of up to three rows of the box."""
    code = get_code(name, L)
    solver = _BoxSolver(code, size)
    nrows = solver.matrix.nrows
    for k in (1, 2, 3):
        for pattern in itertools.combinations(range(nrows), k):
            rhs = np.zeros(nrows, dtype=np.uint8)
            rhs[list(pattern)] = 1
            witness = solver.achievable_witness(pattern)
            assert (witness is None) == (gf2.gf2_solve(solver.matrix, rhs) is None)
            if witness is not None:
                assert code.syndrome_of(witness) == frozenset(solver.gen_cubes0[r] for r in pattern)


def reference_lift(geometry, qubits, x):
    """Bit-by-bit lift of a local (X || Z) solution to the full lattice."""
    n, nq = geometry.n_qubits, len(qubits)
    full = gf2.zeros(2 * n)
    for local in gf2.nonzero_indices(x, 2 * nq):
        local = int(local)
        gf2.set_bit(full, qubits[local] if local < nq else qubits[local - nq] + n, 1)
    return PauliOperator.from_symplectic(geometry, full)


@settings(max_examples=100, deadline=None)
@given(
    corner=st.tuples(*[st.integers(0, 3)] * 3),
    size=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_lift_matches_bitwise_reference(corner, size, seed):
    code = get_code("cubic1", 4)
    g = code.geometry
    _, qubits, _ = code.restricted_syndrome_matrix(g.box_sites(corner, size))
    x = gf2.from_bool(np.random.default_rng(seed).random(2 * len(qubits)) < 0.3)
    assert _lift(g, qubits, x) == reference_lift(g, qubits, x)
