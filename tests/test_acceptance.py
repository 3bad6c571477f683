"""Acceptance suite: one test per criterion, each printing a verdict line.

Values marked as fixtures were computed by this package's own exhaustive
oracles on first run and frozen; everything else is checked exactly or at the
stated tolerance.
"""

import json
import time

import numpy as np
import pytest

from conftest import cube_corner_sites, neighborhood, path_steps, reference_flips
from stabscape import check_frustration_free, get_code
from stabscape.cli import main as cli_main
from stabscape.defects import ScaleParams, localize, min_dense_run, scan_for_strings
from stabscape.lattice import LatticeGeometry, QubitIndex
from stabscape.oracle import SearchBudget, code_distance, min_barrier_logical
from stabscape.pauli import PauliOperator
from stabscape.paths import (
    apex_cube,
    energy_profile,
    logical_zbar,
    pyramid_operator,
    pyramid_path,
    pyramid_syndrome,
)
from stabscape.rg import box_counting_dimension, level_histories, syndrome_history


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:>2} [{status}] {name}" + (f" -- {detail}" if detail else ""))
    assert ok, f"criterion {num}: {name} -- {detail}"


def test_criterion_01_frustration_freeness():
    t0 = time.monotonic()
    for L in range(2, 9):
        report = check_frustration_free(get_code("cubic1", L))
        assert report.commuting, f"non-commuting pair at L={L}: {report.witness}"
    elapsed = time.monotonic() - t0
    verdict(1, "pairwise commutation, L=2..8", elapsed < 10.0, f"{elapsed:.1f}s (< 10s)")


def test_criterion_02_bitflip_defect_pattern():
    rng = np.random.default_rng(2)
    checked = 0
    for L in (4, 8):
        code = get_code("cubic1", L)
        g = code.geometry
        for _ in range(100):
            u = tuple(int(c) for c in rng.integers(0, L, size=3))
            syn = code.syndrome_of(PauliOperator.single(g, QubitIndex(u, 0), "X"))
            assert syn == pyramid_syndrome(code, 0, apex_cube(code, u)), (L, u)
            checked += 1
    verdict(2, "bit-flip creates the 4-cube cluster", checked == 200, f"{checked} random sites")


def test_criterion_03_constructive_barrier():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        L = 2**n
        code = get_code("cubic1", L)
        u = tuple(int(c) for c in rng.integers(0, L, size=3))
        path = pyramid_path(code, n, u)
        profile = energy_profile(code, path)
        assert profile.final_syndrome == frozenset(), f"(a) fails at n={n}"
        assert profile.barrier <= 4 * n + 4, f"(b) fails at n={n}: {profile.barrier}"
        product = path.product(code)
        assert product == pyramid_operator(code, n, u), f"product identity fails at n={n}"
        assert not product.commutes_with(logical_zbar(code, u)), f"(d) fails at n={n}"
        # (c) in its provable scope: the apex holds a defect after every step
        # whenever the pyramid does not wrap the torus (2**p < L).
        apex = (apex_cube(code, u), code.species_index("z"))
        for p in range(n):
            defects = set()
            for q, pp in path_steps(pyramid_path(code, p, u)):
                for d in reference_flips(code, q, pp):
                    defects.symmetric_difference_update({d})
                assert apex in defects, f"(c) fails at n={n}, p={p}"
    elapsed = time.monotonic() - t0
    verdict(
        3,
        "pyramid paths close, stay under 4n+4, flip the plane logical",
        elapsed < 60.0,
        f"n=1..6 in {elapsed:.1f}s (< 60s); apex invariant exact for all 2^p < L",
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,  # an error in the walk itself is a failure, not this xfail
    reason=(
        "Literal reading: apex defect after every step of the level-n path on "
        "L = 2^n.  Provably impossible: the four factors whose defect sets "
        "touch the apex multiply to the full operator, so after the second "
        "completed top-level sub-pyramid the wrapped far corner cancels the "
        "apex (e.g. step 2 of 4 at n=1).  The non-wrapping scope is covered "
        "by criterion 3 above; see the decisions ledger."
    ),
)
def test_criterion_03c_literal_apex_at_wrapping_level():
    code = get_code("cubic1", 2)
    u = (1, 1, 1)
    apex = (apex_cube(code, u), code.species_index("z"))
    defects = set()
    path = pyramid_path(code, 1, u)
    for t, (q, pp) in enumerate(path_steps(path)):
        for d in reference_flips(code, q, pp):
            defects.symmetric_difference_update({d})
        if t + 1 < len(path):
            assert apex in defects


def test_criterion_04_support_scaling_and_dimension():
    for p in range(0, 9):
        L = max(2**p, 2)
        code = get_code("cubic1", L)
        assert pyramid_operator(code, p, (0, 0, 0)).weight == 4**p, f"weight at p={p}"
    gammas = {}
    for p in range(4, 9):
        code = get_code("cubic1", 2**p)
        sites = pyramid_operator(code, p, (0, 0, 0)).support_sites()
        est = box_counting_dimension(sites, [2**j for j in range(p)])
        gammas[p] = est.gamma
        assert abs(est.gamma - 2.0) <= 0.1, f"gamma at p={p}: {est.gamma}"
    verdict(
        4,
        "support 4^p exact (p=0..8), box-counting dimension 2.0 +- 0.1 (p=4..8)",
        True,
        "gamma: " + ", ".join(f"p={p}:{v:.3f}" for p, v in gammas.items()),
    )


def test_criterion_05_oracle_ground_truth():
    t0 = time.monotonic()
    rep4 = get_code("rep1d", 4)
    g = rep4.geometry
    allx = PauliOperator.from_terms(g, [(g.qubit_at(j), "X") for j in range(g.n_qubits)])
    res = min_barrier_logical(rep4, allx)
    assert res.exact and res.omega == 2, f"rep1d barrier {res.omega}"

    toric3 = get_code("toric2d", 3)
    tg = toric3.geometry
    xstring = PauliOperator.from_terms(tg, [(QubitIndex((x, 0), 1), "X") for x in range(3)])
    res = min_barrier_logical(toric3, xstring)
    assert res.exact and res.omega == 2, f"toric barrier {res.omega}"

    d5 = code_distance(get_code("rep1d", 5))
    assert d5.status == "exact" and d5.d == 5, f"rep1d distance {d5.d}"
    d3 = code_distance(toric3)
    assert d3.status == "exact" and d3.d == 3, f"toric distance {d3.d}"
    elapsed = time.monotonic() - t0
    verdict(
        5,
        "barriers (rep1d L=4, toric L=3) = 2; distances rep1d L=5 = 5, toric L=3 = 3",
        elapsed < 300.0,
        f"{elapsed:.1f}s (< 5 min)",
    )


def test_criterion_06_oracle_matches_construction():
    # Fixture recorded from the first exhaustive run on cubic1 L=2: the
    # minimal barrier of the level-1 pyramid class is exactly 4 (any single
    # bit or phase flip already creates four defects, and the constructed
    # path attains that peak).
    fixture_omega = 4
    code = get_code("cubic1", 2)
    target = pyramid_operator(code, 1, (1, 1, 1))
    budget = SearchBudget(state_cap=10_000_000)
    constructed = energy_profile(code, pyramid_path(code, 1, (1, 1, 1)))
    res = min_barrier_logical(code, target, budget)
    assert res.exact, "search exceeded the state budget"
    assert res.states_visited <= 10_000_000
    assert res.omega <= 8, f"omega {res.omega} above the constructed ceiling"
    assert res.omega <= constructed.barrier
    assert res.omega == fixture_omega, f"regression: omega {res.omega} != fixture {fixture_omega}"
    verdict(
        6,
        "oracle optimum for the level-1 pyramid class on L=2",
        True,
        f"omega={res.omega} (fixture {fixture_omega}), {res.states_visited} states",
    )


def test_criterion_07_counting_bound_property_suite():
    rng = np.random.default_rng(7)
    geo = LatticeGeometry(3, 64, 2)
    total = 0
    for alpha in (1.0, 2.0, 15.0):
        params = ScaleParams(alpha=alpha)
        for _ in range(400):
            cubes = set()
            for _ in range(int(rng.integers(1, 5))):
                center = rng.integers(0, 64, size=3)
                for _ in range(int(rng.integers(1, 5))):
                    off = rng.integers(-2, 3, size=3)
                    cubes.add(tuple(int(c) for c in (center + off) % 64))
            run = min_dense_run(geo, cubes, params)
            assert len(cubes) >= run + 2, (sorted(cubes), alpha, run)
            total += 1
    verdict(7, "dense-run counting bound, randomized suite", total >= 1000, f"{total} syndromes, 0 violations")


def _toric_transport_error(code, rng):
    """Random 2-defect error: a short staircase smeared by random stabilizers."""
    g = code.geometry
    c1 = tuple(int(c) for c in rng.integers(0, g.L, size=2))
    dx, dy = (int(d) for d in rng.integers(0, 3, size=2))
    if dx == 0 and dy == 0:
        dx = 1
    terms = []
    for i in range(dx):  # move the defect +x via vertical edges
        terms.append((QubitIndex(((c1[0] + 1 + i) % g.L, c1[1]), 1), "X"))
    for j in range(dy):  # then +y via horizontal edges
        terms.append((QubitIndex(((c1[0] + dx) % g.L, (c1[1] + 1 + j) % g.L), 0), "X"))
    op = PauliOperator.from_terms(g, terms)
    for _ in range(int(rng.integers(0, 4))):  # smear with stabilizer noise
        cube = tuple(int(c) for c in rng.integers(0, g.L, size=2))
        op = op * code.generator(cube, int(rng.integers(0, code.n_species)))
    return op


def test_criterion_08_localization_on_toric():
    rng = np.random.default_rng(8)
    code = get_code("toric2d", 4)
    g = code.geometry
    successes = 0
    for _ in range(50):
        err = _toric_transport_error(code, rng)
        syndrome = code.syndrome_of(err)
        assert len(syndrome) == 2, "construction should make exactly two defects"
        footprint = {s for c, _ in syndrome for s in cube_corner_sites(g, c)}
        region = neighborhood(g, footprint, 1)
        out = localize(code, err, region)
        assert out is not None, "a homologous representative exists in the neighborhood"
        # localize re-verifies internally; re-check independently anyway
        assert code.syndrome_of(out) == syndrome
        assert code.in_stabilizer_group(err * out)
        assert out.support_sites() <= region
        successes += 1
    verdict(8, "two-defect errors localize into the defect neighborhood", successes == 50, "50/50 verified")


def test_criterion_09_no_strings_asymmetry():
    budget = SearchBudget()  # identical budget for all three codes
    found = {}
    for name, L in (("toric2d", 6), ("rep1d", 8), ("cubic1", 8)):
        code = get_code(name, L)
        report = scan_for_strings(code, 1, budget, ScaleParams(alpha=3.0))
        assert not report.budget_exhausted, f"{name}: budget too small for the verdict"
        found[name] = report.nontrivial
        for f in report.nontrivial:
            assert f.aspect_ratio > 3.0
    ok = bool(found["toric2d"]) and bool(found["rep1d"]) and not found["cubic1"]
    verdict(
        9,
        "string segments: found on toric2d and rep1d, none on cubic1",
        ok,
        f"toric={len(found['toric2d'])}, rep={len(found['rep1d'])}, cubic={len(found['cubic1'])}",
    )


def test_criterion_10_rg_pipeline_consistency():
    params = ScaleParams()
    for n in range(2, 6):
        code = get_code("cubic1", 2**n)
        history = syndrome_history(code, pyramid_path(code, n, (0, 0, 0)))
        analysis = level_histories(code, history, params)
        for lo, hi in zip(analysis.levels, analysis.levels[1:]):
            assert set(hi.retained) <= set(lo.retained), f"nesting fails at n={n}"
            idx = {t: i for i, t in enumerate(lo.retained)}
            for k, (a, b) in enumerate(zip(hi.retained, hi.retained[1:])):
                prod = PauliOperator.identity(code.geometry)
                for i in range(idx[a], idx[b]):
                    prod = prod * lo.error(i)
                assert prod == hi.error(k), f"product consistency fails at n={n}, level {hi.level}"
        for lvl in analysis.levels[1:]:
            for t in lvl.interior():
                assert len(history.syndromes[t]) >= lvl.level + 1, f"floor fails at n={n}"
    verdict(10, "level nesting, defect floors, and error products on pyramid paths", True, "n=2..5 exact")


def test_criterion_11_determinism(tmp_path):
    configs = [
        ["pyramid", "--code", "cubic1", "--L", "8", "--p", "2", "--seed", "11"],
        ["check", "--code", "cubic1", "--L", "3", "--seed", "11"],
        ["barrier", "--code", "rep1d", "--L", "4", "--target", "all-x", "--seed", "11"],
        ["fractal", "--code", "cubic1", "--L", "16", "--p", "4", "--seed", "11"],
    ]
    identical = True
    for argv in configs:
        payloads = []
        for rerun in ("r1", "r2"):
            out = tmp_path / rerun
            code = cli_main(argv + ["--out", str(out)])
            assert code == 0
            files = sorted(out.glob("*/*"))
            payloads.append({f.name: f.read_bytes() for f in files if f.name != "meta.json"})
        identical &= payloads[0] == payloads[1]
    verdict(11, "identical config and seed give byte-identical reports", identical, f"{len(configs)} subcommands")
