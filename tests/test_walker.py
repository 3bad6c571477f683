"""The array-native syndrome walker against the per-step loops it replaced.

Every ``reference_*`` function below or imported from ``conftest`` is a
test-only copy of a retired implementation: the per-step flip walk behind
``energy_profile``, ``syndrome_history`` and ``syndrome_of``, the
one-operator flip-event ``syndrome_of`` behind the batched kernel, the
bit-at-a-time ``from_terms``, the recursive pyramid schedule, the
full-lattice commutation audit, the per-entry restricted syndrome matrix
behind the box solver, the per-qubit single-Pauli short-circuit of the local
solver, the per-move flip loop of the oracle, the per-corner
generator-to-row map of the box solver and the per-qubit ``site_at`` loop of
``support_sites``.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabscape import get_code, gf2
from stabscape.codes import CodeInstance, CodeSpec, InputError, commutation_witness, registry_names
from stabscape.defects import _BoxSolver, _single_qubit_witness
from stabscape.lattice import QubitIndex
from stabscape.pauli import PAULI_CODE, PauliOperator
from stabscape.oracle import MOVE_PAULIS, CosetSpace
from stabscape.paths import ErrorPath, defect_after_each_step, energy_profile, pyramid_path
from stabscape.rg import box_counting_dimension, syndrome_history

from conftest import (
    from_bool,
    from_bool_array,
    path_steps,
    reference_flips,
    reference_gram_witness,
    reference_lift,
    reference_restricted_matrix,
    reference_support_sites,
    set_bit,
    spec_dict,
    to_bool,
    to_int,
)

CODES = [("cubic1", 2), ("cubic1", 4), ("toric2d", 3), ("toric3d", 3), ("rep1d", 5)]


@lru_cache(maxsize=None)
def code_for(name, L):
    return get_code(name, L)


# -- retired implementations ---------------------------------------------------


def reference_syndromes(code, steps, initial=()):
    defects = set(initial)
    syndromes = [frozenset(defects)]
    for qubit, p in steps:
        for d in reference_flips(code, qubit, p):
            if d in defects:
                defects.discard(d)
            else:
                defects.add(d)
        syndromes.append(frozenset(defects))
    return syndromes


def reference_syndrome_of(code, op):
    out = set()
    for qubit, p in op.terms():
        out.symmetric_difference_update(reference_flips(code, qubit, p))
    return frozenset(out)


def reference_single_syndrome(code, op):
    """One operator's flip-event parity, its X and Z supports walked alone."""
    g = code.geometry
    xq = gf2.nonzero_indices(op.xwords, g.n_qubits)
    zq = gf2.nonzero_indices(op.zwords, g.n_qubits)
    paulis = np.repeat([1, 2], [len(xq), len(zq)])
    _, gens = code.qubit_flip_events(np.concatenate([xq, zq]), paulis)
    return code.words_to_syndrome(gf2.from_indices(gens, code.n_generators, parity=True))


def reference_from_terms(geometry, terms):
    x, z = gf2.zeros(geometry.n_qubits), gf2.zeros(geometry.n_qubits)
    for qubit, p in terms:
        j = geometry.qubit_index(qubit)
        if p in "XY":
            set_bit(x, j, gf2.get_bit(x, j) ^ 1)
        if p in "ZY":
            set_bit(z, j, gf2.get_bit(z, j) ^ 1)
    return PauliOperator(geometry, x, z)


def reference_single_qubit_witness(code, sites, target):
    if not target:
        return PauliOperator.identity(code.geometry)
    for site in sites:
        for sub in range(code.geometry.q):
            qubit = QubitIndex(site, sub)
            for p in "XZY":
                if frozenset(reference_flips(code, qubit, p)) == target:
                    return PauliOperator.single(code.geometry, qubit, p)
    return None


def reference_pyramid_steps(g, p, u):
    if p == 0:
        yield QubitIndex(g.wrap(u), 0), "X"
        return
    step = 2 ** (p - 1)
    yield from reference_pyramid_steps(g, p - 1, u)
    for axis in range(3):
        shifted = list(u)
        shifted[axis] += step
        yield from reference_pyramid_steps(g, p - 1, tuple(shifted))


# -- strategies ------------------------------------------------------------------


@st.composite
def walks(draw, max_steps=20):
    """A code, a path on it (off-torus coordinates, Y, every sub-qubit slot,
    and often a repeated tail), and an initial defect set."""
    name, L = draw(st.sampled_from(CODES))
    code = code_for(name, L)
    g = code.geometry
    step = st.tuples(st.tuples(*[st.integers(-1, L)] * g.D), st.integers(0, g.q - 1), st.sampled_from("XYZ"))
    steps = [(QubitIndex(site, sub), p) for site, sub, p in draw(st.lists(step, max_size=max_steps))]
    if steps and draw(st.booleans()):
        steps += steps[: draw(st.integers(1, len(steps)))]
    initial = draw(st.sets(st.integers(0, code.n_generators - 1), max_size=6))
    return code, steps, frozenset(code.generator_at(i) for i in initial)


# -- walker views ----------------------------------------------------------------


@settings(max_examples=300)
@given(walk=walks())
def test_energy_profile_matches_retired_loop(walk):
    code, steps, initial = walk
    expected = reference_syndromes(code, steps, initial)
    prof = energy_profile(code, ErrorPath.from_steps(steps), initial)
    assert prof.counts.tolist() == [len(s) for s in expected]
    assert prof.final_syndrome == expected[-1]


def test_energy_profile_edge_cases(cubic4):
    z = cubic4.species_index("z")
    start = frozenset({((1, 1, 1), z)})
    empty = ErrorPath.from_steps([])
    assert energy_profile(cubic4, empty, start).counts.tolist() == [1]
    assert energy_profile(cubic4, empty, start).final_syndrome == start
    y = (QubitIndex((1, 2, 3), 1), "Y")
    prof = energy_profile(cubic4, ErrorPath.from_steps([y, y, y]), start)
    assert prof.counts.tolist() == [len(s) for s in reference_syndromes(cubic4, [y, y, y], start)]


@settings(max_examples=200)
@given(walk=walks())
def test_syndrome_history_matches_retired_loop(walk):
    code, steps, initial = walk
    hist = syndrome_history(code, ErrorPath.from_steps(steps), initial)
    assert hist.syndromes == tuple(reference_syndromes(code, steps, initial))
    assert path_steps(hist.path) == tuple(steps)


@settings(max_examples=200)
@given(walk=walks())
def test_defect_after_each_step_matches_retired_loop(walk):
    code, steps, initial = walk
    expected = reference_syndromes(code, steps)
    for defect in sorted(initial | expected[-1] | set().union(*expected))[:6]:
        present = defect_after_each_step(code, ErrorPath.from_steps(steps), defect)
        assert present.tolist() == [defect in s for s in expected[1:]]


@pytest.mark.parametrize("sub", [-1, 2])
def test_out_of_range_slot_rejected(cubic4, sub):
    # cubic1 has slots 0 and 1; any other slot would read another slot's row
    # of the flip table, or alias onto a slot of the next site
    steps = [(QubitIndex((1, 1, 1), sub), "Z")]
    with pytest.raises(ValueError):
        energy_profile(cubic4, ErrorPath.from_steps(steps))
    with pytest.raises(ValueError):
        defect_after_each_step(cubic4, ErrorPath.from_steps(steps), ((1, 1, 1), 0))


@settings(max_examples=150)
@given(name=st.sampled_from(["rep1d", "toric2d", "toric3d", "cubic1"]), L=st.integers(2, 4), data=st.data())
def test_walker_reads_defects_modulo_L(name, L, data):
    """The walker's initial defects and the tracked defect are read as
    generators: a cube named with coordinates shifted by multiples of L, or
    named twice, is the same generator, and a species the code does not
    have is an InputError, not another cube's generator or a NumPy error."""
    code = code_for(name, L)
    g = code.geometry
    step = st.tuples(st.tuples(*[st.integers(0, L - 1)] * g.D), st.integers(0, g.q - 1), st.sampled_from("XYZ"))
    steps = data.draw(st.lists(step, max_size=8), label="steps")
    path = ErrorPath.from_steps([(QubitIndex(site, sub), p) for site, sub, p in steps])
    gens = data.draw(st.sets(st.integers(0, code.n_generators - 1), max_size=5), label="gens")
    initial = frozenset(code.generator_at(i) for i in gens)
    shift = st.lists(st.tuples(*[st.integers(-2, 2)] * g.D), min_size=1, max_size=3)
    names = [
        ((cube, s), (tuple(c + k * L for c, k in zip(cube, ks)), s))
        for cube, s in sorted(initial)
        for ks in data.draw(shift, label=f"names of {cube}:{s}")
    ]
    renamed = [name for _, name in names]
    by_name, by_generator = energy_profile(code, path, renamed), energy_profile(code, path, initial)
    assert by_name.counts.tolist() == by_generator.counts.tolist()
    assert by_name.final_syndrome == by_generator.final_syndrome
    assert syndrome_history(code, path, renamed).syndromes == syndrome_history(code, path, initial).syndromes
    for defect, name in names:
        assert (defect_after_each_step(code, path, name) == defect_after_each_step(code, path, defect)).all()
    cube = data.draw(st.tuples(*[st.integers(-L, 2 * L - 1)] * g.D), label="cube")
    for bad in ((cube, -1), (cube, code.n_species)):
        with pytest.raises(InputError):
            energy_profile(code, path, [bad])
        with pytest.raises(InputError):
            syndrome_history(code, path, [bad])
        with pytest.raises(InputError):
            defect_after_each_step(code, path, bad)


def test_walker_rejects_a_species_that_would_alias(cubic4):
    """cubic1 has species 0 and 1: species 2 at cube (0, 0, 0) has the flat
    index of species 0 at cube (0, 0, 1), which the walker must not read."""
    path = ErrorPath.from_steps([(QubitIndex((1, 1, 2), 0), "X")])
    with pytest.raises(InputError):
        defect_after_each_step(cubic4, path, ((0, 0, 0), 2))
    with pytest.raises(InputError):
        energy_profile(cubic4, ErrorPath.from_steps([]), [((0, 0, 0), 2)])
    with pytest.raises(InputError):
        syndrome_history(cubic4, path, [((1, 1), 0)])  # a 2-D cube on a 3-D code


@settings(max_examples=200)
@given(walk=walks())
def test_path_lines_match_the_qubit_index_format(walk):
    """``to_lines`` writes each step as ``f"{QubitIndex} {label}"``, and
    ``from_lines`` reads the lines back to an equal path; a path that
    differs in one step is not equal."""
    code, steps, _ = walk
    path = ErrorPath.from_steps(steps)
    lines = path.to_lines()
    assert lines == [f"{q} {p}" for q, p in steps]
    assert ErrorPath.from_lines(lines, code.geometry.D, code.geometry.q) == path
    if steps:
        (q, p), *rest = steps
        assert ErrorPath.from_steps([(q, "ZXY"["XYZ".index(p)])] + rest) != path
        assert ErrorPath.from_steps(steps[1:]) != path


@settings(max_examples=200)
@given(
    name=st.sampled_from(registry_names()),
    L=st.integers(2, 5),
    terms=st.lists(
        st.tuples(st.lists(st.integers(0, 4), min_size=3, max_size=3), st.integers(0, 3), st.sampled_from("XYZ")),
        max_size=12,
    ),
)
def test_syndrome_of_matches_retired_loop(name, L, terms):
    code = code_for(name, L)
    g = code.geometry
    steps = [(QubitIndex(tuple(site[: g.D]), sub % g.q), p) for site, sub, p in terms]
    op = PauliOperator.from_terms(g, steps)
    assert code.syndrome_of(op) == reference_syndrome_of(code, op)
    for qubit, p in steps:
        _, gens = code.flip_events([qubit.site], [qubit.sub], [PAULI_CODE[p]])
        assert code.generators_at(gens) == reference_flips(code, qubit, p)


@settings(max_examples=200)
@given(
    name=st.sampled_from(["rep1d", "toric2d", "toric3d", "cubic1"]),
    L=st.integers(2, 5),
    terms=st.lists(
        st.tuples(st.lists(st.integers(0, 4), min_size=3, max_size=3), st.integers(0, 3), st.sampled_from("XYZ")),
        max_size=12,
    ),
)
def test_support_sites_match_retired_loop(name, L, terms):
    code = code_for(name, L)
    g = code.geometry
    op = PauliOperator.from_terms(g, [(QubitIndex(tuple(site[: g.D]), sub % g.q), p) for site, sub, p in terms])
    sites = op.support_sites()
    assert sites == reference_support_sites(op)
    assert all(type(c) is int for site in sites for c in site)


def test_syndrome_of_at_large_L_is_sparse():
    code = get_code("cubic1", 128)
    op = PauliOperator.from_terms(code.geometry, [(QubitIndex((127, 0, 5), 0), "X"), (QubitIndex((3, 3, 3), 1), "Y")])
    assert code.syndrome_of(op) == reference_syndrome_of(code, op)


@settings(max_examples=150)
@given(
    name=st.sampled_from(["rep1d", "toric2d", "toric3d", "cubic1"]),
    L=st.integers(2, 8),
    ops=st.lists(
        st.lists(st.tuples(st.lists(st.integers(0, 7), min_size=3, max_size=3), st.integers(0, 3),
                           st.sampled_from("XYZ")), max_size=10),
        max_size=6,
    ),
)
def test_syndrome_words_match_one_operator_walker(name, L, ops):
    """The batched kernel, row by row, against one operator at a time; an
    empty term list is the identity, and an empty batch has no rows."""
    code = code_for(name, L)
    g = code.geometry
    batch = [PauliOperator.from_terms(g, [(QubitIndex(tuple(c % L for c in site[: g.D]), sub % g.q), p)
                                          for site, sub, p in terms]) for terms in ops]
    xwords = np.array([op.xwords for op in batch], dtype=np.uint64).reshape(len(batch), gf2.n_words(g.n_qubits))
    zwords = np.array([op.zwords for op in batch], dtype=np.uint64).reshape(len(batch), gf2.n_words(g.n_qubits))
    words = code.syndrome_words(xwords, zwords)
    assert words.shape == (len(batch), gf2.n_words(code.n_generators))
    for row, op in zip(words, batch):
        expected = reference_single_syndrome(code, op)
        assert code.words_to_syndrome(row) == expected == code.syndrome_of(op)


@settings(max_examples=200)
@given(walk=walks())
def test_path_product_matches_retired_from_terms(walk):
    code, steps, _ = walk
    expected = reference_from_terms(code.geometry, steps)
    assert ErrorPath.from_steps(steps).product(code) == expected
    assert PauliOperator.from_terms(code.geometry, steps) == expected


@settings(max_examples=60)
@given(n=st.integers(1, 5), data=st.data())
def test_pyramid_path_matches_recursive_schedule(n, data):
    L = 2**n
    code = code_for("cubic1", L)
    p = data.draw(st.integers(0, n), label="p")  # p == n has 2**p == L
    u = data.draw(st.tuples(*[st.integers(-L, 2 * L)] * 3), label="u")
    path = pyramid_path(code, p, u)
    expected = tuple(reference_pyramid_steps(code.geometry, p, u))
    assert path_steps(path) == expected
    assert path == ErrorPath.from_steps(expected)


# -- code construction and local solves --------------------------------------------


@settings(max_examples=80)
@given(
    name=st.sampled_from(registry_names()),
    L=st.integers(2, 5),
    corrupt=st.none() | st.tuples(st.integers(0, 10), st.integers(0, 10), st.integers(0, 2), st.sampled_from("IXYZ")),
)
def test_sparse_commutation_audit_matches_dense(name, L, corrupt):
    spec = spec_dict(name)
    if corrupt is not None:
        s, e, sub, c = corrupt
        species = spec["species"][s % len(spec["species"])]
        e %= len(species["labels"])
        label = species["labels"][e]
        species["labels"][e] = label[: sub % len(label)] + c + label[sub % len(label) + 1 :]
    code = CodeInstance(CodeSpec.from_dict(spec), L)
    assert commutation_witness(code) == reference_gram_witness(code)


@settings(max_examples=40)
@given(name=st.sampled_from(["rep1d", "toric2d", "toric3d", "cubic1"]), L=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
def test_restricted_matrix_matches_retired_loop(name, L, seed):
    """The box solver, built from one offset grid and one flip-event call,
    against the retired per-entry restricted matrix of the origin box at every
    size up to L: the same qubit columns, reference row i at local row i,
    and ``gf2_solve``'s verdict and witness for a pattern that a box operator
    makes and for a random row set."""
    code = code_for(name, L)
    g = code.geometry
    rng = np.random.default_rng(seed)
    for size in range(1, L + 1):
        solver = _BoxSolver(code, size)
        dense, qubits, gen_rows = reference_restricted_matrix(code, g.box_sites((0,) * g.D, size))
        assert (g.site_indices(solver._sites) * g.q + solver._subs).tolist() == qubits
        local = solver.local_rows(code.generators_at(gen_rows), np.zeros((1, g.D), dtype=np.int64))[0]
        assert local.tolist() == list(range(len(gen_rows)))
        made = dense.astype(np.int64) @ (rng.random(dense.shape[1]) < 0.2) % 2 == 1
        for rhs in (made, rng.random(len(dense)) < 0.2):
            rows = np.flatnonzero(rhs)
            x = gf2.gf2_solve(from_bool_array(dense), from_bool(rhs))
            witness = solver.achievable_witness(rows, (0,) * g.D)
            assert bool(solver.achievable(rows)) == (witness is not None) == (x is not None)
            if x is not None:
                assert witness == reference_lift(g, qubits, x)


@settings(max_examples=150)
@given(
    name_L=st.sampled_from(CODES),
    sites=st.lists(st.tuples(*[st.integers(0, 4)] * 3), min_size=1, max_size=6),
    data=st.data(),
)
def test_single_qubit_short_circuit_matches_retired_loop(name_L, sites, data):
    code = code_for(*name_L)
    g = code.geometry
    region = sorted({g.wrap(s[: g.D]) for s in sites})
    # targets hit by one Pauli in the region, by one outside it, and arbitrary sets
    site = data.draw(st.sampled_from(region) | st.tuples(*[st.integers(0, g.L - 1)] * g.D), label="site")
    qubit = QubitIndex(site, data.draw(st.integers(0, g.q - 1), label="sub"))
    target = frozenset(reference_flips(code, qubit, data.draw(st.sampled_from("XYZ"), label="p")))
    if data.draw(st.booleans(), label="arbitrary"):
        drawn = data.draw(st.sets(st.integers(0, code.n_generators - 1), min_size=1, max_size=3), label="gens")
        target = frozenset(code.generator_at(i) for i in drawn)
    if not target:
        return  # callers hand the short-circuit nonempty clusters only
    witness = _single_qubit_witness(code, g.site_indices(region), target)
    assert witness == reference_single_qubit_witness(code, region, target)


@pytest.mark.parametrize("name_L", CODES[:4])
def test_oracle_move_syndromes_match_retired_loop(name_L):
    code = code_for(*name_L)
    space = CosetSpace(code)
    g = code.geometry
    expected = []
    for j in range(code.n_qubits):
        for p in MOVE_PAULIS:
            synd = 0
            for cube, s in reference_flips(code, g.qubit_at(j), p):
                synd |= 1 << code.generator_index(cube, s)
            expected.append(synd)
    assert [to_int(row[: gf2.n_words(code.n_generators)]) for row in space.move_dstate] == expected


@settings(max_examples=50)
@given(
    corners=st.lists(st.tuples(*[st.integers(-6, 11)] * 3), min_size=1, max_size=8),
    size=st.integers(1, 6),
    defects=st.lists(st.tuples(st.tuples(*[st.integers(0, 5)] * 3), st.integers(0, 1)), min_size=1, max_size=6),
)
def test_offset_table_matches_fresh_map(corners, size, defects):
    code = code_for("cubic1", 6)
    g = code.geometry
    solver = _BoxSolver(code, size)
    _, _, gen_rows0 = reference_restricted_matrix(code, g.box_sites((0, 0, 0), size))
    for corner, rows in zip(corners, solver.local_rows(defects, np.array(corners))):
        fresh = {
            code.generator_index(g.shift(cube, corner), s): i
            for i, (cube, s) in enumerate(code.generator_at(r) for r in gen_rows0)
        }
        assert rows.tolist() == [fresh.get(code.generator_index(c, s), -1) for c, s in defects]


# -- array helpers -----------------------------------------------------------------


@settings(max_examples=200)
@given(nbits=st.integers(1, 9000), data=st.data())
def test_nonzero_indices_and_parity_scatter(nbits, data):
    listed = data.draw(st.lists(st.integers(0, nbits - 1), max_size=40), label="listed")
    odd = sorted(j for j in set(listed) if listed.count(j) % 2)
    words = gf2.from_indices(listed, nbits, parity=True)
    assert np.flatnonzero(to_bool(words, nbits)).tolist() == odd
    assert gf2.nonzero_indices(words, nbits).tolist() == odd
    if nbits % 64:  # bits past nbits in the last word are not part of the vector
        words[-1] |= np.uint64(1) << np.uint64(63)
        assert gf2.nonzero_indices(words, nbits).tolist() == odd
    assert gf2.nonzero_indices(gf2.from_indices(listed, nbits), nbits).tolist() == sorted(set(listed))


@settings(max_examples=100)
@given(sites=st.lists(st.tuples(*[st.integers(0, 15)] * 3), min_size=1, max_size=60))
def test_box_counts_match_row_unique(sites):
    scales = [1, 2, 4, 8]
    est = box_counting_dimension(sites, scales)
    coords = np.asarray(sorted(set(sites)), dtype=np.int64)
    assert est.counts == [(s, int(np.unique(coords // s, axis=0).shape[0])) for s in scales]
