"""Code construction, the syndrome map, and its audited invariants."""

import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabscape import build_code, check_frustration_free, get_code, min_barrier_cluster, registered_spec, registry_names
from stabscape import gf2
from stabscape.codes import (
    CodeConstructionError,
    CodeInstance,
    CodeSpec,
    InputError,
    SearchBudget,
    SpeciesTemplate,
    commutation_witness,
)
from stabscape.lattice import QubitIndex
from stabscape.pauli import PauliOperator
from stabscape.paths import apex_cube

from conftest import (
    XZZX_SPEC,
    from_bool,
    from_bool_array,
    parities_with,
    random_operator,
    rank,
    reference_generator,
    reference_gram_witness,
    reference_logical_basis,
    reference_reachable,
    reference_restricted_matrix,
    reference_stabilizer_words,
    reference_syndrome_matrix,
    single_paulis_anticommute,
    spec_dict,
    to_bool,
    to_bool_array,
    translate,
)


def test_registry_ships_expected_codes():
    assert set(registry_names()) >= {"cubic1", "toric2d", "toric3d", "rep1d"}


def test_cubic_counts_at_L4(cubic4):
    assert cubic4.n_qubits == 2 * 4**3 == 128
    assert cubic4.n_generators == 2 * 4**3 == 128


def test_rep1d_L5(rep5):
    assert rep5.n_qubits == 5
    assert rep5.n_generators == 5
    # generators are adjacent ZZ pairs
    gen = rep5.generator((2,), 0)
    assert dict(gen.terms()) == {QubitIndex((2,), 0): "Z", QubitIndex((3,), 0): "Z"}
    assert gen.weight == 2


def test_toric2d_L3_counts_and_k(toric3):
    assert toric3.n_qubits == 18
    assert toric3.n_generators == 18  # 9 plaquette + 9 star
    rep = check_frustration_free(toric3)
    assert rep.commuting and rep.k == 2


def test_toric3d_builds_and_k():
    code = get_code("toric3d", 3)
    rep = check_frustration_free(code)
    assert rep.commuting
    assert rep.k == 3


def test_L_too_small_rejected():
    with pytest.raises(CodeConstructionError):
        build_code(registered_spec("cubic1"), 1)


def test_corrupted_spec_fails_with_witness():
    spec = spec_dict("cubic1")
    spec["name"] = "cubic1-broken"
    spec["species"][0]["labels"][0] = "ZI"  # flip one corner label
    with pytest.raises(CodeConstructionError) as err:
        build_code(CodeSpec.from_dict(spec), 4)
    assert "anticommute" in str(err.value)


def test_repeated_template_offset_rejected():
    spec = spec_dict("rep1d")
    spec["species"][0]["offsets"][1] = spec["species"][0]["offsets"][0]
    with pytest.raises(CodeConstructionError, match="repeated offset"):
        CodeSpec.from_dict(spec)


@pytest.mark.parametrize("L", [2, 3, 4, 6])
def test_frustration_free_small_sizes(L):
    rep = check_frustration_free(get_code("cubic1", L))
    assert rep.commuting
    assert rep.rank is not None and rep.k == rep.n_qubits - rep.rank


@pytest.mark.parametrize("name", registry_names())
@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_stabilizer_rank_is_the_rref_rank(name, L):
    """The forward pass alone counts the pivots of the full RREF.  The rank
    reads each row with column 0 as its lowest bit and the RREF with column 0
    as its highest, so their eliminations pivot in opposite orders."""
    code = get_code(name, L)
    forward = len(code.stabilizer_matrix().independent_rows())  # the stored rank may predate this code
    assert code.stabilizer_rank() == forward == len(code.stabilizer_rref()[1])


def test_stabilizer_rank_is_the_rref_rank_at_check_size():
    """The same on cubic1 L=8, the size that ``check`` audits in the benchmark."""
    code = get_code("cubic1", 8)
    forward = len(code.stabilizer_matrix().independent_rows())
    assert code.stabilizer_rank() == forward == len(code.stabilizer_rref()[1])


def test_a_second_check_reads_the_stored_rank(tmp_path, monkeypatch):
    """The rank is kept per (spec, L) for the process: a second ``check`` of
    cubic1 L=8 runs no rank elimination and reports the same rank and k."""
    from stabscape import cli, codes

    monkeypatch.delitem(codes._SHAPES, (registered_spec("cubic1"), 8), raising=False)
    halves = len(get_code("cubic1", 8).halves())  # one elimination per half
    calls = []
    independent_rows = gf2.BitMatrix.independent_rows
    monkeypatch.setattr(gf2.BitMatrix, "independent_rows", lambda m: calls.append(m) or independent_rows(m))
    measured = []
    for run in ("first", "second"):
        before = len(calls)
        assert cli.main(["check", "--code", "cubic1", "--L", "8", "--out", str(tmp_path / run)]) == 0
        [report] = (tmp_path / run).glob("check-*/report.json")
        check = {c["name"]: c for c in json.loads(report.read_text())["checks"]}["pairwise_commutation"]
        measured.append((len(calls) - before, check["measured"]["rank"]["value"], check["measured"]["k"]["value"]))
    assert halves == 2 and measured == [(halves, 1024 - 30, 30), (0, 1024 - 30, 30)]


def test_equal_specs_share_one_store_entry(monkeypatch):
    """The store is keyed by the spec's value and L: two specs read from the
    same JSON share an entry; a spec one template term away, or another L,
    does not.  Entries appear on first use, not when a code is made."""
    from stabscape import codes

    monkeypatch.setattr(codes, "_SHAPES", {})
    a, b = CodeSpec.from_dict(spec_dict("cubic1")), CodeSpec.from_dict(spec_dict("cubic1"))
    edited = spec_dict("cubic1")
    edited["species"][1]["labels"][0] = "XZ"
    c = CodeSpec.from_dict(edited)
    codes_made = [CodeInstance(s, L) for s, L in ((a, 4), (b, 4), (a, 5), (c, 4))]
    assert a is not b and a == b and a != c and codes._SHAPES == {}
    assert codes_made[0].stabilizer_rank() == 64 * 2 - 14
    assert list(codes._SHAPES) == [(a, 4)] and (b, 4) in codes._SHAPES
    assert [len(codes._SHAPES.get((s, L), ())) for s, L in ((b, 4), (a, 5), (c, 4))] == [1, 0, 0]
    assert codes_made[1].stabilizer_rank() == codes._SHAPES[(a, 4)]["rank"] and len(codes._SHAPES) == 1


def test_generator_syndromes_empty(cubic4, toric3, rep5):
    for code in (cubic4, toric3, rep5):
        for i in range(code.n_generators):
            assert code.syndrome_of(code.generator(*code.generator_at(i))) == frozenset()


def test_bitflip_pyramid_pattern(cubic4, rng):
    zsp = cubic4.species_index("z")
    for _ in range(50):
        u = tuple(int(c) for c in rng.integers(0, 4, size=3))
        op = PauliOperator.single(cubic4.geometry, QubitIndex(u, 0), "X")
        c = apex_cube(cubic4, u)
        expected = {
            (cubic4.geometry.shift(c, d), zsp)
            for d in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
        }
        assert set(cubic4.syndrome_of(op)) == expected


def test_every_single_qubit_error_detected_on_cubic(cubic4):
    g = cubic4.geometry
    u = (1, 2, 3)
    for sub in range(2):
        for p in "XYZ":
            syn = cubic4.syndrome_of(PauliOperator.single(g, QubitIndex(u, sub), p))
            assert syn, (sub, p)


def test_syndrome_linearity(cubic4, rng):
    for _ in range(1000):
        a = random_operator(cubic4, rng)
        b = random_operator(cubic4, rng)
        assert cubic4.syndrome_of(a * b) == cubic4.syndrome_of(a) ^ cubic4.syndrome_of(b)


def test_translation_covariance(cubic4, toric3, rep5, rng):
    for code in (cubic4, toric3, rep5, get_code("toric3d", 3)):
        g = code.geometry
        for _ in range(30):
            op = random_operator(code, rng)
            delta = tuple(int(c) for c in rng.integers(0, g.L, size=g.D))
            shifted = code.syndrome_of(translate(op, delta))
            expected = frozenset((g.shift(cube, delta), s) for cube, s in code.syndrome_of(op))
            assert shifted == expected


def test_single_qubit_patterns_translation_invariant(cubic4):
    g = cubic4.geometry
    base = {}
    for sub, p in ((0, "X"), (1, "Z"), (0, "Z"), (1, "X")):
        syn = cubic4.syndrome_of(PauliOperator.single(g, QubitIndex((0, 0, 0), sub), p))
        base[(sub, p)] = syn
        for u in ((1, 0, 0), (2, 3, 1)):
            moved = cubic4.syndrome_of(PauliOperator.single(g, QubitIndex(u, sub), p))
            assert moved == frozenset((g.shift(c, u), s) for c, s in syn)


def test_syndrome_matrix_agrees_with_template_path(cubic4, rng):
    mat = reference_syndrome_matrix(cubic4)
    for _ in range(20):
        op = random_operator(cubic4, rng)
        bits = parities_with(mat, op.symplectic())
        via_matrix = frozenset(
            cubic4.generator_at(int(i)) for i in np.nonzero(bits)[0]
        )
        assert via_matrix == cubic4.syndrome_of(op)


def test_restricted_matrix_agrees_with_dense(toric4, rng):
    """The test-side restricted matrix, which the box solver is checked
    against, is the dense syndrome map's block on the region."""
    g = toric4.geometry
    sites = g.box_sites((1, 1), 2)
    sub, qubits, gen_rows = reference_restricted_matrix(toric4, sites)
    dense = to_bool_array(reference_syndrome_matrix(toric4))
    nq = len(qubits)
    for r, gi in enumerate(gen_rows):
        # column layout: X-parts then Z-parts of the region's qubits, and a
        # syndrome row pairs gen Z-parts with error X-parts.
        for i, q in enumerate(qubits):
            assert sub[r, i] == dense[gi, q]
            assert sub[r, i + nq] == dense[gi, q + g.n_qubits]


def test_stabilizer_membership(cubic4):
    gen = cubic4.generator((0, 1, 2), 0)
    other = cubic4.generator((2, 2, 2), 1)
    assert cubic4.in_stabilizer_group(gen)
    assert cubic4.in_stabilizer_group(gen * other)
    xierr = PauliOperator.single(cubic4.geometry, QubitIndex((0, 0, 0), 0), "X")
    assert not cubic4.in_stabilizer_group(xierr)


def test_classical_detection(rep5):
    """rep1d's X half has no generators, toric3d has two halves with
    generators, and XZZX has one mixed half over 2n columns."""
    (x_column, x_mask, x_rows, _), (z_column, z_mask, z_rows, _) = rep5.halves()
    assert (x_column, z_column) == (0, rep5.n_qubits)
    assert not x_mask.any() and x_rows.nrows == 0 and z_mask.all()
    assert all(mask.any() for _, mask, _, _ in get_code("toric3d", 3).halves())
    xzzx = build_code(CodeSpec.from_dict(XZZX_SPEC), 4)
    [(column, mask, rows, _)] = xzzx.halves()
    assert column == 0 and mask.all() and rows.ncols == 2 * xzzx.n_qubits


ANTICOMMUTING_SPEC = {
    "name": "xx_z_chain", "D": 1, "q": 1,
    "species": [{"offsets": [[0], [1]], "labels": ["X", "X"]}, {"offsets": [[0]], "labels": ["Z"]}],
}


@pytest.mark.parametrize("name", [*registry_names(), "anticommuting"])
@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_dense_matrices_match_per_generator_loop(name, L):
    """Every view of ``generator_terms`` against the retired builds it
    replaced: the per-term ``np.roll`` stabilizer scatter, the ``QubitIndex``
    generator build and a term-by-term pairing of generator supports.  The
    instance is unvalidated, so the anticommuting spec builds too."""
    from stabscape import gf2

    spec = CodeSpec.from_dict(ANTICOMMUTING_SPEC) if name == "anticommuting" else registered_spec(name)
    code = CodeInstance(spec, L)
    n = code.n_qubits
    gens = [reference_generator(code, *code.generator_at(i)) for i in range(code.n_generators)]
    stab = reference_stabilizer_words(code)
    assert np.array_equal(stab, np.array([gen.symplectic() for gen in gens]))
    assert code.stabilizer_matrix().ncols == reference_syndrome_matrix(code).ncols == 2 * n
    assert code.stabilizer_matrix().words.tobytes() == stab.tobytes()
    swapped = []
    for row in stab:
        bits = to_bool(row, 2 * n)
        swapped.append(from_bool(np.concatenate([bits[n:], bits[:n]])))
    assert np.array_equal(reference_syndrome_matrix(code).words, np.array(swapped))
    for i, gen in enumerate(gens):
        assert code.generator(*code.generator_at(i)) == gen

    # generator i's term at a qubit flips generator j iff j's term there anticommutes with it
    on_qubit = {}
    for j, gen in enumerate(gens):
        for q, p in gen.terms():
            on_qubit.setdefault(q, []).append((j, p))
    pairs = sorted((i, j) for i, gen in enumerate(gens) for q, p in gen.terms()
                   for j, p2 in on_qubit[q] if single_paulis_anticommute(p, p2))
    owners, qubits, paulis = code.generator_terms(np.arange(code.geometry.n_sites))
    step, flipped = code.qubit_flip_events(qubits, paulis)
    assert sorted(zip(owners[step].tolist(), flipped.tolist())) == pairs

    expected = reference_gram_witness(code)
    assert (expected is None) == (name != "anticommuting")
    if name == "anticommuting":
        assert expected == next((code.generator_at(i), code.generator_at(j)) for i, a in enumerate(gens)
                                for j, b in enumerate(gens) if not a.commutes_with(b))
    assert commutation_witness(code) == expected


@pytest.mark.parametrize("spec", [*registry_names(), "anticommuting"])
@pytest.mark.parametrize("L", [2, 3, 4])
def test_generator_audit_matches_per_generator_syndromes(spec, L):
    spec = CodeSpec.from_dict(ANTICOMMUTING_SPEC) if spec == "anticommuting" else registered_spec(spec)
    code = CodeInstance(spec, L)  # unvalidated, so the anticommuting spec builds
    expected = all(not code.syndrome_of(code.generator(*code.generator_at(i))) for i in range(code.n_generators))
    assert (commutation_witness(code) is None) == expected
    assert expected == (spec.name != "xx_z_chain")


def corrupted(spec, edits):
    """The spec with label characters overwritten: each edit is (species,
    entry, slot, Pauli), indices taken modulo the spec's sizes.  All-identity
    labels are kept, so no species goes empty."""
    species = [list(sp.entries) for sp in spec.species]
    for s, e, sub, p in edits:
        entries = species[s % len(species)]
        offset, label = entries[e % len(entries)]
        sub %= spec.q
        entries[e % len(entries)] = (offset, label[:sub] + p + label[sub + 1:])
    templates = tuple(SpeciesTemplate(sp.name, tuple(es)) for sp, es in zip(spec.species, species))
    return CodeSpec(f"{spec.name}-edited", spec.D, spec.q, templates)


@pytest.mark.parametrize("name", [*registry_names(), "xx_z_chain"])
@pytest.mark.parametrize("L", [2, 3, 4, 5])
@settings(max_examples=15)
@given(edits=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 15), st.integers(0, 1), st.sampled_from("IXYZ")),
                      max_size=3))
def test_commutation_audit_matches_dense_gram(name, L, edits):
    """The origin-cube flip-event audit against the dense Gram matrix of
    every generator pair, on unvalidated instances of shipped and corrupted
    specs: the same verdict and the same first anticommuting pair."""
    spec = CodeSpec.from_dict(ANTICOMMUTING_SPEC) if name == "xx_z_chain" else registered_spec(name)
    code = CodeInstance(corrupted(spec, edits), L)
    expected = reference_gram_witness(code)
    report = check_frustration_free(code)
    assert report.commuting == (expected is None)
    assert report.witness == expected


@lru_cache(maxsize=None)
def label_code(name, L):
    return build_code(CodeSpec.from_dict(XZZX_SPEC), L) if name == "xzzx" else get_code(name, L)


def symplectic_products(a, b, n):
    """Symplectic products of (X||Z) word rows, ``(len(a), len(b))`` 0/1 ints,
    by dense integer matrix products."""
    bits = [to_bool_array(gf2.BitMatrix(rows, 2 * n)).astype(np.int64) for rows in (a, b)]
    return bits[0] @ np.roll(bits[1], n, axis=1).T % 2


@pytest.mark.parametrize("name", ["rep1d", "toric2d", "toric3d", "cubic1", "xzzx"])
@pytest.mark.parametrize("L", [2, 3, 4])
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_logical_labels_vanish_exactly_on_the_stabilizer_group(name, L, seed):
    """The label of a Pauli (its symplectic products with the logical basis
    rows) is zero on every generator, the rows pair up into a rank-2k Gram
    matrix, and on random centralizer elements, stabilizer products among
    them, a zero label is stabilizer-group membership."""
    code = label_code(name, L)
    n, basis = code.n_qubits, code.logical_basis()
    assert basis.dtype == np.uint64 and basis.shape == (2 * code.k, gf2.n_words(2 * n))
    assert not symplectic_products(code.stabilizer_matrix().words, basis, n).any()
    gram = symplectic_products(basis, basis, n)
    assert rank(from_bool_array(gram)) == 2 * code.k
    rng = np.random.default_rng(seed)
    stabs, centralizer = code.stabilizer_matrix().words, gf2.nullspace(reference_syndrome_matrix(code)).words
    for _ in range(8):
        vec = np.bitwise_xor.reduce(stabs[rng.random(len(stabs)) < 0.5], axis=0, initial=0)
        if rng.random() < 0.5:
            vec ^= np.bitwise_xor.reduce(centralizer[rng.random(len(centralizer)) < 0.5], axis=0, initial=0)
        op = PauliOperator.from_symplectic(code.geometry, vec)
        assert not code.syndrome_of(op)
        assert (not symplectic_products(vec[None], basis, n).any()) == code.in_stabilizer_group(op)


@lru_cache(maxsize=None)
def bool_logical_basis(name, L):
    return reference_logical_basis(label_code(name, L))


@pytest.mark.parametrize("name", ["rep1d", "toric2d", "toric3d", "cubic1", "xzzx"])
@pytest.mark.parametrize("L", [2, 3, 4, 5])
@settings(max_examples=5)
@given(seed=st.integers(0, 2**32 - 1))
def test_logical_basis_matches_bool_reference(name, L, seed):
    """The word-native basis against the one built on the retired bool
    nullspace: the same span modulo the stabilizers (equal ranks, and a
    random combination of either basis with random stabilizers lies in the
    other's span), a rank-2k Gram matrix, and in fact the same rows, which
    keeps every basis-dependent report value (such as ``d_upper``) fixed."""
    code = label_code(name, L)
    n, new, old = code.n_qubits, code.logical_basis(), bool_logical_basis(name, L)
    assert new.shape == old.shape == (2 * code.k, gf2.n_words(2 * n))
    assert rank(from_bool_array(symplectic_products(new, new, n))) == 2 * code.k
    stabs = code.stabilizer_matrix().words
    with_stabs = lambda *blocks: gf2.BitMatrix(np.vstack([stabs, *blocks]), 2 * n)
    assert rank(with_stabs(new)) == rank(with_stabs(old)) == rank(with_stabs(new, old)) == code.stabilizer_rank() + 2 * code.k
    rng = np.random.default_rng(seed)
    for a, b in ((new, old), (old, new)):
        vec = np.bitwise_xor.reduce(np.vstack([a, stabs])[rng.random(len(a) + len(stabs)) < 0.5], axis=0, initial=0)
        assert not gf2.reduce_by_rref(*with_stabs(b).rref(), vec).any()
    assert np.array_equal(new, old)


@settings(max_examples=40)
@given(name=st.sampled_from(["rep1d", "toric2d", "toric3d", "cubic1", "xzzx"]), L=st.integers(2, 6),
       seed=st.integers(0, 2**32 - 1))
def test_halves_split_the_stabilizer_matrix(name, L, seed):
    """The halves partition the generators; each half's rows, placed at its
    column, are its generators' rows of ``stabilizer_matrix()``, so together
    they span its row space, and their ranks sum to its dense rank.  A random
    syndrome is ``unreachable`` for ``min_barrier_cluster`` exactly when the
    reference solve on the syndrome map has no solution."""
    code = label_code(name, L)
    n, stab = code.n_qubits, code.stabilizer_matrix()
    halves = code.halves()
    assert (sum(mask.astype(int) for _, mask, _, _ in halves) == 1).all()
    placed = []
    for column, mask, rows, _ in halves:
        assert rows.nrows == mask.sum() and rows.ncols == (n if len(halves) == 2 else 2 * n)
        placed.append(gf2.from_ints([r << column for r in gf2.to_ints(rows.words)], stab.words.shape[1]))
        assert np.array_equal(placed[-1], stab.words[mask])
    together = gf2.BitMatrix(np.vstack(placed), 2 * n)
    assert rank(together) == rank(stab) == rank(gf2.BitMatrix(np.vstack([together.words, stab.words]), 2 * n))
    assert sum(rank(rows) for _, _, rows, _ in halves) == rank(stab) == code.stabilizer_rank()
    rng = np.random.default_rng(seed)
    syndrome = code.generators_at(np.flatnonzero(rng.random(code.n_generators) < rng.random()))
    if rng.random() < 0.5:  # a reachable one
        syndrome = code.syndrome_of(random_operator(code, rng))
    result = min_barrier_cluster(code, syndrome, SearchBudget(omega_max=0))
    assert (result.status == "unreachable") == (not reference_reachable(code, code.syndrome_to_words(syndrome)))


def test_defect_set_reads_cubes_modulo_L_and_rejects_unknown_species(toric3):
    assert toric3.defect_set([((0, 3), 0), ((0, 0), 0), ((-3, 4), 1)]) == {((0, 0), 0), ((0, 1), 1)}
    for bad in ([((0, 0), 2)], [((0, 0), -1)], [((0, 0, 0), 0)]):
        with pytest.raises(InputError):
            toric3.defect_set(bad)
