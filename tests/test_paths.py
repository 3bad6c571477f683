"""Error paths, energy profiles, and the pyramid construction."""

from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import path_steps, reference_flips
from stabscape import get_code
from stabscape.codes import CodeInstance
from stabscape.lattice import QubitIndex
from stabscape.pauli import PauliOperator
from stabscape.paths import (
    LOGICAL,
    NOT_CENTRALIZING,
    STABILIZER,
    ErrorPath,
    apex_cube,
    energy_profile,
    logical_zbar,
    pyramid_operator,
    pyramid_path,
    pyramid_syndrome,
    verify_logical,
)


def test_empty_path_profile(cubic4):
    prof = energy_profile(cubic4, ErrorPath.from_steps([]))
    assert prof.counts.tolist() == [0]
    assert prof.barrier == 0
    assert prof.final_syndrome == frozenset()


def test_profiles_compare_field_by_field(cubic4):
    """``==`` on two profiles of a two-step path is True, not NumPy's
    ambiguous-truth error; a profile differing in either field is unequal,
    and profiles stay unhashable."""
    path = ErrorPath.from_steps([(QubitIndex((1, 2, 3), 0), "X"), (QubitIndex((0, 0, 0), 1), "Z")])
    prof = energy_profile(cubic4, path)
    assert prof == energy_profile(cubic4, path) and not prof != energy_profile(cubic4, path)
    assert prof != type(prof)(prof.counts[:-1], prof.final_syndrome)
    assert prof != type(prof)(prof.counts, frozenset())
    assert prof != prof.counts.tolist()
    with pytest.raises(TypeError):
        hash(prof)


def test_double_bitflip_profile(cubic4):
    u = QubitIndex((1, 2, 3), 0)
    prof = energy_profile(cubic4, ErrorPath.from_steps([(u, "X"), (u, "X")]))
    assert prof.counts.tolist() == [0, 4, 0]
    assert prof.barrier == 4


def test_domain_wall_sweep_barrier():
    code = get_code("rep1d", 6)
    steps = [(QubitIndex((i,), 0), "X") for i in range(6)]
    prof = energy_profile(code, ErrorPath.from_steps(steps))
    assert prof.barrier == 2
    assert prof.final_syndrome == frozenset()


def test_profile_step_bound(cubic4, rng):
    g = cubic4.geometry
    steps = []
    for _ in range(60):
        site = tuple(int(c) for c in rng.integers(0, 4, size=3))
        steps.append((QubitIndex(site, int(rng.integers(0, 2))), "XYZ"[int(rng.integers(0, 3))]))
    prof = energy_profile(cubic4, ErrorPath.from_steps(steps))
    jumps = np.abs(np.diff(prof.counts))
    assert jumps.max() <= 8  # one qubit touches at most 2^3 cubes per species


def test_pyramid_operator_examples(cubic8):
    u = (2, 2, 2)
    e0 = pyramid_operator(cubic8, 0, u)
    assert e0 == PauliOperator.single(cubic8.geometry, QubitIndex(u, 0), "X")
    assert e0.weight == 1
    assert len(cubic8.syndrome_of(e0)) == 4
    e2 = pyramid_operator(cubic8, 2, u)
    assert e2.weight == 16
    assert cubic8.syndrome_of(e2) == pyramid_syndrome(cubic8, 2, apex_cube(cubic8, u))


def test_pyramid_weight_exact_through_p8():
    for p in range(0, 9):
        L = max(2 ** p, 2)
        code = get_code("cubic1", L)
        assert pyramid_operator(code, p, (0,) * 3).weight == 4**p


def test_pyramid_too_large_rejected(cubic4):
    with pytest.raises(ValueError):
        pyramid_operator(cubic4, 3, (0, 0, 0))
    with pytest.raises(ValueError):
        pyramid_path(cubic4, 3, (0, 0, 0))


def test_pyramid_requires_cubic(toric3):
    with pytest.raises(ValueError):
        pyramid_operator(toric3, 0, (0, 0))


def test_level_n_pyramid_closes(cubic4):
    op = pyramid_operator(cubic4, 2, (1, 1, 1))
    assert cubic4.syndrome_of(op) == frozenset()
    assert pyramid_syndrome(cubic4, 2, (0, 0, 0)) == frozenset()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pyramid_path_invariants(n, rng):
    L = 2**n
    code = get_code("cubic1", L)
    g = code.geometry
    u = tuple(int(c) for c in rng.integers(0, L, size=3))
    apex = (apex_cube(code, u), code.species_index("z"))
    for p in range(n + 1):
        path = pyramid_path(code, p, u)
        assert len(path) == 4**p
        op = pyramid_operator(code, p, u)
        assert path.product(code) == op
        prof = energy_profile(code, path)
        assert prof.barrier <= 4 * p + 4
        assert prof.final_syndrome == pyramid_syndrome(code, p, apex_cube(code, u))
        if 2**p < L:
            defects = set()
            for t, (q, pp) in enumerate(path_steps(path)):
                for d in reference_flips(code, q, pp):
                    defects.symmetric_difference_update({d})
                assert apex in defects, f"apex lost at step {t + 1} (p={p}, n={n})"


def test_level_decomposition_identity(cubic8):
    # a level-(p+1) pyramid syndrome is the XOR of its four level-p parts
    g = cubic8.geometry
    u = (1, 2, 3)
    for p in (0, 1):
        step = 2**p
        parts = [u, g.shift(u, (step, 0, 0)), g.shift(u, (0, step, 0)), g.shift(u, (0, 0, step))]
        combined = frozenset()
        for v in parts:
            combined = combined ^ cubic8.syndrome_of(pyramid_operator(cubic8, p, v))
        assert combined == cubic8.syndrome_of(pyramid_operator(cubic8, p + 1, u))


def test_incremental_profile_matches_recomputation(cubic4, rng):
    path = pyramid_path(cubic4, 2, (1, 1, 1))
    prof = energy_profile(cubic4, path)
    for _ in range(100):
        t = int(rng.integers(0, len(path) + 1))
        partial = PauliOperator.from_terms(cubic4.geometry, path_steps(path)[:t])
        assert prof.counts[t] == len(cubic4.syndrome_of(partial))


def test_zbar_properties():
    code = get_code("cubic1", 8)
    g = code.geometry
    u = (3, 5, 7)
    zbar = logical_zbar(code, u)
    assert zbar.weight == 64
    assert code.syndrome_of(zbar) == frozenset()  # commutes with everything
    e3 = pyramid_operator(code, 3, u)
    assert not zbar.commutes_with(e3)
    overlap = zbar.support_sites() & e3.support_sites()
    assert overlap == {g.shift(u, (-1, 0, 0))}


def test_zbar_commutes_with_every_x_generator(cubic8):
    zbar = logical_zbar(cubic8, (0, 0, 0))
    xsp = cubic8.species_index("x")
    for cube in product(range(cubic8.geometry.L), repeat=3):
        assert zbar.commutes_with(cubic8.generator(cube, xsp)), cube


def test_verify_logical_trichotomy(cubic4):
    g = cubic4.geometry
    assert verify_logical(cubic4, cubic4.generator((1, 1, 1), 0)) == STABILIZER
    xi = PauliOperator.single(g, QubitIndex((0, 0, 0), 0), "X")
    assert verify_logical(cubic4, xi) == NOT_CENTRALIZING
    e2 = pyramid_operator(cubic4, 2, (0, 0, 0))
    assert verify_logical(cubic4, e2) == LOGICAL
    assert verify_logical(cubic4, pyramid_operator(cubic4, 1, (0, 0, 0))) == NOT_CENTRALIZING


def test_verify_logical_witness_shortcut():
    code = get_code("cubic1", 16)  # too big for dense membership tests
    u = (0, 0, 0)
    op = pyramid_operator(code, 4, u)
    assert verify_logical(code, op, anticommuting_witness=logical_zbar(code, u)) == LOGICAL


def walked_syndrome(code, op):
    """The walker's final syndrome of a path from vacuum whose product is ``op``."""
    return energy_profile(code, ErrorPath.from_steps(op.terms())).final_syndrome


def test_verify_logical_reads_a_supplied_syndrome(cubic4, monkeypatch):
    """The trichotomy fixtures, each given the walker's final syndrome of
    its terms: ``syndrome_of`` is not called, and the supplied syndrome is
    the one read."""
    g = cubic4.geometry
    cases = [
        (cubic4.generator((1, 1, 1), 0), STABILIZER),
        (PauliOperator.single(g, QubitIndex((0, 0, 0), 0), "X"), NOT_CENTRALIZING),
        (pyramid_operator(cubic4, 2, (0, 0, 0)), LOGICAL),
        (pyramid_operator(cubic4, 1, (0, 0, 0)), NOT_CENTRALIZING),
    ]
    syndromes = [walked_syndrome(cubic4, op) for op, _ in cases]

    def forbidden(self, op):
        raise AssertionError("syndrome_of called")

    monkeypatch.setattr(CodeInstance, "syndrome_of", forbidden)
    for (op, kind), syndrome in zip(cases, syndromes):
        assert verify_logical(cubic4, op, syndrome=syndrome) == kind
    assert verify_logical(cubic4, cases[0][0], syndrome=syndromes[1]) == NOT_CENTRALIZING


@lru_cache(maxsize=None)
def code_L4(name):
    return get_code(name, 4)


@settings(max_examples=80)
@given(name=st.sampled_from(["cubic1", "toric2d"]), data=st.data())
def test_verify_logical_with_a_walked_syndrome_matches_syndrome_of(name, data):
    """A random product of generators, logical basis rows and a few
    single-qubit errors on cubic1 or toric2d at L=4, classified with the
    walker's final syndrome of its terms and through ``syndrome_of``,
    without and (on cubic1) with the ``logical_zbar`` witness."""
    code = code_L4(name)
    g = code.geometry
    op = PauliOperator.identity(g)
    for i in data.draw(st.lists(st.integers(0, code.n_generators - 1), max_size=6), label="generators"):
        op = op * code.generator(*code.generators_at([i])[0])
    rows = code.logical_basis()
    for i in data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=3), label="logicals"):
        op = op * PauliOperator.from_symplectic(g, rows[i])
    errors = data.draw(st.lists(st.tuples(st.integers(0, g.n_qubits - 1), st.integers(1, 3)), max_size=3),
                       label="errors")
    op = op * PauliOperator.from_codes(g, [q for q, _ in errors], [p for _, p in errors])
    syndrome = walked_syndrome(code, op)
    assert syndrome == code.syndrome_of(op)
    witnesses = [None]
    if name == "cubic1":
        witnesses.append(logical_zbar(code, data.draw(st.tuples(*[st.integers(0, 3)] * 3), label="u")))
    for witness in witnesses:
        assert verify_logical(code, op, witness, syndrome=syndrome) == verify_logical(code, op, witness)


def test_error_path_text_roundtrip(cubic4):
    path = pyramid_path(cubic4, 1, (0, 1, 2))
    lines = path.to_lines()
    assert lines[0].split()[-1] == "X"
    back = ErrorPath.from_lines(lines, 3, 2)
    assert back == path
    with pytest.raises(ValueError):
        ErrorPath.from_lines(["0 0 0 0 Q"], 3, 2)
    with pytest.raises(ValueError):
        ErrorPath.from_lines(["0 0 0 X"], 3, 2)
    with pytest.raises(ValueError):
        ErrorPath.from_lines(["0 0 0 2 X"], 3, 2)
    with pytest.raises(ValueError):
        ErrorPath.from_lines(["0 0 0 -1 X"], 3, 2)
    with pytest.raises(ValueError):
        energy_profile(cubic4, ErrorPath.from_steps([(QubitIndex((0, 0, 0), 2), "X")]))
