"""Phase-free Pauli algebra: products, the symplectic form, support."""

from itertools import combinations

import numpy as np
import pytest

from stabscape import gf2
from stabscape.lattice import LatticeGeometry, QubitIndex
from stabscape.pauli import PauliOperator

from conftest import support, translate

GEO = LatticeGeometry(2, 4, 1)


def op(*terms):
    return PauliOperator.from_terms(GEO, [(QubitIndex(site), p) for site, p in terms])


def random_pauli(rng, geometry=GEO):
    n = geometry.n_qubits
    terms = []
    for j in range(n):
        p = "IXYZ"[int(rng.integers(0, 4))]
        if p != "I":
            terms.append((geometry.qubit_at(j), p))
    return PauliOperator.from_terms(geometry, terms)


def test_x_times_z_is_y():
    u = (1, 2)
    assert op((u, "X")) * op((u, "Z")) == op((u, "Y"))


def test_self_inverse_random(rng):
    for _ in range(1000):
        e = random_pauli(rng)
        assert (e * e).is_identity()


def test_componentwise_product():
    u, v = (0, 0), (2, 1)
    lhs = op((u, "X"), (v, "Z")) * op((u, "Z"))
    assert lhs == op((u, "Y"), (v, "Z"))


def test_mul_associative_commutative_cancelling(rng):
    for _ in range(1000):
        a, b, c = (random_pauli(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (a * b) == b


def test_mismatched_qubit_sets_rejected():
    other = LatticeGeometry(2, 5, 1)
    with pytest.raises(ValueError):
        PauliOperator.identity(GEO) * PauliOperator.identity(other)
    with pytest.raises(ValueError):
        PauliOperator.identity(GEO).commutes_with(PauliOperator.identity(other))


def test_commutes_basics():
    u, v = (0, 0), (1, 3)
    assert not op((u, "X")).commutes_with(op((u, "Z")))
    assert op((u, "X")).commutes_with(op((v, "Z")))
    assert op((u, "Y")).commutes_with(op((u, "Y")))


def test_commutes_symmetric_and_bilinear(rng):
    # a commutes with bc iff it commutes with both b and c or with neither
    for _ in range(300):
        a, b, c = (random_pauli(rng) for _ in range(3))
        assert a.commutes_with(b) == b.commutes_with(a)
        assert a.commutes_with(b * c) == (a.commutes_with(b) == a.commutes_with(c))


def test_weight_and_support():
    ident = PauliOperator.identity(GEO)
    assert ident.weight == 0 and support(ident) == ()
    e = op(((0, 0), "X"), ((1, 1), "Y"), ((3, 2), "Z"))
    assert e.weight == 3
    assert set(support(e)) == {QubitIndex((0, 0)), QubitIndex((1, 1)), QubitIndex((3, 2))}
    assert dict(e.terms())[QubitIndex((1, 1))] == "Y"


def test_from_terms_cancels_repeats():
    u = (2, 2)
    assert PauliOperator.from_terms(GEO, [(QubitIndex(u), "X"), (QubitIndex(u), "X")]).is_identity()
    y = PauliOperator.from_terms(GEO, [(QubitIndex(u), "X"), (QubitIndex(u), "Z")])
    assert y == op((u, "Y"))


def test_translate_identity_and_period(rng):
    e = random_pauli(rng)
    assert translate(e, (0, 0)) == e
    assert translate(e, (GEO.L, 0)) == e
    shifted = translate(e, (1, 2))
    assert shifted.weight == e.weight
    assert translate(shifted, (-1, -2)) == e


def test_symplectic_roundtrip(rng):
    e = random_pauli(rng)
    assert PauliOperator.from_symplectic(GEO, e.symplectic()) == e


def test_mul_is_symplectic_xor(rng):
    for _ in range(100):
        a, b = random_pauli(rng), random_pauli(rng)
        assert np.array_equal((a * b).symplectic(), a.symplectic() ^ b.symplectic())


def test_operator_copies_the_callers_words():
    """The operator keeps read-only copies: the caller's arrays stay writable,
    and writing to them afterwards leaves the operator as built."""
    x, z = gf2.zeros(GEO.n_qubits), gf2.zeros(GEO.n_qubits)
    p = PauliOperator(GEO, x, z)
    x[0] = z[0] = 1
    assert p.is_identity()
    with pytest.raises(ValueError):
        p.xwords[0] = 1


def test_built_operators_own_read_only_words(cubic4):
    """``from_codes`` (under ``from_terms``), ``from_symplectic``,
    ``identity``, the product and ``paths.logical_zbar`` keep the words they
    built without a copy: every array is read-only and shares memory with no
    other operator's and not with the symplectic vector it came from."""
    from stabscape.paths import logical_zbar

    a, b = op(((0, 0), "X"), ((1, 2), "Y")), op(((1, 2), "Z"))
    vec = a.symplectic()
    built = [a, b, a * b, PauliOperator.from_symplectic(GEO, vec), PauliOperator.identity(GEO),
             PauliOperator.identity(GEO), logical_zbar(cubic4, (0, 0, 0)), logical_zbar(cubic4, (1, 0, 0))]
    words = [w for p in built for w in (p.xwords, p.zwords)]
    assert not any(w.flags.writeable for w in words)
    assert not any(np.shares_memory(u, v) for u, v in combinations(words + [vec], 2))
