"""Phase-free multi-qubit Pauli operators in symplectic (X|Z) bit form.

Operators live in the Pauli group modulo overall phases: an operator is a
pair of packed bit-vectors over the qubit set, qubit ``j`` carrying X iff
``xbits[j]``, Z iff ``zbits[j]``, Y iff both.  Products are bitwise XOR, so
every operator is its own inverse and the group is elementary abelian here.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import gf2
from .lattice import LatticeGeometry, QubitIndex

# Single-qubit Pauli codes: x bit | z bit << 1, so X=1, Z=2, Y=3.
CODE_CHARS = "IXZY"
PAULI_CODE = {c: i for i, c in enumerate(CODE_CHARS)}


def stacked_words(geometry: LatticeGeometry, qubits, paulis, rows, count: int) -> tuple[np.ndarray, np.ndarray]:
    """X and Z words, each ``(count, words)``, of ``count`` operators given as
    single-qubit Paulis: qubit ids, Pauli codes and the row of each (or one
    scalar row for all).  Repeated factors within a row cancel in pairs."""
    paulis = np.asarray(paulis, dtype=np.int64)
    rows, qubits = np.asarray(rows, dtype=np.int64), np.asarray(qubits, dtype=np.int64)
    return tuple(gf2.from_bits(rows[part] if rows.ndim else rows, qubits[part], count, geometry.n_qubits, parity=True)
                 for part in (paulis & 1 == 1, paulis & 2 == 2))


class PauliOperator:
    """Immutable phase-free Pauli over one lattice's qubit set."""

    __slots__ = ("geometry", "xwords", "zwords")

    def __init__(self, geometry: LatticeGeometry, xwords: np.ndarray, zwords: np.ndarray):
        self.geometry = geometry
        # read-only copies: the caller's arrays stay writable, and writes to them do not reach here
        self.xwords = np.array(xwords, dtype=np.uint64)
        self.zwords = np.array(zwords, dtype=np.uint64)
        self.xwords.flags.writeable = False
        self.zwords.flags.writeable = False

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, geometry: LatticeGeometry) -> "PauliOperator":
        nb = geometry.n_qubits
        return cls(geometry, gf2.zeros(nb), gf2.zeros(nb))

    @classmethod
    def from_terms(
        cls, geometry: LatticeGeometry, terms: Iterable[tuple[QubitIndex, str]]
    ) -> "PauliOperator":
        """Product of single-qubit factors; repeated factors cancel in pairs."""
        terms = list(terms)
        for _, p in terms:
            if p not in PAULI_CODE:
                raise ValueError(f"bad Pauli label {p!r}")
        return cls.from_codes(geometry, [geometry.qubit_index(q) for q, _ in terms], [PAULI_CODE[p] for _, p in terms])

    @classmethod
    def from_codes(cls, geometry: LatticeGeometry, qubits, paulis) -> "PauliOperator":
        """Product of single-qubit Paulis given as qubit ids and Pauli codes."""
        x, z = stacked_words(geometry, qubits, paulis, 0, 1)
        return cls(geometry, x[0], z[0])

    @classmethod
    def single(cls, geometry: LatticeGeometry, qubit: QubitIndex, p: str) -> "PauliOperator":
        return cls.from_terms(geometry, [(qubit, p)])

    @classmethod
    def from_symplectic(cls, geometry: LatticeGeometry, vec: np.ndarray) -> "PauliOperator":
        return cls(geometry, *gf2.split_halves(vec, geometry.n_qubits))

    # -- group structure ---------------------------------------------------

    def _check_same(self, other: "PauliOperator") -> None:
        if self.geometry != other.geometry:
            raise ValueError("operators live on different qubit sets")

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        self._check_same(other)
        return PauliOperator(self.geometry, self.xwords ^ other.xwords, self.zwords ^ other.zwords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliOperator)
            and self.geometry == other.geometry
            and bool(np.array_equal(self.xwords, other.xwords))
            and bool(np.array_equal(self.zwords, other.zwords))
        )

    def __hash__(self) -> int:
        return hash((self.geometry, self.xwords.tobytes(), self.zwords.tobytes()))

    def commutes_with(self, other: "PauliOperator") -> bool:
        """Symplectic form: parity of X/Z overlaps between the two operators."""
        self._check_same(other)
        parity = (gf2.popcount(self.xwords & other.zwords) + gf2.popcount(self.zwords & other.xwords)) & 1
        return parity == 0

    def is_identity(self) -> bool:
        return not (self.xwords.any() or self.zwords.any())

    # -- support ----------------------------------------------------------

    @property
    def weight(self) -> int:
        return gf2.popcount(self.xwords | self.zwords)

    def support_indices(self) -> np.ndarray:
        return gf2.nonzero_indices(self.xwords | self.zwords, self.geometry.n_qubits)

    def support_coords(self) -> np.ndarray:
        """Distinct support sites as an ``(N, D)`` array in site order: the
        qubit indices are sorted, so a site's sub-qubits are adjacent and one
        diff drops the repeats (np.unique would import numpy.ma)."""
        g = self.geometry
        cells = self.support_indices() // g.q
        cells = cells[np.diff(cells, prepend=-1) != 0]
        return np.stack(np.unravel_index(cells, (g.L,) * g.D), axis=1)

    def support_sites(self) -> set[tuple[int, ...]]:
        return set(map(tuple, self.support_coords().tolist()))

    def terms(self) -> list[tuple[QubitIndex, str]]:
        idx = self.support_indices()
        codes = gf2.get_bit(self.xwords, idx) + 2 * gf2.get_bit(self.zwords, idx)
        return [(self.geometry.qubit_at(i), CODE_CHARS[c]) for i, c in zip(idx.tolist(), codes.tolist())]

    # -- conversions --------------------------------------------------------

    def symplectic(self) -> np.ndarray:
        """Packed (X-part || Z-part) vector over ``2n`` bits."""
        n = self.geometry.n_qubits
        x, z = (gf2.nonzero_indices(w, n) for w in (self.xwords, self.zwords))
        return gf2.from_indices(np.concatenate([x, z + n]), 2 * n)

    def __repr__(self) -> str:
        shown = " ".join(f"{p}@{q.site}:{q.sub}" for q, p in self.terms()[:4]) or "I"
        return f"PauliOperator({shown}{'' if self.weight <= 4 else f' ...({self.weight} qubits)'})"
