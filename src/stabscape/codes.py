"""Code specifications, lattice instantiation, and the linear syndrome map.

A code is defined by per-species generator templates acting on the corners of
one elementary cube; a :class:`CodeInstance` carries every translate on a
given torus.  Syndromes are template-local, so large lattices stay cheap; up
to ``MAX_DENSE_QUBITS`` qubits a code builds on first use its dense GF(2) views:
the stabilizer matrix, its RREF, its Pauli-type ``halves()`` and logical basis.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import chain
from typing import Iterable

import numpy as np

from . import gf2
from .gf2 import BitMatrix
from .lattice import LatticeGeometry, Site
from .pauli import PAULI_CODE, PauliOperator

# Dense matrices are only built for instances up to this many qubits; larger
# lattices must go through the template-local paths.
MAX_DENSE_QUBITS = 4096

Defect = tuple[Site, int]  # (cube coordinate, species index)
Syndrome = frozenset[Defect]


class CodeConstructionError(Exception):
    """Raised when a code spec fails validation at build time."""


class InputError(ValueError):
    """Raised when a caller's input is outside what an analysis accepts."""


@dataclass
class SearchBudget:
    """Exactness envelope of every search (barriers, distance, string scans):
    a result is exact until one of its caps trips.  The CLI takes its
    defaults from here."""

    omega_max: int = 64  # barrier ceiling
    state_cap: int = 10_000_000  # coset states, or distance elements
    max_pairs: int = 2000  # anchor pairs per string scan
    max_patterns: int = 64  # defect patterns per anchor pair
    time_cap: float | None = None  # seconds; 0 has already run out, None never does

    def deadline(self) -> float:
        """The ``time.monotonic()`` reading past which the search stops."""
        return math.inf if self.time_cap is None else time.monotonic() + self.time_cap


@dataclass(frozen=True)
class SpeciesTemplate:
    """One generator species: non-identity labels on cube-corner offsets."""

    name: str
    entries: tuple[tuple[Site, str], ...]


@dataclass(frozen=True)
class CodeSpec:
    """Data-driven code family: templates instantiate on any torus size."""

    name: str
    D: int
    q: int
    species: tuple[SpeciesTemplate, ...]

    def __post_init__(self):
        for sp in self.species:
            for offset, label in sp.entries:
                if len(offset) != self.D:
                    raise CodeConstructionError(f"{self.name}/{sp.name}: offset {offset} has wrong dimension")
                if any(c not in (0, 1) for c in offset):
                    raise CodeConstructionError(f"{self.name}/{sp.name}: offset {offset} leaves the elementary cube")
                if len(label) != self.q or any(c not in "IXYZ" for c in label):
                    raise CodeConstructionError(f"{self.name}/{sp.name}: bad label {label!r}")
            if len({o for o, _ in sp.entries}) != len(sp.entries):
                raise CodeConstructionError(f"{self.name}/{sp.name}: repeated offset")

    @classmethod
    def from_dict(cls, data: dict) -> "CodeSpec":
        species = []
        for i, sp in enumerate(data["species"]):
            entries = tuple(
                (tuple(off), lab)
                for off, lab in zip(sp["offsets"], sp["labels"])
                if set(lab) != {"I"}
            )
            species.append(SpeciesTemplate(sp.get("name", f"s{i}"), entries))
        return cls(data["name"], int(data["D"]), int(data["q"]), tuple(species))

    @classmethod
    def from_json(cls, text: str) -> "CodeSpec":
        return cls.from_dict(json.loads(text))


@lru_cache(maxsize=None)
def registered_spec(name: str) -> CodeSpec:
    """Load one of the shipped code specs by name."""
    try:
        text = resources.files("stabscape.specs").joinpath(f"{name}.json").read_text()
    except FileNotFoundError:
        raise KeyError(f"unknown code {name!r}; shipped codes: {', '.join(registry_names())}") from None
    return CodeSpec.from_json(text)


def registry_names() -> list[str]:
    files = resources.files("stabscape.specs")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


# What a code's shape fixes, per (spec value, L) for the life of the process:
# "rank" the stabilizer rank, an int s the read-only defects._BoxSolver of box
# size s: about ((s + 1)^D * species)^2 bits of memberships, and a witness memo
# (_solutions) that grows with every distinct pattern solved.  Only a process
# that meets a shape again reads an entry back; a CLI job builds each once.
# No value references a CodeInstance, so a code is freed as if it held none.
_SHAPES: dict[tuple[CodeSpec, int], dict] = {}


class CodeInstance:
    """A code spec instantiated on ``Z_L^D``: generators plus syndrome map.

    Generator indexing is cube-major, species-minor: generator ``(c, s)`` has
    flat index ``site_index(c) * n_species + s``.  Every elementary cube is
    named by its minimal corner, so cubes and sites share coordinates.
    """

    def __init__(self, spec: CodeSpec, L: int):
        self.spec = spec
        self.geometry = LatticeGeometry(spec.D, L, spec.q)
        self.n_species = len(spec.species)
        self.n_generators = self.n_species * self.geometry.n_sites
        # one row (species, sub, pauli, *offset) per non-identity template term
        self._terms = np.array([(s, sub, PAULI_CODE[p], *o) for s, sp in enumerate(spec.species)
                                for o, label in sp.entries for sub, p in enumerate(label) if p != "I"],
                               dtype=np.int64).reshape(-1, 3 + spec.D)
        # Dense flip table, F slots per row ``4 * sub + pauli``: the count ``(4q,)`` of
        # generators that single-qubit Pauli flips, in the row's first slots in term
        # order, with their offsets ``(D, 4q * F)`` and species ``(4q * F,)``.
        # Offsets are distinct within a species, so a step flips a generator once.
        species, subs, paulis = self._terms[:, :3].T
        key = np.arange(4 * spec.q)[:, None]
        flips = (subs == key // 4) & (key % 4 != 0) & (paulis != key % 4)
        order = np.argsort(~flips, axis=1, kind="stable")[:, : flips.sum(axis=1).max(initial=0)]
        self._flip_table = (flips.sum(axis=1), self._terms[order, 3:].reshape(-1, spec.D).T.copy(),
                            species[order].ravel())
        self._stabilizer_matrix: BitMatrix | None = None
        self._halves: list[tuple[int, np.ndarray, BitMatrix, BitMatrix]] | None = None
        self._stab_rref: tuple[BitMatrix, list[int]] | None = None
        self._logical_basis: np.ndarray | None = None
        # the views above, the halves, the logical basis and the coset space live as long as this code
        self._coset_space = None  # oracle.CosetSpace, built by oracle.coset_space

    # -- indexing -----------------------------------------------------------

    @property
    def n_qubits(self) -> int:
        return self.geometry.n_qubits

    def species_index(self, name: str) -> int:
        for i, sp in enumerate(self.spec.species):
            if sp.name == name:
                return i
        raise KeyError(f"no species {name!r} in code {self.spec.name}")

    def species_name(self, index: int) -> str:
        return self.spec.species[index].name

    def generator_index(self, cube: Site, species: int) -> int:
        return self.geometry.site_index(cube) * self.n_species + species

    def generator_at(self, index: int) -> Defect:
        return self.geometry.site_at(index // self.n_species), index % self.n_species

    def generators_at(self, indices: np.ndarray) -> list[Defect]:
        """``generator_at`` over an index array."""
        cubes, species = np.divmod(np.asarray(indices, dtype=np.int64), self.n_species)
        coords = np.unravel_index(cubes, (self.geometry.L,) * self.geometry.D)
        return list(zip(zip(*(c.tolist() for c in coords)), species.tolist()))

    def generator_terms(self, cubes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(generator, qubit, pauli)`` arrays with one entry per non-identity
        template term of every generator on the given cube ids, cube-major,
        each Pauli coded x bit | z bit << 1."""
        g = self.geometry
        cubes = np.asarray(cubes, dtype=np.int64)
        species, subs, paulis = self._terms[:, :3].T
        coords = np.array(np.unravel_index(cubes, (g.L,) * g.D)).T.reshape(-1, 1, g.D)
        qubits = g.site_indices(coords + self._terms[:, 3:]) * g.q + np.tile(subs, len(cubes))
        return (cubes[:, None] * self.n_species + species).ravel(), qubits, np.tile(paulis, len(cubes))

    def generator(self, cube: Site, species: int) -> PauliOperator:
        gens, qubits, paulis = self.generator_terms([self.geometry.site_index(cube)])
        mine = gens % self.n_species == species
        return PauliOperator.from_codes(self.geometry, qubits[mine], paulis[mine])

    # -- syndromes ------------------------------------------------------------

    def flip_events(self, sites, subs, paulis) -> tuple[np.ndarray, np.ndarray]:
        """Generator flips of a run of single-qubit Paulis at ``sites (T, D)``,
        ``subs (T,)`` with ``paulis (T,)`` coded x bit | z bit << 1.

        Returns ``(step, generator)`` index arrays ordered by step.  The cost
        is a fixed number of array operations whatever T is: the flat cube id
        is built one axis at a time from 1-D gathers.  The caller keeps every
        sub-qubit slot in ``0..q-1``: another slot would read another slot's
        row of the table.
        """
        g = self.geometry
        width, offsets, species = self._flip_table
        key = 4 * np.asarray(subs, dtype=np.int64) + paulis
        count = width[key]
        step = np.repeat(np.arange(len(key)), count)
        # a step's events take its row's first slots: entry = row start + rank in step
        entry = np.repeat(key * (len(species) // len(width)) - np.cumsum(count) + count, count) + np.arange(len(step))
        cube = 0
        for column, offset in zip(np.asarray(sites, dtype=np.int64).reshape(-1, g.D).T, offsets):
            cube = cube * g.L + (np.take(column, step) - np.take(offset, entry)) % g.L
        return step, cube * self.n_species + np.take(species, entry)

    def qubit_flip_events(self, qubits, paulis) -> tuple[np.ndarray, np.ndarray]:
        """``flip_events`` of single-qubit Paulis on flat qubit ids."""
        g = self.geometry
        sites, subs = np.divmod(np.asarray(qubits, dtype=np.int64), g.q)
        return self.flip_events(np.array(np.unravel_index(sites, (g.L,) * g.D)).T, subs, paulis)

    def syndrome_words(self, xwords: np.ndarray, zwords: np.ndarray) -> np.ndarray:
        """Syndromes of a batch of operators, given as ``(B, Wq)`` X and Z word
        rows, as ``(B, Wg)`` generator word rows: the parity of the flip
        events of every support qubit, template-local, so it works at any
        lattice size and costs the batch's total support."""
        xrow, xq = gf2.nonzero_bits(xwords)
        zrow, zq = gf2.nonzero_bits(zwords)
        # a Y term is its X and Z parts
        paulis = np.repeat([PAULI_CODE["X"], PAULI_CODE["Z"]], [len(xq), len(zq)])
        step, gens = self.qubit_flip_events(np.concatenate([xq, zq]), paulis)
        return gf2.from_bits(np.concatenate([xrow, zrow])[step], gens, len(xwords), self.n_generators, parity=True)

    def syndrome_of(self, op: PauliOperator) -> Syndrome:
        """Defects of one operator (``syndrome_words`` of a one-row batch)."""
        return self.words_to_syndrome(self.syndrome_words(op.xwords[None], op.zwords[None])[0])

    def defect_set(self, syndrome: Iterable[Defect]) -> Syndrome:
        """A caller's defects as a set of distinct generators, cube coordinates
        read modulo L as ``site_index`` reads them; InputError for a defect
        whose species or cube dimension the code does not have."""
        out = frozenset((self.geometry.wrap(c), s) for c, s in syndrome)
        if bad := [d for d in out if not 0 <= d[1] < self.n_species or len(d[0]) != self.spec.D]:
            raise InputError(f"{self.spec.name} has no generator {min(bad)}")
        return out

    def syndrome_to_words(self, syndrome: Iterable[Defect]) -> np.ndarray:
        return gf2.from_indices([self.generator_index(c, s) for c, s in syndrome], self.n_generators)

    def words_to_syndrome(self, words: np.ndarray) -> Syndrome:
        return frozenset(self.generators_at(gf2.nonzero_indices(words, self.n_generators)))

    # -- dense views ---------------------------------------------------------

    def stabilizer_matrix(self) -> BitMatrix:
        """Generators as packed (X-part || Z-part) rows, built on first use by
        one scatter of their template terms; a Y term sets both parts."""
        if self._stabilizer_matrix is None:
            if self.n_qubits > MAX_DENSE_QUBITS:
                raise InputError(f"{self.spec.name} L={self.geometry.L} has {self.n_qubits} qubits; "
                                 f"dense GF(2) views are limited to {MAX_DENSE_QUBITS}")
            gens, qubits, paulis = self.generator_terms(np.arange(self.geometry.n_sites))
            x, z = paulis & 1 == 1, paulis & 2 == 2
            rows, bits = np.concatenate([gens[x], gens[z]]), np.concatenate([qubits[x], qubits[z] + self.n_qubits])
            words = gf2.from_bits(rows, bits, self.n_generators, 2 * self.n_qubits)
            self._stabilizer_matrix = BitMatrix(words, 2 * self.n_qubits)
        return self._stabilizer_matrix

    def halves(self) -> list[tuple[int, np.ndarray, BitMatrix, BitMatrix]]:
        """The generators split by Pauli type, built on first use and kept on
        the code, as ``(column, mask, rows, dual)`` per half: the generators in
        ``mask`` as rows whose bit 0 is ``column`` of an (X||Z) row, and the
        rows whose nullspace is the half's part of the centralizer.  A CSS code
        (no species with both X and Z bits) has an X half at column 0 and a Z
        half at column n, n columns wide, each the other's dual, either maybe
        without generators; any other code has one half of (X||Z) rows, whose
        dual is those rows with X and Z swapped."""
        if self._halves is None:
            n, stab = self.n_qubits, self.stabilizer_matrix()
            kinds = np.zeros(self.n_species, dtype=np.int64)  # per species: has X bits | has Z bits << 1
            np.bitwise_or.at(kinds, self._terms[:, 0], self._terms[:, 2])
            xp, zp = gf2.split_halves(stab.words, n)
            if (kinds == 3).any():
                dual = gf2.from_ints([z | x << n for x, z in zip(gf2.to_ints(xp), gf2.to_ints(zp))], stab.words.shape[1])
                self._halves = [(0, np.ones(self.n_generators, bool), stab, BitMatrix(dual, 2 * n))]
            else:
                x = (kinds == 1)[np.arange(self.n_generators) % self.n_species]
                rows, dual = BitMatrix(xp[x], n), BitMatrix(zp[~x], n)
                self._halves = [(0, x, rows, dual), (n, ~x, dual, rows)]
        return self._halves

    def stabilizer_rref(self) -> tuple[BitMatrix, list[int]]:
        if self._stab_rref is None:
            self._stab_rref = self.stabilizer_matrix().rref()
        return self._stab_rref

    def logical_basis(self) -> np.ndarray:
        """The 2k centralizer rows independent modulo the stabilizers, as
        ``(2k, words(2n))`` (X||Z) word rows, built on first use and kept on
        the code: per half, X half first, each row of the nullspace of its
        dual that the stabilizer RREF rows pivoting in the half's columns (a
        basis of its rows) and the rows before it do not span, by one forward
        elimination, placed at the half's column.  The label of a Pauli P is
        the vector of its symplectic products with the rows: it is linear and
        zero on stabilizers, and on the centralizer it is zero exactly on the
        stabilizer group."""
        if self._logical_basis is None:
            (rref, pivots), basis = self.stabilizer_rref(), []
            for column, _, _, dual in self.halves():
                lo, hi = bisect_left(pivots, column), bisect_left(pivots, column + dual.ncols)  # the half's RREF rows
                centralizer = list(gf2.to_ints(gf2.nullspace(dual).words))
                kept = gf2._echelon(chain((r >> column for r in gf2.to_ints(rref.words[lo:hi])), centralizer))[1]
                basis += [centralizer[i - hi + lo] << column for i in kept if i >= hi - lo]
            self._logical_basis = gf2.from_ints(basis, gf2.n_words(2 * self.n_qubits))
        return self._logical_basis

    def stabilizer_rank(self) -> int:
        """One elimination per half, per shape and process, kept in ``_SHAPES``."""
        shape = _SHAPES.setdefault((self.spec, self.geometry.L), {})
        if "rank" not in shape:
            shape["rank"] = sum(len(rows.independent_rows()) for _, _, rows, _ in self.halves())
        return shape["rank"]

    @property
    def k(self) -> int:
        """Number of encoded qubits, measured as n minus the stabilizer rank."""
        return self.n_qubits - self.stabilizer_rank()

    def in_stabilizer_group(self, op: PauliOperator) -> bool:
        return not gf2.reduce_by_rref(*self.stabilizer_rref(), op.symplectic()).any()


@dataclass
class FrustrationReport:
    """Outcome of the pairwise-commutation and rank audit."""

    commuting: bool
    witness: tuple[Defect, Defect] | None
    n_qubits: int
    n_generators: int
    rank: int | None
    k: int | None


def build_code(spec: CodeSpec, L: int) -> CodeInstance:
    """Instantiate all translated generators on ``Z_L^D`` and validate them.

    Construction aborts if any pair of translates fails to commute, which
    catches template mistranscriptions immediately.
    """
    if L < 2:
        raise CodeConstructionError("L must be at least 2")
    code = CodeInstance(spec, L)
    witness = commutation_witness(code)
    if witness is not None:
        (c1, s1), (c2, s2) = witness
        raise CodeConstructionError(
            f"{spec.name} L={L}: generators {spec.species[s1].name}@{c1} and "
            f"{spec.species[s2].name}@{c2} anticommute"
        )
    return code


def get_code(name: str, L: int) -> CodeInstance:
    return build_code(registered_spec(name), L)


def commutation_witness(code: CodeInstance) -> tuple[Defect, Defect] | None:
    """The first anticommuting generator pair in row-major order, or None.

    Generator ``i`` anticommutes with ``j`` iff its terms flip ``j`` an odd
    number of times, so a key ``i * n_generators + j`` comes only from the
    terms of ``i``.  Translating a pair by minus its first generator's cube
    keeps it anticommuting, and the generators on cube 0 have the lowest
    indices, so the first pair has its first generator on cube 0: the terms
    of cube 0 settle the audit of every cube.
    """
    owners, qubits, paulis = code.generator_terms([0])
    step, gens = code.qubit_flip_events(qubits, paulis)
    keys = np.sort(owners[step] * code.n_generators + gens)
    # runs of equal keys by sort and diff (np.unique would import numpy.ma)
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    odd = starts[np.diff(starts, append=len(keys)) % 2 == 1]
    if not odd.size:
        return None
    i, j = divmod(int(keys[odd[0]]), code.n_generators)
    return code.generator_at(i), code.generator_at(j)


def check_frustration_free(code: CodeInstance) -> FrustrationReport:
    """Confirm that every generator pair commutes (``commutation_witness``)
    and report the measured stabilizer rank up to ``MAX_DENSE_QUBITS``."""
    witness = commutation_witness(code)
    rank = k = None
    if code.n_qubits <= MAX_DENSE_QUBITS:
        rank = code.stabilizer_rank()
        k = code.n_qubits - rank
    return FrustrationReport(witness is None, witness, code.n_qubits, code.n_generators, rank, k)
