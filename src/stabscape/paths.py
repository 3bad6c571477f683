"""Error paths, energy profiles, and the recursive pyramid construction.

An error path is a finite ordered sequence of single-qubit Pauli errors whose
product implements a target operator; its energy profile is the defect count
after every step.  The pyramid construction builds the fractal bit-flip
operators of the cubic code whose paths stay below the ``4p + 4`` ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import gf2
from .codes import CodeInstance, Defect, Syndrome
from .lattice import QubitIndex, Site
from .pauli import PauliOperator

NOT_CENTRALIZING = "not_centralizing"
STABILIZER = "stabilizer"
LOGICAL = "logical"


@dataclass(frozen=True)
class ErrorPath:
    """Ordered single-qubit error sequence; steps may repeat."""

    steps: tuple[tuple[QubitIndex, str], ...]

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[tuple[QubitIndex, str]]:
        return iter(self.steps)

    def product(self, code: CodeInstance) -> PauliOperator:
        return PauliOperator.from_terms(code.geometry, self.steps)

    def to_lines(self) -> list[str]:
        return [f"{q} {p}" for q, p in self.steps]

    @classmethod
    def from_lines(cls, lines: Iterable[str], D: int) -> "ErrorPath":
        steps = []
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != D + 2:
                raise ValueError(f"expected {D} coordinates, sub, and a Pauli: {line!r}")
            site = tuple(int(c) for c in parts[:D])
            sub = int(parts[D])
            p = parts[D + 1].upper()
            if p not in "XYZ":
                raise ValueError(f"bad Pauli {p!r} in {line!r}")
            steps.append((QubitIndex(site, sub), p))
        return cls(tuple(steps))


@dataclass(frozen=True)
class EnergyProfile:
    """Defect counts along a path; the barrier is the profile maximum."""

    counts: tuple[int, ...]
    final_syndrome: Syndrome

    @property
    def barrier(self) -> int:
        return max(self.counts)

    def csv_rows(self) -> list[tuple[int, int]]:
        return list(enumerate(self.counts))


def energy_profile(
    code: CodeInstance,
    steps: Iterable[tuple[QubitIndex, str]],
    initial: Iterable[Defect] = (),
) -> EnergyProfile:
    """Walk a path, tracking the defect set incrementally.

    Each single-qubit step touches only the generators on its incident cubes,
    so the cost per step is constant and independent of the lattice size.
    """
    defects: set[Defect] = set(initial)
    counts = [len(defects)]
    for qubit, p in steps:
        for d in code.flips(qubit, p):
            if d in defects:
                defects.discard(d)
            else:
                defects.add(d)
        counts.append(len(defects))
    return EnergyProfile(tuple(counts), frozenset(defects))


# -- cubic-code pyramids --------------------------------------------------------


def _require_cubic(code: CodeInstance) -> None:
    if code.spec.name != "cubic1" or code.spec.D != 3 or code.spec.q != 2:
        raise ValueError("pyramid constructions are specific to the cubic1 code family")


def apex_cube(code: CodeInstance, u: Site) -> Site:
    """Apex of the 4-defect cluster created by a bit-flip at site ``u``."""
    return tuple((c - 1) % code.geometry.L for c in u)


def pyramid_syndrome(code: CodeInstance, p: int, apex: Site) -> Syndrome:
    """The level-p pyramid cluster: apex plus three corners ``2**p`` away.

    Coincident corners (possible only when ``2**p`` wraps the torus) cancel
    in pairs, so the level-n pyramid on L = 2**n is empty.
    """
    _require_cubic(code)
    g = code.geometry
    zspecies = code.species_index("z")
    step = 2**p
    cubes: dict[Site, int] = {}
    for delta in ((0, 0, 0), (step, 0, 0), (0, step, 0), (0, 0, step)):
        c = g.shift(apex, delta)
        cubes[c] = cubes.get(c, 0) ^ 1
    return frozenset((c, zspecies) for c, odd in cubes.items() if odd)


def _pyramid_offsets(p: int) -> np.ndarray:
    offsets = np.zeros((1, 3), dtype=np.int64)
    for level in range(p):
        step = 2**level
        shifted = [offsets]
        for axis in range(3):
            block = offsets.copy()
            block[:, axis] += step
            shifted.append(block)
        offsets = np.concatenate(shifted)
    return offsets


def _require_pyramid_level(code: CodeInstance, p: int) -> None:
    _require_cubic(code)
    if p < 0:
        raise ValueError(f"pyramid level must be non-negative, got {p}")
    if 2**p > code.geometry.L:
        raise ValueError(f"level {p} pyramid does not fit on L={code.geometry.L}")


def pyramid_operator(code: CodeInstance, p: int, u: Site) -> PauliOperator:
    """The recursive bit-flip operator creating a level-p pyramid from vacuum.

    Acts by X on the first qubit of ``4**p`` distinct sites; its support is a
    self-similar set of fractal dimension 2.
    """
    _require_pyramid_level(code, p)
    g = code.geometry
    sites = (np.asarray(u, dtype=np.int64) + _pyramid_offsets(p)) % g.L
    flat = ((sites[:, 0] * g.L + sites[:, 1]) * g.L + sites[:, 2]) * g.q
    xwords = gf2.from_indices(flat, g.n_qubits)
    return PauliOperator(g, xwords, gf2.zeros(g.n_qubits))


def _pyramid_steps(code: CodeInstance, p: int, u: Site) -> Iterator[tuple[QubitIndex, str]]:
    g = code.geometry
    if p == 0:
        yield QubitIndex(g.wrap(u), 0), "X"
        return
    step = 2 ** (p - 1)
    yield from _pyramid_steps(code, p - 1, u)
    for axis in range(3):
        shifted = list(u)
        shifted[axis] += step
        yield from _pyramid_steps(code, p - 1, tuple(shifted))


def pyramid_path(code: CodeInstance, p: int, u: Site) -> ErrorPath:
    """Depth-first single-qubit schedule for the level-p pyramid operator.

    Sub-pyramids are built apex-first, then the x, y, z translates, each
    recursively; within level-0 blocks the order is fixed by the recursion.
    Along the path the defect count never exceeds ``4p + 4``, and while
    ``2**p < L`` the apex cube holds a defect after every step (at
    ``2**p == L`` the far corners wrap onto the apex and cancel it at the
    two top-level completion points; see ``energy_profile`` tests).
    """
    _require_pyramid_level(code, p)
    return ErrorPath(tuple(_pyramid_steps(code, p, tuple(u))))


def logical_zbar(code: CodeInstance, u: Site) -> PauliOperator:
    """Plane of single-qubit phase flips on the lattice plane behind ``u``.

    Acts by Z on the first qubit of every site with x-coordinate ``u_x - 1``;
    weight L^2, commutes with every generator, and anticommutes with the
    level-n pyramid operator based at ``u`` on L = 2**n (their supports share
    exactly the one site ``u - x``).
    """
    _require_cubic(code)
    g = code.geometry
    x0 = (u[0] - 1) % g.L
    yz = np.arange(g.L, dtype=np.int64)
    yy, zz = np.meshgrid(yz, yz, indexing="ij")
    flat = ((x0 * g.L + yy.ravel()) * g.L + zz.ravel()) * g.q
    zwords = gf2.from_indices(flat, g.n_qubits)
    return PauliOperator(g, gf2.zeros(g.n_qubits), zwords)


def verify_logical(
    code: CodeInstance, op: PauliOperator, anticommuting_witness: PauliOperator | None = None
) -> str:
    """Sort a Pauli into defect-creating / stabilizer / logical.

    A supplied witness that centralizes the code and anticommutes with ``op``
    certifies ``logical`` without the rank computation, which keeps the check
    cheap on lattices too large for dense solves.
    """
    if code.syndrome_of(op):
        return NOT_CENTRALIZING
    if anticommuting_witness is not None and not op.commutes_with(anticommuting_witness):
        return LOGICAL
    return STABILIZER if code.in_stabilizer_group(op) else LOGICAL
