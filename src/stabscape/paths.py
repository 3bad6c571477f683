"""Error paths, energy profiles, and the recursive pyramid construction.

An error path is a finite ordered sequence of single-qubit Pauli errors whose
product implements a target operator; its energy profile is the defect count
after every step.  The pyramid construction builds the fractal bit-flip
operators of the cubic code whose paths stay below the ``4p + 4`` ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import gf2
from .codes import CodeInstance, Defect, InputError, Syndrome
from .lattice import QubitIndex, Site
from .pauli import CODE_CHARS, PAULI_CODE, PauliOperator

NOT_CENTRALIZING = "not_centralizing"
STABILIZER = "stabilizer"
LOGICAL = "logical"


class ErrorPath:
    """Ordered single-qubit error sequence; steps may repeat.

    Held as arrays: ``sites (T, D)``, ``subs (T,)`` and ``paulis (T,)``, each
    Pauli coded x bit | z bit << 1 (X=1, Z=2, Y=3).
    """

    def __init__(self, sites, subs, paulis):
        self.subs = np.asarray(subs, dtype=np.int64)
        self.paulis = np.asarray(paulis, dtype=np.int64)
        self.sites = np.asarray(sites, dtype=np.int64).reshape(len(self.subs), -1 if len(self.subs) else 0)

    @classmethod
    def from_steps(cls, steps: Iterable[tuple[QubitIndex, str]]) -> "ErrorPath":
        steps = list(steps)
        return cls([q.site for q, _ in steps], [q.sub for q, _ in steps], [PAULI_CODE[p] for _, p in steps])

    def __len__(self) -> int:
        return len(self.subs)

    def __eq__(self, other) -> bool:
        return isinstance(other, ErrorPath) and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in ("sites", "subs", "paulis")
        )

    def product(self, code: CodeInstance) -> PauliOperator:
        g = code.geometry
        return PauliOperator.from_codes(g, g.site_indices(self.sites) * g.q + self.subs, self.paulis)

    def to_lines(self) -> list[str]:
        """One ``x.. sub P`` line per step, as ``from_lines`` reads them."""
        return [
            " ".join(map(str, (*site, sub, CODE_CHARS[p])))
            for site, sub, p in zip(self.sites.tolist(), self.subs.tolist(), self.paulis.tolist())
        ]

    @classmethod
    def from_lines(cls, lines: Iterable[str], D: int, q: int) -> "ErrorPath":
        """Parse ``x.. sub P`` lines; a sub-qubit slot outside ``0..q-1`` is
        rejected rather than aliased onto another site."""
        sites, subs, paulis = [], [], []
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != D + 2:
                raise InputError(f"expected {D} coordinates, sub, and a Pauli: {line!r}")
            try:
                site, sub = [int(c) for c in parts[:D]], int(parts[D])
            except ValueError:
                raise InputError(f"non-integer coordinate or sub-qubit slot in {line!r}") from None
            if not 0 <= sub < q:
                raise InputError(f"sub-qubit slot {sub} out of range in {line!r}")
            p = parts[D + 1].upper()
            if p not in ("X", "Y", "Z"):
                raise InputError(f"bad Pauli {p!r} in {line!r}")
            sites.append(site)
            subs.append(sub)
            paulis.append(PAULI_CODE[p])
        return cls(sites, subs, paulis)


def _require_slots(code: CodeInstance, path: ErrorPath) -> None:
    q = code.geometry.q
    if len(path) and not (0 <= path.subs.min() and path.subs.max() < q):
        raise ValueError(f"path has a sub-qubit slot outside 0..{q - 1}")


def walk_events(
    code: CodeInstance, path: ErrorPath, initial: Iterable[Defect] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """The one syndrome walker: flip events ``(step, generator)`` in step
    order.  Step ``t`` is the path's t-th error (1-based); the initial
    defects, read by ``code.defect_set``, enter as step-0 events."""
    _require_slots(code, path)
    step, gens = code.flip_events(path.sites, path.subs, path.paulis)
    init = np.array(sorted(code.generator_index(c, s) for c, s in code.defect_set(initial)), dtype=np.int64)
    return np.concatenate([np.zeros_like(init), step + 1]), np.concatenate([init, gens])


@dataclass(frozen=True, eq=False)
class EnergyProfile:
    """Defect counts along a path; the barrier is the profile maximum.
    Profiles compare field by field and are unhashable."""

    counts: np.ndarray  # int64, one count per step 0..T
    final_syndrome: Syndrome

    def __eq__(self, other) -> bool:
        return (isinstance(other, EnergyProfile) and np.array_equal(self.counts, other.counts)
                and self.final_syndrome == other.final_syndrome)

    @property
    def barrier(self) -> int:
        return int(self.counts.max())


def energy_profile(code: CodeInstance, path: ErrorPath, initial: Iterable[Defect] = ()) -> EnergyProfile:
    """Defect count after every step of a path.

    The walker's events are sorted by (generator, step), one key
    ``generator * (T + 1) + step`` (equal keys are identical events); within
    a generator's events the even ranks create its defect (+1) and the odd
    ranks remove it (-1), and the counts are the running sum of the signs.
    The cost per step is constant and independent of the lattice size.
    """
    step, gens = walk_events(code, path, initial)
    T = len(path)
    gens, step = np.divmod(np.sort(gens * (T + 1) + step), T + 1)
    n = np.arange(len(gens))
    run_start = np.maximum.accumulate(np.where(np.diff(gens, prepend=-1) != 0, n, 0))
    created = (n - run_start) % 2 == 0
    counts = np.cumsum(np.bincount(step[created], minlength=T + 1) - np.bincount(step[~created], minlength=T + 1))
    final = gens[created & (np.diff(gens, append=-1) != 0)]
    return EnergyProfile(counts, frozenset(code.generators_at(final)))


def defect_after_each_step(code: CodeInstance, path: ErrorPath, defect: Defect) -> np.ndarray:
    """Whether ``defect`` is present after each step ``1..T`` of a path from
    vacuum, without the walker: a step flips it iff its qubit is one of the
    generator's terms with an anticommuting Pauli; presence is the parity.
    The defect is read by ``code.defect_set``."""
    _require_slots(code, path)
    [defect] = code.defect_set([defect])
    g, gen = code.geometry, code.generator_index(*defect)
    gens, qubits, paulis = code.generator_terms([gen // code.n_species])
    qubit, p = (g.site_indices(path.sites) * g.q + path.subs)[:, None], path.paulis[:, None]
    flips = (qubit == qubits[gens == gen]) & (p != paulis[gens == gen]) & (p != 0)
    return np.cumsum(flips.sum(axis=1)) % 2 == 1


# -- cubic-code pyramids --------------------------------------------------------


def _require_cubic(code: CodeInstance) -> None:
    if code.spec.name != "cubic1" or code.spec.D != 3 or code.spec.q != 2:
        raise InputError("pyramid constructions are specific to the cubic1 code family")


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
    zspecies, step = code.species_index("z"), 2**p
    defects: frozenset[Defect] = frozenset()
    for delta in ((0, 0, 0), (step, 0, 0), (0, step, 0), (0, 0, step)):
        defects ^= {(g.shift(apex, delta), zspecies)}
    return defects


def _pyramid_offsets(p: int) -> np.ndarray:
    """Level-p offsets: the level p-1 offsets, then their x, y and z translates by ``2**(p-1)``."""
    offsets, shifts = np.zeros((1, 3), dtype=np.int64), np.eye(4, 3, -1, dtype=np.int64)
    for level in range(p):
        offsets = (shifts[:, None] * 2**level + offsets).reshape(-1, 3)
    return offsets


def pyramid_operator(code: CodeInstance, p: int, u: Site) -> PauliOperator:
    """The recursive bit-flip operator creating a level-p pyramid from vacuum.

    Acts by X on the first qubit of ``4**p`` distinct sites; its support is a
    self-similar set of fractal dimension 2.
    """
    return pyramid_path(code, p, u).product(code)


def pyramid_path(code: CodeInstance, p: int, u: Site) -> ErrorPath:
    """Depth-first single-qubit schedule for the level-p pyramid operator.

    Sub-pyramids are built apex-first, then the x, y, z translates, each
    recursively; ``_pyramid_offsets`` lists the sites in exactly that order.
    Along the path the defect count never exceeds ``4p + 4``, and while
    ``2**p < L`` the apex cube holds a defect after every step (at
    ``2**p == L`` the far corners wrap onto the apex and cancel it at the
    two top-level completion points; see ``energy_profile`` tests).
    """
    _require_cubic(code)
    if p < 0:
        raise InputError(f"pyramid level must be non-negative, got {p}")
    if 2**p > code.geometry.L:
        raise InputError(f"level {p} pyramid does not fit on L={code.geometry.L}")
    sites = (np.asarray(u, dtype=np.int64) + _pyramid_offsets(p)) % code.geometry.L
    return ErrorPath(sites, np.zeros(len(sites), dtype=np.int64), np.full(len(sites), PAULI_CODE["X"]))


def logical_zbar(code: CodeInstance, u: Site) -> PauliOperator:
    """Plane of single-qubit phase flips on the lattice plane behind ``u``.

    Acts by Z on the first qubit of every site with x-coordinate ``u_x - 1``;
    weight L^2, commutes with every generator, and anticommutes with the
    level-n pyramid operator based at ``u`` on L = 2**n (their supports share
    exactly the one site ``u - x``).
    """
    _require_cubic(code)
    g = code.geometry
    # the sites of one x-plane are L**2 consecutive site indices
    flat = ((u[0] - 1) % g.L * g.L**2 + np.arange(g.L**2, dtype=np.int64)) * g.q
    zwords = gf2.from_indices(flat, g.n_qubits)
    return PauliOperator._adopt(g, gf2.zeros(g.n_qubits), zwords)


def verify_logical(
    code: CodeInstance,
    op: PauliOperator,
    anticommuting_witness: PauliOperator | None = None,
    syndrome: Syndrome | None = None,
) -> str:
    """Sort a Pauli into defect-creating / stabilizer / logical.

    A supplied witness that centralizes the code and anticommutes with ``op``
    certifies ``logical`` without the rank computation, which keeps the check
    cheap on lattices too large for dense solves.  A caller that already holds
    ``op``'s syndrome passes it as ``syndrome`` and ``syndrome_of`` is not
    called: the ``final_syndrome`` of a path's ``energy_profile`` from vacuum
    is the syndrome of ``path.product(code)``.
    """
    if code.syndrome_of(op) if syndrome is None else syndrome:
        return NOT_CENTRALIZING
    if anticommuting_witness is not None and not op.commutes_with(anticommuting_witness):
        return LOGICAL
    return STABILIZER if code.in_stabilizer_group(op) else LOGICAL
