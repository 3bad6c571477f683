"""Periodic cubic lattice geometry: coordinates and boxes on the torus."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable

import numpy as np

Site = tuple[int, ...]


@dataclass(frozen=True, order=True)
class QubitIndex:
    """One qubit: a lattice site plus the sub-qubit slot at that site."""

    site: Site
    sub: int = 0

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.site) + f" {self.sub}"


@dataclass(frozen=True)
class LatticeGeometry:
    """D-dimensional torus ``Z_L^D`` carrying ``q`` qubits per site."""

    D: int
    L: int
    q: int

    def __post_init__(self):
        if self.L < 2:
            raise ValueError("lattice size L must be at least 2")
        if self.D < 1 or self.q < 1:
            raise ValueError("need D >= 1 and q >= 1")

    @property
    def n_sites(self) -> int:
        return self.L**self.D

    @property
    def n_qubits(self) -> int:
        return self.q * self.n_sites

    # -- coordinates ---------------------------------------------------

    def wrap(self, site: Iterable[int]) -> Site:
        return tuple([c % self.L for c in site])

    def shift(self, site: Iterable[int], delta: Iterable[int]) -> Site:
        return tuple([(c + d) % self.L for c, d in zip(site, delta)])

    def site_index(self, site: Iterable[int]) -> int:
        idx = 0
        for c in site:
            idx = idx * self.L + (c % self.L)
        return idx

    def site_at(self, index: int) -> Site:
        return tuple(index // self.L**k % self.L for k in range(self.D - 1, -1, -1))

    def site_indices(self, sites) -> np.ndarray:
        """``site_index`` over an ``(N, D)`` coordinate array."""
        strides = self.L ** np.arange(self.D - 1, -1, -1, dtype=np.int64)
        return (np.asarray(sites, dtype=np.int64).reshape(-1, self.D) % self.L) @ strides

    def qubit_index(self, qubit: QubitIndex) -> int:
        return self.site_index(qubit.site) * self.q + qubit.sub

    def qubit_at(self, index: int) -> QubitIndex:
        return QubitIndex(self.site_at(index // self.q), index % self.q)

    # -- regions -----------------------------------------------------------

    def box_sites(self, corner: Iterable[int], size) -> list[Site]:
        """Sites of an axis-aligned box; ``size`` is an int or per-axis tuple."""
        sizes = (size,) * self.D if isinstance(size, int) else size
        return [self.wrap(s) for s in product(*[range(c, c + s) for c, s in zip(corner, sizes)])]
