"""Bit-packed linear algebra over GF(2).

Vectors are numpy ``uint64`` arrays holding 64 bits per word, little-endian
within each word (bit ``j`` lives at ``words[j >> 6]``, position ``j & 63``).
Word size is internal; callers only ever see logical bit counts.  Bits stay
in words end to end: ``from_indices`` packs a vector and ``from_bits`` word rows,
``BitMatrix.columns`` is the one column gather, and ``_echelon`` the one
elimination, which ``rref``, ``nullspace``, ``gf2_solve`` and ``independent_rows`` all run.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

WORD_BITS = 64
# each byte value with its bits reversed: rref reads rows through it big-endian, column 0 on top
_REVERSED = np.packbits(np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1), axis=1, bitorder="little").ravel()


def n_words(nbits: int) -> int:
    return (nbits + WORD_BITS - 1) // WORD_BITS


def zeros(nbits: int) -> np.ndarray:
    return np.zeros(n_words(nbits), dtype=np.uint64)


def from_indices(indices, nbits: int, parity: bool = False) -> np.ndarray:
    """Set the listed bits; with ``parity``, those listed an odd number of times."""
    words = zeros(nbits)
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if idx.size:
        scatter = np.bitwise_xor if parity else np.bitwise_or
        bit = (idx & 63).view(np.uint64)  # shifted in place: one index-sized temporary, not three
        scatter.at(words, idx >> 6, np.left_shift(np.uint64(1), bit, out=bit))
    return words


def from_bits(rows, bits, nrows: int, ncols: int, parity: bool = False) -> np.ndarray:
    """``(nrows, n_words(ncols))`` word rows with bit ``bits[i]`` of row ``rows[i]``
    set (``nonzero_bits`` inverted); either may be a scalar, ``parity`` as in ``from_indices``."""
    nw = n_words(ncols)
    flat = np.asarray(rows, dtype=np.int64) * (nw * WORD_BITS)
    flat += bits
    return from_indices(flat, nrows * nw * WORD_BITS, parity).reshape(nrows, nw)


def nonzero_bits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, bit)`` of every set bit of a 2-d word array, row-major and
    ascending.  Only the nonzero words are unpacked, so sparse rows cost
    their support, not their length."""
    nz = np.flatnonzero(words)
    idx = np.flatnonzero(np.unpackbits(words.ravel()[nz].view(np.uint8), bitorder="little"))
    # bit index over the flattened array, built in place to keep the peak low
    flat = nz[idx >> 6]
    flat *= WORD_BITS
    idx &= WORD_BITS - 1
    flat += idx
    return np.divmod(flat, words.shape[1] * WORD_BITS)


def nonzero_indices(words: np.ndarray, nbits: int) -> np.ndarray:
    """Set bits of one vector in ascending order (``nonzero_bits`` of one row)."""
    idx = nonzero_bits(words.reshape(1, -1))[1]
    return idx[idx < nbits]


def get_bit(words: np.ndarray, j) -> np.ndarray:
    """Bit ``j`` of a vector as a bool; an int array ``j`` gathers a bool array."""
    j = np.asarray(j, dtype=np.int64)
    return (words[j >> 6] >> (j & 63).astype(np.uint64)) & np.uint64(1) == 1


def popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


def to_ints(rows: np.ndarray, byteorder: str = "little") -> Iterator[int]:
    """Each row of a 2-d array as a python int (bit j of the int = bit j), read
    lazily from one byte buffer: an elimination holds its table, not its input."""
    data, width = rows.tobytes(), rows.shape[1] * rows.itemsize
    return (int.from_bytes(data[i * width : (i + 1) * width], byteorder) for i in range(len(rows)))


def from_ints(rows: list[int], nwords: int, byteorder: str = "little") -> np.ndarray:
    """``(len(rows), nwords)`` word rows of python ints below ``2 ** (64 * nwords)``
    (the inverse of ``to_ints``), from one byte buffer."""
    data = bytearray(b"".join(x.to_bytes(8 * nwords, byteorder) for x in rows))
    return np.frombuffer(data, dtype=np.uint64).reshape(len(rows), nwords)


def split_halves(vecs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The low and high halves (X and Z parts) of word vectors over ``2n``
    bits, each over ``n`` bits; words run along the last axis."""
    nw, q, r = n_words(n), n >> 6, np.uint64(n & 63)
    padded = np.concatenate([vecs, np.zeros_like(vecs[..., :1])], axis=-1)
    high = padded[..., q : q + nw]
    if r:
        high = (high >> r) | (padded[..., q + 1 : q + 1 + nw] << (np.uint64(WORD_BITS) - r))
    keep = np.full(nw, ~np.uint64(0))
    keep[-1] >>= np.uint64(-n % WORD_BITS)
    return vecs[..., :nw] & keep, high & keep


def subset_xors(rows: np.ndarray) -> np.ndarray:
    """Row ``s`` is the XOR of the rows picked by the bits of ``s`` (bit ``i``
    picks ``rows[i]``), built by doubling: 2^len(rows) rows, row 0 zero."""
    out = np.zeros((1 << len(rows), *rows.shape[1:]), dtype=np.uint64)
    for i, row in enumerate(rows):
        np.bitwise_xor(out[: 1 << i], row, out=out[1 << i : 2 << i])
    return out


def _echelon(rows: Iterable[int]) -> tuple[dict[int, int], list[int]]:
    """Forward elimination of int rows: a dict from each lead (the highest set
    bit, as ``x.bit_length()``) to one row with that lead, spanning the input,
    and the indices of the input rows that got a new lead (those the rows
    before them do not span).  Reducing a row only lowers its lead, so it ends
    at a new lead or at zero."""
    table: dict[int, int] = {}
    kept: list[int] = []
    for i, x in enumerate(rows):
        while x:
            lead = x.bit_length()
            y = table.get(lead)
            if y is None:
                table[lead] = x
                kept.append(i)
                break
            x ^= y
    return table, kept


class BitMatrix:
    """Dense GF(2) matrix, one packed word-row per logical row."""

    __slots__ = ("words", "nrows", "ncols")

    def __init__(self, words: np.ndarray, ncols: int):
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise ValueError("expected a 2-d word array")
        self.words = words
        self.nrows = words.shape[0]
        self.ncols = ncols

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "BitMatrix":
        return cls(np.zeros((nrows, n_words(ncols)), dtype=np.uint64), ncols)

    def columns(self, cols) -> "BitMatrix":
        """Column gather: row ``i`` of the result is column ``cols[i]``, over
        ``nrows`` bits; columns may repeat and come in any order.  Each set
        bit is scattered once into the transpose, whose rows ``cols`` picks,
        so the cost is the matrix's support plus the result's size."""
        row, bit = nonzero_bits(self.words)
        transpose = from_bits(bit, row, self.words.shape[1] * WORD_BITS, self.nrows)
        return BitMatrix(transpose[np.asarray(cols, dtype=np.int64)], self.nrows)

    def independent_rows(self) -> list[int]:
        """Indices of the rows that the rows before them do not span, in order."""
        return _echelon(to_ints(self.words))[1]

    def rref(self) -> tuple["BitMatrix", list[int]]:
        """Reduced row-echelon form with deterministic leftmost pivoting.

        Returns the reduced matrix (zero rows dropped) and the pivot columns
        in increasing order, so repeated runs give identical output.  Each
        pivot column holds a single 1, which ``reduce_by_rref`` relies on.
        The RREF is unique, so the elimination order does not show:
        ``_echelon`` runs on python ints read with column 0 as the highest
        bit, so each lead is a row's leftmost column, and the
        back-substitution visits only the bits at pivot columns.
        """
        width = self.words.shape[1] * 8
        table, _ = _echelon(to_ints(_REVERSED[self.words.view(np.uint8)], "big"))
        # back-substitution from the rightmost pivot (lowest lead) up: a bit at
        # a lower lead is cleared by that lead's already reduced row
        done = 0
        for lead in sorted(table):
            x = table[lead]
            y = x & done
            while y:
                b = y & -y
                x ^= table[b.bit_length()]
                y ^= b
            table[lead] = x
            done |= 1 << (lead - 1)
        leads = sorted(table, reverse=True)
        data = from_ints([table[lead] for lead in leads], self.words.shape[1], "big")
        return BitMatrix(_REVERSED[data.view(np.uint8)].view(np.uint64), self.ncols), [8 * width - lead for lead in leads]


def reduce_by_rref(rref: BitMatrix, pivots: list[int] | np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Canonical residue of ``vec`` modulo the row space of an RREF basis.

    The residue is zero iff ``vec`` lies in the row space; two vectors share a
    residue iff they differ by a row-space element.  The basis is fully
    reduced (each pivot column holds a single 1), so row ``r`` enters the
    residue exactly when ``vec`` itself has bit ``pivots[r]`` set.  Callers
    reducing many vectors pass ``pivots`` as an int array to skip converting
    the list on every call.
    """
    return vec ^ np.bitwise_xor.reduce(rref.words[get_bit(vec, pivots)], axis=0)


def gf2_solve(mat: BitMatrix, rhs: np.ndarray) -> np.ndarray | None:
    """Solve ``mat @ x = rhs`` over GF(2).

    Returns one solution (free variables set to zero, leftmost-pivot
    elimination, so the witness is reproducible), or None if inconsistent.
    ``rhs`` is a packed word vector over ``mat.nrows`` bits; it joins ``mat``
    as one last column, and the RREF is unique, so that column's bits are the
    pivot variables' values.
    """
    if len(rhs) != n_words(mat.nrows):
        raise ValueError("rhs length does not match row count")
    aug = from_bits(nonzero_indices(rhs, mat.nrows), mat.ncols, mat.nrows, mat.ncols + 1)
    aug[:, : mat.words.shape[1]] |= mat.words
    rref, pivots = BitMatrix(aug, mat.ncols + 1).rref()
    # The rhs column becomes a pivot iff some row reduces to 0 = 1.
    if pivots and pivots[-1] == mat.ncols:
        return None
    # bit ncols of every reduced row: the words of the transpose run down the rows
    return from_indices(np.asarray(pivots, dtype=np.int64)[get_bit(rref.words.T, mat.ncols)], mat.ncols)


def nullspace(mat: BitMatrix) -> BitMatrix:
    """Basis of ``{x : mat @ x = 0}``, one packed row per basis vector.

    One forward elimination of the columns of ``mat``, column ``j`` carrying
    tag bit ``j`` below it: a kept row is a column combination whose tag
    bits name it, and the ``ncols - rank`` rows led by a tag have a zero
    column part, so their tags are the basis.  A column the columns before
    it span ends led by its own tag, as itself plus pivot columns before it,
    so the rows are the RREF's free-column basis, in column order.
    """
    n = mat.ncols
    table, _ = _echelon(c << n | 1 << j for j, c in enumerate(to_ints(mat.columns(np.arange(n)).words)))
    return BitMatrix(from_ints([table[lead] for lead in sorted(table) if lead <= n], n_words(n)), n)
