"""Bit-packed linear algebra over GF(2).

Vectors are numpy ``uint64`` arrays holding 64 bits per word, little-endian
within each word (bit ``j`` lives at ``words[j >> 6]``, position ``j & 63``).
Word size is internal; callers only ever see logical bit counts.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64
# each byte value with its bits reversed: rref reads rows through it big-endian, column 0 on top
_REVERSED = np.packbits(np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1), axis=1, bitorder="little").ravel()


def n_words(nbits: int) -> int:
    return (nbits + WORD_BITS - 1) // WORD_BITS


def zeros(nbits: int) -> np.ndarray:
    return np.zeros(n_words(nbits), dtype=np.uint64)


def from_bool(bits) -> np.ndarray:
    """Pack a boolean/0-1 array into a word vector."""
    return BitMatrix.from_bool_array(np.reshape(bits, (1, -1))).words[0]


def to_bool(words: np.ndarray, nbits: int) -> np.ndarray:
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:nbits].astype(bool)


def from_indices(indices, nbits: int, parity: bool = False) -> np.ndarray:
    """Set the listed bits; with ``parity``, those listed an odd number of times."""
    words = zeros(nbits)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size:
        scatter = np.bitwise_xor if parity else np.bitwise_or
        scatter.at(words, idx >> 6, np.uint64(1) << (idx & 63).astype(np.uint64))
    return words


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


def get_bit(words: np.ndarray, j: int) -> int:
    return int((words[j >> 6] >> np.uint64(j & 63)) & np.uint64(1))


def popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


def to_int(words: np.ndarray) -> int:
    """Whole vector as a python int (hashable key; bit j of the int = bit j)."""
    return int.from_bytes(words.tobytes(), "little")


def to_ints(rows: np.ndarray, byteorder: str = "little") -> list[int]:
    """Each row of a 2-d array as a python int (``to_int`` per word row), from one byte buffer."""
    data, width = rows.tobytes(), rows.shape[1] * rows.itemsize
    return [int.from_bytes(data[i * width : (i + 1) * width], byteorder) for i in range(len(rows))]


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


def _echelon(rows: list[int]) -> tuple[dict[int, int], list[int]]:
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

    @classmethod
    def from_bool_array(cls, arr) -> "BitMatrix":
        """Pack a 2-d boolean/0-1 array, one word-row per row; every packer
        in this module goes through here."""
        nrows, ncols = np.shape(arr)
        mat = cls.zeros(nrows, ncols)
        if nrows and ncols:
            bits = np.zeros((nrows, mat.words.shape[1] * WORD_BITS), dtype=np.uint8)
            bits[:, :ncols] = arr
            mat.words = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
        return mat

    def to_bool_array(self) -> np.ndarray:
        full = np.unpackbits(self.words.view(np.uint8), axis=1, bitorder="little")
        return full[:, : self.ncols].astype(bool)

    def select_columns(self, cols) -> "BitMatrix":
        """Submatrix keeping the given columns, in the given order."""
        return BitMatrix.from_bool_array(self.to_bool_array()[:, np.asarray(cols, dtype=np.int64)])

    def transpose(self) -> "BitMatrix":
        return BitMatrix.from_bool_array(self.to_bool_array().T)

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
        data = np.frombuffer(b"".join(table[lead].to_bytes(width, "big") for lead in leads), dtype=np.uint8)
        words = _REVERSED[data].view(np.uint64).reshape(len(leads), self.words.shape[1])
        return BitMatrix(words, self.ncols), [8 * width - lead for lead in leads]


def reduce_by_rref(rref: BitMatrix, pivots: list[int] | np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Canonical residue of ``vec`` modulo the row space of an RREF basis.

    The residue is zero iff ``vec`` lies in the row space; two vectors share a
    residue iff they differ by a row-space element.  The basis is fully
    reduced (each pivot column holds a single 1), so row ``r`` enters the
    residue exactly when ``vec`` itself has bit ``pivots[r]`` set.  Callers
    reducing many vectors pass ``pivots`` as an int array to skip converting
    the list on every call.
    """
    hits = to_bool(vec, rref.ncols)[pivots]
    return vec ^ np.bitwise_xor.reduce(rref.words[hits], axis=0)


def gf2_solve(mat: BitMatrix, rhs: np.ndarray) -> np.ndarray | None:
    """Solve ``mat @ x = rhs`` over GF(2).

    Returns one solution (free variables set to zero, leftmost-pivot
    elimination, so the witness is reproducible), or None if inconsistent.
    ``rhs`` is a packed word vector over ``mat.nrows`` bits.
    """
    if len(rhs) != n_words(mat.nrows):
        raise ValueError("rhs length does not match row count")
    aug = np.column_stack([mat.to_bool_array(), to_bool(rhs, mat.nrows)])
    rref, pivots = BitMatrix.from_bool_array(aug).rref()
    # The rhs column becomes a pivot iff some row reduces to 0 = 1.
    if pivots and pivots[-1] == mat.ncols:
        return None
    return from_indices(np.asarray(pivots, dtype=np.int64)[rref.to_bool_array()[:, -1]], mat.ncols)


def nullspace(mat: BitMatrix) -> BitMatrix:
    """Basis of ``{x : mat @ x = 0}``, one packed row per basis vector."""
    rref, pivots = mat.rref()
    free_cols = np.delete(np.arange(mat.ncols), pivots)
    basis = np.zeros((len(free_cols), mat.ncols), dtype=bool)
    basis[np.arange(len(free_cols)), free_cols] = True
    basis[:, pivots] = rref.to_bool_array()[:, free_cols].T
    return BitMatrix.from_bool_array(basis)
