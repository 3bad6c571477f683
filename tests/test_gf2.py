"""Packed GF(2) kernel tests: every solve is re-verified by multiplication."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabscape import gf2
from stabscape.gf2 import BitMatrix

from conftest import (
    from_bool,
    from_bool_array,
    parities_with,
    rank,
    reference_gf2_solve,
    reference_nullspace,
    set_bit,
    to_bool,
    to_bool_array,
    to_int,
)


def random_matrix(rng, nrows, ncols, density=0.4):
    return from_bool_array(rng.random((nrows, ncols)) < density)


# -- test-only references: the sequential routines the library replaced ------


def reference_reduce(rref, pivots, vec):
    """Pivot-by-pivot reduction against the running residue."""
    out = vec.copy()
    for r, col in enumerate(pivots):
        if gf2.get_bit(out, col):
            out ^= rref.words[r]
    return out


def reference_solve(mat, rhs_bits):
    """Gaussian elimination carrying the rhs alongside the matrix rows."""
    b = np.asarray(rhs_bits, dtype=np.uint8) & 1
    work = mat.words.copy()
    pivots = []
    r = 0
    for col in range(mat.ncols):
        if r == mat.nrows:
            break
        w, s = col >> 6, np.uint64(col & 63)
        hits = np.nonzero((work[r:, w] >> s) & np.uint64(1))[0]
        if hits.size == 0:
            continue
        pr = r + int(hits[0])
        if pr != r:
            work[[r, pr]] = work[[pr, r]]
            b[[r, pr]] = b[[pr, r]]
        mask = ((work[:, w] >> s) & np.uint64(1)).astype(bool)
        mask[r] = False
        work[mask] ^= work[r]
        if b[r]:
            b[mask] ^= 1
        pivots.append((r, col))
        r += 1
    if b[r:].any():
        return None
    x = gf2.zeros(mat.ncols)
    for row, col in pivots:
        if b[row]:
            set_bit(x, col, 1)
    return x


def reference_rref(mat):
    """Leftmost-pivot elimination one column at a time, full-height row ops."""
    work = mat.words.copy()
    pivots = []
    r = 0
    for col in range(mat.ncols):
        if r == mat.nrows:
            break
        w, b = col >> 6, np.uint64(col & 63)
        hits = np.nonzero((work[r:, w] >> b) & np.uint64(1))[0]
        if hits.size == 0:
            continue
        pr = r + int(hits[0])
        if pr != r:
            work[[r, pr]] = work[[pr, r]]
        mask = ((work[:, w] >> b) & np.uint64(1)).astype(bool)
        mask[r] = False
        work[mask] ^= work[r]
        pivots.append(col)
        r += 1
    return work[: len(pivots)], pivots


def reference_independent_rows(mat):
    """Greedy: a row is kept when it raises the rank of the rows before it."""
    kept, rank = [], 0
    for i in range(mat.nrows):
        r = len(reference_rref(BitMatrix(mat.words[: i + 1], mat.ncols))[1])
        if r > rank:
            kept.append(i)
            rank = r
    return kept


@st.composite
def matrices(draw, max_rows=12, max_cols=140):
    """Small dense GF(2) matrices; column counts cross the 64-bit word edge."""
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(1, max_cols))
    density = draw(st.sampled_from([0.05, 0.3, 0.5]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return from_bool_array(rng.random((nrows, ncols)) < density), rng


def test_pack_unpack_roundtrip(rng):
    for nbits in (1, 7, 63, 64, 65, 200):
        bits = rng.random(nbits) < 0.5
        words = from_bool(bits)
        assert np.array_equal(to_bool(words, nbits), bits)
        assert gf2.popcount(words) == int(bits.sum())


def test_int_roundtrip(rng):
    bits = rng.random(130) < 0.5
    value = to_int(from_bool(bits))
    assert value < 1 << 130
    assert [bool(value >> j & 1) for j in range(130)] == bits.tolist()


@pytest.mark.parametrize("nwords", [0, 1, 4])
@pytest.mark.parametrize("nrows", [0, 1, 5])
def test_to_ints_match_per_row_to_int(rng, nrows, nwords):
    """One buffer read against ``to_int`` per row, including rows of 0 words."""
    words = rng.integers(0, 2**64, size=(nrows, nwords), dtype=np.uint64)
    assert list(gf2.to_ints(words)) == [to_int(row) for row in words]
    big = words.view(np.uint8)
    assert list(gf2.to_ints(big, "big")) == [int.from_bytes(row.tobytes(), "big") for row in big]


@given(nrows=st.integers(0, 8), width=st.sampled_from([0, 1, 3]), seed=st.integers(0, 2**32 - 1))
def test_subset_xors_match_per_subset_xor(nrows, width, seed):
    """The doubling table against one XOR per subset; width 0 is a 1-D row list."""
    shape = (nrows, width) if width else (nrows,)
    rows = np.random.default_rng(seed).integers(0, 2**64, size=shape, dtype=np.uint64)
    table = gf2.subset_xors(rows)
    assert table.shape == (1 << nrows, *shape[1:]) and table.dtype == np.uint64
    for s in range(1 << nrows):
        expected = np.zeros(shape[1:], dtype=np.uint64)
        for i in range(nrows):
            if s >> i & 1:
                expected ^= rows[i]
        assert np.array_equal(table[s], expected)


def test_split_halves_match_bool_split(rng):
    """Word shifts against unpacking 2n bits and repacking each half, across
    the word edge (n = 64, 128) and past it, for one vector and for rows."""
    for n in range(1, 201):
        bits = rng.random((3, 2 * n)) < 0.5
        rows = from_bool_array(bits).words
        x, z = gf2.split_halves(rows, n)
        assert np.array_equal(x, from_bool_array(bits[:, :n]).words)
        assert np.array_equal(z, from_bool_array(bits[:, n:]).words)
        x1, z1 = gf2.split_halves(rows[1], n)
        assert np.array_equal(x1, x[1]) and np.array_equal(z1, z[1])


def test_from_indices():
    words = gf2.from_indices([0, 5, 64, 127], 128)
    assert sorted(gf2.nonzero_indices(words, 128)) == [0, 5, 64, 127]


@settings(max_examples=300)
@given(nrows=st.integers(0, 6), ncols=st.sampled_from([1, 63, 64, 65, 128]), parity=st.booleans(), data=st.data())
def test_from_bits_matches_per_row_from_indices(nrows, ncols, parity, data):
    """``from_bits`` is a stack of one ``from_indices`` per row, repeated
    pairs included, also with a scalar row or bit, and ``nonzero_bits`` reads
    back the distinct (with ``parity``, the odd-count) pairs row-major."""
    pair = st.tuples(st.integers(0, max(nrows - 1, 0)), st.integers(0, ncols - 1))
    pairs = data.draw(st.lists(pair, max_size=40 if nrows else 0), label="pairs")
    rows = np.array([r for r, _ in pairs], dtype=np.int64)
    bits = np.array([b for _, b in pairs], dtype=np.int64)

    def stack(rows, bits):
        rows, bits = np.broadcast_arrays(rows, bits)
        return np.array([gf2.from_indices(bits[rows == r], ncols, parity) for r in range(nrows)],
                        dtype=np.uint64).reshape(nrows, gf2.n_words(ncols))

    words = gf2.from_bits(rows, bits, nrows, ncols, parity)
    assert words.dtype == np.uint64 and np.array_equal(words, stack(rows, bits))
    counts = {p: pairs.count(p) for p in pairs}
    want = sorted(p for p, c in counts.items() if c % 2 or not parity)
    assert list(zip(*(a.tolist() for a in gf2.nonzero_bits(words)))) == want
    if nrows:
        row, bit = data.draw(pair, label="scalar row and bit")
        assert np.array_equal(gf2.from_bits(row, bits, nrows, ncols, parity), stack(row, bits))
        assert np.array_equal(gf2.from_bits(rows, bit, nrows, ncols, parity), stack(rows, bit))
        assert np.array_equal(gf2.from_bits(row, bit, nrows, ncols, parity), stack(row, bit))


def test_solve_identity():
    eye = from_bool_array(np.eye(9, dtype=np.uint8))
    b = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
    x = gf2.gf2_solve(eye, from_bool(b))
    assert np.array_equal(to_bool(x, 9).astype(np.uint8), b)


def test_solve_zero_matrix_inconsistent():
    zero = BitMatrix.zeros(4, 6)
    assert gf2.gf2_solve(zero, from_bool([0, 1, 0, 0])) is None
    x = gf2.gf2_solve(zero, gf2.zeros(4))
    assert x is not None and not x.any()


def test_solve_rejects_rhs_of_wrong_length():
    m = BitMatrix.zeros(70, 3)
    for rhs in (gf2.zeros(64), gf2.zeros(129), np.zeros(70, dtype=np.uint8)):
        with pytest.raises(ValueError, match="rhs length"):
            gf2.gf2_solve(m, rhs)


def test_solve_reverified_by_multiplication(rng):
    solved = 0
    for _ in range(300):
        m = random_matrix(rng, int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        b = (rng.random(m.nrows) < 0.5).astype(np.uint8)
        x = gf2.gf2_solve(m, from_bool(b))
        if x is None:
            # Inconsistency must be real: check against bool-domain lstsq
            # by exhaustive search on small systems.
            if m.ncols <= 8:
                bools = to_bool_array(m)
                for cand in range(1 << m.ncols):
                    vec = np.array([(cand >> i) & 1 for i in range(m.ncols)], dtype=np.uint8)
                    assert not np.array_equal(bools @ vec % 2, b)
            continue
        solved += 1
        assert np.array_equal(parities_with(m, x), b)
    assert solved > 50


def test_solve_deterministic(rng):
    m = random_matrix(rng, 10, 14)
    b = from_bool(rng.random(10) < 0.5)
    x1, x2 = gf2.gf2_solve(m, b), gf2.gf2_solve(m, b)
    if x1 is None:
        assert x2 is None
    else:
        assert np.array_equal(x1, x2)


def test_rref_idempotent_and_rank(rng):
    m = random_matrix(rng, 8, 12)
    r1, p1 = m.rref()
    r2, p2 = r1.rref()
    assert p1 == p2
    assert np.array_equal(r1.words, r2.words)
    assert rank(m) == len(p1) <= min(8, 12)


def test_in_span_iff_transposed_solve(rng):
    for _ in range(100):
        basis = random_matrix(rng, int(rng.integers(1, 8)), 10)
        v = from_bool((rng.random(10) < 0.5).astype(np.uint8))
        lhs = not gf2.reduce_by_rref(*basis.rref(), v).any()
        rhs = gf2.gf2_solve(basis.columns(range(basis.ncols)), v) is not None
        assert lhs == rhs


def test_in_span_basics(rng):
    basis = random_matrix(rng, 5, 9)
    rref, pivots = basis.rref()
    assert not gf2.reduce_by_rref(rref, pivots, gf2.zeros(9)).any()
    for i in range(basis.nrows):
        assert not gf2.reduce_by_rref(rref, pivots, basis.words[i]).any()


def test_nullspace_annihilates(rng):
    for _ in range(50):
        m = random_matrix(rng, int(rng.integers(1, 10)), int(rng.integers(1, 10)))
        ns = gf2.nullspace(m)
        assert ns.nrows == m.ncols - rank(m)
        for i in range(ns.nrows):
            assert not parities_with(m, ns.words[i]).any()
    # basis rows are independent
    if ns.nrows:
        assert rank(ns) == ns.nrows


def test_reduce_by_rref_canonical(rng):
    m = random_matrix(rng, 6, 10)
    rref, pivots = m.rref()
    v = from_bool((rng.random(10) < 0.5).astype(np.uint8))
    red = gf2.reduce_by_rref(rref, pivots, v)
    # residue of (v + row) matches residue of v
    for i in range(m.nrows):
        red2 = gf2.reduce_by_rref(rref, pivots, v ^ m.words[i])
        assert np.array_equal(red, red2)
    assert not gf2.reduce_by_rref(rref, pivots, v ^ red).any()


def test_columns_gather_and_transpose(rng):
    """``columns`` against the bool gather: selected columns across the word
    edge, a full transpose, and 0-row, 0-column, empty and repeated cases."""
    m = random_matrix(rng, 7, 130)
    bools = to_bool_array(m)
    cols = [0, 3, 63, 64, 65, 129]
    assert np.array_equal(to_bool_array(m.columns(cols)), bools[:, cols].T)
    assert np.array_equal(to_bool_array(m.columns(range(130))), bools.T)
    for shape, cols in (((0, 5), [1, 3]), ((5, 0), []), ((4, 70), []), ((3, 64), [63, 0, 63])):
        m = random_matrix(rng, *shape)
        got = m.columns(cols)
        assert (got.nrows, got.ncols) == (len(cols), shape[0])
        assert np.array_equal(to_bool_array(got), to_bool_array(m)[:, cols].T)


@settings(max_examples=200)
@given(
    nrows=st.sampled_from([0, 1, 5, 63, 64, 65, 130]),
    ncols=st.sampled_from([1, 63, 64, 65, 130]),
    density=st.sampled_from([0.05, 0.5, 0.95]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_columns_match_bool_gather(nrows, ncols, density, seed, data):
    """Row i of ``columns(cols)`` is column ``cols[i]``, for empty, repeated
    and unordered column lists on shapes that cross the word edge both ways."""
    bools = np.random.default_rng(seed).random((nrows, ncols)) < density
    cols = data.draw(st.lists(st.integers(0, ncols - 1), max_size=2 * ncols + 2), label="cols")
    got = from_bool_array(bools).columns(cols)
    assert (got.nrows, got.ncols, got.words.shape) == (len(cols), nrows, (len(cols), gf2.n_words(nrows)))
    assert np.array_equal(to_bool_array(got), bools[:, cols].T)
    assert gf2.popcount(got.words) == int(bools[:, cols].sum())  # no bit past nrows


@settings(max_examples=200)
@given(matrices())
def test_reduce_by_rref_matches_sequential_reference(case):
    m, rng = case
    rref, pivots = m.rref()
    for _ in range(4):
        v = from_bool(rng.random(m.ncols) < 0.5)
        assert np.array_equal(gf2.reduce_by_rref(rref, pivots, v), reference_reduce(rref, pivots, v))
    combo = gf2.zeros(m.ncols)
    for i in range(m.nrows):
        if rng.random() < 0.5:
            combo ^= m.words[i]
    assert not gf2.reduce_by_rref(rref, pivots, combo).any()


@settings(max_examples=200)
@given(matrices())
def test_gf2_solve_bit_identical_to_reference(case):
    m, rng = case
    random_rhs = (rng.random(m.nrows) < 0.5).astype(np.uint8)
    image_rhs = parities_with(m, from_bool(rng.random(m.ncols) < 0.5))  # always consistent
    for b in (random_rhs, image_rhs):
        got = gf2.gf2_solve(m, from_bool(b))
        want = reference_solve(m, b)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got, want)
            assert np.array_equal(parities_with(m, got), b)


@settings(max_examples=300)
@given(matrices(max_rows=40, max_cols=140))
def test_gf2_solve_matches_bool_reference(case):
    """The same vector as the retired bool solve, and None exactly when it
    returns None, for random and consistent right-hand sides."""
    m, rng = case
    for bits in (rng.random(m.nrows) < 0.5, parities_with(m, from_bool(rng.random(m.ncols) < 0.5))):
        got, want = gf2.gf2_solve(m, from_bool(bits)), reference_gf2_solve(m, from_bool(bits))
        assert (got is None) == (want is None)
        assert got is None or np.array_equal(got, want)


@st.composite
def elimination_inputs(draw):
    """Matrices with 0 rows or 0 columns, widths on and across the word edge,
    repeated rows and sparse to dense fills."""
    nrows = draw(st.integers(0, 40))
    ncols = draw(st.sampled_from([0, 1, 63, 64, 65, 128, 130]) | st.integers(0, 200))
    density = draw(st.sampled_from([0.01, 0.05, 0.3, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.random((nrows, ncols)) < density
    if nrows > 1 and draw(st.booleans()):
        bits[rng.integers(0, nrows, size=nrows // 2)] = bits[rng.integers(0, nrows, size=nrows // 2)]
    return from_bool_array(bits)


@settings(max_examples=300)
@given(elimination_inputs())
def test_rref_matches_column_loop(m):
    reduced, pivots = m.rref()
    want, want_pivots = reference_rref(m)
    assert pivots == want_pivots
    assert reduced.words.shape == want.shape and reduced.ncols == m.ncols
    assert np.array_equal(reduced.words, want)
    assert reduced.words.flags.writeable
    reduced.words[...] = 0  # the caller owns the words: the input is untouched
    assert np.array_equal(m.rref()[0].words, want)


@settings(max_examples=150)
@given(elimination_inputs())
def test_independent_rows_match_greedy_reference(m):
    kept = m.independent_rows()
    assert kept == reference_independent_rows(m)
    assert len(kept) == rank(m)


@pytest.mark.parametrize("ncols", [0, 1, 63, 64, 65, 128])
def test_elimination_at_word_edges_with_zero_and_repeated_rows(rng, ncols):
    """``rref`` and ``independent_rows`` against the column loop and the
    greedy reference, on and across the word edge, with zero rows, repeated
    rows and a row that is the sum of two earlier ones."""
    bits = rng.random((12, ncols)) < 0.4
    bits[[0, 5]] = False
    bits[[3, 8]] = bits[[2, 2]]
    bits[10] = bits[1] ^ bits[4]
    for m in (from_bool_array(bits), from_bool_array(bits[:0]), BitMatrix.zeros(3, ncols)):
        reduced, pivots = m.rref()
        want, want_pivots = reference_rref(m)
        assert pivots == want_pivots and np.array_equal(reduced.words, want) and reduced.ncols == ncols
        assert m.independent_rows() == reference_independent_rows(m)


@settings(max_examples=100)
@given(elimination_inputs())
def test_nonzero_bits_match_bool_unpack(m):
    rows, bits = gf2.nonzero_bits(m.words)
    want_rows, want_bits = np.nonzero(to_bool_array(m))
    assert np.array_equal(rows, want_rows) and np.array_equal(bits, want_bits)
    for i in range(m.nrows):
        assert np.array_equal(gf2.nonzero_indices(m.words[i], m.ncols), want_bits[want_rows == i])


@settings(max_examples=300)
@given(elimination_inputs())
def test_nullspace_annihilates_with_full_rank(m):
    """``mat @ basis = 0``, ``ncols - rank(mat)`` independent rows, and the
    rows of the retired bool nullspace, one per free column in order."""
    basis = gf2.nullspace(m)
    assert (basis.ncols, basis.nrows) == (m.ncols, m.ncols - rank(m)) and rank(basis) == basis.nrows
    for row in basis.words:
        assert not parities_with(m, row).any()
    assert np.array_equal(basis.words, reference_nullspace(m).words)
