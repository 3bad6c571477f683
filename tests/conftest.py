import csv
import io
import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import settings

from stabscape import get_code

# Fixed examples on every checkout: no wall-clock deadline (shared machines
# stall), a derandomized search, and no example database carried between runs.
settings.register_profile("stabscape", deadline=None, derandomize=True, database=None)
settings.load_profile("stabscape")


@pytest.fixture(scope="session")
def cubic4():
    return get_code("cubic1", 4)


@pytest.fixture(scope="session")
def cubic8():
    return get_code("cubic1", 8)


@pytest.fixture(scope="session")
def toric3():
    return get_code("toric2d", 3)


@pytest.fixture(scope="session")
def toric4():
    return get_code("toric2d", 4)


@pytest.fixture(scope="session")
def rep5():
    return get_code("rep1d", 5)


# A non-CSS test-only code: every generator mixes X and Z (the XZZX surface code).
XZZX_SPEC = {"name": "xzzx", "D": 2, "q": 1,
             "species": [{"offsets": [[0, 0], [1, 0], [0, 1], [1, 1]], "labels": ["X", "Z", "Z", "X"]}]}


def spec_dict(name):
    """A shipped code spec as the JSON object it is stored as."""
    return json.loads(resources.files("stabscape.specs").joinpath(f"{name}.json").read_text())


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def _shape_store(request):
    """For a test that requests ``monkeypatch``: put the per-process store of
    ranks and box solvers (``codes._SHAPES``) back as it was, dropping every
    entry and value the test added, so a solver or rank built under a patch
    never reaches a later test.  No code holds an entry, so nothing else can
    still read a dropped value."""
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    from stabscape import codes

    before = {key: dict(entry) for key, entry in codes._SHAPES.items()}
    yield
    codes._SHAPES.clear()
    codes._SHAPES.update(before)


def random_operator(code, rng, max_terms=6):
    from stabscape.lattice import QubitIndex
    from stabscape.pauli import PauliOperator

    g = code.geometry
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        site = tuple(int(c) for c in rng.integers(0, g.L, size=g.D))
        terms.append((QubitIndex(site, int(rng.integers(0, g.q))), "XYZ"[int(rng.integers(0, 3))]))
    return PauliOperator.from_terms(g, terms)


def reference_distance(geometry, a, b):
    """Torus l-infinity distance between two sites, one axis at a time in
    Python (test oracle for ``defects._torus_distances``)."""
    return max(min((x - y) % geometry.L, (y - x) % geometry.L) for x, y in zip(a, b))


def reference_set_distance(geometry, A, B):
    """Least pairwise ``reference_distance`` between two nonempty site sets
    (test oracle for ``defects.set_distance``)."""
    return min(reference_distance(geometry, a, b) for a in A for b in B)


def pairwise_reference_partition(geometry, cubes, p, params):
    """The retired greedy loop: on every merge, the union diameter of every
    cluster pair (test oracle for ``defects.cluster_partitions``), as
    (clusters, diameters, sparse)."""
    from stabscape.defects import occupied_cubes

    xi_p, xi_p1 = params.xi(p), params.xi(p + 1)
    clusters = [(c,) for c in sorted(occupied_cubes(cubes))]
    spreads = [0] * len(clusters)
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                cross = max(reference_distance(geometry, a, b) for a in clusters[i] for b in clusters[j])
                s = max(spreads[i], spreads[j], cross)
                if 1 + s <= xi_p1:
                    key = (1 + s, clusters[i][0], clusters[j][0])
                    if best is None or key < best[0]:
                        best = (key, i, j, s)
        if best is None:
            break
        _, i, j, s = best
        merged = tuple(sorted(clusters[i] + clusters[j]))
        for idx in sorted((i, j), reverse=True):
            del clusters[idx]
            del spreads[idx]
        clusters.append(merged)
        spreads.append(s)
        order = sorted(range(len(clusters)), key=lambda t: clusters[t][0])
        clusters = [clusters[t] for t in order]
        spreads = [spreads[t] for t in order]
    diameters = tuple(1 + s for s in spreads)
    return (
        tuple(frozenset(c) for c in clusters),
        diameters,
        all(d <= xi_p for d in diameters),
    )


def retired_dense_run(geometry, cubes, params):
    """The retired per-level loop: ``cluster_partition`` at p = 0, 1, ...
    until sparse (test oracle for ``dense_runs``)."""
    from stabscape.defects import cluster_partition

    p = 0
    while not cluster_partition(geometry, cubes, p, params).sparse:
        p += 1
    return p - 1


def min_cover_interval(geometry, coords):
    """Shortest circular interval ``[start, start+length)`` covering the
    coordinates mod L: it starts after the first largest gap between the
    sorted distinct coordinates (test oracle for ``defects._footprint_boxes``)."""
    vals = sorted({c % geometry.L for c in coords})
    if not vals:
        raise ValueError("empty coordinate set")
    if len(vals) == 1:
        return vals[0], 1
    best_gap, best_i = -1, 0
    for i, v in enumerate(vals):
        gap = (vals[(i + 1) % len(vals)] - v) % geometry.L
        if gap > best_gap:
            best_gap, best_i = gap, i
    return vals[(best_i + 1) % len(vals)], geometry.L - best_gap + 1


def bounding_box(geometry, sites):
    """Minimal covering box of a site set: (corner, per-axis extents), one
    ``min_cover_interval`` per axis."""
    pts = list(sites)
    if not pts:
        raise ValueError("empty site set")
    intervals = [min_cover_interval(geometry, [p[axis] for p in pts]) for axis in range(geometry.D)]
    return tuple(start for start, _ in intervals), tuple(length for _, length in intervals)


def reference_footprint_box(geometry, cubes):
    """The retired footprint box: the bounding box of all 2^D corner sites of
    every cube (test oracle for ``defects._footprint_boxes``)."""
    return bounding_box(geometry, {s for c in cubes for s in cube_corner_sites(geometry, c)})


def reference_generator(code, cube, s):
    """The retired generator build: one ``QubitIndex`` term per non-identity
    template entry, multiplied out by ``from_terms``."""
    from stabscape.lattice import QubitIndex
    from stabscape.pauli import PauliOperator

    g = code.geometry
    terms = [(QubitIndex(g.shift(cube, offset), sub), p) for offset, label in code.spec.species[s].entries
             for sub, p in enumerate(label) if p != "I"]
    return PauliOperator.from_terms(g, terms)


def reference_stabilizer_words(code):
    """The retired stabilizer-matrix scatter: one ``np.roll`` of the site grid
    per template term, OR-ed into packed (X-part || Z-part) rows."""
    from stabscape import gf2
    from stabscape.pauli import PAULI_CODE

    g = code.geometry
    words = np.zeros((code.n_generators, gf2.n_words(2 * g.n_qubits)), dtype=np.uint64)
    grid = np.arange(g.n_sites).reshape((g.L,) * g.D)
    for s, sp in enumerate(code.spec.species):
        rows = np.arange(s, code.n_generators, code.n_species)
        for offset, label in sp.entries:
            sites = np.roll(grid, [-c for c in offset], axis=tuple(range(g.D))).ravel()
            bits = [sub + half * g.n_qubits for sub, p in enumerate(label)
                    for half in (0, 1) if PAULI_CODE[p] >> half & 1]
            for bit in bits:
                cols = sites * g.q + bit
                words[rows, cols >> 6] |= np.uint64(1) << (cols & 63).astype(np.uint64)
    return words


def reference_gram_witness(code):
    """Retired dense audit: the symplectic Gram matrix of the stabilizer
    matrix as a float32 product; its first nonzero entry in row-major order,
    as a generator pair, or None."""
    n = code.n_qubits
    bits = to_bool_array(code.stabilizer_matrix())
    gx, gz = bits[:, :n].astype(np.float32), bits[:, n:].astype(np.float32)
    bad = np.argwhere((gx @ gz.T + gz @ gx.T) % 2 != 0)
    if not bad.size:
        return None
    return code.generator_at(int(bad[0][0])), code.generator_at(int(bad[0][1]))


def neighborhood(geometry, sites, r):
    """All sites within torus distance ``r`` of the given sites."""
    width = min(2 * r + 1, geometry.L)
    return {s for site in sites for s in geometry.box_sites(tuple(c - r for c in site), width)}


def reference_achievable_subsets(solver, rows):
    """The retired subset-table walk (test oracle for
    ``_BoxSolver.achievable_subsets``): the XORed left-nullspace memberships
    of all 2^m subsets of the m rows inside the box, built by doubling for the
    first 12 rows and offset once per subset of the rest, each tested for
    zero; the achievable subsets as anchor bits, ascending."""
    from stabscape import gf2

    present = np.flatnonzero(np.asarray(rows) >= 0)
    null = solver._null[np.asarray(rows)[present]]
    low, high = gf2.subset_xors(null[:12]), null[12:]
    for h in range(1 << len(high)):
        offset = np.bitwise_xor.reduce(high[(h >> np.arange(len(high))) & 1 == 1], axis=0)
        subsets = np.flatnonzero(~(low ^ offset).any(axis=1)) + h * len(low)
        for subset in subsets[subsets > 0].tolist():
            yield sum(1 << int(a) for i, a in enumerate(present) if subset >> i & 1)


def single_paulis_anticommute(a, b):
    """Whether two single-qubit Pauli labels anticommute (I commutes with all)."""
    return a != "I" and b != "I" and a != b


def cube_corner_sites(geometry, cube):
    """The 2^D corner sites of the elementary cube named by its min corner."""
    from itertools import product

    return [geometry.shift(cube, delta) for delta in product((0, 1), repeat=geometry.D)]


def translate(op, delta):
    """The operator with its support shifted by ``delta`` (mod L on every
    axis), one ``np.roll`` of its bit grids per axis."""
    from stabscape.pauli import PauliOperator

    g = op.geometry
    shape = (g.L,) * g.D + (g.q,)
    xb = to_bool(op.xwords, g.n_qubits).reshape(shape)
    zb = to_bool(op.zwords, g.n_qubits).reshape(shape)
    for axis, d in enumerate(delta):
        xb = np.roll(xb, d % g.L, axis=axis)
        zb = np.roll(zb, d % g.L, axis=axis)
    return PauliOperator(g, from_bool(xb.reshape(-1)), from_bool(zb.reshape(-1)))


def reference_flips(code, qubit, p):
    """Generators, as (cube, species), that the single-qubit Pauli label ``p``
    at ``qubit`` flips: one walk of the spec's template entries in order."""
    g = code.geometry
    return [
        (tuple((c - o) % g.L for c, o in zip(qubit.site, offset)), s)
        for s, sp in enumerate(code.spec.species)
        for offset, label in sp.entries
        if single_paulis_anticommute(p, label[qubit.sub])
    ]


# -- test-only vocabulary: helpers no library code calls -----------------------


def path_steps(path):
    """An ``ErrorPath`` as ``(QubitIndex, label)`` steps, for tests that read
    a path one step at a time."""
    from stabscape.lattice import QubitIndex
    from stabscape.pauli import CODE_CHARS

    return tuple(
        (QubitIndex(tuple(site), sub), CODE_CHARS[p])
        for site, sub, p in zip(path.sites.tolist(), path.subs.tolist(), path.paulis.tolist())
    )


def set_bit(words, j, value=1):
    """Set bit ``j`` of a packed word vector to ``value``."""
    mask = np.uint64(1) << np.uint64(j & 63)
    if value:
        words[j >> 6] |= mask
    else:
        words[j >> 6] &= ~mask


def rank(m):
    """GF(2) rank of a ``BitMatrix``."""
    return len(m.rref()[1])


def reference_csv_bytes(header, rows):
    """A series as the retired writer wrote it: ``csv.writer`` (excel
    dialect) on the header row and then the rows, UTF-8 encoded."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


# -- bool references: the retired packers, solvers and coset key ---------------


def from_bool_array(arr):
    """Pack a 2-d boolean/0-1 array into a ``BitMatrix``, one word-row per row."""
    from stabscape.gf2 import WORD_BITS, BitMatrix

    nrows, ncols = np.shape(arr)
    mat = BitMatrix.zeros(nrows, ncols)
    if nrows and ncols:
        bits = np.zeros((nrows, mat.words.shape[1] * WORD_BITS), dtype=np.uint8)
        bits[:, :ncols] = arr
        mat.words = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
    return mat


def to_bool_array(m):
    """A ``BitMatrix`` unpacked to a 2-d bool array."""
    full = np.unpackbits(m.words.view(np.uint8), axis=1, bitorder="little")
    return full[:, : m.ncols].astype(bool)


def from_bool(bits):
    """Pack a boolean/0-1 array into a word vector."""
    return from_bool_array(np.reshape(bits, (1, -1))).words[0]


def to_bool(words, nbits):
    """The first ``nbits`` bits of a word vector as a bool array."""
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:nbits].astype(bool)


def reference_gf2_solve(mat, rhs):
    """The retired bool solve: RREF of ``[mat | rhs]`` unpacked to bools, the
    free variables zero (test oracle for ``gf2.gf2_solve``)."""
    from stabscape import gf2

    aug = np.column_stack([to_bool_array(mat), to_bool(rhs, mat.nrows)])
    rref, pivots = from_bool_array(aug).rref()
    if pivots and pivots[-1] == mat.ncols:
        return None
    return gf2.from_indices(np.asarray(pivots, dtype=np.int64)[to_bool_array(rref)[:, -1]], mat.ncols)


def reference_nullspace(mat):
    """The retired bool nullspace: one basis row per free column of the RREF,
    in column order (test oracle for ``gf2.nullspace``)."""
    rref, pivots = mat.rref()
    free_cols = np.delete(np.arange(mat.ncols), pivots)
    basis = np.zeros((len(free_cols), mat.ncols), dtype=bool)
    basis[np.arange(len(free_cols)), free_cols] = True
    basis[:, pivots] = to_bool_array(rref)[:, free_cols].T
    return from_bool_array(basis)


def reference_syndrome_matrix(code):
    """The syndrome map as a matrix: ``stabilizer_matrix()`` with its X and Z
    halves swapped, so row ``a`` dotted with an (X||Z) error vector is the
    flip of generator ``a`` (the symplectic pairing)."""
    return from_bool_array(np.roll(to_bool_array(code.stabilizer_matrix()), code.n_qubits, axis=1))


def reference_reachable(code, words):
    """Whether some Pauli has the syndrome ``words``: ``gf2_solve`` on the
    syndrome map (``reference_syndrome_matrix``) has a solution."""
    from stabscape import gf2

    return gf2.gf2_solve(reference_syndrome_matrix(code), words) is not None


def reference_classical(code):
    """``(every generator pure Z, every generator pure X)``, read off the
    stabilizer matrix's bits."""
    bits = to_bool_array(code.stabilizer_matrix())
    n = code.n_qubits
    return not bits[:, :n].any(), not bits[:, n:].any()


def reference_logical_basis(code):
    """The retired ``CodeInstance.logical_basis``, over ``reference_nullspace``
    of ``reference_syndrome_matrix``: the centralizer rows independent of the
    stabilizer RREF stacked above them."""
    from stabscape.gf2 import BitMatrix

    rref, _ = code.stabilizer_rref()
    centralizer = reference_nullspace(reference_syndrome_matrix(code))
    kept = np.asarray(BitMatrix(np.vstack([rref.words, centralizer.words]), 2 * code.n_qubits)
                      .independent_rows(), dtype=np.int64)
    return centralizer.words[kept[kept >= rref.nrows] - rref.nrows]


def to_int(words):
    """Whole vector as a python int (hashable key; bit j of the int = bit j)."""
    return int.from_bytes(words.tobytes(), "little")


def canonicalize(code, op):
    """Canonical coset key, the residue modulo the stabilizer RREF: equal for
    two Paulis iff their product is a stabilizer; the identity coset maps to 0."""
    from stabscape import gf2

    return to_int(gf2.reduce_by_rref(*code.stabilizer_rref(), op.symplectic()))


def parities_with(m, vec):
    """Row-wise inner products of a ``BitMatrix`` with ``vec``, mod 2 (uint8 array)."""
    return (np.bitwise_count(m.words & vec).sum(axis=1) & 1).astype(np.uint8)


def cluster_diameter(geometry, cubes):
    """Diameter of a nonempty cube set: 1 + max pairwise torus distance."""
    from stabscape.defects import _torus_distances

    return 1 + int(_torus_distances(geometry, list(cubes)).max())


def reference_aspect_ratio(geometry, box1, box2):
    """The retired set-based aspect ratio (test oracle for the closed form of
    ``defects._aspect_ratios``): the diameter of the union of both
    boxes' cube sets over the anchor size."""
    return cluster_diameter(geometry, set(box1.cubes(geometry)) | set(box2.cubes(geometry))) / box1.size


def support(op):
    """The qubits an operator acts on, as ``QubitIndex`` values."""
    g = op.geometry
    return tuple(g.qubit_at(int(i)) for i in op.support_indices())


def reference_support_sites(op):
    """Sites of an operator's support: one ``site_at`` per support qubit."""
    g = op.geometry
    return {g.site_at(int(i) // g.q) for i in op.support_indices()}


def reference_restricted_matrix(code, sites):
    """The retired restricted syndrome matrix of a site region, one template
    entry at a time: (dense uint8 matrix, sorted qubit columns, sorted
    generator rows).  Columns are the X parts of the region's qubits, then
    their Z parts; rows are every species on every cube whose elementary cube
    holds a region site (the site shifted by 0 or -1 on each axis)."""
    from itertools import product

    g = code.geometry
    site_list = sorted(set(sites))
    qubits = sorted(g.site_index(s) * g.q + sub for s in site_list for sub in range(g.q))
    col_of = {q: i for i, q in enumerate(qubits)}
    nq = len(qubits)
    site_set = set(site_list)
    cubes = {g.shift(site, delta) for site in site_list for delta in product((0, -1), repeat=g.D)}
    gen_rows = sorted(code.generator_index(c, s) for c in cubes for s in range(code.n_species))
    dense = np.zeros((len(gen_rows), 2 * nq), dtype=np.uint8)
    for r, gi in enumerate(gen_rows):
        cube, s = code.generator_at(gi)
        for offset, label in code.spec.species[s].entries:
            site = g.shift(cube, offset)
            if site not in site_set:
                continue
            base = g.site_index(site) * g.q
            for sub, p in enumerate(label):
                if p in "ZY":
                    dense[r, col_of[base + sub]] ^= 1
                if p in "XY":
                    dense[r, col_of[base + sub] + nq] ^= 1
    return dense, qubits, gen_rows


def reference_lift(geometry, qubits, x):
    """Bit-by-bit lift of a local (X || Z) solution over the given qubit
    columns to a full-lattice operator."""
    from stabscape import gf2
    from stabscape.pauli import PauliOperator

    n, nq = geometry.n_qubits, len(qubits)
    full = gf2.zeros(2 * n)
    for local in gf2.nonzero_indices(x, 2 * nq):
        local = int(local)
        set_bit(full, qubits[local] if local < nq else qubits[local - nq] + n, 1)
    return PauliOperator.from_symplectic(geometry, full)
