"""CLI behavior: exit codes, config resolution, report determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stabscape
from conftest import reference_csv_bytes, reference_footprint_box, to_bool_array
from stabscape.cli import (
    DEFAULTS,
    OPTIONS,
    SHARED_OPTIONS,
    SUBCOMMANDS,
    _ints,
    _parse_target,
    build_parser,
    main,
    parse_operator,
)
from stabscape.codes import CodeInstance, InputError, get_code, registered_spec, registry_names
from stabscape.gf2 import BitMatrix
from stabscape.reports import _csv_bytes, config_hash


def run(tmp_path, *args):
    return main(list(args) + ["--out", str(tmp_path)])


def report_bytes(tmp_path, sub):
    runs = sorted(tmp_path.glob(f"{sub}-*/report.json"))
    assert runs, f"no report for {sub}"
    return runs[-1].read_bytes()


def test_usage_error_exit_code(tmp_path):
    assert main(["nonsense"]) == 2
    assert run(tmp_path, "syndrome", "--code", "cubic1", "--L", "4") == 2  # missing --op


def test_syndrome_inline_operator(tmp_path):
    code = run(tmp_path, "syndrome", "--code", "cubic1", "--L", "4", "--op", "XI@1,2,3")
    assert code == 0
    report = json.loads(report_bytes(tmp_path, "syndrome"))
    (check,) = report["checks"]
    assert check["measured"]["defect_count"]["value"] == 4
    csv_text = next(tmp_path.glob("syndrome-*/defects.csv")).read_text()
    assert csv_text.count("z") == 4


def test_pyramid_subcommand(tmp_path):
    assert run(tmp_path, "pyramid", "--code", "cubic1", "--L", "16", "--p", "3") == 0
    report = json.loads(report_bytes(tmp_path, "pyramid"))
    names = {c["name"]: c["status"] for c in report["checks"]}
    assert names["barrier_within_bound"] == "pass"
    assert names["apex_defect_after_every_step"] == "pass"
    profile = next(tmp_path.glob("pyramid-*/profile.csv")).read_text().splitlines()
    assert profile[0] == "t,defect_count"
    assert len(profile) == 64 + 2  # header + T+1 rows


def test_barrier_all_x_on_rep(tmp_path):
    assert run(tmp_path, "barrier", "--code", "rep1d", "--L", "4", "--target", "all-x") == 0
    report = json.loads(report_bytes(tmp_path, "barrier"))
    (check,) = report["checks"]
    assert check["measured"]["omega"]["value"] == 2
    assert check["measured"]["omega"]["provenance"] == "oracle"


def test_barrier_budget_indeterminate_exit(tmp_path):
    code = run(
        tmp_path, "barrier", "--code", "rep1d", "--L", "4",
        "--target", "all-x", "--omega-max", "1",
    )
    assert code == 3


@pytest.mark.parametrize("L, p, check", [(16, 2, "apex_defect_after_every_step"), (8, 3, "closes_to_logical")])
def test_pyramid_job_walks_its_path_once(tmp_path, monkeypatch, L, p, check):
    """The profile is the one walk: the apex check reads one generator's
    terms, and the wrapping job's logical check reads the profile's final
    syndrome, so neither takes a second walk through ``syndrome_of``."""
    def forbidden(self, op):
        raise AssertionError("syndrome_of called")

    walks = []
    walk_events = stabscape.paths.walk_events
    monkeypatch.setattr(stabscape.paths, "walk_events", lambda *a, **k: walks.append(a) or walk_events(*a, **k))
    monkeypatch.setattr(CodeInstance, "syndrome_of", forbidden)
    assert run(tmp_path, "pyramid", "--code", "cubic1", "--L", str(L), "--p", str(p)) == 0
    assert len(walks) == 1
    report = json.loads(report_bytes(tmp_path, "pyramid"))
    assert [c["status"] for c in report["checks"] if c["name"] == check] == ["pass"]


@pytest.mark.parametrize("repeat", [False, True])
def test_product_identity_fails_on_a_repeated_step(tmp_path, monkeypatch, repeat):
    """The pyramid's 4^p X steps hit distinct qubits, so the product has
    one X per step and no Z part; a path that repeats a step cancels a
    qubit and fails the check."""
    pyramid_path = stabscape.cli.pyramid_path

    def path_with_repeat(code, p, u):
        path = pyramid_path(code, p, u)
        keep = np.arange(len(path) + 1) % len(path) if repeat else np.arange(len(path))
        return stabscape.paths.ErrorPath(path.sites[keep], path.subs[keep], path.paulis[keep])

    monkeypatch.setattr(stabscape.cli, "pyramid_path", path_with_repeat)
    assert run(tmp_path, "pyramid", "--code", "cubic1", "--L", "16", "--p", "2") == (1 if repeat else 0)
    report = json.loads(report_bytes(tmp_path, "pyramid"))
    assert [c["status"] for c in report["checks"] if c["name"] == "product_identity"] == ["fail" if repeat else "pass"]


def test_barrier_pyramid_target(tmp_path):
    assert run(tmp_path, "barrier", "--code", "cubic1", "--L", "2", "--target", "pyramid:1") == 0
    report = json.loads(report_bytes(tmp_path, "barrier"))
    assert report["checks"][0]["measured"]["omega"]["value"] == 4


def test_format_selection(tmp_path):
    out_json = tmp_path / "j"
    assert main(["syndrome", "--code", "cubic1", "--L", "4", "--op", "XI@0,0,0",
                 "--format", "json", "--out", str(out_json)]) == 0
    files = {p.name for p in out_json.glob("*/*")}
    assert "report.json" in files and "defects.csv" not in files
    out_csv = tmp_path / "c"
    assert main(["syndrome", "--code", "cubic1", "--L", "4", "--op", "XI@0,0,0",
                 "--format", "csv", "--out", str(out_csv)]) == 0
    files = {p.name for p in out_csv.glob("*/*")}
    assert "defects.csv" in files and "report.json" not in files


def test_distance_subcommand(tmp_path):
    assert run(tmp_path, "distance", "--code", "toric2d", "--L", "3") == 0
    report = json.loads(report_bytes(tmp_path, "distance"))
    assert report["checks"][0]["measured"]["d"]["value"] == 3


def test_rg_subcommand(tmp_path):
    assert run(tmp_path, "rg", "--code", "cubic1", "--L", "8", "--p", "3") == 0
    report = json.loads(report_bytes(tmp_path, "rg"))
    names = {c["name"]: c["status"] for c in report["checks"]}
    assert names == {"level_nesting": "pass", "retained_defect_floor": "pass"}


def test_fractal_subcommand(tmp_path):
    assert run(tmp_path, "fractal", "--code", "cubic1", "--L", "16", "--p", "4") == 0
    report = json.loads(report_bytes(tmp_path, "fractal"))
    gamma = report["checks"][0]["measured"]["gamma"]["value"]
    assert abs(gamma - 2.0) <= 0.1


def test_strings_subcommand(tmp_path):
    assert run(tmp_path, "strings", "--code", "toric2d", "--L", "6", "--alpha", "3", "--ltqo", "3") == 0
    report = json.loads(report_bytes(tmp_path, "strings"))
    assert report["checks"][0]["measured"]["nontrivial_found"]["value"] > 0


@pytest.mark.parametrize("argv,pairs,patterns", [
    (["--code", "cubic1", "--L", "4", "--rho", "2", "--ltqo", "3", "--alpha", "1"], 7, 448),
    (["--code", "toric2d", "--L", "6", "--alpha", "3", "--max-pairs", "1"], 1, 3),
    (["--code", "toric2d", "--L", "6", "--alpha", "3", "--max-patterns", "1"], 7, 7),
])
def test_scan_budgets_end_as_indeterminate(tmp_path, argv, pairs, patterns):
    """Each scan budget ends the scan with exit 3; the first case has up to
    32 anchor rows per support box, so it ends only if the walk costs the
    achievable patterns and not every subset of the rows."""
    assert run(tmp_path, "strings", *argv) == 3
    measured = json.loads(report_bytes(tmp_path, "strings"))["checks"][0]["measured"]
    assert (measured["pairs_scanned"]["value"], measured["patterns_tested"]["value"]) == (pairs, patterns)


@pytest.mark.parametrize("argv", [
    ["--alpha", "1", "--rho", "4"],
    ["--alpha", "1", "--rho", "10"],
    [],  # the default alpha of 15
])
def test_scan_with_no_anchor_pair_is_indeterminate(tmp_path, argv):
    """A scan that tests no anchor pair has shown nothing, so it is not a pass."""
    assert run(tmp_path, "strings", "--code", "toric2d", "--L", "4", *argv) == 3
    (check,) = json.loads(report_bytes(tmp_path, "strings"))["checks"]
    assert check["status"] == "indeterminate" and check["measured"]["pairs_scanned"]["value"] == 0
    assert check["notes"].startswith("no anchor pair of size")


def test_check_subcommand(tmp_path):
    assert run(tmp_path, "check", "--code", "cubic1", "--L", "4") == 0
    report = json.loads(report_bytes(tmp_path, "check"))
    assert report["status"] == "pass"
    names = [c["name"] for c in report["checks"]]
    assert "pairwise_commutation" in names and "bitflip_defect_pattern" in names


def test_check_audits_every_pair_above_the_dense_limit(tmp_path):
    """cubic1 L=14 has 5,488 qubits, past the 4096 dense limit: the audit
    still covers every generator pair, and rank and k go unreported."""
    assert run(tmp_path, "check", "--code", "cubic1", "--L", "14") == 0
    report = json.loads(report_bytes(tmp_path, "check"))
    assert report["status"] == "pass"
    checks = {c["name"]: c for c in report["checks"]}
    audit = checks["pairwise_commutation"]
    assert audit["notes"] == "exhaustive"
    assert audit["measured"]["generators"]["value"] == 2 * 14**3
    assert audit["measured"]["rank"]["value"] is None and audit["measured"]["k"]["value"] is None


def test_check_runs_the_commutation_audit_once(tmp_path, monkeypatch):
    """``build_code`` and ``check_frustration_free`` each run the origin-cube
    audit once, and the generator-syndrome check reads the second verdict."""
    import stabscape.codes as codes

    calls = []
    audit = codes.commutation_witness

    def counted(code):
        calls.append(code)
        return audit(code)

    monkeypatch.setattr(codes, "commutation_witness", counted)
    assert run(tmp_path, "check", "--code", "cubic1", "--L", "8") == 0
    assert len(calls) == 2 and calls[0] is calls[1]
    names = {c["name"]: c["status"] for c in json.loads(report_bytes(tmp_path, "check"))["checks"]}
    assert names["pairwise_commutation"] == names["generator_syndromes_empty"] == "pass"


def recording_kernel(monkeypatch, corrupt=None):
    """Wrap ``syndrome_words``: every call's operator words are recorded, and
    ``corrupt = (call, row)`` flips generator 0 of that row of that call."""
    kernel = CodeInstance.syndrome_words
    calls = []

    def wrapped(self, xwords, zwords):
        out = kernel(self, xwords, zwords)
        if corrupt is not None and corrupt[0] == len(calls):
            out[corrupt[1], 0] ^= np.uint64(1)
        calls.append((xwords.copy(), zwords.copy()))
        return out

    monkeypatch.setattr(CodeInstance, "syndrome_words", wrapped)
    return calls


def test_check_takes_no_single_operator_syndromes(tmp_path, monkeypatch):
    """Each syndrome audit is one batched kernel call."""
    def forbidden(self, op):
        raise AssertionError("syndrome_of called")

    monkeypatch.setattr(CodeInstance, "syndrome_of", forbidden)
    calls = recording_kernel(monkeypatch)
    assert run(tmp_path, "check", "--code", "cubic1", "--L", "4") == 0
    assert [len(x) for x, _ in calls] == [150, 40, 20]


@pytest.mark.parametrize("call, row, audit", [
    (0, 76, "syndrome_linearity"),  # the b of pair 26
    (0, 149, "syndrome_linearity"),  # the product of the last pair
    (1, 3, "translation_covariance"),  # an operator
    (1, 21, "translation_covariance"),  # a translate
    (2, 11, "bitflip_defect_pattern"),
])
def test_corrupted_kernel_row_fails_its_audit(tmp_path, monkeypatch, call, row, audit):
    recording_kernel(monkeypatch, corrupt=(call, row))
    assert run(tmp_path, "check", "--code", "cubic1", "--L", "4") == 1
    statuses = {c["name"]: c["status"] for c in json.loads(report_bytes(tmp_path, "check"))["checks"]}
    assert statuses.pop(audit) == "fail"
    assert set(statuses.values()) == {"pass"}


def test_audits_after_a_failure_draw_what_a_clean_run_draws(tmp_path, monkeypatch):
    """A failed audit does not move the seeded stream: the later audits draw
    the operators of an uncorrupted run with the same seed."""
    argv = ("check", "--code", "cubic1", "--L", "4", "--seed", "11")
    with monkeypatch.context() as patch:
        clean = recording_kernel(patch)
        assert run(tmp_path / "clean", *argv) == 0
    corrupted = recording_kernel(monkeypatch, corrupt=(0, 103))
    assert run(tmp_path / "corrupted", *argv) == 1
    assert len(clean) == len(corrupted) == 3
    for (x1, z1), (x2, z2) in zip(clean[1:], corrupted[1:]):
        assert np.array_equal(x1, x2) and np.array_equal(z1, z2)


@pytest.mark.parametrize("seed", range(5))
def test_check_draws_cover_every_factor_kind(tmp_path, monkeypatch, seed):
    """The linearity audit's a and b operators have weight at most 5, some of
    them 4 or 5, and hold X-only, Z-only and Y terms and sub-qubit slot 1 in
    like measure."""
    calls = recording_kernel(monkeypatch)
    assert run(tmp_path, "check", "--code", "cubic1", "--L", "4", "--seed", str(seed)) == 0
    g = stabscape.get_code("cubic1", 4).geometry
    x, z = (to_bool_array(BitMatrix(words[:100], g.n_qubits)) for words in calls[0])
    weights = (x | z).sum(axis=1)
    assert weights.max() <= 5 and (weights >= 4).any()
    # each kind holds at least a fifth of the terms: a draw of X and Z alone
    # would still make a few Y terms where two factors land on one qubit
    terms = (x | z).sum()
    for kind in (x & ~z, z & ~x, x & z, (x | z)[:, 1::g.q]):
        assert kind.sum() >= terms / 5


def child_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(stabscape.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def fresh_process(argv, out):
    """Exit code, stdout and stderr of ``main(argv)`` in a new interpreter."""
    proc = subprocess.run([sys.executable, "-m", "stabscape.cli", *argv, "--out", str(out)],
                          env=child_env(), capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_shared_parser_runs_like_a_fresh_process(tmp_path, capsys):
    """In-process calls share one parser; a usage error between two
    subcommands leaves no trace in the next call."""
    jobs = [
        ["syndrome", "--code", "cubic1", "--L", "4", "--op", "XI@1,2,3"],
        ["rg", "--code", "nope", "--L", "4"],  # argparse rejects the choice
        ["rg", "--code", "cubic1", "--L", "8", "--p", "2"],
    ]
    for i, argv in enumerate(jobs):
        here, there = tmp_path / f"here{i}", tmp_path / f"there{i}"
        code = main(argv + ["--out", str(here)])
        out, err = capsys.readouterr()
        want_code, want_out, want_err = fresh_process(argv, there)
        assert code == want_code == (2 if i == 1 else 0)
        assert err == want_err
        assert out.replace(str(here), "OUT") == want_out.replace(str(there), "OUT")
        reports = [sorted(d.glob("*/report.json")) for d in (here, there)]
        assert [len(r) for r in reports] == [0, 0] if i == 1 else [1, 1]
        if i != 1:
            assert reports[0][0].read_bytes() == reports[1][0].read_bytes()


def test_fractal_does_not_import_numpy_ma(tmp_path):
    """Box counting sorts and fits in closed form: numpy.ma stays unloaded."""
    script = (
        "import sys\n"
        "from stabscape.cli import main\n"
        f"assert main(['fractal', '--code', 'cubic1', '--L', '16', '--p', '3', '--out', {str(tmp_path)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False"


def test_fractal_counts_each_site_once(tmp_path):
    """An operator on both sub-qubits of one site counts that site once in
    ``support`` and in every box count; the values are the ones the set of
    site tuples gave before box counting read a coordinate array."""
    op_file = tmp_path / "op.txt"
    op_file.write_text("0 0 0 0 X\n0 0 0 1 Z\n3 1 2 1 Y\n5 6 7 0 X\n5 6 7 1 X\n")
    for op, exit_code, support, boxcounts in [
        (str(op_file), 0, 3, "scale,count\r\n1,3\r\n2,3\r\n4,2\r\n"),
        ("XZ@1,2,3", 3, 1, "scale,count\r\n1,1\r\n2,1\r\n4,1\r\n"),
    ]:
        out = tmp_path / op.replace("/", "_")
        assert main(["fractal", "--code", "cubic1", "--L", "8", "--op", op, "--out", str(out)]) == exit_code
        (check,) = json.loads(report_bytes(out, "fractal"))["checks"]
        assert check["measured"]["support"]["value"] == support
        assert next(out.glob("fractal-*/boxcounts.csv")).read_bytes().decode() == boxcounts


# SHA-256 of CSV series as written before the series were kept as the
# caller's rows (a ``tuple`` copy of each row) and before ``fractal`` read a
# coordinate array; the digest gate of the benchmark hashes report.json only.
CSV_DIGESTS = [
    (["pyramid", "--code", "cubic1", "--L", "8", "--p", "3"],
     {"profile.csv": "4f4dbdf45ea4817af208234a840e25db2fea0bde7a8c9f0e552ebf921b0f2985"}),
    (["fractal", "--code", "cubic1", "--L", "16", "--p", "3"],
     {"boxcounts.csv": "5a86349795e38a535c73186755a55072664b28b794b6b8b1d8709f6ab90cb1d2"}),
    (["barrier", "--code", "cubic1", "--L", "2", "--target", "pyramid:1"],
     {"witness_path.csv": "8fa5c74c32ab18593fbf388cccf1d02699cf92598a92e0c3fe4af5f1f1885937",
      "witness_profile.csv": "78ab075babbf28e6324924d16b3778795dafa5edc652633b7ea4209bfa239f96"}),
    # pinned from csv.writer output: the only quoted cells (tuple anchors) and
    # float cells, a text column, a row-built int series, and 16,385 rows
    (["strings", "--code", "toric2d", "--L", "6", "--alpha", "3"],
     {"segments.csv": "3256cbb60fcda8fe5d1815bf476deb72242bf2744e8c65749b4ba1aabdcc9523"}),
    (["syndrome", "--code", "cubic1", "--L", "4", "--op", "XI@1,2,3"],
     {"defects.csv": "70e1421e09a56cc56fd3e0730cbee44e8bee2dfff5c0ac3994b664071388e619"}),
    (["pyramid", "--code", "cubic1", "--sweep", "2,4,8"],
     {"barrier_vs_L.csv": "4b55fa237afb43d2bb0e0bc95bcbdffb4c3e501349a848ae54e9997ca060c96b"}),
    (["pyramid", "--code", "cubic1", "--L", "128", "--p", "7"],
     {"profile.csv": "6c2895f9904c2b9e193eb31dec20b181eac0028ac0c3c05d45420d261bd422d6"}),
]
CSV_IDS = ["pyramid", "fractal", "barrier", "strings", "syndrome", "pyramid-sweep", "pyramid-L128"]


@pytest.mark.parametrize("argv, digests", CSV_DIGESTS, ids=CSV_IDS)
def test_csv_series_bytes_are_pinned(tmp_path, argv, digests):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    (run_dir,) = tmp_path.glob(f"{argv[0]}-*")
    got = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in digests}
    assert got == digests


INT64_EDGES = st.sampled_from([0, -1, 1, -(2**63), 2**63 - 1])
# no NUL (the writer's padding) and no lone surrogate (not UTF-8, so no file ever held one)
CSV_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00") | st.sampled_from(',"\r\n'),
                   max_size=6)


def csv_column(kind, n):
    """A column of ``n`` cells of one kind, as series callers hold them."""
    int64 = INT64_EDGES | st.integers(-(2**63), 2**63 - 1)
    return {
        "int64": st.lists(int64, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64)),
        "uint64": st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n).map(lambda v: np.array(v, np.uint64)),
        "int8": st.lists(st.sampled_from([-128, 127]) | st.integers(-128, 127), min_size=n, max_size=n)
        .map(lambda v: np.array(v, np.int8)),
        "ints": st.lists(int64 | st.integers(), min_size=n, max_size=n),
        "ints-and-bools": st.lists(st.integers(-3, 3) | st.booleans(), min_size=n, max_size=n),
        "floats": st.lists(st.floats() | st.integers(-9, 9), min_size=n, max_size=n),
        "bools": st.lists(st.booleans(), min_size=n, max_size=n),
        "text": st.lists(CSV_TEXT, min_size=n, max_size=n),
    }[kind]


@st.composite
def csv_series(draw):
    n = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(["int64", "uint64", "int8", "ints", "ints-and-bools", "floats", "bools",
                                           "text"]), min_size=1, max_size=4))
    header = draw(st.lists(CSV_TEXT, min_size=len(kinds), max_size=len(kinds)))
    return header, [draw(csv_column(kind, n)) for kind in kinds]


@settings(max_examples=400)
@given(series=csv_series())
def test_csv_bytes_match_csv_writer(series):
    """The series writer's bytes are csv.writer's for every cell kind the
    callers hold: int64, int8 and uint64 arrays (with 0, negatives, -2**63
    and -128), Python int lists of any size, floats, bools and quoted text."""
    header, columns = series
    assert _csv_bytes(header, columns) == reference_csv_bytes(header, zip(*columns))


def test_csv_bytes_edge_series():
    """Zero rows (columns from ``zip(*[])``) write the header alone; a
    one-column row's empty cell is written as ``""``."""
    assert _csv_bytes(("a", "b"), tuple(zip(*[]))) == b"a,b\r\n"
    assert _csv_bytes(("",), [["", "x", ""]]) == b'""\r\n""\r\nx\r\n""\r\n'
    assert _csv_bytes(("v",), [np.array([-(2**63), 0, 7])]) == b"v\r\n-9223372036854775808\r\n0\r\n7\r\n"


# SHA-256 of report.json and levels.csv of tracked rg runs, as written before
# tracking partitioned and classified a whole segment at once: the merge loop
# runs at alpha 1.3, the box solver at the TQO scale, and the alpha 1.5 run
# skips 3 of its 4 segments as dense.
RG_TRACK_DIGESTS = [
    (["--L", "32", "--p", "5", "--alpha", "1.3", "--ltqo", "8", "--track-level", "0"],
     {"report.json": "5d07a858768de4564fbd95b3d19efe52ae6f992a7fa97978d2342d30a0abd957",
      "levels.csv": "7b5f8f0ea3a9c22aabe10df5a4dcc971bb9c99629acbe4602ac981d6ac2c6771"}),
    (["--L", "16", "--p", "3", "--track-level", "1", "--ltqo", "4"],
     {"report.json": "654855dc5332f1e5fdc93e5a759c6908ca84a15be1fe47cdeb73e74baa142c92",
      "levels.csv": "3067d95ad3c4469452c529e44453e49fffac812455716e197febb61abdc86a3f"}),
    (["--L", "64", "--p", "5", "--alpha", "1.5", "--ltqo", "8", "--track-level", "1"],
     {"report.json": "ce7a38b5079365c175da0a52b78cdaa2eb74dc63db5b479280a239212236649a",
      "levels.csv": "5adb561df50e8a5878e64dd8abb7fc6bd6e0761bc64bdf0a74369e3c766814e9"}),
]


@pytest.mark.parametrize("argv, digests", RG_TRACK_DIGESTS, ids=["linkage", "solver", "dense-skip"])
def test_rg_tracking_bytes_are_pinned(tmp_path, argv, digests):
    assert run(tmp_path, "rg", "--code", "cubic1", *argv) == 0
    (run_dir,) = tmp_path.glob("rg-*")
    got = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in digests}
    assert got == digests


def test_tracked_rg_does_not_import_numpy_ma(tmp_path):
    """Tracking partitions, footprints and classifies in sorts and
    broadcasts: numpy.ma stays unloaded."""
    script = (
        "import sys\n"
        "from stabscape.cli import main\n"
        "argv = ['rg', '--code', 'cubic1', '--L', '16', '--p', '3', '--track-level', '1', '--ltqo', '4']\n"
        f"assert main(argv + ['--out', {str(tmp_path)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False"


def test_elimination_does_not_import_numpy_ma(tmp_path):
    """``distance``, ``check`` and ``strings`` (rref, nullspace, independent
    rows) and ``gf2_solve`` run without loading numpy.ma, which ``np.unique``
    and the set routines built on it would import."""
    runs = [["distance", "--code", "toric2d", "--L", "3"], ["check", "--code", "cubic1", "--L", "4"],
            ["strings", "--code", "toric2d", "--L", "6", "--alpha", "3"]]
    script = (
        "import sys\n"
        "from stabscape.cli import main\n"
        f"for argv in {runs!r}:\n"
        f"    assert main(argv + ['--out', {str(tmp_path)!r}]) == 0\n"
        "from stabscape import gf2\n"
        "assert gf2.gf2_solve(gf2.BitMatrix.zeros(3, 70), gf2.zeros(3)) is not None\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False"


# Runs the command in its argv in a new process.  A child inherits the peak
# RSS of the process that spawns it, so a job measured by ``RUSAGE_SELF`` runs
# in a grandchild of pytest, started by this small interpreter.
LAUNCHER = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"


def test_check_memory_does_not_grow_with_the_lattice(tmp_path):
    """The commutation audit reads the origin cube alone: the whole ``check
    --code cubic1 --L 32`` process (65,536 generators) peaks well under the
    238 MiB that one pass over the flip events of every cube took.
    ``RUSAGE_SELF`` in a grandchild started by ``LAUNCHER``, since
    ``RUSAGE_CHILDREN`` keeps the peak of any earlier child of this process."""
    script = (
        "import resource, sys\n"
        "from stabscape.cli import main\n"
        f"assert main(['check', '--code', 'cubic1', '--L', '32', '--out', {str(tmp_path)!r}]) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    out = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, "-c", script],
                         env=child_env(), capture_output=True, text=True, check=True)
    peak_kib = int(out.stdout.splitlines()[-1])  # Linux reports KiB
    assert peak_kib < 150 * 1024


def test_string_scan_memory_stays_batched(tmp_path):
    """The scan's arrays are built one batch of support placements at a
    time: ``strings --code cubic1 --L 12 --alpha 3`` (805 anchor pairs)
    peaks within 10% of the same job with no pair to scan, which builds the
    same code and box solver.  The per-pair scan it replaced stayed at that
    level; one pass over all pairs at once peaked about 30% higher.  Each job
    runs under ``LAUNCHER``."""
    peaks = []
    for alpha in ("1000", "3"):
        script = (
            "import resource\n"
            "from stabscape.cli import main\n"
            f"main(['strings', '--code', 'cubic1', '--L', '12', '--alpha', {alpha!r}, '--out', {str(tmp_path)!r}])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        out = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, "-c", script],
                             env=child_env(), capture_output=True, text=True, check=True)
        peaks.append(int(out.stdout.splitlines()[-1]))
    assert peaks[1] <= 1.1 * peaks[0]


def test_logical_basis_memory_stays_near_the_stabilizer_rref():
    """``logical_basis()`` at cubic1 L=12 (6,912 move columns) raises the peak
    by at most 30 MiB over ``stabilizer_rref()`` alone: its eliminations read
    their rows lazily from word arrays.  The bool unpack and repack it
    replaced raised it by about 76 MiB.  The job runs under ``LAUNCHER``."""
    script = (
        "import resource\n"
        "from stabscape import get_code\n"
        "code = get_code('cubic1', 12)\n"
        "code.stabilizer_rref()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        "code.logical_basis()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    out = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, "-c", script],
                         env=child_env(), capture_output=True, text=True, check=True)
    before, after = (int(line) for line in out.stdout.splitlines()[-2:])
    assert after - before <= 30 * 1024  # ru_maxrss is in KiB


def test_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["pyramid", "--code", "cubic1", "--L", "8", "--p", "2",
                     "--seed", "5", "--out", str(out)]) == 0
        assert main(["check", "--code", "toric2d", "--L", "3", "--seed", "5",
                     "--out", str(out)]) == 0
    for sub in ("pyramid", "check"):
        assert report_bytes(a, sub) == report_bytes(b, sub)
    # CSV series are deterministic too
    csv_a = sorted(a.glob("pyramid-*/profile.csv"))[0].read_bytes()
    csv_b = sorted(b.glob("pyramid-*/profile.csv"))[0].read_bytes()
    assert csv_a == csv_b


def test_config_file_with_flag_override(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"code": "rep1d", "L": 4, "target": "all-x"}))
    out = tmp_path / "out"
    assert main(["barrier", "--config", str(conf), "--out", str(out)]) == 0
    report = json.loads(next(out.glob("barrier-*/report.json")).read_text())
    assert report["config"]["L"] == 4
    # flags win over the config file
    assert main(["barrier", "--config", str(conf), "--L", "5", "--out", str(out)]) == 0
    hashes = {p.parent.name for p in out.glob("barrier-*/report.json")}
    assert len(hashes) == 2


def test_unknown_config_key_rejected(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"nonsense": 1}))
    assert main(["check", "--config", str(conf), "--out", str(tmp_path)]) == 2


def test_operator_file_roundtrip(tmp_path):
    opfile = tmp_path / "op.txt"
    opfile.write_text("1 2 3 0 X\n")
    assert run(tmp_path, "syndrome", "--code", "cubic1", "--L", "4", "--op", str(opfile)) == 0
    report = json.loads(report_bytes(tmp_path, "syndrome"))
    assert report["checks"][0]["measured"]["defect_count"]["value"] == 4


def test_config_hash_stable():
    assert config_hash({"a": 1, "b": [1, 2]}) == config_hash({"b": [1, 2], "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_pyramid_sweep_series(tmp_path):
    assert run(tmp_path, "pyramid", "--code", "cubic1", "--sweep", "2,4,8") == 0
    csv_lines = next(tmp_path.glob("pyramid-*/barrier_vs_L.csv")).read_text().splitlines()
    assert csv_lines[0] == "L,constructed_barrier,bound_4log2L_plus_4"
    assert len(csv_lines) == 4
    for line in csv_lines[1:]:
        L, barrier, bound = (int(x) for x in line.split(","))
        assert barrier <= bound


def test_wrong_code_family_is_usage_error(tmp_path):
    assert run(tmp_path, "pyramid", "--code", "toric2d", "--L", "4", "--p", "1") == 2


def test_rg_tracking_error_is_not_a_dense_segment(tmp_path, monkeypatch):
    """Only a dense segment is skipped; any other error from tracking ends
    the run rather than passing with fewer segments tracked."""
    import stabscape.rg as rg

    def failing(*args, **kwargs):
        raise ValueError("neutrality solve failed")

    monkeypatch.setattr(rg, "neutralities", failing)  # tracking classifies a segment's clusters at once
    code = run(tmp_path, "rg", "--code", "cubic1", "--L", "8", "--p", "2",
               "--track-level", "1", "--alpha", "1", "--ltqo", "4")
    assert code == 4  # a ValueError from library code is a fault, not bad input
    assert not list(tmp_path.glob("rg-*/report.json"))


def test_rg_tracking_solves_only_the_clusters_that_fit(tmp_path, monkeypatch):
    """The benchmark's ``rg16-p3-track`` shape: the partition builds pairwise
    distances once per block of a segment (one block here), not once per
    syndrome, and only the clusters whose footprint fits the size-4 TQO box
    reach the box solver; the other 59 of 63 are charged from the arrays."""
    import stabscape.defects as defects
    import stabscape.rg as rg

    calls = {"_torus_distances": [], "cluster_partitions": [], "neutralities": [], "_local_witness": []}

    def recording(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls[name].append(args) or fn(*args))

    recording(defects, "_torus_distances")
    recording(rg, "cluster_partitions")
    recording(rg, "neutralities")
    recording(defects, "_local_witness")
    assert run(tmp_path, "rg", "--code", "cubic1", "--L", "16", "--p", "3", "--track-level", "1", "--ltqo", "4") == 0
    assert len(calls["cluster_partitions"]) == len(calls["_torus_distances"]) == 1
    g = stabscape.get_code("cubic1", 16).geometry
    ((_, clusters, _),) = calls["neutralities"]
    fits = [c for c in clusters if max(reference_footprint_box(g, {cube for cube, _ in c})[1]) <= 4]
    assert (len(clusters), len(fits)) == (63, 4)
    assert [syndrome for _, syndrome, _, _ in calls["_local_witness"]] == fits


def test_rg_world_lines(tmp_path):
    code = run(tmp_path, "rg", "--code", "cubic1", "--L", "8", "--p", "2",
               "--track-level", "1", "--alpha", "1", "--ltqo", "4")
    assert code == 0
    report = json.loads(report_bytes(tmp_path, "rg"))
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["world_lines"]["measured"]["locking_violations"]["value"] == 0


def test_failed_check_gives_exit_one(tmp_path, monkeypatch):
    import stabscape.cli as cli
    from stabscape.codes import FrustrationReport

    def broken(code):
        return FrustrationReport(False, (((0,) * 3, 0), ((0, 0, 1), 1)), 16, 16, None, None)

    monkeypatch.setattr(cli, "check_frustration_free", broken)
    assert run(tmp_path, "check", "--code", "cubic1", "--L", "2") == 1


def test_config_value_of_wrong_type_is_usage_error(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"L": "8"}))
    assert main(["check", "--config", str(conf), "--out", str(tmp_path)]) == 2


def test_too_small_lattice_is_usage_error(tmp_path):
    assert run(tmp_path, "check", "--code", "cubic1", "--L", "1") == 2


def test_negative_pyramid_level_is_usage_error(tmp_path):
    assert run(tmp_path, "pyramid", "--code", "cubic1", "--L", "8", "--p", "-1") == 2


def test_internal_error_gets_its_own_exit_code(tmp_path, monkeypatch, capsys):
    import stabscape.cli as cli

    def crash(config, code, report):
        raise RuntimeError("witness path exceeds the claimed barrier")

    summary, rows, _ = cli.SUBCOMMANDS["check"]
    monkeypatch.setitem(cli.SUBCOMMANDS, "check", (summary, rows, crash))
    assert run(tmp_path, "check", "--code", "cubic1", "--L", "2") == 4
    assert "witness path exceeds the claimed barrier" in capsys.readouterr().err


def test_rg_missing_path_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "no_such_path.txt"
    assert run(tmp_path, "rg", "--code", "cubic1", "--L", "4", "--path", str(missing)) == 2
    assert "not found" in capsys.readouterr().err


def test_negative_track_level_is_usage_error(tmp_path):
    assert run(tmp_path, "rg", "--code", "cubic1", "--L", "8", "--p", "2", "--track-level", "-1") == 2


def test_out_of_range_sub_qubit_slot_is_usage_error(tmp_path, capsys):
    # cubic1 has slots 0 and 1; slot 2 would alias onto the next site and
    # slot -1 onto the previous one
    for slot in ("2", "-1"):
        op_file = tmp_path / f"slot{slot}.txt"
        op_file.write_text(f"0 0 0 {slot} X\n")
        assert run(tmp_path, "syndrome", "--code", "cubic1", "--L", "4", "--op", str(op_file)) == 2
        assert run(tmp_path, "rg", "--code", "cubic1", "--L", "4", "--path", str(op_file)) == 2
        assert "out of range" in capsys.readouterr().err
    assert not list(tmp_path.glob("*/report.json"))


def test_unparsable_input_file_is_usage_error(tmp_path, capsys):
    """A path or operator file that is not integer step lines of text exits
    2, not 4: its contents are input, like the flags."""
    (tmp_path / "letters.txt").write_text("0 a 0 0 X\n")
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe\n")
    (tmp_path / "folder").mkdir()
    for name, fragment in [("letters.txt", "non-integer"), ("binary.txt", "unreadable"), ("folder", "unreadable")]:
        assert run(tmp_path, "rg", "--code", "cubic1", "--L", "4", "--path", str(tmp_path / name)) == 2
        assert run(tmp_path, "syndrome", "--code", "cubic1", "--L", "4", "--op", str(tmp_path / name)) == 2
        assert capsys.readouterr().err.count(fragment) == 2
    assert not list(tmp_path.glob("*/report.json"))


def test_state_cap_below_one_is_usage_error(tmp_path, capsys):
    for cap in ("0", "-5"):
        assert run(tmp_path, "barrier", "--code", "rep1d", "--L", "4", "--target", "all-x", "--state-cap", cap) == 2
        assert run(tmp_path, "distance", "--code", "rep1d", "--L", "4", "--state-cap", cap) == 2
        assert "--state-cap" in capsys.readouterr().err
    assert not list(tmp_path.glob("*/report.json"))


@pytest.mark.parametrize("flag,values", [
    ("--rho", ("0", "-2")),
    ("--ltqo", ("0", "-3")),
    ("--max-pairs", ("0", "-1")),
    ("--max-patterns", ("0", "-5")),
])
def test_scan_size_below_one_is_usage_error(tmp_path, capsys, flag, values):
    for val in values:
        assert run(tmp_path, "strings", "--code", "toric2d", "--L", "4", "--alpha", "1", flag, val) == 2
        assert f"{flag} must be at least 1" in capsys.readouterr().err
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({flag[2:].replace("-", "_"): 0}))
    assert run(tmp_path, "strings", "--code", "toric2d", "--L", "4", "--config", str(conf)) == 2
    assert f"{flag} must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("*/report.json"))


def test_negative_omega_max_is_usage_error(tmp_path, capsys):
    assert run(tmp_path, "barrier", "--code", "rep1d", "--L", "4", "--target", "all-x", "--omega-max", "-1") == 2
    assert "--omega-max" in capsys.readouterr().err
    assert not list(tmp_path.glob("*/report.json"))


# Least value of every bounded flag, and a subcommand that takes the flag.
BOUNDED_FLAGS = {
    "--alpha": ("check", 1),
    "--ltqo": ("check", 1),
    "--rho": ("strings", 1),
    "--max-pairs": ("strings", 1),
    "--max-patterns": ("strings", 1),
    "--state-cap": ("distance", 1),
    "--seed": ("check", 0),
    "--omega-max": ("barrier", 0),
    "--track-level": ("rg", 0),
}


def test_every_bound_is_tested():
    bounded = {flag: least for flag, _, _, least, _ in OPTIONS.values() if least is not None}
    assert bounded == {flag: least for flag, (_, least) in BOUNDED_FLAGS.items()}


@pytest.mark.parametrize("flag", sorted(BOUNDED_FLAGS))
def test_bounded_flag_below_its_least_value_is_usage_error(tmp_path, capsys, flag):
    """One below the least value fails as a flag on a subcommand that takes
    it, and as a config-file value on any subcommand, even ``check``, which
    reads none of the bounded values."""
    sub, least = BOUNDED_FLAGS[flag]
    assert run(tmp_path, sub, "--code", "rep1d", "--L", "4", flag, str(least - 1)) == 2
    assert f"{flag} must be at least {least}" in capsys.readouterr().err
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({flag[2:].replace("-", "_"): least - 1}))
    for sub in ("check", "pyramid", sub):
        assert run(tmp_path, sub, "--code", "rep1d", "--L", "4", "--config", str(conf)) == 2
        assert f"{flag} must be at least {least}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*/report.json"))


# The flags of each subcommand and the defaults, as they were before the
# option table: the table must reproduce both.
SHARED_FLAGS = ["--L", "--alpha", "--code", "--config", "--format", "--ltqo", "--out", "--seed"]
SUBCOMMAND_FLAGS = {
    "syndrome": ["--op"],
    "pyramid": ["--p", "--sweep", "--u"],
    "barrier": ["--omega-max", "--state-cap", "--target"],
    "distance": ["--state-cap"],
    "rg": ["--p", "--path", "--track-level"],
    "fractal": ["--op", "--p", "--scales"],
    "strings": ["--max-pairs", "--max-patterns", "--rho"],
    "check": [],
}
PARENT_DEFAULTS = {
    "code": "cubic1", "L": 4, "alpha": 15.0, "ltqo": None, "seed": 0, "out": "runs", "format": "both",
    "p": None, "u": None, "op": None, "target": None, "omega_max": 64, "state_cap": 10000000, "path": None,
    "scales": None, "rho": 1, "max_pairs": 2000, "max_patterns": 64, "sweep": None, "track_level": None,
}


def test_option_table_reproduces_the_flags_and_defaults():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))
             for name, p in subparsers.choices.items()}
    assert flags == {name: sorted(SHARED_FLAGS + own) for name, own in SUBCOMMAND_FLAGS.items()}
    assert DEFAULTS == PARENT_DEFAULTS
    assert {k: type(v) for k, v in DEFAULTS.items()} == {k: type(v) for k, v in PARENT_DEFAULTS.items()}


# A config value of the wrong type for every key.
WRONG_TYPES = {
    "code": 1, "L": "8", "alpha": "15", "ltqo": 2.5, "seed": True, "out": 0, "format": ["json"],
    "p": "3", "u": [0, 0, 0], "op": 5, "target": False, "omega_max": 64.0, "state_cap": "1e7",
    "path": 1, "scales": [1, 2, 4], "rho": 1.0, "max_pairs": False, "max_patterns": [64],
    "sweep": 4, "track_level": "1",
}
CONFIG_CASES = list(WRONG_TYPES.items()) + [
    (key, None) for key, default in PARENT_DEFAULTS.items() if default is not None
]


@pytest.mark.parametrize("key,val", CONFIG_CASES, ids=[f"{k}={v!r}" for k, v in CONFIG_CASES])
def test_config_value_of_wrong_type_for_any_key_is_usage_error(tmp_path, capsys, key, val):
    """Null passes only for keys whose default is None."""
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: val}))
    assert run(tmp_path, "check", "--code", "rep1d", "--L", "4", "--config", str(conf)) == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*/report.json"))


def test_config_null_leaves_a_key_without_default_unset(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: None for key, default in PARENT_DEFAULTS.items() if default is None}))
    assert run(tmp_path / "a", "check", "--code", "rep1d", "--L", "4", "--config", str(conf)) == 0
    assert run(tmp_path / "b", "check", "--code", "rep1d", "--L", "4") == 0
    assert report_bytes(tmp_path / "a", "check") == report_bytes(tmp_path / "b", "check")


def test_config_int_for_a_float_flag_stays_an_int(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"alpha": 3}))
    assert run(tmp_path, "strings", "--code", "toric2d", "--L", "6", "--config", str(conf)) == 0
    assert json.loads(report_bytes(tmp_path, "strings"))["config"]["alpha"] == 3
    assert b'"alpha": 3,' in report_bytes(tmp_path, "strings")


# Each usage-error site no other test reaches: (argv, config file contents or
# None, a fragment of the message that names the site).
USAGE_SITES = {
    "config-unknown-code": (["check"], {"code": "nope"}, "unknown code"),
    "config-not-an-object": (["check"], [1, 2], "JSON object"),
    "wrong-coordinate-count": (["syndrome", "--code", "cubic1", "--L", "4", "--op", "XI@0,0"], None, "3 coordinates"),
    "wrong-label-length": (["syndrome", "--code", "cubic1", "--L", "4", "--op", "X@0,0,0"], None, "2 Pauli characters"),
    "missing-operator-file": (["syndrome", "--code", "cubic1", "--L", "4", "--op", "{tmp}/none.op"], None, "not found"),
    "pyramid-without-p": (["pyramid", "--code", "cubic1", "--L", "6"], None, "needs --p"),
    # a non-integer in a comma-separated flag raised a bare ValueError
    "non-integer-site": (["pyramid", "--code", "cubic1", "--L", "4", "--p", "1", "--u", "a,0,0"], None,
                         "comma-separated integers"),
    "non-integer-sweep": (["pyramid", "--code", "cubic1", "--sweep", "2,x"], None, "comma-separated integers"),
    "non-integer-scales": (["fractal", "--code", "cubic1", "--L", "8", "--p", "3", "--scales=1,x,4"], None,
                           "comma-separated integers"),
    "non-integer-pyramid-target": (["barrier", "--code", "cubic1", "--L", "4", "--target", "pyramid:x"], None,
                                   "non-negative integer P"),
    "sweep-not-power-of-two": (["pyramid", "--code", "cubic1", "--sweep", "2,6"], None, "powers of two"),
    # the sweep ignored --L, so a bad one passed
    "sweep-with-bad-L": (["pyramid", "--code", "cubic1", "--sweep", "2,4", "--L", "1"], None, "L must be at least 2"),
    "barrier-without-target": (["barrier", "--code", "rep1d", "--L", "4"], None, "requires --target"),
    "rg-without-p": (["rg", "--code", "cubic1", "--L", "4"], None, "requires --p or --path"),
    "fractal-without-p": (["fractal", "--code", "cubic1", "--L", "4"], None, "requires --p or --op"),
    # a zero scale divided by zero (exit 4); a negative or repeated one gave gamma = NaN and a pass
    "fractal-zero-scale": (["fractal", "--code", "cubic1", "--L", "8", "--p", "3", "--scales=0,1,2"], None,
                           "3 distinct box scales"),
    "fractal-negative-scale": (["fractal", "--code", "cubic1", "--L", "8", "--p", "3", "--scales=-1,1,2"], None,
                               "3 distinct box scales"),
    "fractal-repeated-scales": (["fractal", "--code", "cubic1", "--L", "8", "--p", "3", "--scales=1,1,1"], None,
                                "3 distinct box scales"),
    # NaN passes every `<` test: the scan found no pairs and passed
    "strings-alpha-nan": (["strings", "--code", "toric2d", "--L", "6", "--alpha", "nan"], None,
                          "--alpha must be at least 1"),
    "config-alpha-nan": (["strings", "--code", "toric2d", "--L", "6"], {"alpha": float("nan")},
                         "--alpha must be at least 1"),
    # infinity passed `alpha >= 1`: the scan found no pairs, passed, and wrote `Infinity` into the report
    "strings-alpha-inf": (["strings", "--code", "toric2d", "--L", "6", "--alpha", "inf"], None,
                          "--alpha must be at least 1"),
    "config-alpha-inf": (["strings", "--code", "toric2d", "--L", "6"], {"alpha": float("inf")},
                         "--alpha must be at least 1"),
}


@pytest.mark.parametrize("site", sorted(USAGE_SITES))
def test_usage_error_sites_exit_two(tmp_path, capsys, site):
    argv, config, fragment = USAGE_SITES[site]
    argv = [a.format(tmp=tmp_path) for a in argv]
    if config is not None:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(config))
        argv += ["--config", str(conf)]
    assert run(tmp_path, *argv) == 2
    assert fragment in capsys.readouterr().err
    assert not list(tmp_path.glob("*/report.json"))


def test_usage_errors_are_input_errors(tmp_path, capsys):
    """The CLI's parsers raise the library's InputError, not SystemExit, so a
    library caller keeps its interpreter; ``main`` exits 2 on it and on an
    unreadable or malformed config file, and 0 after ``--help``."""
    code = get_code("cubic1", 4)
    with pytest.raises(InputError, match="2 Pauli characters"):
        parse_operator(code, "XYZ@0,0,0")
    with pytest.raises(InputError, match="non-negative integer P"):
        _parse_target(code, {"target": "pyramid:x"})
    with pytest.raises(InputError, match="comma-separated integers"):
        _ints("1,a", "--scales")
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    for conf in (tmp_path / "missing.json", malformed):
        assert run(tmp_path, "check", "--config", str(conf)) == 2
        assert "config file" in capsys.readouterr().err
    assert not list(tmp_path.glob("*/report.json"))
    assert main(["check", "--help"]) == 0
    assert "--config" in capsys.readouterr().out


# -- one property over the option table --------------------------------------------

# The in-bound range drawn for each int flag: a library bound where the table
# has none, and an upper end that keeps every run short.  A cap row is always
# given, since its default would not keep the run short, and so is the flag
# that a subcommand cannot run without.
SMALLEST = {"--L": 2, "--p": 0}
LARGEST = {"--L": 5, "--p": 3, "--ltqo": 3, "--seed": 3, "--track-level": 2, "--rho": 3,
           "--state-cap": 2000, "--omega-max": 6, "--max-pairs": 4, "--max-patterns": 8}
ALWAYS_GIVEN = {"--state-cap", "--omega-max", "--max-pairs", "--max-patterns"}
NEEDED = {"syndrome": "--op", "barrier": "--target"}
JUNK = ["x", "1,x", "3", "pyramid:x", "XI@a,0,0", "no_such_file"]  # text no string flag accepts


def string_pools(code: str, steps_file: str) -> dict:
    """Small pools of text that the string flags accept on this code."""
    spec = registered_spec(code)
    site = ",".join("1" * spec.D)
    return {
        "--op": [f"{'X' * spec.q}@{site}", f"{'Z' * spec.q}@{site}", steps_file],
        "--target": ["all-x", "pyramid:1", steps_file],
        "--sweep": ["2", "2,4"],
        "--scales": ["1,2,4", "1,2,3"],
        "--u": [site],
        "--path": [steps_file],
    }


def flag_values(row, wild: bool, pools: dict):
    """Command-line text for a row: in-bound values, and when ``wild`` also
    junk text for a string flag, or one below the range and NaN for a number."""
    flag, typ, _, least, _ = row
    if flag in pools:
        return st.sampled_from(pools[flag] + JUNK if wild else pools[flag])
    if isinstance(typ, tuple):
        return st.sampled_from(typ)
    low = SMALLEST.get(flag, least)
    values = st.sampled_from(["1", "1.5", "3", "15"]) if typ is float else st.integers(low, LARGEST[flag]).map(str)
    return values | st.sampled_from([str(low - 1), "nan"]) if wild else values


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_subcommand_ends_in_a_verdict_or_a_usage_error(name, data):
    """Each subcommand, with any mix of flags drawn from the option table,
    exits 0-3 and never 4; a usage error (2) writes no run directory."""
    wild = data.draw(st.booleans(), label="out-of-range values")
    code = data.draw(st.sampled_from(registry_names()), label="--code")
    argv = [name, "--code", code]
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(StringIO()), redirect_stderr(StringIO()) as err:
        spec = registered_spec(code)
        steps = Path(tmp, "steps.txt")
        steps.write_text("".join(f"{' '.join(c * spec.D)} 0 {p}\n" for c, p in (("0", "X"), ("1", "Z"))))
        pools = string_pools(code, str(steps))
        for row in SHARED_OPTIONS + SUBCOMMANDS[name][1]:
            flag = row[0]
            if flag in ("--code", "--out"):
                continue  # the code is drawn above, and the run writes to a temporary directory
            if flag in ALWAYS_GIVEN or flag == NEEDED.get(name) or data.draw(st.booleans(), label=f"{flag} given"):
                argv += [flag, data.draw(flag_values(row, wild, pools), label=flag)]
        out = Path(tmp, "out")
        exit_code = main(argv + ["--out", str(out)])
        wrote = out.exists()
    assert exit_code in (0, 1, 2, 3), f"{argv} exited {exit_code}:\n{err.getvalue()}"
    assert exit_code != 2 or not wrote
