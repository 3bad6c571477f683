"""CLI behavior: exit codes, config resolution, report determinism."""

import json

from stabscape.cli import main
from stabscape.reports import config_hash


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


def test_check_subcommand(tmp_path):
    assert run(tmp_path, "check", "--code", "cubic1", "--L", "4") == 0
    report = json.loads(report_bytes(tmp_path, "check"))
    assert report["status"] == "pass"
    names = [c["name"] for c in report["checks"]]
    assert "pairwise_commutation" in names and "bitflip_defect_pattern" in names


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

    def broken(code, exhaustive=None):
        return FrustrationReport(False, (((0,) * 3, 0), ((0, 0, 1), 1)), 16, 16, None, None, "exhaustive")

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

    def crash(config):
        raise RuntimeError("witness path exceeds the claimed barrier")

    monkeypatch.setitem(cli.RUNNERS, "check", crash)
    assert run(tmp_path, "check", "--code", "cubic1", "--L", "2") == 4
    assert "witness path exceeds the claimed barrier" in capsys.readouterr().err


def test_rg_missing_path_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "no_such_path.txt"
    assert run(tmp_path, "rg", "--code", "cubic1", "--L", "4", "--path", str(missing)) == 2
    assert "not found" in capsys.readouterr().err


def test_negative_track_level_is_usage_error(tmp_path):
    assert run(tmp_path, "rg", "--code", "cubic1", "--L", "8", "--p", "2", "--track-level", "-1") == 2
