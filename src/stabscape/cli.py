"""Batch experiment runner: every analysis as a subcommand with reproducible
configs and machine-readable reports.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage error, 3 a search
was cut off by its budget (indeterminate, distinct from failure), 4 internal
error (an uncaught exception, such as a failed self-audit; never a verdict).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from .codes import CodeConstructionError, CodeInstance, get_code, check_frustration_free, registry_names
from .defects import ScaleParams, ScanBudget, scan_for_strings
from .lattice import QubitIndex
from .oracle import SearchBudget, code_distance, min_barrier_logical
from .pauli import PauliOperator
from .paths import (
    ErrorPath,
    apex_cube,
    energy_profile,
    logical_zbar,
    pyramid_operator,
    pyramid_path,
    pyramid_syndrome,
    verify_logical,
)
from .rg import box_counting_dimension, level_histories, syndrome_history, track_charged_clusters
from .reports import (
    FAIL,
    INDETERMINATE,
    PASS,
    PROV_BOUND,
    PROV_CONSTRUCTED,
    PROV_MEASURED,
    PROV_ORACLE,
    Report,
    emit,
    value,
)

USAGE_ERROR = 2
INTERNAL_ERROR = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabscape",
        description="Energy-landscape experiments on stabilizer-code Hamiltonians.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; explicit flags override its entries")
        p.add_argument("--code", choices=registry_names(), help="registered code name")
        p.add_argument("--L", type=int, help="linear lattice size")
        p.add_argument("--alpha", type=float, help="no-strings aspect constant (default 15)")
        p.add_argument("--ltqo", type=int, help="TQO length scale (default L // 2)")
        p.add_argument("--seed", type=int, help="seed for randomized suites (default 0)")
        p.add_argument("--out", help="output directory (default ./runs)")
        p.add_argument("--format", choices=("json", "csv", "both"), help="report formats (default both)")

    p = sub.add_parser("syndrome", help="apply an operator and print its defects")
    common(p)
    p.add_argument("--op", help="operator: LABEL@x,y,z or a step-per-line file")

    p = sub.add_parser("pyramid", help="build a pyramid path and audit its profile")
    common(p)
    p.add_argument("--p", type=int, help="pyramid level (default: log2 L)")
    p.add_argument("--u", help="base site, comma-separated (default origin)")
    p.add_argument("--sweep", help="comma-separated lattice sizes for a barrier-vs-L series")

    p = sub.add_parser("barrier", help="exact minimal energy barrier (oracle)")
    common(p)
    p.add_argument("--target", help="all-x, pyramid:P, or an operator file")
    p.add_argument("--omega-max", type=int, help="barrier ceiling for the search")
    p.add_argument("--state-cap", type=int, help="state budget (default 1e7)")

    p = sub.add_parser("distance", help="exact code distance (oracle)")
    common(p)
    p.add_argument("--state-cap", type=int, help="enumeration budget (default 1e7)")

    p = sub.add_parser("rg", help="level histories and world lines of a path")
    common(p)
    p.add_argument("--p", type=int, help="pyramid level for the generated path")
    p.add_argument("--path", help="path file (step per line) instead of a pyramid")
    p.add_argument("--track-level", type=int, help="also track charged-cluster world lines at this level")

    p = sub.add_parser("fractal", help="box-counting dimension of a support")
    common(p)
    p.add_argument("--p", type=int, help="pyramid level for the generated support")
    p.add_argument("--op", help="operator file instead of a pyramid")
    p.add_argument("--scales", help="comma-separated box scales")

    p = sub.add_parser("strings", help="scan for non-trivial string segments")
    common(p)
    p.add_argument("--rho", type=int, help="anchor size (default 1)")
    p.add_argument("--max-pairs", type=int, help="anchor-pair budget")
    p.add_argument("--max-patterns", type=int, help="patterns per pair budget")

    p = sub.add_parser("check", help="frustration-freeness and fixture audits")
    common(p)
    return parser


DEFAULTS = {
    "code": "cubic1",
    "L": 4,
    "alpha": 15.0,
    "ltqo": None,
    "seed": 0,
    "out": "runs",
    "format": "both",
    "p": None,
    "u": None,
    "op": None,
    "target": None,
    "omega_max": 64,
    "state_cap": 10_000_000,
    "path": None,
    "scales": None,
    "rho": 1,
    "max_pairs": 2000,
    "max_patterns": 64,
    "sweep": None,
    "track_level": None,
}


# Keys whose default is None but whose flag takes an int; every other
# None-default key takes a string.
_INT_KEYS_WITHOUT_DEFAULT = {"ltqo", "p", "track_level"}


def _check_config_value(key: str, val) -> None:
    """Reject a config-file value whose type differs from the flag's."""
    default = DEFAULTS[key]
    if default is None:
        if val is None:
            return
        expected = int if key in _INT_KEYS_WITHOUT_DEFAULT else str
    else:
        expected = type(default)
    accepted = (int, float) if expected is float else expected
    if isinstance(val, bool) or not isinstance(val, accepted):
        raise SystemExit(f"config key {key!r} must be {expected.__name__}, got {val!r}")
    if key == "code" and val not in registry_names():
        raise SystemExit(f"config key 'code': unknown code {val!r}")


def resolve_config(args: argparse.Namespace) -> dict:
    """Fold defaults, config file, and explicit flags (flags win)."""
    config = dict(DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_conf = json.load(fh)
        if not isinstance(file_conf, dict):
            raise SystemExit("config file must hold a JSON object")
        unknown = set(file_conf) - set(DEFAULTS)
        if unknown:
            raise SystemExit(f"unknown config keys: {sorted(unknown)}")
        for key, val in file_conf.items():
            _check_config_value(key, val)
        config.update(file_conf)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            config[key] = val
    config["subcommand"] = args.subcommand
    return config


def _scale_params(config: dict) -> ScaleParams:
    return ScaleParams(alpha=config["alpha"], ltqo=config["ltqo"])


def _parse_site(text: str, D: int) -> tuple[int, ...]:
    parts = [int(c) for c in text.split(",")]
    if len(parts) != D:
        raise SystemExit(f"expected {D} coordinates, got {text!r}")
    return tuple(parts)


def parse_operator(code: CodeInstance, text: str) -> PauliOperator:
    """Operator argument: ``LABEL@x,y,z`` (q Pauli chars at one site) or a
    step-per-line file."""
    g = code.geometry
    if "@" in text and not Path(text).exists():
        label, _, coords = text.partition("@")
        site = _parse_site(coords, g.D)
        if len(label) != g.q or any(c not in "IXYZ" for c in label):
            raise SystemExit(f"label {label!r} must be {g.q} Pauli characters")
        terms = [(QubitIndex(site, sub), p) for sub, p in enumerate(label) if p != "I"]
        return PauliOperator.from_terms(g, terms)
    path = Path(text)
    if not path.exists():
        raise SystemExit(f"operator file {text!r} not found")
    return ErrorPath.from_lines(path.read_text().splitlines(), g.D).product(code)


def _default_u(config: dict, code: CodeInstance) -> tuple[int, ...]:
    if config["u"]:
        return _parse_site(config["u"], code.geometry.D)
    return (0,) * code.geometry.D


# -- subcommands ------------------------------------------------------------------


def run_syndrome(config: dict) -> Report:
    code = get_code(config["code"], config["L"])
    report = Report("syndrome", config)
    if not config["op"]:
        raise SystemExit("syndrome requires --op")
    op = parse_operator(code, config["op"])
    syndrome = sorted(code.syndrome_of(op))
    rows = [(*cube, code.species_name(s)) for cube, s in syndrome]
    report.add_series("defects", tuple(f"c{i}" for i in range(code.geometry.D)) + ("species",), rows)
    report.add_check(
        "syndrome",
        PASS,
        {
            "weight": value(op.weight, PROV_MEASURED),
            "defect_count": value(len(syndrome), PROV_MEASURED),
        },
        notes="; ".join(f"{cube}:{code.species_name(s)}" for cube, s in syndrome),
    )
    return report


def run_pyramid(config: dict) -> Report:
    if config["sweep"]:
        return _run_pyramid_sweep(config)
    code = get_code(config["code"], config["L"])
    report = Report("pyramid", config)
    p = config["p"]
    if p is None:
        p = config["L"].bit_length() - 1
        if 2**p != config["L"]:
            raise SystemExit("pyramid needs --p when L is not a power of two")
    u = _default_u(config, code)
    path = pyramid_path(code, p, u)
    op = pyramid_operator(code, p, u)
    profile = energy_profile(code, path)
    bound = 4 * p + 4
    apex = (apex_cube(code, u), code.species_index("z"))
    expected = pyramid_syndrome(code, p, apex_cube(code, u))

    report.add_series("profile", ("t", "defect_count"), profile.csv_rows())
    measured = {
        "steps": value(len(path), PROV_CONSTRUCTED),
        "barrier": value(profile.barrier, PROV_CONSTRUCTED),
        "barrier_bound": value(bound, PROV_BOUND),
        "weight": value(op.weight, PROV_CONSTRUCTED),
    }
    report.add_check(
        "barrier_within_bound", PASS if profile.barrier <= bound else FAIL, measured
    )
    report.add_check(
        "final_syndrome",
        PASS if profile.final_syndrome == expected else FAIL,
        {"final_defects": value(len(profile.final_syndrome), PROV_CONSTRUCTED)},
    )
    report.add_check(
        "product_identity",
        PASS if path.product(code) == op else FAIL,
    )
    if 2**p < code.geometry.L:
        hist = syndrome_history(code, path)
        misses = [t for t, s in enumerate(hist.syndromes) if t > 0 and apex not in s]
        report.add_check(
            "apex_defect_after_every_step",
            PASS if not misses else FAIL,
            {"missing_steps": value(len(misses), PROV_MEASURED)},
        )
    else:
        zbar = logical_zbar(code, u)
        kind = verify_logical(code, op, anticommuting_witness=zbar)
        report.add_check(
            "closes_to_logical",
            PASS if kind == "logical" and not profile.final_syndrome else FAIL,
            {"classification": value(kind, PROV_MEASURED)},
            notes="level wraps the torus: apex invariant is replaced by the logical check",
        )
    return report


def _run_pyramid_sweep(config: dict) -> Report:
    """Barrier-versus-size series: one full-depth pyramid per lattice size."""
    report = Report("pyramid", config)
    rows = []
    ok = True
    for L in [int(x) for x in str(config["sweep"]).split(",")]:
        n = L.bit_length() - 1
        if 2**n != L:
            raise SystemExit(f"sweep sizes must be powers of two, got {L}")
        code = get_code(config["code"], L)
        path = pyramid_path(code, n, (0,) * 3)
        profile = energy_profile(code, path)
        bound = 4 * n + 4
        ok &= profile.barrier <= bound and not profile.final_syndrome
        rows.append((L, profile.barrier, bound))
    report.add_series("barrier_vs_L", ("L", "constructed_barrier", "bound_4log2L_plus_4"), rows)
    report.add_check(
        "sweep_within_bound",
        PASS if ok else FAIL,
        {"sizes": value(len(rows), PROV_CONSTRUCTED)},
        notes=", ".join(f"L={r[0]}:{r[1]}<={r[2]}" for r in rows),
    )
    return report


def _parse_target(code: CodeInstance, config: dict) -> PauliOperator:
    text = config["target"]
    if not text:
        raise SystemExit("barrier requires --target")
    if text == "all-x":
        g = code.geometry
        terms = [(g.qubit_at(j), "X") for j in range(g.n_qubits)]
        return PauliOperator.from_terms(g, terms)
    if text.startswith("pyramid:"):
        return pyramid_operator(code, int(text.split(":", 1)[1]), _default_u(config, code))
    return parse_operator(code, text)


def run_barrier(config: dict) -> Report:
    code = get_code(config["code"], config["L"])
    report = Report("barrier", config)
    target = _parse_target(code, config)
    budget = SearchBudget(omega_max=config["omega_max"], state_cap=config["state_cap"])
    result = min_barrier_logical(code, target, budget)
    measured = {
        "states_visited": value(result.states_visited, PROV_ORACLE),
        "target_weight": value(target.weight, PROV_MEASURED),
    }
    if result.exact:
        measured["omega"] = value(result.omega, PROV_ORACLE)
        measured["witness_steps"] = value(len(result.witness), PROV_ORACLE)
        report.add_series("witness_path", ("step",), [(line,) for line in result.witness.to_lines()])
        profile = energy_profile(code, result.witness)
        report.add_series("witness_profile", ("t", "defect_count"), profile.csv_rows())
        report.add_check("min_barrier", PASS, measured)
    else:
        measured["ruled_out_up_to"] = value(result.ruled_out, PROV_ORACLE)
        report.add_check("min_barrier", INDETERMINATE, measured, notes=result.status)
    return report


def run_distance(config: dict) -> Report:
    code = get_code(config["code"], config["L"])
    report = Report("distance", config)
    result = code_distance(code, SearchBudget(state_cap=config["state_cap"]))
    measured = {
        "classes": value(result.classes_enumerated, PROV_ORACLE),
        "elements": value(result.elements_enumerated, PROV_ORACLE),
        "skipped_diagonal_classes": value(result.skipped_diagonal_classes, PROV_ORACLE),
    }
    if result.status == "exact":
        measured["d"] = value(result.d, PROV_ORACLE)
        report.add_check("code_distance", PASS, measured)
    else:
        if result.d_upper is not None:
            measured["d_upper"] = value(result.d_upper, PROV_ORACLE)
        report.add_check("code_distance", INDETERMINATE, measured, notes="enumeration budget exhausted")
    return report


def run_rg(config: dict) -> Report:
    code = get_code(config["code"], config["L"])
    report = Report("rg", config)
    params = _scale_params(config)
    if config["track_level"] is not None and config["track_level"] < 0:
        raise SystemExit("--track-level must be non-negative")
    if config["path"]:
        path = Path(config["path"])
        if not path.exists():
            raise SystemExit(f"path file {config['path']!r} not found")
        steps = ErrorPath.from_lines(path.read_text().splitlines(), code.geometry.D)
    elif config["p"] is not None:
        steps = pyramid_path(code, config["p"], _default_u(config, code))
    else:
        raise SystemExit("rg requires --p or --path")
    history = syndrome_history(code, steps)
    analysis = level_histories(code, history, params)
    rows = [
        (lvl.level, len(lvl.retained), len(lvl.interior()), len(lvl.retained) - 1)
        for lvl in analysis.levels
    ]
    report.add_series("levels", ("level", "retained", "interior", "errors"), rows)
    nested = all(
        set(hi.retained) <= set(lo.retained)
        for lo, hi in zip(analysis.levels, analysis.levels[1:])
    )
    report.add_check(
        "level_nesting",
        PASS if nested else FAIL,
        {
            "p_max": value(analysis.p_max, PROV_MEASURED),
            "max_defects": value(history.m, PROV_MEASURED),
        },
    )
    counting_ok = all(
        len(history.syndromes[t]) >= lvl.level + 1
        for lvl in analysis.levels[1:]
        for t in lvl.interior()
    )
    report.add_check("retained_defect_floor", PASS if counting_ok else FAIL)
    if config["track_level"] is not None:
        _track_world_lines(report, code, history, analysis, config["track_level"], params)
    return report


def _track_world_lines(report, code, history, analysis, level, params) -> None:
    """World lines of charged clusters inside each level-(p+1) interval.

    Locking violations are diagnostics (codes with strings are expected to
    produce them); only dense-at-level segments make a segment unusable.
    """
    if level + 1 >= len(analysis.levels):
        report.add_check("world_lines", INDETERMINATE, notes="no such level in this history")
        return
    retained = analysis.levels[level + 1].retained
    segments = tracked = 0
    locking = continuity = ambiguous = 0
    for a, b in zip(retained, retained[1:]):
        interior = [history.syndromes[t] for t in range(a + 1, b) if history.syndromes[t]]
        if not interior:
            continue
        segments += 1
        try:
            _, track = track_charged_clusters(code, interior, level, params)
        except ValueError:
            continue  # segment not sparse at this level
        tracked += 1
        locking += len(track.locking_violations)
        continuity += len(track.continuity_violations)
        ambiguous += len(track.ambiguities)
    report.add_check(
        "world_lines",
        PASS,
        {
            "segments": value(segments, PROV_MEASURED),
            "tracked": value(tracked, PROV_MEASURED),
            "locking_violations": value(locking, PROV_MEASURED),
            "continuity_violations": value(continuity, PROV_MEASURED),
            "ambiguous_matchings": value(ambiguous, PROV_MEASURED),
        },
        notes="locking violations are diagnostics, not failures",
    )


def run_fractal(config: dict) -> Report:
    code = get_code(config["code"], config["L"])
    report = Report("fractal", config)
    if config["op"]:
        sites = parse_operator(code, config["op"]).support_sites()
        default_scales = [1, 2, 4]
    elif config["p"] is not None:
        sites = pyramid_operator(code, config["p"], _default_u(config, code)).support_sites()
        default_scales = [2**j for j in range(max(config["p"], 3))]
    else:
        raise SystemExit("fractal requires --p or --op")
    if config["scales"]:
        scales = [int(s) for s in str(config["scales"]).split(",")]
    else:
        scales = default_scales
    est = box_counting_dimension(sites, scales, code.geometry.L)
    report.add_series("boxcounts", ("scale", "count"), est.counts)
    report.add_check(
        "box_counting",
        PASS if not est.degenerate else INDETERMINATE,
        {
            "gamma": value(round(est.gamma, 6), PROV_MEASURED),
            "support": value(len(sites), PROV_MEASURED),
        },
    )
    return report


def run_strings(config: dict) -> Report:
    code = get_code(config["code"], config["L"])
    report = Report("strings", config)
    params = _scale_params(config)
    budget = ScanBudget(max_anchor_pairs=config["max_pairs"], max_patterns_per_pair=config["max_patterns"])
    scan = scan_for_strings(code, config["rho"], config["alpha"], budget, params)
    rows = [
        (str(f.box1.corner), str(f.box2.corner), f.aspect_ratio, len(f.syndrome), f.operator_weight)
        for f in scan.nontrivial
    ]
    report.add_series("segments", ("anchor1", "anchor2", "aspect_ratio", "defects", "weight"), rows)
    status = INDETERMINATE if scan.budget_exhausted else PASS
    report.add_check(
        "string_scan",
        status,
        {
            "nontrivial_found": value(len(scan.nontrivial), PROV_MEASURED),
            "pairs_scanned": value(scan.pairs_scanned, PROV_MEASURED),
            "patterns_tested": value(scan.patterns_tested, PROV_MEASURED),
        },
        notes="scan is evidence within budget, not a proof of absence",
    )
    return report


def run_check(config: dict) -> Report:
    code = get_code(config["code"], config["L"])
    g = code.geometry
    report = Report("check", config)
    frus = check_frustration_free(code)
    report.add_check(
        "pairwise_commutation",
        PASS if frus.commuting else FAIL,
        {
            "generators": value(frus.n_generators, PROV_MEASURED),
            "rank": value(frus.rank, PROV_MEASURED),
            "k": value(frus.k, PROV_MEASURED),
        },
        notes=frus.mode,
    )
    rng = np.random.default_rng(config["seed"])

    def random_op() -> PauliOperator:
        terms = []
        for _ in range(int(rng.integers(1, 6))):
            site = tuple(int(c) for c in rng.integers(0, g.L, size=g.D))
            terms.append((QubitIndex(site, int(rng.integers(0, g.q))), "XYZ"[int(rng.integers(0, 3))]))
        return PauliOperator.from_terms(g, terms)

    linear_ok = True
    for _ in range(50):
        a, b = random_op(), random_op()
        if code.syndrome_of(a * b) != code.syndrome_of(a) ^ code.syndrome_of(b):
            linear_ok = False
            break
    report.add_check("syndrome_linearity", PASS if linear_ok else FAIL)

    covariant_ok = True
    for _ in range(20):
        op = random_op()
        delta = tuple(int(c) for c in rng.integers(0, g.L, size=g.D))
        shifted = code.syndrome_of(op.translate(delta))
        expected = frozenset((g.shift(cube, delta), s) for cube, s in code.syndrome_of(op))
        if shifted != expected:
            covariant_ok = False
            break
    report.add_check("translation_covariance", PASS if covariant_ok else FAIL)

    empty_ok = all(not code.syndrome_of(gen) for _, gen in code.generators())
    report.add_check("generator_syndromes_empty", PASS if empty_ok else FAIL)

    if config["code"] == "cubic1":
        ok = True
        for _ in range(20):
            u = tuple(int(c) for c in rng.integers(0, g.L, size=3))
            op = PauliOperator.single(g, QubitIndex(u, 0), "X")
            if code.syndrome_of(op) != pyramid_syndrome(code, 0, apex_cube(code, u)):
                ok = False
                break
        report.add_check("bitflip_defect_pattern", PASS if ok else FAIL)
    return report


RUNNERS = {
    "syndrome": run_syndrome,
    "pyramid": run_pyramid,
    "barrier": run_barrier,
    "distance": run_distance,
    "rg": run_rg,
    "fractal": run_fractal,
    "strings": run_strings,
    "check": run_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = resolve_config(args)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return 0 if exc.code == 0 else USAGE_ERROR
        print(exc.code, file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError) as exc:  # unreadable or malformed config file
        print(f"error: config file: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        report = RUNNERS[args.subcommand](config)
        # Output destination and format are I/O plumbing, not experiment
        # parameters: identical experiments yield byte-identical reports.
        report.config = {k: v for k, v in report.config.items() if k not in ("out", "format", "config")}
        written = emit(report, config["out"], config["format"])
    except SystemExit as exc:
        print(exc.code, file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, CodeConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception:
        # A crash must not read as "a check failed" (1).
        traceback.print_exc()
        return INTERNAL_ERROR
    for check in report.checks:
        print(f"[{check.status.upper():>13}] {report.subcommand}:{check.name}"
              + (f"  ({check.notes})" if check.notes else ""))
        for key, tagged in sorted(check.measured.items()):
            print(f"{'':>16}{key} = {tagged['value']}  [{tagged['provenance']}]")
    for path in written:
        print(f"wrote {path}")
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
