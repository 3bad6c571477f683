"""Batch experiment runner: every analysis as a subcommand with reproducible
configs and machine-readable reports.

Exit codes: 0 all checks passed, 1 a check failed, 2 bad input: a flag, config
or input file that argparse rejects or that raises InputError or
CodeConstructionError, here or in the library (--sweep checks --L too), 3 a search
cut off by its budget or a string scan with no anchor pair (indeterminate, not
a failure), 4 internal error (any other exception, such as a failed self-audit).

Each runner imports the analysis modules it uses (``paths``, ``defects``,
``oracle``, ``rg``) in its own body, so a one-job run loads only those and
reads each analysis name from its defining module when the runner is called.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from functools import cache
from pathlib import Path

import numpy as np

from . import gf2
from .codes import (CodeConstructionError, CodeInstance, InputError, ScaleParams, SearchBudget, check_frustration_free,
                    get_code, registry_names)
from .lattice import QubitIndex
from .pauli import PAULI_CODE, PauliOperator, stacked_words
from .reports import FAIL, INDETERMINATE, PASS, PROV_BOUND, PROV_CONSTRUCTED, PROV_MEASURED, PROV_ORACLE, Report, emit, value

USAGE_ERROR = 2
INTERNAL_ERROR = 4


# Every flag once, as a (flag, type, default, least value, help) row.  The
# type is int, float, str, or the tuple of strings the flag may take; a least
# value of None leaves the flag unbounded.  A flag's config key is its name
# without the dashes, with "_" for "-".  Every subcommand takes the shared
# rows; its own rows are in ``SUBCOMMANDS``, below the runners.
SHARED_OPTIONS = [
    ("--code", tuple(registry_names()), "cubic1", None, "registered code name"),
    ("--L", int, 4, None, "linear lattice size"),
    ("--alpha", float, ScaleParams.alpha, 1, "no-strings aspect constant"),
    ("--ltqo", int, None, 1, "TQO length scale (default L // 2)"),
    ("--seed", int, 0, 0, "seed for randomized suites"),
    ("--out", str, "runs", None, "output directory"),
    ("--format", ("json", "csv", "both"), "both", None, "report formats"),
]


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared: parsing
    keeps no state in it, and building it costs more than most parses."""
    parser = argparse.ArgumentParser(
        prog="stabscape",
        description="Energy-landscape experiments on stabilizer-code Hamiltonians.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (summary, rows, _) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file; explicit flags override its keys")
        for flag, typ, default, _, text in SHARED_OPTIONS + rows:
            choices = typ if isinstance(typ, tuple) else None
            text += "" if default is None else f" (default {default})"  # each default stated once, in its row
            p.add_argument(flag, type=str if choices else typ, choices=choices, help=text)
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """Fold defaults, config file, and explicit flags (flags win), then hold
    every value, whatever the subcommand, to its flag's least value."""
    config = dict(DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_conf = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable or malformed
            raise InputError(f"config file: {exc}") from None
        if not isinstance(file_conf, dict):
            raise InputError("config file must hold a JSON object")
        if unknown := sorted(set(file_conf) - set(DEFAULTS)):
            raise InputError(f"unknown config keys: {unknown}")
        for key, val in file_conf.items():
            _, typ, default, _, _ = OPTIONS[key]
            if val is None and default is None:
                continue  # null leaves a key without a default unset
            kind = str if isinstance(typ, tuple) else typ
            if isinstance(val, bool) or not isinstance(val, (int, float) if kind is float else kind):
                raise InputError(f"config key {key!r} must be {kind.__name__}, got {val!r}")
            if isinstance(typ, tuple) and val not in typ:
                raise InputError(f"config key {key!r}: unknown {key} {val!r}")
        config.update(file_conf)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            config[key] = val
    for key, (flag, _, _, least, _) in OPTIONS.items():
        # a chained `not least <= v < inf` rather than `v < least`, so that NaN and infinity fail too
        if least is not None and config[key] is not None and not least <= config[key] < math.inf:
            raise InputError(f"{flag} must be at least {least}")
    config["subcommand"] = args.subcommand
    return config


def _ints(text, flag: str) -> list[int]:
    """A flag's comma-separated integers; anything else is a usage error."""
    try:
        return [int(c) for c in str(text).split(",")]
    except ValueError:
        raise InputError(f"{flag} takes comma-separated integers, got {text!r}") from None


def _parse_site(text: str, D: int) -> tuple[int, ...]:
    parts = _ints(text, "a site")
    if len(parts) != D:
        raise InputError(f"expected {D} coordinates, got {text!r}")
    return tuple(parts)


def parse_operator(code: CodeInstance, text: str) -> PauliOperator:
    """Operator argument: ``LABEL@x,y,z`` (q Pauli chars at one site) or a
    step-per-line file."""
    g = code.geometry
    if "@" in text and not Path(text).exists():
        label, _, coords = text.partition("@")
        site = _parse_site(coords, g.D)
        if len(label) != g.q or any(c not in "IXYZ" for c in label):
            raise InputError(f"label {label!r} must be {g.q} Pauli characters")
        terms = [(QubitIndex(site, sub), p) for sub, p in enumerate(label) if p != "I"]
        return PauliOperator.from_terms(g, terms)
    from .paths import ErrorPath
    return ErrorPath.from_lines(_read_lines(text, "operator file"), g.D, g.q).product(code)


def _read_lines(text: str, what: str) -> list[str]:
    """Lines of an input file; a missing or unreadable one is a usage error."""
    try:
        return Path(text).read_text().splitlines()
    except FileNotFoundError:
        raise InputError(f"{what} {text!r} not found") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{what} {text!r} is unreadable: {exc}") from None


def _default_u(config: dict, code: CodeInstance) -> tuple[int, ...]:
    if config["u"]:
        return _parse_site(config["u"], code.geometry.D)
    return (0,) * code.geometry.D


# -- subcommands ------------------------------------------------------------------


def run_syndrome(config: dict, code: CodeInstance, report: Report) -> None:
    if not config["op"]:
        raise InputError("syndrome requires --op")
    op = parse_operator(code, config["op"])
    syndrome = sorted(code.syndrome_of(op))
    rows = [(*cube, code.species_name(s)) for cube, s in syndrome]
    report.add_series("defects", tuple(f"c{i}" for i in range(code.geometry.D)) + ("species",), zip(*rows))
    report.add_check(
        "syndrome",
        PASS,
        {
            "weight": value(op.weight, PROV_MEASURED),
            "defect_count": value(len(syndrome), PROV_MEASURED),
        },
        notes="; ".join(f"{cube}:{code.species_name(s)}" for cube, s in syndrome),
    )


def run_pyramid(config: dict, code: CodeInstance, report: Report) -> None:
    from .paths import (apex_cube, defect_after_each_step, energy_profile, logical_zbar, pyramid_path, pyramid_syndrome,
                        verify_logical)
    if config["sweep"]:
        return _run_pyramid_sweep(config, report)
    p = config["p"]
    if p is None:
        p = config["L"].bit_length() - 1
        if 2**p != config["L"]:
            raise InputError("pyramid needs --p when L is not a power of two")
    u = _default_u(config, code)
    path = pyramid_path(code, p, u)
    op = path.product(code)
    profile = energy_profile(code, path)
    bound = 4 * p + 4
    apex = (apex_cube(code, u), code.species_index("z"))
    expected = pyramid_syndrome(code, p, apex_cube(code, u))

    report.add_series("profile", ("t", "defect_count"), (np.arange(len(path) + 1), profile.counts))
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
    # the 4**p X steps hit distinct qubits, so none cancels in the product
    report.add_check("product_identity", PASS if op.weight == len(path) and not op.zwords.any() else FAIL)
    if 2**p < code.geometry.L:
        misses = int(np.count_nonzero(~defect_after_each_step(code, path, apex)))
        report.add_check(
            "apex_defect_after_every_step",
            PASS if not misses else FAIL,
            {"missing_steps": value(misses, PROV_MEASURED)},
        )
    else:
        zbar = logical_zbar(code, u)
        # one walk: the profile's final syndrome is the syndrome of the product
        kind = verify_logical(code, op, anticommuting_witness=zbar, syndrome=profile.final_syndrome)
        report.add_check(
            "closes_to_logical",
            PASS if kind == "logical" else FAIL,
            {"classification": value(kind, PROV_MEASURED)},
            notes="level wraps the torus: apex invariant is replaced by the logical check",
        )


def _run_pyramid_sweep(config: dict, report: Report) -> None:
    """Barrier-versus-size series: one full-depth pyramid per lattice size."""
    from .paths import energy_profile, pyramid_path
    rows = []
    ok = True
    for L in _ints(config["sweep"], "--sweep"):
        n = L.bit_length() - 1
        if 2**n != L:
            raise InputError(f"sweep sizes must be powers of two, got {L}")
        code = get_code(config["code"], L)
        path = pyramid_path(code, n, (0,) * 3)
        profile = energy_profile(code, path)
        bound = 4 * n + 4
        ok &= profile.barrier <= bound and not profile.final_syndrome
        rows.append((L, profile.barrier, bound))
    report.add_series("barrier_vs_L", ("L", "constructed_barrier", "bound_4log2L_plus_4"), zip(*rows))
    report.add_check(
        "sweep_within_bound",
        PASS if ok else FAIL,
        {"sizes": value(len(rows), PROV_CONSTRUCTED)},
        notes=", ".join(f"L={r[0]}:{r[1]}<={r[2]}" for r in rows),
    )


def _parse_target(code: CodeInstance, config: dict) -> PauliOperator:
    text = config["target"]
    if not text:
        raise InputError("barrier requires --target")
    if text == "all-x":
        g = code.geometry
        terms = [(g.qubit_at(j), "X") for j in range(g.n_qubits)]
        return PauliOperator.from_terms(g, terms)
    if text.startswith("pyramid:"):
        from .paths import pyramid_operator
        level = text.split(":", 1)[1]
        if not level.isdecimal():
            raise InputError(f"--target pyramid:P takes a non-negative integer P, got {level!r}")
        return pyramid_operator(code, int(level), _default_u(config, code))
    return parse_operator(code, text)


def _budget(config: dict) -> SearchBudget:
    return SearchBudget(**{key: config[key] for key in ("omega_max", "state_cap", "max_pairs", "max_patterns")})


def run_barrier(config: dict, code: CodeInstance, report: Report) -> None:
    from .oracle import min_barrier_logical
    from .paths import energy_profile
    target = _parse_target(code, config)
    result = min_barrier_logical(code, target, _budget(config))
    measured = {
        "states_visited": value(result.states_visited, PROV_ORACLE),
        "target_weight": value(target.weight, PROV_MEASURED),
    }
    if result.exact:
        measured["omega"] = value(result.omega, PROV_ORACLE)
        measured["witness_steps"] = value(len(result.witness), PROV_ORACLE)
        report.add_series("witness_path", ("step",), [result.witness.to_lines()])
        profile = energy_profile(code, result.witness)
        report.add_series("witness_profile", ("t", "defect_count"), (np.arange(len(profile.counts)), profile.counts))
        report.add_check("min_barrier", PASS, measured)
    else:
        measured["ruled_out_up_to"] = value(result.ruled_out, PROV_ORACLE)
        report.add_check("min_barrier", INDETERMINATE, measured, notes=result.status)


def run_distance(config: dict, code: CodeInstance, report: Report) -> None:
    from .oracle import code_distance
    result = code_distance(code, _budget(config))
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


def run_rg(config: dict, code: CodeInstance, report: Report) -> None:
    from .paths import ErrorPath, pyramid_path
    from .rg import level_histories, syndrome_history
    params = ScaleParams(alpha=config["alpha"], ltqo=config["ltqo"])
    if config["path"]:
        path = ErrorPath.from_lines(_read_lines(config["path"], "path file"), code.geometry.D, code.geometry.q)
    elif config["p"] is not None:
        path = pyramid_path(code, config["p"], _default_u(config, code))
    else:
        raise InputError("rg requires --p or --path")
    history = syndrome_history(code, path)
    analysis = level_histories(code, history, params)
    rows = [
        (lvl.level, len(lvl.retained), len(lvl.interior()), len(lvl.retained) - 1)
        for lvl in analysis.levels
    ]
    report.add_series("levels", ("level", "retained", "interior", "errors"), zip(*rows))
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


def _track_world_lines(report, code, history, analysis, level, params) -> None:
    """World lines of charged clusters inside each level-(p+1) interval.

    Locking violations are diagnostics (codes with strings are expected to
    produce them); only dense-at-level segments make a segment unusable.
    """
    from .rg import DenseSegmentError, track_charged_clusters
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
        except DenseSegmentError:
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


def run_fractal(config: dict, code: CodeInstance, report: Report) -> None:
    from .paths import pyramid_operator
    from .rg import box_counting_dimension
    if config["op"]:
        sites = parse_operator(code, config["op"]).support_coords()
        default_scales = [1, 2, 4]
    elif config["p"] is not None:
        sites = pyramid_operator(code, config["p"], _default_u(config, code)).support_coords()
        default_scales = [2**j for j in range(max(config["p"], 3))]
    else:
        raise InputError("fractal requires --p or --op")
    if config["scales"]:
        scales = _ints(config["scales"], "--scales")
    else:
        scales = default_scales
    est = box_counting_dimension(sites, scales)
    report.add_series("boxcounts", ("scale", "count"), zip(*est.counts))
    report.add_check(
        "box_counting",
        PASS if not est.degenerate else INDETERMINATE,
        {
            "gamma": value(round(est.gamma, 6), PROV_MEASURED),
            "support": value(len(sites), PROV_MEASURED),
        },
    )


def run_strings(config: dict, code: CodeInstance, report: Report) -> None:
    from .defects import scan_for_strings
    params = ScaleParams(alpha=config["alpha"], ltqo=config["ltqo"])
    scan = scan_for_strings(code, config["rho"], _budget(config), params)
    rows = [
        (str(f.box1.corner), str(f.box2.corner), f.aspect_ratio, len(f.syndrome), f.operator_weight)
        for f in scan.nontrivial
    ]
    report.add_series("segments", ("anchor1", "anchor2", "aspect_ratio", "defects", "weight"), zip(*rows))
    report.add_check(
        "string_scan",
        INDETERMINATE if scan.budget_exhausted or not scan.pairs_scanned else PASS,
        {
            "nontrivial_found": value(len(scan.nontrivial), PROV_MEASURED),
            "pairs_scanned": value(scan.pairs_scanned, PROV_MEASURED),
            "patterns_tested": value(scan.patterns_tested, PROV_MEASURED),
        },
        notes="scan is evidence within budget, not a proof of absence" if scan.pairs_scanned else
        f"no anchor pair of size {config['rho']} has an aspect ratio above {config['alpha']} on this torus",
    )


def run_check(config: dict, code: CodeInstance, report: Report) -> None:
    g = code.geometry
    frus = check_frustration_free(code)
    report.add_check(
        "pairwise_commutation",
        PASS if frus.commuting else FAIL,
        {
            "generators": value(frus.n_generators, PROV_MEASURED),
            "rank": value(frus.rank, PROV_MEASURED),
            "k": value(frus.k, PROV_MEASURED),
        },
        notes="exhaustive",
    )
    rng = np.random.default_rng(config["seed"])

    def draw(count: int) -> tuple[np.ndarray, ...]:
        """Factor rows, sites, sub-qubit slots and Pauli codes (1-3: X, Z, Y)
        of ``count`` random operators of 1-5 factors each."""
        rows = np.repeat(np.arange(count), rng.integers(1, 6, size=count))
        n = len(rows)
        return rows, rng.integers(0, g.L, size=(n, g.D)), rng.integers(0, g.q, size=n), rng.integers(1, 4, size=n)

    def syndromes(count: int, rows, sites, subs, paulis) -> np.ndarray:
        """Syndrome words of ``count`` operators given as factors: one stacked
        build of their words and one kernel call."""
        qubits = g.site_indices(sites) * g.q + subs
        return code.syndrome_words(*stacked_words(g, qubits, paulis, rows, count))

    def moved(words: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """Syndrome word rows with every defect of row r moved by ``deltas[r]``."""
        rows, gens = gf2.nonzero_bits(words)
        cubes, species = np.divmod(gens, code.n_species)
        coords = np.array(np.unravel_index(cubes, (g.L,) * g.D)).T
        gens = g.site_indices(coords + deltas[rows]) * code.n_species + species
        return gf2.from_bits(rows, gens, len(words), code.n_generators)

    # rows 0-49 the a operators, 50-99 the b operators, 100-149 each pair's product
    rows, *factors = draw(100)
    s = syndromes(150, np.concatenate([rows, 100 + rows % 50]), *(np.concatenate([f, f]) for f in factors))
    s = s.reshape(3, 50, -1)
    report.add_check("syndrome_linearity", PASS if (s[2] == s[0] ^ s[1]).all() else FAIL)

    # rows 0-19 the operators, 20-39 each one moved by its own delta
    rows, sites, subs, paulis = draw(20)
    deltas = rng.integers(0, g.L, size=(20, g.D))
    s = syndromes(40, np.concatenate([rows, rows + 20]), np.concatenate([sites, sites + deltas[rows]]),
                  np.tile(subs, 2), np.tile(paulis, 2)).reshape(2, 20, -1)
    report.add_check("translation_covariance", PASS if (s[1] == moved(s[0], deltas)).all() else FAIL)

    # The commutation audit already took every generator's syndrome.
    report.add_check("generator_syndromes_empty", PASS if frus.commuting else FAIL)

    if config["code"] == "cubic1":
        from .paths import apex_cube, pyramid_syndrome
        sites = rng.integers(0, g.L, size=(20, 3))
        flips = syndromes(20, np.arange(20), sites, np.zeros(20, dtype=np.int64), np.full(20, PAULI_CODE["X"]))
        origin = code.syndrome_to_words(pyramid_syndrome(code, 0, apex_cube(code, (0, 0, 0))))  # an X flip at the origin
        report.add_check("bitflip_defect_pattern", PASS if (flips == moved(np.tile(origin, (20, 1)), sites)).all() else FAIL)


# Each subcommand's (summary, own option rows, runner); a flag that several
# subcommands take is one named row.  A runner fills in the report that
# ``main`` made for it, on the code that ``main`` built.
_LEVEL = ("--p", int, None, None, "pyramid level of the generated path or support (pyramid: default log2 L)")
_OP = ("--op", str, None, None, "operator: LABEL@x,y,z or a step-per-line file")
_STATE_CAP = ("--state-cap", int, SearchBudget.state_cap, 1, "search state or enumeration budget")
SUBCOMMANDS = {
    "syndrome": ("apply an operator and print its defects", [_OP], run_syndrome),
    "pyramid": ("build a pyramid path and audit its profile", [
        _LEVEL,
        ("--u", str, None, None, "base site, comma-separated (default origin)"),
        ("--sweep", str, None, None, "comma-separated lattice sizes for a barrier-vs-L series"),
    ], run_pyramid),
    "barrier": ("exact minimal energy barrier (oracle)", [
        ("--target", str, None, None, "all-x, pyramid:P, or an operator file"),
        ("--omega-max", int, SearchBudget.omega_max, 0, "barrier ceiling for the search"),
        _STATE_CAP,
    ], run_barrier),
    "distance": ("exact code distance (oracle)", [_STATE_CAP], run_distance),
    "rg": ("level histories and world lines of a path", [
        _LEVEL,
        ("--path", str, None, None, "path file (step per line) instead of a pyramid"),
        ("--track-level", int, None, 0, "also track charged-cluster world lines at this level"),
    ], run_rg),
    "fractal": ("box-counting dimension of a support", [
        _LEVEL,
        _OP,
        ("--scales", str, None, None, "comma-separated box scales"),
    ], run_fractal),
    "strings": ("scan for non-trivial string segments", [
        ("--rho", int, 1, 1, "anchor size"),
        ("--max-pairs", int, SearchBudget.max_pairs, 1, "anchor-pair budget"),
        ("--max-patterns", int, SearchBudget.max_patterns, 1, "patterns per pair budget"),
    ], run_strings),
    "check": ("frustration-freeness and fixture audits", [], run_check),
}
OPTIONS = {row[0][2:].replace("-", "_"): row
           for row in SHARED_OPTIONS + [row for _, rows, _ in SUBCOMMANDS.values() for row in rows]}
DEFAULTS = {key: default for key, (_, _, default, _, _) in OPTIONS.items()}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = resolve_config(args)
        report = Report(args.subcommand, config)
        SUBCOMMANDS[args.subcommand][2](config, get_code(config["code"], config["L"]), report)
        # Output destination and format are I/O plumbing, not experiment
        # parameters: identical experiments yield byte-identical reports.
        report.config = {k: v for k, v in report.config.items() if k not in ("out", "format", "config")}
        written = emit(report, config["out"], config["format"])
    except SystemExit as exc:  # argparse's own exit: 0 after --help, 2 for a flag it rejects
        return 0 if exc.code == 0 else USAGE_ERROR
    except (InputError, CodeConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception:
        # A crash must read neither as "a check failed" (1) nor as bad input (2).
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
