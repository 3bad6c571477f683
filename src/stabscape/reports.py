"""Machine-readable run reports: deterministic JSON plus CSV series.

A report is fully determined by its config; timestamps live in a sidecar
metadata file so that identical configs produce byte-identical reports.
Every numeric claim carries a provenance tag saying how it was obtained.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"

# How a reported number was obtained.
PROV_CONSTRUCTED = "constructed"  # explicit construction evaluated exactly
PROV_ORACLE = "oracle"  # exhaustive search result
PROV_BOUND = "bound"  # analytic ceiling the measurement is compared against
PROV_MEASURED = "measured"  # direct measurement on the instance


def value(v, provenance: str) -> dict:
    return {"value": v, "provenance": provenance}


@dataclass
class CheckResult:
    name: str
    status: str
    measured: dict = field(default_factory=dict)
    notes: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "measured": self.measured, "notes": self.notes}


@dataclass
class Report:
    subcommand: str
    config: dict
    checks: list[CheckResult] = field(default_factory=list)
    series: dict = field(default_factory=dict)  # name -> list of rows
    series_columns: dict = field(default_factory=dict)  # name -> header tuple

    def add_check(self, name: str, status: str, measured: dict | None = None, notes: str = "") -> CheckResult:
        check = CheckResult(name, status, measured or {}, notes)
        self.checks.append(check)
        return check

    def add_series(self, name: str, columns, rows) -> None:
        self.series_columns[name] = tuple(columns)
        self.series[name] = list(rows)

    @property
    def status(self) -> str:
        statuses = {c.status for c in self.checks}
        if FAIL in statuses:
            return FAIL
        if INDETERMINATE in statuses:
            return INDETERMINATE
        return PASS

    def exit_code(self) -> int:
        return {PASS: 0, FAIL: 1, INDETERMINATE: 3}[self.status]

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "subcommand": self.subcommand,
            "config": self.config,
            "status": self.status,
            "checks": [c.as_dict() for c in self.checks],
            "series_files": {name: f"{name}.csv" for name in sorted(self.series)},
        }

    def to_json_bytes(self) -> bytes:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2).encode() + b"\n"


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def emit(report: Report, out_dir: str | Path, formats: str = "both") -> list[Path]:
    """Write the report document and CSV series under a config-addressed
    directory; returns the written paths.

    The JSON report is byte-stable across reruns; wall-clock metadata goes to
    ``meta.json`` next to it.
    """
    if formats not in ("json", "csv", "both"):
        raise ValueError(f"unknown format {formats!r}")
    run_dir = Path(out_dir) / f"{report.subcommand}-{config_hash(report.config)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if formats in ("json", "both"):
        path = run_dir / "report.json"
        path.write_bytes(report.to_json_bytes())
        written.append(path)
    if formats in ("csv", "both"):
        for name in sorted(report.series):
            path = run_dir / f"{name}.csv"
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(report.series_columns[name])
                writer.writerows(report.series[name])
            written.append(path)
    meta = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "config_hash": config_hash(report.config)}
    meta_path = run_dir / "meta.json"
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return written
