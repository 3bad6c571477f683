"""Machine-readable run reports: deterministic JSON plus CSV series.

A report is fully determined by its config; timestamps live in a sidecar
metadata file so that identical configs produce byte-identical reports.
Every numeric claim carries a provenance tag saying how it was obtained.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"

# How a reported number was obtained.
PROV_CONSTRUCTED = "constructed"  # explicit construction evaluated exactly
PROV_ORACLE = "oracle"  # exhaustive search result
PROV_BOUND = "bound"  # analytic ceiling the measurement is compared against
PROV_MEASURED = "measured"  # direct measurement on the instance

_QUOTED = re.compile('[,"\r\n]')  # csv.QUOTE_MINIMAL: cells holding these are quoted


def value(v, provenance: str) -> dict:
    return {"value": v, "provenance": provenance}


@dataclass
class CheckResult:
    name: str
    status: str
    measured: dict = field(default_factory=dict)
    notes: str = ""


@dataclass
class Report:
    subcommand: str
    config: dict
    checks: list[CheckResult] = field(default_factory=list)
    series: dict = field(default_factory=dict)  # name -> (header, columns)

    def add_check(self, name: str, status: str, measured: dict | None = None, notes: str = "") -> None:
        self.checks.append(CheckResult(name, status, measured or {}, notes))

    def add_series(self, name: str, header, columns) -> None:
        """A CSV series held column-major: one sequence or array per header
        name, all of one length (callers holding rows pass ``zip(*rows)``)."""
        self.series[name] = (tuple(header), tuple(columns))

    @property
    def status(self) -> str:
        statuses = {c.status for c in self.checks}
        return next((s for s in (FAIL, INDETERMINATE) if s in statuses), PASS)

    def exit_code(self) -> int:
        return {PASS: 0, FAIL: 1, INDETERMINATE: 3}[self.status]

    def to_json_bytes(self) -> bytes:
        return json.dumps({
            "schema_version": SCHEMA_VERSION,
            "subcommand": self.subcommand,
            "config": self.config,
            "status": self.status,
            "checks": [vars(c) for c in self.checks],
            "series_files": {name: f"{name}.csv" for name in sorted(self.series)},
        }, sort_keys=True, indent=2).encode() + b"\n"


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _text(v, alone: bool) -> bytes:
    s = str(v)
    return ('"' + s.replace('"', '""') + '"' if _QUOTED.search(s) or (alone and not s) else s).encode()


def _csv_bytes(header, columns) -> bytes:
    """A series as ``csv.writer`` writes it (excel dialect): the header row,
    then one CRLF-ended row per cell index.  Signed integer arrays and lists
    of plain ints within int64 are cut into digits one decimal place at a
    time over all their cells at once.  Any other cell is ``str(value)`` in
    UTF-8, quoted (``"`` doubled) if it holds ``,``, ``"``, CR or LF or is a
    one-column row's empty cell.  Cells sit NUL-padded between ``,`` and
    CRLF in one byte matrix, and one mask drops the padding, so no cell may
    hold a NUL."""
    alone = len(header) == 1
    head = b",".join(_text(h, alone) for h in header) + b"\r\n"
    if not columns or not len(columns[0]):
        return head
    arrays = [np.asarray(c) if isinstance(c, np.ndarray) or set(map(type, c)) <= {int} else None for c in columns]
    ints = [j for j, a in enumerate(arrays) if a is not None and a.dtype.kind == "i"]
    cells = [None if j in ints else np.array([_text(v, alone) for v in c], "S").view(np.uint8).reshape(len(c), -1)
             for j, c in enumerate(columns)]
    if ints:
        raw = np.array([arrays[j] for j in ints], dtype=np.int64)  # [int column, row]
        mag = np.abs(raw).astype(np.uint64)  # abs(-2**63) wraps to itself, which reads as 2**63
        width = len(str(int(mag.max())))
        digits = np.zeros((width + 1, *raw.shape), np.uint8)  # [place, int column, row]: sign, then digits
        digits[0] = (raw < 0) * ord("-")
        # place k < width of a value below 10 ** (width - k) is a zero ahead of its first digit
        leading = mag < 10 ** np.arange(width - 1, 0, -1, dtype=np.uint64)[:, None, None]
        for k in range(width, 0, -1):
            mag, digits[k] = np.divmod(mag, 10)
        digits[1:] += ord("0")
        digits[1:width][leading] = 0
        for i, j in enumerate(ints):
            cells[j] = digits[:, i].T
    sep = np.full((len(columns[0]), 1), ord(","), np.uint8)
    out = np.concatenate([x for c in cells for x in (c, sep)] + [sep], axis=1)
    out[:, -2:] = (ord("\r"), ord("\n"))
    return head + out[out != 0].tobytes()


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
    files = {"report.json": report.to_json_bytes()} if formats in ("json", "both") else {}
    if formats in ("csv", "both"):
        files.update((f"{name}.csv", _csv_bytes(*report.series[name])) for name in sorted(report.series))
    written = [run_dir / name for name in files]
    for path, data in zip(written, files.values()):
        path.write_bytes(data)
    meta = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "config_hash": config_hash(report.config)}
    (run_dir / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return written
