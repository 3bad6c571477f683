"""End-to-end benchmark of the stabscape CLI on seeded job streams.

One client in one single-threaded process drives ``stabscape.cli.main(argv)``
in a closed loop: the next job starts when the previous one has returned.  A
workload is a fixed round of real subcommands whose inputs (base sites,
X-string offsets, ``check --seed`` values) come from ``--seed``; job kinds and
sizes never depend on the seed.  Every job's exit code and ``report.json``
digest is checked against ``perfbench/expected.json``.

    python3 perfbench/run.py --workload landscape --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seconds 18      # each workload in a fresh process
    python3 perfbench/run.py --record                         # rewrite expected.json (seed 0)

The last line of standard output is one JSON object: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced batch with ``--trace 1``.
See perfbench/NOTES.md for the workloads, metrics and baseline figures.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: check_frustration_free runs a BLAS matmul, and a
# threaded BLAS would make the single-client timings depend on idle cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = ROOT / "perfbench" / "expected.json"
# Relative to ROOT, where the benchmark runs: report.json stores the input
# paths given on the command line, so they must not depend on the checkout.
WORK = Path("perfbench") / "out"
INPUTS = WORK / "inputs"
RUNS = WORK / "runs"

DEFAULT_SEED = 0
MIN_ROUNDS = 3  # peak RSS is read after this many timed rounds
SETUP_REPEATS = 9
TRACE_MIN_ROUNDS = 2
HARD_LIMIT_S = 120.0  # stop starting rounds past this, whatever the minimum
# Median calibration sample on the reference box (NOTES.md).  Timings are
# reported at that speed: raw seconds times CALIBRATION_REF_S over the run's
# median sample, which cancels the host's drift over minutes.
CALIBRATION_REF_S = 0.010

SETUP_SNIPPET = """
import json, sys, time
t0 = time.perf_counter()
import stabscape
for name, L in json.loads(sys.argv[1]):
    stabscape.get_code(name, L)
print(time.perf_counter() - t0)
"""


@dataclass(frozen=True)
class Job:
    id: str  # seed-independent; names the input files and the expected digest
    kind: str
    argv: tuple[str, ...]
    expect_exit: int = 0


@dataclass
class Outcome:
    job: Job
    seconds: float
    exit_code: int | None
    report_sha256: str | None
    invariant_sha256: str | None
    ok: bool = False


# -- workloads ----------------------------------------------------------------
#
# A workload is one round of jobs, repeated whole.  The counts put as many
# jobs below the median job kind as above it, so the median sits mid-kind
# rather than on the edge between two kinds, and give the slowest kind at
# least ~15 jobs per run, so job_tail_s sits inside it.


def _site(rng: random.Random, D: int, L: int) -> str:
    return ",".join(str(rng.randrange(L)) for _ in range(D))


def _write(name: str, text: str) -> str:
    path = INPUTS / name
    path.write_text(text)
    return str(path)


class _Round:
    def __init__(self, workload: str):
        self.workload = workload
        self.jobs: list[Job] = []

    def add(self, kind: str, count: int, make_argv, expect_exit: int = 0) -> None:
        for i in range(1, count + 1):
            job_id = f"{self.workload}-{kind}-{i}"
            self.jobs.append(Job(job_id, kind, tuple(make_argv(job_id)), expect_exit))


def landscape(rng: random.Random) -> list[Job]:
    """Pyramid walks and fractal supports on cubic1: the syndrome walker."""
    r = _Round("landscape")
    r.add("pyr32-p4", 6, lambda j: ["pyramid", "--code", "cubic1", "--L", "32", "--p", "4", "--u", _site(rng, 3, 32)])
    r.add("pyr128-p6", 6, lambda j: ["pyramid", "--code", "cubic1", "--L", "128", "--p", "6", "--u", _site(rng, 3, 128)])
    r.add("fractal", 1, lambda j: ["fractal", "--code", "cubic1", "--L", "128", "--p", "7"])
    r.add("sweep", 1, lambda j: ["pyramid", "--code", "cubic1", "--sweep", "2,4,8,16,32,64,128"])
    r.add("pyr128-p7-wrap", 4, lambda j: ["pyramid", "--code", "cubic1", "--L", "128", "--p", "7", "--u", _site(rng, 3, 128)])
    return r.jobs


def rg_ladder(rng: random.Random) -> list[Job]:
    """RG level histories of cubic1 pyramid paths: cluster_partition."""
    r = _Round("rg-ladder")

    def rg(L: int, p: int, *extra: str):
        # rg has no --u flag; the base site goes in through a config file.
        return lambda j: ["rg", "--code", "cubic1", "--L", str(L), "--p", str(p), *extra,
                          "--config", _write(f"{j}.json", json.dumps({"u": _site(rng, 3, L)}))]

    r.add("rg64-p3", 4, rg(64, 3))
    r.add("rg16-p3-track", 3, rg(16, 3, "--track-level", "1", "--ltqo", "4"))
    r.add("rg32-p4", 2, rg(32, 4))
    r.add("rg64-p4", 2, rg(64, 4))
    return r.jobs


def oracle(rng: random.Random) -> list[Job]:
    """Exact barrier and distance searches over stabilizer cosets."""
    r = _Round("oracle")

    def xstring(L: int):
        def make(j):
            y = rng.randrange(L)
            lines = "".join(f"{x} {y} 1 X\n" for x in range(L))
            return ["barrier", "--code", "toric2d", "--L", str(L), "--target", _write(f"{j}.op", lines)]
        return make

    def capped(j):
        config = _write(f"{j}.json", json.dumps({"u": _site(rng, 3, 4)}))
        return ["barrier", "--code", "cubic1", "--L", "4", "--target", "pyramid:2",
                "--state-cap", "6000", "--config", config]

    r.add("xs4", 1, xstring(4))
    r.add("xs5", 1, xstring(5))
    r.add("xs6", 3, xstring(6))
    r.add("xs7", 3, xstring(7))
    r.add("capped-pyramid", 2, capped, expect_exit=3)
    r.add("dist-toric2d-3", 1, lambda j: ["distance", "--code", "toric2d", "--L", "3"])
    r.add("dist-cubic1-2", 1, lambda j: ["distance", "--code", "cubic1", "--L", "2"])
    r.add("dist-rep1d-8", 1, lambda j: ["distance", "--code", "rep1d", "--L", "8"])
    return r.jobs


def local_solves(rng: random.Random) -> list[Job]:
    """Box-restricted solves of the string scan, and the syndrome audits of check."""
    r = _Round("local-solves")
    r.add("strings-toric2d-6", 1, lambda j: ["strings", "--code", "toric2d", "--L", "6", "--alpha", "3"])
    r.add("check-toric3d-4", 3, lambda j: ["check", "--code", "toric3d", "--L", "4", "--seed", str(rng.randrange(10**6))])
    r.add("strings-cubic1-6", 3, lambda j: ["strings", "--code", "cubic1", "--L", "6", "--alpha", "3"])
    r.add("check-cubic1-8", 4, lambda j: ["check", "--code", "cubic1", "--L", "8", "--seed", str(rng.randrange(10**6))])
    return r.jobs


WORKLOADS = {
    "landscape": landscape,
    "rg-ladder": rg_ladder,
    "oracle": oracle,
    "local-solves": local_solves,
}

# job_tail_s: the highest percentile with at least ten jobs beyond it in a
# run at the seed state, fixed so that it sits in the same place in the
# slowest job kind however many rounds a run completes.
TAIL_PERCENTILE = {"landscape": 85, "rg-ladder": 80, "oracle": 90, "local-solves": 85}


def codes_used(jobs: list[Job]) -> list[tuple[str, int]]:
    """Every (code, L) instance a round builds, each once."""
    out: set[tuple[str, int]] = set()
    for job in jobs:
        argv = list(job.argv)
        name = argv[argv.index("--code") + 1]
        if "--sweep" in argv:
            out.update((name, int(L)) for L in argv[argv.index("--sweep") + 1].split(","))
        else:
            out.add((name, int(argv[argv.index("--L") + 1])))
    return sorted(out)


# -- running jobs -------------------------------------------------------------


def invariant_digest(report: bytes) -> str:
    """Digest of the report without its config block.  The config holds the
    seeded base sites and seeds; everything else is the same for every seed
    because the codes are translation invariant."""
    doc = json.loads(report)
    doc.pop("config")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def run_job(cli, job: Job) -> Outcome:
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            exit_code = cli.main([*job.argv, "--out", str(RUNS)])
    except Exception:  # a crash is a failed job, and the client keeps going
        return Outcome(job, time.perf_counter() - start, None, None, None)
    seconds = time.perf_counter() - start
    report = None
    for line in sink.getvalue().splitlines():
        if line.startswith("wrote ") and line.endswith("report.json"):
            path = Path(line[len("wrote "):])
            report = path.read_bytes()
            path.unlink()  # a later round must write it again to pass
    if report is None:
        return Outcome(job, seconds, exit_code, None, None)
    return Outcome(job, seconds, exit_code, hashlib.sha256(report).hexdigest(), invariant_digest(report))


def grade(outcome: Outcome, expected: dict, seed: int) -> Outcome:
    want = expected.get(outcome.job.id)
    outcome.ok = bool(
        want is not None
        and outcome.exit_code == outcome.job.expect_exit
        and outcome.invariant_sha256 == want["invariant_sha256"]
        and (seed != DEFAULT_SEED or outcome.report_sha256 == want["report_sha256"])
    )
    return outcome


class Calibrator:
    """Fixed samples of the two kinds of work stabscape does: interpreter
    work on tuples, sets and dicts, and NumPy passes over arrays larger than
    a core's private caches.  The benchmark never changes this work, so its
    time tracks only the speed the shared host gives the process.  The arrays
    are allocated once, so page faults stay out of the samples, and the
    cyclic collector is off while a sample runs, so the size of the program's
    heap stays out too."""

    def __init__(self):
        self.src = np.ones(1 << 18, dtype=np.uint64)
        self.dst = np.ones(1 << 18, dtype=np.uint64)
        self.samples: list[float] = []

    def sample(self) -> None:
        gc.disable()
        try:
            start = time.perf_counter()
            live: set = set()
            last: dict = {}
            for i in range(20_000):
                key = (i % 211, i % 199, i % 197)
                if key in live:
                    live.discard(key)
                else:
                    live.add(key)
                last[key] = i
            for k in range(3):
                np.bitwise_xor(self.src, np.uint64(k), out=self.dst)
                np.bitwise_xor(self.dst, np.uint64(k), out=self.src)
            self.samples.append(time.perf_counter() - start)
        finally:
            gc.enable()

    def median(self) -> float:
        return statistics.median(self.samples)


def at_reference(value: float, unit: str, calibration_s: float) -> float:
    """A measured time or rate restated at the reference host speed."""
    speed = CALIBRATION_REF_S / calibration_s
    return value * {"s": speed, "1/s": 1 / speed}.get(unit, 1.0)


@dataclass
class Batch:
    outcomes: list[Outcome]
    seconds: float  # wall time of the jobs and their checks, calibration excluded
    rounds: int
    rss_mib: float  # peak RSS after min_rounds rounds
    calibration_s: float  # median calibration sample


def run_rounds(cli, jobs, expected, seed, seconds, min_rounds) -> Batch:
    """Closed loop over whole rounds until ``seconds`` have passed and at
    least ``min_rounds`` rounds are done, with a calibration sample after
    every job."""
    outcomes: list[Outcome] = []
    calibrator = Calibrator()
    rounds = 0
    rss_mib = None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (rounds >= min_rounds and elapsed >= seconds):
            break
        for job in jobs:
            outcomes.append(grade(run_job(cli, job), expected, seed))
            calibrator.sample()
        rounds += 1
        if rounds == min_rounds:
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rss_mib is None:  # cut short by HARD_LIMIT_S
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = time.perf_counter() - start - sum(calibrator.samples)
    return Batch(outcomes, wall, rounds, rss_mib, calibrator.median())


def measure_setup(codes: list[tuple[str, int]]) -> tuple[float, float]:
    """Median over fresh interpreters of importing stabscape and building
    every instance the workload uses, and the median calibration sample
    taken between them."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    calibrator = Calibrator()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, json.dumps(codes)],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip()))
        calibrator.sample()
    return statistics.median(times), calibrator.median()


def tail(times: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile of the job times, and the jobs beyond it."""
    ordered = sorted(times)
    rank = math.ceil(percentile / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def kind_medians(outcomes: list[Outcome]) -> dict[str, float]:
    by_kind: dict[str, list[float]] = {}
    for o in outcomes:
        by_kind.setdefault(o.job.kind, []).append(o.seconds)
    return {k: statistics.median(v) for k, v in by_kind.items()}


def warm_up(cli, jobs: list[Job]) -> None:
    """One job of each kind, untimed, so imports, spec loading and the page
    cache are warm.  Module caches are deliberately left to grow."""
    seen = set()
    for job in jobs:
        if job.kind not in seen:
            seen.add(job.kind)
            run_job(cli, job)


def prepare(workload: str, seed: int) -> list[Job]:
    shutil.rmtree(RUNS, ignore_errors=True)
    INPUTS.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(seed))


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())["jobs"]


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    jobs = prepare(workload, seed)
    expected = load_expected()
    setup_s, setup_calibration_s = measure_setup(codes_used(jobs))
    from stabscape import cli

    warm_up(cli, jobs)
    batch = run_rounds(cli, jobs, expected, seed, seconds, MIN_ROUNDS)
    outcomes = batch.outcomes
    times = [o.seconds for o in outcomes]
    good = sum(o.ok for o in outcomes)
    tail_s, beyond = tail(times, TAIL_PERCENTILE[workload])
    raw = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (good / batch.seconds, "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mib": (batch.rss_mib, "MiB"),
    }
    metrics = {name: (at_reference(val, unit, batch.calibration_s), unit) for name, (val, unit) in raw.items()}
    # Set-up ran before the batch, so it is restated with its own samples.
    metrics["setup_s"] = (at_reference(setup_s, "s", setup_calibration_s), "s")
    failed = len(outcomes) - good
    print(f"workload={workload} seed={seed} rounds={batch.rounds} jobs={len(outcomes)} "
          f"batch_s={batch.seconds:.3f} calibration_s={batch.calibration_s:.6f}")
    print(f"  {'metric':<14} {'reported':>12} {'raw':>12}")
    for name, (val, unit) in metrics.items():
        print(f"  {name:<14} {val:12.6f} {raw[name][0]:12.6f} {unit}")
    print(f"  {'failed_frac':<14} {failed / len(outcomes):12.6f} ratio  ({failed} of {len(outcomes)})")
    print(f"  job_tail_s is p{TAIL_PERCENTILE[workload]} with {beyond} jobs beyond it")
    for kind, med in sorted(kind_medians(outcomes).items(), key=lambda kv: kv[1]):
        print(f"    {kind:<22} median {med:.4f} s raw")
    report_failures(outcomes)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": val, "unit": unit} for name, (val, unit) in metrics.items()},
    }


def traced(workload: str, seed: int, seconds: float) -> dict:
    """Untraced rounds for half the time, then the same number of rounds
    traced.  Digests of the two batches must agree job by job."""
    import spans as tracing  # perfbench/spans.py; the script's directory leads sys.path

    jobs = prepare(workload, seed)
    expected = load_expected()
    from stabscape import cli

    warm_up(cli, jobs)
    plain = run_rounds(cli, jobs, expected, seed, seconds / 2, TRACE_MIN_ROUNDS)
    tracer = tracing.Tracer()
    with tracer.installed():
        spanned = run_rounds(cli, jobs, expected, seed, 0.0, plain.rounds)
    digests = {o.job.id: o.report_sha256 for o in plain.outcomes}
    for o in spanned.outcomes:
        if o.report_sha256 != digests[o.job.id]:
            o.ok = False
    outcomes = plain.outcomes + spanned.outcomes
    failed = sum(not o.ok for o in outcomes)
    # Both batch times at the reference speed, so host drift between them cancels.
    overhead = (spanned.seconds / spanned.calibration_s) / (plain.seconds / plain.calibration_s) - 1
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    measured = tracing.per_layer_metrics(tracer.summary(), plain.rounds, overhead)
    metrics = {name: at_reference(val, units[name], spanned.calibration_s) for name, val in measured.items()}
    tracer.write(WORK / f"spans-{workload}.jsonl")
    print(f"workload={workload} seed={seed} traced rounds={plain.rounds} spans={len(tracer.spans)} "
          f"untraced_s={plain.seconds:.3f} traced_s={spanned.seconds:.3f} "
          f"calibration_s={spanned.calibration_s:.6f}")
    for name, val in metrics.items():
        print(f"  {name:<36} {val:16.6f} {units[name]}")
    report_failures(outcomes)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": val, "unit": units[name]} for name, val in metrics.items()},
    }


def report_failures(outcomes: list[Outcome]) -> None:
    for o in outcomes:
        if not o.ok:
            print(f"  FAILED {o.job.id}: exit {o.exit_code} (want {o.job.expect_exit}), "
                  f"report {o.report_sha256 and o.report_sha256[:12]}", file=sys.stderr)


def record() -> None:
    """Write expected.json from one round of every workload at the default
    seed, refusing any job whose exit code is not the declared one."""
    from stabscape import cli

    table = {}
    for workload in WORKLOADS:
        for job in prepare(workload, DEFAULT_SEED):
            o = run_job(cli, job)
            if o.exit_code != job.expect_exit or o.report_sha256 is None:
                raise SystemExit(f"{job.id}: exit {o.exit_code}, want {job.expect_exit}")
            table[job.id] = {"report_sha256": o.report_sha256, "invariant_sha256": o.invariant_sha256}
    EXPECTED.write_text(json.dumps({"seed": DEFAULT_SEED, "jobs": table}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} jobs in {EXPECTED}")


def run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite expected.json and exit")
    args = parser.parse_args()
    if not (SRC / "stabscape" / "__init__.py").is_file():
        print(f"stabscape sources not found under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if args.record:
        record()
        return 0
    if args.workload == "all":
        return run_all(args)
    run = traced if args.trace else end_to_end
    print(json.dumps(run(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
