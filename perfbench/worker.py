"""One pass of one workload, in a fresh interpreter.

Started by run.py; prints one JSON object on its last stdout line.  The
pass starts from empty process-global memo tables, runs every job of
the seeded list one at a time, checks every answer, and reports per-job
latency, wall time, peak RSS and (with --trace 1) the per-layer record.

Untraced, the worker also times a fixed pure-Python loop before each job,
after the last one and right after set-up.  The host this runs on changes
speed by up to 2x over seconds to minutes, for the loop and the jobs
alike, so run.py scales the times it reports by the loop's speed.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, layer_metrics, memo_sizes

HERE = Path(__file__).resolve().parent
CALIBRATION_LOOPS = 30_000  # about 2 ms on a 2.1 GHz Xeon with Python 3.11
SETUP_CALIBRATIONS = 15


def calibration_s() -> float:
    """Seconds the fixed calibration loop takes now; it does no gzcount work."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass-index", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--setup-only", action="store_true",
                   help="stop where the first job would start")
    return p.parse_args(argv)


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _in_process(jobs, run_job, calibrations):
    latencies, outcomes = [], []
    for job in jobs:
        if calibrations is not None:
            calibrations.append(calibration_s())
        start = time.perf_counter()
        try:
            outcome = run_job(job)
            outcome = None if outcome is None else ("wrong", outcome)
        except Exception as exc:  # every failure is counted, never dropped
            outcome = ("raised", f"{type(exc).__name__}: {str(exc)[:200]}")
        latencies.append(time.perf_counter() - start)
        outcomes.append(outcome)
    return latencies, outcomes


def _cli_stream(jobs, work: Path, tracer, calibrations):
    """Run each argv as a gzcount process; all share one cache file."""
    cache = work / "counts.json"
    env = dict(os.environ, GZCOUNT_CACHE=str(cache))
    trace_file = work / "child-trace.json"
    latencies, results = [], []
    for argv in jobs:
        if calibrations is not None:
            calibrations.append(calibration_s())
        start = time.perf_counter()
        if tracer is None:
            cmd = [sys.executable, "-m", "gzcount.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), repr(time.monotonic()),
                   str(trace_file), *argv]
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
        latencies.append(time.perf_counter() - start)
        results.append(proc)
        if tracer is not None and trace_file.exists():
            tracer.add_foreign(Tracer.from_json(json.loads(trace_file.read_text())))
            trace_file.unlink()
    size = cache.stat().st_size if cache.exists() else 0
    return latencies, results, size


def _check_cli(jobs, results, cli_expected):
    expected = cli_expected(jobs)
    outcomes = []
    for proc, want in zip(results, expected):
        if proc.returncode != 0:
            err = proc.stderr.decode(errors="replace").strip().splitlines()
            outcomes.append(("exit", f"exit {proc.returncode}: {err[-1] if err else ''}"))
        elif proc.stdout.decode() != want:
            outcomes.append(("wrong", "stdout differs from the library answer"))
        else:
            outcomes.append(None)
    return outcomes


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    import gzcount
    if Path(gzcount.__file__).resolve().parent != (root / "src" / "gzcount").resolve():
        raise RuntimeError(f"imported gzcount from {gzcount.__file__}, not from {root / 'src'}")
    import workloads
    jobs = workloads.make_jobs(args.workload, args.seed, args.pass_index)
    sizes = memo_sizes()
    if any(sizes.values()):
        raise RuntimeError(f"memo tables are not empty before the first job: {sizes}")
    first_job_at = time.monotonic()
    setup_calibration = [calibration_s() for _ in range(SETUP_CALIBRATIONS)]
    if args.setup_only:
        print(json.dumps({"setup_s": first_job_at - args.spawned_at,
                          "setup_calibration_s": setup_calibration}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        if args.workload != "cli-cache":
            tracer.install()

    cli = args.workload == "cli-cache"
    work = Path(args.work_dir) / f"pass-{os.getpid()}"
    cache_bytes = stdout_bytes = 0
    calibrations = None if tracer is not None else []
    start = time.perf_counter()
    try:
        if cli:
            work.mkdir(parents=True, exist_ok=True)
            latencies, results, cache_bytes = _cli_stream(jobs, work, tracer, calibrations)
        else:
            latencies, outcomes = _in_process(jobs, workloads.run_job, calibrations)
        wall = time.perf_counter() - start - sum(calibrations or ())
        if calibrations is not None:
            calibrations.append(calibration_s())
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)

    memo = memo_sizes()
    if cli:
        peak = _peak_rss_mb(resource.RUSAGE_CHILDREN)
        stdout_bytes = sum(len(p.stdout) for p in results)
        outcomes = _check_cli(jobs, results, workloads.cli_expected)
    else:
        peak = _peak_rss_mb(resource.RUSAGE_SELF)
    failures = [(i, o[0], o[1]) for i, o in enumerate(outcomes) if o is not None]
    record = {
        "setup_s": first_job_at - args.spawned_at,
        "setup_calibration_s": setup_calibration,
        "calibration_s": calibrations or [],
        "wall_s": wall,
        "latencies_s": latencies,
        "attempted": len(jobs),
        "failures": failures,
        "peak_rss_mb": peak,
    }
    if tracer is not None:
        # The CLI processes report the memo entries they held at exit.
        entries = tracer.counts["counting.memo_entries"] if cli else sum(memo.values())
        record["layers"] = layer_metrics(tracer, wall, entries, cache_bytes, stdout_bytes)
        spans_file = Path(args.work_dir) / f"spans-{args.workload}-seed{args.seed}.json.gz"
        with gzip.open(spans_file, "wt", compresslevel=1) as fh:
            json.dump(tracer.to_json(), fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
