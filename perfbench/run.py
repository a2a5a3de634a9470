"""gzcount benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gzcount checkout; the package is imported from
``src/``.  One client sends one job at a time (closed loop, no threads).
A run is a fixed number of passes, about ``--seconds`` long on the
reference machine.  Each pass runs its own job list, drawn from the seed
and the pass number, in a fresh interpreter, so the process-global memo
tables start empty.

With ``--trace 0`` the end-to-end metrics are reported: time to solution
of a pass (the sum of its job latencies, median over passes), per-job
latency p50 and p90 over all jobs of all passes, set-up time (interpreter
start, ``import gzcount`` and job generation, median over passes and
extra set-up-only starts) and peak RSS.

The times are scaled to a reference host speed.  The shared hosts this
runs on change the speed of each CPU by up to 2x over seconds to minutes,
which moves every time alike and would swamp a change of the program.
The runner keeps itself and every process it starts on one CPU, and the
worker times a fixed pure-Python loop (``worker.calibration_s``) before
each job, after the last one and right after set-up.  Each time is
multiplied by ``REFERENCE_CALIBRATION_S`` over the median of the loop
times nearest to it, so it reads as it would on a host where the loop
takes that long.  The loop does no gzcount work, so a change of the
program moves the scaled times as much as the raw ones.  The summary
also prints the raw medians and the loop's median time.

With ``--trace 1`` a traced run of pass 0 gives the per-layer metrics
and an untraced run of the same pass the tracing overhead.
``--workload all`` runs each workload in turn.  A summary goes to
stdout; the last line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracing import exact_metrics, per_layer_spec

HERE = Path(__file__).resolve().parent
# Same names as workloads.WORKLOADS; this process does not import gzcount.
WORKLOADS = ("count-cold", "oracle-xcheck", "series-verify", "cli-cache")
WORK_DIR = ".perfbench_work"
SETUP_ONLY_STARTS = 8
PROBE_STARTS = 7
DEADLINE_S = 170.0
# Loop time of worker.calibration_s that the reported times are scaled to;
# about its median on the reference machine.  Each job is scaled by the
# median of the 2 * CALIBRATION_WINDOW + 1 loop times nearest to it.
REFERENCE_CALIBRATION_S = 0.0025
CALIBRATION_WINDOW = 10
# Seconds one untraced pass took on the reference machine (2 vCPU Xeon VM,
# Python 3.11.7); they set the number of passes in a run.
PASS_SECONDS = {"count-cold": 7.0, "oracle-xcheck": 15.0, "series-verify": 5.5, "cli-cache": 14.5}
# Fewest passes with ten jobs beyond p90; a pass of oracle-xcheck has 72 jobs.
MIN_PASSES = {"oracle-xcheck": 2}

END_TO_END = (
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def percentile(values, q: float, min_beyond: int = 10) -> float:
    """Nearest-rank percentile; refuses when fewer than ``min_beyond`` samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples has {beyond} beyond it; need {min_beyond}")
    return ordered[rank - 1]


def at_reference(seconds: float, loop_times) -> float:
    """``seconds`` as it would read where the calibration loop takes the reference time."""
    return seconds * REFERENCE_CALIBRATION_S / statistics.median(loop_times)


def host_scaled(times, calibrations, window: int = CALIBRATION_WINDOW) -> list[float]:
    """``times`` at the reference host speed; ``calibrations[i]`` was timed just before ``times[i]``."""
    return [at_reference(t, calibrations[max(0, i - window):i + window + 1])
            for i, t in enumerate(times)]


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU.

    The CPUs of a shared host change speed independently of each other, so
    the calibration loop only tracks a job's speed on the CPU the job runs on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def passes_to_run(workload: str, seconds: float) -> int:
    """Passes that take about ``seconds`` at the reference pass times, at least ``MIN_PASSES``.

    The count depends only on the arguments, so two runs of one seed run
    the same jobs, and a faster program finishes sooner.
    """
    return max(MIN_PASSES.get(workload, 1), round(seconds / PASS_SECONDS[workload]))


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, deadline: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = root / WORK_DIR
        self.work.mkdir(exist_ok=True)
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                        PYTHONHASHSEED="0")

    def _run(self, cmd) -> subprocess.CompletedProcess:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("benchmark ran out of time")
        return subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=timeout)

    def worker(self, pass_index: int = 0, trace: bool = False, setup_only: bool = False) -> dict:
        spawned_at = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--pass-index", str(pass_index),
               "--trace", str(int(trace)), "--spawned-at", repr(spawned_at),
               "--work-dir", str(self.work)]
        if setup_only:
            cmd.append("--setup-only")
        proc = self._run(cmd)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"worker for {self.workload} exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def probe(self, code: str) -> float:
        """Median wall time of a fresh interpreter running ``code``."""
        times = []
        for _ in range(PROBE_STARTS):
            start = time.perf_counter()
            proc = self._run([sys.executable, "-c", code])
            times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise RuntimeError(f"probe {code!r} failed: {proc.stderr}")
        return statistics.median(times)


def _failures(passes) -> tuple[int, int, Counter]:
    attempted = sum(p["attempted"] for p in passes)
    kinds = Counter()
    for p in passes:
        for _, kind, reason in p["failures"]:
            kinds[f"{kind} {reason.split(':')[0]}"] += 1
    return attempted, sum(kinds.values()), kinds


def _wrong(passes) -> int:
    return sum(1 for p in passes for _, kind, _ in p["failures"] if kind == "wrong")


def end_to_end(runner: Runner, seconds: float) -> dict:
    passes = [runner.worker(i) for i in range(passes_to_run(runner.workload, seconds))]
    starts = passes + [runner.worker(setup_only=True) for _ in range(SETUP_ONLY_STARTS)]
    setups = [s["setup_s"] for s in starts]
    scaled = [host_scaled(p["latencies_s"], p["calibration_s"]) for p in passes]
    latencies_ms = [x * 1000.0 for lat in scaled for x in lat]
    values = {
        "wall_s": statistics.median(sum(lat) for lat in scaled),
        "job_p50_ms": percentile(latencies_ms, 0.50),
        "job_p90_ms": percentile(latencies_ms, 0.90),
        "setup_s": statistics.median(at_reference(s["setup_s"], s["setup_calibration_s"])
                                     for s in starts),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    raw_ms = [x * 1000.0 for p in passes for x in p["latencies_s"]]
    raw = {
        "wall_s": statistics.median(sum(p["latencies_s"]) for p in passes),
        "job_p50_ms": percentile(raw_ms, 0.50),
        "job_p90_ms": percentile(raw_ms, 0.90),
        "setup_s": statistics.median(setups),
    }
    loop_ms = 1000.0 * statistics.median(c for p in passes for c in p["calibration_s"])
    attempted, failed, kinds = _failures(passes)
    n = len(latencies_ms)
    notes = {
        "wall_s": f"median over {len(passes)} pass(es) of {passes[0]['attempted']} jobs each",
        "job_p50_ms": f"n={n}",
        "job_p90_ms": f"n={n}, {n - math.ceil(0.9 * n)} beyond",
        "setup_s": f"median of {len(setups)} starts",
        "peak_rss_mb": "max over CLI processes" if runner.workload == "cli-cache" else "worker",
    }
    lines = [f"workload {runner.workload} seed {runner.seed} (tracing off; times scaled to a "
             f"{REFERENCE_CALIBRATION_S * 1000:g} ms calibration loop, measured {loop_ms:.3f} ms)"]
    for name, unit in END_TO_END:
        unscaled = f"raw {raw[name]:.4f}, " if name in raw else ""
        lines.append(f"  {name:<12} {values[name]:>12.4f} {unit:<3} {unscaled}{notes[name]}")
    lines.append(f"  {'error_rate':<12} {failed / attempted:>12.4f} {'-':<3} "
                 f"{failed} of {attempted} jobs failed"
                 + (": " + ", ".join(f"{k} x{v}" for k, v in sorted(kinds.items())) if kinds else ""))
    return {
        "lines": lines,
        "correct": _wrong(passes) == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
    }


def _source_digest(root: Path) -> str:
    """Digest of the package and benchmark sources that the counts depend on."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "gzcount").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def per_layer(runner: Runner) -> dict:
    traced = runner.worker(trace=True)
    untraced = runner.worker()
    values = dict(traced["layers"])
    start_s = runner.probe("pass")
    values["cli.interpreter_start_s"] = start_s
    values["cli.import_s"] = runner.probe("import gzcount.cli") - start_s
    values["bench.trace_overhead"] = traced["wall_s"] / untraced["wall_s"]

    lines = [f"workload {runner.workload} seed {runner.seed} (traced pass)"]
    flags = []
    # Tracing must not change which jobs fail.
    if [f[0] for f in traced["failures"]] != [f[0] for f in untraced["failures"]]:
        flags.append("traced and untraced passes failed different jobs")
    # Counts must repeat exactly between traced runs of one seed and source.
    counts = {name: values[name] for name in exact_metrics()}
    store = runner.work / f"counts-{runner.workload}-seed{runner.seed}-{_source_digest(runner.root)}.json"
    if store.exists():
        previous = json.loads(store.read_text())
        changed = sorted(k for k in counts if previous.get(k) != counts[k])
        if changed:
            flags.append("counts differ from the previous traced run: " + ", ".join(changed))
    store.write_text(json.dumps(counts, sort_keys=True))

    spec = per_layer_spec()
    for name, unit, _ in spec:
        if values[name]:
            lines.append(f"  {name:<44} {values[name]:>14.6g} {unit}")
    lines.extend(f"  FLAG: {f}" for f in flags)
    attempted, failed, _ = _failures([traced])
    return {
        "lines": lines,
        "correct": _wrong([traced]) == 0 and not flags,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gzcount benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gzcount" / "__init__.py").is_file():
        print("perfbench: run from the root of a gzcount checkout (src/gzcount not found)",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        runner = Runner(root, name, args.seed, time.monotonic() + DEADLINE_S)
        result = per_layer(runner) if args.trace else end_to_end(runner, args.seconds)
        print("\n".join(result["lines"]), flush=True)
        results.append((name, result))
    if len(results) == 1:
        metrics = results[0][1]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
