"""Tests of the benchmark's own logic (not of gzcount).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, covered_time, per_layer_spec, self_times  # noqa: E402

from gzcount import counting  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_job_list(workload):
    first = workloads.make_jobs(workload, workloads.DEFAULT_SEED)
    assert first == workloads.make_jobs(workload, workloads.DEFAULT_SEED)
    assert first != workloads.make_jobs(workload, workloads.HELD_OUT_SEED)
    assert first != workloads.make_jobs(workload, workloads.DEFAULT_SEED, pass_index=1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_run_has_enough_jobs_for_p90(workload):
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    jobs = sum(len(workloads.make_jobs(workload, 1, i))
               for i in range(run.passes_to_run(workload, seconds)))
    assert jobs - math.ceil(0.9 * jobs) >= 10


def test_banded_draws_cover_their_slices():
    import random

    draws = workloads._banded(random.Random(3), 1, 1200, 12)
    assert [(d - 1) // 100 for d in draws] == list(range(12))


def test_self_time_of_nested_spans_with_reentry():
    # a [0,10] > b [1,7] > a [2,5] > c [3,4];  d [11,12] is a second root.
    names = ["a", "b", "c", "d"]
    spans = [
        (0, 0.0, 10.0, -1),
        (1, 1.0, 7.0, 0),
        (0, 2.0, 5.0, 1),
        (2, 3.0, 4.0, 2),
        (3, 11.0, 12.0, -1),
    ]
    times = self_times(spans, names)
    assert times["a"]["self_s"] == pytest.approx((10 - 6) + (3 - 1))
    assert times["b"]["self_s"] == pytest.approx(6 - 3)
    assert times["c"]["self_s"] == pytest.approx(1)
    # The inner a lies inside the outer one, so it adds no inclusive time.
    assert times["a"]["total_s"] == pytest.approx(10)
    assert sum(t["self_s"] for t in times.values()) == pytest.approx(covered_time(spans))
    assert covered_time(spans) == pytest.approx(11)


def test_reentered_function_gets_one_span_and_every_call_counted():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    scope = {}

    def fact(n):
        return 1 if n <= 1 else n * scope["fact"](n - 1)

    scope["fact"] = tracer.wrap("toy.fact", fact)
    assert scope["fact"](6) == 720
    assert tracer.calls["toy.fact"] == 6
    assert len(tracer.spans) == 1


def _deepest_ok(fn):
    """Largest k for which fn(k, 1, 1) returns from an empty memo."""
    lo, hi = 10, 5000
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        counting._REC3_MEMO.clear()
        try:
            fn(mid, 1, 1)
            lo = mid
        except RecursionError:
            hi = mid
    counting._REC3_MEMO.clear()
    return lo


def test_tracing_recurrence_keeps_the_recursion_limit_where_it_was():
    original = counting.recurrence_V3
    plain = _deepest_ok(lambda *a: counting.recurrence_V3(*a))
    tracer = Tracer()
    tracer.install()
    try:
        traced = _deepest_ok(lambda *a: counting.recurrence_V3(*a))
        counting._REC3_MEMO.clear()
        tracer.calls.clear()
        counting.recurrence_V3(30, 1, 1)
        inner = tracer.calls["counting.recurrence_V3"]
    finally:
        tracer.restore()
        counting._REC3_MEMO.clear()
    assert traced == plain
    assert inner > 30
    assert counting.recurrence_V3 is original


def test_percentile_refuses_too_few_samples_beyond():
    with pytest.raises(ValueError):
        run.percentile(range(99), 0.90)
    assert run.percentile(range(1, 101), 0.90) == 90
    assert run.percentile(range(1, 101), 0.50) == 50


def test_host_scaling_uses_the_nearest_loop_times():
    ref = run.REFERENCE_CALIBRATION_S
    # The host halves its speed after the third job; the loop shows it.
    loops = [ref] * 3 + [2 * ref] * 6
    jobs = [0.1] * 3 + [0.2] * 5
    assert run.host_scaled(jobs, loops, window=1) == pytest.approx([0.1] * 8)
    assert run.at_reference(0.3, [ref, 3 * ref, 3 * ref]) == pytest.approx(0.1)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


def test_cli_expected_matches_the_cli(tmp_path, monkeypatch, capsys):
    from gzcount.cli import main

    jobs = workloads.make_jobs("cli-cache", workloads.DEFAULT_SEED)[:15]
    monkeypatch.setenv("GZCOUNT_CACHE", str(tmp_path / "counts.json"))
    outputs = []
    for argv in jobs:
        assert main(list(argv)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs == workloads.cli_expected(jobs)
