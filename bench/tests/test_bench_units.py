"""Unit tests of the benchmark harness: no sockets, no sleeps, no
program under test — estimators, span arithmetic, the ``BENCHMARK.json``
contract, and ``compare.py``'s verdict rule."""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
from benchlib.checks import Expected, Ops  # noqa: E402
from benchlib.context import Context  # noqa: E402
from benchlib.stats import (  # noqa: E402
    assembled_pass,
    median,
    percentile,
    quartile_spread,
    windows,
)
from benchlib.trace import Tracer, malformed_spans, self_times  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert percentile(values, 0.0) == 10.0
    assert percentile(values, 0.5) == 30.0
    assert percentile(values, 1.0) == 50.0
    assert percentile(values, 0.9) == pytest.approx(46.0)
    assert percentile([7.0], 0.99) == 7.0
    assert percentile(list(reversed(values)), 0.5) == 30.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_windows_bucket_by_time_and_drop_outsiders():
    samples = [(0.0, 1), (0.99, 2), (1.0, 3), (2.5, 4), (3.0, 5), (-0.1, 6)]
    assert windows(samples, 0.0, 1.0, 3) == [[1, 2], [3], [4]]


def test_median_over_windows_shrugs_off_one_stalled_window():
    steady = [(t + 0.5, 2.0) for t in range(5)]
    stalled = steady + [(5.1, 900.0), (5.9, 700.0)]
    per_window = [median(w) for w in windows(stalled, 0.0, 1.0, 6) if w]
    assert per_window == [2.0, 2.0, 2.0, 2.0, 2.0, 800.0]
    assert median(per_window) == 2.0
    # ...where the plain mean of the same samples would not.
    assert sum(v for _t, v in stalled) / len(stalled) > 100
    with pytest.raises(ValueError):
        windows(stalled, 0.0, 0.0, 6)


def test_assembled_pass_filters_a_burst_on_one_trial():
    quiet = [1.0, 0.2, 1.0, 0.2]
    burst = [1.0, 0.2, 1.9, 0.2]  # a noisy neighbour hit trial 2 once
    parts = [quiet, burst, quiet]
    totals = [sum(row) + 0.05 for row in parts]
    total, per_trial = assembled_pass(totals, parts)
    assert per_trial == quiet
    assert total == pytest.approx(2.45)
    # The median of whole passes would have been right here too, but
    # not once two passes are each hit on a different trial:
    parts = [[1.9, 0.2, 1.0, 0.2], burst, quiet]
    totals = [sum(row) + 0.05 for row in parts]
    assert median(totals) == pytest.approx(3.35)
    assert assembled_pass(totals, parts)[0] == pytest.approx(2.45)


class _FixedSpeed:
    speed = 1.25
    samples = [0.0] * 40


def test_metrics_are_reported_at_nominal_machine_speed():
    ctx = Context(
        workload="w", seed=1, seconds=1.0, trace=False, quick=False,
        ops=Ops(), tracer=Tracer(False), expected=None, speed=_FixedSpeed(),
    )
    ctx.schedule_bound.add("latency_p50_ms")
    measured = {
        "job_wall_s": 5.0,
        "cpu_ms_per_op": 10.0,
        "deliveries_per_s": 800.0,
        "latency_p50_ms": 3.0,
        "peak_rss_mb": 50.0,
    }
    scaled = ctx.at_nominal_speed(measured)
    assert scaled["job_wall_s"] == pytest.approx(4.0)  # a time: divided
    assert scaled["cpu_ms_per_op"] == pytest.approx(8.0)
    assert scaled["deliveries_per_s"] == pytest.approx(1000.0)  # a rate
    assert scaled["latency_p50_ms"] == 3.0  # set by a schedule: as measured
    assert scaled["peak_rss_mb"] == 50.0
    assert ctx.notes["as_measured"]["job_wall_s"] == 5.0
    assert ctx.notes["machine_speed"] == 1.25


def test_quartile_spread_is_iqr_over_median():
    values = [float(v) for v in range(1, 11)]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / median(values))
    assert quartile_spread([4.2]) == 0.0
    assert quartile_spread([3.0] * 10) == 0.0


# ----------------------------------------------------------------------
# span tree
# ----------------------------------------------------------------------


def _nested_trace() -> Tracer:
    tracer = Tracer()
    with tracer.span("pass"):
        for trial in range(3):
            with tracer.span("trial", trial=trial):
                with tracer.span("warmup", trial=trial) as warmup:
                    for _ in range(2000):
                        pass
                tracer.pack_children(warmup, {"cyclon": 1e-6, "vicinity": 2e-6})
                with tracer.span("disseminate", trial=trial):
                    pass
    return tracer


def test_span_tree_is_well_formed():
    tracer = _nested_trace()
    assert malformed_spans(tracer.spans) == []
    assert sum(s["name"] == "trial" for s in tracer.spans) == 3
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["pass"]["parent"] is None
    trial = tracer.spans[by_name["warmup"]["parent"]]
    assert trial["name"] == "trial"
    assert trial["ids"]["trial"] == by_name["warmup"]["ids"]["trial"]


def test_self_time_arithmetic():
    tracer = _nested_trace()
    selfs = tracer.self_times()
    wall = tracer.total("pass")
    assert all(value >= -1e-12 for value in selfs.values())
    # Every instant of the root is charged to exactly one span.
    assert sum(selfs.values()) == pytest.approx(wall)
    assert selfs["warmup"] == pytest.approx(
        tracer.total("warmup") - tracer.total("cyclon") - tracer.total("vicinity")
    )
    # Packed children never stick out of the span they were packed in.
    with tracer.span("short") as short:
        pass
    tracer.pack_children(short, {"greedy": 10.0})
    assert malformed_spans(tracer.spans) == []


def test_self_times_on_literal_spans():
    spans = [
        {"name": "root", "start": 0.0, "end": 10.0, "parent": None, "ids": {}},
        {"name": "a", "start": 1.0, "end": 4.0, "parent": 0, "ids": {}},
        {"name": "a", "start": 5.0, "end": 6.0, "parent": 0, "ids": {}},
        {"name": "b", "start": 1.5, "end": 2.5, "parent": 1, "ids": {}},
    ]
    assert self_times(spans) == {"root": 6.0, "a": 3.0, "b": 1.0}
    escaped = spans + [
        {"name": "c", "start": 9.0, "end": 11.0, "parent": 0, "ids": {}}
    ]
    assert any("leaves its parent" in p for p in malformed_spans(escaped))
    unclosed = [dict(spans[0], end=None)]
    assert any("not closed" in p for p in malformed_spans(unclosed))


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("anything") as index:
        assert index is None
    assert tracer.spans == []


# ----------------------------------------------------------------------
# BENCHMARK.json against the contract
# ----------------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_keys_and_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert len((BENCH_DIR.parent / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_names_units_and_bounds():
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names)), "a name is used once"


def test_setup_metric_has_the_largest_bound():
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_runner_serves_exactly_the_declared_workloads():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_DIR / "run.py")
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    assert list(runner.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


# ----------------------------------------------------------------------
# compare.py's verdict rule
# ----------------------------------------------------------------------

TIGHT_A = [10.0, 10.1, 9.9, 10.05, 9.95]


def test_verdict_ok_within_bound():
    b = [value * 1.05 for value in TIGHT_A]
    assert compare.verdict(TIGHT_A, b, "lower", 0.10) == "ok"
    assert compare.verdict(TIGHT_A, b, "higher", 0.10) == "ok"


def test_verdict_regressed_beyond_bound_in_the_bad_direction():
    slower = [value * 1.2 for value in TIGHT_A]
    assert compare.verdict(TIGHT_A, slower, "lower", 0.10) == "regressed"
    # The same move is an improvement for a higher-is-better metric.
    assert compare.verdict(TIGHT_A, slower, "higher", 0.10) == "ok"
    fewer = [value * 0.8 for value in TIGHT_A]
    assert compare.verdict(TIGHT_A, fewer, "higher", 0.10) == "regressed"


def test_verdict_unresolved_when_spread_is_wide_and_runs_interleave():
    noisy_a = [5.0, 8.0, 10.0, 12.0, 15.0]
    noisy_b = [6.0, 9.0, 11.0, 13.0, 16.0]
    assert compare.quartile_spread(noisy_a) > 0.10
    assert compare.verdict(noisy_a, noisy_b, "lower", 0.10) == "unresolved"


def test_wide_spread_is_still_decided_when_runs_do_not_interleave():
    noisy_a = [50.0, 80.0, 100.0, 120.0, 150.0]
    every_run_better = [5.0, 8.0, 10.0, 12.0, 15.0]
    assert compare.verdict(noisy_a, every_run_better, "lower", 0.10) == "ok"
    assert (
        compare.verdict(every_run_better, noisy_a, "lower", 0.10) == "regressed"
    )


def test_worsening_is_a_share_of_the_base():
    assert compare.worsening(10.0, 11.0, "lower") == pytest.approx(0.10)
    assert compare.worsening(10.0, 11.0, "higher") == pytest.approx(-0.10)
    assert compare.worsening(0.0, 5.0, "lower") == 0.0


def _result_file(tmp_path, name, scale, failed=0):
    runs = [
        {
            "workload": "sweep_cold",
            "seed": seed,
            "trace": 0,
            "attempted": 100,
            "failed": failed,
            "metrics": {
                "job_wall_s": {"value": scale * (4.0 + 0.01 * seed), "unit": "s"}
            },
        }
        for seed in range(5)
    ]
    runs.append(dict(runs[0], trace=1, metrics={}))  # traced runs are skipped
    path = tmp_path / name
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_exit_status(tmp_path, capsys):
    base = _result_file(tmp_path, "a.json", 1.0)
    same = _result_file(tmp_path, "b.json", 1.02)
    slow = _result_file(tmp_path, "c.json", 1.5)
    broken = _result_file(tmp_path, "d.json", 1.0, failed=3)
    assert compare.main([base, same]) == 0
    assert compare.main([base, slow]) == 1
    assert compare.main([base, broken]) == 1  # larger failed-operation share
    assert compare.main(["--a", base, "--b", same]) == 0
    out = capsys.readouterr().out
    assert "x of 4.02" in out  # the ratio is printed with its base
    assert "regressed" in out


# ----------------------------------------------------------------------
# failed-operation accounting
# ----------------------------------------------------------------------


def test_pinned_digest_must_match_and_unpinned_seed_passes():
    ops = Ops()
    Expected("reference", 42).check(ops, "sweep_json", "0" * 64)
    assert (ops.attempted, ops.failed) == (1, 1)
    assert ops.failures[0].startswith("digest:sweep_json: got 0000")
    Expected("reference", 7).check(ops, "sweep_json", "0" * 64)
    Expected("quick", 42).check(ops, "sweep_json", "0" * 64)
    assert (ops.attempted, ops.failed) == (1, 1)


def test_ops_counts_checks_as_operations_and_names_failures():
    ops = Ops()
    ops.add(240, 0, "delivery_pairs")
    ops.add(240, 2, "delivery_pairs")
    assert ops.check("digest:sweep_json", True)
    assert not ops.check("digest:object_ringcast", False, "got ab, pinned cd")
    assert (ops.attempted, ops.failed) == (482, 3)
    assert ops.failures == [
        "delivery_pairs: 2 of 240 failed",
        "digest:object_ringcast: got ab, pinned cd",
    ]
