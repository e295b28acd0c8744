"""Fast self-tests of the benchmark's own measurement code.

Run with ``python3 -m pytest perfbench/test_harness.py``; nothing here
starts the program under test.
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
import threading
from fractions import Fraction

import pytest

import harness
import serve

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


# ----------------------------------------------------------------------
# Percentiles and the sample-count rule
# ----------------------------------------------------------------------
def test_percentile_interpolates_like_statistics_inclusive():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0]
    for pct, expected in zip((25, 50, 75), statistics.quantiles(values, n=4, method="inclusive")):
        assert harness.percentile(values, pct) == pytest.approx(expected)
    assert harness.percentile([3.0], 99.0) == 3.0
    with pytest.raises(ValueError):
        harness.percentile([], 50.0)


@pytest.mark.parametrize(
    "n, top",
    [(1, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, top):
    dist = harness.summarize(range(n))
    assert dist.n == n
    assert dist.tail_pct == top
    # Every reported percentile leaves at least ten samples beyond it.
    for pct in dist.values:
        beyond = n * (100 - Fraction(str(pct))) / 100
        assert pct == 50.0 or beyond >= harness.SAMPLES_BEYOND


def test_unsupported_percentile_is_refused_not_guessed():
    dist = harness.summarize(range(500))
    assert dist.at(95.0) == pytest.approx(harness.percentile(range(500), 95.0))
    assert math.isnan(dist.at(99.0))
    empty = harness.summarize([])
    assert math.isnan(empty.p50) and math.isnan(harness.median([]))
    assert empty.n == 0 and empty.values == {} and empty.describe("ms") == "no samples"


def test_describe_reports_sample_count():
    text = harness.summarize([0.001] * 1000).describe("ms", 1e3)
    assert text == "p50 1 ms, p99 1 ms (n=1000)"


# ----------------------------------------------------------------------
# Metric names and the result line
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["setup_s", "read_p50_ms", "cluster.worker.kernel_share", "a-b.c_d", "9lives"]
)
def test_valid_metric_names(name):
    assert harness.check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "a b", "-lead", ".lead", "x/y", "é", "x" * 65])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        harness.check_metric_name(name)


def test_benchmark_json_names_units_and_keys():
    with open(BENCHMARK) as spec:
        bench = json.load(spec)
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        harness.check_metric_name(name)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_result_line_shape_and_correctness_flag():
    outcome = harness.Outcome()
    outcome.check(True, "fine")
    line = json.loads(harness.result_line(outcome, {"setup_s": (1.25, "s")}))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line == {
        "correct": True, "attempted": 1, "failed": 0,
        "metrics": {"setup_s": {"value": 1.25, "unit": "s"}},
    }
    outcome.check(False, "broken")
    line = json.loads(harness.result_line(outcome, {}))
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 2, 1)
    with pytest.raises(ValueError):
        harness.result_line(outcome, {"x": (math.nan, "s")})


# ----------------------------------------------------------------------
# Open-loop accounting
# ----------------------------------------------------------------------
def test_latency_runs_from_due_time_and_lateness_is_separate():
    log = harness.OpenLoopLog("fixed")
    log.sent(due=10.0, sent_at=10.002)  # the generator ran 2 ms late
    log.done(due=10.0, finished=10.005, ok=True)
    log.sent(due=10.1, sent_at=10.099)  # early sends count as on time
    log.done(due=10.1, finished=10.101, ok=True)
    assert log.latencies == pytest.approx([0.005, 0.001])
    assert log.lateness == pytest.approx([0.002, 0.0])
    assert log.attempted == 2 and log.failed == 0 and log.unanswered() == 0


def test_failed_and_unanswered_requests_are_not_latencies():
    log = harness.OpenLoopLog("ladder")
    for due in (1.0, 2.0, 3.0):
        log.sent(due, due)
    log.done(1.0, 1.5, ok=False)
    log.done(2.0, 2.1, ok=True)
    assert log.failed == 1 and log.unanswered() == 1
    assert log.latencies == pytest.approx([0.1])


def test_schedule_is_fixed_rate_from_start():
    dues = harness.schedule(rate=4.0, start=1.0, seconds=2.0)
    assert dues == pytest.approx([1.0 + i / 4 for i in range(8)])


def test_freshness_waits_for_a_covering_snapshot_read():
    session = serve.Session(logs={}, start=0.0, end=10.0)
    session.acks = [(1.0, 20), (2.0, 40), (3.0, 60)]
    session.seq_arrivals = {0: 0, 1: 40, 2: 200}
    session.seq_first_read = {0: 0.1, 1: 2.6, 2: 5.0}
    # Batch 1 and 2 are covered by seq 1 (read at 2.6); batch 3 by seq 2.
    assert serve.freshness(session) == pytest.approx([1.6, 0.6, 2.0])
    session.seq_first_read = {0: 0.1}
    assert serve.freshness(session) == []


# ----------------------------------------------------------------------
# Traced/untraced overhead and the span tracer
# ----------------------------------------------------------------------
def test_overhead_frac_is_positive_when_tracing_costs():
    assert harness.overhead_frac(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert harness.overhead_frac(1.0, 1.1, "lower") == pytest.approx(0.10)
    assert harness.overhead_frac(100.0, 105.0, "higher") == pytest.approx(-0.05)
    with pytest.raises(ValueError):
        harness.overhead_frac(0.0, 1.0, "lower")
    with pytest.raises(ValueError):
        harness.overhead_frac(1.0, 1.0, "sideways")


def test_tracer_links_parents_per_thread():
    ticks = iter(range(100))
    tracer = harness.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("fit", request=7) as outer:
        with tracer.span("build"):
            pass
        with tracer.span("run"):
            pass
    spans = {span[1]: span for span in tracer.spans}
    assert spans["build"][4] == outer and spans["run"][4] == outer
    assert spans["fit"][4] == -1 and spans["fit"][5] == 7
    assert (spans["build"][2], spans["build"][3]) == (1.0, 2.0)

    def worker():
        with tracer.span("thread"):
            pass

    with tracer.span("main") as main:
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=5)
    assert not thread.is_alive()
    thread_span = next(s for s in tracer.spans if s[1] == "thread")
    assert thread_span[4] == -1 and main != thread_span[0]
