"""Measurement helpers shared by every workload of the benchmark.

Pure functions and small recorders with no dependency on the program
under test, so ``test_harness.py`` can check them in milliseconds:

* the percentile rule — a timing is reported as its median plus the
  highest percentile that has at least ten samples beyond it, always
  with its sample count;
* open-loop lateness accounting — each request is timed from when it
  was *due*, and how late the generator itself ran is kept apart;
* the traced/untraced overhead ratio;
* an in-memory span tracer (name, start, end, parent, request id) that
  is written out once, when a traced run ends;
* the result line the benchmark prints last.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Metric names: letters, digits, ``_``, ``.`` and ``-`` (at most 64).
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Percentiles the rule may report, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported percentile.
SAMPLES_BEYOND = 10


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def percentile(samples, pct: float) -> float:
    """Linear-interpolated percentile of ``samples`` (``pct`` in [0, 100])."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def supports(n: int, pct: float) -> bool:
    """Whether ``n`` samples leave at least ten beyond percentile ``pct``."""
    # Rounded: 100 - 99.9 is not exactly 0.1 in binary floating point.
    return round(n * (100.0 - pct) / 100.0, 6) >= SAMPLES_BEYOND


@dataclass(frozen=True)
class Distribution:
    """A timing distribution summarised by the percentile rule: the
    sample count and every percentile of :data:`TAIL_PERCENTILES` the
    count supports (the median always, when there is a sample)."""

    n: int
    values: dict[float, float]

    @property
    def p50(self) -> float:
        return self.at(50.0)

    @property
    def tail_pct(self) -> float | None:
        return max(self.values, default=None)

    def at(self, pct: float) -> float:
        """The value at ``pct``; NaN when the sample count does not
        support it (a missing metric, never a guess)."""
        return self.values.get(pct, math.nan)

    def describe(self, unit: str, scale: float = 1.0) -> str:
        if not self.n:
            return "no samples"
        text = f"p50 {self.p50 * scale:.4g} {unit}"
        top = self.tail_pct
        if top > 50.0:
            text += f", p{top:g} {self.values[top] * scale:.4g} {unit}"
        return text + f" (n={self.n})"


def summarize(samples) -> Distribution:
    """Median and every percentile up to the highest the count supports.

    The median is kept for any non-empty sample; a percentile above it
    only when at least ten samples lie beyond it.
    """
    samples = sorted(samples)
    values = {
        pct: percentile(samples, pct)
        for pct in TAIL_PERCENTILES
        if samples and (pct == 50.0 or supports(len(samples), pct))
    }
    return Distribution(len(samples), values)


def median(values) -> float:
    """Median, or NaN for no values."""
    values = list(values)
    return float(statistics.median(values)) if values else math.nan


def overhead_frac(untraced: float, traced: float, better: str) -> float:
    """How much worse the traced run read than the untraced one.

    Positive means tracing cost something: for a ``"higher"``-is-better
    metric it is the drop ``(untraced - traced) / untraced``, for a
    ``"lower"``-is-better one the rise ``(traced - untraced) / untraced``.
    """
    if untraced <= 0:
        raise ValueError("untraced reading must be positive")
    if better == "higher":
        return (untraced - traced) / untraced
    if better == "lower":
        return (traced - untraced) / untraced
    raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")


@dataclass
class OpenLoopLog:
    """Per-phase open-loop accounting.

    ``sent(due, sent_at)`` records when a request was due and when the
    generator actually wrote it; ``done(due, finished, ok)`` records its
    completion.  Latency runs from ``due`` — a stall therefore counts
    against every request queued behind it — and lateness
    (``sent_at - due``) measures the generator itself.
    """

    phase: str
    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)

    def sent(self, due: float, sent_at: float) -> None:
        self.attempted += 1
        self.lateness.append(max(0.0, sent_at - due))

    def done(self, due: float, finished: float, ok: bool) -> None:
        if ok:
            self.latencies.append(finished - due)
        else:
            self.failed += 1

    def unanswered(self) -> int:
        """Requests sent that neither succeeded nor failed (timed out)."""
        return self.attempted - len(self.latencies) - self.failed

    def latency(self) -> Distribution:
        return summarize(self.latencies)


def schedule(rate: float, start: float, seconds: float) -> list[float]:
    """Due times of a fixed-rate open loop over ``[start, start+seconds)``."""
    count = int(round(rate * seconds))
    return [start + i / rate for i in range(count)]


class Tracer:
    """In-memory span log, written out once when the traced run ends.

    Each span is ``(id, name, start, end, parent, request)``: ``parent``
    is the id of the span open on the same thread when it began (or -1)
    and ``request`` the id of the request it served (or -1).  Safe to
    use from several threads: ids come from one counter and each thread
    keeps its own stack of open spans.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, request: int = -1):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = self.clock()
        try:
            yield span_id
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, request))

    def dump(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "request")
        with open(path, "w") as out:
            json.dump([dict(zip(keys, span)) for span in self.spans], out)


def peak_rss_mb() -> float:
    """Peak resident memory of the largest process: this one, or any
    child (worker, server) it has waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def check(self, ok: bool, reason: str) -> bool:
        """Count one correctness check; a false one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)
        return ok

    def merge(self, attempted: int, failed: int, reason: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons.append(f"{failed}/{attempted} {reason}")


def result_line(outcome: Outcome, metrics: dict[str, tuple[float, str]]) -> str:
    """The JSON object the benchmark prints as its last line."""
    payload = {}
    for name, (value, unit) in metrics.items():
        check_metric_name(name)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        payload[name] = {"value": float(value), "unit": unit}
    return json.dumps(
        {
            "correct": outcome.failed == 0 and outcome.attempted >= 1,
            "attempted": max(1, outcome.attempted),
            "failed": outcome.failed,
            "metrics": payload,
        }
    )
