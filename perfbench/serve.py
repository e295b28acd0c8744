"""The ``serve-mixed`` workload: the HTTP service under open-loop load.

The service runs in its own process (``serve_server.py``).  This process
generates all load from one thread over two keep-alive connections:

* connection 0 — open-loop reads, half ``GET /predict`` on held-out
  cells and half ``GET /recommend``, for Zipf-skewed users; first at a
  fixed offered rate, then up a ladder of rates;
* connection 1 — ``POST /ratings`` batches of unrated cells at a fixed
  rate, with ``GET /snapshot`` polls between them that map each
  snapshot seq to the arrivals it has seen (for freshness).

Requests are pipelined: each is written when it falls due, whether or
not earlier answers have arrived, and timed from when it was due.
"""

from __future__ import annotations

import collections
import json
import math
import os
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import harness
import inputs

TRAINER_WORKERS = 2
#: Warm-up sweeps before the first snapshot serves.
WARMUP_EPOCHS = 40
#: Server processes started per run.  Each carries an equal share of
#: the fixed-rate phase and the reported figures are medians over them;
#: the last one also climbs the ladder.
STARTS = 3
#: Offered read rate of the fixed phase, requests/s.
READ_RATE = 400.0
#: Offered read rates of the ladder, requests/s.
LADDER = (1500.0, 2500.0, 3500.0, 4500.0)
#: Read p99 a ladder rung must meet.
LIMIT_S = 0.100
#: Share of ``--seconds`` spent in the fixed phase (the rest is the ladder).
FIXED_SHARE = 0.7
INGEST_RATE = 5.0
BATCH = 20
SNAPSHOT_POLL_S = 0.05
TOP_N = 10
#: How long answers may trail the last due request before they count
#: as timed out.
DRAIN_S = 5.0
SHAPE = "SERVE"
TAG = 3


@dataclass
class Request:
    kind: str  # predict | recommend | ingest | snapshot
    phase: str
    due: float
    payload: bytes
    expect: object = None


class Connection:
    """One pipelined HTTP/1.1 keep-alive connection on a selector."""

    def __init__(self, port: int, selector: selectors.BaseSelector):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.selector = selector
        self.out = bytearray()
        self.inbuf = bytearray()
        self.pending: collections.deque[Request] = collections.deque()
        selector.register(self.sock, selectors.EVENT_READ, self)

    def send(self, request: Request) -> None:
        self.pending.append(request)
        self.out += request.payload
        self.flush()

    def flush(self) -> None:
        if self.out:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                sent = 0
            del self.out[:sent]
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self.out else 0)
        self.selector.modify(self.sock, events, self)

    def receive(self):
        """Yield ``(request, status, body)`` for each complete response."""
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        self.inbuf += data
        while True:
            head_end = self.inbuf.find(b"\r\n\r\n")
            if head_end < 0:
                return
            head = bytes(self.inbuf[:head_end]).decode("latin-1").split("\r\n")
            status = int(head[0].split(" ", 2)[1])
            length = 0
            for line in head[1:]:
                key, _, value = line.partition(":")
                if key.strip().lower() == "content-length":
                    length = int(value)
            total = head_end + 4 + length
            if len(self.inbuf) < total:
                return
            body = bytes(self.inbuf[head_end + 4 : total])
            del self.inbuf[:total]
            yield self.pending.popleft(), status, body

    def close(self) -> None:
        self.selector.unregister(self.sock)
        self.sock.close()


def _get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()


def _post(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json"
        f"\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


class Server:
    """One ``serve_server.py`` process and the time it took to be healthy."""

    def __init__(self, seed: int, trace: bool, scratch: str, name: str, shape: str, tag: int):
        self.out = os.path.join(scratch, f"serve-{name}-{os.getpid()}.json")
        self.trace = trace
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_server.py")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, script, "--seed", str(seed), "--tag", str(tag),
             "--shape", shape, "--trace", str(int(trace)), "--out", self.out],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = self.process.stdout.readline()
            if not line.startswith("PORT "):
                raise RuntimeError(f"server did not start (printed {line!r})")
            self.port = int(line.split()[1])
            health = _blocking_get(self.port, "/health")
            self.setup_s = time.perf_counter() - started
            self.health_ok = health.get("status") == "ok"
        except BaseException:
            self._reap(kill=True)
            raise

    def _reap(self, kill: bool) -> None:
        """Wait for the process (killing it first, or after 60 s) and
        close its pipes."""
        self.process.stdin.close()
        try:
            if not kill:
                self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()

    def stop(self) -> dict:
        """Close the server's stdin, wait for it to exit, return its summary."""
        self._reap(kill=False)
        if self.process.returncode != 0:
            raise RuntimeError(f"server exited with {self.process.returncode}")
        with open(self.out) as summary:
            payload = json.load(summary)
        if not self.trace:  # a traced server's summary holds its span dump
            os.remove(self.out)
        return payload


def _blocking_get(port: int, path: str) -> dict:
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        payload = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}")
        return payload
    finally:
        conn.close()


@dataclass
class Plan:
    """Everything one load session sends, with due times from 0."""

    requests: list[Request]
    rungs: list[tuple[str, float, float, float]]  # name, rate, start, end


def make_plan(data: inputs.Planted, seed: int, fixed_s: float, ladder_s: float,
              tag: int = TAG, ingest_rate: float = INGEST_RATE,
              start: int = 0) -> Plan:
    """Reads at :data:`READ_RATE` for ``fixed_s``, then the ladder for
    ``ladder_s`` (if any), with ingest and snapshot polls throughout.
    Each server ``start`` of a run gets its own users and cells."""
    rng = np.random.default_rng([seed, tag, 11, start])
    shape = data.shape
    seconds = fixed_s + ladder_s
    ladder = LADDER if ladder_s else ()
    rung_s = ladder_s / max(1, len(ladder))
    phases = [("fixed", READ_RATE, 0.0, fixed_s)]
    for i, rate in enumerate(ladder):
        start = fixed_s + i * rung_s
        phases.append((f"ladder-{rate:g}", rate, start, start + rung_s))
    # Held-out cells per user, for /predict reads with a known answer.
    rows, cols, vals = data.split(True)
    order = np.argsort(rows, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    bounds = np.searchsorted(rows, np.arange(shape.rows + 1))
    requests = []
    for name, rate, start, end in phases:
        dues = harness.schedule(rate, start, end - start)
        users = inputs.zipf_users(shape.rows, len(dues), rng)
        for i, (due, user) in enumerate(zip(dues, users.tolist())):
            lo, hi = bounds[user], bounds[user + 1]
            if i % 2 == 0 and hi > lo:
                cell = int(rng.integers(lo, hi))
                item = int(cols[cell])
                requests.append(Request(
                    "predict", name, due,
                    _get(f"/predict?user={user}&item={item}"),
                    (user, item, float(vals[cell])),
                ))
            else:
                requests.append(Request(
                    "recommend", name, due,
                    _get(f"/recommend?user={user}&n={TOP_N}"), user,
                ))
    n_batches = int(seconds * ingest_rate)
    cell_rows, cell_cols = inputs.unobserved_cells(data, n_batches * BATCH, rng)
    values = data.truth(cell_rows, cell_cols, rng)
    for b in range(n_batches):
        part = slice(b * BATCH, (b + 1) * BATCH)
        body = json.dumps({"ratings": [
            {"user": int(u), "item": int(i), "value": float(v)}
            for u, i, v in zip(cell_rows[part], cell_cols[part], values[part])
        ]}).encode()
        requests.append(
            Request("ingest", "ingest", b / ingest_rate, _post("/ratings", body))
        )
    for p in range(int(seconds / SNAPSHOT_POLL_S)):
        requests.append(Request("snapshot", "snapshot", p * SNAPSHOT_POLL_S, _get("/snapshot")))
    requests.sort(key=lambda r: r.due)
    return Plan(requests, phases)


@dataclass
class Session:
    """What one load session observed."""

    logs: dict[str, harness.OpenLoopLog]
    start: float
    end: float
    #: (user, item) -> (latest served prediction, held-out rating).
    predictions: dict[tuple[int, int], tuple[float, float]] = field(default_factory=dict)
    #: (time of the 202, ratings accepted so far) per ingest batch.
    acks: list[tuple[float, int]] = field(default_factory=list)
    seq_arrivals: dict[int, int] = field(default_factory=dict)
    seq_first_read: dict[int, float] = field(default_factory=dict)
    completions: dict[str, list[float]] = field(default_factory=dict)
    accepted: int = 0
    offered: int = 0


def drive(port: int, plan: Plan) -> Session:
    """Send ``plan`` open-loop and collect every answer."""
    selector = selectors.DefaultSelector()
    reads = Connection(port, selector)
    writes = Connection(port, selector)
    logs = {name: harness.OpenLoopLog(name) for name, *_ in plan.rungs}
    logs["ingest"] = harness.OpenLoopLog("ingest")
    logs["snapshot"] = harness.OpenLoopLog("snapshot")
    clock = time.perf_counter
    start = clock() + 0.01
    session = Session(logs, start, start + plan.requests[-1].due)
    requests = plan.requests
    i = 0
    deadline = session.end + DRAIN_S
    try:
        while True:
            now = clock()
            while i < len(requests) and start + requests[i].due <= now:
                request = requests[i]
                conn = writes if request.kind in ("ingest", "snapshot") else reads
                conn.send(request)
                logs[request.phase].sent(start + request.due, now)
                i += 1
            if i == len(requests) and not reads.pending and not writes.pending:
                break
            if now > deadline:
                break
            wait = start + requests[i].due - clock() if i < len(requests) else 0.05
            for key, mask in selector.select(max(0.0, wait)):
                conn = key.data
                if mask & selectors.EVENT_WRITE:
                    conn.flush()
                if mask & selectors.EVENT_READ:
                    for request, status, body in conn.receive():
                        _handle(session, request, status, body, clock())
    finally:
        reads.close()
        writes.close()
        selector.close()
    for log in logs.values():
        log.failed += log.unanswered()  # sent but never answered
    return session


def _handle(session: Session, request: Request, status: int, body: bytes,
            now: float) -> None:
    ok = False
    try:
        payload = json.loads(body)
    except ValueError:
        payload = {}
    if request.kind == "predict":
        user, item, value = request.expect
        prediction = payload.get("prediction")
        ok = (status == 200 and payload.get("user") == user
              and payload.get("item") == item
              and isinstance(prediction, float) and math.isfinite(prediction))
        if ok:
            session.predictions[user, item] = (prediction, value)
    elif request.kind == "recommend":
        ok = (status == 200 and payload.get("user") == request.expect
              and len(payload.get("items", ())) == TOP_N)
    elif request.kind == "ingest":
        ok = status == 202
        if ok:
            session.accepted += payload["accepted"]
            session.acks.append((now, session.accepted))
        session.offered += BATCH
    elif request.kind == "snapshot":
        ok = status == 200
        if ok:
            session.seq_arrivals.setdefault(payload["seq"], payload["arrivals_seen"])
    if ok and request.kind in ("predict", "recommend"):
        session.seq_first_read.setdefault(payload["snapshot_seq"], now)
        session.completions.setdefault(request.phase, []).append(now)
    session.logs[request.phase].done(session.start + request.due, now, ok)


def freshness(session: Session) -> list[float]:
    """Seconds from each batch's 202 until a read is answered from a
    snapshot whose ``arrivals_seen`` covers it."""
    seqs = sorted(session.seq_arrivals)
    reads = sorted(session.seq_first_read.items())
    samples = []
    for acked, arrivals in session.acks:
        covering = next(
            (s for s in seqs if session.seq_arrivals[s] >= arrivals), None
        )
        if covering is None:
            continue
        answered = next((t for s, t in reads if s >= covering and t >= acked), None)
        if answered is not None:
            samples.append(answered - acked)
    return samples


def ladder(session: Session, plan: Plan):
    """Per-rung p99 and achieved rate; the highest passing rung's rate."""
    rows = []
    best = 0.0
    for name, rate, start, end in plan.rungs[1:]:
        log = session.logs[name]
        dist = log.latency()
        done = session.completions.get(name, [])
        achieved = (
            len(done) / (max(done) - (session.start + start)) if done else 0.0
        )
        p99 = dist.values.get(99.0)
        drained = bool(done) and max(done) <= session.start + end + LIMIT_S
        passed = (
            p99 is not None and p99 <= LIMIT_S and drained and log.failed == 0
        )
        if passed:
            best = achieved
        rows.append((name, rate, dist, achieved, passed))
    return best, rows


@dataclass
class Loaded:
    """One server start and the load session it carried."""

    server: Server
    plan: Plan
    observed: Session
    stats: dict
    summary: dict


def session(seed, fixed_s, ladder_s, scratch, data, shape=SHAPE, tag=TAG,
            trace=False, name="load", ingest_rate=INGEST_RATE,
            start=0) -> Loaded:
    """Start one server, drive one plan against it, and stop it."""
    server = Server(seed, trace, scratch, name, shape, tag)
    try:
        plan = make_plan(data, seed, fixed_s, ladder_s, tag, ingest_rate, start)
        observed = drive(server.port, plan)
        stats = _blocking_get(server.port, "/stats")
    finally:
        summary = server.stop()
    return Loaded(server, plan, observed, stats, summary)


def run(seed: int, seconds: float, trace: bool, scratch: str):
    data = inputs.planted(seed, getattr(inputs, SHAPE), TAG)
    if trace:
        import layers

        return layers.serve_traced(seed, seconds, scratch, data)
    # Each start gets an equal share of the fixed-rate phase, so every
    # figure is a median over server processes; the last also climbs
    # the ladder.
    fixed_s = seconds * FIXED_SHARE / STARTS
    runs = [
        session(seed, fixed_s, seconds * (1 - FIXED_SHARE) if n == STARTS - 1 else 0.0,
                scratch, data, name=f"start{n}", start=n)
        for n in range(STARTS)
    ]
    outcome = harness.Outcome()
    metrics, lines = evaluate(runs, outcome)
    return outcome, metrics, lines


def count_requests(loaded: Loaded, outcome: harness.Outcome) -> None:
    """Every request sent is an operation; every failed one a failure."""
    for log in loaded.observed.logs.values():
        outcome.merge(log.attempted, log.failed, f"{log.phase} requests failed")


def check(loaded: Loaded, outcome: harness.Outcome) -> None:
    """The correctness checks of one loaded server."""
    observed, summary = loaded.observed, loaded.summary
    count_requests(loaded, outcome)
    outcome.check(loaded.server.health_ok, "server unhealthy after start")
    outcome.check(summary["trainer_error"] is None,
                  f"trainer_error: {summary['trainer_error']}")
    outcome.check(loaded.stats["trainer"]["error"] is None, "trainer reported an error")
    seqs = sorted(observed.seq_first_read)
    outcome.check(len(seqs) >= 2 and seqs[-1] > seqs[0],
                  f"snapshot seq did not advance under load: {seqs}")
    outcome.check(observed.accepted == observed.offered,
                  f"ingest accepted {observed.accepted} of {observed.offered}")
    outcome.check(bool(freshness(observed)), "no ingested batch became visible to reads")
    rmse = served_rmse(observed)
    outcome.check(math.isfinite(rmse) and rmse <= 0.5, f"served RMSE {rmse}")


def served_rmse(*observed: Session) -> float:
    """RMSE of the served answers over the distinct held-out cells each
    session read, so the few hottest users do not dominate it."""
    errors = np.array(
        [p - v for s in observed for p, v in s.predictions.values()]
    )
    return float(np.sqrt(np.mean(errors * errors))) if errors.size else math.nan


def goodput(observed: Session) -> float:
    """Reads answered per second over the fixed-rate phase."""
    done = observed.completions.get("fixed", [])
    return len(done) / (max(done) - observed.start) if done else 0.0


def evaluate(runs: list[Loaded], outcome: harness.Outcome):
    """Correctness checks and end-to-end metrics over the server starts."""
    for loaded in runs:
        check(loaded, outcome)
    sessions = [loaded.observed for loaded in runs]
    fixed = [s.logs["fixed"].latency() for s in sessions]
    fresh = [harness.summarize(freshness(s)) for s in sessions]
    metrics = {
        "setup_s": (harness.median(r.server.setup_s for r in runs), "s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        "throughput_per_s": (harness.median(goodput(s) for s in sessions), "1/s"),
        "test_rmse": (served_rmse(*sessions), "rmse"),
        "freshness_s": (harness.median(f.p50 for f in fresh), "s"),
    }
    last = runs[-1]
    best, rungs = ladder(last.observed, last.plan)
    pooled = harness.summarize(x for s in sessions for x in s.logs["fixed"].latencies)
    ingest = harness.summarize(x for s in sessions for x in s.logs["ingest"].latencies)
    late = harness.summarize(
        x for s in sessions for log in s.logs.values()
        if log.phase not in ("ingest", "snapshot") for x in log.lateness
    )
    lines = [
        f"serve-mixed: {STARTS} server starts, reads at {READ_RATE:g}/s on each, "
        f"then a ladder of {LADDER} /s on the last; {INGEST_RATE:g} ingest "
        f"batches/s of {BATCH}; read p99 limit {LIMIT_S * 1e3:g} ms",
        "  read_p50_ms per start    "
        + ", ".join(f"{f.p50 * 1e3:.4g} ms (n={f.n})" for f in fixed),
        f"  read_p50_ms, read_p99_ms {pooled.describe('ms', 1e3)} (pooled)",
        f"  read_max_rps             {best:.1f} req/s",
        f"  ingest_p50_ms            {ingest.describe('ms', 1e3)}",
        "  freshness_p50_s per start "
        + ", ".join(f"{f.p50:.4g} s (n={f.n})" for f in fresh),
        f"  loadgen.late_p99_ms      {late.describe('ms', 1e3)}",
    ]
    for name, rate, dist, achieved, passed in rungs:
        lines.append(
            f"  {name:>12}: {dist.describe('ms', 1e3)}, achieved {achieved:.1f}/s "
            f"{'pass' if passed else 'FAIL'}"
        )
    for n, s in enumerate(sessions):
        lines.append(
            f"  start {n}: " + "; ".join(
                f"{log.phase} {log.attempted} attempted, {log.failed} failed"
                for log in s.logs.values()
            )
        )
    return metrics, lines
