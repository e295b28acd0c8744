"""The traced runs: per-layer metrics for every workload.

End-to-end numbers come from untraced runs; this module is ``--trace 1``.
It times calls into each layer's public functions from the benchmark's
own files, and reads the counters the program already exports:
``FitTiming``, ``FitResult.telemetry`` (per-worker counters and spans
shipped on the cluster ``Fin`` frame) and the service's ``/stats``.

Every traced run reports every per-layer metric.  A layer the workload
runs is measured in that run.  A layer it does not run is measured on
the workload's own inputs all the same: the training workloads drive a
short serving session over their ratings, and ``serve-mixed`` makes a
short cluster fit of its warm-up matrix.  Those figures predict nothing
about the workload's end-to-end metrics; ``perfbench/predictions.json``
says which layer should move which metric on which workload.
"""

from __future__ import annotations

import os
import time

import numpy as np

import harness
import inputs
import serve
import train

#: Tokens per fused kernel call in a cluster worker's drain (``_BURST``).
BURST = 32
#: Seconds each micro-replay measures.
REPLAY_S = 0.4


def _median_time(call, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        call()
        times.append(time.perf_counter() - started)
    return harness.median(times)


def _rate(call, seconds: float = REPLAY_S) -> tuple[int, float]:
    """Run ``call`` (returning a work count) for ``seconds``; (work, s)."""
    work = 0
    started = time.perf_counter()
    while True:
        work += call()
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return work, elapsed


# ----------------------------------------------------------------------
# Layer replays on the workload's inputs
# ----------------------------------------------------------------------
def replays(tracer, matrix, test, hyper, cells) -> dict:
    """datasets, linalg, cluster.wire, cluster.transport and the ingest
    schema, replayed on this workload's matrix, shards and token shapes."""
    from repro.cluster import wire
    from repro.cluster.coordinator import DEFAULT_BATCH_SIZE
    from repro.linalg.backends import resolve_backend
    from repro.linalg.factors import FactorPair
    from repro.linalg.objective import test_rmse
    from repro.partition.partitioners import partition_worker_triplets
    from repro.serve.schemas import IngestRequest

    k = hyper.k
    rng = np.random.default_rng(0)
    metrics = {}
    metrics["datasets.bytes_per_rating"] = (
        sum(a.dtype.itemsize for a in (matrix.rows, matrix.cols, matrix.vals)),
        "B",
    )

    # linalg.backends: worker 0's shard, bursts of BURST tokens.
    partition, triplets = partition_worker_triplets(matrix, train.WORKERS)
    rows, cols, vals = triplets[0]
    local = np.empty(matrix.n_rows, dtype=np.int64)
    local[partition[0]] = np.arange(partition[0].size)
    order = np.argsort(cols, kind="stable")
    rows, cols, vals = local[rows[order]], cols[order], vals[order]
    bounds = np.searchsorted(cols, np.arange(matrix.n_cols + 1))
    items = [j for j in range(matrix.n_cols) if bounds[j + 1] > bounds[j]]
    burst = [items[i] for i in rng.integers(0, len(items), BURST)]
    col_users = [np.ascontiguousarray(rows[bounds[j]:bounds[j + 1]]) for j in burst]
    col_ratings = [np.ascontiguousarray(vals[bounds[j]:bounds[j + 1]]) for j in burst]
    col_counts = [np.zeros(u.size, dtype=np.int64) for u in col_users]
    h_cols = [rng.normal(0, 1 / np.sqrt(k), k) for _ in burst]
    w = rng.normal(0, 1 / np.sqrt(k), (partition[0].size, k))
    backend = resolve_backend("auto", k=k, storage="ndarray")
    with tracer.span("linalg.backends.process_column_batch"):
        updates, elapsed = _rate(lambda: backend.process_column_batch(
            w, h_cols, col_users, col_ratings, col_counts,
            hyper.alpha, hyper.beta, hyper.lambda_,
        ))
    metrics["linalg.backends.updates_per_s"] = (updates / elapsed, "1/s")
    # Per update: the prediction (2k), the residual and step size (5),
    # and two regularized factor-row updates (5k each) — computed.
    metrics["linalg.backends.flops_per_update"] = (12 * k + 5, "count")
    # Per update: read and write w_i and h_j, read the rating and user
    # index, read and write the update count (8-byte words) — computed.
    metrics["linalg.backends.bytes_per_update"] = (32 * k + 32, "B")

    # linalg.objective: held-out RMSE of a model of this shape.
    factors = FactorPair(
        rng.normal(0, 0.3, (matrix.n_rows, k)), rng.normal(0, 0.3, (matrix.n_cols, k))
    )
    with tracer.span("linalg.objective.test_rmse"):
        metrics["linalg.objective.eval_s"] = (
            _median_time(lambda: test_rmse(factors, test), 5), "s"
        )

    # cluster.wire: one envelope of the engine's batch size at this k.
    tokens = [
        wire.Token(item=int(j), queue_hint=0, h=rng.normal(0, 1, k))
        for j in burst[:DEFAULT_BATCH_SIZE]
    ]
    body = wire.encode_tokens(tokens, k)
    with tracer.span("cluster.wire.encode_tokens"):
        encode = _median_time(lambda: wire.encode_tokens(tokens, k), 2000)
    with tracer.span("cluster.wire.decode"):
        decode = _median_time(lambda: wire.decode(body), 2000)
    per_token = len(body) / len(tokens)
    updates_per_visit = matrix.nnz / matrix.n_cols / train.WORKERS
    metrics["cluster.wire.encode_us_per_token"] = (encode / len(tokens) * 1e6, "us")
    metrics["cluster.wire.decode_us_per_token"] = (decode / len(tokens) * 1e6, "us")
    metrics["cluster.wire.bytes_per_token"] = (per_token, "B")
    metrics["cluster.wire.bytes_per_update"] = (per_token / updates_per_visit, "B")

    with tracer.span("cluster.transport"):
        metrics.update(_transport(body))

    # serve.schemas: one ingest batch of this workload's unrated cells.
    batch = (
        '{"ratings": ['
        + ", ".join(
            f'{{"user": {int(u)}, "item": {int(i)}, "value": {float(v)!r}}}'
            for u, i, v in cells
        )
        + "]}"
    ).encode()
    with tracer.span("serve.schemas.IngestRequest.from_body"):
        parse = _median_time(lambda: IngestRequest.from_body(batch), 300)
    metrics["serve.schemas.ingest_parse_us"] = (parse * 1e6, "us")
    return metrics


def _transport(body: bytes) -> dict:
    """Frame latency (ping-pong) and streaming rate between two TCP
    transports in this process."""
    from repro.cluster.transport import TcpTransport

    with TcpTransport(0) as a, TcpTransport(1) as b:
        a.register_peer(1, "127.0.0.1", b.port)
        b.register_peer(0, "127.0.0.1", a.port)

        def ping():
            a.send(1, body)
            b.send(0, b.recv(timeout=5.0))
            if a.recv(timeout=5.0) is None:
                raise RuntimeError("transport replay lost a frame")

        ping()
        round_trip = _median_time(ping, 300)
        frames = 3000
        started = time.perf_counter()
        for _ in range(frames):
            a.send(1, body)
        for _ in range(frames):
            if b.recv(timeout=5.0) is None:
                raise RuntimeError("transport replay lost a frame")
        elapsed = time.perf_counter() - started
    return {
        "cluster.transport.us_per_frame": (round_trip / 2 * 1e6, "us"),
        "cluster.transport.frames_per_s": (frames / elapsed, "1/s"),
    }


# ----------------------------------------------------------------------
# Cluster layers, from FitTiming and FitResult.telemetry
# ----------------------------------------------------------------------
def cluster_layers(plain: list, traced: list, cpu_s: list[float]) -> dict:
    """cluster.coordinator/worker figures from untraced and traced fits."""
    from repro.telemetry import (
        C_BATCHES, C_TOKENS, C_UPDATES, COUNTER_NAMES, POINT_QUEUE_DEPTH,
        SPAN_HOP, SPAN_IDLE, SPAN_KERNEL,
    )

    kernel = idle = window = 0.0
    hops, depths = [], []
    kept = dropped = 0
    counters = {name: 0 for name in COUNTER_NAMES}
    wall = 0.0
    imbalance = []
    for fit in traced:
        telemetry = fit.result.telemetry
        wall += fit.result.timing.wall_seconds
        per_worker = fit.result.timing.updates_per_worker
        imbalance.append(max(per_worker) / max(1, min(per_worker)))
        for name, count in telemetry.counters().items():
            counters[name] = counters.get(name, 0) + count
        for worker in telemetry.workers:
            events = worker.events
            kept += len(events)
            dropped += worker.dropped
            if events:
                window += max(s + d for _, s, d, _ in events) - min(s for _, s, _, _ in events)
            for kind, _start, duration, value in events:
                if kind == SPAN_KERNEL:
                    kernel += duration
                elif kind == SPAN_IDLE:
                    idle += duration
                elif kind == SPAN_HOP:
                    hops.append(duration)
                elif kind == POINT_QUEUE_DEPTH:
                    depths.append(value)
    tokens = counters[COUNTER_NAMES[C_TOKENS]]
    hop = harness.summarize(hops)
    kernel_share = kernel / window if window else 0.0
    idle_share = idle / window if window else 0.0
    build = harness.median(f.build_s for f in plain)
    return {
        "datasets.build_s": (build, "s"),
        "cluster.coordinator.bootstrap_s": (
            harness.median(f.setup_s - f.build_s for f in plain), "s"
        ),
        "cluster.coordinator.join_s": (
            harness.median(f.result.timing.join_seconds for f in plain), "s"
        ),
        "cluster.coordinator.spec_bytes": (_spec_bytes(plain[0]), "B"),
        "cluster.worker.kernel_share": (kernel_share, "frac"),
        "cluster.worker.idle_share": (idle_share, "frac"),
        "cluster.worker.loop_share": (1.0 - kernel_share - idle_share, "frac"),
        "cluster.worker.imbalance": (harness.median(imbalance), "ratio"),
        "cluster.worker.cpu_s": (harness.median(cpu_s), "s"),
        "cluster.worker.tokens_per_s": (tokens / wall, "1/s"),
        "cluster.worker.updates_per_token": (
            counters[COUNTER_NAMES[C_UPDATES]] / max(1, tokens), "count"
        ),
        "cluster.worker.tokens_per_batch": (
            tokens / max(1, counters[COUNTER_NAMES[C_BATCHES]]), "count"
        ),
        "cluster.worker.hop_p50_ms": (hop.p50 * 1e3, "ms"),
        "cluster.worker.hop_p99_ms": (hop.at(99.0) * 1e3, "ms"),
        "cluster.worker.queue_depth_p50": (harness.median(depths), "count"),
        "telemetry.events_dropped_frac": (dropped / max(1, dropped + kept), "frac"),
    }


def _spec_bytes(fit) -> float:
    """Bytes of worker specs the coordinator pickles at spawn, computed
    from the dtypes it ships: every train rating's row, column and value,
    plus each user's initial factor row and global id."""
    matrix = fit.train
    k = fit.result.factors.k
    per_rating = sum(a.dtype.itemsize for a in (matrix.rows, matrix.cols, matrix.vals))
    return matrix.nnz * per_rating + matrix.n_rows * (k * 8 + 8)


# ----------------------------------------------------------------------
# Serve and stream layers, from spans in the server and /stats
# ----------------------------------------------------------------------
def serve_layers(loaded) -> dict:
    plan, observed, stats = loaded.plan, loaded.observed, loaded.stats
    spans = loaded.summary["spans"]
    lo, hi = observed.start, observed.end

    def durations(name: str, in_window: bool = False) -> list[float]:
        return [
            end - start
            for _, n, start, end, _, _ in spans
            if n == name and (not in_window or lo <= start <= hi)
        ]

    dispatch = harness.summarize(durations("serve.app.dispatch", True))
    reads = observed.logs["fixed"].latency()
    late = harness.summarize(
        x for name, *_ in plan.rungs for x in observed.logs[name].lateness
    )
    sweeps = durations("stream.dynamic.sweep", True)
    rotations = durations("stream.snapshots.rotate", True)
    return {
        "serve.app.dispatch_p50_ms": (dispatch.p50 * 1e3, "ms"),
        "serve.app.dispatch_p99_ms": (dispatch.at(99.0) * 1e3, "ms"),
        "serve.http.overhead_p50_ms": ((reads.p50 - dispatch.p50) * 1e3, "ms"),
        "serve.http.read_p50_ms": (reads.p50 * 1e3, "ms"),
        "serve.http.read_p99_ms": (reads.at(99.0) * 1e3, "ms"),
        "serve.cache.hit_rate": (stats["request_cache"]["hit_rate"], "frac"),
        "serve.ingest.accepted_frac": (
            observed.accepted / max(1, observed.offered), "frac"
        ),
        "stream.serve.hit_rate": (stats["recommender_cache"]["hit_rate"], "frac"),
        "stream.serve.recommend_us": (
            harness.median(durations("stream.serve.recommend")) * 1e6, "us"
        ),
        "stream.serve.predict_us": (
            harness.median(durations("stream.serve.predict")) * 1e6, "us"
        ),
        "stream.dynamic.ingest_us_per_rating": (
            harness.median(durations("stream.dynamic.ingest")) * 1e6, "us"
        ),
        "stream.dynamic.sweep_ms": (harness.median(durations("stream.dynamic.sweep")) * 1e3, "ms"),
        "stream.dynamic.sweep_share": (sum(sweeps) / (hi - lo), "frac"),
        "stream.snapshots.rotate_ms": (
            harness.median(durations("stream.snapshots.rotate")) * 1e3, "ms"
        ),
        "stream.snapshots.rotations": (len(rotations), "count"),
        "loadgen.late_p99_ms": (late.at(99.0) * 1e3, "ms"),
    }


# ----------------------------------------------------------------------
# The two traced runs
# ----------------------------------------------------------------------
def train_traced(name, data, hyper, seconds, seed, scratch):
    """Traced ``train-*``: two untraced and two traced fits alternating,
    layer replays on the workload's shards, and a short serving session
    over its ratings."""
    tracer = harness.Tracer()
    outcome = harness.Outcome()
    budget = seconds / (2 * train.FITS)
    plain, traced, cpu = [], [], []
    for i in range(2):
        plain += train.fits(name, data, hyper, budget, seed * 4 + 2 * i, 1, outcome, tracer)
        before = harness.children_cpu_s()
        traced += train.fits(
            name, data, hyper, budget, seed * 4 + 2 * i + 1, 1, outcome, tracer,
            telemetry=True,
        )
        cpu.append(harness.children_cpu_s() - before)
    if not plain or not traced:
        return outcome, {}, ["no fit completed"]
    metrics = cluster_layers(plain, traced, cpu)
    untraced_rate = harness.median(f.result.timing.updates_per_second for f in plain)
    traced_rate = harness.median(f.result.timing.updates_per_second for f in traced)
    metrics["telemetry.overhead_frac"] = (
        harness.overhead_frac(untraced_rate, traced_rate, "higher"), "frac"
    )
    cells = _cells(data, seed)
    metrics.update(replays(tracer, plain[0].train, plain[0].test, hyper, cells))

    shape_name, tag = train.SHAPES[name]
    with tracer.span("serve.session"):
        # Every ingest batch makes the service's trainer sweep all the
        # workload's ratings, so batches come ten times less often here.
        loaded = serve.session(
            seed, min(seconds, 4.0), 0.0, scratch, data, shape_name, tag, trace=True,
            name=f"{name}-traced", ingest_rate=serve.INGEST_RATE / 10,
        )
    serve.count_requests(loaded, outcome)
    metrics.update(serve_layers(loaded))
    tracer.dump(os.path.join(scratch, f"trace-{name}-{seed}.json"))
    lines = [f"{name} traced: {len(plain)} untraced + {len(traced)} traced fits"]
    return outcome, metrics, lines


def serve_traced(seed, seconds, scratch, data):
    """Traced ``serve-mixed``: an untraced and a traced serving session,
    layer replays on the warm-up matrix, and a short cluster fit of it."""
    from repro.datasets.ratings import RatingMatrix

    tracer = harness.Tracer()
    outcome = harness.Outcome()
    with tracer.span("serve.session.untraced"):
        plain = serve.session(seed, seconds / 2, 0.0, scratch, data, name="untraced")
    serve.check(plain, outcome)
    fixed_s = seconds * serve.FIXED_SHARE
    with tracer.span("serve.session.traced"):
        loaded = serve.session(
            seed, fixed_s, seconds - fixed_s, scratch, data, trace=True, name="traced"
        )
    serve.check(loaded, outcome)
    metrics = serve_layers(loaded)
    untraced_p50 = plain.observed.logs["fixed"].latency().p50
    traced_p50 = loaded.observed.logs["fixed"].latency().p50
    metrics["telemetry.overhead_frac"] = (
        harness.overhead_frac(untraced_p50, traced_p50, "lower"), "frac"
    )

    shape = data.shape
    warmup = RatingMatrix(shape.rows, shape.cols, *data.split(False))
    test = RatingMatrix(shape.rows, shape.cols, *data.split(True))
    hyper = inputs.hyper(serve.SHAPE)
    metrics.update(replays(tracer, warmup, test, hyper, _cells(data, seed)))
    fits_plain = train.fits("serve-mixed", data, hyper, 1.0, seed, 1, outcome, tracer)
    before = harness.children_cpu_s()
    fits_traced = train.fits(
        "serve-mixed", data, hyper, 1.0, seed, 1, outcome, tracer, telemetry=True
    )
    cpu = [harness.children_cpu_s() - before]
    if fits_plain and fits_traced:
        metrics.update(cluster_layers(fits_plain, fits_traced, cpu))
    # The workload's own figures: the server's build and its recorder.
    summary = loaded.summary
    metrics["datasets.build_s"] = (summary["build_s"], "s")
    events = summary["events_dropped"] + summary["events_kept"]
    metrics["telemetry.events_dropped_frac"] = (
        summary["events_dropped"] / max(1, events), "frac"
    )
    tracer.dump(os.path.join(scratch, f"trace-serve-mixed-{seed}.json"))
    return outcome, metrics, ["serve-mixed traced: untraced + traced sessions"]


def _cells(data, seed: int):
    rng = np.random.default_rng([seed, 99])
    rows, cols = inputs.unobserved_cells(data, serve.BATCH, rng)
    return list(zip(rows.tolist(), cols.tolist(), data.truth(rows, cols, rng).tolist()))
