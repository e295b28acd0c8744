"""Server side of ``serve-mixed``: one ``RecommendationService`` process.

Started by ``serve.py`` so the load generator never shares this
process's interpreter lock.  It regenerates the warm-up ratings from the
seed, starts the service, prints ``PORT <n>`` once the service is
healthy, serves until its standard input closes, stops the service, and
writes a JSON summary to the ``--out`` path.

With ``--trace 1`` it first wraps the public entry points of the serve
and stream layers in timing spans (from this file; nothing inside the
program changes), keeps them in memory, and writes them into that
summary when it ends.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import harness
import inputs

#: (class path, method, span name) wrapped in traced runs.
TRACED = (
    ("repro.serve.app:RecommendationService", "dispatch", "serve.app.dispatch"),
    ("repro.stream.serve:Recommender", "predict", "stream.serve.predict"),
    ("repro.stream.serve:Recommender", "recommend", "stream.serve.recommend"),
    ("repro.stream.snapshots:SnapshotStore", "rotate", "stream.snapshots.rotate"),
    ("repro.stream.dynamic:DynamicNomad", "ingest", "stream.dynamic.ingest"),
    ("repro.stream.dynamic:DynamicNomad", "sweep", "stream.dynamic.sweep"),
    ("repro.serve.schemas:IngestRequest", "from_body", "serve.schemas.ingest_parse"),
)


def _resolve(path: str):
    import importlib

    module, name = path.split(":")
    return getattr(importlib.import_module(module), name)


def install_spans(tracer: harness.Tracer) -> None:
    """Wrap each :data:`TRACED` entry point in a span.

    A request's id is its order on its connection: each handler thread
    serves one connection, so a thread-local counter numbers requests,
    and the connection number is assigned at its first request.
    """
    import itertools
    import threading

    connections = itertools.count()
    local = threading.local()

    def request_id() -> int:
        if not hasattr(local, "conn"):
            local.conn, local.order = next(connections), itertools.count()
        return local.conn * 10_000_000 + next(local.order)

    for path, method, span_name in TRACED:
        owner = _resolve(path)
        original = owner.__dict__[method]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original

        def wrapped(*args, _func=func, _name=span_name, **kwargs):
            request = request_id() if _name == "serve.app.dispatch" else -1
            with tracer.span(_name, request):
                return _func(*args, **kwargs)

        setattr(owner, method, classmethod(wrapped) if is_classmethod else wrapped)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tag", type=int, required=True)
    parser.add_argument("--shape", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro.datasets.ratings import RatingMatrix
    from repro.serve import RecommendationService, ServiceConfig

    import serve

    tracer = harness.Tracer()
    if args.trace:
        install_spans(tracer)
    shape = getattr(inputs, args.shape)
    data = inputs.planted(args.seed, shape, args.tag)
    started = time.perf_counter()
    warmup = RatingMatrix(shape.rows, shape.cols, *data.split(False))
    build_s = time.perf_counter() - started
    service = RecommendationService(
        warmup,
        hyper=inputs.hyper(args.shape),
        config=ServiceConfig(
            n_workers=serve.TRAINER_WORKERS, warmup_epochs=serve.WARMUP_EPOCHS
        ),
    )
    service.start()
    try:
        print(f"PORT {service.port}", flush=True)
        sys.stdin.read()  # serve until the driver closes our stdin
    finally:
        service.stop()
    summary = {
        "build_s": build_s,
        "trainer_error": service.trainer_error,
        "events_dropped": service.recorder.dropped,
        "events_kept": len(service.recorder.snapshot().events),
    }
    if args.trace:
        summary["spans"] = tracer.spans
    with open(args.out, "w") as out:
        json.dump(summary, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
