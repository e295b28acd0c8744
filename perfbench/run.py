"""The repository's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload train-netflix --seed 1 --seconds 12 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``train-netflix`` — NOMAD on the cluster engine, compute-bound tokens;
* ``train-yahoo`` — the same engine, communication-bound tokens;
* ``serve-mixed`` — the HTTP service under open-loop reads plus ingest.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
traced variant and prints every per-layer metric.  Human-readable lines
come first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything the run writes
goes under ``.bench_build/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

WORKLOADS = ("train-netflix", "train-yahoo", "serve-mixed")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SCRATCH = ".bench_build"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_environment() -> str:
    """Point the program's caches and temp files into the checkout and
    make ``src/`` importable; returns the scratch directory."""
    source = os.path.abspath("src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        raise SystemExit(
            "perfbench: no src/repro here; run from the repository root"
        )
    scratch = os.path.abspath(SCRATCH)
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["NOMAD_CEXT_CACHE"] = os.path.join(scratch, "cext")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, BENCH_DIR, os.environ.get("PYTHONPATH")])
    )
    for path in (BENCH_DIR, source):
        if path not in sys.path:
            sys.path.insert(0, path)
    return scratch


def build_kernels() -> None:
    """Compile the C kernels into the checkout (or load them from an
    earlier run) before anything is timed."""
    from repro.linalg.backends import resolve_backend

    resolve_backend("auto", k=8, storage="ndarray")


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts with
    the first spawned worker.  Left alone it would exit only after this
    process does, so for a moment it would outlive the benchmark."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0 or args.seed < 0:
        raise SystemExit("perfbench: --seconds must be > 0 and --seed >= 0")
    scratch = prepare_environment()
    build_kernels()
    import harness

    try:
        if args.workload == "serve-mixed":
            import serve

            outcome, metrics, lines = serve.run(
                args.seed, args.seconds, bool(args.trace), scratch
            )
        else:
            import train

            outcome, metrics, lines = train.run(
                args.workload, args.seed, args.seconds, bool(args.trace), scratch
            )
    finally:
        stop_resource_tracker()
    expected = _expected_metrics(bool(args.trace))
    metrics = {n: m for n, m in metrics.items() if math.isfinite(m[0])}
    missing = [name for name in expected if name not in metrics]
    outcome.check(not missing, f"metrics not measured: {missing}")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {args.workload} {name} = {value:.6g} {unit}")
    print(
        f"  {args.workload} fail_frac = "
        f"{outcome.failed / max(1, outcome.attempted):.6g} "
        f"({outcome.failed} of {outcome.attempted} operations failed)"
    )
    for reason in outcome.reasons[:20]:
        print(f"  FAILED: {reason}")
    print(harness.result_line(outcome, {n: metrics[n] for n in expected if n in metrics}))
    return 0


def _expected_metrics(trace: bool) -> list[str]:
    """Metric names ``BENCHMARK.json`` promises for this mode."""
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as spec:
        bench = json.load(spec)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    sys.exit(main())
