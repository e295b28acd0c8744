"""NOMAD on real Python threads.

A direct transcription of Algorithm 1 onto :class:`threading.Thread`
workers and :class:`queue.SimpleQueue` mailboxes:

* every worker owns a disjoint set of user rows (its partition I_q) and a
  mailbox of item tokens;
* a worker pops ``(j, h_j)``, runs the SGD updates over its local ratings
  Ω̄^(q)_j, and pushes the token to a random worker's mailbox;
* there are **no locks around any parameter**: ``W`` rows are written only
  by their owner, ``H`` rows only by the current token holder — the
  owner-computes rule makes mutual exclusion structural rather than
  enforced.

CPython's GIL means the threads interleave rather than truly parallelize
the float math, so this runtime exists to validate the protocol (token
conservation, lock-freedom, convergence) on real concurrency primitives;
use :class:`~repro.runtime.multiprocess.MultiprocessNomad` for actual
parallel speedup and the simulator for scaling studies.
"""

from __future__ import annotations

import queue
import threading
import time

import numpy as np

from ..config import HyperParams, RunConfig
from ..datasets.ratings import RatingMatrix
from ..errors import ConfigError
from ..linalg.backends import resolve_backend
from ..linalg.factors import FactorPair, init_factors, validate_init_factors
from ..linalg.objective import test_rmse
from ..partition.partitioners import partition_rows_equal_ratings
from ..rng import RngFactory
from ..telemetry import (
    C_BATCHES,
    C_DRAINS,
    C_IDLE_POLLS,
    C_TOKENS,
    C_UPDATES,
    POINT_QUEUE_DEPTH,
    Recorder,
    RunTelemetry,
    SPAN_HOP,
    SPAN_IDLE,
    SPAN_KERNEL,
    clock,
)
from .result import RuntimeResult, resolve_duration, resolve_run_settings

__all__ = ["ThreadedNomad", "ThreadedResult"]

#: nomadlint NMD001 owner contexts: the only functions here allowed to
#: write factor rows.  ``worker`` is the token-dispatch loop — it holds
#: the popped token, so the owner-computes rule makes its W/H writes
#: exclusive by construction.
__nomad_owner_contexts__ = ("worker",)

_STOP = object()  # queue sentinel telling a worker to drain and exit
_POLL_SECONDS = 0.02
#: Max tokens drained per mailbox visit into one fused kernel call.
#: Batching amortizes per-call overhead (compiled backends run the whole
#: burst in native code with the GIL released); the cap bounds how long a
#: worker defers its stop/sentinel checks.
_BURST_TOKENS = 32


class ThreadedResult(RuntimeResult):
    """Outcome of a threaded NOMAD run; see
    :class:`~repro.runtime.result.RuntimeResult` for the field contract."""


class ThreadedNomad:
    """Owner-computes NOMAD over real threads.

    Parameters
    ----------
    train, test:
        Rating matrices of one shape.
    n_workers:
        Number of worker threads (>= 1).
    hyper:
        Model hyperparameters.
    seed:
        Root seed (initialization, token scattering, routing).  ``None``
        (default) takes ``run.seed`` when a :class:`RunConfig` is given,
        else 0; an explicit value always wins.
    kernel_backend:
        Kernel backend name (``"auto"``/``"list"``/``"numpy"``/``"cext"``);
        ``None`` (default) takes ``run.kernel_backend`` when a run config
        is given, else consults ``$NOMAD_KERNEL_BACKEND``, then
        ``"auto"``.  The factors live in shared ndarrays here, so
        ``"auto"`` resolves to the compiled backend when a toolchain is
        present (its calls release the GIL, so this runtime then gets
        true multi-core parallelism) and the numpy backend otherwise;
        ``"list"`` still runs correctly on the ndarray rows, just slower.
    run:
        Optional :class:`~repro.config.RunConfig`.  Its ``duration`` is
        the wall-clock budget of :meth:`run` (the same field the
        simulated engine honors — previously the real runtimes silently
        ignored it), and its ``seed``/``kernel_backend`` become the
        defaults above.  ``eval_interval`` is unused (the live runtimes
        evaluate once, at the end) and ``max_updates`` is rejected
        eagerly: real threads cannot halt mid-flight at an exact global
        update count, and pretending otherwise would corrupt
        updates-versus-RMSE comparisons.
    init_factors:
        Optional warm-start factors (validated against the train shape
        and ``hyper.k``); training starts from a private copy instead of
        the seed-determined initialization.
    telemetry:
        When true every worker thread records token hops, mailbox
        drains, queue depths, kernel batches, and idle polls into a
        per-worker :class:`~repro.telemetry.Recorder`, and the result
        carries a merged :class:`~repro.telemetry.RunTelemetry`.
        Default off; the disabled path costs one ``None`` check per
        instrumentation site.
    """

    def __init__(
        self,
        train: RatingMatrix,
        test: RatingMatrix,
        n_workers: int,
        hyper: HyperParams,
        seed: int | None = None,
        kernel_backend: str | None = None,
        run: RunConfig | None = None,
        init_factors: FactorPair | None = None,
        telemetry: bool = False,
    ):
        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        if train.shape != test.shape:
            raise ConfigError("train/test shapes disagree")
        self.train = train
        self.test = test
        self.n_workers = int(n_workers)
        self.hyper = hyper
        self.run_config = run
        self.seed, kernel_backend = resolve_run_settings(
            seed, kernel_backend, run
        )
        self.backend = resolve_backend(
            kernel_backend, k=hyper.k, storage="ndarray"
        )
        if init_factors is not None:
            validate_init_factors(
                init_factors, train.n_rows, train.n_cols, hyper.k
            )
        self._init_factors = init_factors
        self.telemetry = bool(telemetry)

    def run(self, duration_seconds: float | None = None) -> ThreadedResult:
        """Run the worker pool for ``duration_seconds`` of wall time.

        ``None`` (default) falls back to the constructor run config's
        ``duration``, or 1 second when no run config was given.
        """
        duration_seconds = resolve_duration(duration_seconds, self.run_config)
        factory = RngFactory(self.seed)
        if self._init_factors is not None:
            # A private copy: the worker threads mutate these arrays.
            factors = self._init_factors.snapshot()
        else:
            factors = init_factors(
                self.train.n_rows, self.train.n_cols, self.hyper.k,
                factory.stream("init"),
            )
        partition = partition_rows_equal_ratings(self.train, self.n_workers)
        shards = self.train.shard_by_rows(partition)
        counts = [np.zeros(shard.nnz, dtype=np.int64) for shard in shards]

        mailboxes: list[queue.SimpleQueue] = [
            queue.SimpleQueue() for _ in range(self.n_workers)
        ]
        scatter_rng = factory.pyrandom("scatter")
        for j in range(self.train.n_cols):
            mailboxes[scatter_rng.randrange(self.n_workers)].put(j)

        recorders = (
            [Recorder(q) for q in range(self.n_workers)]
            if self.telemetry
            else None
        )
        # Hop stamps: put_times[j] is the clock() stamp of token j's most
        # recent mailbox put, written by the routing worker and read by
        # the popping worker.  No lock: a token has exactly one holder at
        # a time, so per token the write happens-before the read (the
        # mailbox put/get pair is the synchronization edge).
        put_times = (
            np.full(self.train.n_cols, clock(), dtype=np.float64)
            if self.telemetry
            else None
        )

        stop = threading.Event()
        update_totals = [0] * self.n_workers

        def worker(q: int) -> None:
            routing = factory.pyrandom(f"route-{q}")
            shard = shards[q]
            my_counts = counts[q]
            w = factors.w
            h = factors.h
            hyper = self.hyper
            backend = self.backend
            mailbox = mailboxes[q]
            rec = recorders[q] if recorders is not None else None
            while True:
                try:
                    if rec is not None:
                        poll_start = clock()
                    token = mailbox.get(timeout=_POLL_SECONDS)
                except queue.Empty:
                    if rec is not None:
                        rec.span(SPAN_IDLE, poll_start, clock() - poll_start)
                        rec.add(C_IDLE_POLLS)
                    if stop.is_set():
                        return
                    continue
                if token is _STOP:
                    return
                # Drain waiting tokens (without blocking) into one fused
                # kernel call per burst.
                burst = [token]
                saw_stop = False
                while len(burst) < _BURST_TOKENS:
                    try:
                        extra = mailbox.get_nowait()
                    except queue.Empty:
                        break
                    if extra is _STOP:
                        saw_stop = True
                        break
                    burst.append(extra)
                if rec is not None:
                    now = clock()
                    rec.point(POINT_QUEUE_DEPTH, mailbox.qsize())
                    rec.add(C_DRAINS)
                    rec.add(C_TOKENS, len(burst))
                    for j in burst:
                        arrived = put_times[j]
                        rec.span(SPAN_HOP, arrived, now - arrived)
                if rec is not None:
                    kernel_start = clock()
                items = np.array(burst, dtype=np.int64)
                applied = backend.process_items(
                    w, h, items, items,
                    shard.ptr, shard.rows, shard.vals, my_counts,
                    hyper.alpha, hyper.beta, hyper.lambda_,
                )
                if applied:
                    update_totals[q] += applied
                    if rec is not None:
                        rec.span(
                            SPAN_KERNEL,
                            kernel_start,
                            clock() - kernel_start,
                            applied,
                        )
                        rec.add(C_UPDATES, applied)
                        rec.add(C_BATCHES)
                # Route every drained token onward so none is lost, even
                # when stopping.
                if rec is not None:
                    route_time = clock()
                for token in burst:
                    if rec is not None:
                        put_times[token] = route_time
                    mailboxes[routing.randrange(self.n_workers)].put(token)
                if saw_stop or stop.is_set():
                    return

        threads = [
            threading.Thread(target=worker, args=(q,), name=f"nomad-{q}")
            for q in range(self.n_workers)
        ]
        started = clock()
        for thread in threads:
            thread.start()
        time.sleep(duration_seconds)
        stop.set()
        # The parallel section ends at the stop signal; everything after
        # (sentinel delivery, joins) is shutdown overhead reported apart
        # so wall_seconds stays an honest throughput denominator.
        wall = clock() - started
        for mailbox in mailboxes:
            mailbox.put(_STOP)
        for thread in threads:
            thread.join()
        join_seconds = clock() - started - wall

        return ThreadedResult(
            factors=factors,
            updates=sum(update_totals),
            wall_seconds=wall,
            rmse=test_rmse(factors, self.test),
            updates_per_worker=list(update_totals),
            join_seconds=join_seconds,
            telemetry=(
                RunTelemetry.from_workers(
                    [recorder.snapshot() for recorder in recorders]
                )
                if recorders is not None
                else None
            ),
        )
