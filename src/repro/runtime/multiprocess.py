"""NOMAD on real processes with shared-memory factors.

CPython's GIL prevents thread-level parallel speedup of the SGD inner loop,
so this runtime applies the standard workaround: worker *processes* that
share the factor matrices through :mod:`multiprocessing.shared_memory`.

The NOMAD structure is unchanged from Algorithm 1:

* ``W`` lives in one shared-memory block, partitioned by rows; each row is
  written only by its owning process.
* ``H`` lives in a second shared block; row ``j`` is written only by the
  process currently holding token ``j``.
* Tokens (plain item indices — the ``h_j`` payload already lives in shared
  memory, which mirrors the zero-copy queue hand-off of the original C++
  implementation) travel through per-worker :class:`multiprocessing.Queue`
  mailboxes.

Because ownership is exclusive by construction, no locks guard any float:
the only synchronized objects are the queues themselves, exactly as in the
paper ("the only interaction between threads is via operations on the
queue", §3.5).

Two runtime caveats:

* **Start method.**  The per-worker queue mailboxes are passed positionally
  through ``Process(args=...)``, which only works when children inherit
  them — i.e. under the ``fork`` start method.  This runtime therefore
  requests an explicit fork context and raises
  :class:`~repro.errors.ConfigError` on platforms without it (macOS and
  Windows default to ``spawn``); use
  :class:`~repro.runtime.threaded.ThreadedNomad` or the simulator there.
* **Timing.**  ``wall_seconds`` covers the parallel section only: it is
  stamped the moment the stop event is set.  Result collection and process
  joins (up to ``_JOIN_TIMEOUT`` each) are reported separately as
  ``join_seconds`` so shutdown cost can never inflate throughput numbers.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_module
import time

import numpy as np
from multiprocessing import shared_memory

from ..config import HyperParams, RunConfig
from ..datasets.ratings import RatingMatrix, Shard
from ..errors import ConfigError
from ..linalg.backends import get_backend, resolve_backend
from ..linalg.factors import FactorPair, init_factors, validate_init_factors
from ..linalg.objective import test_rmse
from ..partition.partitioners import partition_worker_triplets
from ..rng import RngFactory, derive_pyrandom
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
    WorkerTelemetry,
    clock,
)
from .result import RuntimeResult, resolve_duration, resolve_run_settings

__all__ = ["MultiprocessNomad", "MultiprocessResult"]

#: nomadlint NMD001 owner contexts: ``_worker_main`` is the per-process
#: token-dispatch loop (exclusive by token ownership); ``run`` seeds the
#: shared blocks before any worker exists and snapshots them after every
#: worker has exited — both outside the concurrent window.
__nomad_owner_contexts__ = ("_worker_main", "run")

_POLL_SECONDS = 0.02
_JOIN_TIMEOUT = 10.0
#: Max tokens drained per mailbox visit into one fused kernel call (the
#: same burst discipline as the threaded runtime and cluster worker).
_BURST_TOKENS = 32


class MultiprocessResult(RuntimeResult):
    """Outcome of a multiprocess NOMAD run; see
    :class:`~repro.runtime.result.RuntimeResult` for the field contract."""


def _fork_context() -> mp.context.BaseContext:
    """The explicit ``fork`` multiprocessing context this runtime needs.

    The mailboxes are plain ``context.Queue()`` objects handed to children
    positionally through ``Process(args=...)``; only forked children can
    inherit them.  Raising here (rather than crashing inside ``spawn``
    pickling) names the limitation and the alternatives.
    """
    if "fork" not in mp.get_all_start_methods():
        raise ConfigError(
            "MultiprocessNomad requires the 'fork' start method, which is "
            "unavailable on this platform (macOS/Windows default to "
            "'spawn', under which the per-worker Queue mailboxes cannot "
            "be passed through Process(args=...)); use ThreadedNomad or "
            "the discrete-event simulator instead"
        )
    return mp.get_context("fork")


def _worker_main(
    worker_id: int,
    n_workers: int,
    shm_w_name: str,
    shm_h_name: str,
    shape_w: tuple[int, int],
    shape_h: tuple[int, int],
    shard_rows: np.ndarray,
    shard_cols: np.ndarray,
    shard_vals: np.ndarray,
    hyper: HyperParams,
    backend_name: str,
    seed: int,
    mailboxes: list,
    stop_event,
    result_queue,
    shm_times_name: str | None = None,
) -> None:
    """Entry point of one worker process (module-level for picklability).

    ``hyper`` travels as the :class:`~repro.config.HyperParams` dataclass
    itself — named field access instead of positional tuple unpacking, so
    a field reorder can never silently swap α and λ.

    ``shm_times_name`` (set only when telemetry is enabled) names a third
    shared block holding one :func:`~repro.telemetry.clock` stamp per
    item: the token's most recent mailbox-put time, written by the
    routing worker and read by the popping worker to produce cross-process
    hop spans (``perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux, so
    stamps are comparable across the forked processes of one host).
    """
    alpha = hyper.alpha
    beta = hyper.beta
    lambda_ = hyper.lambda_
    backend = get_backend(backend_name)

    shm_w = shared_memory.SharedMemory(name=shm_w_name)
    shm_h = shared_memory.SharedMemory(name=shm_h_name)
    shm_times = (
        shared_memory.SharedMemory(name=shm_times_name)
        if shm_times_name is not None
        else None
    )
    rec = Recorder(worker_id) if shm_times is not None else None
    updates = 0
    try:
        w = np.ndarray(shape_w, dtype=np.float64, buffer=shm_w.buf)
        h = np.ndarray(shape_h, dtype=np.float64, buffer=shm_h.buf)
        put_times = (
            np.ndarray((shape_h[0],), dtype=np.float64, buffer=shm_times.buf)
            if shm_times is not None
            else None
        )
        shard = Shard(
            worker=worker_id,
            n_cols=shape_h[0],
            rows=shard_rows,
            cols=shard_cols,
            vals=shard_vals,
        )
        counts = np.zeros(shard.nnz, dtype=np.int64)
        routing = derive_pyrandom(seed, f"mp-route-{worker_id}")
        mailbox = mailboxes[worker_id]

        while True:
            try:
                if rec is not None:
                    poll_start = clock()
                token = mailbox.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                if rec is not None:
                    rec.span(SPAN_IDLE, poll_start, clock() - poll_start)
                    rec.add(C_IDLE_POLLS)
                if stop_event.is_set():
                    return
                continue
            # Drain waiting tokens (without blocking) into one fused
            # kernel call per burst.
            burst = [token]
            while len(burst) < _BURST_TOKENS:
                try:
                    burst.append(mailbox.get_nowait())
                except queue_module.Empty:
                    break
            if rec is not None:
                now = clock()
                try:
                    depth = mailbox.qsize()
                except NotImplementedError:  # macOS mp.Queue has no qsize
                    depth = 0
                rec.point(POINT_QUEUE_DEPTH, depth)
                rec.add(C_DRAINS)
                rec.add(C_TOKENS, len(burst))
                for j in burst:
                    arrived = put_times[j]
                    rec.span(SPAN_HOP, arrived, now - arrived)
            if rec is not None:
                kernel_start = clock()
            items = np.array(burst, dtype=np.int64)
            applied = backend.process_items(
                w, h, items, items, shard.ptr, shard.rows, shard.vals,
                counts, alpha, beta, lambda_,
            )
            if applied:
                updates += applied
                if rec is not None:
                    rec.span(
                        SPAN_KERNEL, kernel_start, clock() - kernel_start,
                        applied,
                    )
                    rec.add(C_UPDATES, applied)
                    rec.add(C_BATCHES)
            if rec is not None:
                route_time = clock()
            for token in burst:
                if rec is not None:
                    put_times[token] = route_time
                mailboxes[routing.randrange(n_workers)].put(token)
            if stop_event.is_set():
                return
    finally:
        # The telemetry snapshot rides the existing result channel as a
        # plain dict (picklable, version-free: both ends are one fork).
        result_queue.put(
            (
                worker_id,
                updates,
                rec.snapshot().to_dict() if rec is not None else None,
            )
        )
        shm_w.close()
        shm_h.close()
        if shm_times is not None:
            shm_times.close()


def _release_blocks(blocks: list[shared_memory.SharedMemory]) -> None:
    """Close and unlink every created block, tolerating partial failure.

    Runs under ``finally``: each block gets its ``unlink`` attempt even
    if closing or unlinking an earlier one raises, so a worker crash or
    a failed second allocation can never leak the first block.
    """
    for shm in blocks:
        try:
            shm.close()
        except OSError:
            pass
        try:
            shm.unlink()
        except OSError:
            pass  # already gone, or unlinkable — never skip later blocks


class MultiprocessNomad:
    """Owner-computes NOMAD over processes and shared memory.

    Parameters
    ----------
    train, test:
        Rating matrices of one shape.
    n_workers:
        Number of worker processes (>= 1).
    hyper:
        Model hyperparameters.
    seed:
        Root seed (initialization, token scattering, per-worker routing).
        ``None`` (default) takes ``run.seed`` when a :class:`RunConfig`
        is given, else 0; an explicit value always wins.
    kernel_backend:
        Kernel backend name (``"auto"``/``"list"``/``"numpy"``/``"cext"``);
        ``None`` (default) takes ``run.kernel_backend`` when a run config
        is given, else consults ``$NOMAD_KERNEL_BACKEND``, then
        ``"auto"``.  The shared-memory factors are ndarrays, so ``"auto"``
        resolves to the compiled backend when a toolchain is present
        (workers hand their shared blocks straight to the C kernels with
        zero copies) and the numpy backend otherwise.
    run:
        Optional :class:`~repro.config.RunConfig`.  Its ``duration`` is
        the wall-clock budget of :meth:`run` (the same field the
        simulated engine honors — previously the real runtimes silently
        ignored it), and its ``seed``/``kernel_backend`` become the
        defaults above.  ``eval_interval`` is unused here and
        ``max_updates`` is rejected eagerly (workers cannot be halted at
        an exact global update count).
    init_factors:
        Optional warm-start factors (validated against the train shape
        and ``hyper.k``); the shared-memory blocks are seeded from them
        instead of the seed-determined initialization.  The caller's
        arrays are only read.
    telemetry:
        When true each worker process records token hops, queue depths,
        kernel batches, and idle polls (:mod:`repro.telemetry`), ships
        its snapshot back through the existing result queue, and the
        result carries a merged :class:`~repro.telemetry.RunTelemetry`.
        Enabling allocates one extra shared block (8 bytes per item)
        for cross-process hop stamps; default off.
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

    def run(self, duration_seconds: float | None = None) -> MultiprocessResult:
        """Run the worker pool for ``duration_seconds`` of wall time.

        ``None`` (default) falls back to the constructor run config's
        ``duration``, or 1 second when no run config was given.
        """
        duration_seconds = resolve_duration(duration_seconds, self.run_config)
        factory = RngFactory(self.seed)
        if self._init_factors is not None:
            init = self._init_factors
        else:
            init = init_factors(
                self.train.n_rows, self.train.n_cols, self.hyper.k,
                factory.stream("init"),
            )
        _, shard_triplets = partition_worker_triplets(
            self.train, self.n_workers
        )

        # Both blocks are created inside the guarded region: if creating
        # the second one fails, or a worker/collection error propagates,
        # _release_blocks still unlinks whatever exists — a leaked block
        # would otherwise survive in /dev/shm until reboot.
        blocks: list[shared_memory.SharedMemory] = []
        try:
            shm_w = shared_memory.SharedMemory(create=True, size=init.w.nbytes)
            blocks.append(shm_w)
            shm_h = shared_memory.SharedMemory(create=True, size=init.h.nbytes)
            blocks.append(shm_h)
            w_shared = np.ndarray(init.w.shape, np.float64, buffer=shm_w.buf)
            h_shared = np.ndarray(init.h.shape, np.float64, buffer=shm_h.buf)
            w_shared[:] = init.w
            h_shared[:] = init.h
            shm_times = None
            if self.telemetry:
                # Third block: per-item mailbox-put stamps for the
                # cross-process hop spans; released with the factor
                # blocks by the same finally.
                shm_times = shared_memory.SharedMemory(
                    create=True, size=self.train.n_cols * 8
                )
                blocks.append(shm_times)
                times_shared = np.ndarray(
                    (self.train.n_cols,), np.float64, buffer=shm_times.buf
                )
                times_shared[:] = clock()

            context = _fork_context()
            mailboxes = [context.Queue() for _ in range(self.n_workers)]
            stop_event = context.Event()
            result_queue = context.Queue()

            scatter = factory.pyrandom("mp-scatter")
            for j in range(self.train.n_cols):
                mailboxes[scatter.randrange(self.n_workers)].put(j)

            processes = []
            for q in range(self.n_workers):
                shard_rows, shard_cols, shard_vals = shard_triplets[q]
                process = context.Process(
                    target=_worker_main,
                    args=(
                        q,
                        self.n_workers,
                        shm_w.name,
                        shm_h.name,
                        init.w.shape,
                        init.h.shape,
                        shard_rows,
                        shard_cols,
                        shard_vals,
                        self.hyper,
                        self.backend.name,
                        self.seed,
                        mailboxes,
                        stop_event,
                        result_queue,
                        shm_times.name if shm_times is not None else None,
                    ),
                    daemon=True,
                )
                processes.append(process)

            started = clock()
            for process in processes:
                process.start()
            time.sleep(duration_seconds)
            stop_event.set()
            # End of the parallel section: stamp the wall clock now, so
            # result collection and joins (each bounded by _JOIN_TIMEOUT)
            # can never inflate the reported parallel time.
            wall = clock() - started

            per_worker = [0] * self.n_workers
            snapshots: list[WorkerTelemetry] = []
            collected = 0
            deadline = clock() + _JOIN_TIMEOUT
            while collected < self.n_workers and clock() < deadline:
                try:
                    worker_id, n_updates, snapshot = result_queue.get(
                        timeout=0.25
                    )
                except queue_module.Empty:
                    continue
                per_worker[worker_id] = n_updates
                if snapshot is not None:
                    snapshots.append(WorkerTelemetry.from_dict(snapshot))
                collected += 1

            for process in processes:
                process.join(timeout=_JOIN_TIMEOUT)
                if process.is_alive():
                    process.terminate()
                    process.join()
            join_seconds = clock() - started - wall

            final = FactorPair(w_shared.copy(), h_shared.copy())
        finally:
            _release_blocks(blocks)

        return MultiprocessResult(
            factors=final,
            updates=sum(per_worker),
            wall_seconds=wall,
            rmse=test_rmse(final, self.test),
            updates_per_worker=per_worker,
            join_seconds=join_seconds,
            telemetry=(
                RunTelemetry.from_workers(snapshots)
                if self.telemetry
                else None
            ),
        )
