"""One cluster worker: the NOMAD inner loop over a message transport.

Each worker owns a disjoint user-row shard and communicates **only** by
serialized frames — no memory is shared with any other node.  The loop is
Algorithm 1 verbatim, with the communication layer made explicit:

* pop a ``(j, h_j)`` token from the local inbox, run the SGD updates over
  the local ratings Ω̄^(q)_j through the configured
  :class:`~repro.linalg.backends.base.KernelBackend`, and route the token
  (with its freshly updated ``h_j`` payload) to a uniformly random worker;
* outbound tokens accumulate in per-destination buffers and ship as §3.5
  envelopes of ``batch_size`` tokens; buffers flush early whenever the
  inbox runs dry, so a partial envelope can never strand a token while
  the worker idles;
* on ``Stop`` the worker freezes its model, sends a ``Fin`` drain marker
  down every outbound link, and keeps receiving until it holds a ``Fin``
  from every peer — TCP's per-connection ordering then guarantees every
  token in flight has landed *somewhere*, making token conservation
  checkable by the coordinator;
* finally it reports a :class:`~repro.cluster.wire.ResultShard`: its user
  factors, its update count, and every token at rest locally.

The token path is columnar end to end: envelopes decode into arrays, the
inbox is a preallocated ring of item ids and ``h`` rows, each burst runs
through one shard-indexed kernel call
(:meth:`~repro.linalg.backends.base.KernelBackend.process_items`) and is
routed by one vectorised draw — no Python object per token.

The same function serves the spawned-process TCP path
(:func:`tcp_worker_entry`, which adds the ready/peers bootstrap
handshake) and the in-process loopback path used by tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..config import HyperParams
from ..datasets.ratings import Shard
from ..errors import ClusterError
from ..linalg.backends import get_backend
from ..rng import derive_rng
from ..telemetry import (
    C_BATCHES,
    C_DRAINS,
    C_IDLE_POLLS,
    C_TOKENS,
    C_UPDATES,
    POINT_QUEUE_DEPTH,
    Recorder,
    SPAN_HOP,
    SPAN_IDLE,
    SPAN_KERNEL,
    clock,
    encode_payload,
)
from .transport import COORDINATOR, TcpTransport, Transport
from . import wire

__all__ = ["WorkerSpec", "run_worker", "tcp_worker_entry"]

#: nomadlint NMD001 owner contexts: ``run_worker`` is the Algorithm 1
#: loop — its W block is private to this node and each ``h_j`` arrives
#: as an owned token payload, so every factor write is owner-guarded.
#: ``push``/``extend``/``take`` move those owned payloads through the
#: worker's private inbox ring and per-peer outboxes.
__nomad_owner_contexts__ = ("run_worker", "push", "extend", "take")

#: Receive poll period while the inbox is empty, seconds.
_POLL_SECONDS = 0.02

#: Tokens processed per loop iteration before re-polling the transport,
#: so a deep inbox cannot starve stop/drain handling.
_BURST = 32

#: How long a worker keeps draining after ``Stop`` before giving up on
#: missing ``Fin`` markers (a dead peer); its own result still ships.
_DRAIN_TIMEOUT = 10.0


@dataclass
class WorkerSpec:
    """Everything one worker needs, shipped at spawn time.

    The spec crosses the process boundary by serialization (pickle under
    the ``spawn`` start method) — nothing in it is shared state.  Factor
    payloads beyond the worker's own ``W`` shard arrive later as token
    envelopes over the wire.

    ``shard_rows`` holds *local* row positions (indices into the
    worker's ``(len(w_rows), k)`` W block), so each worker allocates
    only its own shard of user factors; ``w_rows`` maps those positions
    back to global user ids when the result ships.
    """

    worker_id: int
    n_workers: int
    n_cols: int
    hyper: HyperParams
    backend_name: str
    seed: int
    batch_size: int
    shard_rows: np.ndarray
    shard_cols: np.ndarray
    shard_vals: np.ndarray
    w_rows: np.ndarray
    w_init: np.ndarray
    #: When true the worker records into a telemetry ring and ships the
    #: snapshot to the coordinator as a payload-bearing ``Fin``.
    telemetry: bool = False


class _Inbox:
    """The worker's token queue: a preallocated ring of item ids and rows.

    Capacity is ``n_cols``: token conservation means no worker ever holds
    more tokens than there are items, so a push that would overflow can
    only come from a forged or duplicated token and raises
    :class:`ClusterError`.  A burst is a contiguous slice of the ring (it
    stops at the wrap point), so the kernel updates its ``h`` rows in
    place.  With telemetry an arrival-stamp ring runs parallel to it: a
    hop span measures local inbox residence, arrival to pop (tokens are
    not re-stamped on the wire, so the token layout stays byte-identical
    to the simulator's cost model).
    """

    def __init__(self, worker_id: int, capacity: int, k: int, stamped: bool):
        self.worker_id = worker_id
        self.items = np.empty(capacity, dtype=np.int64)
        self.h = np.empty((capacity, k), dtype=np.float64)
        self.arrivals = np.empty(capacity) if stamped else None
        self.head = 0
        self.depth = 0

    def push(self, items: np.ndarray, h: np.ndarray) -> None:
        """Append tokens at the tail (wrapping), stamping their arrival."""
        n = items.shape[0]
        capacity = self.items.shape[0]
        if self.depth + n > capacity:
            raise ClusterError(
                f"worker {self.worker_id} would hold {self.depth + n} "
                f"tokens but there are only {capacity} items; token "
                "conservation violated"
            )
        if n == 0:
            return
        start = (self.head + self.depth) % capacity
        first = min(n, capacity - start)
        rest = n - first
        self.items[start:start + first] = items[:first]
        self.h[start:start + first] = h[:first]
        self.items[:rest] = items[first:]
        self.h[:rest] = h[first:]
        if self.arrivals is not None:
            stamp = clock()
            self.arrivals[start:start + first] = stamp
            self.arrivals[:rest] = stamp
        self.depth += n

    def pop(self, limit: int) -> slice:
        """Remove up to ``limit`` tokens from the head; their ring slice.

        The slice's slots stay intact until the next :meth:`push`.
        """
        capacity = self.items.shape[0]
        count = min(self.depth, limit, capacity - self.head)
        burst = slice(self.head, self.head + count)
        self.head = (self.head + count) % capacity
        self.depth -= count
        return burst

    def held(self) -> wire.TokenEnvelope:
        """Every queued token in queue order, hinted by queue position."""
        order = (self.head + np.arange(self.depth)) % self.items.shape[0]
        return wire.TokenEnvelope(
            self.items[order],
            np.arange(self.depth - 1, -1, -1, dtype=np.int64),
            self.h[order],
        )


class _Outbox:
    """Routed tokens waiting for one peer; ships exact-size envelopes.

    Between bursts fewer than ``batch_size`` tokens wait here, and a
    burst adds at most :data:`_BURST`, so the buffers never grow.
    """

    def __init__(self, batch_size: int, k: int):
        capacity = batch_size + _BURST
        self.items = np.empty(capacity, dtype=np.int64)
        self.hints = np.empty(capacity, dtype=np.int64)
        self.h = np.empty((capacity, k), dtype=np.float64)
        self.size = 0

    def extend(self, items: np.ndarray, hints: np.ndarray, h: np.ndarray) -> None:
        end = self.size + items.shape[0]
        self.items[self.size:end] = items
        self.hints[self.size:end] = hints
        self.h[self.size:end] = h
        self.size = end

    def take(self, count: int) -> bytes:
        """Encode the oldest ``count`` tokens as one envelope; drop them."""
        body = wire.encode_envelope(
            self.items[:count], self.hints[:count], self.h[:count]
        )
        rest = self.size - count
        self.items[:rest] = self.items[count:self.size]
        self.hints[:rest] = self.hints[count:self.size]
        self.h[:rest] = self.h[count:self.size]
        self.size = rest
        return body

    def held(self) -> wire.TokenEnvelope:
        return wire.TokenEnvelope(
            self.items[:self.size], self.hints[:self.size], self.h[:self.size]
        )


def run_worker(
    spec: WorkerSpec,
    transport: Transport,
    pending: list | None = None,
) -> None:
    """Run Algorithm 1 on ``transport`` until drained; report the result.

    ``pending`` carries decoded messages that arrived interleaved with
    the bootstrap handshake (possible on the TCP path, where a fast peer
    may route tokens — or even stop and send ``Fin`` — before this
    worker finished reading ``Peers``); they are dispatched first,
    exactly as if they had just been received.
    """
    hyper = spec.hyper
    k = hyper.k
    backend = get_backend(spec.backend_name)
    # Only this worker's user factors exist here; shard_rows index into
    # this local block directly (copy: the kernels mutate it in place).
    w = np.array(spec.w_init, dtype=np.float64)
    shard = Shard(
        worker=spec.worker_id,
        n_cols=spec.n_cols,
        rows=spec.shard_rows,
        cols=spec.shard_cols,
        vals=spec.shard_vals,
    )
    counts = np.zeros(shard.nnz, dtype=np.int64)
    routing = derive_rng(spec.seed, f"cluster-route-{spec.worker_id}")
    peers = [q for q in range(spec.n_workers) if q != spec.worker_id]
    rec = Recorder(spec.worker_id) if spec.telemetry else None
    inbox = _Inbox(spec.worker_id, spec.n_cols, k, stamped=rec is not None)
    offsets = np.arange(_BURST, dtype=np.int64)
    outboxes = {q: _Outbox(spec.batch_size, k) for q in peers}
    updates = 0
    stopping = False
    fins: set[int] = set()
    drain_deadline = float("inf")

    def accept(envelope: wire.TokenEnvelope) -> None:
        items = envelope.items
        # Item ids index the shard's CSC pointer inside a native kernel,
        # so every one is range-checked first; viewed as unsigned, a
        # negative id is huge, so one max() covers both bounds.
        if items.size and items.view(np.uint64).max() >= spec.n_cols:
            bad = items[(items < 0) | (items >= spec.n_cols)]
            raise ClusterError(
                f"worker {spec.worker_id} received a token for item "
                f"{int(bad[0])}, outside [0, {spec.n_cols})"
            )
        if envelope.k != k:
            raise ClusterError(
                f"worker {spec.worker_id} received a k={envelope.k} token "
                f"envelope; this run has k={k}"
            )
        inbox.push(items, envelope.h)

    def dispatch(message) -> None:
        nonlocal stopping, drain_deadline
        if isinstance(message, wire.TokenEnvelope):
            accept(message)
        elif isinstance(message, wire.Stop):
            # Idempotent: the coordinator may re-broadcast Stop on its
            # failure path; a second one must not push the drain
            # deadline out or send duplicate Fin markers.
            if not stopping:
                stopping = True
                drain_deadline = time.monotonic() + _DRAIN_TIMEOUT
                for q in peers:
                    transport.send(q, wire.encode_fin(spec.worker_id))
        elif isinstance(message, wire.Fin):
            fins.add(message.worker_id)
        else:
            raise ClusterError(
                f"worker {spec.worker_id} got unexpected "
                f"{type(message).__name__} frame"
            )

    for message in pending or ():
        dispatch(message)

    while True:
        # Drain every frame already delivered; block only when idle.
        timeout = 0.0 if (inbox.depth and not stopping) else _POLL_SECONDS
        if rec is not None and timeout > 0.0:
            poll_start = clock()
            body = transport.recv(timeout=timeout)
            if body is None and not stopping:
                rec.span(SPAN_IDLE, poll_start, clock() - poll_start)
                rec.add(C_IDLE_POLLS)
        else:
            body = transport.recv(timeout=timeout)
        while body is not None:
            dispatch(wire.decode(body))
            body = transport.recv(timeout=0.0)

        if stopping:
            # Tokens received after Stop are held, not processed: the
            # model freezes at the stop signal, matching the other live
            # runtimes' timing contract.
            if fins.issuperset(peers) or time.monotonic() > drain_deadline:
                break
            continue

        # Pop one burst — a contiguous ring slice — run it through a
        # single shard-indexed kernel call, then route.  Self-hops are
        # re-pushed only after the whole burst is routed, so exactly the
        # tokens the unbatched loop would have processed are processed,
        # in the same order; each token's §3.3 queue hint is the depth
        # observed at its pop.
        depth = inbox.depth
        if depth:
            if rec is not None:
                now = clock()
                rec.point(POINT_QUEUE_DEPTH, depth)
                rec.add(C_DRAINS)
            burst = inbox.pop(_BURST)
            size = burst.stop - burst.start
            items = inbox.items[burst]
            h_burst = inbox.h[burst]  # a view: the kernel updates the ring
            if rec is not None:
                rec.add(C_TOKENS, size)
                for arrived in inbox.arrivals[burst].tolist():
                    rec.span(SPAN_HOP, arrived, now - arrived)
                kernel_start = clock()
            applied = backend.process_items(
                w, h_burst, offsets[:size], items,
                shard.ptr, shard.rows, shard.vals, counts,
                hyper.alpha, hyper.beta, hyper.lambda_,
            )
            if applied:
                updates += applied
                if rec is not None:
                    rec.span(SPAN_KERNEL, kernel_start,
                             clock() - kernel_start, applied)
                    rec.add(C_UPDATES, applied)
                    rec.add(C_BATCHES)
            # One draw routes the whole burst.  Every routed copy is taken
            # (fancy indexing) before the self-hop push may reuse the
            # burst's ring slots.
            dests = routing.integers(spec.n_workers, size=size)
            hints = depth - 1 - offsets[:size]
            for q, outbox in outboxes.items():
                to_q = dests == q
                if to_q.any():
                    outbox.extend(items[to_q], hints[to_q], h_burst[to_q])
                    while outbox.size >= spec.batch_size:
                        transport.send(q, outbox.take(spec.batch_size))
            # A self-hop is a local queue push (§3.4).
            home = dests == spec.worker_id
            if home.any():
                inbox.push(items[home], h_burst[home])
        if not inbox.depth:
            for q, outbox in outboxes.items():
                if outbox.size:
                    transport.send(q, outbox.take(outbox.size))

    parts = [inbox.held()] + [outbox.held() for outbox in outboxes.values()]
    held = wire.TokenEnvelope(
        np.concatenate([part.items for part in parts]),
        np.concatenate([part.hints for part in parts]),
        np.concatenate([part.h for part in parts]),
    )
    if rec is not None:
        # Ship the telemetry snapshot ahead of the result on the same
        # link: TCP per-connection ordering then guarantees the
        # coordinator holds the payload before it counts this worker's
        # ResultShard as collected.
        transport.send(
            COORDINATOR,
            wire.encode_fin(
                spec.worker_id, telemetry=encode_payload(rec.snapshot())
            ),
        )
    transport.send(
        COORDINATOR,
        wire.encode_result(spec.worker_id, updates, spec.w_rows, w, held, k),
    )


def _await_peers(
    transport: TcpTransport, timeout: float
) -> tuple[wire.Peers, list]:
    """Wait for the coordinator's address book during bootstrap.

    Frames from already-bootstrapped peers may arrive first — token
    envelopes, and on a heavily oversubscribed host even a ``Fin`` from
    a peer that raced through a whole short run.  Everything that is
    not the ``Peers`` broadcast is buffered in arrival order and handed
    to :func:`run_worker` for dispatch (the coordinator's own link
    delivers ``Peers`` before any later control frame, so ``Stop``
    cannot overtake it, but peer links are independent).
    """
    deadline = time.monotonic() + timeout
    early: list = []
    while time.monotonic() < deadline:
        body = transport.recv(timeout=_POLL_SECONDS)
        if body is None:
            continue
        message = wire.decode(body)
        if isinstance(message, wire.Peers):
            return message, early
        early.append(message)
    raise ClusterError(
        f"worker {transport.node_id} never received the Peers broadcast"
    )


def tcp_worker_entry(
    spec: WorkerSpec,
    coordinator_port: int,
    host: str = "127.0.0.1",
    bootstrap_timeout: float = 30.0,
) -> None:
    """Process entry point of one TCP worker (module-level for ``spawn``).

    Bootstrap: bind an OS-chosen port, announce it to the coordinator
    with ``Ready``, wait for the ``Peers`` address book, then hand off to
    :func:`run_worker`.
    """
    with TcpTransport(spec.worker_id, host=host) as transport:
        transport.register_peer(COORDINATOR, host, coordinator_port)
        transport.send(
            COORDINATOR, wire.encode_ready(spec.worker_id, transport.port)
        )
        peers, early = _await_peers(transport, bootstrap_timeout)
        for worker_id, port in peers.ports.items():
            if worker_id != spec.worker_id:
                transport.register_peer(worker_id, host, port)
        run_worker(spec, transport, pending=early)
