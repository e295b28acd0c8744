"""Versioned binary wire format of the socket cluster engine.

Everything two cluster nodes exchange — nomadic token envelopes, the
bootstrap handshake, stop/drain control frames, and result shards — is one
*frame body*: a fixed header (magic, version, message kind) followed by a
kind-specific binary payload.  The transport layer
(:mod:`repro.cluster.transport`) adds a 4-byte length prefix around each
body; this module is framing-agnostic and purely about bytes ↔ messages.

The token envelope is the §3.5 batched message: a fixed number of
``(j, h_j)`` pairs accumulated before transmission so the per-message
latency is amortized across the batch.  Each token carries the item index,
the sender's queue-size hint (the §3.3 payload that lets receivers gauge
load), and the ``k`` floats of ``h_j`` — :data:`TOKEN_OVERHEAD_BYTES` +
``8k`` bytes per token, byte-identical to the simulator's cost model
(:func:`repro.simulator.network.token_bytes`), so the simulated and real
communication volumes stay comparable.  The envelope itself adds
:data:`ENVELOPE_OVERHEAD_BYTES` of header once per batch.

Token blocks are columnar on both sides of the codec: a
:class:`TokenEnvelope` holds item ids, queue hints and an ``(n, k)``
factor block, and a whole block is (de)serialized in one call through a
structured big-endian record dtype ``[item >i8, hint >i8, h >f8×k]`` —
the same bytes a per-token ``struct`` packing would produce, without a
Python object per token.

All integers are big-endian (network byte order); factor payloads are
big-endian IEEE-754 doubles.  Decoding validates magic, version, and
every length before reading, raising :class:`~repro.errors.WireError`
on truncated or foreign frames.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import WireError

__all__ = [
    "WIRE_VERSION",
    "ENVELOPE_OVERHEAD_BYTES",
    "RESULT_OVERHEAD_BYTES",
    "TOKEN_OVERHEAD_BYTES",
    "Token",
    "TokenEnvelope",
    "Ready",
    "Peers",
    "Stop",
    "Fin",
    "ResultShard",
    "encode_envelope",
    "encode_tokens",
    "encode_ready",
    "encode_peers",
    "encode_stop",
    "encode_fin",
    "encode_result",
    "decode",
]

#: Wire protocol version; bumped on any incompatible layout change.
WIRE_VERSION = 1

_MAGIC = b"NM"
_HEADER = struct.Struct(">2sBB")  # magic, version, kind

_KIND_TOKENS = 1
_KIND_READY = 2
_KIND_PEERS = 3
_KIND_STOP = 4
_KIND_FIN = 5
_KIND_RESULT = 6

_TOKENS_HEAD = struct.Struct(">II")  # k, count
_READY_BODY = struct.Struct(">IH")  # worker id, listening port
_PEER_ENTRY = struct.Struct(">IH")  # worker id, listening port
_FIN_BODY = struct.Struct(">I")  # worker id
_FIN_TELEMETRY = struct.Struct(">I")  # telemetry blob byte length
_RESULT_HEAD = struct.Struct(">IQIII")  # worker, updates, k, n_rows, n_held
_COUNT = struct.Struct(">I")

_F8 = np.dtype(">f8")
_I8 = np.dtype(">i8")

#: Header bytes paid once per token envelope (frame header + k + count).
ENVELOPE_OVERHEAD_BYTES = _HEADER.size + _TOKENS_HEAD.size

#: Header bytes of a result-shard frame (frame header + result head);
#: the payload adds ``8`` bytes per row index, ``8k`` per factor row,
#: and one token's bytes per held token.
RESULT_OVERHEAD_BYTES = _HEADER.size + _RESULT_HEAD.size

#: Non-payload bytes per token: item index + queue-size hint (§3.3).  Kept
#: equal to the simulator cost model's ``_TOKEN_OVERHEAD_BYTES`` so one
#: serialized token occupies exactly ``network.token_bytes(k)`` bytes.
TOKEN_OVERHEAD_BYTES = 2 * _I8.itemsize


@functools.lru_cache(maxsize=None)
def _token_dtype(k: int) -> np.dtype:
    """Record layout of one serialized token at latent dimension ``k``."""
    return np.dtype([("item", _I8), ("hint", _I8), ("h", _F8, (k,))])


@dataclass
class Token:
    """One nomadic ``(j, h_j)`` pair, for building envelopes by hand.

    ``queue_hint`` is the sender's mailbox depth at send time — the §3.3
    queue-size payload receivers may use for load-aware routing.  Only
    :func:`encode_tokens` takes these; decoding always yields a columnar
    :class:`TokenEnvelope`.
    """

    item: int
    queue_hint: int
    h: np.ndarray


@dataclass
class TokenEnvelope:
    """A §3.5 batch of tokens, columnar.

    ``items`` and ``hints`` are ``(n,)`` int64 arrays (item ids and §3.3
    queue hints); ``h`` is the ``(n, k)`` float64 block of their factor
    rows.  Decoded envelopes own writable, native-endian copies.
    """

    items: np.ndarray
    hints: np.ndarray
    h: np.ndarray

    @property
    def k(self) -> int:
        """Latent dimension of the factor block."""
        return self.h.shape[1]

    def __len__(self) -> int:
        return self.items.shape[0]


@dataclass(frozen=True)
class Ready:
    """Worker → coordinator: bound and listening on ``port``."""

    worker_id: int
    port: int


@dataclass(frozen=True)
class Peers:
    """Coordinator → worker: the full worker-id → port address book."""

    ports: dict[int, int]


@dataclass(frozen=True)
class Stop:
    """Coordinator → worker: stop updating, drain, and report."""


@dataclass(frozen=True)
class Fin:
    """Worker → worker: no more tokens will follow on this link.

    ``telemetry`` is an optional opaque blob (the versioned payload of
    :mod:`repro.telemetry.payload`): a telemetry-enabled worker sends
    one payload-bearing ``Fin`` to the coordinator when its run ends.
    The wire layer neither inspects nor versions the blob's *contents*
    — a plain pre-PR-10 ``Fin`` (no trailing block) decodes with
    ``telemetry=None``, so old workers and forged drain markers keep
    working unchanged.
    """

    worker_id: int
    telemetry: bytes | None = None


@dataclass
class ResultShard:
    """Worker → coordinator: final local state after the drain barrier.

    ``rows``/``w`` are the worker's user-factor shard (global row indices
    and their ``(len(rows), k)`` factor block); ``held`` is every token at
    rest on the worker when the network went quiet, as one columnar
    envelope — the coordinator reassembles ``H`` from the union of all
    held tokens.
    """

    worker_id: int
    updates: int
    k: int
    rows: np.ndarray
    w: np.ndarray
    held: TokenEnvelope


def _check_k(k: int) -> None:
    if k < 1:
        raise WireError(f"k must be >= 1, got {k}")


def _pack_token_block(
    items: np.ndarray, hints: np.ndarray, h: np.ndarray, k: int
) -> bytes:
    """Serialize a columnar token block in one record-array pass."""
    count = len(items)
    h = np.asarray(h)
    if h.shape != (count, k) or len(hints) != count:
        raise WireError(
            f"token block has {count} items, {len(hints)} hints and a "
            f"{h.shape} factor block; expected ({count}, {k})"
        )
    block = np.empty(count, dtype=_token_dtype(k))
    block["item"] = items
    block["hint"] = hints
    block["h"] = h
    return block.tobytes()


class _Reader:
    """Cursor over a frame body with length-checked reads."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _advance(self, n: int) -> int:
        """Bounds-check an ``n``-byte read; return its start offset."""
        start = self._pos
        if start + n > len(self._data):
            raise WireError(
                f"truncated frame: wanted {n} bytes at offset {start}, "
                f"frame is {len(self._data)} bytes"
            )
        self._pos = start + n
        return start

    def take(self, n: int) -> bytes:
        start = self._advance(n)
        return self._data[start:self._pos]

    def unpack(self, spec: struct.Struct) -> tuple:
        return spec.unpack_from(self._data, self._advance(spec.size))

    def records(self, dtype: np.dtype, count: int) -> np.ndarray:
        """``count`` records of ``dtype``: a view of the frame, no copy."""
        start = self._advance(dtype.itemsize * count)
        return np.frombuffer(self._data, dtype=dtype, count=count, offset=start)

    def array(self, dtype: np.dtype, count: int) -> np.ndarray:
        return self.records(dtype, count).astype(
            np.float64 if dtype == _F8 else np.int64
        )

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def done(self) -> None:
        if self._pos != len(self._data):
            raise WireError(
                f"{len(self._data) - self._pos} trailing bytes after message"
            )


def _header(kind: int) -> bytes:
    return _HEADER.pack(_MAGIC, WIRE_VERSION, kind)


def encode_envelope(
    items: np.ndarray, hints: np.ndarray, h: np.ndarray
) -> bytes:
    """Serialize one §3.5 envelope from columnar token arrays.

    ``items``/``hints`` are length-``n`` integer arrays and ``h`` the
    ``(n, k)`` factor block; ``k`` is read from ``h``.
    """
    h = np.asarray(h)
    if h.ndim != 2:
        raise WireError(f"factor block must be 2-D, got shape {h.shape}")
    k = h.shape[1]
    _check_k(k)
    return (
        _header(_KIND_TOKENS)
        + _TOKENS_HEAD.pack(k, len(items))
        + _pack_token_block(items, hints, h, k)
    )


def encode_tokens(tokens: Sequence[Token], k: int) -> bytes:
    """Serialize :class:`Token` records with latent dimension ``k``.

    A convenience over :func:`encode_envelope` for hand-built envelopes
    (tests, tools); the bytes go through the same record-array codec.
    """
    _check_k(k)
    h = np.empty((len(tokens), k), dtype=np.float64)
    for row, token in zip(h, tokens):
        payload = np.asarray(token.h)
        if payload.shape != (k,):
            raise WireError(
                f"token {token.item} payload has shape {payload.shape}, "
                f"expected ({k},)"
            )
        row[:] = payload
    return encode_envelope(
        np.array([token.item for token in tokens], dtype=np.int64),
        np.array([token.queue_hint for token in tokens], dtype=np.int64),
        h,
    )


def encode_ready(worker_id: int, port: int) -> bytes:
    """Serialize the worker's bootstrap hello."""
    return _header(_KIND_READY) + _READY_BODY.pack(worker_id, port)


def encode_peers(ports: dict[int, int]) -> bytes:
    """Serialize the coordinator's address-book broadcast."""
    body = [_header(_KIND_PEERS), _COUNT.pack(len(ports))]
    for worker_id in sorted(ports):
        body.append(_PEER_ENTRY.pack(worker_id, ports[worker_id]))
    return b"".join(body)


def encode_stop() -> bytes:
    """Serialize the stop broadcast."""
    return _header(_KIND_STOP)


def encode_fin(worker_id: int, telemetry: bytes | None = None) -> bytes:
    """Serialize the per-link drain marker (+ optional telemetry blob)."""
    frame = _header(_KIND_FIN) + _FIN_BODY.pack(worker_id)
    if telemetry is None:
        return frame
    return frame + _FIN_TELEMETRY.pack(len(telemetry)) + telemetry


def encode_result(
    worker_id: int,
    updates: int,
    rows: np.ndarray,
    w: np.ndarray,
    held: TokenEnvelope,
    k: int,
) -> bytes:
    """Serialize one worker's final shard + held tokens (columnar)."""
    _check_k(k)
    rows = np.ascontiguousarray(rows, dtype=_I8)
    w = np.ascontiguousarray(w, dtype=_F8)
    if w.shape != (rows.size, k):
        raise WireError(
            f"result W block has shape {w.shape}, expected ({rows.size}, {k})"
        )
    return b"".join(
        (
            _header(_KIND_RESULT),
            _RESULT_HEAD.pack(worker_id, updates, k, rows.size, len(held)),
            rows.tobytes(),
            w.tobytes(),
            _pack_token_block(held.items, held.hints, held.h, k),
        )
    )


def _decode_token_block(reader: _Reader, k: int, count: int) -> TokenEnvelope:
    block = reader.records(_token_dtype(k), count)
    return TokenEnvelope(
        items=block["item"].astype(np.int64),
        hints=block["hint"].astype(np.int64),
        h=block["h"].astype(np.float64),
    )


def decode(body: bytes):
    """Decode one frame body into its message dataclass.

    Raises :class:`~repro.errors.WireError` on anything that is not a
    complete, current-version frame.
    """
    reader = _Reader(body)
    magic, version, kind = reader.unpack(_HEADER)
    if magic != _MAGIC:
        raise WireError(f"bad magic {magic!r} (expected {_MAGIC!r})")
    if version != WIRE_VERSION:
        raise WireError(
            f"wire version {version} not supported (this node speaks "
            f"{WIRE_VERSION})"
        )
    if kind == _KIND_TOKENS:
        k, count = reader.unpack(_TOKENS_HEAD)
        _check_k(k)
        message = _decode_token_block(reader, k, count)
    elif kind == _KIND_READY:
        worker_id, port = reader.unpack(_READY_BODY)
        message = Ready(worker_id=worker_id, port=port)
    elif kind == _KIND_PEERS:
        (count,) = reader.unpack(_COUNT)
        ports = {}
        for _ in range(count):
            worker_id, port = reader.unpack(_PEER_ENTRY)
            ports[worker_id] = port
        message = Peers(ports=ports)
    elif kind == _KIND_STOP:
        message = Stop()
    elif kind == _KIND_FIN:
        (worker_id,) = reader.unpack(_FIN_BODY)
        telemetry = None
        if reader.remaining:
            # Optional telemetry block (PR 10).  Its absence is the
            # pre-PR-10 frame layout, so old-format Fins decode fine.
            (length,) = reader.unpack(_FIN_TELEMETRY)
            telemetry = reader.take(length)
        message = Fin(worker_id=worker_id, telemetry=telemetry)
    elif kind == _KIND_RESULT:
        worker_id, updates, k, n_rows, n_held = reader.unpack(_RESULT_HEAD)
        _check_k(k)
        rows = reader.array(_I8, n_rows)
        w = reader.array(_F8, n_rows * k).reshape(n_rows, k)
        message = ResultShard(
            worker_id=worker_id,
            updates=updates,
            k=k,
            rows=rows,
            w=w,
            held=_decode_token_block(reader, k, n_held),
        )
    else:
        raise WireError(f"unknown message kind {kind}")
    reader.done()
    return message
