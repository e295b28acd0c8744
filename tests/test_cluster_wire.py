"""Tests for the cluster wire format and the transport substrates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import wire
from repro.cluster.transport import (
    COORDINATOR,
    LoopbackHub,
    TcpTransport,
)
from repro.errors import ClusterError, WireError
from repro.simulator.network import token_bytes


def make_envelope(n: int, k: int, seed: int = 0) -> wire.TokenEnvelope:
    rng = np.random.default_rng(seed)
    return wire.TokenEnvelope(
        items=np.arange(n, dtype=np.int64),
        hints=np.arange(n, dtype=np.int64) * 3,
        h=rng.standard_normal((n, k)),
    )


def encode(envelope: wire.TokenEnvelope) -> bytes:
    return wire.encode_envelope(envelope.items, envelope.hints, envelope.h)


class TestTokenEnvelope:
    def test_single_token_round_trip(self):
        sent = make_envelope(1, k=4)
        decoded = wire.decode(encode(sent))
        assert isinstance(decoded, wire.TokenEnvelope)
        assert decoded.k == 4
        assert len(decoded) == 1
        assert decoded.items.tolist() == sent.items.tolist()
        assert decoded.hints.tolist() == sent.hints.tolist()
        np.testing.assert_array_equal(decoded.h, sent.h)

    def test_full_batch_round_trip(self):
        sent = make_envelope(100, k=8)
        decoded = wire.decode(encode(sent))
        assert len(decoded) == 100
        np.testing.assert_array_equal(decoded.items, sent.items)
        np.testing.assert_array_equal(decoded.hints, sent.hints)
        np.testing.assert_array_equal(decoded.h, sent.h)

    def test_empty_envelope_round_trip(self):
        decoded = wire.decode(encode(make_envelope(0, k=5)))
        assert len(decoded) == 0
        assert decoded.k == 5

    def test_decoded_payload_is_writable(self):
        """Receivers mutate h_j in place; a read-only buffer view would
        crash the SGD kernel."""
        decoded = wire.decode(encode(make_envelope(1, k=4)))
        decoded.h[0, 0] = 42.0  # must not raise
        assert decoded.h.dtype == np.float64
        assert decoded.h.flags.c_contiguous

    def test_golden_bytes_match_per_token_layout(self):
        """The record-array codec emits exactly the per-token layout:
        frame header, (k, count), then per token a big-endian
        (item, hint) pair followed by k big-endian doubles."""
        import struct

        h = np.arange(12, dtype=np.float64).reshape(3, 4) / 8.0 - 0.5
        items = np.array([7, 0, 123456789], dtype=np.int64)
        hints = np.array([2, 1, 0], dtype=np.int64)
        body = wire.encode_envelope(items, hints, h)
        expected = b"NM" + bytes([wire.WIRE_VERSION, 1])
        expected += struct.pack(">II", 4, 3)
        for item, hint, row in zip(items.tolist(), hints.tolist(), h):
            expected += struct.pack(">qq", item, hint)
            expected += struct.pack(">4d", *row.tolist())
        assert body == expected
        assert len(body) == wire.ENVELOPE_OVERHEAD_BYTES + 3 * token_bytes(4)
        # The Token convenience goes through the same codec.
        tokens = [
            wire.Token(item=i, queue_hint=q, h=row)
            for i, q, row in zip(items.tolist(), hints.tolist(), h)
        ]
        assert wire.encode_tokens(tokens, 4) == expected

    def test_truncated_frame_rejected(self):
        body = encode(make_envelope(3, k=4))
        for cut in (len(body) - 1, len(body) - 20, 5, 3):
            with pytest.raises(WireError, match="truncated"):
                wire.decode(body[:cut])

    def test_trailing_garbage_rejected(self):
        body = encode(make_envelope(2, k=4))
        with pytest.raises(WireError, match="trailing"):
            wire.decode(body + b"\x00")

    def test_bad_magic_rejected(self):
        body = bytearray(encode(make_envelope(1, k=4)))
        body[0:2] = b"XX"
        with pytest.raises(WireError, match="magic"):
            wire.decode(bytes(body))

    def test_version_skew_rejected(self):
        body = bytearray(encode(make_envelope(1, k=4)))
        body[2] = wire.WIRE_VERSION + 1
        with pytest.raises(WireError, match="version"):
            wire.decode(bytes(body))

    def test_unknown_kind_rejected(self):
        body = bytearray(wire.encode_stop())
        body[3] = 250
        with pytest.raises(WireError, match="kind"):
            wire.decode(bytes(body))

    def test_wrong_payload_shape_rejected(self):
        token = wire.Token(item=0, queue_hint=0, h=np.zeros(3))
        with pytest.raises(WireError, match="shape"):
            wire.encode_tokens([token], 4)
        with pytest.raises(WireError, match="factor block"):
            wire.encode_envelope(
                np.arange(2), np.zeros(2, dtype=np.int64), np.zeros((3, 4))
            )


class TestCostModelConsistency:
    """The real envelope and the simulator's §3.2 cost model must agree."""

    @pytest.mark.parametrize("k", [1, 8, 32, 100])
    @pytest.mark.parametrize("batch", [1, 7, 100])
    def test_envelope_size_matches_token_bytes(self, k, batch):
        body = encode(make_envelope(batch, k))
        assert len(body) == (
            wire.ENVELOPE_OVERHEAD_BYTES + batch * token_bytes(k)
        )

    def test_per_token_overhead_matches_simulator_constant(self):
        from repro.simulator import network

        assert wire.TOKEN_OVERHEAD_BYTES == network._TOKEN_OVERHEAD_BYTES


class TestControlFrames:
    def test_ready_round_trip(self):
        decoded = wire.decode(wire.encode_ready(3, 51234))
        assert decoded == wire.Ready(worker_id=3, port=51234)

    def test_peers_round_trip(self):
        ports = {0: 50001, 1: 50002, 5: 50010}
        decoded = wire.decode(wire.encode_peers(ports))
        assert decoded == wire.Peers(ports=ports)

    def test_stop_and_fin_round_trip(self):
        assert isinstance(wire.decode(wire.encode_stop()), wire.Stop)
        assert wire.decode(wire.encode_fin(2)) == wire.Fin(worker_id=2)

    def test_fin_telemetry_round_trip(self):
        blob = b"NT\x01" + b'{"worker_id": 3}'
        decoded = wire.decode(wire.encode_fin(3, telemetry=blob))
        assert decoded == wire.Fin(worker_id=3, telemetry=blob)

    def test_fin_telemetry_truncation_rejected(self):
        frame = wire.encode_fin(1, telemetry=b"x" * 64)
        for cut in (len(frame) - 1, len(frame) - 40, len(frame) - 66):
            with pytest.raises(WireError, match="truncated"):
                wire.decode(frame[:cut])

    def test_legacy_fin_without_payload_decodes_none(self):
        """Version skew: a pre-telemetry Fin frame (no trailing block)
        must keep decoding, with telemetry absent rather than an error."""
        legacy = wire.encode_fin(4)
        decoded = wire.decode(legacy)
        assert decoded.worker_id == 4
        assert decoded.telemetry is None

    def test_result_round_trip(self):
        rng = np.random.default_rng(5)
        rows = np.array([4, 9, 17], dtype=np.int64)
        w = rng.standard_normal((3, 6))
        held = make_envelope(4, k=6, seed=1)
        decoded = wire.decode(
            wire.encode_result(2, 12345, rows, w, held, 6)
        )
        assert isinstance(decoded, wire.ResultShard)
        assert decoded.worker_id == 2
        assert decoded.updates == 12345
        assert decoded.k == 6
        np.testing.assert_array_equal(decoded.rows, rows)
        np.testing.assert_array_equal(decoded.w, w)
        assert len(decoded.held) == 4
        np.testing.assert_array_equal(decoded.held.items, held.items)
        np.testing.assert_array_equal(decoded.held.h, held.h)

    def test_result_shape_mismatch_rejected(self):
        with pytest.raises(WireError, match="shape"):
            wire.encode_result(
                0, 1, np.array([1, 2]), np.zeros((3, 4)),
                make_envelope(0, k=4), 4,
            )


class TestLoopbackTransport:
    def test_send_recv(self):
        hub = LoopbackHub()
        a = hub.transport(0)
        b = hub.transport(1)
        a.send(1, b"hello")
        assert b.recv(timeout=1.0) == b"hello"

    def test_recv_timeout_returns_none(self):
        hub = LoopbackHub()
        a = hub.transport(0)
        assert a.recv(timeout=0.01) is None
        assert a.recv(timeout=0.0) is None

    def test_payload_isolated_from_sender(self):
        hub = LoopbackHub()
        a = hub.transport(0)
        b = hub.transport(1)
        payload = bytearray(b"abc")
        a.send(1, payload)
        payload[0] = 0
        assert b.recv(timeout=1.0) == b"abc"

    def test_unknown_destination_rejected(self):
        hub = LoopbackHub()
        a = hub.transport(0)
        with pytest.raises(ClusterError, match="no node"):
            a.send(9, b"x")


class TestTcpTransport:
    def test_send_recv_between_nodes(self):
        with TcpTransport(0) as a, TcpTransport(1) as b:
            a.register_peer(1, "127.0.0.1", b.port)
            b.register_peer(0, "127.0.0.1", a.port)
            a.send(1, b"ping")
            assert b.recv(timeout=2.0) == b"ping"
            b.send(0, b"pong")
            assert a.recv(timeout=2.0) == b"pong"

    def test_frames_preserve_boundaries_and_order(self):
        """Several frames on one connection come out intact, in order."""
        with TcpTransport(0) as a, TcpTransport(COORDINATOR) as c:
            a.register_peer(COORDINATOR, "127.0.0.1", c.port)
            frames = [bytes([i]) * (i + 1) for i in range(20)]
            for frame in frames:
                a.send(COORDINATOR, frame)
            received = [c.recv(timeout=2.0) for _ in frames]
            assert received == frames

    def test_wire_messages_over_tcp(self):
        with TcpTransport(0) as a, TcpTransport(1) as b:
            a.register_peer(1, "127.0.0.1", b.port)
            a.send(1, encode(make_envelope(10, k=4)))
            decoded = wire.decode(b.recv(timeout=2.0))
            assert decoded.items.tolist() == list(range(10))

    def test_unregistered_peer_rejected(self):
        with TcpTransport(0) as a:
            with pytest.raises(ClusterError, match="no address"):
                a.send(7, b"x")

    def test_oversized_frame_rejected_at_send(self):
        """Receivers drop oversized frames as corruption, so the sender
        must fail loudly instead of letting the loss surface later as a
        bogus 'worker died' timeout."""
        from repro.cluster.transport import MAX_FRAME_BYTES

        with TcpTransport(0) as a, TcpTransport(1) as b:
            a.register_peer(1, "127.0.0.1", b.port)
            with pytest.raises(ClusterError, match="MAX_FRAME_BYTES"):
                a.send(1, bytes(MAX_FRAME_BYTES + 1))

    def test_recv_timeout_returns_none(self):
        with TcpTransport(0) as a:
            assert a.recv(timeout=0.01) is None
