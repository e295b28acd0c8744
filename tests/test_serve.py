"""Tests for the HTTP recommendation service (repro.serve): schemas,
the request LRU, durable persistence with restart-resume, the queue-fed
live stream source, and the end-to-end service over a real socket."""

from __future__ import annotations

import json
import os
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.config import HyperParams
from repro.datasets.ratings import RatingMatrix
from repro.errors import ConfigError, DataError, ServeError
from repro.linalg.factors import FactorPair
from repro.model import CompletionModel
from repro.serve import (
    MAX_BATCH,
    MAX_TOP_N,
    PERSIST_VERSION,
    DurablePrequentialTrace,
    DurableSnapshotStore,
    LruCache,
    RecommendationService,
    ServiceConfig,
    SnapshotPersister,
)
from repro.serve.schemas import (
    IngestRequest,
    PredictQuery,
    RecommendQuery,
    SCHEMA_VERSION,
)
from repro.stream import (
    ModelSnapshot,
    QueueStream,
    Recommender,
    SnapshotStore,
)


# ---------------------------------------------------------------------------
# Helpers


def make_warmup(n_users=30, n_items=20, nnz=200, seed=0) -> RatingMatrix:
    rng = np.random.default_rng(seed)
    flat = rng.choice(n_users * n_items, size=nnz, replace=False)
    rows, cols = np.divmod(flat, n_items)
    return RatingMatrix(
        n_users, n_items, rows, cols, rng.normal(0.0, 1.0, size=nnz)
    )


def make_snapshot(seq=0, n_users=6, n_items=4, k=3, seed=0) -> ModelSnapshot:
    rng = np.random.default_rng(seed + seq)
    model = CompletionModel(
        FactorPair(
            rng.normal(size=(n_users, k)), rng.normal(size=(n_items, k))
        )
    )
    return ModelSnapshot(
        seq=seq,
        stream_time=float(seq),
        arrivals_seen=seq * 10,
        updates_seen=seq * 100,
        model=model,
    )


def fresh_pairs(warmup: RatingMatrix, count: int):
    """(user, item, value) triples absent from the warm-up matrix."""
    seen = set(zip(warmup.rows.tolist(), warmup.cols.tolist()))
    out = []
    for user in range(warmup.n_rows):
        for item in range(warmup.n_cols):
            if (user, item) not in seen:
                out.append({"user": user, "item": item, "value": 1.0})
                if len(out) == count:
                    return out
    raise AssertionError("warm-up matrix too dense for requested count")


def http_get(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def http_post(url: str, payload) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def http_get_text(url: str) -> tuple[int, str, str]:
    """Raw fetch for non-JSON routes (/metrics is Prometheus text)."""
    with urllib.request.urlopen(url, timeout=30) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse a text-format exposition into ``{'name{labels}': value}``.

    Strict enough to catch format regressions: every non-comment line
    must be ``name[{labels}] value``.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        assert key, f"malformed sample line: {line!r}"
        samples[key] = float(value)
    return samples


def http_error(callable_, *args):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        callable_(*args)
    error = excinfo.value
    return error.code, json.loads(error.read())


FAST = dict(
    warmup_epochs=2, train_every=5, snapshot_every=10, final_epochs=1
)


@pytest.fixture
def service():
    svc = RecommendationService(
        make_warmup(), HyperParams(k=4), ServiceConfig(**FAST)
    ).start()
    yield svc
    svc.stop()


# ---------------------------------------------------------------------------
# Schemas


class TestSchemas:
    def test_predict_query_parses(self):
        query = PredictQuery.from_query({"user": ["3"], "item": ["7"]})
        assert (query.user, query.item) == (3, 7)

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"item": ["1"]}, "missing required"),
            ({"user": ["1", "2"], "item": ["1"]}, "more than once"),
            ({"user": ["x"], "item": ["1"]}, "must be an integer"),
            ({"user": ["-1"], "item": ["1"]}, "must be >= 0"),
            ({"user": ["1"], "item": ["1"], "z": ["9"]}, "unknown field"),
        ],
    )
    def test_predict_query_strict(self, params, match):
        with pytest.raises(ServeError, match=match):
            PredictQuery.from_query(params)

    def test_recommend_query_defaults_and_bounds(self):
        assert RecommendQuery.from_query({"user": ["1"]}).n == 10
        with pytest.raises(ServeError, match=">= 1"):
            RecommendQuery.from_query({"user": ["1"], "n": ["0"]})
        with pytest.raises(ServeError, match=f"<= {MAX_TOP_N}"):
            RecommendQuery.from_query(
                {"user": ["1"], "n": [str(MAX_TOP_N + 1)]}
            )

    def test_ingest_parses_batch(self):
        body = json.dumps(
            {"ratings": [{"user": 1, "item": 2, "value": 3.5}]}
        ).encode()
        request = IngestRequest.from_body(body)
        (rating,) = request.ratings
        assert (rating.user, rating.item, rating.value) == (1, 2, 3.5)

    @pytest.mark.parametrize(
        "body, match",
        [
            (b"not json", "not valid JSON"),
            (b"[]", "must be a JSON object"),
            (b'{"ratings": []}', "must not be empty"),
            (b'{"ratings": {}}', "must be a list"),
            (b'{"ratings": [1]}', r"ratings\[0\] must be an object"),
            (b'{"other": 1}', "unknown field"),
            (
                b'{"ratings": [{"user": 1, "item": 2}]}',
                "missing required field 'value'",
            ),
            (
                b'{"ratings": [{"user": true, "item": 2, "value": 1.0}]}',
                "must be an integer",
            ),
            (
                b'{"ratings": [{"user": -1, "item": 2, "value": 1.0}]}',
                "must be >= 0",
            ),
            (
                b'{"ratings": [{"user": 1, "item": 2, "value": "hi"}]}',
                "must be a number",
            ),
            (
                b'{"ratings": [{"user": 1, "item": 2, "value": Infinity}]}',
                "must be finite",
            ),
            (
                b'{"ratings": [{"user": 1, "item": 2, "value": NaN}]}',
                "must be finite",
            ),
        ],
    )
    def test_ingest_strict(self, body, match):
        with pytest.raises(ServeError, match=match):
            IngestRequest.from_body(body)

    def test_ingest_batch_cap(self):
        entries = [{"user": 0, "item": i, "value": 1.0} for i in range(3)]
        body = json.dumps({"ratings": entries * (MAX_BATCH // 3 + 1)}).encode()
        with pytest.raises(ServeError, match="batch too large"):
            IngestRequest.from_body(body)


# ---------------------------------------------------------------------------
# Request-level LRU


class TestLruCache:
    def test_capacity_validation(self):
        with pytest.raises(ConfigError, match=">= 0"):
            LruCache(capacity=-1)

    def test_zero_capacity_disables(self):
        cache = LruCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_lru_eviction_order(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_stats_payload_shape(self):
        cache = LruCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        payload = cache.stats_payload()
        assert payload["hits"] == 1 and payload["misses"] == 1
        assert payload["size"] == 1 and payload["capacity"] == 4
        assert payload["hit_rate"] == 0.5

    def test_clear_counts_one_invalidation(self):
        cache = LruCache(capacity=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert cache.stats.invalidations == 1
        assert cache.clear() == 0  # empty clear is not an invalidation
        assert cache.stats.invalidations == 1


# ---------------------------------------------------------------------------
# Recommender cache observability (shared CacheStats shape)


class TestRecommenderCacheStats:
    def make_store(self):
        store = SnapshotStore()
        snapshot = make_snapshot()
        store.rotate(
            snapshot.model.factors, 0.0, 0, 0
        )
        return store

    def test_counters_move_and_legacy_names_mirror(self):
        store = self.make_store()
        recommender = Recommender(store)
        recommender.recommend(0, top_n=2)
        recommender.recommend(0, top_n=2)
        stats = recommender.cache_stats
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5
        # The legacy attribute names stay live views of the same counters.
        assert recommender.cache_hits == stats.hits
        assert recommender.cache_misses == stats.misses
        assert recommender.invalidations == stats.invalidations

    def test_rotation_counts_invalidation(self):
        store = self.make_store()
        recommender = Recommender(store)
        recommender.recommend(0, top_n=2)
        store.rotate(make_snapshot(seq=1).model.factors, 1.0, 1, 1)
        recommender.recommend(0, top_n=2)
        assert recommender.cache_stats.invalidations == 1
        payload = recommender.cache_stats.as_dict()
        assert set(payload) == {
            "hits", "misses", "invalidations", "evictions", "hit_rate",
        }


# ---------------------------------------------------------------------------
# QueueStream


class TestQueueStream:
    def test_push_drain_close(self, tiny_matrix):
        stream = QueueStream(tiny_matrix)
        stream.push(1, 2, 3.0, at=0.5)
        stream.push(3, 4, 5.0, at=0.25)  # clamped to non-decreasing
        stream.close()
        events = list(stream.events())
        assert [(e.user, e.item) for e in events] == [(1, 2), (3, 4)]
        assert events[0].time == 0.5
        assert events[1].time == 0.5  # clamped up from 0.25
        assert stream.n_events == 2
        assert stream.pending == 0

    def test_push_validation(self, tiny_matrix):
        stream = QueueStream(tiny_matrix)
        with pytest.raises(DataError, match="out of range"):
            stream.push(-1, 0, 1.0)
        with pytest.raises(DataError, match="finite"):
            stream.push(0, 0, float("nan"))
        stream.close()
        stream.close()  # idempotent
        with pytest.raises(DataError, match="closed"):
            stream.push(0, 0, 1.0)

    def test_consumer_blocks_until_close(self, tiny_matrix):
        stream = QueueStream(tiny_matrix)
        drained = []

        def consume():
            drained.extend(stream.events())

        consumer = threading.Thread(target=consume)
        consumer.start()
        stream.push(0, 1, 1.0)
        stream.push(2, 3, 2.0)
        stream.close()
        consumer.join(timeout=30)
        assert not consumer.is_alive()
        assert len(drained) == 2


# ---------------------------------------------------------------------------
# Durable persistence


class TestSnapshotPersister:
    def test_save_load_roundtrip(self, tmp_path):
        persister = SnapshotPersister(str(tmp_path))
        snapshot = make_snapshot(seq=3)
        persister.save(snapshot)
        loaded = persister.load(3)
        assert loaded.seq == 3
        assert loaded.arrivals_seen == snapshot.arrivals_seen
        assert loaded.updates_seen == snapshot.updates_seen
        np.testing.assert_allclose(
            loaded.model.factors.w, snapshot.model.factors.w
        )
        np.testing.assert_allclose(
            loaded.model.factors.h, snapshot.model.factors.h
        )

    def test_orphan_npz_is_invisible(self, tmp_path):
        persister = SnapshotPersister(str(tmp_path))
        persister.save(make_snapshot(seq=0))
        # Simulate a crash between the npz and its sidecar: seq 1 has
        # factors on disk but no metadata.
        make_snapshot(seq=1).model.save(persister.model_path(1))
        assert persister.list_seqs() == [0]
        assert persister.load_newest().seq == 0

    def test_empty_directory_has_no_newest(self, tmp_path):
        assert SnapshotPersister(str(tmp_path)).load_newest() is None

    def test_persist_version_skew_raises(self, tmp_path):
        persister = SnapshotPersister(str(tmp_path))
        persister.save(make_snapshot(seq=0))
        meta = json.loads(open(persister.meta_path(0)).read())
        meta["persist_version"] = PERSIST_VERSION + 1
        with open(persister.meta_path(0), "w") as handle:
            json.dump(meta, handle)
        with pytest.raises(DataError, match="unsupported persist_version"):
            persister.load(0)

    def test_npz_format_version_skew_raises(self, tmp_path):
        persister = SnapshotPersister(str(tmp_path))
        snapshot = make_snapshot(seq=0)
        persister.save(snapshot)
        factors = snapshot.model.factors
        np.savez(
            persister.model_path(0),
            w=factors.w,
            h=factors.h,
            format_version=np.int64(99),
        )
        with pytest.raises(DataError, match="version"):
            persister.load(0)

    def test_prune_keeps_newest(self, tmp_path):
        persister = SnapshotPersister(str(tmp_path))
        for seq in range(5):
            persister.save(make_snapshot(seq=seq))
        assert persister.prune(2) == 3
        assert persister.list_seqs() == [3, 4]
        assert not os.path.exists(persister.model_path(0))


class TestDurableSnapshotStore:
    def test_rotate_persists_and_prunes(self, tmp_path):
        store = DurableSnapshotStore(str(tmp_path), max_keep=2)
        for seq in range(4):
            store.rotate(make_snapshot(seq=seq).model.factors, seq, seq, seq)
        assert store.persister.list_seqs() == [2, 3]
        assert store.latest.seq == 3

    def test_resume_adopts_newest_and_continues_sequence(self, tmp_path):
        first = DurableSnapshotStore(str(tmp_path))
        for seq in range(3):
            first.rotate(make_snapshot(seq=seq).model.factors, seq, seq, seq)

        resumed = DurableSnapshotStore(str(tmp_path))
        assert resumed.resumed_seq == 2
        assert resumed.latest.seq == 2
        nxt = resumed.rotate(make_snapshot(seq=9).model.factors, 3.0, 30, 300)
        assert nxt.seq == 3  # continues, never reuses a served seq

    def test_fresh_directory_resumes_nothing(self, tmp_path):
        store = DurableSnapshotStore(str(tmp_path))
        assert store.resumed_seq is None
        assert len(store) == 0

    def test_adopt_rejects_stale_sequence(self, tmp_path):
        store = DurableSnapshotStore(str(tmp_path))
        store.rotate(make_snapshot(seq=0).model.factors, 0, 0, 0)
        store.rotate(make_snapshot(seq=1).model.factors, 1, 1, 1)
        with pytest.raises(ConfigError, match="already rotated past"):
            store.adopt(make_snapshot(seq=0))


class TestDurablePrequentialTrace:
    def test_scores_persist_and_load(self, tmp_path):
        trace = DurablePrequentialTrace(str(tmp_path))
        trace.score(0.1, 1, 3.0, 3.5)
        trace.score(0.2, 2, 2.0, 2.5)
        trace.mark_cold()
        trace.close()
        loaded = DurablePrequentialTrace.load(str(tmp_path))
        assert loaded.scored == 2
        assert loaded.cold == 1
        assert loaded.rmse() == pytest.approx(0.5)

    def test_resume_extends_history(self, tmp_path):
        first = DurablePrequentialTrace(str(tmp_path))
        first.score(0.1, 1, 1.0, 1.5)
        first.close()
        second = DurablePrequentialTrace(str(tmp_path))
        assert second.scored == 1  # history reloaded
        second.score(0.2, 2, 2.0, 2.5)
        second.close()
        assert DurablePrequentialTrace.load(str(tmp_path)).scored == 2

    def test_version_skew_raises(self, tmp_path):
        path = tmp_path / "prequential.jsonl"
        path.write_text('{"persist_version": 99}\n')
        with pytest.raises(DataError, match="unsupported persist_version"):
            DurablePrequentialTrace.load(str(tmp_path))

    def test_malformed_line_raises(self, tmp_path):
        trace = DurablePrequentialTrace(str(tmp_path))
        trace.score(0.1, 1, 1.0, 1.0)
        trace.close()
        with open(trace.path, "a") as handle:
            handle.write("{broken\n")
        with pytest.raises(DataError, match="malformed trace line"):
            DurablePrequentialTrace.load(str(tmp_path))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DataError, match="no persisted prequential"):
            DurablePrequentialTrace.load(str(tmp_path))


# ---------------------------------------------------------------------------
# End-to-end service


class TestService:
    def test_round_trip(self, service):
        status, health = http_get(service.url + "/health")
        assert status == 200
        assert health["status"] == "ok"
        assert health["schema_version"] == SCHEMA_VERSION

        _, snapshot = http_get(service.url + "/snapshot")
        assert snapshot["n_users"] == 30 and snapshot["n_items"] == 20
        assert snapshot["k"] == 4

        _, predicted = http_get(service.url + "/predict?user=1&item=2")
        assert predicted["snapshot_seq"] == snapshot["seq"]
        assert not predicted["cold_user"] and not predicted["cold_item"]
        assert isinstance(predicted["prediction"], float)

        _, first = http_get(service.url + "/recommend?user=1&n=3")
        _, second = http_get(service.url + "/recommend?user=1&n=3")
        assert len(first["items"]) == 3
        assert first["cached"] is False and second["cached"] is True
        assert first["items"] == second["items"]

        _, stats = http_get(service.url + "/stats")
        assert stats["requests"]["GET /recommend"] == 2
        assert stats["request_cache"]["hits"] == 1
        assert stats["trainer"]["enabled"] is True

    def test_cold_indices_flagged(self, service):
        _, payload = http_get(service.url + "/predict?user=999&item=999")
        assert payload["cold_user"] and payload["cold_item"]

    def test_http_errors(self, service):
        code, payload = http_error(http_get, service.url + "/nope")
        assert code == 404 and "no such route" in payload["error"]
        code, payload = http_error(http_get, service.url + "/predict?user=1")
        assert code == 400 and "item" in payload["error"]
        code, payload = http_error(
            http_post, service.url + "/health", {"x": 1}
        )
        assert code == 405
        code, payload = http_error(
            http_post, service.url + "/ratings", {"ratings": []}
        )
        assert code == 400

    def test_ingest_feeds_training_and_rotation(self, service):
        base_seq = service.store.latest.seq
        ratings = fresh_pairs(service.warmup, 25)
        status, payload = http_post(
            service.url + "/ratings", {"ratings": ratings}
        )
        assert status == 202
        assert payload["accepted"] == 25 and payload["duplicates"] == 0

        # 25 arrivals over snapshot_every=10 → the trainer must rotate.
        deadline = __import__("time").monotonic() + 30
        while service.store.latest.seq == base_seq:
            assert __import__("time").monotonic() < deadline, "no rotation"
            __import__("time").sleep(0.02)

        # Idempotent re-post: everything is a duplicate now.
        _, repost = http_post(service.url + "/ratings", {"ratings": ratings})
        assert repost["accepted"] == 0 and repost["duplicates"] == 25

    def test_stop_finishes_training(self):
        svc = RecommendationService(
            make_warmup(), HyperParams(k=4), ServiceConfig(**FAST)
        ).start()
        _, _ = http_post(
            svc.url + "/ratings", {"ratings": fresh_pairs(svc.warmup, 7)}
        )
        svc.stop()
        assert svc.trainer_error is None
        assert svc.result is not None
        assert svc.result.arrivals == 7
        # The closing rotation reflects every arrival.
        assert svc.store.latest.arrivals_seen == 7

    # The interpreted kernels warn on the deliberate overflow.
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_diverged_trainer_degrades_and_keeps_last_snapshot(self):
        """A forced-divergence schedule (a huge step size, no warm-up
        sweeps so the seq-0 snapshot is the finite initialization) must
        surface as a trainer error under ``/health`` while reads keep
        coming, finite, from the last finite snapshot."""
        import math
        import time

        config = ServiceConfig(**dict(FAST, warmup_epochs=0))
        hyper = HyperParams(k=4, alpha=1e6, beta=0.0)
        svc = RecommendationService(make_warmup(), hyper, config).start()
        try:
            assert svc.store.latest.seq == 0
            http_post(
                svc.url + "/ratings",
                {"ratings": fresh_pairs(svc.warmup, 25)},
            )
            deadline = time.monotonic() + 30
            while svc.trainer_error is None:
                assert time.monotonic() < deadline, "trainer never failed"
                time.sleep(0.02)
            assert "DataError" in svc.trainer_error
            assert "refusing to rotate" in svc.trainer_error
            _, health = http_get(svc.url + "/health")
            assert health["status"] == "degraded"
            assert svc.store.latest.seq == 0
            _, predicted = http_get(svc.url + "/predict?user=1&item=2")
            assert predicted["snapshot_seq"] == 0
            assert math.isfinite(predicted["prediction"])
            _, recommended = http_get(svc.url + "/recommend?user=1&n=3")
            assert len(recommended["items"]) == 3
        finally:
            svc.stop()

    def test_double_start_rejected(self, service):
        with pytest.raises(ServeError, match="already started"):
            service.start()


class TestObservability:
    """PR 10 acceptance: /metrics scrapes as Prometheus text and /stats
    carries per-route latency quantiles."""

    def test_metrics_scrape_parses(self, service):
        http_get(service.url + "/predict?user=1&item=2")
        http_get(service.url + "/recommend?user=1&n=3")
        http_get(service.url + "/recommend?user=1&n=3")  # cache hit

        status, content_type, text = http_get_text(service.url + "/metrics")
        assert status == 200
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        assert text.endswith("\n")

        samples = parse_prometheus(text)
        assert samples['repro_serve_requests_total{route="GET /predict"}'] == 1
        assert samples['repro_serve_requests_total{route="GET /recommend"}'] == 2

        # Per-route latency quantiles plus the sum/count pair.
        for quantile in ("0.5", "0.95", "0.99"):
            key = (
                "repro_serve_request_latency_seconds"
                f'{{quantile="{quantile}",route="GET /predict"}}'
            )
            assert samples[key] >= 0.0
        assert (
            samples[
                'repro_serve_request_latency_seconds_count{route="GET /predict"}'
            ]
            == 1
        )

        # Cache hit rate: 1 hit / (1 hit + 1 miss) on /recommend.
        assert samples["repro_serve_cache_hit_rate"] == pytest.approx(0.5)
        assert samples["repro_serve_cache_hits_total"] == 1
        assert samples["repro_serve_cache_misses_total"] == 1

        assert samples["repro_serve_snapshot_seq"] == service.store.latest.seq
        assert samples["repro_serve_uptime_seconds"] > 0.0

        # Every sample family is documented: one HELP and one TYPE per name.
        for name in ("repro_serve_requests_total", "repro_serve_cache_hit_rate"):
            assert f"# HELP {name} " in text
            assert f"# TYPE {name} " in text

    def test_metrics_scrape_counts_itself(self, service):
        http_get_text(service.url + "/metrics")
        _, _, text = http_get_text(service.url + "/metrics")
        samples = parse_prometheus(text)
        # The request counter ticks on dispatch entry, so the in-flight
        # scrape sees itself; latency is observed only after responding.
        assert samples['repro_serve_requests_total{route="GET /metrics"}'] == 2
        assert (
            samples[
                'repro_serve_request_latency_seconds_count{route="GET /metrics"}'
            ]
            == 1
        )

    def test_stats_latency_quantiles(self, service):
        http_get(service.url + "/predict?user=1&item=2")
        _, stats = http_get(service.url + "/stats")
        latency = stats["latency"]
        predict = latency["GET /predict"]
        assert predict["count"] == 1
        assert predict["mean"] > 0.0
        assert predict["p50"] <= predict["p95"] <= predict["p99"]
        # /stats itself is observed, but only after it responds: the
        # in-flight request is not yet in its own latency block.
        assert "GET /stats" not in latency or latency["GET /stats"]["count"] >= 0


class TestServiceRestart:
    """The acceptance criterion: a killed-and-restarted server serves
    from the newest persisted snapshot."""

    def run_and_stop(self, root, warmup):
        config = ServiceConfig(persist_dir=str(root), **FAST)
        svc = RecommendationService(warmup, HyperParams(k=4), config).start()
        http_post(
            svc.url + "/ratings", {"ratings": fresh_pairs(warmup, 12)}
        )
        svc.stop()
        assert svc.trainer_error is None
        return svc.store.latest.seq

    def test_restart_serves_newest_persisted_snapshot(self, tmp_path):
        warmup = make_warmup()
        final_seq = self.run_and_stop(tmp_path, warmup)
        assert final_seq > 0  # the run actually rotated

        # Read-only replica: serves exactly the newest persisted
        # snapshot, no trainer involved.
        replica = RecommendationService(
            warmup,
            HyperParams(k=4),
            ServiceConfig(persist_dir=str(tmp_path), train=False),
        ).start()
        try:
            _, snapshot = http_get(replica.url + "/snapshot")
            assert snapshot["seq"] == final_seq
            assert replica.store.resumed_seq == final_seq

            # Predictions match the persisted factors bit-for-bit.
            persisted = replica.store.persister.load(final_seq).model
            _, payload = http_get(replica.url + "/predict?user=1&item=2")
            assert payload["prediction"] == pytest.approx(
                persisted.predict_one(1, 2)
            )
            assert payload["snapshot_seq"] == final_seq

            # No trainer → ingest is refused, not silently dropped.
            code, _ = http_error(
                http_post,
                replica.url + "/ratings",
                {"ratings": [{"user": 0, "item": 0, "value": 1.0}]},
            )
            assert code == 503
        finally:
            replica.stop()

    def test_training_restart_continues_sequence(self, tmp_path):
        warmup = make_warmup()
        final_seq = self.run_and_stop(tmp_path, warmup)

        svc = RecommendationService(
            warmup,
            HyperParams(k=4),
            ServiceConfig(persist_dir=str(tmp_path), **FAST),
        ).start()
        try:
            assert svc.store.resumed_seq == final_seq
            # The sequence moves forward from the resumed snapshot —
            # serving-cache keys can never collide across the restart.
            assert svc.store.latest.seq >= final_seq
            # The prequential history survived the restart too.
            assert svc.prequential.scored >= 1
        finally:
            svc.stop()

    def test_replica_requires_persisted_snapshot(self, tmp_path):
        svc = RecommendationService(
            make_warmup(),
            HyperParams(k=4),
            ServiceConfig(persist_dir=str(tmp_path), train=False),
        )
        with pytest.raises(ServeError, match="persisted snapshot"):
            svc.start()
