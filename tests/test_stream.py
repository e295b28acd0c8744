"""Tests for the streaming subsystem (sources, DynamicNomad, snapshots,
serving, and the repro.fit_stream facade)."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.config import HyperParams, RunConfig
from repro.errors import ConfigError, DataError
from repro.linalg.objective import test_rmse as rmse_of
from repro.rng import RngFactory
from repro.stream import (
    DeltaStore,
    DriftStream,
    DynamicNomad,
    PrequentialTrace,
    RatingEvent,
    RatingStream,
    Recommender,
    ReplayStream,
    SnapshotStore,
)

HYPER = HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01)


@pytest.fixture
def replay(tiny_matrix):
    return ReplayStream(
        tiny_matrix, warmup_fraction=0.5, holdout_rows=4, holdout_cols=2,
        seed=11,
    )


@pytest.fixture
def warm_dynamic(replay):
    dynamic = DynamicNomad(replay.warmup, n_workers=2, hyper=HYPER, seed=5)
    dynamic.train(2)
    return dynamic


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------
class TestReplayStream:
    def test_partition_covers_everything(self, tiny_matrix, replay):
        assert replay.warmup.nnz + replay.n_events == tiny_matrix.nnz

    def test_holdout_entities_absent_from_warmup(self, tiny_matrix, replay):
        assert replay.warmup.n_rows <= tiny_matrix.n_rows - 4
        assert replay.warmup.n_cols <= tiny_matrix.n_cols - 2
        held_users = {
            event.user
            for event in replay.events()
            if event.user >= replay.warmup.n_rows
        }
        assert held_users  # the stream really introduces unseen users

    def test_events_are_timestamped_in_order(self, replay):
        times = [event.time for event in replay.events()]
        assert times == sorted(times)
        assert times[0] == 0.0

    def test_union_of_warmup_and_events_is_the_full_matrix(
        self, tiny_matrix, replay
    ):
        events = list(replay.events())
        combined = replay.warmup.with_appended(
            [e.user for e in events],
            [e.item for e in events],
            [e.value for e in events],
            n_rows=tiny_matrix.n_rows,
            n_cols=tiny_matrix.n_cols,
        )
        assert combined == tiny_matrix

    def test_deterministic_for_one_seed(self, tiny_matrix):
        a = ReplayStream(tiny_matrix, seed=3)
        b = ReplayStream(tiny_matrix, seed=3)
        assert a.warmup == b.warmup
        assert list(a.events()) == list(b.events())

    def test_satisfies_protocol(self, replay):
        assert isinstance(replay, RatingStream)

    def test_validation(self, tiny_matrix):
        with pytest.raises(DataError, match="warmup_fraction"):
            ReplayStream(tiny_matrix, warmup_fraction=1.5)
        with pytest.raises(DataError, match="holdout_rows"):
            ReplayStream(tiny_matrix, holdout_rows=tiny_matrix.n_rows)
        with pytest.raises(DataError, match="events_per_second"):
            ReplayStream(tiny_matrix, events_per_second=0)


class TestDriftStream:
    def test_deterministic_and_duplicate_free(self):
        a = DriftStream(n_events=300, seed=4)
        b = DriftStream(n_events=300, seed=4)
        assert a.warmup == b.warmup
        events_a = list(a.events())
        assert events_a == list(b.events())
        pairs = {(e.user, e.item) for e in events_a}
        assert len(pairs) == len(events_a)

    def test_new_entities_appear(self):
        stream = DriftStream(
            n_events=500, new_user_prob=0.05, new_item_prob=0.05, seed=1
        )
        assert stream.final_users > stream.warmup.n_rows
        assert stream.final_items > stream.warmup.n_cols

    def test_union_forms_a_valid_matrix(self):
        stream = DriftStream(n_events=200, seed=2)
        events = list(stream.events())
        combined = stream.warmup.with_appended(
            [e.user for e in events],
            [e.item for e in events],
            [e.value for e in events],
        )
        assert combined.nnz == stream.warmup.nnz + len(events)


# ----------------------------------------------------------------------
# DeltaStore
# ----------------------------------------------------------------------
class TestDeltaStore:
    def test_append_and_combined(self, tiny_matrix):
        store = DeltaStore(tiny_matrix)
        new_user = tiny_matrix.n_rows + 1
        store.append(new_user, 0, 3.5)
        assert len(store) == 1
        combined = store.combined()
        assert combined.n_rows == new_user + 1
        assert combined.nnz == tiny_matrix.nnz + 1

    def test_duplicates_rejected_against_base_and_delta(self, tiny_matrix):
        store = DeltaStore(tiny_matrix)
        user = int(tiny_matrix.rows[0])
        item = int(tiny_matrix.cols[0])
        with pytest.raises(DataError, match="duplicate"):
            store.append(user, item, 1.0)
        free_item = tiny_matrix.n_cols  # brand-new column: surely unrated
        store.append(user, free_item, 1.0)
        with pytest.raises(DataError, match="duplicate"):
            store.append(user, free_item, 2.0)


# ----------------------------------------------------------------------
# DynamicNomad
# ----------------------------------------------------------------------
class TestDynamicNomad:
    def test_sweep_updates_every_rating_once(self, replay):
        dynamic = DynamicNomad(replay.warmup, 2, HYPER, seed=5)
        assert dynamic.sweep() == replay.warmup.nnz
        assert dynamic.total_updates == replay.warmup.nnz
        assert sum(dynamic.updates_per_worker) == dynamic.total_updates

    def test_training_reduces_rmse(self, replay):
        dynamic = DynamicNomad(replay.warmup, 2, HYPER, seed=5)
        before = rmse_of(dynamic.factors, replay.warmup)
        dynamic.train(4)
        after = rmse_of(dynamic.factors, replay.warmup)
        assert after < before

    def test_deterministic_given_seed(self, replay):
        a = DynamicNomad(replay.warmup, 2, HYPER, seed=5)
        b = DynamicNomad(replay.warmup, 2, HYPER, seed=5)
        a.train(2)
        b.train(2)
        assert np.array_equal(a.factors.w, b.factors.w)
        assert np.array_equal(a.factors.h, b.factors.h)

    def test_ingest_routes_to_owner_without_repartition(self, warm_dynamic):
        owners_before = [
            warm_dynamic.owner_of_user(u) for u in range(warm_dynamic.n_users)
        ]
        user = 0
        item = warm_dynamic.n_items  # new item
        warm_dynamic.ingest(RatingEvent(0.0, user, item, 2.0))
        # Existing users keep their owner: no re-partitioning happened.
        assert owners_before == [
            warm_dynamic.owner_of_user(u) for u in range(len(owners_before))
        ]
        assert warm_dynamic.arrivals == 1

    def test_new_entities_grow_factors_and_tokens(self, warm_dynamic):
        users0, items0 = warm_dynamic.n_users, warm_dynamic.n_items
        warm_dynamic.ingest(RatingEvent(0.0, users0 + 2, items0, 1.5))
        assert warm_dynamic.n_users == users0 + 3
        assert warm_dynamic.n_items == items0 + 1
        assert warm_dynamic.new_users == 3
        assert warm_dynamic.new_items == 1
        factors = warm_dynamic.factors
        assert factors.n_rows == users0 + 3
        assert factors.n_cols == items0 + 1
        # Token conservation: every item rests in exactly one queue.
        assert sum(warm_dynamic.queue_sizes()) == warm_dynamic.n_items

    def test_arrivals_train_on_next_sweep(self, warm_dynamic):
        """A fold-in rating actually changes its new user's factor row."""
        user = warm_dynamic.n_users  # brand-new user
        item = 0
        warm_dynamic.ingest(RatingEvent(0.0, user, item, 4.0))
        row_before = warm_dynamic.factors.w[user].copy()
        applied = warm_dynamic.sweep()
        assert applied == warm_dynamic.delta.base.nnz + 1
        assert not np.array_equal(warm_dynamic.factors.w[user], row_before)

    def test_combined_matches_scratch_composition(self, warm_dynamic):
        base = warm_dynamic.delta.base
        events = [
            RatingEvent(0.0, base.n_rows + 1, 0, 1.0),
            RatingEvent(0.1, 0, base.n_cols, 2.0),
        ]
        for event in events:
            warm_dynamic.ingest(event)
        combined = warm_dynamic.combined()
        scratch = base.with_appended(
            [e.user for e in events],
            [e.item for e in events],
            [e.value for e in events],
        )
        assert combined == scratch

    def test_warm_start_and_validation(self, replay):
        warm = repro.init_factors(
            replay.warmup.n_rows, replay.warmup.n_cols, HYPER.k,
            RngFactory(9).stream("warm"),
        )
        dynamic = DynamicNomad(
            replay.warmup, 2, HYPER, seed=5, init_factors=warm
        )
        assert np.array_equal(dynamic.factors.w, warm.w)
        bad = repro.init_factors(2, 2, HYPER.k, RngFactory(9).stream("warm"))
        with pytest.raises(ConfigError, match="init factors"):
            DynamicNomad(replay.warmup, 2, HYPER, init_factors=bad)

    def test_sweep_budget_halts_at_column_granularity(self, replay):
        dynamic = DynamicNomad(replay.warmup, 2, HYPER, seed=5)
        applied = dynamic.sweep(max_updates=10)
        assert applied >= 10
        assert applied < replay.warmup.nnz
        # Conservation survives a budget halt.
        assert sum(dynamic.queue_sizes()) == dynamic.n_items

    def test_duplicate_arrival_rejected(self, warm_dynamic):
        base = warm_dynamic.delta.base
        user = int(base.rows[0])
        item = int(base.cols[0])
        with pytest.raises(DataError, match="duplicate"):
            warm_dynamic.ingest(RatingEvent(0.0, user, item, 9.9))

    def test_rejected_arrival_leaves_trainer_untouched(self, warm_dynamic):
        """Validation happens before growth: a bad event must not leave
        phantom users, items, or tokens behind."""
        users0, items0 = warm_dynamic.n_users, warm_dynamic.n_items
        queues0 = sum(warm_dynamic.queue_sizes())
        with pytest.raises(DataError, match="finite"):
            warm_dynamic.ingest(
                RatingEvent(0.0, users0 + 50, items0 + 50, float("nan"))
            )
        assert warm_dynamic.n_users == users0
        assert warm_dynamic.n_items == items0
        assert warm_dynamic.new_users == 0 and warm_dynamic.new_items == 0
        assert sum(warm_dynamic.queue_sizes()) == queues0
        assert warm_dynamic.arrivals == 0
        assert warm_dynamic.factors.n_rows == users0


# ----------------------------------------------------------------------
# Snapshots + prequential trace
# ----------------------------------------------------------------------
class TestSnapshotStore:
    def _factors(self, seed=0):
        return repro.init_factors(6, 4, 3, RngFactory(seed).stream("s"))

    def test_rotation_sequence_and_latest(self):
        store = SnapshotStore()
        first = store.rotate(self._factors(0), 0.0, 0, 0)
        second = store.rotate(self._factors(1), 1.0, 10, 100)
        assert (first.seq, second.seq) == (0, 1)
        assert store.latest is second
        assert store.rotations == 2

    def test_snapshots_are_immutable_and_decoupled(self):
        store = SnapshotStore()
        factors = self._factors()
        snapshot = store.rotate(factors, 0.0, 0, 0)
        factors.w[0, 0] = 123.0  # later training must not leak in
        assert snapshot.model.factors.w[0, 0] != 123.0
        with pytest.raises(ValueError):
            snapshot.model.factors.w[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_factors_refused(self, bad):
        """A diverged trainer must not become the serving snapshot."""
        store = SnapshotStore()
        good = store.rotate(self._factors(0), 0.0, 0, 0)
        diverged = self._factors(1)
        diverged.h[2, 1] = bad
        with pytest.raises(DataError, match=r"seq 1: factor H\[2, 1\]"):
            store.rotate(diverged, 1.0, 10, 100)
        assert store.latest is good
        assert store.rotations == 1

    def test_eviction_keeps_newest(self):
        store = SnapshotStore(max_keep=2)
        for i in range(5):
            store.rotate(self._factors(i), float(i), i, i)
        assert len(store) == 2
        assert [s.seq for s in store.snapshots] == [3, 4]
        assert store.latest.seq == 4

    def test_empty_store_raises(self):
        with pytest.raises(DataError, match="empty"):
            SnapshotStore().latest

    def test_validation(self):
        with pytest.raises(ConfigError):
            SnapshotStore(max_keep=0)


class TestPrequentialTrace:
    def test_rmse_and_window(self):
        trace = PrequentialTrace()
        for i, (predicted, actual) in enumerate(
            [(1.0, 0.0), (2.0, 2.0), (3.0, 2.0)]
        ):
            trace.score(float(i), i + 1, predicted, actual)
        assert trace.rmse() == pytest.approx(np.sqrt((1 + 0 + 1) / 3))
        assert trace.windowed_rmse(2) == pytest.approx(np.sqrt(0.5))

    def test_cold_counting(self):
        trace = PrequentialTrace()
        trace.mark_cold()
        trace.mark_cold()
        assert trace.cold == 2 and trace.scored == 0

    def test_empty_trace_raises(self):
        with pytest.raises(DataError):
            PrequentialTrace().rmse()


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class TestRecommender:
    def _store(self):
        store = SnapshotStore()
        store.rotate(
            repro.init_factors(6, 4, 3, RngFactory(0).stream("s")), 0.0, 0, 0
        )
        return store

    def test_serves_and_caches(self):
        recommender = Recommender(self._store())
        first = recommender.recommend(1, top_n=2)
        second = recommender.recommend(1, top_n=2)
        assert first == second
        assert recommender.cache_hits == 1
        assert recommender.cache_misses == 1

    def test_rotation_invalidates_cache(self):
        store = self._store()
        recommender = Recommender(store)
        stale = recommender.recommend(1, top_n=2)
        store.rotate(
            repro.init_factors(6, 4, 3, RngFactory(9).stream("s")), 1.0, 5, 50
        )
        fresh = recommender.recommend(1, top_n=2)
        assert recommender.invalidations == 1
        assert recommender.serving_seq == 1
        assert stale != fresh  # different factors, different ranking/scores

    def test_exclude_bypasses_cache(self):
        recommender = Recommender(self._store())
        recommender.recommend(1, top_n=2, exclude=np.array([0]))
        assert recommender.cache_misses == 0 and recommender.cache_hits == 0

    def test_cold_user_mean_fallback_and_error_mode(self):
        store = self._store()
        lenient = Recommender(store, cold_start="mean")
        result = lenient.recommend(99, top_n=2)
        assert len(result) == 2
        assert np.isfinite(lenient.predict(99, 0))
        assert np.isfinite(lenient.predict(0, 99))
        strict = Recommender(store, cold_start="error")
        with pytest.raises(ConfigError, match="unknown"):
            strict.recommend(99)
        with pytest.raises(ConfigError, match="unknown"):
            strict.predict(0, 99)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Recommender(self._store(), cold_start="panic")


# ----------------------------------------------------------------------
# fit_stream facade
# ----------------------------------------------------------------------
class TestFitStream:
    def _run(self, replay, **kwargs):
        defaults = dict(
            hyper=HYPER,
            run=RunConfig(seed=5),
            warmup_epochs=3,
            train_every=25,
            epochs_per_train=1,
            snapshot_every=100,
        )
        defaults.update(kwargs)
        return repro.fit_stream(replay, **defaults)

    def test_stream_result_shape(self, replay):
        result = self._run(replay)
        assert result.algorithm == "NOMAD" and result.engine == "dynamic"
        assert result.arrivals == replay.n_events
        assert result.new_users > 0 and result.new_items > 0
        assert result.snapshots.rotations >= 2
        assert result.prequential.scored + result.prequential.cold == (
            result.arrivals
        )
        assert result.arrivals_per_second > 0
        assert len(result.final.trace) == result.snapshots.rotations
        assert result.final.timing.updates == result.final.raw.total_updates
        summary = result.summary()
        assert "arrivals" in summary and "dynamic" in summary

    def test_stream_learns(self, replay):
        """The per-rotation RMSE against the growing dataset improves."""
        result = self._run(replay)
        records = result.final.trace.records
        assert records[-1].rmse < records[0].rmse

    def test_streamed_model_close_to_static_retrain(self, tiny_matrix):
        """Acceptance: the streamed model lands within 5% of a static
        retrain (the standard paper-schedule recipe) given the same
        total data and sweep budget, without ever re-partitioning."""
        stream = ReplayStream(
            tiny_matrix, warmup_fraction=0.5, holdout_rows=4, holdout_cols=2,
            seed=11,
        )
        warmup_epochs, train_every, final_epochs = 4, 10, 30
        result = repro.fit_stream(
            stream, hyper=HYPER, run=RunConfig(seed=5),
            warmup_epochs=warmup_epochs, train_every=train_every,
            epochs_per_train=1, final_epochs=final_epochs,
            snapshot_every=100,
        )
        combined = result.final.raw.combined()
        dynamic_rmse = rmse_of(result.final.factors, combined)
        # Static retrain: the same worker count and total sweep count,
        # cold-started on the full data with the standard (uncapped)
        # paper schedule — the recipe every static engine runs.
        sweeps = (
            warmup_epochs + stream.n_events // train_every + final_epochs
        )
        static = DynamicNomad(combined, 2, HYPER, seed=5)
        static.train(sweeps)
        static_rmse = rmse_of(static.factors, combined)
        assert dynamic_rmse <= static_rmse * 1.05

    def test_count_cap_keeps_warm_rows_plastic(self, tiny_matrix):
        """The streaming step-size floor is what lets arrivals train in:
        with the paper's unbounded decay the streamed model ends up
        measurably worse on the grown dataset."""
        def run(count_cap):
            stream = ReplayStream(
                tiny_matrix, warmup_fraction=0.5, holdout_rows=4,
                holdout_cols=2, seed=11,
            )
            result = repro.fit_stream(
                stream, hyper=HYPER, run=RunConfig(seed=5), warmup_epochs=4,
                train_every=10, epochs_per_train=1, final_epochs=10,
                snapshot_every=100, count_cap=count_cap,
            )
            return rmse_of(
                result.final.factors, result.final.raw.combined()
            )

        assert run(8) < run(None)

    def test_recommender_round_trip(self, replay):
        result = self._run(replay)
        recommender = result.recommender()
        recs = recommender.recommend(0, top_n=3)
        assert len(recs) == 3
        assert recommender.serving_seq == result.snapshots.latest.seq

    def test_final_model_covers_new_entities(self, replay):
        result = self._run(replay)
        model = result.snapshots.latest.model
        assert model.n_users == result.final.raw.n_users
        assert model.n_users > replay.warmup.n_rows

    def test_test_matrix_drives_trace(self, tiny_matrix, replay):
        result = self._run(replay, test=tiny_matrix)
        assert np.isfinite(result.final.trace.final_rmse())

    def test_unsupported_pairs_rejected(self, replay):
        with pytest.raises(ConfigError, match="stream"):
            repro.fit_stream(replay, algorithm="als", engine="simulated")
        with pytest.raises(ConfigError, match="does not stream"):
            repro.fit_stream(replay, algorithm="nomad", engine="threaded")

    def test_bad_stream_rejected(self, tiny_matrix):
        with pytest.raises(ConfigError, match="stream"):
            repro.fit_stream(tiny_matrix)

    def test_bad_cadence_rejected(self, replay):
        with pytest.raises(ConfigError, match="train_every"):
            self._run(replay, train_every=0)
        with pytest.raises(ConfigError, match="warmup_epochs"):
            self._run(replay, warmup_epochs=-1)

    def test_unknown_engine_kwargs_rejected(self, replay):
        with pytest.raises(ConfigError, match="transport"):
            self._run(replay, transport="tcp")


# ----------------------------------------------------------------------
# The dynamic engine through repro.fit (static path)
# ----------------------------------------------------------------------
class TestDynamicEngineStaticFit:
    def test_smoke(self, tiny_split):
        train, test = tiny_split
        result = repro.fit(
            train, test, engine="dynamic", hyper=HYPER,
            run=RunConfig(duration=0.05, eval_interval=0.05, seed=3),
            n_workers=2,
        )
        assert result.engine == "dynamic"
        assert result.timing.updates > 0
        assert len(result.trace) >= 2  # init + at least one sweep
        assert result.final_rmse() < result.trace.records[0].rmse
        assert sum(result.timing.updates_per_worker) == result.timing.updates

    def test_max_updates_honored(self, tiny_split):
        train, test = tiny_split
        result = repro.fit(
            train, test, engine="dynamic", hyper=HYPER,
            run=RunConfig(
                duration=5.0, eval_interval=5.0, seed=3, max_updates=50
            ),
            n_workers=2,
        )
        # Halts at a column boundary at or just past the budget, far
        # short of even one full sweep.
        assert 50 <= result.timing.updates < train.nnz

    def test_options_rejected(self, tiny_split):
        train, test = tiny_split
        with pytest.raises(ConfigError, match="simulated engine"):
            repro.fit(
                train, test, engine="dynamic", hyper=HYPER,
                options=repro.NomadOptions(),
            )
