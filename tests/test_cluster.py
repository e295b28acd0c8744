"""Tests for the socket cluster engine (worker loop, coordinator, facade).

Most tests run the identical worker/protocol code over the in-process
loopback transport (fast, no processes); the TCP/spawn path gets one
end-to-end run here plus the per-pair facade smoke in ``test_api.py``
and the CI ``cluster-smoke`` job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ENGINES, fit
from repro.cluster import (
    COORDINATOR,
    ClusterNomad,
    ClusterResult,
    LoopbackHub,
    WorkerSpec,
    run_worker,
)
from repro.cluster import wire
from repro.cli import main as cli_main
from repro.config import HyperParams, RunConfig
from repro.core.nomad import NomadOptions
from repro.errors import ClusterError, ConfigError
from repro.linalg.factors import init_factors
from repro.linalg.objective import test_rmse as compute_test_rmse
from repro.rng import RngFactory

HYPER = HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01)


def initial_rmse_for(train, test, seed):
    """RMSE of the untouched seed-determined initialization."""
    factors = init_factors(
        train.n_rows, train.n_cols, HYPER.k, RngFactory(seed).stream("init")
    )
    return compute_test_rmse(factors, test)


class TestClusterLoopback:
    """The full protocol on in-process threads (no sockets, no spawn)."""

    def test_converges(self, small_split):
        train, test = small_split
        runner = ClusterNomad(
            train, test, n_workers=3, hyper=HYPER, seed=1,
            transport="loopback",
        )
        result = runner.run(duration_seconds=0.5)
        assert isinstance(result, ClusterResult)
        assert result.updates > 0
        assert result.rmse < initial_rmse_for(train, test, seed=1) - 0.05

    def test_all_workers_contribute(self, small_split):
        train, test = small_split
        runner = ClusterNomad(
            train, test, n_workers=3, hyper=HYPER, seed=1,
            transport="loopback",
        )
        result = runner.run(duration_seconds=0.4)
        assert len(result.updates_per_worker) == 3
        assert all(count > 0 for count in result.updates_per_worker)
        assert sum(result.updates_per_worker) == result.updates

    def test_single_worker(self, tiny_split):
        train, test = tiny_split
        runner = ClusterNomad(
            train, test, n_workers=1, hyper=HYPER, seed=1,
            transport="loopback",
        )
        result = runner.run(duration_seconds=0.2)
        assert result.updates > 0
        assert np.all(np.isfinite(result.factors.w))
        assert np.all(np.isfinite(result.factors.h))

    def test_timing_contract(self, tiny_split):
        """wall_seconds covers the parallel section; drain/collection
        lands in join_seconds, like every live runtime."""
        train, test = tiny_split
        runner = ClusterNomad(
            train, test, n_workers=2, hyper=HYPER, seed=1,
            transport="loopback",
        )
        duration = 0.3
        result = runner.run(duration_seconds=duration)
        assert duration <= result.wall_seconds < duration + 0.25
        assert result.join_seconds >= 0.0

    def test_batch_size_one_still_circulates(self, tiny_split):
        train, test = tiny_split
        runner = ClusterNomad(
            train, test, n_workers=2, hyper=HYPER, seed=1,
            transport="loopback", batch_size=1,
        )
        result = runner.run(duration_seconds=0.2)
        assert all(count > 0 for count in result.updates_per_worker)


class TestClusterTcp:
    def test_converges_and_matches_multiprocess(self, small_split):
        """The acceptance run: 4 workers over real localhost sockets,
        final RMSE within noise of the shared-memory engine at the same
        seed."""
        from repro.runtime.multiprocess import MultiprocessNomad

        train, test = small_split
        cluster = ClusterNomad(
            train, test, n_workers=4, hyper=HYPER, seed=1
        ).run(duration_seconds=0.6)
        shared = MultiprocessNomad(
            train, test, n_workers=4, hyper=HYPER, seed=1
        ).run(duration_seconds=0.6)
        initial = initial_rmse_for(train, test, seed=1)
        assert cluster.updates > 0
        assert all(count > 0 for count in cluster.updates_per_worker)
        # Both engines must have converged well away from the seed
        # initialization (~1.78 here) toward the planted model (~0.2).
        assert cluster.rmse < initial - 1.0
        assert shared.rmse < initial - 1.0
        # Same protocol, same seed scheme, different substrate: the two
        # engines land in the same basin up to async noise.  The bound
        # is deliberately loose — on an oversubscribed CI runner the 8
        # competing worker processes make per-engine progress in the
        # fixed window noisy — while still far tighter than the
        # initial-to-converged gap it guards.
        assert cluster.rmse == pytest.approx(shared.rmse, abs=0.5)


class TestTokenConservation:
    """The §4 invariant as a runtime check: every item factor exactly once."""

    def _shards(self, runner, held_items):
        rows = np.arange(runner.train.n_rows, dtype=np.int64)
        w = np.zeros((rows.size, HYPER.k))
        items = np.array(list(held_items), dtype=np.int64)
        held = wire.TokenEnvelope(
            items, np.zeros_like(items), np.zeros((items.size, HYPER.k))
        )
        return {
            0: wire.ResultShard(
                worker_id=0, updates=0, k=HYPER.k, rows=rows, w=w, held=held
            )
        }

    def test_lost_token_detected(self, tiny_split):
        train, test = tiny_split
        runner = ClusterNomad(
            train, test, n_workers=1, hyper=HYPER, transport="loopback"
        )
        init = init_factors(
            train.n_rows, train.n_cols, HYPER.k, RngFactory(0).stream("init")
        )
        missing_one = range(train.n_cols - 1)
        with pytest.raises(ClusterError, match="lost"):
            runner._assemble(init, self._shards(runner, missing_one))

    def test_duplicated_token_detected(self, tiny_split):
        train, test = tiny_split
        runner = ClusterNomad(
            train, test, n_workers=1, hyper=HYPER, transport="loopback"
        )
        init = init_factors(
            train.n_rows, train.n_cols, HYPER.k, RngFactory(0).stream("init")
        )
        duplicated = list(range(train.n_cols)) + [0]
        with pytest.raises(ClusterError, match="duplicated"):
            runner._assemble(init, self._shards(runner, duplicated))

    def test_clean_run_conserves_all_tokens(self, tiny_split):
        """A normal run reassembles every h_j (none left at init)."""
        train, test = tiny_split
        runner = ClusterNomad(
            train, test, n_workers=2, hyper=HYPER, seed=1,
            transport="loopback",
        )
        result = runner.run(duration_seconds=0.4)
        init = init_factors(
            train.n_rows, train.n_cols, HYPER.k, RngFactory(1).stream("init")
        )
        changed = np.any(result.factors.h != init.h, axis=1)
        assert changed.mean() > 0.9  # nearly every item got SGD updates


class TestClusterFailureHandling:
    def test_loopback_worker_crash_fails_fast(self, tiny_split, monkeypatch):
        """A crashed worker surfaces as a named ClusterError well before
        the full result-collection timeout, not as a generic 15s wait."""
        import threading
        import time

        from repro.cluster import coordinator as coordinator_module

        def crashing_worker(spec, transport, pending=None):
            raise RuntimeError("injected worker crash")

        monkeypatch.setattr(coordinator_module, "run_worker", crashing_worker)
        monkeypatch.setattr(threading, "excepthook", lambda args: None)
        train, test = tiny_split
        runner = ClusterNomad(
            train, test, n_workers=2, hyper=HYPER, transport="loopback"
        )
        started = time.monotonic()
        with pytest.raises(ClusterError, match="died before reporting"):
            runner.run(duration_seconds=0.1)
        assert time.monotonic() - started < 5.0

    def test_loopback_single_crash_releases_survivors(
        self, tiny_split, monkeypatch
    ):
        """With only one of two workers crashed, the survivor must be
        released promptly (forged Fin on the dead peer's behalf), not
        left waiting out the drain timeout or leaked past run()."""
        import threading
        import time

        from repro.cluster import coordinator as coordinator_module

        real_run_worker = coordinator_module.run_worker

        def crash_worker_zero(spec, transport, pending=None):
            if spec.worker_id == 0:
                raise RuntimeError("injected worker crash")
            real_run_worker(spec, transport, pending)

        monkeypatch.setattr(coordinator_module, "run_worker", crash_worker_zero)
        monkeypatch.setattr(threading, "excepthook", lambda args: None)
        train, test = tiny_split
        runner = ClusterNomad(
            train, test, n_workers=2, hyper=HYPER, transport="loopback"
        )
        started = time.monotonic()
        with pytest.raises(ClusterError, match="died before reporting"):
            runner.run(duration_seconds=0.1)
        assert time.monotonic() - started < 5.0
        survivors = [
            t for t in threading.enumerate() if t.name == "cluster-1"
        ]
        assert not survivors  # the surviving worker exited with run()


class TestForgedTokens:
    """Item ids index a native CSC kernel, so each is range-checked."""

    def _spec(self, train):
        rows, cols, vals = train.rows, train.cols, train.vals
        return WorkerSpec(
            worker_id=0, n_workers=1, n_cols=train.n_cols,
            hyper=HYPER, backend_name="numpy", seed=0, batch_size=4,
            shard_rows=rows, shard_cols=cols, shard_vals=vals,
            w_rows=np.arange(train.n_rows),
            w_init=np.zeros((train.n_rows, HYPER.k)),
        )

    def _forge(self, hub, items):
        items = np.asarray(items, dtype=np.int64)
        body = wire.encode_envelope(
            items, np.zeros_like(items), np.zeros((items.size, HYPER.k))
        )
        hub.transport(COORDINATOR).send(0, body)

    @pytest.mark.parametrize("item", [-1, 10**6])
    def test_out_of_range_item_rejected(self, tiny_split, item):
        train, _ = tiny_split
        hub = LoopbackHub()
        worker_transport = hub.transport(0)
        self._forge(hub, [0, 1, item, 2])
        with pytest.raises(ClusterError, match=f"worker 0 .*item {item}"):
            run_worker(self._spec(train), worker_transport)

    def test_duplicate_tokens_overflow_rejected(self, tiny_split):
        """More tokens than items can only mean forged duplicates."""
        train, _ = tiny_split
        hub = LoopbackHub()
        worker_transport = hub.transport(0)
        self._forge(hub, np.arange(train.n_cols))
        self._forge(hub, [0])
        with pytest.raises(ClusterError, match="conservation"):
            run_worker(self._spec(train), worker_transport)

    def test_assemble_rejects_out_of_range_held_item(self, tiny_split):
        train, test = tiny_split
        runner = ClusterNomad(
            train, test, n_workers=1, hyper=HYPER, transport="loopback"
        )
        init = init_factors(
            train.n_rows, train.n_cols, HYPER.k, RngFactory(0).stream("init")
        )
        items = np.array([-1] + list(range(1, train.n_cols)), dtype=np.int64)
        shard = wire.ResultShard(
            worker_id=0, updates=0, k=HYPER.k,
            rows=np.arange(train.n_rows), w=init.w,
            held=wire.TokenEnvelope(
                items, np.zeros_like(items), init.h[: items.size]
            ),
        )
        with pytest.raises(ClusterError, match="worker 0 .*item -1"):
            runner._assemble(init, {0: shard})


class TestClusterTelemetryCounters:
    def test_loopback_counters_match_updates(self, small_split):
        """Per worker and summed, C_UPDATES equals the reported updates;
        every popped token got a hop span; queue depths were sampled."""
        from repro.telemetry import POINT_QUEUE_DEPTH, SPAN_HOP

        train, test = small_split
        result = ClusterNomad(
            train, test, n_workers=3, hyper=HYPER, seed=4,
            transport="loopback", telemetry=True,
        ).run(duration_seconds=0.3)
        workers = {w.worker_id: w for w in result.telemetry.workers}
        assert sorted(workers) == [0, 1, 2]
        total = 0
        for q, worker in workers.items():
            counters = worker.counters
            assert counters["updates"] == result.updates_per_worker[q]
            total += counters["updates"]
            assert 0 < counters["batches"] <= counters["drains"]
            hops = sum(1 for e in worker.events if e[0] == SPAN_HOP)
            assert hops + worker.dropped >= counters["tokens"] > 0
            assert any(e[0] == POINT_QUEUE_DEPTH for e in worker.events)
        assert total == result.updates


class TestClusterConfig:
    def test_bad_args(self, tiny_split):
        train, test = tiny_split
        with pytest.raises(ConfigError, match="n_workers"):
            ClusterNomad(train, test, n_workers=0, hyper=HYPER)
        with pytest.raises(ConfigError, match="transport"):
            ClusterNomad(train, test, 1, HYPER, transport="carrier-pigeon")
        with pytest.raises(ConfigError, match="batch_size"):
            ClusterNomad(train, test, 1, HYPER, batch_size=0)
        runner = ClusterNomad(train, test, 1, HYPER, transport="loopback")
        with pytest.raises(ConfigError, match="duration"):
            runner.run(duration_seconds=0.0)

    def test_shape_mismatch(self, tiny_split, small_split):
        train, _ = tiny_split
        _, other_test = small_split
        with pytest.raises(ConfigError):
            ClusterNomad(train, other_test, n_workers=1, hyper=HYPER)

    def test_max_updates_rejected_eagerly(self, tiny_split):
        train, test = tiny_split
        run = RunConfig(duration=0.2, eval_interval=0.1, max_updates=100)
        with pytest.raises(ConfigError, match="max_updates"):
            ClusterNomad(train, test, 1, HYPER, run=run)

    def test_oversized_result_shard_rejected_eagerly(self, tiny_split):
        """A TCP shard whose result frame cannot fit the transport limit
        fails before any process spawns, not at the end-of-run send."""
        train, test = tiny_split
        runner = ClusterNomad(
            train, test, 1, HyperParams(k=100, lambda_=0.01, alpha=0.1,
                                        beta=0.01),
        )
        huge_partition = [np.arange(200_000)]
        with pytest.raises(ConfigError, match="frame limit"):
            runner._check_shard_frame_sizes(huge_partition)

    def test_runconfig_supplies_seed_and_duration(self, tiny_split):
        train, test = tiny_split
        run = RunConfig(duration=0.2, eval_interval=0.1, seed=17)
        runner = ClusterNomad(
            train, test, 1, HYPER, run=run, transport="loopback"
        )
        assert runner.seed == 17
        result = runner.run()
        assert 0.2 <= result.wall_seconds < 0.2 + 0.25


class TestClusterViaFacade:
    def test_engine_registered(self):
        assert "cluster" in ENGINES
        assert "fork-free" in ENGINES["cluster"].description

    def test_fit_loopback_smoke(self, tiny_split):
        train, test = tiny_split
        result = fit(
            train, test, algorithm="nomad", engine="cluster",
            hyper=HYPER, run=RunConfig(duration=0.2, eval_interval=0.2,
                                       seed=3),
            n_workers=2, transport="loopback", batch_size=4,
        )
        assert result.engine == "cluster"
        assert result.timing.updates > 0
        assert result.timing.simulated_seconds is None
        assert len(result.timing.updates_per_worker) == 2
        assert len(result.trace) == 2

    def test_baseline_on_cluster_rejected_with_matrix(self, tiny_split):
        train, test = tiny_split
        with pytest.raises(ConfigError) as excinfo:
            fit(train, test, algorithm="als", engine="cluster")
        message = str(excinfo.value)
        assert "'ALS'" in message and "'cluster'" in message
        assert (
            "NOMAD: cluster, dynamic, multiprocess, simulated, threaded"
            in message
        )

    def test_options_rejected(self, tiny_split):
        train, test = tiny_split
        with pytest.raises(ConfigError, match="simulated engine"):
            fit(train, test, engine="cluster", hyper=HYPER,
                options=NomadOptions())

    def test_unknown_kwargs_rejected(self, tiny_split):
        train, test = tiny_split
        with pytest.raises(ConfigError, match="refresh_period"):
            fit(train, test, engine="cluster", hyper=HYPER,
                refresh_period=4)


class TestClusterCli:
    def test_fit_list_includes_cluster(self, capsys):
        assert cli_main(["fit", "--list"]) == 0
        out = capsys.readouterr().out
        nomad_row = next(
            line for line in out.splitlines() if line.startswith("NOMAD")
        )
        assert "cluster" in nomad_row
