"""Cross-backend equivalence suite and backend-selection tests.

The kernel backends of :mod:`repro.linalg.backends` must be numerically
interchangeable: identical visit order, identical counter schedule, and
factors matching to float-rounding noise (``atol=1e-10``) on every kernel
variant and on whole optimizer runs.  These tests pin that contract so a
future backend (numba, Cython, GPU) has an executable specification.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import HyperParams, RunConfig
from repro.datasets.ratings import Shard
from repro.core.nomad import NomadSimulation
from repro.baselines.dsgd import DSGDSimulation
from repro.baselines.hogwild import HogwildSimulation
from repro.baselines.serial_sgd import SerialSGD
from repro.errors import ConfigError
from repro.linalg.backends import (
    AUTO_NUMPY_MIN_K,
    BACKENDS,
    CextBackend,
    ListBackend,
    NumpyBackend,
    cext_available,
    get_backend,
    resolve_backend,
)
from repro.linalg.factors import FactorPair
from repro.linalg.losses import HuberLoss
from repro.simulator.cluster import Cluster
from repro.simulator.network import HPC_PROFILE

ATOL = 1e-10

ALPHA, BETA, LAMBDA = 0.1, 0.02, 0.05

needs_cext = pytest.mark.skipif(
    not cext_available(), reason="no usable C toolchain (cext unavailable)"
)

#: Backends compared against the list reference in the equivalence suite;
#: ``cext`` rows skip cleanly where the toolchain is absent.
OTHER_BACKENDS = ["numpy", pytest.param("cext", marks=needs_cext)]

#: Every backend expected to run on this box (storage/selection tests).
def _available_backends() -> list[str]:
    names = ["list", "numpy"]
    if cext_available():
        names.append("cext")
    return names


def _fixture(seed: int, m: int = 12, n: int = 8, k: int = 5, nnz: int = 30):
    """Shared random factors and entries, one copy per backend."""
    rng = np.random.default_rng(seed)
    w = rng.random((m, k))
    h = rng.random((n, k))
    rows = rng.integers(0, m, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.random(nnz) * 4.0
    order = rng.permutation(nnz)
    return w, h, rows, cols, vals, order


def _stores(w: np.ndarray, h: np.ndarray, other: str):
    pair = FactorPair(w.copy(), h.copy())
    return ListBackend().make_store(pair), get_backend(other).make_store(pair)


class TestKernelEquivalence:
    """Every backend agrees with the list reference on all kernel variants."""

    @pytest.mark.parametrize("other", OTHER_BACKENDS)
    def test_process_column(self, other):
        w, h, rows, _, vals, _ = _fixture(0)
        (w_l, h_l), (w_n, h_n) = _stores(w, h, other)
        counts_l = [3] * len(rows)
        counts_n = np.full(len(rows), 3, dtype=np.int64)
        a = ListBackend().process_column(
            w_l, h_l[2], rows.tolist(), vals.tolist(), counts_l,
            ALPHA, BETA, LAMBDA,
        )
        b = get_backend(other).process_column(
            w_n, h_n[2], rows, vals, counts_n, ALPHA, BETA, LAMBDA
        )
        assert a == b == len(rows)
        assert np.allclose(np.asarray(w_l), w_n, atol=ATOL)
        assert np.allclose(np.asarray(h_l), h_n, atol=ATOL)
        assert counts_l == counts_n.tolist() == [4] * len(rows)

    @pytest.mark.parametrize("other", OTHER_BACKENDS)
    def test_process_column_loss(self, other):
        w, h, rows, _, vals, _ = _fixture(1)
        (w_l, h_l), (w_n, h_n) = _stores(w, h, other)
        loss = HuberLoss(delta=0.5)
        counts_l = [0] * len(rows)
        counts_n = np.zeros(len(rows), dtype=np.int64)
        ListBackend().process_column_loss(
            w_l, h_l[0], rows.tolist(), vals.tolist(), counts_l,
            ALPHA, BETA, LAMBDA, loss,
        )
        get_backend(other).process_column_loss(
            w_n, h_n[0], rows, vals, counts_n, ALPHA, BETA, LAMBDA, loss
        )
        assert np.allclose(np.asarray(w_l), w_n, atol=ATOL)
        assert np.allclose(np.asarray(h_l), h_n, atol=ATOL)

    @pytest.mark.parametrize("other", OTHER_BACKENDS)
    def test_process_column_batch(self, other):
        """The fused batch entry is identical to looped process_column."""
        w, h, _, _, _, _ = _fixture(6)
        rng = np.random.default_rng(60)
        items = [0, 3, 5, 1]
        col_users = [rng.integers(0, w.shape[0], size=m) for m in (7, 0, 11, 4)]
        col_ratings = [rng.random(u.size) * 4.0 for u in col_users]
        (w_l, h_l), (w_n, h_n) = _stores(w, h, other)
        counts_l = [[1] * u.size for u in col_users]
        counts_n = [np.ones(u.size, dtype=np.int64) for u in col_users]
        reference = ListBackend()
        a = 0
        for j, users, ratings, counts in zip(
            items, col_users, col_ratings, counts_l
        ):
            a += reference.process_column(
                w_l, h_l[j], users.tolist(), ratings.tolist(),
                counts, ALPHA, BETA, LAMBDA,
            )
        backend = get_backend(other)
        b = backend.process_column_batch(
            w_n,
            [backend.row(h_n, j) for j in items],
            col_users,
            col_ratings,
            counts_n,
            ALPHA, BETA, LAMBDA,
        )
        assert a == b == sum(u.size for u in col_users)
        assert np.allclose(np.asarray(w_l), np.asarray(w_n), atol=ATOL)
        assert np.allclose(np.asarray(h_l), np.asarray(h_n), atol=ATOL)
        for expected, got in zip(counts_l, counts_n):
            assert expected == list(got)

    def test_process_column_batch_empty(self):
        for name in _available_backends():
            assert get_backend(name).process_column_batch(
                [], [], [], [], [], ALPHA, BETA, LAMBDA
            ) == 0

    @pytest.mark.parametrize("name", ["list"] + OTHER_BACKENDS)
    def test_process_items(self, name):
        """The shard-indexed burst equals sequential process_column over
        the Shard's CSC slices — including items with no local ratings
        and an item repeated within one burst."""
        w, h, rows, cols, vals, _ = _fixture(7, nnz=40)
        cols = np.where(cols == 4, 2, cols)  # item 4 has no local ratings
        shard = Shard(0, h.shape[0], rows, cols, vals)
        items = np.array([3, 4, 2, 3, 0, 7, 4, 3], dtype=np.int64)
        # Tokens carry their rows in a separate block (like the cluster
        # inbox ring), in a different order than the item ids.
        block = h[items[::-1]].copy()
        h_rows = np.arange(items.size)[::-1].copy()

        w_ref, block_ref = w.copy(), block.copy()
        counts_ref = np.full(shard.nnz, 2, dtype=np.int64)
        reference = ListBackend()
        expected = 0
        for row, j in zip(h_rows, items):
            lo, hi = shard.ptr[j], shard.ptr[j + 1]
            expected += reference.process_column(
                w_ref, block_ref[row], shard.rows[lo:hi], shard.vals[lo:hi],
                counts_ref[lo:hi], ALPHA, BETA, LAMBDA,
            )

        counts = np.full(shard.nnz, 2, dtype=np.int64)
        applied = get_backend(name).process_items(
            w, block, h_rows, items, shard.ptr, shard.rows, shard.vals,
            counts, ALPHA, BETA, LAMBDA,
        )
        assert shard.column_nnz(4) == 0
        assert applied == expected == sum(
            shard.column_nnz(j) for j in items
        )
        assert np.allclose(w, w_ref, atol=ATOL)
        assert np.allclose(block, block_ref, atol=ATOL)
        assert counts.tolist() == counts_ref.tolist()
        # Item 3 ran three times: its counters advanced by three.
        assert (counts[shard.ptr[3]:shard.ptr[4]] == 5).all()

    def test_process_items_empty(self):
        shard = Shard(0, 3, np.zeros(0), np.zeros(0), np.zeros(0))
        empty = np.zeros(0, dtype=np.int64)
        for name in _available_backends():
            assert get_backend(name).process_items(
                np.zeros((2, 2)), np.zeros((3, 2)), empty, empty,
                shard.ptr, shard.rows, shard.vals, empty,
                ALPHA, BETA, LAMBDA,
            ) == 0

    @pytest.mark.parametrize("other", OTHER_BACKENDS)
    def test_process_entries(self, other):
        w, h, rows, cols, vals, order = _fixture(2)
        (w_l, h_l), (w_n, h_n) = _stores(w, h, other)
        counts_l = [0] * len(rows)
        counts_n = np.zeros(len(rows), dtype=np.int64)
        a = ListBackend().process_entries(
            w_l, h_l, rows.tolist(), cols.tolist(), vals.tolist(),
            counts_l, ALPHA, BETA, LAMBDA, order.tolist(),
        )
        b = get_backend(other).process_entries(
            w_n, h_n, rows, cols, vals, counts_n, ALPHA, BETA, LAMBDA, order
        )
        assert a == b == len(order)
        assert np.allclose(np.asarray(w_l), w_n, atol=ATOL)
        assert np.allclose(np.asarray(h_l), h_n, atol=ATOL)
        assert counts_l == counts_n.tolist()

    @pytest.mark.parametrize("other", OTHER_BACKENDS)
    def test_process_entries_const(self, other):
        w, h, rows, cols, vals, order = _fixture(3)
        (w_l, h_l), (w_n, h_n) = _stores(w, h, other)
        a = ListBackend().process_entries_const(
            w_l, h_l, rows.tolist(), cols.tolist(), vals.tolist(),
            0.07, LAMBDA, order.tolist(),
        )
        b = get_backend(other).process_entries_const(
            w_n, h_n, rows, cols, vals, 0.07, LAMBDA, order
        )
        assert a == b == len(order)
        assert np.allclose(np.asarray(w_l), w_n, atol=ATOL)
        assert np.allclose(np.asarray(h_l), h_n, atol=ATOL)

    def test_empty_entries_noop(self):
        for name in _available_backends():
            backend = get_backend(name)
            assert backend.process_entries(
                [], [], [], [], [], [], ALPHA, BETA, LAMBDA, []
            ) == 0
            assert backend.process_entries_const(
                [], [], [], [], [], 0.1, LAMBDA, []
            ) == 0

    def test_storage_round_trip(self):
        w, h, *_ = _fixture(4)
        pair = FactorPair(w.copy(), h.copy())
        for name in _available_backends():
            backend = get_backend(name)
            store_w, store_h = backend.make_store(pair)
            out = backend.export(store_w, store_h)
            assert np.array_equal(out.w, w)
            assert np.array_equal(out.h, h)
            # export is decoupled: mutating the store must not leak out.
            backend.row(store_w, 0)[0] = 123.0
            assert out.w[0, 0] == w[0, 0]

    def test_snapshot_restore(self):
        w, h, *_ = _fixture(5)
        pair = FactorPair(w.copy(), h.copy())
        for name in _available_backends():
            backend = get_backend(name)
            store_w, _ = backend.make_store(pair)
            snap = backend.copy_rows(store_w)
            backend.row(store_w, 1)[2] = -99.0
            backend.restore_rows(store_w, snap)
            assert np.allclose(np.asarray(store_w), w)


class TestSimulationEquivalence:
    """Whole optimizer runs are backend-independent."""

    @pytest.mark.parametrize("other", OTHER_BACKENDS)
    def test_nomad_matches_across_backends(self, small_split, other):
        train, test = small_split
        cluster = Cluster(1, 2, HPC_PROFILE)
        hyper = HyperParams(k=4, lambda_=0.01, alpha=0.05)
        traces = {}
        factors = {}
        for backend in ("list", other):
            run = RunConfig(
                duration=0.005, eval_interval=0.001, seed=3,
                kernel_backend=backend,
            )
            sim = NomadSimulation(train, test, cluster, hyper, run)
            assert sim.kernel_backend == backend
            traces[backend] = sim.run()
            factors[backend] = sim.factors
        assert np.allclose(
            factors["list"].w, factors[other].w, atol=1e-8
        )
        assert np.allclose(
            factors["list"].h, factors[other].h, atol=1e-8
        )
        rmse_l = [r.rmse for r in traces["list"].records]
        rmse_n = [r.rmse for r in traces[other].records]
        assert np.allclose(rmse_l, rmse_n, atol=1e-8)

    @pytest.mark.parametrize("optimizer", [SerialSGD, DSGDSimulation,
                                           HogwildSimulation])
    def test_baselines_match_across_backends(self, small_split, optimizer):
        train, test = small_split
        cluster = Cluster(1, 2, HPC_PROFILE)
        hyper = HyperParams(k=4, lambda_=0.01, alpha=0.05)
        finals = {}
        for backend in ("list", "numpy"):
            run = RunConfig(
                duration=0.004, eval_interval=0.001, seed=5,
                kernel_backend=backend,
            )
            opt = optimizer(train, test, cluster, hyper, run)
            trace = opt.run()
            finals[backend] = (opt.factors, trace.final_rmse())
        assert np.allclose(
            finals["list"][0].w, finals["numpy"][0].w, atol=1e-8
        )
        assert np.allclose(
            finals["list"][0].h, finals["numpy"][0].h, atol=1e-8
        )
        assert finals["list"][1] == pytest.approx(finals["numpy"][1], abs=1e-8)


class TestSelection:
    def test_registry_names(self):
        assert set(BACKENDS) == {"list", "numpy", "cext"}
        assert isinstance(get_backend("list"), ListBackend)
        assert isinstance(get_backend("numpy"), NumpyBackend)
        if cext_available():
            assert isinstance(get_backend("cext"), CextBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            get_backend("cython")
        with pytest.raises(ConfigError):
            resolve_backend("gpu", k=8)

    @needs_cext
    def test_auto_prefers_cext_when_available(self):
        # The compiled backend dominates at every k and for every storage.
        assert isinstance(resolve_backend("auto", k=8), CextBackend)
        assert isinstance(
            resolve_backend("auto", k=AUTO_NUMPY_MIN_K), CextBackend
        )
        assert isinstance(
            resolve_backend("auto", k=4, storage="ndarray"), CextBackend
        )

    def test_auto_selects_by_k(self, monkeypatch):
        # Mask the toolchain: "auto" falls back to the interpreted
        # crossover, exactly as on a box with no compiler.
        monkeypatch.setenv("NOMAD_CEXT_DISABLE", "1")
        assert isinstance(resolve_backend("auto", k=8), ListBackend)
        assert isinstance(
            resolve_backend("auto", k=AUTO_NUMPY_MIN_K), NumpyBackend
        )

    def test_none_consults_env_var(self, monkeypatch):
        monkeypatch.setenv("NOMAD_CEXT_DISABLE", "1")
        monkeypatch.delenv("NOMAD_KERNEL_BACKEND", raising=False)
        assert isinstance(resolve_backend(None, k=4), ListBackend)
        monkeypatch.setenv("NOMAD_KERNEL_BACKEND", "numpy")
        assert isinstance(resolve_backend(None, k=4), NumpyBackend)
        # Explicit names ignore the environment entirely.
        assert isinstance(resolve_backend("list", k=4), ListBackend)

    def test_auto_prefers_numpy_for_ndarray_storage(self, monkeypatch):
        monkeypatch.setenv("NOMAD_CEXT_DISABLE", "1")
        assert isinstance(
            resolve_backend("auto", k=4, storage="ndarray"), NumpyBackend
        )
        # Explicit choice still wins over the storage default.
        assert isinstance(
            resolve_backend("list", k=4, storage="ndarray"), ListBackend
        )

    def test_run_config_validates_backend(self):
        assert RunConfig().kernel_backend in ("auto", "cext", "list", "numpy")
        assert RunConfig(kernel_backend="numpy").kernel_backend == "numpy"
        # "cext" is always a *valid* setting (even with no toolchain);
        # availability is enforced at backend resolution, with a clean
        # ConfigError instead of a mid-fit crash.
        assert RunConfig(kernel_backend="cext").kernel_backend == "cext"
        with pytest.raises(ConfigError):
            RunConfig(kernel_backend="fortran")

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv("NOMAD_KERNEL_BACKEND", "numpy")
        assert RunConfig().kernel_backend == "numpy"
        monkeypatch.setenv("NOMAD_KERNEL_BACKEND", "bogus")
        with pytest.raises(ConfigError):
            RunConfig()
        monkeypatch.delenv("NOMAD_KERNEL_BACKEND")
        assert RunConfig().kernel_backend == "auto"

    def test_simulation_uses_configured_backend(self, tiny_split):
        train, test = tiny_split
        cluster = Cluster(1, 2, HPC_PROFILE)
        hyper = HyperParams(k=4, lambda_=0.01, alpha=0.05)
        run = RunConfig(duration=0.002, eval_interval=0.001,
                        kernel_backend="numpy")
        sim = NomadSimulation(train, test, cluster, hyper, run)
        assert isinstance(sim._backend, NumpyBackend)
        assert isinstance(sim._w_store, np.ndarray)
        run_list = run.with_(kernel_backend="list")
        sim_list = NomadSimulation(train, test, cluster, hyper, run_list)
        assert isinstance(sim_list._backend, ListBackend)
        assert isinstance(sim_list._w_store, list)


class TestMaxUpdatesHalt:
    def test_trace_ends_at_halt_time(self, tiny_split):
        """max_updates halts must not pad the trace until `duration`."""
        train, test = tiny_split
        cluster = Cluster(1, 2, HPC_PROFILE)
        hyper = HyperParams(k=4, lambda_=0.01, alpha=0.05)
        run = RunConfig(
            duration=0.05, eval_interval=0.001, seed=7, max_updates=500
        )
        sim = NomadSimulation(train, test, cluster, hyper, run)
        trace = sim.run()
        assert sim.total_updates >= 500
        final_time = trace.records[-1].time
        # The halt fires long before the duration budget at this scale.
        assert final_time < run.duration / 2
        # No post-halt padding: times strictly increase and the last
        # point is the halt stamp itself, not a scheduled grid point.
        times = [r.time for r in trace.records]
        assert times == sorted(set(times))

    def test_unhalted_run_still_records_until_duration(self, tiny_split):
        train, test = tiny_split
        cluster = Cluster(1, 2, HPC_PROFILE)
        hyper = HyperParams(k=4, lambda_=0.01, alpha=0.05)
        run = RunConfig(duration=0.004, eval_interval=0.001, seed=7)
        sim = NomadSimulation(train, test, cluster, hyper, run)
        trace = sim.run()
        assert trace.records[-1].time == pytest.approx(run.duration)
