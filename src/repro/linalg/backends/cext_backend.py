"""Compiled SGD backend — C inner loops over ndarray factors via ctypes.

The interpreted backends pay Python-interpreter or ndarray-dispatch
overhead *per rating*; this backend runs the whole inner loop in C
(``nomad_kernels.c``, built on demand by :mod:`.cext_build`), so the
per-update cost drops to the raw arithmetic.  Factor stores are plain
``float64`` ndarrays — identical to :class:`NumpyBackend` — which means
the shared-memory runtimes and cluster workers hand their blocks straight
to the C functions with **zero copies**; arguments in any other
representation (nested lists, mismatched dtypes) are converted on the way
in and written back on the way out, so the backend stays conformant with
the full :class:`KernelBackend` contract.

Two properties worth knowing:

* **Bit-compatibility** — the C loops replicate the reference core
  operation for operation and are compiled with ``-ffp-contract=off``,
  so they sit inside the cross-backend equivalence envelope
  (``atol=1e-10``) like any other backend.
* **True parallelism** — :mod:`ctypes` releases the GIL for the duration
  of each foreign call.  NOMAD's owner-computes rule makes concurrent
  kernel calls touch disjoint rows, so the threaded runtime gets genuine
  multi-core scaling out of this backend, not just a faster serial loop.

The fused :meth:`process_column_batch` amortizes the remaining per-call
ctypes overhead across a burst of tokens: one native call walks several
columns back to back, exactly equivalent to the sequential loop the
default implementation performs.  :meth:`process_items` goes further for
callers that hold a CSC shard: the burst is described by a fixed set of
arrays (item ids, factor rows, the shard's pointer/user/rating arrays),
so no per-token pointer array is built at all.
"""

from __future__ import annotations

import ctypes
from typing import Any, Sequence

import numpy as np

from ...errors import ConfigError
from ..losses import AbsoluteLoss, HuberLoss, Loss, SquaredLoss
from . import cext_build
from .list_backend import sgd_core
from .numpy_backend import NumpyBackend

__all__ = ["CextBackend"]

_F8 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_I8 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_PTRS = ctypes.POINTER(ctypes.c_void_p)
_i64 = ctypes.c_int64
_f64 = ctypes.c_double

#: counts placeholder for the constant-step entries call (never read: the
#: C loop only dereferences counts when scheduled != 0).
_NO_COUNTS = np.zeros(1, dtype=np.int64)


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.nomad_process_column.restype = _i64
    lib.nomad_process_column.argtypes = [
        _F8, _F8, _I8, _F8, _I8, _i64, _i64, _f64, _f64, _f64, _i64, _f64,
    ]
    lib.nomad_process_column_batch.restype = _i64
    lib.nomad_process_column_batch.argtypes = [
        _F8, _PTRS, _PTRS, _PTRS, _PTRS, _I8, _i64, _i64, _f64, _f64, _f64,
    ]
    lib.nomad_process_items.restype = _i64
    lib.nomad_process_items.argtypes = [
        _F8, _F8, _I8, _I8, _I8, _I8, _F8, _I8, _i64, _i64, _f64, _f64, _f64,
    ]
    lib.nomad_process_entries.restype = _i64
    lib.nomad_process_entries.argtypes = [
        _F8, _F8, _I8, _I8, _F8, _I8, _I8, _i64, _i64, _f64, _f64, _f64,
        _f64, _i64,
    ]
    return lib


def _conform(x: Any, dtype, writebacks: list | None) -> np.ndarray:
    """Contiguous ``dtype`` array for ``x``; no copy when already conformant.

    When a copy *was* made and ``writebacks`` is given, the (original,
    copy) pair is recorded so mutations can be propagated back — kernels
    mutate ``w``/``h_col``/``counts`` in place by contract, and callers
    holding lists (the simulated core's column stores) must observe them.
    """
    arr = np.ascontiguousarray(x, dtype=dtype)
    if arr is not x and writebacks is not None:
        writebacks.append((x, arr))
    return arr


def _write_back(writebacks: list) -> None:
    for original, arr in writebacks:
        if isinstance(original, np.ndarray):
            original[...] = arr
        elif arr.ndim == 1:
            original[:] = arr.tolist()
        else:
            for row, values in zip(original, arr.tolist()):
                row[:] = values


def _loss_id(loss: Loss) -> tuple[int, float] | None:
    """(loss_id, param) for losses the C dispatch knows; None otherwise."""
    if type(loss) is SquaredLoss:
        return 0, 0.0
    if type(loss) is AbsoluteLoss:
        return 1, 0.0
    if type(loss) is HuberLoss:
        return 2, loss.delta
    return None


class CextBackend(NumpyBackend):
    """ndarray factor storage with compiled (C, via ctypes) kernels."""

    name = "cext"

    @classmethod
    def ensure_available(cls) -> None:
        """Raise :class:`ConfigError` when the toolchain can't serve us.

        Called by the registry before every hand-out, so an explicit
        ``kernel_backend="cext"`` on a toolchain-less box fails at
        configuration time with the fallback spelled out — never midway
        through a fit.
        """
        reason = cext_build.cext_unavailable_reason()
        if reason is not None:
            raise ConfigError(
                f"kernel backend 'cext' is unavailable: {reason}. "
                "Use kernel_backend='auto' (or unset $NOMAD_KERNEL_BACKEND) "
                "to fall back to the interpreted 'list'/'numpy' backends."
            )

    def __init__(self) -> None:
        type(self).ensure_available()
        self._lib = _bind(cext_build.load_library())

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _column_call(
        self, w, h_col, user_rows, ratings, counts, alpha, beta, lambda_,
        loss_id: int, loss_param: float,
    ) -> int:
        n = len(user_rows)
        if n == 0:
            return 0
        writebacks: list = []
        w_arr = _conform(w, np.float64, writebacks)
        h_arr = _conform(h_col, np.float64, writebacks)
        counts_arr = _conform(counts, np.int64, writebacks)
        users_arr = _conform(user_rows, np.int64, None)
        ratings_arr = _conform(ratings, np.float64, None)
        applied = self._lib.nomad_process_column(
            w_arr, h_arr, users_arr, ratings_arr, counts_arr,
            n, h_arr.shape[0], alpha, beta, lambda_, loss_id, loss_param,
        )
        _write_back(writebacks)
        return applied

    def process_column(
        self, w, h_col, user_rows, ratings, counts, alpha, beta, lambda_
    ) -> int:
        return self._column_call(
            w, h_col, user_rows, ratings, counts, alpha, beta, lambda_, 0, 0.0
        )

    def process_column_loss(
        self, w, h_col, user_rows, ratings, counts, alpha, beta, lambda_, loss: Loss
    ) -> int:
        dispatch = _loss_id(loss)
        if dispatch is None:
            # Unknown Loss subclass: its gradient is Python code, so run
            # the interpreted reference core rather than guessing in C.
            return sgd_core(
                w, None, h_col, user_rows, None, ratings, counts,
                range(len(user_rows)), alpha, beta, lambda_, 0.0,
                loss.dloss_dpred,
            )
        loss_id, loss_param = dispatch
        return self._column_call(
            w, h_col, user_rows, ratings, counts, alpha, beta, lambda_,
            loss_id, loss_param,
        )

    def process_column_batch(
        self,
        w: Any,
        h_cols: Sequence[Any],
        col_users: Sequence[Sequence[int]],
        col_ratings: Sequence[Sequence[float]],
        col_counts: Sequence[Sequence[int]],
        alpha: float,
        beta: float,
        lambda_: float,
    ) -> int:
        n_cols = len(h_cols)
        if n_cols == 0:
            return 0
        writebacks: list = []
        w_arr = _conform(w, np.float64, writebacks)
        h_arrs = [_conform(col, np.float64, writebacks) for col in h_cols]
        counts_arrs = [_conform(c, np.int64, writebacks) for c in col_counts]
        users_arrs = [_conform(u, np.int64, None) for u in col_users]
        ratings_arrs = [_conform(r, np.float64, None) for r in col_ratings]
        lens = np.array([a.shape[0] for a in users_arrs], dtype=np.int64)
        h_ptrs = (ctypes.c_void_p * n_cols)(*[a.ctypes.data for a in h_arrs])
        u_ptrs = (ctypes.c_void_p * n_cols)(*[a.ctypes.data for a in users_arrs])
        r_ptrs = (ctypes.c_void_p * n_cols)(*[a.ctypes.data for a in ratings_arrs])
        c_ptrs = (ctypes.c_void_p * n_cols)(*[a.ctypes.data for a in counts_arrs])
        applied = self._lib.nomad_process_column_batch(
            w_arr, h_ptrs, u_ptrs, r_ptrs, c_ptrs, lens, n_cols,
            h_arrs[0].shape[0], alpha, beta, lambda_,
        )
        _write_back(writebacks)
        return applied

    def process_items(
        self, w, h, h_rows, items, ptr, users, ratings, counts, alpha, beta,
        lambda_,
    ) -> int:
        n_items = len(items)
        if n_items == 0:
            return 0
        writebacks: list = []
        w_arr = _conform(w, np.float64, writebacks)
        h_arr = _conform(h, np.float64, writebacks)
        counts_arr = _conform(counts, np.int64, writebacks)
        applied = self._lib.nomad_process_items(
            w_arr, h_arr,
            _conform(h_rows, np.int64, None),
            _conform(items, np.int64, None),
            _conform(ptr, np.int64, None),
            _conform(users, np.int64, None),
            _conform(ratings, np.float64, None),
            counts_arr, n_items, h_arr.shape[1], alpha, beta, lambda_,
        )
        _write_back(writebacks)
        return applied

    def _entries_call(
        self, w, h, entry_rows, entry_cols, ratings, counts, order,
        alpha, beta, lambda_, step, scheduled: int,
    ) -> int:
        if len(entry_rows) == 0:
            return 0
        writebacks: list = []
        w_arr = _conform(w, np.float64, writebacks)
        h_arr = _conform(h, np.float64, writebacks)
        counts_arr = (
            _conform(counts, np.int64, writebacks) if scheduled else _NO_COUNTS
        )
        rows_arr = _conform(entry_rows, np.int64, None)
        cols_arr = _conform(entry_cols, np.int64, None)
        ratings_arr = _conform(ratings, np.float64, None)
        order_arr = _conform(order, np.int64, None)
        applied = self._lib.nomad_process_entries(
            w_arr, h_arr, rows_arr, cols_arr, ratings_arr, counts_arr,
            order_arr, order_arr.shape[0], w_arr.shape[1],
            alpha, beta, lambda_, step, scheduled,
        )
        _write_back(writebacks)
        return applied

    def process_entries(
        self, w, h, entry_rows, entry_cols, ratings, counts, alpha, beta,
        lambda_, order,
    ) -> int:
        return self._entries_call(
            w, h, entry_rows, entry_cols, ratings, counts, order,
            alpha, beta, lambda_, 0.0, 1,
        )

    def process_entries_const(
        self, w, h, entry_rows, entry_cols, ratings, step, lambda_, order
    ) -> int:
        return self._entries_call(
            w, h, entry_rows, entry_cols, ratings, None, order,
            0.0, 0.0, lambda_, step, 0,
        )
