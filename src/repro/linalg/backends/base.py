"""The pluggable SGD kernel-backend interface.

Every optimizer in the library ultimately runs one of four SGD inner-loop
variants:

* **column** — all local ratings of one item against a shared ``h_j``
  vector (NOMAD's token work, Algorithm 1 lines 16–21);
* **column with a generic loss** — the §6 extension of the column loop to
  an arbitrary separable :class:`~repro.linalg.losses.Loss`;
* **entries** — an arbitrary list of observed ``(i, j)`` entries visited in
  a given order with the per-rating step-size schedule of equation (11)
  (serial SGD, FPSGD** block passes);
* **entries with a constant step** — the same sweep with one scalar step
  size per call (DSGD/DSGD++ epochs under the bold driver).

Historically each variant existed twice (a list-based scalar loop and an
ndarray loop), six near-identical copies in total.  A
:class:`KernelBackend` packages all four behind one interface so the
mathematics lives in exactly one place per backend and new execution
strategies (numba, Cython, GPU) can be added without touching any
optimizer.

Because updates are sequential-dependent (every update to a row feeds the
next prediction involving that row), all backends preserve the exact
visit order and the per-rating counter schedule; backends may only differ
in floating-point rounding at the last-ulp level (the equivalence suite in
``tests/test_kernel_backends.py`` pins them together at ``atol=1e-10``).

A backend also owns the *factor storage* its kernels are fastest on
(nested Python lists for :class:`~repro.linalg.backends.list_backend.ListBackend`,
``float64`` ndarrays for
:class:`~repro.linalg.backends.numpy_backend.NumpyBackend`): optimizers
hold opaque stores created by :meth:`KernelBackend.make_store` and go
through the storage helpers for rows, snapshots, and export.  Both
backends' kernels additionally accept plain ndarray factors directly —
the shared-memory runtimes require ndarray storage and call the kernels
on their shared blocks (see :mod:`repro.runtime.multiprocess`).
"""

from __future__ import annotations

import abc
from typing import Any, ClassVar, Sequence

from ..factors import FactorPair
from ..losses import Loss

__all__ = ["KernelBackend"]


class KernelBackend(abc.ABC):
    """Interface of one SGD kernel execution strategy.

    Kernels mutate factors and counters in place and return the number of
    updates applied.  ``w`` / ``h`` arguments are whatever
    :meth:`make_store` produced (or ndarrays — every backend must accept
    ndarray rows so the shared-memory runtimes can reuse it).
    """

    #: Registry key and ``NOMAD_KERNEL_BACKEND`` value selecting this backend.
    name: ClassVar[str] = "?"

    # ------------------------------------------------------------------
    # Factor storage
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def make_store(self, factors: FactorPair) -> tuple[Any, Any]:
        """Copy ``factors`` into this backend's preferred (W, H) storage."""

    @abc.abstractmethod
    def export(self, w: Any, h: Any) -> FactorPair:
        """Materialize an independent :class:`FactorPair` snapshot."""

    @abc.abstractmethod
    def row(self, store: Any, index: int) -> Any:
        """A live, mutable reference to one factor row (token payloads)."""

    @abc.abstractmethod
    def copy_rows(self, store: Any) -> Any:
        """A decoupled copy of a whole store (epoch snapshots, staleness)."""

    @abc.abstractmethod
    def restore_rows(self, store: Any, snapshot: Any) -> None:
        """Value-copy ``snapshot`` back into ``store`` (bold-driver rollback)."""

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def process_column(
        self,
        w: Any,
        h_col: Any,
        user_rows: Sequence[int],
        ratings: Sequence[float],
        counts: Sequence[int],
        alpha: float,
        beta: float,
        lambda_: float,
    ) -> int:
        """Sequential SGD over one item's local ratings (square loss)."""

    @abc.abstractmethod
    def process_column_loss(
        self,
        w: Any,
        h_col: Any,
        user_rows: Sequence[int],
        ratings: Sequence[float],
        counts: Sequence[int],
        alpha: float,
        beta: float,
        lambda_: float,
        loss: Loss,
    ) -> int:
        """Column variant under an arbitrary separable loss (§6)."""

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
        """Fused batch of :meth:`process_column` calls (square loss).

        ``h_cols[c]``, ``col_users[c]``, ``col_ratings[c]`` and
        ``col_counts[c]`` describe one column's token work; columns are
        processed strictly in sequence, so the result is defined to be
        identical to looping :meth:`process_column` — which is exactly
        what this default does, keeping every backend conformant.
        Compiled backends override it to amortize per-call overhead
        across a whole burst of tokens in one native call.
        """
        applied = 0
        for index, h_col in enumerate(h_cols):
            applied += self.process_column(
                w, h_col, col_users[index], col_ratings[index],
                col_counts[index], alpha, beta, lambda_,
            )
        return applied

    def process_items(
        self,
        w: Any,
        h: Any,
        h_rows: Sequence[int],
        items: Sequence[int],
        ptr: Any,
        users: Any,
        ratings: Any,
        counts: Any,
        alpha: float,
        beta: float,
        lambda_: float,
    ) -> int:
        """Shard-indexed burst of :meth:`process_column` calls (square loss).

        Token ``t`` is item ``items[t]``: its factor is row ``h_rows[t]``
        of ``h`` and its local ratings are the CSC range
        ``ptr[j]:ptr[j + 1]`` (``j = items[t]``) of ``users``,
        ``ratings`` and ``counts`` — the arrays of a
        :class:`~repro.datasets.ratings.Shard` plus its aligned counter
        array, which must be an ndarray so the per-column slices are
        mutable views.  Tokens run strictly in sequence (an item may
        repeat), so the result is defined to be identical to looping
        :meth:`process_column` over those slices — which is exactly what
        this default does.  Compiled backends override it with one
        native call per burst and no per-token argument marshalling.
        """
        applied = 0
        for row, item in zip(h_rows, items):
            lo, hi = ptr[item], ptr[item + 1]
            if hi > lo:
                applied += self.process_column(
                    w, h[row], users[lo:hi], ratings[lo:hi], counts[lo:hi],
                    alpha, beta, lambda_,
                )
        return applied

    @abc.abstractmethod
    def process_entries(
        self,
        w: Any,
        h: Any,
        entry_rows: Sequence[int],
        entry_cols: Sequence[int],
        ratings: Sequence[float],
        counts: Sequence[int],
        alpha: float,
        beta: float,
        lambda_: float,
        order: Sequence[int],
    ) -> int:
        """Sequential SGD over entries in ``order`` (scheduled step)."""

    @abc.abstractmethod
    def process_entries_const(
        self,
        w: Any,
        h: Any,
        entry_rows: Sequence[int],
        entry_cols: Sequence[int],
        ratings: Sequence[float],
        step: float,
        lambda_: float,
        order: Sequence[int],
    ) -> int:
        """Sequential SGD over entries with one constant step size."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
