"""Snapshot rotation and the prequential RMSE trace of a stream.

Serving and training decouple through immutable snapshots: the trainer
keeps mutating its live factors while the serving layer answers from the
newest :class:`ModelSnapshot` — a frozen, read-only copy rotated in on a
cadence by :class:`SnapshotStore`.  Rotation is a factor copy (O((m+n)k)),
which is what makes freshness cheap compared to retraining from scratch;
``benchmarks/test_stream_engine.py`` records the measured gap.

Stream accuracy is tracked *prequentially* (test-then-train): every
arrival is first scored against the current snapshot, then handed to the
trainer.  The resulting :class:`PrequentialTrace` is an honest online
error estimate — each rating is predicted strictly before any model has
trained on it.  Arrivals whose user or item the serving snapshot has
never seen cannot be scored and are tallied separately as *cold*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DataError
from ..linalg.factors import FactorPair
from ..model import CompletionModel

__all__ = [
    "ModelSnapshot",
    "PrequentialRecord",
    "PrequentialTrace",
    "SnapshotStore",
]


@dataclass(frozen=True)
class ModelSnapshot:
    """One immutable serving model.

    Attributes
    ----------
    seq:
        Rotation sequence number, 0 for the warm-start snapshot; serving
        caches key their validity on it.
    stream_time:
        Stream timestamp (seconds) at which the snapshot was rotated in.
    arrivals_seen:
        Arrivals the trainer had ingested when the snapshot was taken.
    updates_seen:
        Cumulative SGD updates behind the snapshot.
    model:
        The frozen :class:`~repro.model.CompletionModel`; its factor
        arrays are read-only copies, decoupled from the live trainer.
    """

    seq: int
    stream_time: float
    arrivals_seen: int
    updates_seen: int
    model: CompletionModel


@dataclass(frozen=True)
class PrequentialRecord:
    """One scored arrival: predicted before trained on."""

    time: float
    arrival: int
    predicted: float
    actual: float

    @property
    def error(self) -> float:
        """Signed prediction error ``predicted - actual``."""
        return self.predicted - self.actual


@dataclass
class PrequentialTrace:
    """Test-then-train error series over one stream.

    Attributes
    ----------
    records:
        Scored arrivals in stream order.
    cold:
        Arrivals that could not be scored because the serving snapshot
        had never seen their user or item (they still train the model).
    """

    records: list[PrequentialRecord] = field(default_factory=list)
    cold: int = 0

    def score(self, time: float, arrival: int, predicted: float, actual: float) -> None:
        """Append one scored arrival."""
        self.records.append(
            PrequentialRecord(time, int(arrival), float(predicted), float(actual))
        )

    def mark_cold(self) -> None:
        """Count one unscorable (new-user/new-item) arrival."""
        self.cold += 1

    @property
    def scored(self) -> int:
        """Number of scored arrivals."""
        return len(self.records)

    def rmse(self) -> float:
        """RMSE over every scored arrival."""
        if not self.records:
            raise DataError("prequential trace has no scored arrivals")
        errors = np.array([r.error for r in self.records])
        return float(np.sqrt(np.mean(errors * errors)))

    def windowed_rmse(self, window: int) -> float:
        """RMSE over the last ``window`` scored arrivals (recency view)."""
        if window < 1:
            raise ConfigError(f"window must be >= 1, got {window}")
        if not self.records:
            raise DataError("prequential trace has no scored arrivals")
        errors = np.array([r.error for r in self.records[-window:]])
        return float(np.sqrt(np.mean(errors * errors)))

    def series(self) -> tuple[list[float], list[float]]:
        """(times, absolute errors) for plotting RMSE over the stream."""
        return (
            [r.time for r in self.records],
            [abs(r.error) for r in self.records],
        )

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        if not self.records:
            return f"PrequentialTrace(empty, cold={self.cold})"
        return (
            f"PrequentialTrace(scored={self.scored}, cold={self.cold}, "
            f"rmse={self.rmse():.4f})"
        )


class SnapshotStore:
    """Rotates immutable model snapshots on a cadence.

    Parameters
    ----------
    max_keep:
        How many of the newest snapshots stay resident (older ones are
        dropped; the newest is never dropped).  Serving reads only the
        newest, but keeping a short history enables A/B comparisons and
        rollback.

    Notes
    -----
    :meth:`rotate` deep-copies the factors and marks the copies
    read-only, so a snapshot can never observe later training updates —
    the immutability the serving layer's caches rely on.
    """

    def __init__(self, max_keep: int = 8):
        if max_keep < 1:
            raise ConfigError(f"max_keep must be >= 1, got {max_keep}")
        self.max_keep = int(max_keep)
        self._snapshots: list[ModelSnapshot] = []
        self._next_seq = 0
        self.rotation_seconds: list[float] = []

    def rotate(
        self,
        factors: FactorPair,
        stream_time: float,
        arrivals_seen: int,
        updates_seen: int,
    ) -> ModelSnapshot:
        """Freeze the given factors as the new serving snapshot.

        Raises :class:`~repro.errors.DataError` — rotating nothing, so
        serving keeps the last good snapshot — when any factor entry is
        not finite: a diverged trainer must fail loudly rather than have
        every prediction answered with ``NaN``.
        """
        w = np.ascontiguousarray(factors.w, dtype=np.float64).copy()
        h = np.ascontiguousarray(factors.h, dtype=np.float64).copy()
        for name, block in (("W", w), ("H", h)):
            if not np.isfinite(block).all():
                bad = np.argwhere(~np.isfinite(block))[0].tolist()
                raise DataError(
                    f"refusing to rotate snapshot seq {self._next_seq}: "
                    f"factor {name}{bad} is {block[tuple(bad)]} (the "
                    "trainer diverged; lower the step size alpha)"
                )
        w.setflags(write=False)
        h.setflags(write=False)
        snapshot = ModelSnapshot(
            seq=self._next_seq,
            stream_time=float(stream_time),
            arrivals_seen=int(arrivals_seen),
            updates_seen=int(updates_seen),
            model=CompletionModel(FactorPair(w, h)),
        )
        self._snapshots.append(snapshot)
        self._next_seq += 1
        if len(self._snapshots) > self.max_keep:
            del self._snapshots[: len(self._snapshots) - self.max_keep]
        return snapshot

    def adopt(self, snapshot: ModelSnapshot) -> ModelSnapshot:
        """Install an externally-built snapshot (e.g. one reloaded from
        disk by :class:`repro.serve.persistence.DurableSnapshotStore`)
        and resume the rotation sequence *after* it.

        The snapshot must be newer than anything already resident — the
        sequence number is the serving caches' validity key, so it can
        never move backwards.
        """
        if snapshot.seq < self._next_seq:
            raise ConfigError(
                f"cannot adopt snapshot seq {snapshot.seq}; store has "
                f"already rotated past it (next seq {self._next_seq})"
            )
        self._snapshots.append(snapshot)
        self._next_seq = snapshot.seq + 1
        if len(self._snapshots) > self.max_keep:
            del self._snapshots[: len(self._snapshots) - self.max_keep]
        return snapshot

    @property
    def latest(self) -> ModelSnapshot:
        """The newest snapshot (serving reads this)."""
        if not self._snapshots:
            raise DataError("snapshot store is empty; rotate one first")
        return self._snapshots[-1]

    @property
    def rotations(self) -> int:
        """Total snapshots ever rotated in (not just resident ones)."""
        return self._next_seq

    @property
    def snapshots(self) -> list[ModelSnapshot]:
        """The resident snapshots, oldest first."""
        return list(self._snapshots)

    def __len__(self) -> int:
        return len(self._snapshots)

    def __repr__(self) -> str:
        if not self._snapshots:
            return "SnapshotStore(empty)"
        newest = self._snapshots[-1]
        return (
            f"SnapshotStore(resident={len(self._snapshots)}, "
            f"rotations={self._next_seq}, newest_seq={newest.seq})"
        )
