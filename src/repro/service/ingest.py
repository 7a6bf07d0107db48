"""Per-shard ingest: bounded queues, batch flushing, backpressure.

Each shard owns one :class:`ShardIngestWorker`.  Producers ``offer()``
samples; the worker buffers them in a bounded queue and batch-flushes
into the shard's TSDB through
:meth:`~repro.tsdb.database.TimeSeriesDatabase.write_batch`.  When the
queue is full, the configured :class:`BackpressurePolicy` decides what
gives:

- ``BLOCK`` — the *producer* pays: the worker synchronously flushes one
  batch to make room (caller-runs backpressure — nothing is ever lost,
  ingestion slows to the flush rate).
- ``DROP_OLDEST`` — the oldest buffered sample is evicted (bounded
  staleness; freshest data wins).
- ``REJECT`` — the offer fails and the producer is told so (load
  shedding at the edge).

Every policy outcome has a counter, both on the worker (plain ints that
ride along in checkpoints) and in the optional shared
:class:`~repro.service.metrics.MetricsRegistry`.

When an :class:`~repro.quality.admission.AdmissionController` is
attached, every offer passes through it first (under the same queue
lock): quarantined points are dropped before they can reach the TSDB,
repaired points are enqueued in their repaired form, and out-of-order
points are held in the controller's reordering buffer — released back
into the *front* of the queue (they predate everything buffered) when
the buffer overflows or at a flush/advance boundary, so backfill lands
as one batched merge.  The controller pickles with the worker, so
quarantine state and reorder buffers ride checkpoints and parallel
shard advances like every other counter.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, Iterator, List, Mapping, Optional

from repro.quality.admission import ADMIT, DROP
from repro.tsdb.database import TimeSeriesDatabase

__all__ = ["Sample", "BackpressurePolicy", "ShardIngestWorker"]


@dataclass(frozen=True)
class Sample:
    """One streamed metric point.

    Attributes:
        name: Series name (also the default routing key).
        timestamp: Sample time (seconds).
        value: Metric value.
        tags: Series tags, applied on series auto-creation.
    """

    name: str
    timestamp: float
    value: float
    tags: Mapping[str, str] = field(default_factory=dict)


class BackpressurePolicy(str, enum.Enum):
    """What happens when a shard's ingest queue is full."""

    BLOCK = "block"
    DROP_OLDEST = "drop_oldest"
    REJECT = "reject"


class ShardIngestWorker:
    """Bounded ingest queue + batch flusher for one shard.

    Args:
        shard_id: Owning shard (labels counters and checkpoints).
        database: The shard's TSDB.
        capacity: Queue bound; offers beyond it trigger the policy.
        policy: Backpressure policy (see module docstring).
        batch_size: Samples per TSDB write batch.
        metrics: Optional shared metrics registry.
        admission: Optional
            :class:`~repro.quality.admission.AdmissionController` run on
            every offer (``None`` disables data-quality admission).

    Thread-safe: producers may ``offer()`` concurrently with ``flush()``.
    """

    def __init__(
        self,
        shard_id: object,
        database: TimeSeriesDatabase,
        capacity: int = 1024,
        policy: BackpressurePolicy = BackpressurePolicy.DROP_OLDEST,
        batch_size: int = 256,
        metrics: Optional[Any] = None,
        admission: Optional[Any] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.shard_id = shard_id
        self.database = database
        self.capacity = capacity
        self.policy = BackpressurePolicy(policy)
        self.batch_size = batch_size
        self.metrics = metrics
        self.admission = admission
        self._queue: Deque[Sample] = deque()
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        # While an advance is in flight the queue's contents belong to a
        # worker-process blob and the live database is about to be
        # replaced: flushing would write into state that gets discarded.
        self._advancing = False
        # Plain-int counters: picklable, cheap, checkpointed with the shard.
        self.offered = 0
        self.accepted = 0
        self.flushed = 0
        self.dropped_oldest = 0
        self.rejected = 0
        self.blocking_flushes = 0
        self.flushes = 0
        self.flush_failures = 0

    # -- producer side --------------------------------------------------

    def offer(self, sample: Sample) -> bool:
        """Enqueue one sample, applying backpressure when full.

        With an admission controller attached the sample is validated
        first: quarantined points return ``False`` without touching the
        queue, out-of-order points are held for reordering (``True`` —
        they are accepted, just not enqueued yet), and repaired points
        continue in their repaired form.

        Returns:
            ``True`` when the sample was buffered (or held for
            reordering); ``False`` when it was quarantined, or under
            the ``REJECT`` policy with a full queue.
        """
        with self._lock:
            self.offered += 1
            # Backpressure resolves *before* admission: a sample refused
            # (or evicted for) by a full queue never touches validator
            # state, so a later retry of the same point is not
            # misclassified as a duplicate — and refused samples skip
            # the admission work entirely.
            if len(self._queue) >= self.capacity:
                if self.policy is BackpressurePolicy.REJECT:
                    self.rejected += 1
                    self._inc("ingest.rejected")
                    return False
                if self.policy is BackpressurePolicy.DROP_OLDEST:
                    self._queue.popleft()
                    self.dropped_oldest += 1
                    self._inc("ingest.dropped_oldest")
                else:  # BLOCK: caller-runs — flush a batch to make room.
                    self.blocking_flushes += 1
                    self._inc("ingest.blocking_flushes")
                    # During an advance the database is stale: wait for
                    # the swap (or for the drain that accompanies it) to
                    # make room instead of flushing into discarded state.
                    while self._advancing and len(self._queue) >= self.capacity:
                        self._cond.wait()
                    if len(self._queue) >= self.capacity:
                        self._flush_batch()
            if self.admission is not None:
                verdict, admitted = self.admission.admit(sample)
                if verdict != ADMIT:
                    if verdict == DROP:
                        return False
                    # HELD: buffered in the controller; if holding this
                    # point overflowed a reorder buffer, the released
                    # batch backfills at the queue front now.
                    if self.admission.ready:
                        self._release_stragglers(self.admission.take_ready())
                    return True
                sample = admitted
            self._queue.append(sample)
            self.accepted += 1
            self._inc("ingest.accepted")
            return True

    def offer_many(self, samples: Iterable[Sample]) -> int:
        """Offer each sample; returns how many were accepted."""
        return sum(1 for sample in samples if self.offer(sample))

    def _release_stragglers(self, samples: List[Sample]) -> None:
        """Move reordered samples into the queue front (lock held).

        Released stragglers predate everything buffered, so they go to
        the *front* — a later flush writes them in timestamp order and
        the TSDB merges them in one backfill pass.  They were already
        admitted, so they bypass the capacity policy (the transient
        overshoot is bounded by the admission reorder window); they
        count as accepted here, on actual enqueue.
        """
        if not samples:
            return
        self._queue.extendleft(reversed(samples))
        self.accepted += len(samples)
        if self.metrics is not None:
            self.metrics.inc("ingest.accepted", len(samples))

    @property
    def pending(self) -> int:
        """Samples buffered but not yet flushed."""
        return len(self._queue)

    # -- flush side ------------------------------------------------------

    def flush(self, release_stragglers: bool = True) -> int:
        """Drain the whole queue into the TSDB in ``batch_size`` batches.

        Args:
            release_stragglers: Also release every sample held in the
                admission reordering buffer first, so detection sees a
                fully backfilled TSDB.  Background flushers pass
                ``False`` — they only bound queue depth, and holding
                stragglers longer lets the buffer absorb more
                out-of-order arrivals per backfill merge.

        Returns:
            Number of samples written.
        """
        written = 0
        with self._lock:
            if self._advancing:
                # The queue's contents (and the database) are owned by an
                # in-flight advance; anything buffered here is carried
                # over when the advanced state is installed.
                return 0
            if release_stragglers and self.admission is not None:
                self._release_stragglers(self.admission.drain_pending())
            while self._queue:
                written += self._flush_batch()
        return written

    def _flush_batch(self) -> int:
        """Write up to one batch (caller holds the lock).

        A failed write must not lose the batch: the popped samples are
        put back at the *front* of the queue (they predate everything
        still buffered) before the error propagates, so a retried flush
        writes the same samples in the same order.
        """
        if not self._queue:
            return 0
        batch = [
            self._queue.popleft()
            for _ in range(min(self.batch_size, len(self._queue)))
        ]
        started = time.perf_counter()
        try:
            written = self.database.write_batch(
                (s.name, s.timestamp, s.value, s.tags) for s in batch
            )
        except Exception:
            self._queue.extendleft(reversed(batch))
            self.flush_failures += 1
            self._inc("ingest.flush_failures")
            raise
        self.flushed += written
        self.flushes += 1
        if self.metrics is not None:
            self.metrics.inc("ingest.flushed", written)
            self.metrics.observe("ingest.flush_seconds", time.perf_counter() - started)
        return written

    # -- state-swap support (parallel executor) --------------------------
    #
    # The parallel path never replaces this object: producers and
    # background flushers hold references to it, and swapping it out
    # would leave a window where offers land in an abandoned queue.
    # Instead the service brackets each advance with begin_advance() /
    # complete_advance() (or abort_advance() on failure), and the
    # advanced database plus flush-side counter deltas are transplanted
    # into this live worker under its own lock.

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Hold the queue lock for the duration of the block.

        The parallel executor serializes shard state from the service
        thread while producers may still be offering; pausing makes the
        pickled snapshot internally consistent (offers block briefly,
        then land in the live queue and are carried over when the
        advanced state is installed).
        """
        with self._lock:
            yield

    def begin_advance(self) -> Dict[str, int]:
        """Enter advancing mode: suspend flushes until the swap resolves.

        While advancing, :meth:`flush` is a no-op and BLOCK-policy
        offers wait instead of flushing — both would otherwise write
        into a database that is discarded when the advanced state lands.
        Offer-side counters keep running on this object (it stays
        authoritative for them throughout).

        Returns:
            The flush-side counter baseline, to be passed back to
            :meth:`complete_advance` so the deltas the worker process
            accrues (it flushes the snapshot's queue) can be merged.
        """
        with self._lock:
            # Held stragglers belong with the queue they are destined
            # for: release them now so the snapshot blob carries them
            # (the worker-process copy then does no admission work and
            # all admission counters stay parent-side).
            if self.admission is not None:
                self._release_stragglers(self.admission.drain_pending())
            self._advancing = True
            return {
                "flushed": self.flushed,
                "flushes": self.flushes,
                "blocking_flushes": self.blocking_flushes,
            }

    def complete_advance(
        self,
        advanced: "ShardIngestWorker",
        database: TimeSeriesDatabase,
        baseline: Dict[str, int],
    ) -> None:
        """Adopt an advanced worker's database and flush-counter deltas.

        Args:
            advanced: The worker copy that ran in the worker process.
            database: The advanced database this worker flushes into
                from now on.
            baseline: Flush counters captured by :meth:`begin_advance`;
                ``advanced``'s counters minus the baseline are the
                flushes the worker process performed on our behalf.
        """
        with self._lock:
            self.database = database
            self.flushed += advanced.flushed - baseline["flushed"]
            self.flushes += advanced.flushes - baseline["flushes"]
            self.blocking_flushes += (
                advanced.blocking_flushes - baseline["blocking_flushes"]
            )
            if advanced._queue:  # pragma: no cover - workers flush fully
                self._queue.extendleft(reversed(advanced._queue))
            self._advancing = False
            self._cond.notify_all()

    def abort_advance(self, restore: Iterable[Sample] = ()) -> None:
        """Leave advancing mode without installing new state.

        Args:
            restore: Samples that were drained into the (now failed)
                snapshot blob; they are put back at the *front* of the
                queue — they predate anything offered since.
        """
        with self._lock:
            restored = list(restore)
            if restored:
                self._queue.extendleft(reversed(restored))
            self._advancing = False
            self._cond.notify_all()

    def drain_pending(self) -> List[Sample]:
        """Remove and return everything buffered, without flushing it.

        Used when snapshotting for a worker process: ownership of the
        buffered samples transfers to the pickled blob (whose copy the
        worker flushes), so they must leave the live queue to avoid
        double ingestion.  Waiting BLOCK-policy producers are notified —
        the queue just gained room.
        """
        with self._lock:
            pending = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
            return pending

    # -- introspection / pickling ----------------------------------------

    def counters(self) -> Dict[str, int]:
        """Backpressure, flush, and admission counters as a plain dict."""
        counters = {
            "offered": self.offered,
            "accepted": self.accepted,
            "flushed": self.flushed,
            "pending": self.pending,
            "dropped_oldest": self.dropped_oldest,
            "rejected": self.rejected,
            "blocking_flushes": self.blocking_flushes,
            "flushes": self.flushes,
            "flush_failures": self.flush_failures,
        }
        if self.admission is not None:
            for key, value in self.admission.counters().items():
                counters[f"quality_{key}"] = value
        return counters

    def _inc(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(name)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_lock", None)
        state.pop("_cond", None)
        # The advancing flag describes the *live* object: the pickled
        # copy is exactly what the worker process must flush.
        state["_advancing"] = False
        # The shared registry is restored by the service, not the pickle.
        state["metrics"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._advancing = False
