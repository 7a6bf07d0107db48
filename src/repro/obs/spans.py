"""The Table 3 funnel tally, its per-run spans, and the trace ring buffer.

Every pipeline run (one ``advance`` of a monitor) fills one
:class:`FunnelCounters`: a :class:`StageTally` per Figure 6 funnel
stage.  That one type is the funnel everywhere — a run's result, the
service's cumulative funnel, and the windowed ``/status`` view
(:meth:`FunnelCounters.from_runs`).  Frozen, a run's tally becomes a
:class:`RunTrace` holding one :class:`Span` per stage.  A tally carries
what Table 3 needs to stay auditable in production: how many candidates
*entered* the stage, how many *survived*, why the rest were dropped,
and how long the stage spent — so the stage-attrition view the paper
prints once can be reproduced live from the last N runs.

Counts telescope by construction on the short-term path: stage N's
``outputs`` equals stage N+1's ``inputs``.  Planned-change suppression
(not a Table 3 stage) is tallied as a drop inside the
``same_regression`` span, so it does not break the identity.  The
long-term path does: it joins the funnel at the threshold stage (no
went-away/seasonality stages, §5.3), so with ``long_term`` enabled the
spans record the *actual* stage inputs rather than forcing the
identity — honesty over symmetry.

This module imports only the standard library, so the core pipeline can
depend on it without entangling core with the service layer.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "STAGES",
    "Span",
    "StageTally",
    "FunnelCounters",
    "RunTrace",
    "TraceStore",
    "Event",
    "EventLog",
]

#: Canonical Figure 6 funnel stage order, matching Table 3's rows.  It
#: lives here so observability consumers never import detection code
#: just to name stages.
STAGES: Tuple[str, ...] = (
    "change_points",
    "went_away",
    "seasonality",
    "threshold",
    "same_regression",
    "som_dedup",
    "cost_shift",
    "pairwise_dedup",
)


@dataclass
class StageTally:
    """Mutable accumulator for one funnel stage.

    The pipeline calls :meth:`observe` once per candidate entering the
    stage; block-level stages (the dedup passes) call :meth:`bulk`
    once with their collection sizes.  :meth:`merge` folds in another
    tally (or a frozen :class:`Span`) for multi-run totals.
    """

    inputs: int = 0
    outputs: int = 0
    seconds: float = 0.0
    drops: Dict[str, int] = field(default_factory=dict)
    # Wall clock of this run's first candidate (the span's ``started``);
    # run-local, so totals and equality ignore it.
    first_entered: Optional[float] = field(default=None, compare=False)

    def observe(
        self,
        passed: bool,
        reason: Optional[str] = None,
        seconds: float = 0.0,
        wall: Optional[float] = None,
    ) -> None:
        """Record one candidate passing through the stage."""
        if self.first_entered is None:
            self.first_entered = wall if wall is not None else time.time()
        self.inputs += 1
        self.seconds += seconds
        if passed:
            self.outputs += 1
        else:
            key = reason or "dropped"
            self.drops[key] = self.drops.get(key, 0) + 1

    def bulk(
        self,
        inputs: int,
        outputs: int,
        reason: str,
        seconds: float,
        wall: Optional[float] = None,
    ) -> None:
        """Record a whole-collection stage (dedup passes) in one call."""
        if self.first_entered is None:
            self.first_entered = wall if wall is not None else time.time()
        self.inputs += inputs
        self.outputs += outputs
        dropped = inputs - outputs
        if dropped > 0:
            self.drops[reason] = self.drops.get(reason, 0) + dropped
        self.seconds += seconds

    def merge(self, other: StageTally | Span) -> None:
        """Add another run's counts, drops and seconds to this tally."""
        self.inputs += other.inputs
        self.outputs += other.outputs
        self.seconds += other.seconds
        for reason, count in other.drops.items():
            self.drops[reason] = self.drops.get(reason, 0) + count

    def freeze(self, stage: str) -> "Span":
        return Span(
            stage=stage,
            inputs=self.inputs,
            outputs=self.outputs,
            seconds=self.seconds,
            drops=dict(self.drops),
            started=self.first_entered,
        )


@dataclass(frozen=True)
class Span:
    """One funnel stage's footprint in one pipeline run.

    Attributes:
        stage: Stage name (one of :data:`STAGES`).
        inputs: Candidates (or series, for ``change_points``) entering.
        outputs: Candidates surviving the stage.
        seconds: Time spent in the stage across all candidates.
        drops: Drop reason -> count; sums to ``inputs - outputs``.
        started: Wall-clock time the stage first ran this scan (``None``
            when no candidate ever reached the stage).
    """

    stage: str
    inputs: int
    outputs: int
    seconds: float
    drops: Dict[str, int] = field(default_factory=dict)
    started: Optional[float] = None

    @property
    def dropped(self) -> int:
        return self.inputs - self.outputs

    @property
    def ended(self) -> Optional[float]:
        return self.started + self.seconds if self.started is not None else None

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "dropped": self.dropped,
            "seconds": self.seconds,
            "drops": dict(self.drops),
            "started": self.started,
            "ended": self.ended,
        }


@dataclass(frozen=True)
class RunTrace:
    """All spans of one pipeline run (one monitor scan at one time).

    Attributes:
        monitor: The detection config name that ran.
        now: The scan's reference (detection) time.
        wall_started: Wall-clock start of the run.
        seconds: Wall-clock run duration.
        spans: One span per funnel stage, in :data:`STAGES` order.
    """

    monitor: str
    now: float
    wall_started: float
    seconds: float
    spans: Tuple[Span, ...]

    def span(self, stage: str) -> Span:
        """The span for ``stage``.

        Raises:
            KeyError: On an unknown stage name.
        """
        for span in self.spans:
            if span.stage == stage:
                return span
        raise KeyError(f"no span for stage {stage!r}")

    def telescopes(self) -> bool:
        """Whether every stage's inputs equal the previous stage's outputs.

        True for short-term-only configurations; the long-term path
        intentionally breaks the identity (see the module docstring).
        """
        return _telescopes(self.spans)

    def to_dict(self) -> dict:
        return {
            "monitor": self.monitor,
            "now": self.now,
            "wall_started": self.wall_started,
            "seconds": self.seconds,
            "telescopes": self.telescopes(),
            "spans": [span.to_dict() for span in self.spans],
        }


def _telescopes(stages: Sequence[StageTally | Span]) -> bool:
    return all(
        later.inputs == earlier.outputs
        for earlier, later in zip(stages, stages[1:])
    )


@dataclass
class FunnelCounters:
    """The Table 3 funnel: one :class:`StageTally` per stage, over ``runs``.

    ``counts[stage]`` is the number of candidates still alive *after*
    the stage ran (``counts["change_points"]`` is the number detected);
    each tally also keeps the stage's inputs, drop reasons and seconds.
    A pipeline run fills one (``runs == 1``); :meth:`merge` and
    :meth:`from_runs` total several, so the service's cumulative funnel
    and the windowed ``/status`` view are the same type.
    """

    stages: Dict[str, StageTally] = field(
        default_factory=lambda: {stage: StageTally() for stage in STAGES}
    )
    runs: int = 0

    @property
    def counts(self) -> Dict[str, int]:
        """Survivors per stage, in :data:`STAGES` order."""
        return {stage: tally.outputs for stage, tally in self.stages.items()}

    def merge(self, other: "FunnelCounters") -> None:
        self.runs += other.runs
        for stage, tally in other.stages.items():
            self.stages[stage].merge(tally)

    @classmethod
    def from_runs(cls, runs: Iterable["RunTrace"]) -> "FunnelCounters":
        """Totals over frozen run traces (the live, windowed view)."""
        funnel = cls()
        for run in runs:
            funnel.runs += 1
            for span in run.spans:
                funnel.stages[span.stage].merge(span)
        return funnel

    def telescopes(self) -> bool:
        """Whether every stage's inputs equal the previous stage's outputs."""
        return _telescopes([self.stages[stage] for stage in STAGES])

    def reduction(self) -> Dict[str, Optional[float]]:
        """Table 3's "1/N" view: detected over survivors, per stage.

        ``None`` for stages nothing survived.
        """
        detected = self.stages[STAGES[0]].outputs
        return {
            stage: detected / tally.outputs if tally.outputs else None
            for stage, tally in self.stages.items()
        }

    def freeze(
        self, monitor: str, now: float, wall_started: float, seconds: float
    ) -> "RunTrace":
        """This run's tally as an immutable :class:`RunTrace`."""
        return RunTrace(
            monitor=monitor,
            now=now,
            wall_started=wall_started,
            seconds=seconds,
            spans=tuple(self.stages[stage].freeze(stage) for stage in STAGES),
        )

    def to_dict(self) -> dict:
        """JSON shape: ``/status`` rows, also the checkpoint format."""
        reduction = self.reduction()
        rows = []
        for stage in STAGES:
            tally = self.stages[stage]
            rows.append(
                {
                    "stage": stage,
                    "inputs": tally.inputs,
                    "outputs": tally.outputs,
                    "dropped": tally.inputs - tally.outputs,
                    "drops": dict(tally.drops),
                    "seconds": tally.seconds,
                    "reduction": reduction[stage],
                }
            )
        return {"runs": self.runs, "telescopes": self.telescopes(), "stages": rows}

    @classmethod
    def from_dict(cls, payload: dict) -> "FunnelCounters":
        """Inverse of :meth:`to_dict` (checkpoint restore)."""
        funnel = cls(runs=payload["runs"])
        for row in payload["stages"]:
            funnel.stages[row["stage"]] = StageTally(
                inputs=row["inputs"],
                outputs=row["outputs"],
                seconds=row["seconds"],
                drops=dict(row["drops"]),
            )
        return funnel


class _RingBuffer:
    """Thread-safe bounded buffer keeping the newest ``capacity`` items.

    The buffer is process-local: pickling keeps the capacity and the
    all-time :attr:`recorded` count but drops the buffered items.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._recorded = 0
        self._reset()

    def _reset(self) -> None:
        self._items: Deque = deque(maxlen=self.capacity)
        self._lock = threading.Lock()

    def _append(self, items: Iterable) -> None:
        with self._lock:
            for item in items:
                self._items.append(item)
                self._recorded += 1

    def _snapshot(self) -> list:
        with self._lock:
            return list(self._items)

    def clear(self) -> None:
        with self._lock:
            self._items.clear()

    @property
    def recorded(self) -> int:
        """Total items ever recorded (including evicted ones)."""
        return self._recorded

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def __getstate__(self) -> dict:
        return {"capacity": self.capacity, "_recorded": self._recorded}

    def __setstate__(self, state: dict) -> None:
        self.capacity = state["capacity"]
        self._recorded = state["_recorded"]
        self._reset()


class TraceStore(_RingBuffer):
    """Thread-safe ring buffer of the most recent :class:`RunTrace`\\ s.

    This is the object pipelines hold as their ``tracer``: each run
    calls :meth:`record` once.  The buffer is bounded (``capacity``
    runs), so an always-on service pays O(capacity) memory however long
    it lives.  Traces are process-local observability state: pickling a
    store (checkpoint blobs, parallel shard snapshots) keeps the
    capacity but *drops the buffered runs* — worker processes record
    into a fresh store and ship their runs back explicitly, and a
    restored service starts with an empty trace window.
    """

    def record(self, run: RunTrace) -> None:
        """Append one run trace (evicting the oldest when full)."""
        self._append((run,))

    def record_many(self, runs: Iterable[RunTrace]) -> None:
        """Append several run traces (the parallel-merge path)."""
        self._append(runs)

    def runs(self) -> List[RunTrace]:
        """A snapshot of the retained runs, oldest first."""
        return self._snapshot()


@dataclass(frozen=True)
class Event:
    """One operational event (fault injected, shard degraded, recovered).

    Attributes:
        kind: Event type (``fault_injected``, ``degraded``,
            ``recovered``, ``checkpoint_fallback`` ...).
        wall: Wall-clock time the event was recorded.
        fields: Event-specific payload (shard id, reason, fault kind).
    """

    kind: str
    wall: float
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "wall": self.wall, **self.fields}


class EventLog(_RingBuffer):
    """Thread-safe bounded ring buffer of :class:`Event`\\ s.

    The failure-path counterpart of :class:`TraceStore`: where run
    traces answer "what is the funnel doing", the event log answers
    "what broke, and did it recover" — fault injections, per-shard
    degradation transitions, checkpoint-generation fallbacks.  Exposed
    through the service's ``/faults`` endpoint.  Like the trace store,
    the buffer is process-local: pickling keeps the capacity but drops
    the buffered events.
    """

    def record(self, kind: str, wall: Optional[float] = None, **fields: object) -> Event:
        """Append one event (evicting the oldest when full)."""
        event = Event(
            kind=kind, wall=wall if wall is not None else time.time(), fields=fields
        )
        self._append((event,))
        return event

    def events(self, kind: Optional[str] = None) -> List[Event]:
        """Retained events oldest-first, optionally filtered by kind."""
        retained = self._snapshot()
        if kind is None:
            return retained
        return [event for event in retained if event.kind == kind]
