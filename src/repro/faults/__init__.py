"""Deterministic fault injection for the streaming service.

FBDetect's value is *continuous* in-production monitoring: the paper's
deployment keeps detecting through host failures, rolling updates, and
canary churn (§7).  A reproduction that only exercises the happy path
cannot claim that property, so this package makes the failure paths
first-class: a seedable :class:`FaultPlan` describes *which* faults fire
*when* (worker-process crashes, shard-advance hangs, checkpoint blob
corruption, flush-thread death, clock skew), and a :class:`FaultInjector`
is threaded through the service's hook points
(:class:`~repro.service.parallel.ParallelShardExecutor`,
:class:`~repro.service.checkpoint.CheckpointManager`, the background
flushers, and the service's wall clock) to execute it.

These are the places a fault cannot be applied from outside the
service.  Data damage — NaN bursts, gaps, delivery reordering, counter
rollover — can: :mod:`repro.fleet.dirty` damages the stream before it
is ingested, so the ingest path carries no fault hook at all.

Determinism is the design constraint: every injection decision is drawn
from a per-(spec) seeded RNG stream, so the same plan against the same
stream injects the same faults — which is what lets ``tests/chaos``
assert that a fault-ridden run produces *byte-identical* incident
reports to a fault-free one.

The injector never hides what it did: every fired fault increments the
``faults.injected`` counters on the wired metrics registry and appends
an event to the wired :class:`~repro.obs.spans.EventLog`, both of which
surface on the service's ``/faults`` endpoint.
"""

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.faults.injector import FaultInjector, InjectedFault

__all__ = [
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
]
