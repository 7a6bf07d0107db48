"""Drives one workload through the streaming service and measures it.

The load is a closed loop: one producer replays the pre-built chunks,
calling ``ingest_many`` (after ``parse_remote_write`` for remote-write
payloads) and then ``advance_to(chunk end)`` once per monitor rerun
interval.  The service runs in this process with one worker, no
background flushers and no HTTP server.
"""

from __future__ import annotations

import gc
import os
import shutil
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.connectors import SeriesMapper
from repro.connectors.remote_write import parse_remote_write
from repro.core.change_point import ChangePointDetector
from repro.core.cost_shift import CostShiftDetector
from repro.core.dedup_pairwise import PairwiseDedup
from repro.core.dedup_som import SOMDedup
from repro.core.incremental import IncrementalScanCache
from repro.core.pipeline import DetectionPipeline
from repro.core.root_cause import RootCauseAnalyzer
from repro.core.same_regression import SameRegressionMerger
from repro.core.seasonality import SeasonalityDetector
from repro.core.went_away import WentAwayDetector
from repro.quality.admission import ADMIT, AdmissionController
from repro.quality.gaps import QualityGate
from repro.runtime.scheduler import DetectionScheduler
from repro.runtime.sinks import CollectingSink
from repro.service import BackpressurePolicy, StreamingDetectionService
from repro.service.checkpoint import CheckpointManager
from repro.service.ingest import ShardIngestWorker
from repro.service.router import ConsistentHashRouter
from repro.tsdb.database import TimeSeriesDatabase

import checks
import workloads
from spans import SpanRecorder

N_SHARDS = 4
STATS_KEYS = ("clock", "offered", "accepted", "flushed", "dropped", "rejected",
              "scans", "reported", "suppressed_realerts")


@dataclass
class Prepared:
    """A built workload: inputs, a service with history loaded, its sink."""

    inputs: workloads.Inputs
    service: StreamingDetectionService
    sink: CollectingSink
    setup_seconds: float


@dataclass
class Replay:
    """What one timed replay did and how long it took, chunk by chunk."""

    chunks: int = 0
    wall: float = 0.0
    ingest_seconds: List[float] = field(default_factory=list)
    chunk_offered: List[int] = field(default_factory=list)
    advance_seconds: List[float] = field(default_factory=list)
    advance_screened: List[int] = field(default_factory=list)


def build_service(shape: workloads.Shape, sink: CollectingSink) -> StreamingDetectionService:
    service = StreamingDetectionService(
        n_shards=N_SHARDS,
        sinks=[sink],
        workers=1,
        backpressure=BackpressurePolicy.BLOCK,
    )
    service.register_monitor("gcpu", shape.config(), series_filter={"metric": "gcpu"})
    return service


def prepare(shape: workloads.Shape, seed: int) -> Prepared:
    """Generate inputs, build the service, preload history, anchor."""
    started = time.perf_counter()
    inputs = workloads.build(shape, seed)
    sink = CollectingSink()
    service = build_service(shape, sink)
    service.ingest_many(inputs.history)
    service.advance_to(inputs.history_end)
    elapsed = time.perf_counter() - started
    # The pre-built inputs are the benchmark's, not the program's: keep
    # the cyclic collector from traversing them on every full collection.
    gc.freeze()
    return Prepared(inputs, service, sink, elapsed)


def release(prepared: Prepared) -> None:
    """Close a prepared service and let its inputs be collected."""
    prepared.service.close()
    gc.unfreeze()
    gc.collect()


def _screened(service: StreamingDetectionService) -> int:
    """Series the monitor has screened so far (cache hits + misses)."""
    return (service.metrics.counter("pipeline.incremental.hits").value
            + service.metrics.counter("pipeline.incremental.misses").value)


def feed(service: StreamingDetectionService, chunk: workloads.Chunk,
         remote_write: bool, mapper: SeriesMapper) -> None:
    """Hand one chunk's inputs to the service."""
    if remote_write:
        for payload in chunk.inputs:
            service.ingest_many(list(parse_remote_write(payload, mapper)))
    else:
        service.ingest_many(chunk.inputs)


def replay(prepared: Prepared, chunks: Optional[int] = None) -> Replay:
    """Replay the first ``chunks`` chunks, by default every built chunk
    but the last: the checkpoint round trip feeds that one to the
    restored service.
    """
    inputs, service = prepared.inputs, prepared.service
    shape = inputs.shape
    if chunks is None:
        chunks = len(inputs.chunks) - 1
    if chunks < shape.min_chunks:
        raise RuntimeError(f"{chunks} chunks are too few; {shape.min_chunks} are needed")
    mapper = SeriesMapper(source="remote_write")
    result = Replay()
    clock = time.perf_counter
    started = clock()
    for chunk in inputs.chunks[:chunks]:
        chunk_started = clock()
        feed(service, chunk, shape.remote_write, mapper)
        advance_started = clock()
        screened = _screened(service)
        service.advance_to(chunk.end)
        ended = clock()
        result.ingest_seconds.append(advance_started - chunk_started)
        result.advance_seconds.append(ended - advance_started)
        result.advance_screened.append(_screened(service) - screened)
        result.chunk_offered.append(chunk.offered)
        result.chunks += 1
    result.wall = clock() - started
    return result


def _stats_view(service: StreamingDetectionService) -> dict:
    stats = service.stats()
    view = {key: getattr(stats, key) for key in STATS_KEYS}
    view["shards"] = [asdict(shard) for shard in stats.shards]
    return view


def _dir_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name)) for name in os.listdir(directory)
    )


@dataclass
class RoundTrip:
    seconds: float
    bytes: int
    problems: List[str]


def checkpoint_round_trip(prepared: Prepared, done: Replay, workdir: str,
                          repeats: int) -> RoundTrip:
    """Checkpoint the end state and restore it, ``repeats`` times.

    Reports the fastest time of one checkpoint plus one restore.  The
    last restored service must match the original's stats, and after it
    ingests the next chunk its follow-up advance must deliver nothing:
    every plant was already reported before the checkpoint.
    """
    service = prepared.service
    original = _stats_view(service)
    times = []
    size = 0
    restored = None
    for attempt in range(repeats):
        directory = os.path.join(workdir, f"checkpoint-{attempt}")
        shutil.rmtree(directory, ignore_errors=True)
        if restored is not None:
            restored.close()
        started = time.perf_counter()
        service.checkpoint(directory)
        restored = StreamingDetectionService.restore(directory, sinks=[CollectingSink()])
        times.append(time.perf_counter() - started)
        size = _dir_bytes(directory)
        shutil.rmtree(directory)
    after = _stats_view(restored)
    shape = prepared.inputs.shape
    follow = prepared.inputs.chunks[done.chunks]
    feed(restored, follow, shape.remote_write, SeriesMapper(source="remote_write"))
    follow_up = restored.advance_to(follow.end)
    problems = checks.check_restore(original, after, len(follow_up))
    restored.close()
    return RoundTrip(min(times), size, problems)


def _ingest_counters(service: StreamingDetectionService) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for shard in service.stats().shards:
        for key, value in shard.counters.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def verify(prepared: Prepared, done: Replay) -> List[str]:
    """Reports and sample conservation against the ground truth."""
    inputs, service = prepared.inputs, prepared.service
    service.flush()
    processed = inputs.chunks[: done.chunks]
    stored = sum(
        len(series)
        for shard in range(service.n_shards)
        for series in service.shard_database(shard)
    )
    problems = checks.check_reports(
        ((report.metric_id, report.change_time) for report in prepared.sink.reports),
        inputs.plants,
    )
    problems += checks.check_samples(
        _ingest_counters(service),
        stored,
        expected=len(inputs.history) + sum(c.offered for c in processed),
    )
    return problems


def failures(prepared: Prepared) -> Dict[str, int]:
    """Attempts and failures: samples, scans and deliveries."""
    service = prepared.service
    counters = _ingest_counters(service)
    metrics = service.metrics.snapshot()["counters"]
    lost = counters["offered"] - counters["flushed"] - counters.get("quality_quarantined", 0)
    scans = metrics.get("scheduler.scans", 0)
    scan_failures = metrics.get("scheduler.scan_failures", 0)
    deliveries = metrics.get("service.sinks.delivered", 0)
    sink_errors = metrics.get("service.sinks.errors", 0)
    return {
        "attempted": counters["offered"] + scans + scan_failures + deliveries + sink_errors,
        "failed": lost + scan_failures + sink_errors,
    }


# -- layers of the traced run ------------------------------------------------

def _count_admission(counts, result, args):
    verdict, admitted = result
    sample = args[1]
    if verdict != ADMIT or admitted is not sample or sample.tags.get("type") == "counter":
        counts["admission.slow"] += 1


def _count_points(counts, result, args):
    counts["tsdb.points"] += result


def _count_scans(counts, result, args):
    counts["scheduler.scans"] += len(result)


def _count_screen(counts, result, args):
    counts["screen.series"] += len(result)
    counts["screen.hits"] += sum(1 for must_scan in result.values() if not must_scan)


def _count_candidates(counts, result, args):
    counts["change_point.candidates"] += result is not None


def _count_pass(key):
    def observe(counts, result, args):
        counts[key] += bool(result.passed)
    return observe


def install_layers(recorder: SpanRecorder) -> None:
    """Wrap every layer's public calls (the layers of metrics.LAYERS)."""
    patch = recorder.patch
    # Bound here by ``from ... import``, so the call site is this module.
    # The replay loop materializes the generator into a list anyway.
    patch(sys.modules[__name__], "parse_remote_write", "connectors.parse", consume=True)
    patch(SeriesMapper, "map", "connectors.parse")
    for name in ("ingest_many", "advance_to", "checkpoint", "restore"):
        patch(StreamingDetectionService, name, "service")
    patch(ConsistentHashRouter, "shard_for", "service.router")
    patch(ShardIngestWorker, "offer", "service.ingest.offer")
    patch(ShardIngestWorker, "offer_many", "service.ingest.offer")
    patch(AdmissionController, "admit", "quality.admission", _count_admission)
    patch(ShardIngestWorker, "flush", "service.ingest.flush")
    patch(TimeSeriesDatabase, "write_batch", "tsdb.write", _count_points)
    patch(DetectionScheduler, "advance_to", "runtime.scheduler", _count_scans)
    patch(DetectionPipeline, "run", "core.pipeline")
    patch(IncrementalScanCache, "screen_batch", "core.incremental.screen", _count_screen)
    patch(QualityGate, "window_ok", "quality.gaps")
    patch(ChangePointDetector, "detect_increase", "core.change_point", _count_candidates)
    patch(WentAwayDetector, "check", "core.went_away", _count_pass("went_away.passed"))
    patch(SeasonalityDetector, "check", "core.seasonality", _count_pass("seasonality.passed"))
    patch(SameRegressionMerger, "check", "core.same_regression",
          _count_pass("same_regression.passed"))
    patch(SOMDedup, "deduplicate", "core.dedup_som")
    patch(CostShiftDetector, "check", "core.cost_shift")
    patch(PairwiseDedup, "process", "core.dedup_pairwise")
    patch(RootCauseAnalyzer, "analyze", "core.root_cause")
    patch(CollectingSink, "deliver", "runtime.sinks")
    patch(CheckpointManager, "save", "service.checkpoint")
    patch(CheckpointManager, "load", "service.checkpoint")
