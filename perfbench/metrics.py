"""Every metric the benchmark reports: name, unit, better direction, bound.

This table is the source of truth; ``BENCHMARK.json`` lists the same
metrics (the self-tests compare the two), and ``run.py --list-metrics``
prints them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS: Dict[str, str] = {
    "remote_write_fanout": (
        "ingest-heavy: 600 stored series as prompb-shaped payloads, 1 in 10 "
        "monitored; connectors, router, admission fast path and TSDB writes dominate"
    ),
    "rescan_steady": (
        "scan-heavy: 200 monitored series with plants, transients and seasonal "
        "series; screen, EM change point, went-away and STL dominate"
    ),
}

# name, unit, better, bound (share of the parent's median)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("samples_per_s", "1/s", "higher", 0.25),
    ("series_scans_per_s", "1/s", "higher", 0.25),
    ("advance_p50_s", "s", "lower", 0.25),
    ("advance_tail_s", "s", "lower", 0.25),
    ("checkpoint_s", "s", "lower", 0.25),
    ("rss_peak_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# layer -> (the public calls wrapped, extras as (suffix, unit, better))
LAYERS: Dict[str, Tuple[str, List[Tuple[str, str, str]]]] = {
    "connectors.parse": ("parse_remote_write, SeriesMapper.map", []),
    "service": ("StreamingDetectionService.ingest_many/advance_to/checkpoint/restore", []),
    "service.router": ("ConsistentHashRouter.shard_for", []),
    "service.ingest.offer": ("ShardIngestWorker.offer/offer_many",
                             [("blocking_flushes", "count", "lower")]),
    "quality.admission": ("AdmissionController.admit", [("slow_ratio", "ratio", "lower")]),
    "service.ingest.flush": ("ShardIngestWorker.flush", []),
    "tsdb.write": ("TimeSeriesDatabase.write_batch", [("points", "count", "higher")]),
    "runtime.scheduler": ("DetectionScheduler.advance_to", [("scans", "count", "higher")]),
    "core.pipeline": ("DetectionPipeline.run", []),
    "core.incremental.screen": ("IncrementalScanCache.screen_batch",
                                [("hit_ratio", "ratio", "higher")]),
    "quality.gaps": ("QualityGate.window_ok", []),
    "core.change_point": ("ChangePointDetector.detect_increase",
                          [("candidate_ratio", "ratio", "lower")]),
    "core.went_away": ("WentAwayDetector.check", [("pass_ratio", "ratio", "lower")]),
    "core.seasonality": ("SeasonalityDetector.check", [("pass_ratio", "ratio", "lower")]),
    "core.same_regression": ("SameRegressionMerger.check", [("pass_ratio", "ratio", "lower")]),
    "core.dedup_som": ("SOMDedup.deduplicate", []),
    "core.cost_shift": ("CostShiftDetector.check", []),
    "core.dedup_pairwise": ("PairwiseDedup.process", []),
    "core.root_cause": ("RootCauseAnalyzer.analyze", []),
    "runtime.sinks": ("CollectingSink.deliver", []),
    "service.checkpoint": ("CheckpointManager.save/load", [("bytes", "bytes", "lower")]),
}

# layer -> end-to-end metrics it should move, on which workloads
MOVES: Dict[str, str] = {
    "connectors.parse": "samples_per_s on remote_write_fanout",
    "service": "samples_per_s and advance_p50_s on every workload (facade glue)",
    "service.router": "samples_per_s on remote_write_fanout",
    "service.ingest.offer": "samples_per_s on remote_write_fanout",
    "quality.admission": "samples_per_s on remote_write_fanout (counters take the slow path)",
    "service.ingest.flush": "samples_per_s on both workloads",
    "tsdb.write": "samples_per_s on both workloads",
    "runtime.scheduler": "advance_p50_s on rescan_steady",
    "core.pipeline": "advance_p50_s on rescan_steady",
    "core.incremental.screen": "series_scans_per_s on rescan_steady",
    "quality.gaps": "advance_p50_s and series_scans_per_s on rescan_steady",
    "core.change_point": "advance_p50_s and series_scans_per_s on rescan_steady",
    "core.went_away": "advance_tail_s on rescan_steady",
    "core.seasonality": "advance_tail_s on rescan_steady",
    "core.same_regression": "advance_tail_s on rescan_steady",
    "core.dedup_som": "advance_tail_s on rescan_steady (guard; expected small)",
    "core.cost_shift": "advance_tail_s on rescan_steady (guard; expected small)",
    "core.dedup_pairwise": "advance_tail_s on rescan_steady (guard; expected small)",
    "core.root_cause": "advance_tail_s on rescan_steady (guard; expected small)",
    "runtime.sinks": "advance_tail_s on rescan_steady (guard; expected small)",
    "service.checkpoint": "checkpoint_s on remote_write_fanout (largest state)",
}

# Layers that must record calls on a workload; a wrapper that was never
# applied (or a call path that moved) shows up as zero calls here.
EVERY_WORKLOAD = [layer for layer in LAYERS if layer != "connectors.parse"]
REQUIRED: Dict[str, List[str]] = {
    "remote_write_fanout": ["connectors.parse"] + EVERY_WORKLOAD,
    "rescan_steady": EVERY_WORKLOAD,
}


def per_layer() -> List[Tuple[str, str, str]]:
    """Per-layer metrics as (name, unit, better)."""
    rows = []
    for layer, (_, extras) in LAYERS.items():
        rows.append((f"{layer}.calls", "count", "lower"))
        rows.append((f"{layer}.self_s", "s", "lower"))
        rows.extend((f"{layer}.{suffix}", unit, better) for suffix, unit, better in extras)
    rows.append(("unattributed.self_s", "s", "lower"))
    rows.append(("trace.overhead_ratio", "ratio", "lower"))
    return rows


def units() -> Dict[str, str]:
    table = {name: unit for name, unit, _, _ in END_TO_END}
    table.update({name: unit for name, unit, _ in per_layer()})
    return table
