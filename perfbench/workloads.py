"""Seeded inputs for the benchmark's workloads, with their ground truth.

Every workload is a fleet of series sampled once per ``TICK`` seconds:

- ``gcpu`` series, which the monitor scans.  A few carry a planted step
  regression (each on its own service, so each should give exactly one
  report), some a short transient that the went-away stage must drop,
  some a seasonal component for the seasonality stage; the rest are
  quiet noise.
- stored-but-unmonitored gauges (``rss_bytes``, ``queue_depth``) and
  integer-valued cumulative counters (``requests_total``).

The stream is cut into chunks of one monitor rerun interval.  A history
of one full detection window of the monitored series precedes the first
chunk; setup ingests it and runs the anchoring first advance.  Planted regressions start on
rerun boundaries early in the replay.  A replay feeds a fixed number of
chunks (``Shape.chunks``), never fewer than it takes every plant to
pass through the analysis and extended windows (``min_chunks``), so
every replay of a seed does the same work and the set of reports a
correct replay delivers is exactly the planted set.

The generator states the ground truth on its own terms: planted series
names follow the remote-write mapping contract written out in
:func:`internal_name`, not whatever the program's mapper returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.config import DetectionConfig
from repro.service import Sample
from repro.tsdb import WindowSpec

TICK = 60.0
BASE = 0.001          # gCPU level of a monitored series
NOISE = 0.00002       # gCPU noise (one sigma)
STEP = 0.0003         # planted step: 15 sigma, far above the threshold
THRESHOLD = 0.00005   # absolute detection threshold (a 0.005% gCPU shift)
TRANSIENT_TICKS = 4   # a transient lasts this long, then goes away
SEASON_TICKS = 24     # season length of the seasonal series
SEASON_AMP = 0.00004  # seasonal amplitude (two sigma)


@dataclass(frozen=True)
class Shape:
    """Size and mix of one workload."""

    name: str
    monitored: int
    gauges: int
    counters: int
    plants: int
    transients: int
    seasonal: int
    historic: int        # window lengths and rerun cadence, in ticks
    analysis: int
    extended: int
    rerun: int
    chunks: int          # chunks one replay feeds
    remote_write: bool = False

    @property
    def history_ticks(self) -> int:
        return self.historic + self.analysis + self.extended

    @property
    def min_chunks(self) -> int:
        """Chunks after which every plant has left the analysis window."""
        last_plant = 2 * (self.plants - 1) * self.rerun
        return math.ceil((last_plant + self.analysis + self.extended) / self.rerun) + 2

    def chunk_count(self) -> int:
        """Chunks to build: the replay's, plus one for the follow-up
        advance after a checkpoint restore."""
        return max(self.min_chunks, self.chunks) + 1

    def config(self) -> DetectionConfig:
        return DetectionConfig(
            name=f"perfbench-{self.name}",
            threshold=THRESHOLD,
            rerun_interval=self.rerun * TICK,
            windows=WindowSpec(
                historic=self.historic * TICK,
                analysis=self.analysis * TICK,
                extended=self.extended * TICK,
            ),
            long_term=False,
            seasonality_period=SEASON_TICKS,
        )


SHAPES: Dict[str, Shape] = {
    # Ingest-heavy: 600 stored series, one in ten monitored.
    "remote_write_fanout": Shape(
        name="remote_write_fanout", monitored=60, gauges=480, counters=60,
        plants=6, transients=3, seasonal=3,
        historic=60, analysis=20, extended=10, rerun=5,
        chunks=64, remote_write=True,
    ),
    # Scan-heavy: 200 monitored series, small per-advance ingest.
    "rescan_steady": Shape(
        name="rescan_steady", monitored=200, gauges=0, counters=0,
        plants=8, transients=12, seasonal=12,
        historic=60, analysis=20, extended=10, rerun=5,
        chunks=64,
    ),
}


@dataclass
class Chunk:
    """One rerun interval of input, ready to hand to the service.

    ``inputs`` is a list of remote-write payload dicts or of samples;
    ``offered`` is the generator's count of the samples in it, every one
    of which must reach the TSDB.
    """

    end: float
    inputs: list
    offered: int


@dataclass
class Inputs:
    """Everything setup builds for one workload and seed."""

    shape: Shape
    history: List[Sample]
    history_end: float
    chunks: List[Chunk]
    plants: Dict[str, float] = field(default_factory=dict)  # series -> change time


def internal_name(metric: str, service: str, endpoint: str) -> str:
    """The series name a remote-write series ``metric{service, endpoint}``
    maps to: the metric name, then each label as ``key_value``, sorted by
    key and joined by dots."""
    return f"{metric}.endpoint_{endpoint}.service_{service}"


@dataclass(frozen=True)
class _Series:
    metric: str          # external metric name
    service: str
    endpoint: str
    name: str            # internal series name
    tags: Dict[str, str]


def _fleet(shape: Shape) -> List[_Series]:
    """Monitored gcpu series first, then gauges, then counters."""
    fleet: List[_Series] = []
    kinds = (
        [("gcpu", {"metric": "gcpu"})] * shape.monitored
        + [("rss_bytes", {"metric": "rss", "unit": "bytes"}),
           ("queue_depth", {"metric": "queue_depth"})] * (shape.gauges // 2)
        + [("requests_total", {"metric": "requests", "type": "counter"})] * shape.counters
    )
    for index, (metric, tags) in enumerate(kinds):
        # Every series gets its own service: planted regressions must
        # not be merged with each other by the dedup stages.
        service = f"svc{index:05d}"
        endpoint = f"ep{index:05d}"
        fleet.append(
            _Series(
                metric=metric,
                service=service,
                endpoint=endpoint,
                name=internal_name(metric, service, endpoint),
                tags={**tags, "service": service, "endpoint": endpoint},
            )
        )
    return fleet


def _values(shape: Shape, fleet: List[_Series], rng: np.random.Generator,
            ticks: int, history: int) -> Tuple[np.ndarray, Dict[int, int]]:
    """The value matrix (series x ticks) and plant ticks by row."""
    n = len(fleet)
    values = np.empty((n, ticks))
    m = shape.monitored
    values[:m] = BASE + rng.normal(0.0, NOISE, (m, ticks))
    rows = rng.permutation(m).tolist()
    plant_rows = rows[: shape.plants]
    transient_rows = rows[shape.plants: shape.plants + shape.transients]
    seasonal_end = shape.plants + shape.transients + shape.seasonal
    seasonal_rows = rows[shape.plants + shape.transients: seasonal_end]
    # Plants land on every other rerun boundary, so no two are first
    # detected by the same scan (where SOMDedup would merge them).
    plants = {}
    for index, row in enumerate(plant_rows):
        tick = history + 2 * index * shape.rerun
        values[row, tick:] += STEP
        plants[row] = tick
    # Transients recur on an even schedule (one per series every
    # ``period`` ticks, staggered across series), so every seed and every
    # stretch of the replay puts the same load on the went-away stage.
    period = shape.min_chunks * shape.rerun
    for index, row in enumerate(transient_rows):
        first = history + index * period // max(1, shape.transients)
        for start in range(first, ticks - TRANSIENT_TICKS, period):
            values[row, start:start + TRANSIENT_TICKS] += STEP
    phase = np.arange(ticks) * (2.0 * np.pi / SEASON_TICKS)
    for index, row in enumerate(seasonal_rows):
        values[row] += SEASON_AMP * np.sin(phase + 2.0 * np.pi * index / shape.seasonal)
    g = shape.gauges
    values[m:m + g] = rng.uniform(1e6, 1e8, (g, 1)) * (1.0 + rng.normal(0.0, 0.01, (g, ticks)))
    c = shape.counters
    rates = rng.integers(1, 50, (c, 1))
    values[m + g:] = np.cumsum(np.broadcast_to(rates, (c, ticks)), axis=1)
    return values, plants


def _samples(fleet: List[_Series], values: np.ndarray, begin: int, end: int) -> List[Sample]:
    """Tick-major samples for ticks [begin, end)."""
    out = []
    for tick in range(begin, end):
        timestamp = tick * TICK
        column = values[:, tick].tolist()
        out.extend(
            Sample(series.name, timestamp, value, series.tags)
            for series, value in zip(fleet, column)
        )
    return out


def _payloads(fleet: List[_Series], values: np.ndarray, begin: int, end: int,
              labels: List[list], per_request: int = 500) -> List[dict]:
    """prompb.WriteRequest-shaped dicts carrying ticks [begin, end).

    ``labels`` holds each series' prompb label list, shared by every
    chunk (the receiver only reads it).  Samples use the receiver's
    compact ``[timestamp_ms, value]`` pair encoding, a third the memory
    of ``{"value", "timestamp"}`` dicts, which keeps the pre-built
    stream small.
    """
    stamps = [int(tick * TICK * 1000) for tick in range(begin, end)]
    payloads = []
    for first in range(0, len(fleet), per_request):
        entries = []
        for row in range(first, min(first + per_request, len(fleet))):
            entries.append({
                "labels": labels[row],
                "samples": [
                    [stamp, value]
                    for stamp, value in zip(stamps, values[row, begin:end].tolist())
                ],
            })
        payloads.append({"timeseries": entries})
    return payloads


def _labels(series: _Series) -> list:
    return [
        {"name": "__name__", "value": series.metric},
        {"name": "service", "value": series.service},
        {"name": "endpoint", "value": series.endpoint},
    ]


def build(shape: Shape, seed: int) -> Inputs:
    """Materialize a workload's history and replay chunks for ``seed``."""
    rng = np.random.default_rng([seed, sorted(SHAPES).index(shape.name)])
    fleet = _fleet(shape)
    n_chunks = shape.chunk_count()
    history = shape.history_ticks
    ticks = history + n_chunks * shape.rerun
    values, plant_rows = _values(shape, fleet, rng, ticks, history)
    plants = {fleet[row].name: tick * TICK for row, tick in plant_rows.items()}

    labels = [_labels(series) for series in fleet]
    chunks: List[Chunk] = []
    for index in range(n_chunks):
        begin = history + index * shape.rerun
        end = begin + shape.rerun
        inputs = (
            _payloads(fleet, values, begin, end, labels)
            if shape.remote_write
            else _samples(fleet, values, begin, end)
        )
        chunks.append(Chunk(end=end * TICK, inputs=inputs, offered=len(fleet) * shape.rerun))
    # Only monitored series need history: it fills the monitor's windows.
    return Inputs(
        shape=shape,
        history=_samples(fleet[: shape.monitored], values[: shape.monitored], 0, history),
        history_end=history * TICK,
        chunks=chunks,
        plants=plants,
    )
