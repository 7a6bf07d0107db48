"""Chaos drill for the data plane: a stream damaged by
:func:`repro.fleet.dirty.dirty_stream` versus the clean stream.

Data damage needs no hook inside the service — it happens to the
stream before ingest, exactly where a real collector damages it.  Each
ingest round's clean chunk is damaged on its own (NaN bursts, gaps on
quiet series, block-local delivery reordering), so no sample leaves its
round's tick range and every advance sees the same time span as the
clean run.

Gaps genuinely remove points and NaN bursts add garbage ones, so the
dirty run cannot be byte-identical to the clean one.  The contract is
instead:

- zero false alerts and zero missed regressions — the *set* of alerted
  metrics matches the clean run exactly;
- every damaged sample is accounted for, counted from the streams
  themselves — NaNs quarantined, gaps absent, late deliveries
  re-sequenced, never silently wrong in a shard TSDB;
- quarantine state and admission counters survive the SIGKILL pattern
  (checkpoint -> abandon the process -> restore), under parallel
  (``workers=4``) shard advances.

``REPRO_CHAOS_SEED`` (with the round index) seeds the damage, mirroring
the process-fault drill next door.
"""

import math
import os

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.fleet.dirty import DirtyDataSpec, dirty_stream
from repro.runtime import CollectingSink
from repro.service import BackpressurePolicy, Sample, StreamingDetectionService
from repro.tsdb import WindowSpec

N_TICKS = 1_100
INTERVAL = 60.0
CHANGE_TICK = 700
REGRESS_INDEX = 3
SERIES = [f"svc.sub{i}.gcpu" for i in range(8)]
N_SHARDS = 4
ADVANCE_EVERY = 200  # ticks per ingest/advance round
CHECKPOINT_ROUND = 2  # round after which the kill-pattern checkpoint lands

# NaN bursts hit the regressing series too (admission must strip them
# without blunting the alert); gaps only hit quiet series, where the
# coverage gate, not repair, is the defence.
NAN_SERIES = (SERIES[0], SERIES[REGRESS_INDEX], SERIES[5])
QUIET_SERIES = tuple(
    name for index, name in enumerate(SERIES) if index != REGRESS_INDEX
)
GAP_FRACTION = 0.01
REORDER_BLOCK = 4 * len(SERIES)  # up to four ticks shuffled together


def _seed():
    return int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def small_config():
    return DetectionConfig(
        name="chaos-data",
        threshold=0.00005,
        rerun_interval=6_000.0,
        windows=WindowSpec(historic=36_000.0, analysis=12_000.0, extended=6_000.0),
        long_term=False,
    )


def make_rounds(seed=7):
    """The clean stream, split into per-round chunks of whole ticks."""
    rng = np.random.default_rng(seed)
    table = {}
    for index, name in enumerate(SERIES):
        values = rng.normal(0.001, 0.00002, N_TICKS)
        if index == REGRESS_INDEX:
            values[CHANGE_TICK:] += 0.0003
        table[name] = values
    samples = []
    for name in SERIES:
        samples.extend(
            Sample(name, tick * INTERVAL, float(table[name][tick]),
                   {"metric": "gcpu"})
            for tick in range(N_TICKS)
        )
    samples.sort(key=lambda s: s.timestamp)
    chunk = ADVANCE_EVERY * len(SERIES)
    return [samples[begin: begin + chunk]
            for begin in range(0, len(samples), chunk)]


def damage(chunk, round_index):
    """One round's collection damage, seeded by the chaos seed and round."""
    return dirty_stream(chunk, DirtyDataSpec(
        seed=_seed() * 1_000 + round_index,
        reorder_block=REORDER_BLOCK,
        nan_series=NAN_SERIES,
        gap_series=QUIET_SERIES,
        gap_fraction=GAP_FRACTION,
    ))


def late_deliveries(samples):
    """Finite samples arriving behind their series' newest timestamp —
    the ones admission must hold and re-sequence."""
    newest = {}
    late = 0
    for sample in samples:
        if math.isnan(sample.value):
            continue
        if sample.timestamp < newest.get(sample.name, -math.inf):
            late += 1
        else:
            newest[sample.name] = sample.timestamp
    return late


def make_service(sink):
    service = StreamingDetectionService(
        n_shards=N_SHARDS,
        workers=4,
        sinks=[sink],
        queue_capacity=2**14,
        backpressure=BackpressurePolicy.BLOCK,
        batch_size=128,
    )
    service.register_monitor(
        "gcpu", small_config(), series_filter={"metric": "gcpu"}
    )
    return service


def drive(service, rounds, ckpt_dir):
    """Ingest/advance round by round with one mid-stream checkpoint.

    Returns the quality snapshot captured at the checkpoint instant —
    the ground truth the SIGKILL-restore test compares against.  No
    background flusher runs and every round is synchronous, so nothing
    mutates admission state between the checkpoint and the snapshot.
    """
    at_checkpoint = None
    for index, batch in enumerate(rounds):
        service.ingest_many(batch)
        service.advance_to(max(s.timestamp for s in batch) + INTERVAL)
        if index == CHECKPOINT_ROUND:
            service.checkpoint(ckpt_dir)
            at_checkpoint = service.quality_snapshot()
    service.flush()
    return at_checkpoint


def total_tsdb_points(service):
    return sum(
        len(series)
        for shard_id in range(N_SHARDS)
        for series in service.shard_database(shard_id)
    )


@pytest.fixture(scope="module")
def clean_alerts(tmp_path_factory):
    """The fault-free drill outcome: exactly the planted regression."""
    sink = CollectingSink()
    service = make_service(sink)
    try:
        drive(service, make_rounds(),
              str(tmp_path_factory.mktemp("clean") / "ckpt"))
    finally:
        service.close()
    alerted = {report.metric_id for report in sink.reports}
    assert alerted == {SERIES[REGRESS_INDEX]}
    return alerted


@pytest.fixture(scope="module")
def dirty_run(tmp_path_factory):
    """One drill through the damaged stream, shared by the tests."""
    clean = make_rounds()
    rounds = [damage(chunk, index) for index, chunk in enumerate(clean)]
    damage_by_round = []
    for chunk, dirty in zip(clean, rounds):
        nans = sum(1 for s in dirty if math.isnan(s.value))
        damage_by_round.append({
            "nan": nans,
            "gap": len(chunk) - (len(dirty) - nans),
            "late": late_deliveries(dirty),
        })
    sink = CollectingSink()
    service = make_service(sink)
    ckpt_dir = str(tmp_path_factory.mktemp("data-faults") / "ckpt")
    try:
        at_checkpoint = drive(service, rounds, ckpt_dir)
        return {
            "n_samples": sum(len(chunk) for chunk in clean),
            "damage_by_round": damage_by_round,
            "damage": {
                kind: sum(entry[kind] for entry in damage_by_round)
                for kind in ("nan", "gap", "late")
            },
            "late_overall": late_deliveries(
                [s for dirty in rounds for s in dirty]
            ),
            "alerted": {report.metric_id for report in sink.reports},
            "quality": service.quality_snapshot(),
            "pending": sum(shard.pending for shard in service.stats().shards),
            "at_checkpoint": at_checkpoint,
            "ckpt_dir": ckpt_dir,
            "total_points": total_tsdb_points(service),
        }
    finally:
        service.close()


class TestDataFaultDrill:
    def test_schedule_fired_and_exhausted(self, dirty_run):
        # Every round carried every kind of damage ...
        for entry in dirty_run["damage_by_round"]:
            assert entry["nan"] > 0 and entry["gap"] > 0 and entry["late"] > 0
        # ... and each round's damage stayed inside its own tick range,
        # so the round-by-round late count is the whole stream's.
        assert dirty_run["late_overall"] == dirty_run["damage"]["late"]
        # After the final flush nothing is held back or queued.
        assert dirty_run["quality"]["counters"]["buffered"] == 0
        assert dirty_run["pending"] == 0

    def test_zero_false_alerts_vs_clean(self, dirty_run, clean_alerts):
        # Set equality, both directions: no alert the clean run did not
        # raise (false alert) and no clean alert missing (missed
        # regression).  Bytes can differ — gaps genuinely drop points.
        assert dirty_run["alerted"] == clean_alerts

    def test_every_damaged_sample_is_accounted_for(self, dirty_run):
        damage = dirty_run["damage"]
        counters = dirty_run["quality"]["counters"]
        # NaN points were quarantined, not written.
        assert counters["quarantined"] == damage["nan"]
        assert dirty_run["quality"]["quarantined_points"] == damage["nan"]
        # Late deliveries were re-sequenced through the reorder buffer.
        assert counters["reordered"] == damage["late"]
        assert counters["duplicates"] == 0
        # TSDB conservation: every delivered finite sample landed
        # exactly once; only the gaps are missing.
        expected = dirty_run["n_samples"] - damage["gap"]
        assert counters["admitted"] == expected
        assert dirty_run["total_points"] == expected


class TestQuarantineSurvivesKill:
    def test_restore_matches_checkpoint_snapshot(self, dirty_run):
        """SIGKILL pattern: the checkpointed process is abandoned (the
        fixture closed it) and a fresh service restores from disk."""
        before = dirty_run["at_checkpoint"]
        assert before is not None and before["enabled"]
        assert before["quarantined_points"] > 0  # damage predates the kill
        restored = StreamingDetectionService.restore(
            dirty_run["ckpt_dir"], sinks=[CollectingSink()], workers=4
        )
        try:
            after = restored.quality_snapshot()
            assert after["counters"] == before["counters"]
            assert after["quarantined_points"] == before["quarantined_points"]
            by_shard = {
                shard["shard"]: shard["quarantine"]["series"]
                for shard in before["shards"]
            }
            for shard in after["shards"]:
                assert shard["quarantine"]["series"] == by_shard[shard["shard"]]
            # The restored admission layer is live, not a fossil.
            restored.ingest(SERIES[0], (N_TICKS + 10) * INTERVAL, math.nan,
                            {"metric": "gcpu"})
            assert (
                restored.quality_snapshot()["quarantined_points"]
                == before["quarantined_points"] + 1
            )
        finally:
            restored.close()
