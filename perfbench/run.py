"""End-to-end, layer-attributed benchmark of the streaming detection service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rescan_steady --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --list-metrics

``--trace 0`` measures the end-to-end metrics with no instrumentation:
the workload's fixed chunk sequence is replayed on freshly set-up
services until ``--seconds`` of replay have passed, and each chunk's
ingest and advance are timed at their fastest over the replays.
``--trace 1`` makes a separate traced run: the public call of every
layer is wrapped from outside, spans are kept in memory and written to
``.perfbench_out/spans-<workload>.npz``, and the per-layer metrics are
reported.  Either way the outputs are checked against the generator's
ground truth.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import metrics  # noqa: E402

OUT = os.path.join(ROOT, ".perfbench_out")
MIN_REPLAYS = 3
CHECKPOINT_REPEATS = 1
TAIL_BEYOND = 10


def tail(times):
    """The highest percentile of ``times`` with TAIL_BEYOND values above
    it: ``(value, percentile, count)``."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        raise RuntimeError(f"{len(ordered)} advances are too few for a tail")
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def fastest(replays, attribute):
    """Per chunk, the fastest of one of its times over every replay."""
    return [min(times) for times in zip(*(getattr(done, attribute) for done in replays))]


def measure_end_to_end(harness, shape, seed, seconds):
    """Replay the workload's fixed chunk sequence, each time on a freshly
    set-up service, until ``seconds`` of replay have passed (at least
    MIN_REPLAYS times).

    Every replay does the same work, so the fastest time of each chunk's
    ingest and of its advance over the replays is its cost on this
    machine with the least interference from whatever else shares the
    host; the rates and advance times are taken over those times.
    """
    setups, replays, trips, problems = [], [], [], []
    tally = {"attempted": 0, "failed": 0}
    while len(replays) < MIN_REPLAYS or sum(done.wall for done in replays) < seconds:
        prepared = harness.prepare(shape, seed)
        setups.append(prepared.setup_seconds)
        done = harness.replay(prepared)
        replays.append(done)
        problems += harness.verify(prepared, done)
        if done.advance_screened != replays[0].advance_screened:
            problems.append(f"replay {len(replays)} screened other series than the first")
        trip = harness.checkpoint_round_trip(prepared, done, OUT, CHECKPOINT_REPEATS)
        trips.append(trip.seconds)
        problems += trip.problems
        for key, value in harness.failures(prepared).items():
            tally[key] += value
        harness.release(prepared)
        del prepared

    ingest_seconds = fastest(replays, "ingest_seconds")
    advance_seconds = fastest(replays, "advance_seconds")
    offered, screened = replays[0].chunk_offered, replays[0].advance_screened
    value, percentile, count = tail(advance_seconds)
    print(f"{shape.name}: {len(replays)} replays of {len(advance_seconds)} chunks "
          f"({sum(offered)} samples) in {sum(r.wall for r in replays):.3f} s; "
          f"advance_tail_s is p{percentile:.1f} of {count} advances "
          f"({TAIL_BEYOND} beyond it)")
    values = {
        "samples_per_s": sum(offered) / (sum(ingest_seconds) + sum(advance_seconds)),
        "series_scans_per_s": sum(screened) / sum(advance_seconds),
        "advance_p50_s": statistics.median(advance_seconds),
        "advance_tail_s": value,
        "checkpoint_s": min(trips),
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    return values, problems, tally


def _blocking_flushes(service) -> int:
    return sum(shard.counters["blocking_flushes"] for shard in service.stats().shards)


def _ratio(part, whole):
    return part / whole if whole else 0.0


def measure_layers(harness, spans, shape, seed, seconds):
    # Untraced reference replays over half the time (the fastest is the
    # reference wall), then the same chunks once, traced.
    untraced = []
    while not untraced or sum(untraced) < seconds / 2:
        reference = harness.prepare(shape, seed)
        untraced.append(harness.replay(reference).wall)
        harness.release(reference)
        del reference

    prepared = harness.prepare(shape, seed)
    recorder = spans.SpanRecorder()
    blocking_before = _blocking_flushes(prepared.service)
    harness.install_layers(recorder)
    try:
        started = time.perf_counter()
        done = harness.replay(prepared)
        blocking = _blocking_flushes(prepared.service) - blocking_before
        trip = harness.checkpoint_round_trip(prepared, done, OUT, 1)
        traced_wall = time.perf_counter() - started
    finally:
        recorder.uninstall()
    problems = harness.verify(prepared, done) + trip.problems

    arrays = recorder.arrays()
    totals = spans.layer_totals(recorder.layers, **arrays)
    counts = recorder.counts
    values = {}
    for layer in metrics.LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
        if calls == 0 and layer in metrics.REQUIRED[shape.name]:
            problems.append(f"layer {layer} recorded no calls on {shape.name}")
    admission_calls = values["quality.admission.calls"]
    values.update({
        "service.ingest.offer.blocking_flushes": blocking,
        "quality.admission.slow_ratio": _ratio(counts["admission.slow"], admission_calls),
        "tsdb.write.points": counts["tsdb.points"],
        "runtime.scheduler.scans": counts["scheduler.scans"],
        "core.incremental.screen.hit_ratio": _ratio(counts["screen.hits"],
                                                    counts["screen.series"]),
        "core.change_point.candidate_ratio": _ratio(counts["change_point.candidates"],
                                                    values["core.change_point.calls"]),
        "core.went_away.pass_ratio": _ratio(counts["went_away.passed"],
                                            values["core.went_away.calls"]),
        "core.seasonality.pass_ratio": _ratio(counts["seasonality.passed"],
                                              values["core.seasonality.calls"]),
        "core.same_regression.pass_ratio": _ratio(counts["same_regression.passed"],
                                                  values["core.same_regression.calls"]),
        "service.checkpoint.bytes": trip.bytes,
        "unattributed.self_s": traced_wall - spans.covered_seconds(
            arrays["parent"], arrays["start"], arrays["end"]),
        "trace.overhead_ratio": done.wall / min(untraced),
    })
    os.makedirs(OUT, exist_ok=True)
    recorder.save(os.path.join(OUT, f"spans-{shape.name}.npz"))
    print(f"{shape.name}: traced {done.chunks} chunks, {len(recorder.start)} spans, "
          f"traced wall {traced_wall:.3f} s, unattributed "
          f"{100.0 * values['unattributed.self_s'] / traced_wall:.1f}%")
    return values, problems, harness.failures(prepared)


def list_metrics() -> None:
    print("end-to-end (--trace 0):")
    for name, unit, better, bound in metrics.END_TO_END:
        print(f"  {name:40s} {unit:8s} {better:7s} bound {bound}")
    print("per-layer (--trace 1):")
    for name, unit, better in metrics.per_layer():
        print(f"  {name:40s} {unit:8s} {better}")
    print("layers (public calls wrapped) and what they should move:")
    for layer, (calls, _) in metrics.LAYERS.items():
        print(f"  {layer:24s} {calls}\n  {'':24s} -> {metrics.MOVES[layer]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with its unit and exit")
    args = parser.parse_args(argv)
    if args.list_metrics:
        list_metrics()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    import harness
    import spans
    import workloads

    shape = workloads.SHAPES[args.workload]
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        values, problems, tally = measure_layers(harness, spans, shape, args.seed, args.seconds)
    else:
        values, problems, tally = measure_end_to_end(harness, shape, args.seed, args.seconds)
    listed = metrics.per_layer() if args.trace else metrics.END_TO_END
    if set(values) != {row[0] for row in listed}:
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json lists {listed}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    unit = metrics.units()
    print(json.dumps({
        "correct": not problems,
        "attempted": int(tally["attempted"]),
        "failed": int(tally["failed"]),
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
