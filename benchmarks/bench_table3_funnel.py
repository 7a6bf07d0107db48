"""Table 3 — the filtering funnel.

A synthetic "month" of one service: ~100 subroutine gCPU series full of
transient perturbations and wobble, one seasonal family, one correlated
true-regression family (six upstream callers of the same regressed
subroutine), and one cost-shift refactor pair.  FBDetect scans
periodically; the per-stage survivor counts reproduce Table 3's shape:

- change-point detection fires constantly (noise + transients),
- the went-away detector removes the large majority,
- threshold/seasonality remove more,
- SameRegressionMerger collapses overlapping windows,
- SOMDedup collapses the caller family,
- cost-shift analysis removes the refactor illusion,
- PairwiseDedup leaves a handful of reports.
"""

import numpy as np
import pytest

from _harness import (
    ANALYSIS_POINTS,
    EXTENDED_POINTS,
    HISTORIC_POINTS,
    POINT_INTERVAL,
    bench_config,
    emit,
)
from repro import FBDetect, TimeSeriesDatabase
from repro.obs.spans import STAGES
from repro.reporting import format_funnel_table

N_POINTS = 1500
N_NOISE_SERIES = 80
WINDOW_POINTS = HISTORIC_POINTS + ANALYSIS_POINTS + EXTENDED_POINTS
BASE = 0.001
NOISE = BASE * 0.02


def build_month(seed: int = 0) -> TimeSeriesDatabase:
    rng = np.random.default_rng(seed)
    db = TimeSeriesDatabase()

    def write(name, values, subroutine):
        series = db.create(
            name, {"metric": "gcpu", "service": "svc", "subroutine": subroutine}
        )
        for i, value in enumerate(values):
            series.append(i * POINT_INTERVAL, float(value))

    # Noisy production series with random transients and wobble.
    for s in range(N_NOISE_SERIES):
        base = BASE * float(rng.uniform(0.5, 2.0))
        values = rng.normal(base, base * 0.02, N_POINTS)
        for _ in range(int(rng.integers(2, 6))):
            start = int(rng.integers(100, N_POINTS - 150))
            length = int(rng.integers(10, 120))
            depth = base * float(rng.uniform(0.2, 1.0))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            values[start : start + length] += sign * depth
        write(f"svc.ns::C{s % 10}::noisy{s}.gcpu", values, f"ns::C{s % 10}::noisy{s}")

    # Seasonal series (diurnal-style cycles).
    for s in range(8):
        t = np.arange(N_POINTS)
        period = 180 + 20 * s
        values = BASE + 0.3 * BASE * np.sin(2 * np.pi * t / period)
        values += rng.normal(0, NOISE, N_POINTS)
        write(f"svc.ns::S::seasonal{s}.gcpu", values, f"ns::S::seasonal{s}")

    # A true regression family: one callee regresses at t=1000; its six
    # callers' gCPUs move in lockstep (same root cause).
    shared = rng.normal(0, NOISE, N_POINTS)
    for s in range(6):
        values = BASE * 2 + shared + rng.normal(0, NOISE / 10, N_POINTS)
        values[1000:] += BASE * 0.4
        write(f"svc.ns::F::caller{s}.gcpu", np.maximum(values, 0), f"ns::F::caller{s}")

    # A cost-shift refactor at t=1050: target jumps, sibling drops.
    target = rng.normal(BASE, NOISE, N_POINTS)
    target[1050:] += BASE * 0.5
    sibling = rng.normal(BASE * 1.5, NOISE, N_POINTS)
    sibling[1050:] -= BASE * 0.5
    write("svc.ns::R::target.gcpu", np.maximum(target, 0), "ns::R::target")
    write("svc.ns::R::sibling.gcpu", np.maximum(sibling, 0), "ns::R::sibling")
    return db


@pytest.fixture(scope="module")
def month_run():
    db = build_month()
    config = bench_config(threshold=BASE * 0.1)
    detector = FBDetect(config, series_filter={"metric": "gcpu"})
    results = detector.run_periodic(
        db,
        start=WINDOW_POINTS * POINT_INTERVAL,
        end=N_POINTS * POINT_INTERVAL,
    )
    funnel = results[0].funnel
    for result in results[1:]:
        funnel.merge(result.funnel)
    reported = [r for result in results for r in result.reported]
    return funnel, reported


def test_table3_went_away_filters_majority(month_run):
    funnel, _ = month_run
    detected = funnel.counts["change_points"]
    after_went_away = funnel.counts["went_away"]
    assert detected >= 100, "the month must generate plenty of change points"
    # Paper: the went-away detector is the most effective single filter,
    # removing the overwhelming majority of detected change points.
    assert after_went_away <= 0.35 * detected


def test_table3_funnel_monotone(month_run):
    funnel, _ = month_run
    # Survivors never increase along the pipeline (long-term detection is
    # disabled in this bench so the short-term stage order is exact).
    ordered = [funnel.counts[stage] for stage in STAGES]
    for earlier, later in zip(ordered, ordered[1:]):
        assert later <= earlier


def test_table3_overall_reduction_and_report(month_run):
    funnel, reported = month_run
    detected = funnel.counts["change_points"]
    final = max(1, len(reported))
    reduction = detected / final
    # Paper reaches 3-4 orders of magnitude at production scale; the
    # laptop-scale month must still reduce by well over an order.
    assert reduction >= 20

    assert any("caller" in r.context.metric_id for r in reported), (
        "the true regression family must be reported"
    )
    assert not any("target" in r.context.metric_id for r in reported), (
        "the cost-shift refactor must not be reported"
    )

    lines = format_funnel_table({"synthetic month": funnel}).splitlines()
    lines.append(f"final reports: {len(reported)} (total reduction 1/{reduction:.0f})")
    emit("Table 3 — filtering funnel", lines)


def test_table3_scan_benchmark(benchmark):
    db = build_month(seed=1)
    config = bench_config(threshold=BASE * 0.1)

    def one_scan():
        detector = FBDetect(config, series_filter={"metric": "gcpu"})
        return detector.run(db, now=N_POINTS * POINT_INTERVAL)

    result = benchmark.pedantic(one_scan, rounds=3, iterations=1)
    assert result.funnel.counts["change_points"] >= 1
