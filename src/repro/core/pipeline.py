"""The Figure 6 detection pipeline.

One :meth:`DetectionPipeline.run` is one periodic scan: every matching
series in the TSDB is windowed at the reference time and pushed through
the short-term path (change point -> went-away -> seasonality ->
threshold -> SameRegressionMerger) and, when enabled, the long-term path
(STL -> trend regression -> change point -> threshold).  Survivors are
deduplicated by SOMDedup, filtered by cost-shift analysis, deduplicated
again by PairwiseDedup, and finally root-caused.

Every run fills one :class:`~repro.obs.spans.FunnelCounters`: per
stage, the candidates that entered, survived (Table 3's "remaining
anomalies after each technique" rows) and were dropped, by reason, plus
the stage's elapsed time.  When a tracer
(:class:`~repro.obs.spans.TraceStore`) is attached, the run's tally is
also recorded there, frozen into one :class:`~repro.obs.spans.Span` per
stage, so the funnel's attrition is auditable live, not just in
aggregate.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import DetectionConfig
from repro.core.change_point import ChangePointDetector
from repro.core.cost_shift import CostShiftDetector
from repro.core.dedup_pairwise import PairwiseDedup
from repro.core.dedup_som import SOMDedup
from repro.core.incremental import IncrementalScanCache
from repro.core.long_term import LongTermDetector
from repro.core.planned_changes import PlannedChangeCorrelator
from repro.core.root_cause import RootCauseAnalyzer
from repro.core.same_regression import SameRegressionMerger
from repro.core.seasonality import SeasonalityDetector
from repro.core.types import (
    DetectionVerdict,
    FilterReason,
    MetricContext,
    Regression,
    RegressionGroup,
    RegressionKind,
)
from repro.core.went_away import WentAwayDetector
from repro.fleet.changes import ChangeLog
from repro.obs.logging import get_logger
from repro.obs.spans import FunnelCounters, StageTally
from repro.profiling.stacktrace import StackTrace
from repro.quality.gaps import QualityGate
from repro.tsdb.database import TimeSeriesDatabase
from repro.tsdb.series import TimeSeries

__all__ = ["PipelineResult", "DetectionPipeline"]

_log = get_logger("repro.core.pipeline")

#: The verdict a stage contributes when it is switched off or passes
#: without recording one on the regression.
_KEEP = DetectionVerdict.keep()


def _tally(tally: StageTally, verdict: DetectionVerdict, started: float) -> bool:
    """Tally one candidate's verdict at a stage; whether it survived."""
    tally.observe(
        verdict.passed,
        verdict.reason.value if verdict.reason else None,
        time.perf_counter() - started,
    )
    return verdict.passed


@dataclass
class PipelineResult:
    """Outcome of one detection run.

    Attributes:
        reported: Final regressions presented to developers (group
            representatives after all filtering and deduplication).
        all_candidates: Every change-point candidate turned regression
            (including later-filtered ones, each carrying its verdicts).
        groups: PairwiseDedup groups touched this run.
        funnel: This run's per-stage tally (inputs, survivors, drop
            reasons, seconds).
        now: The run's reference time.
    """

    reported: List[Regression]
    all_candidates: List[Regression]
    groups: List[RegressionGroup]
    funnel: FunnelCounters
    now: float


class DetectionPipeline:
    """Wires the Figure 6 stages together for one workload configuration.

    Args:
        config: Workload configuration (Table 1 row).
        change_log: Change log for root-cause analysis, SOM features and
            commit cost domains.
        samples: Stack-trace history (cost shift, dedup, root cause).
        series_filter: Optional tag filters selecting which series this
            pipeline scans (e.g. ``{"service": "frontfaas"}``).
        min_historic_points: Data-sufficiency floor for the baseline.
        min_analysis_points: Data-sufficiency floor for the analysis
            window.
        planned_changes: Optional correlator suppressing regressions
            explained by registered planned capacity changes (the
            paper's §8 extension).
        enable_went_away: Ablation switch for the went-away detector.
        enable_seasonality: Ablation switch for the seasonality detector.
        enable_cost_shift: Ablation switch for cost-shift analysis
            (AdServing runs without it, per Table 3).
        enable_som_dedup: Ablation switch for SOMDedup.
        enable_pairwise_dedup: Ablation switch for PairwiseDedup.
        incremental: Enable the per-series incremental scan cache: a
            streaming CUSUM screen anchored at each full scan lets
            repeat scans over quiet series cost O(n) in *new* points
            instead of O(W) in window size (see
            :mod:`repro.core.incremental`).  Off by default so offline
            single-scan analyses (benchmarks, funnel reproduction) stay
            byte-identical; the streaming service turns it on.
        metrics: Optional metrics-registry-like object (must expose
            ``inc(name, n)`` and ``observe(name, value)``, e.g.
            :class:`repro.service.metrics.MetricsRegistry`); receives
            per-stage latency histograms and candidate counters.  Kept
            duck-typed so the core pipeline does not import the service
            layer.
        tracer: Optional trace recorder (must expose ``record(run)``,
            e.g. :class:`repro.obs.spans.TraceStore`).  When set, every
            :meth:`run` records its funnel tally, frozen into one
            :class:`~repro.obs.spans.RunTrace`.  The tally itself is
            filled either way (it is :attr:`PipelineResult.funnel`).
        quality_gate: Optional :class:`~repro.quality.gaps.QualityGate`
            making detection gap-aware: scan windows whose coverage
            (points present vs the series' own cadence) falls below the
            gate's floor are suppressed instead of scanned — a window
            that is mostly gap fires false positives — and series that
            stopped reporting are evicted from scanning until they
            resume (see :meth:`stale_series`).  ``None`` disables both.
            Independently of the gate, windows containing non-finite
            values are never scanned.
        shadow: Optional shadow scorer (must expose
            ``score(historic, analysis, extended, primary_fired,
            metrics)``, e.g.
            :class:`repro.detectors.shadow.ShadowScorer`); invoked once
            per full short-term scan with the oriented window segments
            and whether the incumbent screen fired.  Shadow scoring is
            alert-inert: it never touches verdicts, funnels, or
            delivery, so the primary report is byte-identical with or
            without it.  Kept duck-typed so the core pipeline does not
            import the detectors layer.
    """

    def __init__(
        self,
        config: DetectionConfig,
        change_log: Optional[ChangeLog] = None,
        samples: Sequence[StackTrace] = (),
        series_filter: Optional[Dict[str, str]] = None,
        min_historic_points: int = 12,
        min_analysis_points: int = 8,
        planned_changes: Optional[PlannedChangeCorrelator] = None,
        enable_went_away: bool = True,
        enable_seasonality: bool = True,
        enable_cost_shift: bool = True,
        enable_som_dedup: bool = True,
        enable_pairwise_dedup: bool = True,
        incremental: bool = False,
        metrics: Optional[object] = None,
        tracer: Optional[object] = None,
        quality_gate: Optional[QualityGate] = None,
        shadow: Optional[object] = None,
    ) -> None:
        self.config = config
        self.change_log = change_log if change_log is not None else ChangeLog()
        self.samples = list(samples)
        self.series_filter = dict(series_filter or {})
        self.min_historic_points = min_historic_points
        self.min_analysis_points = min_analysis_points
        self.planned_changes = planned_changes
        self.enable_went_away = enable_went_away
        self.enable_seasonality = enable_seasonality
        self.enable_cost_shift = enable_cost_shift
        self.enable_som_dedup = enable_som_dedup
        self.enable_pairwise_dedup = enable_pairwise_dedup
        self.incremental_cache: Optional[IncrementalScanCache] = (
            IncrementalScanCache(max_staleness=config.windows.analysis)
            if incremental
            else None
        )
        self.metrics = metrics
        self.tracer = tracer
        self.quality_gate = quality_gate
        self.shadow = shadow
        # Series currently evicted for staleness; membership is
        # re-evaluated every run, so a series that resumes reporting
        # leaves the set on its next scan.
        self._stale: set = set()

        self.change_point_detector = ChangePointDetector()
        self.went_away_detector = WentAwayDetector()
        self.seasonality_detector = SeasonalityDetector(
            known_period=config.seasonality_period
        )
        self.same_regression_merger = SameRegressionMerger(
            time_tolerance=max(config.rerun_interval, 3600.0)
        )
        self.som_dedup = SOMDedup(change_log=self.change_log, samples=self.samples)
        self.pairwise_dedup = PairwiseDedup(samples=self.samples)
        self.long_term_detector = LongTermDetector(
            threshold=config.threshold if not config.relative_threshold else 0.0,
            known_period=config.seasonality_period,
        )

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def run(self, database: TimeSeriesDatabase, now: float) -> PipelineResult:
        """One periodic detection scan at reference time ``now``."""
        run_started = time.perf_counter()
        wall_started = time.time()
        funnel = FunnelCounters(runs=1)
        stages = funnel.stages
        candidates: List[Regression] = []

        stage_started = time.perf_counter()
        # Pass 1: staleness eviction, before any screen state is touched
        # (an evicted series must cost nothing and fold nothing).
        scannable: List[TimeSeries]
        if self.quality_gate is not None:
            scannable = []
            for series in self._matching_series(database):
                if self._evict_if_stale(series, now):
                    # Evicted from scheduling until it resumes: a dead
                    # host must cost nothing per tick and never alert.
                    stages["change_points"].observe(False, "stale_series")
                    continue
                scannable.append(series)
        else:
            scannable = self._matching_series(database)
        # Pass 2: one vectorized screen over every scannable series —
        # thousands of per-series CUSUM folds become a few array ops.
        decisions = (
            self.incremental_cache.screen_batch(scannable, now)
            if self.incremental_cache is not None
            else None
        )
        # Pass 3: full windowed scans where the screen demanded one.
        for series in scannable:
            candidate = self._short_term(
                series,
                now,
                stages,
                must_scan=None if decisions is None else decisions[series.name],
            )
            if candidate is not None:
                candidates.append(candidate)
            if self.config.long_term:
                long_candidate = self._long_term(series, now, stages)
                if long_candidate is not None:
                    candidates.append(long_candidate)
        self._observe_stage("detect", stage_started)

        survivors = [c for c in candidates if not c.verdicts or c.verdicts[-1].passed]

        # SOMDedup: representatives continue, duplicates stop here.
        stage_started = time.perf_counter()
        if self.enable_som_dedup:
            groups = self.som_dedup.deduplicate(survivors)
            representatives = [g.representative for g in groups if g.representative]
        else:
            representatives = list(survivors)
        stages["som_dedup"].bulk(
            len(survivors), len(representatives),
            FilterReason.SOM_DUPLICATE.value,
            self._observe_stage("som_dedup", stage_started),
        )

        # Cost-shift analysis on the surviving representatives.
        stage_started = time.perf_counter()
        if self.enable_cost_shift:
            cost_shift = CostShiftDetector(
                database, samples=self.samples, change_log=self.change_log
            )
            after_cost_shift: List[Regression] = []
            for regression in representatives:
                verdict = cost_shift.check(regression)
                regression.record(verdict)
                if verdict.passed:
                    after_cost_shift.append(regression)
        else:
            after_cost_shift = representatives
        stages["cost_shift"].bulk(
            len(representatives), len(after_cost_shift),
            FilterReason.COST_SHIFT.value,
            self._observe_stage("cost_shift", stage_started),
        )

        # PairwiseDedup against groups from prior runs.
        stage_started = time.perf_counter()
        if self.enable_pairwise_dedup:
            touched_groups = self.pairwise_dedup.process(after_cost_shift)
            reported = [
                regression
                for regression in after_cost_shift
                if regression.verdicts and regression.verdicts[-1].passed
            ]
        else:
            touched_groups = []
            reported = after_cost_shift
        stages["pairwise_dedup"].bulk(
            len(after_cost_shift), len(reported),
            FilterReason.PAIRWISE_DUPLICATE.value,
            self._observe_stage("pairwise_dedup", stage_started),
        )

        # Root-cause analysis for what gets reported.
        stage_started = time.perf_counter()
        analyzer = RootCauseAnalyzer(
            self.change_log,
            samples_before=self.samples,
            samples_after=self.samples,
        )
        for regression in reported:
            analyzer.analyze(regression)
        self._observe_stage("root_cause", stage_started)

        run_seconds = time.perf_counter() - run_started
        if self.metrics is not None:
            self.metrics.observe("pipeline.run_seconds", run_seconds)
            self.metrics.inc("pipeline.runs")
            self.metrics.inc("pipeline.candidates", len(candidates))
            self.metrics.inc("pipeline.reported", len(reported))

        if self.tracer is not None:
            self.tracer.record(
                funnel.freeze(self.config.name, now, wall_started, run_seconds)
            )
        if reported and _log.isEnabledFor(logging.INFO):
            for regression in reported:
                _log.info(
                    "regression reported",
                    series=regression.context.metric_id,
                    monitor=self.config.name,
                    magnitude=regression.magnitude,
                    change_time=regression.change_time,
                    detected_at=now,
                )

        return PipelineResult(
            reported=reported,
            all_candidates=candidates,
            groups=touched_groups,
            funnel=funnel,
            now=now,
        )

    def _observe_stage(self, stage: str, started: float) -> float:
        """Record one stage's latency into the optional metrics registry.

        Returns the elapsed seconds.
        """
        elapsed = time.perf_counter() - started
        if self.metrics is not None:
            self.metrics.observe(f"pipeline.stage.{stage}_seconds", elapsed)
        return elapsed

    def invalidate_incremental(self) -> None:
        """Drop all derived incremental-scan state (restore boundary).

        Called when shard state is restored from a checkpoint: anchors
        computed in a previous life must never suppress a re-scan over
        replayed or repaired history.  No-op when the cache is disabled.
        """
        if self.incremental_cache is not None:
            self.incremental_cache.clear()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def _matching_series(self, database: TimeSeriesDatabase) -> List[TimeSeries]:
        if self.series_filter:
            return database.query(**self.series_filter)
        return list(database)

    def stale_series(self) -> List[str]:
        """Series currently evicted from scanning for staleness, sorted."""
        return sorted(self._stale)

    def _evict_if_stale(self, series: TimeSeries, now: float) -> bool:
        """Track and report whether ``series`` stopped reporting."""
        last = series.end
        if last is None:
            return False
        if self.quality_gate.is_stale(last, now, self.config.windows.analysis):
            if series.name not in self._stale:
                self._stale.add(series.name)
                if self.metrics is not None:
                    self.metrics.inc("pipeline.quality.stale_evictions")
            if self.metrics is not None:
                self.metrics.inc("pipeline.quality.stale_skips")
            return True
        self._stale.discard(series.name)
        return False

    def _window_drop(self, series: TimeSeries, windowed) -> Optional[str]:
        """Why a scan window must not be scanned; ``None`` when it may.

        Too few points never scan.  Non-finite values anywhere in the
        window always suppress the scan (NaN poisons every downstream
        statistic); with a quality gate attached, windows whose
        coverage falls below the gate's floor are suppressed too.
        Suppressions are counted and tallied, never alerted.
        """
        if not windowed.has_minimum_data(
            self.min_historic_points, self.min_analysis_points
        ):
            return "insufficient_data"
        finite = (
            bool(np.isfinite(windowed.analysis).all())
            and bool(np.isfinite(windowed.historic).all())
            and (windowed.extended.size == 0 or bool(np.isfinite(windowed.extended).all()))
        )
        if not finite:
            if self.metrics is not None:
                self.metrics.inc("pipeline.quality.non_finite_skips")
            return "non_finite_window"
        if self.quality_gate is not None:
            ok, _ = self.quality_gate.window_ok(
                series.timestamps_between(
                    windowed.historic_start, windowed.analysis_start
                ),
                int(windowed.analysis.size),
                windowed.analysis_start,
                windowed.extended_start,
            )
            if not ok:
                if self.metrics is not None:
                    self.metrics.inc("pipeline.quality.low_coverage_skips")
                return "low_quality_window"
        return None

    def _oriented(self, values: np.ndarray) -> np.ndarray:
        """Map values so that an increase always means a regression."""
        return values if self.config.higher_is_worse else -values

    def _short_term(
        self,
        series: TimeSeries,
        now: float,
        stages: Dict[str, StageTally],
        must_scan: Optional[bool] = None,
    ) -> Optional[Regression]:
        cache = self.incremental_cache
        if cache is not None:
            # ``must_scan`` carries a decision precomputed by the batch
            # screen in :meth:`run`; direct callers leave it ``None`` and
            # the cache is consulted per series instead.
            if must_scan is None:
                must_scan = cache.should_scan(series, now)
            if not must_scan:
                # Cache hit: the screen saw no shift in the new points and
                # the previous full scan found nothing — skip the O(W) path.
                if self.metrics is not None:
                    self.metrics.inc("pipeline.incremental.hits")
                # Tallied untimed: the hit path is O(new points) and the
                # tally must not dominate it with clock reads.
                stages["change_points"].observe(False, "cache_hit")
                return None
            # Count the miss at the decision point so the registry agrees
            # with IncrementalScanCache.hit_rate even when the scan below
            # bails on insufficient data.
            if self.metrics is not None:
                self.metrics.inc("pipeline.incremental.misses")
        started = time.perf_counter()

        windowed = self.config.windows.view(series, now)
        drop = self._window_drop(series, windowed)
        if drop is not None:
            # No full-scan anchor is recorded: bad windows must not
            # seed the incremental screen.
            stages["change_points"].observe(
                False, drop, time.perf_counter() - started
            )
            return None

        oriented_analysis = self._oriented(windowed.analysis)
        candidate = self.change_point_detector.detect_increase(oriented_analysis)
        if cache is not None:
            # Anchor on the *raw* analysis values: should_scan folds raw
            # tail values into the screen, and the CUSUM is two-sided,
            # so orientation must not be applied here (a sign-flipped
            # reference would fire the screen on every quiet
            # lower-is-worse series).
            cache.record_full_scan(
                series, now, windowed.analysis, candidate is not None
            )
        if self.shadow is not None:
            # Challengers see exactly what the incumbent scanned (same
            # orientation, same segments) on every full scan — fired or
            # quiet — so their tallies measure both FP and FN behavior.
            self.shadow.score(
                self._oriented(windowed.historic),
                oriented_analysis,
                self._oriented(windowed.extended),
                primary_fired=candidate is not None,
                metrics=self.metrics,
            )
        stages["change_points"].observe(
            candidate is not None, "no_change_point", time.perf_counter() - started
        )
        if candidate is None:
            return None

        context = MetricContext.from_tags(series.name, series.tags)
        interval = (now - windowed.analysis_start) / max(
            1, windowed.analysis.size + windowed.extended.size
        )
        regression = Regression(
            context=context,
            kind=RegressionKind.SHORT_TERM,
            change_index=candidate.index,
            change_time=windowed.analysis_start + candidate.index * interval,
            mean_before=candidate.mean_before,
            mean_after=candidate.mean_after,
            window=self._oriented_view(windowed),
            detected_at=now,
        )

        for stage, detector, enabled in (
            ("went_away", self.went_away_detector, self.enable_went_away),
            ("seasonality", self.seasonality_detector, self.enable_seasonality),
        ):
            started = time.perf_counter()
            if enabled:
                verdict = detector.check(regression.window, candidate)
                regression.record(verdict)
            else:
                verdict = _KEEP
            if not _tally(stages[stage], verdict, started):
                return regression
        return self._threshold_and_merge(regression, stages, "magnitude")

    def _long_term(
        self,
        series: TimeSeries,
        now: float,
        stages: Dict[str, StageTally],
    ) -> Optional[Regression]:
        started = time.perf_counter()
        windowed = self.config.windows.view(series, now)
        drop = self._window_drop(series, windowed)
        if drop is not None:
            stages["change_points"].observe(
                False, drop, time.perf_counter() - started
            )
            return None
        context = MetricContext.from_tags(series.name, series.tags)
        regression = self.long_term_detector.detect(
            self._oriented_view(windowed), context, detected_at=now
        )
        stages["change_points"].observe(
            regression is not None, "no_change_point", time.perf_counter() - started
        )
        if regression is None:
            return None
        # The long-term path has no went-away stage by design.  Absolute
        # thresholds were enforced inside the detector; relative ones
        # (which need the baseline) are checked here.
        return self._threshold_and_merge(regression, stages, "long-term magnitude")

    def _threshold_and_merge(
        self,
        regression: Regression,
        stages: Dict[str, StageTally],
        label: str,
    ) -> Regression:
        """The threshold and SameRegressionMerger stages both paths share."""
        started = time.perf_counter()
        if self.config.exceeds_threshold(regression.magnitude, regression.mean_before):
            verdict = _KEEP
        else:
            verdict = DetectionVerdict.drop(
                FilterReason.BELOW_THRESHOLD,
                detail=(
                    f"{label} {regression.magnitude:.3g} below "
                    f"threshold {self.config.threshold:.3g}"
                ),
            )
            regression.record(verdict)
        if not _tally(stages["threshold"], verdict, started):
            return regression

        started = time.perf_counter()
        if self.planned_changes is not None:
            verdict = self.planned_changes.check(regression)
            regression.record(verdict)
            if not verdict.passed:
                # Planned-change suppression is not a Table 3 funnel
                # stage; tally the drop under same_regression so the
                # stage still accounts for every candidate that left the
                # threshold stage alive.
                _tally(stages["same_regression"], verdict, started)
                return regression
        verdict = self.same_regression_merger.check(regression)
        regression.record(verdict)
        _tally(stages["same_regression"], verdict, started)
        return regression

    def _oriented_view(self, windowed):
        """Apply metric orientation to a windowed view."""
        if self.config.higher_is_worse:
            return windowed
        from dataclasses import replace

        return replace(
            windowed,
            historic=-windowed.historic,
            analysis=-windowed.analysis,
            extended=-windowed.extended,
        )
