"""Observability: structured logs, funnel spans, and pull endpoints.

FBDetect earns its keep at Meta by being *operable*: §5–§6 of the paper
are about on-call engineers triaging the Figure 6 funnel stage by stage
and trusting its drop rates.  This package is the layer that makes the
reproduction operable the same way:

- :mod:`repro.obs.logging` — structured JSON logging with
  per-series/per-alert correlation IDs bound through context managers,
  so every log line of one incident can be grepped by one id.
- :mod:`repro.obs.spans` — the Table 3 funnel and its per-run spans:
  each pipeline run fills one :class:`FunnelCounters` (input/output
  counts, drop reasons, elapsed seconds per stage) and, when traced,
  records it frozen as one :class:`Span` per stage into a ring-buffer
  :class:`TraceStore`; :meth:`FunnelCounters.from_runs` totals the
  retained runs into a live Table 3-style stage-attrition view.
- :mod:`repro.obs.http` — a stdlib :mod:`http.server` pull surface for
  the streaming service: ``/metrics`` (Prometheus text exposition of
  the self-metrics registry), ``/healthz`` (shard liveness, queue
  depth vs. backpressure threshold, checkpoint age), and ``/status``
  (JSON funnel snapshot plus the live funnel trace).

Dependency direction: this package imports only the standard library,
so :mod:`repro.core`, :mod:`repro.runtime`, and :mod:`repro.service`
may all depend on it without cycles.
"""

from repro.obs.logging import (
    JsonLogFormatter,
    StructuredLogger,
    configure_json_logging,
    correlation_id,
    current_context,
    get_logger,
    log_context,
)
from repro.obs.spans import (
    STAGES,
    FunnelCounters,
    RunTrace,
    Span,
    StageTally,
    TraceStore,
)

__all__ = [
    "FunnelCounters",
    "JsonLogFormatter",
    "ObservabilityServer",
    "RunTrace",
    "STAGES",
    "Span",
    "StageTally",
    "StructuredLogger",
    "TraceStore",
    "configure_json_logging",
    "correlation_id",
    "current_context",
    "get_logger",
    "log_context",
]


def __getattr__(name: str):
    # ObservabilityServer is imported lazily so that `import repro.obs`
    # (pulled in by the core pipeline for span types) never pays for the
    # http.server machinery on the scan hot path.
    if name == "ObservabilityServer":
        from repro.obs.http import ObservabilityServer

        return ObservabilityServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
