"""Unified observability: metrics registry, trace spans, profiling hooks.

Three pillars, one import point:

* :mod:`repro.obs.metrics` — a process-global :data:`~repro.obs.metrics.REGISTRY`
  of thread-safe counters, gauges and label-aware log-scale histograms with a
  mergeable snapshot form and a Prometheus text encoder.  Every counter that
  used to live in an ad-hoc per-module dictionary (incremental-IR stats,
  result-cache traffic, scheduler retries, backend demotions, network
  connection counters) is mirrored here, so ``GET /metricsz`` serves one
  scrapeable surface and the router aggregates it fleet-wide with per-shard
  labels.
* :mod:`repro.obs.trace` — contextvar-based hierarchical spans
  (job → property → CEGAR iteration / layer → subproblem → solver check)
  recorded into a bounded ring, shippable across process boundaries in
  subproblem result envelopes and re-parented by the coordinator; serialized
  as Chrome-trace-event JSON.
* :mod:`repro.obs.profile` — opt-in per-job wall/CPU phase timing and a
  ``cProfile`` capture helper, keyed off the execution-only
  ``VerificationOptions.trace`` / ``VerificationOptions.profile`` flags
  (excluded from cache keys like ``jobs``).
"""

from repro.obs.metrics import (  # noqa: F401
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    label_snapshot,
    merge_snapshots,
    parse_prometheus_text,
    prometheus_text,
)
from repro.obs.profile import PhaseProfile, cprofile_capture  # noqa: F401
from repro.obs.trace import (  # noqa: F401
    Span,
    TraceSink,
    adopt_spans,
    chrome_trace,
    collect,
    current_span_id,
    span,
    tracing_active,
)
