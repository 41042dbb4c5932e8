"""Observability: structured tracing, metrics, and exporters.

The engine's single hook point is ``db.tracer`` (a :class:`Tracer`, default
:class:`NullTracer`).  Attach a :class:`TraceCollector` to record
virtual-clock-stamped events — plus derived-view staleness
(:class:`StalenessTracker`) and periodic gauge samples
(:class:`TimeSeriesSampler`); read counters and histograms
(:class:`Rollup`) and per-rule cost attribution (:class:`Attribution`)
back from its event log; export with :func:`write_chrome_trace`
(Perfetto), :func:`write_jsonl`, :func:`stats_report`, or
:func:`stats_snapshot`.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.attribution import ENGINE_KEY, Attribution, RuleStats
from repro.obs.exporters import (
    chrome_trace_events,
    ensure_parent,
    export_trace,
    freshness_sections,
    read_jsonl,
    stats_report,
    stats_snapshot,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import Histogram, Rollup, log_bounds
from repro.obs.schema import SchemaError, check, validate
from repro.obs.staleness import StalenessTracker
from repro.obs.timeseries import (
    TimeSeriesSampler,
    read_series_jsonl,
    sparkline,
    write_series_jsonl,
)
from repro.obs.tracer import NullTracer, TraceCollector, TraceEvent, Tracer

__all__ = [
    "Attribution",
    "ENGINE_KEY",
    "Histogram",
    "NullTracer",
    "Rollup",
    "RuleStats",
    "SchemaError",
    "StalenessTracker",
    "TimeSeriesSampler",
    "TraceCollector",
    "TraceEvent",
    "Tracer",
    "check",
    "chrome_trace_events",
    "ensure_parent",
    "export_trace",
    "freshness_sections",
    "log_bounds",
    "read_jsonl",
    "read_series_jsonl",
    "sparkline",
    "stats_report",
    "stats_snapshot",
    "validate",
    "write_chrome_trace",
    "write_jsonl",
    "write_series_jsonl",
]
