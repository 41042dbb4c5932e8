"""Trace/metrics exporters: JSONL, Chrome ``trace_event`` JSON, text stats.

Three output formats, all derived from a :class:`~repro.obs.tracer.TraceCollector`
(read through its event log's :class:`~repro.obs.tracer.TraceEvent` view, one
record at a time) or any iterable of :class:`~repro.obs.tracer.TraceEvent`:

* :func:`write_jsonl` / :func:`read_jsonl` — one JSON object per line,
  lossless round-trip of the event stream (grep/jq-friendly);
* :func:`write_chrome_trace` / :func:`chrome_trace_events` — the Chrome
  ``trace_event`` format (the ``{"traceEvents": [...]}`` flavour), loadable
  in Perfetto / ``chrome://tracing``, with one track per server and per
  engine subsystem (txn / rules / unique / sched) plus a queue-depth
  counter track;
* :func:`stats_report` — a plain-text report (counters, histograms,
  per-charge-kind CPU) rendered with :mod:`repro.bench.reporting` tables.

Timestamps in Chrome output are **microseconds of virtual time**.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence, Union

from repro.obs.tracer import TraceCollector, TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import Histogram

EventSource = Union[TraceCollector, Iterable[TraceEvent]]

#: Synthetic process id for the whole virtual-time simulation.
TRACE_PID = 1


def _events_of(source: EventSource) -> Sequence[TraceEvent]:
    if isinstance(source, TraceCollector):
        return source.events
    return source if isinstance(source, Sequence) else list(source)


# ------------------------------------------------------ file-path plumbing


def ensure_parent(path: str) -> None:
    """Create the parent directory of ``path`` if it is missing."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def export_trace(collector: TraceCollector, path: str) -> int:
    """Write a trace file, picking the format from the extension: Chrome
    ``trace_event`` JSON by default, JSONL when ``path`` ends ``.jsonl``.
    Returns the number of events written.  (The one trace-export policy
    shared by every CLI subcommand.)"""
    ensure_parent(path)
    if path.endswith(".jsonl"):
        return write_jsonl(collector, path)
    return write_chrome_trace(collector, path)


def export_stats(collector: TraceCollector, path: str, title: str) -> Optional[str]:
    """Render the plain-text stats report; write it to ``path``, or return
    it for the caller to print when ``path`` is ``'-'`` (stdout)."""
    text = stats_report(collector, title)
    if path == "-":
        return text
    ensure_parent(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return None


# ------------------------------------------------------------------- JSONL


def event_to_dict(event: TraceEvent) -> dict[str, Any]:
    data: dict[str, Any] = {
        "ts": event.ts,
        "kind": event.kind,
        "name": event.name,
        "track": event.track,
    }
    if event.dur is not None:
        data["dur"] = event.dur
    if event.args:
        data["args"] = event.args
    return data


def event_from_dict(data: dict[str, Any]) -> TraceEvent:
    return TraceEvent(
        ts=data["ts"],
        kind=data["kind"],
        name=data["name"],
        track=data.get("track", "engine"),
        dur=data.get("dur"),
        args=data.get("args", {}),
    )


def write_jsonl(source: EventSource, path: str) -> int:
    """One event per line; returns the number of events written."""
    events = _events_of(source)
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event_to_dict(event)) + "\n")
    return len(events)


def read_jsonl(path: str) -> list[TraceEvent]:
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(event_from_dict(json.loads(line)))
    return events


# ----------------------------------------------------------- Chrome format


def chrome_trace_events(source: EventSource) -> list[dict[str, Any]]:
    """The ``traceEvents`` array: metadata + one entry per trace event.

    Spans (events with a duration) become complete ``"X"`` events, queue
    counters become ``"C"`` events, everything else an instant ``"i"``.
    Tracks map to thread ids within one synthetic process.
    """
    events = _events_of(source)
    tids: dict[str, int] = {}
    out: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": TRACE_PID,
            "tid": 0,
            "args": {"name": "strip-sim"},
        }
    ]

    def tid_of(track: str) -> int:
        tid = tids.get(track)
        if tid is None:
            tid = tids[track] = len(tids) + 1
            out.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": TRACE_PID,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return tid

    for event in events:
        entry: dict[str, Any] = {
            "name": event.name,
            "cat": event.kind,
            "ts": event.ts * 1e6,
            "pid": TRACE_PID,
            "tid": tid_of(event.track),
        }
        if event.kind.startswith("counter."):
            entry["ph"] = "C"
            entry["args"] = dict(event.args)
        elif event.dur is not None:
            entry["ph"] = "X"
            entry["dur"] = event.dur * 1e6
            if event.args:
                entry["args"] = dict(event.args)
        else:
            entry["ph"] = "i"
            entry["s"] = "t"  # thread-scoped instant
            if event.args:
                entry["args"] = dict(event.args)
        out.append(entry)
    return out


def write_chrome_trace(source: EventSource, path: str) -> int:
    """Write ``{"traceEvents": [...]}`` JSON; returns the event count
    (excluding metadata records)."""
    events = _events_of(source)
    document = {
        "traceEvents": chrome_trace_events(events),
        "displayTimeUnit": "ms",
        "otherData": {"clock": "virtual-seconds", "source": "repro.obs"},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return len(events)


# ------------------------------------------------------------ text report


def _histogram_section(name: str, histogram: "Histogram") -> str:
    # Imported here, not at module level: repro.bench's package __init__
    # pulls in the experiment harness, which imports repro.database, which
    # imports this package — a cycle at import time but not at call time.
    from repro.bench.reporting import format_table

    if histogram.count == 0:
        return f"histogram {name}: (empty)"
    # Quantiles are the headline (p50/p95/p99 are upper-bucket-bound
    # estimates); the raw bucket table stays available programmatically
    # via Histogram.bucket_rows().
    return format_table([histogram.quantile_row()], f"histogram {name}")


def stats_report(collector: TraceCollector, title: str = "Trace statistics") -> str:
    """Counters, histograms, and the CPU breakdown as one text report."""
    from repro.bench.reporting import format_table

    rollup = collector.rollup()
    sections = [f"{title}\n{'=' * len(title)}"]
    counter_rows = [
        {"counter": name, "value": value} for name, value in sorted(rollup.counters.items())
    ]
    sections.append(format_table(counter_rows, "Event counters"))
    gauge_rows = [{"gauge": name, **gauge} for name, gauge in sorted(rollup.gauges.items())]
    sections.append(format_table(gauge_rows, "Gauges"))
    for name, histogram in sorted(rollup.histograms.items()):
        sections.append(_histogram_section(name, histogram))
    staleness_rows = collector.staleness.view_rows()
    if staleness_rows:
        sections.append(
            format_table(staleness_rows, "Derived-view staleness (virtual seconds)")
        )
    rule_rows = collector.staleness.rule_rows()
    if rule_rows:
        sections.append(
            format_table(rule_rows, "Per-rule staleness (virtual seconds)")
        )
    if collector.staleness.lost:
        sections.append(
            f"staleness: {collector.staleness.lost} mutations lost to dropped tasks"
        )
    attribution_rows = collector.attribution().profile_rows()
    if attribution_rows:
        sections.append(format_table(attribution_rows, "Per-rule cost attribution"))
    if collector.timeseries is not None and collector.timeseries.samples:
        sections.append(
            format_table(
                collector.timeseries.summary_rows(),
                f"Time series ({len(collector.timeseries.samples)} samples, "
                f"every {collector.timeseries.interval:g}s virtual)",
            )
        )
    cpu_rows = collector.cpu_rows()
    if cpu_rows:
        sections.append(format_table(cpu_rows, "CPU by charge kind (finished tasks)"))
    sections.append(f"events recorded: {len(collector.events)}")
    return "\n\n".join(sections)


# ------------------------------------------------------------- stats JSON


def stats_snapshot(
    collector: TraceCollector, meta: Optional[dict[str, Any]] = None
) -> dict[str, Any]:
    """The full observability state as one JSON-serialisable document.

    This is the ``repro stats --json-out`` payload; its shape is pinned by
    ``docs/schemas/stats_snapshot.schema.json`` (validated in CI with
    :mod:`repro.obs.schema`).
    """
    rollup = collector.rollup()
    return {
        "meta": dict(meta or {}),
        "counters": dict(sorted(rollup.counters.items())),
        "gauges": dict(sorted(rollup.gauges.items())),
        "staleness": collector.staleness.snapshot(),
        "attribution": collector.attribution().snapshot(),
        "series": (
            collector.timeseries.series() if collector.timeseries is not None else []
        ),
        "events": len(collector.events),
    }
