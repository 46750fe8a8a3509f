"""``repro.obs`` — unified telemetry: tracing, metrics, op profiling.

One dependency-free observability layer shared by training
(:mod:`repro.approaches`), the cross-validation pipeline
(:mod:`repro.pipeline`) and serving (:mod:`repro.serve`):

* :class:`MetricsRegistry` — named counters / gauges / histograms with
  labels; thread-safe, snapshot/merge/reset.
* :class:`Tracer` + :func:`span` — nested spans with wall/CPU time and
  peak-RSS deltas, exportable as JSON-lines and Chrome-trace files.
* :class:`OpProfiler` — wraps autodiff op dispatch, backward closures
  and optimizer steps to attribute training time per op kind.

Everything is off by default and zero-cost when off: ``span()`` returns
a shared no-op, and the op profiler patches methods only while enabled.
The one-stop entry point is :func:`capture`::

    from repro import obs

    with obs.capture(profile_ops=True) as cap:
        approach.fit(pair, split)
    cap.write("events.jsonl")              # repro obs-report events.jsonl
    cap.tracer.write_chrome_trace("trace.json")   # chrome://tracing
    print(cap.profiler.format())

See ``docs/observability.md`` for the full guide.
"""

from __future__ import annotations

from .exporters import render_prometheus
from .live import (
    ProgressSink,
    StallDetector,
    append_jsonl,
    format_top,
    open_bus,
    read_state,
    report_progress,
    set_progress_sink,
    tail_jsonl,
)
from .ledger import (
    RunLedger,
    RunRecord,
    config_fingerprint,
    default_ledger,
    env_fingerprint,
    record_run,
    record_sweep_id,
    sweep_where,
    validate_record,
)
from .opprof import (
    OpProfiler,
    OpStat,
    disable_op_profiler,
    enable_op_profiler,
    profile_ops,
)
from .quality import (
    ConformanceReport,
    ConformanceRow,
    QualityMonitor,
    conformance_report,
    load_reference,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    label_snapshot,
    parse_labelled_name,
    set_registry,
)
from .report import (
    format_op_table,
    format_phase_table,
    format_quality_table,
    load_events,
    load_events_merged,
    load_events_tolerant,
    phase_breakdown,
)
from .trace import (
    Tracer,
    events_to_chrome,
    get_tracer,
    peak_rss_bytes,
    peak_rss_children_bytes,
    peak_rss_tree_bytes,
    set_tracer,
    span,
    tracing_enabled,
)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "get_registry", "set_registry", "parse_labelled_name",
    "label_snapshot",
    "Tracer", "span", "get_tracer", "set_tracer", "tracing_enabled",
    "events_to_chrome", "peak_rss_bytes", "peak_rss_children_bytes",
    "peak_rss_tree_bytes",
    "OpProfiler", "OpStat", "enable_op_profiler", "disable_op_profiler",
    "profile_ops",
    "load_events", "load_events_tolerant", "load_events_merged",
    "phase_breakdown", "format_phase_table", "format_op_table",
    "format_quality_table",
    "QualityMonitor", "ConformanceReport", "ConformanceRow",
    "conformance_report", "load_reference",
    "ProgressSink", "report_progress", "set_progress_sink",
    "StallDetector", "read_state", "format_top",
    "tail_jsonl", "open_bus", "append_jsonl",
    "RunLedger", "RunRecord", "record_run", "default_ledger",
    "config_fingerprint", "validate_record",
    "render_prometheus",
    "capture", "Capture",
]


class Capture:
    """An active observability session: tracer + registry (+ profiler)."""

    def __init__(self, profile_ops: bool = False,
                 tracer: Tracer | None = None,
                 registry: MetricsRegistry | None = None):
        self.tracer = tracer or Tracer()
        self.registry = registry or MetricsRegistry()
        self.profiler: OpProfiler | None = None
        self._profile_ops = profile_ops
        self._previous_tracer: Tracer | None = None
        self._previous_registry: MetricsRegistry | None = None

    def __enter__(self) -> "Capture":
        self._previous_tracer = set_tracer(self.tracer)
        self._previous_registry = set_registry(self.registry)
        if self._profile_ops:
            self.profiler = enable_op_profiler()
        return self

    def __exit__(self, *exc):
        if self.profiler is not None:
            disable_op_profiler()
        set_tracer(self._previous_tracer)
        set_registry(self._previous_registry)
        return False

    # ------------------------------------------------------------------
    @property
    def events(self) -> list[dict]:
        return self.tracer.events

    def write(self, path) -> None:
        """Write the full event stream (spans, op profile, metrics
        snapshot) as JSON-lines, ready for ``repro obs-report``."""
        recorded = {e.get("type") for e in self.tracer.events}
        if self.profiler is not None and self.profiler.stats \
                and "op_profile" not in recorded:
            self.tracer.event("op_profile", "autodiff",
                              ops=self.profiler.summary())
        snapshot = self.registry.snapshot()
        if any(snapshot.values()) and "metrics" not in recorded:
            self.tracer.event("metrics", "registry", snapshot=snapshot)
        self.tracer.write_jsonl(path)


def capture(profile_ops: bool = False,
            tracer: Tracer | None = None,
            registry: MetricsRegistry | None = None) -> Capture:
    """Start tracing (and optionally op profiling) for a ``with`` block.

    Installs a fresh tracer and metrics registry as the process-wide
    defaults, restoring the previous ones on exit."""
    return Capture(profile_ops=profile_ops, tracer=tracer, registry=registry)
