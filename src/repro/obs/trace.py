"""Nested span tracing with wall/CPU time and peak-RSS deltas.

A :class:`Tracer` records a tree of spans — ``span("fit")`` containing
``span("epoch")`` containing ``span("forward")`` … — each carrying wall
time, CPU time and the growth of the process peak RSS while it was open.
Events export as JSON-lines (one event per line, consumed by
``repro obs-report``) and as a self-contained Chrome-trace file that
loads directly into ``chrome://tracing`` / Perfetto.

Instrumentation sites call the module-level :func:`span`; when no tracer
is installed it returns a shared no-op context manager, so a disabled
call costs one global read and one ``None`` check — the zero-cost-when-
off invariant guarded by the overhead test in ``tests/test_obs_integration.py``.

Clocks are injectable for deterministic tests:
``Tracer(clock=fake_wall, cpu_clock=fake_cpu, rss=lambda: 0)``.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time

__all__ = [
    "Tracer",
    "span",
    "get_tracer",
    "set_tracer",
    "tracing_enabled",
    "peak_rss_bytes",
    "peak_rss_children_bytes",
    "peak_rss_tree_bytes",
]


def _ru_maxrss_bytes(who_name: str) -> int:
    """``ru_maxrss`` of ``RUSAGE_SELF`` / ``RUSAGE_CHILDREN``, in bytes."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-unix
        return 0
    peak = resource.getrusage(getattr(resource, who_name)).ru_maxrss
    # Linux reports kilobytes, macOS reports bytes.
    if sys.platform != "darwin":
        peak *= 1024
    return int(peak)


def peak_rss_bytes() -> int:
    """High-water-mark resident set size of this process, in bytes.

    Uses ``getrusage`` (stdlib); returns 0 on platforms without it.
    """
    return _ru_maxrss_bytes("RUSAGE_SELF")


def peak_rss_children_bytes() -> int:
    """High-water mark over all *reaped* child processes, in bytes.

    ``RUSAGE_SELF`` stops at the process boundary, so a pool parent that
    forked its heavy work out reports a tiny peak while its workers ate
    gigabytes.  This is the ``RUSAGE_CHILDREN`` complement: the largest
    peak RSS any waited-for child reached (0 before any child exits).
    """
    return _ru_maxrss_bytes("RUSAGE_CHILDREN")


def peak_rss_tree_bytes() -> int:
    """``max(self, reaped children)`` — what a pool parent should report.

    For a single-process run this equals :func:`peak_rss_bytes`; for a
    scheduler parent it also sees the workers it already reaped.  Live
    (unreaped) workers are invisible here — their heartbeat-reported
    RSS (``repro.orchestrate.telemetry``) is the per-worker source of
    truth while they run.
    """
    return max(peak_rss_bytes(), peak_rss_children_bytes())


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """One active span; records its event on exit."""

    __slots__ = ("_tracer", "name", "attrs", "id", "parent_id", "depth",
                 "_wall0", "_cpu0", "_rss0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.id = 0
        self.parent_id = None
        self.depth = 0

    def set(self, **attrs) -> None:
        """Attach attributes to this span (e.g. ``s.set(loss=0.12)``)."""
        self.attrs.update(attrs)

    def __enter__(self):
        tracer = self._tracer
        tracer._next_id += 1
        self.id = tracer._next_id
        stack = tracer._stack
        self.parent_id = stack[-1].id if stack else None
        self.depth = len(stack)
        stack.append(self)
        self._wall0 = tracer._clock()
        self._cpu0 = tracer._cpu_clock()
        self._rss0 = tracer._rss()
        return self

    def __exit__(self, exc_type, exc, tb):
        tracer = self._tracer
        wall = tracer._clock() - self._wall0
        cpu = tracer._cpu_clock() - self._cpu0
        rss = tracer._rss() - self._rss0
        if tracer._stack and tracer._stack[-1] is self:
            tracer._stack.pop()
        event = {
            "type": "span",
            "name": self.name,
            "id": self.id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "ts": self._wall0 - tracer._epoch,
            "dur_s": wall,
            "cpu_s": cpu,
            "rss_peak_delta_bytes": rss,
        }
        if self.attrs:
            event["attrs"] = self.attrs
        if exc_type is not None:
            event["error"] = exc_type.__name__
        tracer.events.append(event)
        return False


# Process-unique tracer ids: pid plus a monotone counter, so the events
# of several tracers in one interpreter name distinct traces.
_TRACE_COUNTER = itertools.count(1)


class Tracer:
    """Collects span events for one run.

    ``trace_id`` may be supplied to join a distributed trace started in
    another process (a sweep parent hands its own trace id to every
    worker); ``parent_span_id`` then names the remote span the first
    top-level local span should hang under when the event files are
    stitched back together.  ``epoch_unix`` anchors the tracer's
    relative ``ts`` values to the unix epoch so events from different
    processes can be placed on one shared timeline.
    """

    def __init__(self, clock=time.perf_counter, cpu_clock=time.process_time,
                 rss=peak_rss_bytes, *, trace_id: str | None = None,
                 parent_span_id: int | None = None):
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._rss = rss
        self._epoch = clock()
        self._stack: list[_Span] = []
        self._next_id = 0
        self.trace_id = trace_id or f"{os.getpid():x}-{next(_TRACE_COUNTER)}"
        self.parent_span_id = parent_span_id
        self.epoch_unix = time.time()
        self.events: list[dict] = []

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> _Span:
        """A new span context manager nested under the current one."""
        return _Span(self, name, attrs)

    def event(self, type: str, name: str, **fields) -> None:
        """Record a free-form (non-span) event, e.g. a metrics snapshot."""
        record = {"type": type, "name": name, "ts": self._clock() - self._epoch}
        record.update(fields)
        self.events.append(record)

    @property
    def current_span(self) -> _Span | None:
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """All events, one compact sorted-key JSON object per line."""
        return "".join(
            json.dumps(event, sort_keys=True, default=str) + "\n"
            for event in self.events
        )

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    def chrome_trace(self) -> dict:
        """The events as a Chrome Trace Event Format object."""
        return events_to_chrome(self.events)

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, sort_keys=True)


def events_to_chrome(events: list[dict], *, default_pid: int | None = None,
                     process_names: dict[int, str] | None = None) -> dict:
    """Convert span events to the Chrome Trace Event Format.

    Spans become complete (``"ph": "X"``) events with microsecond
    timestamps; the result loads in ``chrome://tracing`` and Perfetto.

    Multi-process traces (the sweep stitcher) stamp each event with its
    originating ``pid``/``tid``; events without one fall back to
    ``default_pid`` (this process by default).  ``process_names`` maps
    pid → human label (e.g. ``{1234: "worker 0"}``) and emits the
    ``process_name`` metadata rows Perfetto uses to title each track.
    """
    trace_events = []
    own_pid = default_pid if default_pid is not None else os.getpid()
    seen_pids: set[int] = set()
    for event in events:
        if event.get("type") != "span":
            continue
        args = dict(event.get("attrs") or {})
        args["cpu_ms"] = round(event.get("cpu_s", 0.0) * 1e3, 3)
        rss = event.get("rss_peak_delta_bytes", 0)
        if rss:
            args["rss_peak_delta_kb"] = rss // 1024
        pid = int(event.get("pid", own_pid))
        seen_pids.add(pid)
        trace_events.append({
            "name": event["name"],
            "ph": "X",
            "ts": event["ts"] * 1e6,
            "dur": event["dur_s"] * 1e6,
            "pid": pid,
            "tid": int(event.get("tid", 1)),
            "cat": "repro",
            "args": args,
        })
    trace_events.sort(key=lambda e: e["ts"])
    metadata = []
    for pid in sorted(seen_pids):
        name = (process_names or {}).get(pid)
        if name is None and process_names is None and pid == own_pid:
            continue  # single-process trace: no row titles needed
        metadata.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": name or f"pid {pid}"},
        })
    return {"traceEvents": metadata + trace_events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# process-wide current tracer
# ---------------------------------------------------------------------------
_TRACER: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The installed tracer, or ``None`` while tracing is disabled."""
    return _TRACER


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install (or clear, with ``None``) the tracer; returns the previous."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def tracing_enabled() -> bool:
    return _TRACER is not None


def span(name: str, **attrs):
    """A span under the installed tracer, or a shared no-op when disabled.

    This is the function instrumentation sites call on hot paths; the
    disabled case allocates nothing.
    """
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return _Span(tracer, name, attrs)
