"""Render recorded telemetry: per-phase breakdowns from ``events.jsonl``.

The JSONL event stream written by :class:`~repro.obs.trace.Tracer` (and
by ``repro obs-smoke`` / traced benchmarks) is aggregated here into the
table ``repro obs-report`` prints: one row per span name with call
count, wall time, CPU time, share of the root span and peak-RSS growth.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["load_events", "load_events_tolerant", "load_events_merged",
           "phase_breakdown", "format_phase_table", "format_op_table",
           "format_quality_table"]


def load_events(path) -> list[dict]:
    """Parse a JSON-lines event file (blank lines ignored).

    Strict: the first malformed line raises :class:`ValueError`.  For
    files that may end in a truncated line (an interrupted bench), use
    :func:`load_events_tolerant`.
    """
    events = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}:{lineno}: invalid JSON: {error}") from None
        if not isinstance(event, dict):
            raise ValueError(f"{path}:{lineno}: event must be a JSON object")
        events.append(event)
    return events


def load_events_tolerant(path) -> tuple[list[dict], int]:
    """Like :func:`load_events`, but skip unreadable lines.

    A bench killed mid-write leaves a truncated trailing line; that
    should cost a warning, not the whole report.  Returns the readable
    events plus the count of lines skipped (malformed JSON, non-object
    events, undecodable bytes).
    """
    events: list[dict] = []
    skipped = 0
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1
            continue
        if not isinstance(event, dict):
            skipped += 1
            continue
        events.append(event)
    return events, skipped


def load_events_merged(paths) -> tuple[list[dict], int]:
    """Merge multi-process JSONL event files into one ordered stream.

    Takes the per-worker files a sweep's telemetry writes (each process
    appends to its own file, so no single file is totally ordered) and
    returns one list sorted by ``(trace_id, ts)`` — grouping each
    distributed trace together and time-ordering the spans within it.
    Events without those keys sort first under the empty trace.  Each
    file is read tolerantly: a worker killed mid-write leaves a torn
    trailing line, which is skipped and counted, not fatal.  Span ids
    from events stamped with a ``pid`` are namespaced per process —
    every worker counts its local spans from 1, and colliding ids would
    corrupt :func:`phase_breakdown`'s parent/child accounting.  Returns
    ``(events, skipped_lines)``.
    """
    events: list[dict] = []
    skipped = 0
    for path in paths:
        loaded, bad = load_events_tolerant(path)
        for event in loaded:
            pid = event.get("pid")
            if pid is not None and event.get("type") == "span":
                event = dict(event)
                event["id"] = f"{pid}.{event['id']}"
                if event.get("parent_id") is not None:
                    event["parent_id"] = f"{pid}.{event['parent_id']}"
            events.append(event)
        skipped += bad
    events.sort(key=lambda e: (str(e.get("trace_id", "")),
                               float(e.get("ts_unix", e.get("ts", 0.0)))))
    return events, skipped


def phase_breakdown(events: list[dict]) -> list[dict]:
    """Aggregate span events per name.

    Wall/CPU totals are summed over calls; ``self_s`` subtracts the time
    covered by direct child spans, so phases with instrumented children
    (``epoch`` containing ``forward``…) show their own overhead only.
    Rows come back sorted by exclusive wall time, heaviest first.
    """
    spans = [e for e in events if e.get("type") == "span"]
    child_wall: dict[int, float] = {}
    for event in spans:
        parent = event.get("parent_id")
        if parent is not None:
            child_wall[parent] = child_wall.get(parent, 0.0) + event.get("dur_s", 0.0)

    rows: dict[str, dict] = {}
    for event in spans:
        row = rows.setdefault(event["name"], {
            "name": event["name"], "count": 0, "wall_s": 0.0, "self_s": 0.0,
            "cpu_s": 0.0, "rss_peak_delta_bytes": 0, "min_depth": 1 << 30,
        })
        wall = float(event.get("dur_s", 0.0))
        row["count"] += 1
        row["wall_s"] += wall
        row["self_s"] += wall - child_wall.get(event.get("id"), 0.0)
        row["cpu_s"] += float(event.get("cpu_s", 0.0))
        row["rss_peak_delta_bytes"] = max(
            row["rss_peak_delta_bytes"], int(event.get("rss_peak_delta_bytes", 0))
        )
        row["min_depth"] = min(row["min_depth"], int(event.get("depth", 0)))
    out = sorted(rows.values(), key=lambda r: (-r["self_s"], r["name"]))
    for row in out:
        if row["min_depth"] == 1 << 30:
            row["min_depth"] = 0
    return out


def format_phase_table(events: list[dict]) -> str:
    """The human-readable per-phase table ``obs-report`` prints."""
    rows = phase_breakdown(events)
    if not rows:
        return "no span events"
    roots = [e for e in events
             if e.get("type") == "span" and e.get("parent_id") is None]
    total = sum(float(e.get("dur_s", 0.0)) for e in roots) or 1.0
    lines = [
        f"{'phase':<24s} {'calls':>7s} {'wall s':>9s} {'self s':>9s} "
        f"{'cpu s':>9s} {'share':>6s} {'peak-rss Δ':>11s}"
    ]
    for row in rows:
        rss = row["rss_peak_delta_bytes"]
        rss_text = f"{rss / 1024 / 1024:.1f} MB" if rss else "-"
        indent = " " * min(row["min_depth"], 6)
        name = (indent + row["name"])[:24]
        lines.append(
            f"{name:<24s} {row['count']:7d} {row['wall_s']:9.3f} "
            f"{row['self_s']:9.3f} {row['cpu_s']:9.3f} "
            f"{row['self_s'] / total:6.1%} {rss_text:>11s}"
        )
    lines.append(f"{'total (root spans)':<24s} {len(roots):7d} {total:9.3f}")
    return "\n".join(lines)


def format_quality_table(records: list[dict]) -> str:
    """Render a quality learning curve (``quality.jsonl`` probe records
    or ``TrainingLog.probes`` entries) as the per-epoch table the
    ``obs-quality`` and ``train`` verbs print.

    Accepts the raw record stream: non-probe records (sentinel events,
    unknown future kinds) pass through as annotation lines after the
    table rather than breaking it.
    """
    probes = [r for r in records if r.get("type", "probe") == "probe"]
    sentinels = [r for r in records if r.get("type") == "sentinel"]
    if not probes and not sentinels:
        return "no quality probe records"
    lines = []
    if probes:
        lines.append(
            f"{'epoch':>5s} {'loss':>10s} {'H@1':>6s} {'H@5':>6s} "
            f"{'H@10':>6s} {'MRR':>6s} {'drift':>7s} {'collapse':>8s} "
            f"{'grad-ewma':>10s}"
        )
        for probe in probes:
            lines.append(
                f"{int(probe.get('epoch', 0)):>5d} "
                f"{float(probe.get('loss', 0.0)):>10.4f} "
                f"{float(probe.get('hits_at_1', 0.0)):>6.3f} "
                f"{float(probe.get('hits_at_5', 0.0)):>6.3f} "
                f"{float(probe.get('hits_at_10', 0.0)):>6.3f} "
                f"{float(probe.get('mrr', 0.0)):>6.3f} "
                f"{float(probe.get('drift', 0.0)):>7.4f} "
                f"{float(probe.get('collapse_ratio', 0.0)):>8.3f} "
                f"{float(probe.get('grad_norm_ewma', 0.0)):>10.3g}"
            )
    for sentinel in sentinels:
        lines.append(
            f"sentinel @ epoch {int(sentinel.get('epoch', 0))}: "
            f"{sentinel.get('reason', '?')}"
        )
    return "\n".join(lines)


def format_op_table(events: list[dict], top: int = 15) -> str:
    """Render ``op_profile`` events (written by ``obs-smoke``), if any."""
    op_events = [e for e in events if e.get("type") == "op_profile"]
    if not op_events:
        return ""
    rows = []
    for event in op_events:
        rows.extend(event.get("ops", []))
    if not rows:
        return ""
    total = sum(float(r.get("self_s", 0.0)) for r in rows) or 1.0
    lines = [f"{'op':<22s} {'calls':>8s} {'self s':>9s} {'share':>6s}"]
    for row in sorted(rows, key=lambda r: -float(r.get("self_s", 0.0)))[:top]:
        lines.append(
            f"{row.get('kind', '?'):<22s} {int(row.get('count', 0)):8d} "
            f"{float(row.get('self_s', 0.0)):9.4f} "
            f"{float(row.get('self_s', 0.0)) / total:6.1%}"
        )
    return "\n".join(lines)
