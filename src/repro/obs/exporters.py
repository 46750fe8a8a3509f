"""Standard-format metric exporter: Prometheus text.

A SEA-style production alignment service ("SEA: A Scalable Entity
Alignment System") treats scrapeable metrics as table stakes.  This
module renders a :class:`~repro.obs.registry.MetricsRegistry` — or a
serialized ``snapshot()`` of one, e.g. out of a ledger record — in the
Prometheus text exposition format: counters as ``*_total``, gauges
verbatim, histograms as cumulative ``_bucket`` series with the
``_sum``/``_count`` pair and a ``+Inf`` bucket equal to the count.
"""

from __future__ import annotations

import math
import re

from .registry import MetricsRegistry, parse_labelled_name

__all__ = [
    "render_prometheus",
    "sanitize_metric_name",
    "escape_label_value",
]

_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str, namespace: str = "") -> str:
    """A legal Prometheus metric name: ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    out = _NAME_BAD.sub("_", name)
    if namespace:
        out = f"{namespace}_{out}"
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def _sanitize_label_name(name: str) -> str:
    out = _NAME_BAD.sub("_", name).replace(":", "_")
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def escape_label_value(value: str) -> str:
    """Escape per the exposition format: backslash, quote, newline."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_labels(labels: dict, extra: list[tuple[str, str]] | None = None) -> str:
    pairs = [(_sanitize_label_name(k), escape_label_value(v))
             for k, v in sorted(labels.items())]
    pairs += extra or []
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


def _bucket_bound_key(key: str) -> float:
    # snapshot bucket keys look like "le_0.005" / "le_inf"
    text = key[3:] if key.startswith("le_") else key
    return math.inf if text == "inf" else float(text)


def _snapshot_histogram_series(data: dict) -> tuple[list[tuple[float, int]], float, int]:
    """``(per-bucket counts sorted by bound, sum, count)`` from either a
    raw (``bounds``+``counts``) or sparse (``buckets``) snapshot."""
    if "bounds" in data and "counts" in data:
        bounds = [float(b) for b in data["bounds"]] + [math.inf]
        per_bucket = list(zip(bounds, (int(c) for c in data["counts"])))
    else:
        per_bucket = sorted(
            (_bucket_bound_key(key), int(count))
            for key, count in data.get("buckets", {}).items()
        )
        if not per_bucket or per_bucket[-1][0] != math.inf:
            per_bucket.append((math.inf, 0))
    return per_bucket, float(data.get("sum", 0.0)), int(data.get("count", 0))


def render_prometheus(
    source: MetricsRegistry | dict,
    namespace: str = "repro",
) -> str:
    """The registry (or one of its snapshots) in Prometheus text format.

    Counter samples gain the conventional ``_total`` suffix; histogram
    ``_bucket`` series are cumulative with a final ``le="+Inf"`` bucket
    equal to ``_count``.  Output is sorted, ending with the format's
    trailing newline, ready for an HTTP ``/metrics`` body
    (``QueryEngine.metrics_text()`` serves exactly this).
    """
    snapshot = source.snapshot() if isinstance(source, MetricsRegistry) \
        else source

    lines: list[str] = []
    for kind in ("counters", "gauges", "histograms"):
        series = snapshot.get(kind, {})
        by_name: dict[str, list[tuple[dict, object]]] = {}
        for key in sorted(series):
            name, labels = parse_labelled_name(key)
            by_name.setdefault(name, []).append((labels, series[key]))
        for name, rows in by_name.items():
            out_name = sanitize_metric_name(name, namespace)
            if kind == "counters":
                if not out_name.endswith("_total"):
                    out_name += "_total"
                lines.append(f"# TYPE {out_name} counter")
                for labels, value in rows:
                    lines.append(f"{out_name}{_format_labels(labels)} "
                                 f"{_format_value(value)}")
            elif kind == "gauges":
                lines.append(f"# TYPE {out_name} gauge")
                for labels, value in rows:
                    lines.append(f"{out_name}{_format_labels(labels)} "
                                 f"{_format_value(value)}")
            else:
                lines.append(f"# TYPE {out_name} histogram")
                for labels, data in rows:
                    per_bucket, total_sum, count = \
                        _snapshot_histogram_series(data)
                    cumulative = 0
                    for bound, bucket_count in per_bucket:
                        if math.isinf(bound):
                            continue
                        cumulative += bucket_count
                        lines.append(
                            f"{out_name}_bucket"
                            f"{_format_labels(labels, [('le', _format_value(bound))])} "
                            f"{cumulative}"
                        )
                    # the +Inf bucket is the total observation count by
                    # definition, even when sparse snapshots dropped
                    # zero-count buckets
                    lines.append(
                        f"{out_name}_bucket"
                        f"{_format_labels(labels, [('le', '+Inf')])} "
                        f"{count}"
                    )
                    lines.append(f"{out_name}_sum{_format_labels(labels)} "
                                 f"{_format_value(total_sum)}")
                    lines.append(f"{out_name}_count{_format_labels(labels)} "
                                 f"{count}")
    return "\n".join(lines) + "\n" if lines else ""
