"""Exporters: Prometheus text exposition.

The exposition round trip demanded by the ISSUE runs a real serve
session, renders ``QueryEngine.metrics_text()`` and re-parses it with a
minimal line parser, checking the format invariants Prometheus relies
on: cumulative monotone ``_bucket`` series and a ``+Inf`` bucket equal
to ``_count``.
"""

import json
import math

import numpy as np
import pytest

from repro import cli
from repro.obs import MetricsRegistry, render_prometheus
from repro.obs.exporters import escape_label_value, sanitize_metric_name
from repro.serve.engine import QueryEngine
from repro.serve.store import StoredEmbeddings


# ---------------------------------------------------------------------------
# a minimal exposition-format parser (what a scraper sees)
# ---------------------------------------------------------------------------
def parse_prometheus(text: str):
    """``(types, samples)``: metric -> declared type, and a list of
    ``(name, labels, value)`` tuples in file order."""
    types: dict[str, str] = {}
    samples: list[tuple[str, dict, float]] = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            types[name] = kind
            continue
        assert not line.startswith("#"), f"unexpected comment: {line}"
        head, _, raw_value = line.rpartition(" ")
        labels: dict[str, str] = {}
        name = head
        if head.endswith("}"):
            name, _, inner = head.partition("{")
            for part in inner[:-1].split(","):
                key, _, value = part.partition("=")
                assert value.startswith('"') and value.endswith('"'), line
                labels[key] = value[1:-1]
        value = (math.inf if raw_value == "+Inf"
                 else -math.inf if raw_value == "-Inf"
                 else float(raw_value))
        samples.append((name, labels, value))
    return types, samples


def histogram_series(samples, base: str):
    """The ``(buckets, sum, count)`` of one histogram, keyed by its
    non-``le`` label set."""
    series: dict[tuple, dict] = {}
    for name, labels, value in samples:
        if name not in (f"{base}_bucket", f"{base}_sum", f"{base}_count"):
            continue
        plain = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        entry = series.setdefault(plain, {"buckets": [], "sum": None,
                                          "count": None})
        if name == f"{base}_bucket":
            le = labels["le"]
            bound = math.inf if le == "+Inf" else float(le)
            entry["buckets"].append((bound, value))
        elif name == f"{base}_sum":
            entry["sum"] = value
        elif name == f"{base}_count":
            entry["count"] = value
    return series


def assert_histogram_invariants(series):
    assert series, "histogram emitted no series"
    for entry in series.values():
        buckets = entry["buckets"]
        assert buckets, "histogram series without buckets"
        bounds = [bound for bound, _ in buckets]
        assert bounds == sorted(bounds)
        assert bounds[-1] == math.inf, "missing +Inf bucket"
        counts = [count for _, count in buckets]
        assert counts == sorted(counts), "buckets must be cumulative"
        assert counts[-1] == entry["count"], "+Inf bucket != _count"
        assert entry["sum"] is not None


# ---------------------------------------------------------------------------
# round trip over an instrumented serve run
# ---------------------------------------------------------------------------
@pytest.fixture
def engine():
    rng = np.random.default_rng(0)
    source = rng.normal(size=(40, 8))
    target = rng.normal(size=(50, 8))
    stored = StoredEmbeddings(
        version="v001",
        sources=[f"s{i}" for i in range(len(source))],
        targets=[f"t{i}" for i in range(len(target))],
        source_matrix=source,
        target_matrix=target,
    )
    return QueryEngine(stored, k=5, batch_size=16)


class TestPrometheusRoundTrip:
    def test_serve_metrics_text_invariants(self, engine):
        engine.query_batch([f"s{i}" for i in range(30)])
        engine.query_batch(["s0", "s1", "s2"])  # cache hits
        text = engine.metrics_text()
        types, samples = parse_prometheus(text)

        assert types["repro_serve_queries_total"] == "counter"
        assert types["repro_serve_latency_seconds"] == "histogram"
        values = {name: value for name, labels, value in samples
                  if not labels}
        # cache hits never reach the index, so only 30 queries count
        assert values["repro_serve_queries_total"] == 30
        assert values["repro_serve_cache_hits_total"] == 3
        assert_histogram_invariants(
            histogram_series(samples, "repro_serve_latency_seconds"))
        latency = histogram_series(samples, "repro_serve_latency_seconds")
        (entry,) = latency.values()
        assert entry["count"] == engine.metrics.latency.count

    def test_snapshot_json_round_trip_renders_identically(self, engine):
        engine.query_batch(["s0", "s1", "s2"])
        registry = engine.metrics.registry
        blob = json.dumps(registry.snapshot())
        assert render_prometheus(json.loads(blob)) == \
            render_prometheus(registry)

    def test_labelled_and_sparse_snapshot_rendering(self):
        registry = MetricsRegistry()
        registry.counter("req", side="kg1").inc(2)
        registry.counter("req", side="kg2").inc(5)
        registry.gauge("loss").set(0.25)
        hist = registry.histogram("step_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 2.0):
            hist.observe(value)
        types, samples = parse_prometheus(render_prometheus(registry))
        assert types == {
            "repro_req_total": "counter",
            "repro_loss": "gauge",
            "repro_step_seconds": "histogram",
        }
        counters = {labels["side"]: value for name, labels, value in samples
                    if name == "repro_req_total"}
        assert counters == {"kg1": 2, "kg2": 5}
        series = histogram_series(samples, "repro_step_seconds")
        assert_histogram_invariants(series)
        (entry,) = series.values()
        # cumulative: <=0.1 holds 1, <=1.0 holds 3, +Inf holds all 4
        assert entry["buckets"] == [(0.1, 1), (1.0, 3), (math.inf, 4)]
        assert entry["sum"] == pytest.approx(3.05)

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_name_and_label_sanitization(self):
        assert sanitize_metric_name("serve.latency-p99") == \
            "serve_latency_p99"
        assert sanitize_metric_name("2fast", namespace="ns") == "ns_2fast"
        assert sanitize_metric_name("9lives") == "_9lives"
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
        registry = MetricsRegistry()
        registry.counter("serve.queries", **{"index": 'iv"f'}).inc()
        types, samples = parse_prometheus(render_prometheus(registry))
        ((name, labels, value),) = samples
        assert name == "repro_serve_queries_total"
        assert labels["index"] == '\\"'.join(["iv", "f"])


# ---------------------------------------------------------------------------
# CLI export paths
# ---------------------------------------------------------------------------
class TestObsExportCLI:
    def _events_file(self, tmp_path, engine):
        engine.query_batch(["s0", "s1"])
        events = [
            {"type": "span", "name": "fold", "dur_s": 0.1},
            {"type": "metrics", "name": "final",
             "snapshot": engine.metrics.registry.snapshot()},
        ]
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(json.dumps(e) for e in events) + "\n",
                        encoding="utf-8")
        return path

    def test_export_from_events_file(self, tmp_path, engine, capsys):
        path = self._events_file(tmp_path, engine)
        assert cli.main(["obs-export", "--prometheus",
                         "--events", str(path)]) == 0
        types, samples = parse_prometheus(capsys.readouterr().out)
        assert types["repro_serve_queries_total"] == "counter"
        assert_histogram_invariants(
            histogram_series(samples, "repro_serve_latency_seconds"))

    def test_export_to_file(self, tmp_path, engine, capsys):
        events = self._events_file(tmp_path, engine)
        out = tmp_path / "exported" / "metrics.prom"
        assert cli.main(["obs-export", "--prometheus", "--events",
                         str(events), "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        types, _ = parse_prometheus(out.read_text(encoding="utf-8"))
        assert "repro_serve_latency_seconds" in types

    def test_export_requires_format_flag(self, tmp_path, capsys):
        assert cli.main(["obs-export"]) == 2
        assert "--prometheus" in capsys.readouterr().err

    def test_export_missing_sources(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert cli.main(["obs-export", "--prometheus",
                         "--events", str(missing)]) == 2
        assert cli.main(["obs-export", "--prometheus",
                         "--ledger", str(tmp_path / "none.jsonl")]) == 1
        capsys.readouterr()
