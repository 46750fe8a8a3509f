"""Unit tests for the repro.obs telemetry layer.

Tracer timing uses injected fake clocks so span durations are exact and
deterministic; registry and histogram semantics are checked directly.
"""

import json
import threading

import pytest

from repro import obs
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.trace import Tracer, events_to_chrome


class FakeClock:
    """A monotonic clock advanced explicitly by the test."""

    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_tracer():
    wall, cpu = FakeClock(100.0), FakeClock(50.0)
    rss = FakeClock(0.0)
    tracer = Tracer(clock=wall, cpu_clock=cpu, rss=lambda: int(rss.now))
    return tracer, wall, cpu, rss


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------
class TestTracer:
    def test_span_records_wall_cpu_and_rss(self):
        tracer, wall, cpu, rss = make_tracer()
        with tracer.span("work", kind="unit"):
            wall.advance(2.0)
            cpu.advance(1.5)
            rss.advance(4096)
        (event,) = tracer.events
        assert event["name"] == "work"
        assert event["dur_s"] == pytest.approx(2.0)
        assert event["cpu_s"] == pytest.approx(1.5)
        assert event["rss_peak_delta_bytes"] == 4096
        assert event["attrs"] == {"kind": "unit"}
        assert event["parent_id"] is None
        assert event["depth"] == 0

    def test_nesting_links_parent_ids_and_depths(self):
        tracer, wall, _, _ = make_tracer()
        with tracer.span("outer") as outer:
            wall.advance(1.0)
            with tracer.span("inner") as inner:
                wall.advance(3.0)
            wall.advance(1.0)
        by_name = {e["name"]: e for e in tracer.events}
        assert by_name["inner"]["parent_id"] == outer.id
        assert by_name["inner"]["depth"] == 1
        assert by_name["inner"]["dur_s"] == pytest.approx(3.0)
        assert by_name["outer"]["dur_s"] == pytest.approx(5.0)
        assert by_name["outer"]["depth"] == 0
        # children close (and are recorded) before their parent
        assert tracer.events[0]["name"] == "inner"
        assert inner.parent_id == outer.id

    def test_span_set_attaches_attributes(self):
        tracer, _, _, _ = make_tracer()
        with tracer.span("epoch") as s:
            s.set(loss=0.25)
        assert tracer.events[0]["attrs"]["loss"] == 0.25

    def test_exception_is_recorded_and_span_closed(self):
        tracer, wall, _, _ = make_tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                wall.advance(1.0)
                raise ValueError("x")
        (event,) = tracer.events
        assert event["error"] == "ValueError"
        assert tracer.current_span is None

    def test_jsonl_round_trip(self, tmp_path):
        tracer, wall, _, _ = make_tracer()
        with tracer.span("a"):
            wall.advance(1.0)
        tracer.event("metrics", "registry", snapshot={"counters": {}})
        path = tmp_path / "events.jsonl"
        tracer.write_jsonl(path)
        events = obs.load_events(path)
        assert [e["type"] for e in events] == ["span", "metrics"]
        assert events[0]["dur_s"] == pytest.approx(1.0)

    def test_distinct_tracers_get_distinct_trace_ids(self):
        assert Tracer().trace_id != Tracer().trace_id

    def test_load_events_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            obs.load_events(path)


class TestChromeTrace:
    def test_schema_matches_trace_event_format(self):
        tracer, wall, _, _ = make_tracer()
        with tracer.span("outer"):
            wall.advance(0.5)
            with tracer.span("inner", epoch=1):
                wall.advance(0.25)
        trace = tracer.chrome_trace()
        # the whole object must survive a JSON round trip
        trace = json.loads(json.dumps(trace))
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        assert len(trace["traceEvents"]) == 2
        for event in trace["traceEvents"]:
            assert event["ph"] == "X"  # complete events
            assert isinstance(event["name"], str)
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert isinstance(event["args"], dict)
        # sorted by start timestamp: outer opened first
        assert trace["traceEvents"][0]["name"] == "outer"
        assert trace["traceEvents"][1]["dur"] == pytest.approx(0.25e6)

    def test_non_span_events_are_skipped(self):
        chrome = events_to_chrome([{"type": "metrics", "name": "x", "ts": 0}])
        assert chrome["traceEvents"] == []


class TestModuleLevelSpan:
    def test_disabled_span_is_shared_noop(self):
        assert obs.get_tracer() is None
        a = obs.span("anything")
        b = obs.span("else")
        assert a is b  # the shared null span: no allocation per call
        with a as s:
            s.set(loss=1.0)  # must not raise

    def test_capture_installs_and_restores(self):
        assert not obs.tracing_enabled()
        before_registry = obs.get_registry()
        with obs.capture() as cap:
            assert obs.tracing_enabled()
            assert obs.get_tracer() is cap.tracer
            assert obs.get_registry() is cap.registry
            with obs.span("inside"):
                pass
        assert not obs.tracing_enabled()
        assert obs.get_registry() is before_registry
        assert [e["name"] for e in cap.events] == ["inside"]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_counter_get_or_create_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("req", side="kg1")
        b = registry.counter("req", side="kg1")
        c = registry.counter("req", side="kg2")
        assert a is b
        assert a is not c
        a.inc()
        a.inc(2)
        assert a.value == 3
        assert c.value == 0

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.counter("m", x="1", y="2")
        b = registry.counter("m", y="2", x="1")
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("m")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("m").inc(-1)

    def test_snapshot_is_sorted_and_plain(self):
        registry = MetricsRegistry()
        registry.counter("z").inc(1)
        registry.counter("a", side="kg2").inc(2)
        registry.counter("a", side="kg1").inc(3)
        registry.gauge("g").set(0.5)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a{side=kg1}", "a{side=kg2}", "z"]
        assert snap["counters"]["a{side=kg1}"] == 3
        assert snap["gauges"]["g"] == 0.5
        json.dumps(snap)  # plain data only

    def test_merge_adds_counters_and_histograms(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("n").inc(2)
        right.counter("n").inc(5)
        right.counter("only_right").inc(1)
        left.gauge("g").set(1.0)
        right.gauge("g").set(7.0)
        left.histogram("h").observe(1.0)
        right.histogram("h").observe(3.0)
        left.merge(right)
        assert left.counter("n").value == 7
        assert left.counter("only_right").value == 1
        assert left.gauge("g").value == 7.0  # last write wins
        assert left.histogram("h").count == 2
        assert left.histogram("h").sum == pytest.approx(4.0)

    def test_reset_zeroes_but_keeps_registration(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")
        counter.inc(5)
        hist = registry.histogram("h")
        hist.observe(1.0)
        registry.reset()
        assert counter.value == 0
        assert hist.count == 0
        assert registry.counter("n") is counter

    def test_thread_safety_exact_counts(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestHistogram:
    def test_exact_percentiles_below_cap(self):
        np = pytest.importorskip("numpy")
        hist = Histogram("h", reservoir_size=1000)
        values = list(np.random.default_rng(0).normal(size=500))
        for v in values:
            hist.observe(v)
        for q in (0, 25, 50, 95, 99, 100):
            assert hist.percentile(q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_reservoir_caps_memory(self):
        hist = Histogram("h", reservoir_size=100)
        for i in range(10_000):
            hist.observe(float(i))
        assert hist.count == 10_000
        assert hist.n_samples == 100
        assert hist.sum == pytest.approx(sum(range(10_000)))
        # the reservoir stays a uniform sample: its median tracks the
        # stream's median well within a loose statistical bound
        assert 2_000 < hist.percentile(50) < 8_000

    def test_bucket_counts(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 50.0):
            hist.observe(v)
        snap = hist.snapshot()
        assert snap["buckets"] == {"le_1": 2, "le_10": 1, "le_inf": 1}
        assert snap["count"] == 4

    def test_empty_percentile_is_nan(self):
        import math
        assert math.isnan(Histogram("h").percentile(50))

    def test_merge_requires_same_buckets(self):
        a = Histogram("h", buckets=(1.0,))
        b = Histogram("h", buckets=(2.0,))
        with pytest.raises(ValueError):
            a._merge_from(b)
