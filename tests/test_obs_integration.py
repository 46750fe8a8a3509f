"""Integration tests: telemetry across train / pipeline / serve / CLI.

Covers the ISSUE acceptance criteria: nested fit spans, op-level time
attribution covering >=90% of the traced hot-loop wall time, the
zero-cost-when-off overhead bound, and the ``repro obs-report`` round
trip over a generated ``events.jsonl``.
"""

import json
import time

import numpy as np
import pytest

from repro import cli, obs
from repro.approaches import ApproachConfig, UnsupervisedProcrustes, get_approach
from repro.approaches.trans_family import BootEA, MTransE
from repro.autodiff.tensor import Tensor
from repro.obs.opprof import _FUNCTION_KINDS, _METHOD_KINDS
from repro.pipeline import cross_validate
from repro.serve.metrics import LatencyHistogram, ServingMetrics


# one approach per training family
FAMILIES = ["MTransE", "BootEA", "GCNAlign", "RSN4EA", "MultiKE", "RDGCN",
            "UnsupervisedProcrustes"]


@pytest.fixture
def traced_fit(request, enfr_pair):
    """A 2-epoch fit under full instrumentation: MTransE with negative
    sampling, or the family representative a test parametrizes."""
    name = getattr(request, "param", "MTransE")
    split = enfr_pair.split(train_ratio=0.3, valid_ratio=0.1, seed=0)
    config = ApproachConfig(dim=64, epochs=2, batch_size=512, valid_every=1)
    if name == "MTransE":
        approach = MTransE(config, negative_sampling=True)
    elif name == "UnsupervisedProcrustes":
        approach = UnsupervisedProcrustes(config)
    else:
        approach = get_approach(name, config)
    with obs.capture(profile_ops=True) as cap:
        log = approach.fit(enfr_pair, split)
    return cap, log


class TestInstrumentedTraining:
    def test_fit_emits_nested_spans(self, traced_fit):
        cap, log = traced_fit
        by_name = {}
        for event in cap.events:
            by_name.setdefault(event["name"], []).append(event)
        ids = {e["id"]: e for events in by_name.values() for e in events}

        assert len(by_name["fit"]) == 1
        fit_event = by_name["fit"][0]
        assert fit_event["parent_id"] is None
        assert fit_event["attrs"]["approach"] == "MTransE"
        assert len(by_name["epoch"]) == log.epochs_run == 2

        for epoch_event in by_name["epoch"]:
            assert ids[epoch_event["parent_id"]]["name"] == "fit"
        for leaf in ("neg_sampling", "forward", "backward", "step"):
            assert leaf in by_name, f"missing {leaf} spans"
            for event in by_name[leaf]:
                assert ids[event["parent_id"]]["name"] == "epoch"
        # per-batch spans: same count for every hot-loop phase
        n_steps = len(by_name["step"])
        assert n_steps > 0
        assert len(by_name["forward"]) == n_steps
        assert len(by_name["backward"]) == n_steps
        # epoch wall time contains its children's
        for epoch_event in by_name["epoch"]:
            children = [e for e in cap.events
                        if e.get("parent_id") == epoch_event["id"]]
            assert sum(c["dur_s"] for c in children) <= epoch_event["dur_s"] + 1e-6

    @pytest.mark.parametrize("traced_fit", FAMILIES, indirect=True)
    def test_every_family_steps_inside_epochs(self, traced_fit):
        """Every family trains through the one shared step: its
        forward/backward/step spans sit directly under ``epoch``, and
        their count is both ``steps_run`` and the profiled optimizer
        steps."""
        cap, log = traced_fit
        ids = {e["id"]: e for e in cap.events}
        counts = {"forward": 0, "backward": 0, "step": 0}
        for event in cap.events:
            if event["name"] in counts:
                counts[event["name"]] += 1
                assert ids[event["parent_id"]]["name"] == "epoch"
        assert counts["step"] > 0
        assert counts["forward"] == counts["backward"] == counts["step"]
        assert counts["step"] == log.steps_run
        assert counts["step"] == cap.profiler.stats["optimizer.step"].count

    def test_epoch_loss_attrs_match_log(self, traced_fit):
        cap, log = traced_fit
        epoch_losses = [e["attrs"]["loss"] for e in cap.events
                        if e["name"] == "epoch"]
        assert epoch_losses == pytest.approx(log.losses)

    def test_gauges_recorded(self, traced_fit):
        cap, _ = traced_fit
        gauges = cap.registry.snapshot()["gauges"]
        assert gauges["train.loss{approach=MTransE}"] > 0
        assert gauges["train.grad_norm{approach=MTransE}"] > 0
        assert gauges["train.touched_rows{approach=MTransE}"] > 0

    def test_op_attribution_covers_hot_loop(self, traced_fit):
        """Acceptance: op-level attribution sums to >=90% of the traced
        wall time of the hot-loop spans (forward/backward/step); held on
        MTransE, whose hot loop runs only profiled ops."""
        cap, _ = traced_fit
        hot_wall = sum(e["dur_s"] for e in cap.events
                       if e["name"] in ("forward", "backward", "step"))
        attributed = cap.profiler.total_self_seconds()
        assert hot_wall > 0
        coverage = attributed / hot_wall
        assert coverage >= 0.90, f"op attribution covers only {coverage:.1%}"

    def test_op_kinds_attributed(self, traced_fit):
        cap, _ = traced_fit
        kinds = set(cap.profiler.stats)
        assert {"matmul", "gather", "optimizer.step"} <= kinds
        assert any(kind.endswith(".bwd") for kind in kinds)
        for stat in cap.profiler.stats.values():
            assert stat.count > 0
            assert stat.self_seconds <= stat.total_seconds + 1e-9

    def test_training_log_telemetry_without_tracing(self, enfr_pair,
                                                    fast_config):
        """epoch_seconds / peak_rss_bytes populate on untraced runs too."""
        split = enfr_pair.split(train_ratio=0.3, valid_ratio=0.1, seed=0)
        approach = MTransE(fast_config)
        log = approach.fit(enfr_pair, split)
        assert len(log.epoch_seconds) == log.epochs_run
        assert all(s >= 0 for s in log.epoch_seconds)
        assert log.peak_rss_bytes > 0
        assert sum(log.epoch_seconds) <= log.train_seconds + 1e-6

    def test_epoch_end_spans(self, enfr_pair):
        """The library times BootEA's sampler refresh and bootstrapping
        round itself, one span each under every scheduled epoch."""
        split = enfr_pair.split(train_ratio=0.3, valid_ratio=0.1, seed=0)
        config = ApproachConfig(dim=16, epochs=4, valid_every=0)
        approach = BootEA(config, bootstrap_every=2)
        with obs.capture() as cap:
            log = approach.fit(enfr_pair, split)
        ids = {e["id"]: e for e in cap.events}
        for name in ("sampler_refresh", "bootstrap"):
            events = [e for e in cap.events if e["name"] == name]
            assert [e["attrs"]["epoch"] for e in events] == [2, 4]
            for event in events:
                assert ids[event["parent_id"]]["name"] == "epoch"
        assert len(log.augmentation) == 2


class TestZeroCostWhenOff:
    def test_ops_unpatched_by_default(self):
        for name in _METHOD_KINDS:
            assert not hasattr(getattr(Tensor, name), "__wrapped__"), \
                f"Tensor.{name} left wrapped while profiling is off"
        from repro.autodiff import optim, tensor
        assert not hasattr(optim.Optimizer.step, "__wrapped__")
        for name in _FUNCTION_KINDS:
            assert not hasattr(getattr(tensor, name), "__wrapped__")
        assert tensor._BACKWARD_OP_HOOK is None

    def test_profiler_restores_on_exit(self):
        original = Tensor.__mul__
        with obs.profile_ops():
            assert Tensor.__mul__ is not original
        assert Tensor.__mul__ is original

    def test_double_enable_raises(self):
        with obs.profile_ops():
            with pytest.raises(RuntimeError):
                obs.enable_op_profiler()

    @pytest.fixture
    def disabled_overhead(self, enfr_pair):
        """Measured cost of the disabled instrumentation on a fixed
        50-step run: (estimated overhead seconds, run seconds)."""
        assert not obs.tracing_enabled()
        split = enfr_pair.split(train_ratio=0.3, valid_ratio=0.1, seed=0)
        config = ApproachConfig(dim=32, epochs=10, batch_size=64,
                                valid_every=0)
        approach = MTransE(config, negative_sampling=True)
        started = time.perf_counter()
        log = approach.fit(enfr_pair, split)
        run_seconds = time.perf_counter() - started
        assert log.steps_run >= 50, "fixture must exercise >=50 steps"

        # Per-call cost of a disabled span: enter+exit of the shared
        # no-op, measured over enough calls to dominate timer noise.
        calls = 20_000
        t0 = time.perf_counter()
        for _ in range(calls):
            with obs.span("off"):
                pass
        per_call = (time.perf_counter() - t0) / calls
        # 4 hot-loop spans per step + epoch/normalize/fit framing
        span_calls = 4 * log.steps_run + 3 * log.epochs_run + 2
        return per_call * span_calls, run_seconds

    def test_disabled_overhead_under_5_percent(self, disabled_overhead):
        overhead, run_seconds = disabled_overhead
        assert overhead < 0.05 * run_seconds, (
            f"disabled instrumentation costs {overhead:.4f}s on a "
            f"{run_seconds:.4f}s run ({overhead / run_seconds:.1%} >= 5%)"
        )


class TestPipelineSpans:
    def test_cross_validate_emits_fold_spans(self, enfr_pair):
        with obs.capture() as cap:
            result = cross_validate(
                lambda: MTransE(ApproachConfig(dim=16, epochs=2,
                                               valid_every=0)),
                enfr_pair, n_folds=2,
            )
        names = [e["name"] for e in cap.events]
        assert names.count("fold") == 2
        assert names.count("cross_validate") == 1
        assert names.count("evaluate") == 2
        cv_event = next(e for e in cap.events
                        if e["name"] == "cross_validate")
        assert cv_event["attrs"]["approach"] == "MTransE"
        # spans feed CVResult telemetry
        assert result.mean_epoch_seconds > 0
        assert result.peak_rss_bytes > 0


class TestServingMigration:
    def test_latency_histogram_reservoir_cap(self):
        hist = LatencyHistogram(max_samples=100)
        for i in range(1_000):
            hist.observe(i / 1000.0)
        assert hist.count == 1_000
        assert hist.n_samples == 100  # memory bounded

    def test_latency_percentiles_exact_below_cap(self):
        hist = LatencyHistogram()
        values = list(np.random.default_rng(1).uniform(0, 0.1, size=500))
        for v in values:
            hist.observe(v)
        assert hist.percentile(95) == pytest.approx(
            float(np.percentile(values, 95))
        )
        summary = hist.summary()
        assert summary["count"] == 500
        assert summary["p50_ms"] < summary["p95_ms"] < summary["p99_ms"]

    def test_serving_metrics_api_preserved(self):
        metrics = ServingMetrics(clock=time.perf_counter)
        metrics.record_batch(10, 0.002)
        metrics.record_batch(5, 0.001)
        metrics.record_cache(hits=3, misses=2)
        assert metrics.queries == 15
        assert metrics.batches == 2
        assert metrics.cache_hits == 3
        assert metrics.cache_misses == 2
        assert metrics.cache_hit_rate == pytest.approx(0.6)
        assert metrics.qps == pytest.approx(15 / 0.003)
        assert metrics.latency.count == 2
        assert "p95_ms" in metrics.summary()
        assert "qps" in metrics.format()

    def test_serving_metrics_on_shared_registry(self):
        registry = obs.MetricsRegistry()
        metrics = ServingMetrics(registry=registry)
        metrics.record_batch(4, 0.001)
        snap = registry.snapshot()
        assert snap["counters"]["serve.queries"] == 4
        assert snap["histograms"]["serve.latency_seconds"]["count"] == 1

    def test_two_default_metrics_are_isolated(self):
        a, b = ServingMetrics(), ServingMetrics()
        a.record_batch(3, 0.001)
        assert b.queries == 0


class TestCLIRoundTrip:
    def test_obs_smoke_and_report_round_trip(self, tmp_path, capsys):
        """Tier-1 smoke: obs-smoke generates events.jsonl, obs-report
        renders it and the Chrome export is valid Trace Event JSON."""
        out = tmp_path / "smoke"
        code = cli.main(["obs-smoke", "--out", str(out), "--epochs", "2",
                         "--size", "120", "--dim", "16"])
        assert code == 0
        events_path = out / "events.jsonl"
        assert events_path.is_file()
        assert (out / "trace.json").is_file()

        chrome_path = tmp_path / "chrome.json"
        code = cli.main(["obs-report", str(events_path),
                         "--chrome", str(chrome_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "fit" in output
        assert "epoch" in output
        assert "op profile" in output

        for path in (chrome_path, out / "trace.json"):
            trace = json.loads(path.read_text(encoding="utf-8"))
            assert isinstance(trace["traceEvents"], list)
            assert trace["traceEvents"], "empty Chrome trace"
            for event in trace["traceEvents"]:
                assert event["ph"] == "X"
                assert {"name", "ts", "dur", "pid", "tid"} <= set(event)

        events = obs.load_events(events_path)
        assert any(e.get("type") == "op_profile" for e in events)
        assert any(e.get("type") == "span" and e["name"] == "fit"
                   for e in events)

    def test_obs_report_missing_file(self, tmp_path, capsys):
        code = cli.main(["obs-report", str(tmp_path / "none.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestObsReportTolerance:
    """obs-report over partial/corrupt event files: warn, never crash."""

    SPAN = json.dumps({"type": "span", "name": "fit", "id": 1,
                       "parent_id": None, "depth": 0, "ts": 0.0,
                       "dur_s": 1.0, "cpu_s": 0.9,
                       "rss_peak_delta_bytes": 0})

    def test_corrupt_lines_skipped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text(self.SPAN + '\n{"type": "span", "na\n[1, 2]\n',
                        encoding="utf-8")
        assert cli.main(["obs-report", str(path)]) == 0
        captured = capsys.readouterr()
        assert "skipped 2 unreadable line(s)" in captured.err
        assert "fit" in captured.out

    def test_nothing_readable_exits_1(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text("garbage\n", encoding="utf-8")
        assert cli.main(["obs-report", str(path)]) == 1
        assert "no readable telemetry events" in capsys.readouterr().err

    def test_load_events_strict_vs_tolerant(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(self.SPAN + "\nbroken\n", encoding="utf-8")
        with pytest.raises(ValueError):
            obs.load_events(path)
        events, skipped = obs.load_events_tolerant(path)
        assert len(events) == 1 and skipped == 1
