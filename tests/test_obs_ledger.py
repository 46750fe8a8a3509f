"""Run ledger: record schema, queries, compaction, bench wiring.

Covers the ISSUE acceptance criteria: every traced bench appends
exactly one schema-valid RunRecord, ``repro obs-ledger tail`` renders
it, and registry snapshots survive the cross-process JSON round trip
(`snapshot() -> json -> merge_snapshot()`) RunRecords rely on.
"""

import atexit
import json
import sys
from pathlib import Path

import pytest

from repro import cli, obs
from repro.obs import MetricsRegistry
from repro.obs.ledger import (
    RunLedger,
    RunRecord,
    config_fingerprint,
    default_ledger,
    record_run,
    validate_record,
)

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"


def make_record(**overrides) -> RunRecord:
    defaults = dict(kind="bench", name="t", config={"x": 1},
                    scalars={"steps_per_second": 100.0})
    defaults.update(overrides)
    return RunRecord(**defaults)


class TestRunRecord:
    def test_schema_valid_and_round_trips(self):
        record = make_record()
        data = validate_record(record.to_dict())
        again = RunRecord.from_dict(json.loads(json.dumps(data)))
        assert again.to_dict() == data
        assert data["schema_version"] == 1
        assert data["git"].keys() == {"sha", "dirty"}
        assert data["host"]["python"]

    def test_fingerprint_depends_on_config_and_bench_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SIZE", raising=False)
        a = config_fingerprint({"approach": "MTransE"})
        assert a == config_fingerprint({"approach": "MTransE"})
        assert a != config_fingerprint({"approach": "BootEA"})
        monkeypatch.setenv("REPRO_BENCH_SIZE", "9999")
        assert a != config_fingerprint({"approach": "MTransE"})

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("run_id"),
        lambda d: d.update(scalars={"bad": "text"}),
        lambda d: d.update(schema_version=99),
        lambda d: d.update(git="deadbeef"),
    ])
    def test_invalid_records_rejected(self, mutate):
        data = make_record().to_dict()
        mutate(data)
        with pytest.raises(ValueError):
            validate_record(data)

class TestRunLedger:
    def test_append_and_read(self, tmp_path):
        ledger = RunLedger(tmp_path / "sub" / "ledger.jsonl")
        ledger.append(make_record())
        ledger.append(make_record(scalars={"steps_per_second": 90.0}))
        records, skipped = ledger.read()
        assert len(records) == 2 and skipped == 0
        assert len(ledger) == 2

    def test_corrupt_lines_skipped_not_fatal(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(make_record())
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write('{"truncated": \n')
            handle.write("not json at all\n")
        ledger.append(make_record())
        records, skipped = ledger.read()
        assert len(records) == 2
        assert skipped == 2

    def test_try_append_warns_instead_of_raising(self, tmp_path, capsys):
        target = tmp_path / "blocked"
        target.write_text("i am a file, not a directory")
        ledger = RunLedger(target / "ledger.jsonl")
        assert ledger.try_append(make_record()) is None
        assert "warning" in capsys.readouterr().err

    def test_compact_keeps_trailing_per_fingerprint(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        for value in range(10):
            ledger.append(make_record(scalars={"v": float(value)}))
        ledger.append(make_record(config={"x": 2}, scalars={"v": 777.0}))
        kept, dropped = ledger.compact(keep_last=3)
        assert (kept, dropped) == (4, 7)
        values = [r["scalars"]["v"] for r in ledger.records()]
        assert values == [7.0, 8.0, 9.0, 777.0]

    def test_default_ledger_env_gated(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER_PATH", raising=False)
        assert default_ledger() is None
        assert record_run("train", "nothing") is None  # silent no-op
        monkeypatch.setenv("REPRO_LEDGER_PATH",
                           str(tmp_path / "ledger.jsonl"))
        assert default_ledger().path == tmp_path / "ledger.jsonl"
        record = record_run("train", "something",
                            scalars={"ok": 1.0, "skipped_nan": float("nan")})
        assert record is not None
        assert record["scalars"] == {"ok": 1.0}
        assert len(RunLedger(tmp_path / "ledger.jsonl")) == 1


class TestSnapshotRoundTrip:
    """Cross-process snapshot()/merge path the RunRecord relies on."""

    def _populated(self, reservoir_size=10_000) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("serve.queries", index="ivf").inc(42)
        registry.gauge("train.loss").set(0.125)
        hist = registry.histogram("serve.latency_seconds",
                                  buckets=(0.001, 0.01, 0.1),
                                  reservoir_size=reservoir_size)
        for i in range(500):
            hist.observe((i % 100) / 1000.0)
        return registry

    def _round_trip(self, registry) -> MetricsRegistry:
        blob = json.dumps(registry.snapshot(include_raw=True),
                          sort_keys=True)
        fresh = MetricsRegistry()
        fresh.merge_snapshot(json.loads(blob))
        return fresh

    def test_counters_gauges_and_percentiles_below_cap(self):
        registry = self._populated()
        merged = self._round_trip(registry)
        assert merged.counter("serve.queries", index="ivf").value == 42
        assert merged.gauge("train.loss").value == 0.125
        original = registry.histogram("serve.latency_seconds",
                                      buckets=(0.001, 0.01, 0.1))
        copy = merged.histogram("serve.latency_seconds",
                                buckets=(0.001, 0.01, 0.1))
        assert copy.count == original.count == 500
        assert copy.sum == pytest.approx(original.sum)
        for q in (50, 95, 99):
            assert copy.percentile(q) == pytest.approx(
                original.percentile(q))
        assert merged.snapshot() == registry.snapshot()

    def test_percentiles_above_reservoir_cap(self):
        registry = self._populated(reservoir_size=64)
        merged = self._round_trip(registry)
        original = registry.histogram("serve.latency_seconds",
                                      buckets=(0.001, 0.01, 0.1),
                                      reservoir_size=64)
        copy = merged.histogram("serve.latency_seconds",
                                buckets=(0.001, 0.01, 0.1),
                                reservoir_size=64)
        assert original.count == 500 and original.n_samples == 64
        assert copy.n_samples == 64
        # merging into an empty registry preserves the reservoir exactly,
        # so the (estimated) percentiles survive the trip unchanged
        for q in (50, 95, 99):
            assert copy.percentile(q) == pytest.approx(
                original.percentile(q))

    def test_plain_snapshot_histograms_refuse_merge(self):
        registry = self._populated()
        fresh = MetricsRegistry()
        with pytest.raises(ValueError, match="raw"):
            fresh.merge_snapshot(registry.snapshot())


class TestBenchWiring:
    """REPRO_BENCH_TRACE=1 appends exactly one RunRecord per bench."""

    @pytest.fixture
    def bench_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_TRACE", "1")
        ledger_path = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(ledger_path))
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        tracer = obs.get_tracer()
        import _common
        monkeypatch.setattr(_common, "_RECORDED_BENCHES", set())
        yield ledger_path
        # importing _common under REPRO_BENCH_TRACE installs a
        # process-wide tracer and an atexit writer of its events: left
        # behind, they would trace every later test and dump the events
        # into benchmarks/reports/ at exit
        if hasattr(_common, "_write_trace_reports"):
            atexit.unregister(_common._write_trace_reports)
        obs.set_tracer(tracer)

    def test_traced_bench_appends_one_valid_record(self, bench_env,
                                                   tmp_path, monkeypatch):
        import bench_train_throughput as bench

        monkeypatch.setattr(bench, "REPORT_PATH",
                            tmp_path / "BENCH_train_throughput.json")
        bench.run(smoke=True, steps=2)
        records, skipped = RunLedger(bench_env).read()
        assert skipped == 0
        assert len(records) == 1, "exactly one RunRecord per bench"
        record = validate_record(records[0])
        assert record["kind"] == "bench"
        assert record["name"] == "BENCH_train_throughput"
        assert record["scalars"]["steps_per_second"] > 0
        assert record["scalars"]["median_step_ms"] > 0
        # re-rendering the same artifact in-process does not double-count
        import _common
        _common.record_bench("BENCH_train_throughput")
        assert len(RunLedger(bench_env)) == 1

    def test_ledger_holds_one_record_per_run(self, bench_env, tmp_path,
                                             monkeypatch):
        """Each bench process appends its own run, and repeated runs are
        comparable under one fingerprint."""
        import _common
        import bench_train_throughput as bench

        monkeypatch.setattr(bench, "REPORT_PATH",
                            tmp_path / "BENCH_train_throughput.json")
        n_runs = 3
        for _ in range(n_runs):
            # each bench process records once; emulate fresh processes
            _common._RECORDED_BENCHES.discard("BENCH_train_throughput")
            bench.run(smoke=True, steps=2)
        records, skipped = RunLedger(bench_env).read()
        assert skipped == 0
        assert len(records) == n_runs
        assert len({r["run_id"] for r in records}) == n_runs
        assert len({r["fingerprint"] for r in records}) == 1

    def test_report_helper_records_once(self, bench_env, monkeypatch,
                                        tmp_path):
        import _common
        monkeypatch.setattr(_common, "REPORT_DIR", tmp_path)
        _common.report("A Title", ["row"], "fake_table.txt")
        _common.report("A Title again", ["row"], "fake_table.txt")
        records, _ = RunLedger(bench_env).read()
        assert [r["name"] for r in records] == ["fake_table"]
        assert (tmp_path / "fake_table.txt").read_text(
            encoding="utf-8").startswith("== A Title again ==")

    def test_obs_ledger_tail_renders(self, bench_env, capsys):
        record_run("bench", "fig8", config={"bench": "fig8"},
                   scalars={"mean_epoch_seconds": 0.5})
        code = cli.main(["obs-ledger", "tail", "--ledger", str(bench_env)])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig8" in out and "mean_epoch_seconds=0.5" in out
        assert "1 of 1 run(s)" in out

    def test_obs_ledger_show_and_list(self, bench_env, capsys):
        record = record_run("cv", "MTransE/EN-FR", scalars={"mrr": 0.4})
        code = cli.main(["obs-ledger", "show", record["run_id"],
                         "--ledger", str(bench_env)])
        assert code == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["run_id"] == record["run_id"]
        assert cli.main(["obs-ledger", "list",
                         "--ledger", str(bench_env)]) == 0
        capsys.readouterr()

    def test_obs_ledger_empty_and_missing_run(self, tmp_path, capsys):
        missing = str(tmp_path / "none.jsonl")
        assert cli.main(["obs-ledger", "tail", "--ledger", missing]) == 1
        assert cli.main(["obs-ledger", "show", "nope",
                         "--ledger", missing]) == 2
        assert "error" in capsys.readouterr().err


def test_bench_wiring_leaves_no_tracer_behind():
    """Runs after TestBenchWiring: its fixture imports benchmarks/_common
    under REPRO_BENCH_TRACE, which must not leave a tracer installed."""
    assert obs.get_tracer() is None


class TestCrossValidateRecording:
    def test_cv_run_recorded_when_enabled(self, enfr_pair, tmp_path,
                                          monkeypatch):
        from repro.approaches import ApproachConfig
        from repro.approaches.trans_family import MTransE
        from repro.pipeline import cross_validate

        ledger_path = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(ledger_path))
        result = cross_validate(
            lambda: MTransE(ApproachConfig(dim=16, epochs=2,
                                           valid_every=0)),
            enfr_pair, n_folds=1,
        )
        records, skipped = RunLedger(ledger_path).read()
        assert skipped == 0 and len(records) == 1
        record = records[0]
        assert record["kind"] == "cv"
        assert record["name"] == f"MTransE/{enfr_pair.name}"
        assert record["scalars"]["hits_at_1"] == pytest.approx(
            result.mean_std("hits@1")[0])
        assert record["scalars"]["mean_epoch_seconds"] > 0
