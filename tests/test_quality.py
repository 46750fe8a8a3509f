"""Model-quality observability (docs/observability.md).

The contracts under test:

* sampled ranking probes are O(sample²) subset evaluations that agree
  with full ``rank_metrics`` on the subset;
* probes are pure observers — a probed run is bit-identical to a
  probe-off run (they never touch the training RNG) and the overhead
  stays under the 5% budget;
* divergence sentinels abort a doomed run at the epoch boundary well
  before the budget is spent, mark ``TrainingLog.status == "diverged"``
  and stream the reason onto the quality bus;
* monitor state rides in checkpoints, so a crash-resumed run replays
  exactly the same probe history;
* the conformance report's exit-code contract (0 within / 1 drift /
  2 no joinable runs).
"""

import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.alignment.evaluate import (
    rank_metrics,
    sample_candidate_indices,
    sampled_rank_metrics,
)
from repro.approaches import ApproachConfig, MTransE, get_approach
from repro.obs import RunLedger, conformance_report, load_reference


# ---------------------------------------------------------------------------
# sampled ranking metrics
# ---------------------------------------------------------------------------
def test_sample_candidate_indices_full_set_when_sample_covers_n():
    np.testing.assert_array_equal(sample_candidate_indices(5, 0),
                                  np.arange(5))
    np.testing.assert_array_equal(sample_candidate_indices(5, 5),
                                  np.arange(5))
    np.testing.assert_array_equal(sample_candidate_indices(5, 99),
                                  np.arange(5))
    assert sample_candidate_indices(0, 4).size == 0


def test_sample_candidate_indices_sorted_unique_and_deterministic():
    rng = np.random.default_rng(7)
    indices = sample_candidate_indices(100, 10, rng)
    assert indices.shape == (10,)
    assert len(set(indices.tolist())) == 10
    assert sorted(indices.tolist()) == indices.tolist()
    again = sample_candidate_indices(100, 10, np.random.default_rng(7))
    np.testing.assert_array_equal(indices, again)


def test_sampled_rank_metrics_matches_full_eval_on_subset():
    pairs = [(f"s{i}", f"t{i}") for i in range(20)]
    table = np.random.default_rng(0).normal(size=(20, 20))

    def similarity_fn(sources, targets):
        rows = [int(s[1:]) for s in sources]
        cols = [int(t[1:]) for t in targets]
        return table[np.ix_(rows, cols)]

    rng = np.random.default_rng(3)
    sampled = sampled_rank_metrics(similarity_fn, pairs, sample=8, rng=rng)
    indices = sample_candidate_indices(20, 8, np.random.default_rng(3))
    full = rank_metrics(table[np.ix_(indices, indices)],
                        np.arange(len(indices)))
    assert sampled.n == 8
    assert sampled.hits == full.hits
    assert sampled.mrr == full.mrr


def test_sampled_rank_metrics_empty_pairs():
    metrics = sampled_rank_metrics(lambda s, t: np.zeros((0, 0)), [],
                                   sample=8)
    assert metrics.n == 0
    assert metrics.hits_at(1) == 0.0
    assert metrics.mrr == 0.0


# ---------------------------------------------------------------------------
# probes inside fit
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny():
    from repro.datagen import benchmark_pair
    pair = benchmark_pair("EN-FR", size=150, method="direct", seed=0)
    split = pair.split(train_ratio=0.3, valid_ratio=0.1, seed=0)
    return pair, split


BASE = ApproachConfig(dim=16, epochs=10, lr=0.05, batch_size=512,
                      valid_every=0, n_negatives=3, seed=1)


def test_probes_record_curves_and_write_quality_jsonl(tiny, tmp_path):
    pair, split = tiny
    config = dataclasses.replace(BASE, probe_every=5, probe_sample=32)
    approach = MTransE(config)
    log = approach.fit(pair, split,
                       quality_path=tmp_path / "quality.jsonl")
    assert [p["epoch"] for p in log.probes] == [5, 10]
    for probe in log.probes:
        for key in ("hits_at_1", "hits_at_5", "hits_at_10", "mrr",
                    "norm_mean", "drift", "collapse_ratio",
                    "grad_norm_ewma", "grad_nan", "grad_inf"):
            assert key in probe
        assert 0.0 <= probe["hits_at_1"] <= 1.0
        assert 0 < probe["n"] <= 32
    records = [json.loads(line) for line in
               (tmp_path / "quality.jsonl").read_text().splitlines()]
    assert [r["epoch"] for r in records] == [5, 10]
    assert all(r["type"] == "probe" for r in records)
    assert all(r["approach"] == "MTransE" for r in records)


def test_probed_run_is_bit_identical_to_probe_off(tiny, tmp_path):
    """Probes observe: same seeds, same data order, same final params."""
    pair, split = tiny
    plain = MTransE(BASE)
    plain.fit(pair, split)
    probed = MTransE(dataclasses.replace(BASE, probe_every=5,
                                         probe_sample=32))
    log = probed.fit(pair, split, quality_path=tmp_path / "q.jsonl")
    assert log.probes
    for got, expected in zip(probed._parameters(), plain._parameters()):
        np.testing.assert_array_equal(got.data, expected.data)


def test_probe_overhead_under_budget(tiny, tmp_path):
    """probe_every=5 must cost < 5% of training wall time."""
    pair, split = tiny
    config = dataclasses.replace(BASE, epochs=20, probe_every=5,
                                 probe_sample=64)
    approach = MTransE(config)
    log = approach.fit(pair, split)
    assert len(log.probes) == 4
    assert log.train_seconds > 0
    assert log.probe_seconds < 0.05 * log.train_seconds, (
        f"probes cost {log.probe_seconds / log.train_seconds:.1%} "
        f"of training time")


# ---------------------------------------------------------------------------
# divergence sentinels
# ---------------------------------------------------------------------------
def test_sentinel_aborts_diverging_run_before_half_budget(tiny, tmp_path):
    pair, split = tiny
    config = dataclasses.replace(BASE, optimizer="sgd", lr=1e4, epochs=40,
                                 probe_every=2, probe_sample=32,
                                 sentinel=True)
    approach = MTransE(config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        log = approach.fit(pair, split,
                           quality_path=tmp_path / "quality.jsonl")
    assert log.status == "diverged"
    assert log.diverged_reason
    assert log.epochs_run < 0.5 * config.epochs, (
        f"sentinel let the run burn {log.epochs_run}/{config.epochs} "
        f"epochs before aborting")
    records = [json.loads(line) for line in
               (tmp_path / "quality.jsonl").read_text().splitlines()]
    sentinels = [r for r in records if r["type"] == "sentinel"]
    assert len(sentinels) == 1
    assert sentinels[0]["reason"] == log.diverged_reason


def test_sentinel_quiet_on_healthy_run(tiny):
    pair, split = tiny
    config = dataclasses.replace(BASE, sentinel=True, probe_every=5,
                                 probe_sample=32)
    log = MTransE(config).fit(pair, split)
    assert log.status == "completed"
    assert log.diverged_reason == ""
    assert log.epochs_run == config.epochs


class _StubApproach:
    """A frozen approach the monitor can probe: similarity comes from a
    fixed table, so probe trajectories are fully scripted."""

    def __init__(self, config, n=8, invert=False):
        from types import SimpleNamespace
        self.config = config
        self.log = SimpleNamespace(probes=[])
        self.info = SimpleNamespace(name="Stub", metric="cosine")
        self.invert = invert
        rng = np.random.default_rng(0)
        self._emb = {}
        for i in range(n):
            vec = rng.normal(size=4)
            self._emb[f"s{i}"] = vec
            self._emb[f"t{i}"] = vec + rng.normal(scale=0.01, size=4)

    def _parameters(self):
        return []

    def _matrix(self, names):
        return np.stack([self._emb[name] for name in names])

    _source_matrix = _matrix
    _target_matrix = _matrix

    def similarity_between(self, sources, targets):
        sim = self._matrix(sources) @ self._matrix(targets).T
        return -sim if self.invert else sim


def test_stagnation_sentinel_with_patience():
    """Frozen embeddings ⇒ identical probes ⇒ the patience rule trips."""
    from repro.obs.quality import QualityMonitor
    config = ApproachConfig(probe_every=1, probe_sample=0, sentinel=True,
                            sentinel_patience=3, seed=0)
    approach = _StubApproach(config)
    pairs = [(f"s{i}", f"t{i}") for i in range(8)]
    monitor = QualityMonitor(approach, pairs)
    reasons = [monitor.observe(epoch, 1.0) for epoch in range(1, 5)]
    assert reasons[:3] == [None, None, None]
    assert reasons[3] and "stagnation" in reasons[3]


def test_hits_regression_sentinel():
    """A collapse below (1 - sentinel_hits_drop) × best Hits@1 trips."""
    from repro.obs.quality import QualityMonitor
    config = ApproachConfig(probe_every=1, probe_sample=0, sentinel=True,
                            sentinel_hits_drop=0.5, seed=0)
    approach = _StubApproach(config)
    pairs = [(f"s{i}", f"t{i}") for i in range(8)]
    monitor = QualityMonitor(approach, pairs)
    for epoch in range(1, 4):
        assert monitor.observe(epoch, 1.0) is None
    assert monitor.best_hits1 and monitor.best_hits1 > 0.5
    approach.invert = True  # gold pairs become the *worst* candidates
    reason = monitor.observe(4, 1.0)
    assert reason and "regression" in reason


# ---------------------------------------------------------------------------
# crash/resume: probe histories replay exactly
# ---------------------------------------------------------------------------
def test_resumed_run_replays_identical_probe_history(tiny, tmp_path):
    pair, split = tiny
    config = dataclasses.replace(BASE, probe_every=2, probe_sample=32)

    uninterrupted = MTransE(config)
    reference = uninterrupted.fit(pair, split)

    crashed = MTransE(config)
    with faults.inject("epoch.end:nth=5:mode=raise"):
        with pytest.raises(faults.InjectedFault):
            crashed.fit(pair, split, checkpoint_dir=tmp_path,
                        checkpoint_every=1)
    resumed = MTransE(config)
    log = resumed.fit(pair, split, checkpoint_dir=tmp_path,
                      checkpoint_every=1, resume_from=True)
    assert log.status == "resumed"
    for got, expected in zip(resumed._parameters(),
                             uninterrupted._parameters()):
        np.testing.assert_array_equal(got.data, expected.data)
    # drift depends on the previous probe's sampled matrix, so equality
    # here proves the monitor state really rode in the checkpoint
    assert log.probes == reference.probes


# ---------------------------------------------------------------------------
# paper conformance
# ---------------------------------------------------------------------------
def _cv_record(approach="MTransE", dataset="EN-FR-150-V1", run_id="r1",
               **scalars):
    return {
        "run_id": run_id,
        "name": f"cv/{approach}/{dataset}",
        "kind": "cv",
        "config": {"approach": approach, "dataset": {"family": dataset}},
        "scalars": scalars,
    }


REFERENCE = {
    "default_rel_tolerance": 0.15,
    "entries": [
        {"approach": "MTransE", "dataset": "EN-FR",
         "metrics": {"hits_at_1": 0.247, "mrr": 0.351}},
    ],
}


def test_conformance_within_tolerance_exit_0():
    records = [_cv_record(hits_at_1=0.25, mrr=0.36)]
    report = conformance_report(records, REFERENCE)
    assert report.status == "within"
    assert report.exit_code == 0
    assert len(report.rows) == 2
    assert all(row.within for row in report.rows)


def test_conformance_drift_exit_1():
    records = [_cv_record(hits_at_1=0.05, mrr=0.36)]
    report = conformance_report(records, REFERENCE)
    assert report.status == "drift"
    assert report.exit_code == 1
    drifted = report.drifted
    assert [row.metric for row in drifted] == ["hits_at_1"]
    assert drifted[0].rel_delta < -0.5
    assert "DRIFT" in report.format()


def test_conformance_no_joinable_runs_exit_2():
    report = conformance_report([], REFERENCE)
    assert report.status == "no-runs"
    assert report.exit_code == 2
    # a record on a different dataset family doesn't join either
    report = conformance_report(
        [_cv_record(dataset="D-Y-150-V1", hits_at_1=0.25)], REFERENCE)
    assert report.exit_code == 2
    assert report.unmatched == ["MTransE/EN-FR"]


def test_conformance_latest_matching_record_wins():
    records = [_cv_record(run_id="old", hits_at_1=0.05),
               _cv_record(run_id="new", hits_at_1=0.25, mrr=0.36)]
    report = conformance_report(records, REFERENCE)
    assert report.status == "within"


def test_checked_in_reference_tables_load():
    reference = load_reference(
        Path(__file__).resolve().parents[1]
        / "benchmarks" / "reference" / "paper_tables.json")
    assert reference["default_rel_tolerance"] > 0
    entries = reference["entries"]
    assert {e["approach"] for e in entries} >= {"MTransE", "BootEA",
                                               "GCNAlign", "RDGCN"}
    for entry in entries:
        assert 0.0 < entry["metrics"]["hits_at_1"] <= 1.0


def test_cv_records_probe_hits_scalar(tiny, tmp_path, monkeypatch):
    """cross_validate aggregates the last probe's Hits@1 into its ledger
    scalars."""
    from repro.pipeline import cross_validate
    pair, _ = tiny
    monkeypatch.setenv("REPRO_LEDGER_PATH", str(tmp_path / "ledger.jsonl"))
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    config = dataclasses.replace(BASE, epochs=4, probe_every=2,
                                 probe_sample=32)
    result = cross_validate(lambda: get_approach("MTransE", config), pair,
                            n_folds=2, seed=0)
    assert result.status in ("completed", "resumed")
    assert all(fold.log.probes for fold in result.folds)
    records = ledger.records()
    assert records
    scalars = records[-1]["scalars"]
    assert "probe_hits_at_1" in scalars
    assert 0.0 <= scalars["probe_hits_at_1"] <= 1.0
