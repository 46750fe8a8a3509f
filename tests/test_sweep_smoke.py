"""Fast end-to-end sweep tests (tier-1): a toy sweep through the real
scheduler, checking parallel == serial bit-identity, halving pruning,
workdir resume, ledger tagging and `cross_validate(jobs=N)`."""

import os

import pytest

from repro.fingerprint import config_fingerprint
from repro.obs import RunLedger, sweep_where
from repro.orchestrate import parse_spec, payload_metrics, run_sweep

RAW_SPEC = {
    "sweep": {"name": "toy", "n_folds": 2, "seed": 0, "epochs": 4},
    "halving": {"min_epochs": 1, "eta": 2},
    "datasets": [{"family": "EN-FR", "size": 120, "method": "direct"}],
    "approaches": [
        {"name": "MTransE", "config": {"dim": 8, "valid_every": 2},
         "grid": {"lr": [0.01, 0.05, 0.2, 1.0]}},
        {"name": "JAPE", "config": {"dim": 8}},
    ],
}


def _spec():
    return parse_spec(RAW_SPEC)


@pytest.fixture(scope="module")
def serial_result():
    return run_sweep(_spec(), jobs=1, record=False)


def test_serial_sweep_shape(serial_result):
    # tuning: 4 candidates @rung0 + 2 @rung1; final: 2 approaches x 2 folds
    assert len(serial_result.job_payloads) == 10
    assert len(serial_result.stats.executed) == 10
    assert not serial_result.stats.failed
    assert set(serial_result.tables) == {("MTransE", "EN-FR-120-V1"),
                                         ("JAPE", "EN-FR-120-V1")}
    for cv in serial_result.tables.values():
        assert len(cv.folds) == 2
    table = serial_result.format()
    assert "MTransE" in table and "winner" in table


def test_halving_prunes_at_least_half_of_bad_grid(serial_result):
    # the deliberately-bad grid (lr from 0.01 to 1.0) loses >= 50% of
    # its candidates at rung 0, before anything trains the full budget
    pruned = serial_result.pruned[("MTransE", "EN-FR-120-V1")]
    assert len(pruned) >= 2
    winner = serial_result.winners[("MTransE", "EN-FR-120-V1")]
    assert winner and winner not in pruned
    # pruned candidates never trained at the full 4-epoch budget
    for payload in serial_result.job_payloads.values():
        if payload["candidate"] in pruned:
            assert payload["epochs"] < 4


def test_parallel_sweep_is_bit_identical_to_serial(serial_result):
    parallel = run_sweep(_spec(), jobs=4, record=False)
    assert parallel.job_payloads.keys() == serial_result.job_payloads.keys()
    for job_id, payload in serial_result.job_payloads.items():
        assert payload_metrics(payload) == \
            payload_metrics(parallel.job_payloads[job_id])
    assert parallel.winners == serial_result.winners
    assert not parallel.stats.failed


def test_sweep_resume_restores_everything(tmp_path, serial_result):
    workdir = tmp_path / "sweep"
    first = run_sweep(_spec(), jobs=2, record=False, workdir=workdir)
    assert len(first.stats.executed) == 10
    assert (workdir / "sweep_progress.json").is_file()
    resumed = run_sweep(_spec(), jobs=2, record=False, workdir=workdir)
    assert not resumed.stats.executed
    assert len(resumed.stats.restored) == 10
    for job_id, payload in serial_result.job_payloads.items():
        assert payload_metrics(payload) == \
            payload_metrics(resumed.job_payloads[job_id])


def test_sweep_records_tagged_with_sweep_id(tmp_path, monkeypatch):
    ledger_path = tmp_path / "ledger.jsonl"
    monkeypatch.setenv("REPRO_LEDGER_PATH", str(ledger_path))
    spec = _spec()
    result = run_sweep(spec, jobs=1)
    records, skipped = RunLedger(ledger_path).read()
    assert not skipped
    # one record per executed job + the summary record
    assert len(records) == len(result.stats.executed) + 1
    matching = [r for r in records if sweep_where(spec.sweep_id)(r)]
    assert len(matching) == len(records)
    assert [r for r in records if sweep_where("toy")(r)] == matching
    # the fingerprint excludes the sweep id: identical job configs stay
    # comparable across different sweeps of the same spec
    job_records = [r for r in records if not r["name"].endswith("summary")]
    for record in job_records:
        config = dict(record["config"])
        config.pop("sweep_id")
        assert record["fingerprint"] == config_fingerprint(config)


def test_cross_validate_parallel_matches_serial(enfr_pair):
    from repro.approaches import ApproachConfig, MTransE
    from repro.pipeline.runner import cross_validate

    def factory():
        return MTransE(ApproachConfig(dim=8, epochs=3, seed=7,
                                      batch_size=512))

    serial = cross_validate(factory, enfr_pair, n_folds=2, jobs=1)
    parallel = cross_validate(factory, enfr_pair, n_folds=2, jobs=2)
    assert len(parallel.folds) == 2
    for a, b in zip(serial.folds, parallel.folds):
        assert a.metrics.hits == b.metrics.hits
        assert a.metrics.mrr == b.metrics.mrr
        assert a.log.losses == b.log.losses


def test_cross_validate_parallel_writes_progress(tmp_path, enfr_pair):
    from repro.approaches import ApproachConfig, MTransE
    from repro.pipeline.runner import cross_validate

    def factory():
        return MTransE(ApproachConfig(dim=8, epochs=3, seed=7,
                                      batch_size=512))

    workdir = tmp_path / "cv"
    first = cross_validate(factory, enfr_pair, n_folds=2, jobs=2,
                           checkpoint_dir=workdir)
    assert (workdir / "cv_progress.json").is_file()
    resumed = cross_validate(factory, enfr_pair, n_folds=2, jobs=2,
                             checkpoint_dir=workdir)
    assert resumed.status == "resumed"
    for a, b in zip(first.folds, resumed.folds):
        assert a.metrics.hits == b.metrics.hits


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup needs >= 4 cores; on smaller boxes "
                           "`make sweep-smoke` still reports the ratio")
def test_parallel_sweep_speeds_up(serial_result):
    import time

    started = time.perf_counter()
    run_sweep(_spec(), jobs=4, record=False)
    parallel_seconds = time.perf_counter() - started
    assert parallel_seconds < serial_result.seconds
