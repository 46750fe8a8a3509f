"""Quality observability end to end on a tiny pair (docs/observability.md).

One diverging fit and one probe-instrumented 2-fold CV recording into a
temporary ledger, then the contracts around them: the sentinel aborts
the diverging fit in time, the CV records probe curves and a ledger
record with quality scalars, and ``obs-conformance`` keeps its exit
codes against the checked-in paper tables.
"""

import dataclasses
import json
import warnings
from pathlib import Path

import pytest

from repro import benchmark_pair, cli
from repro.approaches import ApproachConfig, get_approach
from repro.obs import RunLedger
from repro.pipeline import cross_validate

REPO = Path(__file__).resolve().parents[1]
REFERENCE = REPO / "benchmarks" / "reference" / "paper_tables.json"


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("quality_smoke")
    pair = benchmark_pair("EN-FR", size=150, method="direct", seed=0)
    split = pair.five_fold_splits(seed=0)[0]
    base = ApproachConfig(dim=16, epochs=8, lr=0.05, batch_size=512,
                          n_negatives=3, seed=0, valid_every=4,
                          probe_every=2, probe_sample=32, sentinel=True)
    # four times the normal budget; the sentinel must abort before half
    diverging = dataclasses.replace(base, optimizer="sgd", lr=1e4,
                                    epochs=base.epochs * 4)
    with warnings.catch_warnings():
        # the overflow is the point: this run is built to explode
        warnings.simplefilter("ignore", RuntimeWarning)
        log = get_approach("MTransE", diverging).fit(
            pair, split, quality_path=out / "diverge.jsonl")
    ledger_path = out / "ledger.jsonl"
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_LEDGER_PATH", str(ledger_path))
        result = cross_validate(
            lambda: get_approach("MTransE", base), pair, n_folds=2, seed=0,
            checkpoint_dir=out / "ckpt")
    return {"log": log, "budget": diverging.epochs, "result": result,
            "ledger": ledger_path, "out": out}


def test_sentinel_trips_and_probed_cv_records_curves(smoke):
    log = smoke["log"]
    assert log.status == "diverged"
    assert log.diverged_reason
    assert log.epochs_run < 0.5 * smoke["budget"]
    # the diverging fit streamed probe + sentinel records onto its bus
    records = [json.loads(line) for line in
               (smoke["out"] / "diverge.jsonl").read_text().splitlines()]
    assert any(r["type"] == "sentinel" for r in records)
    result = smoke["result"]
    assert result.status in ("completed", "resumed")
    assert result.folds[0].log.probes


def test_ledger_carries_quality_scalars(smoke):
    records = RunLedger(smoke["ledger"]).records()
    cv = [r for r in records if r["kind"] == "cv"]
    assert cv
    scalars = cv[-1]["scalars"]
    for metric in ("hits_at_1", "hits_at_5", "hits_at_10", "mrr",
                   "probe_hits_at_1"):
        assert metric in scalars, metric


def test_obs_conformance_exit_codes(smoke, capsys):
    # the reduced-scale CV joins the MTransE/EN-FR reference entry; its
    # numbers are far below the paper's, so: drift (1) at the default
    # tolerance, within (0) with the band wide open
    assert cli.main(["obs-conformance", "--ledger", str(smoke["ledger"]),
                     "--reference", str(REFERENCE)]) == 1
    out = capsys.readouterr().out
    assert "DRIFT" in out and "MTransE" in out
    assert cli.main(["obs-conformance", "--ledger", str(smoke["ledger"]),
                     "--reference", str(REFERENCE),
                     "--rel-tolerance", "1e9"]) == 0
    # an absent/empty ledger has nothing to join: exit 2
    assert cli.main(["obs-conformance",
                     "--ledger", str(smoke["out"] / "missing.jsonl"),
                     "--reference", str(REFERENCE)]) == 2


def test_obs_conformance_json_output(smoke, capsys):
    cli.main(["obs-conformance", "--ledger", str(smoke["ledger"]),
              "--reference", str(REFERENCE), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "drift"
    assert payload["exit_code"] == 1
    assert any(row["metric"] == "hits_at_1" for row in payload["rows"])
