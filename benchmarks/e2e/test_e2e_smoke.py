"""Smoke tests of the end-to-end benchmark (run with ``pytest benchmarks/e2e``).

They run ``run.py --smoke`` (same code paths and checks as a real run, at
tiny sizes) and hold its output to the metric names and units that
``BENCHMARK.json`` declares, and check that the serving top-1 check
catches a store whose rows no longer match their entity names.  The
rest test the statistics and the quality checks of ``run.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from e2e_workloads import (WORKLOADS, combine, snapshot_all,  # noqa: E402
                           top1_mismatches)
from run import _check_quality, _quality_verdict, _summary  # noqa: E402
from repro import benchmark_pair  # noqa: E402
from repro.approaches import ApproachConfig, get_approach  # noqa: E402
from repro.pipeline import EmbeddingSnapshot  # noqa: E402
from repro.serve import EmbeddingStore, QueryEngine  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_emits_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--smoke", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {entry["name"]: entry["unit"] for entry in declared}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in CONFIG["workloads"]] == list(WORKLOADS)


def test_permuted_store_fails_top1_check(tmp_path):
    pair = benchmark_pair("EN-FR", size=300, seed=0, method="direct")
    approach = get_approach("MTransE", ApproachConfig(dim=16, epochs=2))
    approach.fit(pair, pair.five_fold_splits(seed=0)[0])
    snapshot = snapshot_all(approach, pair)
    probes = snapshot.sources[:64]

    def mismatches(snap, root):
        store = EmbeddingStore(root)
        store.save(snap)
        engine = QueryEngine(store.load(), index="exact", cache_size=0)
        return top1_mismatches(engine, approach, probes)

    order = np.random.default_rng(0).permutation(len(snapshot.targets))
    permuted = EmbeddingSnapshot(
        snapshot.sources, snapshot.source_matrix,
        snapshot.targets, snapshot.target_matrix[order])
    assert mismatches(snapshot, tmp_path / "intact") == 0
    assert mismatches(permuted, tmp_path / "permuted") > len(probes) // 2


def test_quartiles_stay_within_the_data():
    two = _summary([1.0, 3.0])
    assert (two["q1"], two["median"], two["q3"]) == (1.5, 2.0, 2.5)
    three = _summary([4.0, 1.0, 2.0])
    assert (three["q1"], three["median"], three["q3"]) == (1.5, 2.0, 3.0)
    one = _summary([5.0])
    assert (one["q1"], one["median"], one["q3"], one["n"]) == (5.0,) * 3 + (1,)


def test_combine_takes_each_unit_at_its_fastest_try():
    def repeat(slowness, rss):
        # one try per pass; the second pass of this repeat ran
        # ``slowness`` times slower than the first
        def timed(*seconds):
            return [list(seconds), [x * slowness for x in seconds]]
        return {"tries": {"setup": [[1.0], [1.0 * slowness], [1.0]],
                          "train": timed(2.0, 1.0),
                          "eval": timed(0.5, 0.25),
                          "query": timed(0.001, 0.002, 0.004),
                          "replay": timed(1.0, 1.0), "scan": timed(0.5)},
                "peak_rss_mb": rss, "replay_answers": 100,
                "scan_sources": 10}

    # stalled tries do not count; the set-up is the median of six tries
    combined = combine([repeat(2.0, 100.0), repeat(3.0, 120.0)])
    assert combined["setup_s"] == 1.0 and combined["train_s"] == 3.0
    assert combined["eval_s"] == 0.75 and combined["peak_rss_mb"] == 110.0
    assert combined["query_p50_ms"] == pytest.approx(2.0)
    assert combined["replay_qps"] == 50.0 and combined["scan_qps"] == 20.0
    assert combined["fixed_work_s"] == pytest.approx(3.0 + 0.75 + 0.007
                                                     + 2.0 + 0.5)


def test_compare_holds_quality_to_an_absolute_bound():
    def verdict(value):
        return _quality_verdict(0.234, value).split("(")[0]

    assert verdict(0.180) == "regressed"
    assert verdict(0.228) == "regressed"
    assert verdict(0.230) == "ok"
    assert verdict(0.240) == "improved"


def test_quality_below_the_pinned_value_fails():
    pinned = {"hits1": 0.234, "mrr": 0.29, "dangling_f1": 0.17,
              "recall10": 0.6}
    failures = []
    assert _check_quality([pinned, pinned], pinned, failures) == (8, 0)
    dropped = {**pinned, "hits1": 0.18}
    assert _check_quality([dropped], pinned, failures) == (8, 1)
    assert _check_quality([pinned, dropped], None, failures) == (4, 1)
    assert len(failures) == 2
