"""The performance gate: ``benchmarks/e2e/run.py --compare BASE NEW``.

A synthetic results file in the shape ``run.py --out`` writes (every
workload and every end-to-end metric of ``BENCHMARK.json``, each with a
spread under its bound, and every quality value) is compared with
altered copies of itself in a subprocess, as ``make e2e-compare`` does.
The gate must pass an identical copy and timings jittered by up to 5%,
and must fail, naming the metric, a doubled ``train_s`` and a 30% drop
in Hits@1.  Nothing here is timed, so every verdict is deterministic.
"""

import copy
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in CONFIG["workloads"]]
# the quality values the committed baseline records
QUALITY = sorted(json.loads((E2E / "baseline.json").read_text(
    encoding="utf-8"))["workloads"][WORKLOADS[0]]["quality"])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


@pytest.fixture(scope="module")
def base() -> dict:
    """Three runs per metric within 2% of one value: a quartile spread
    of 2%, under every bound of BENCHMARK.json."""
    workloads = {}
    for index, workload in enumerate(WORKLOADS):
        end_to_end = {}
        for metric in CONFIG["end_to_end"]:
            assert metric["bound"] > 0.02, metric
            value = 10.0 * (index + 1)
            end_to_end[metric["name"]] = _summary(
                [0.98 * value, value, 1.02 * value])
        quality = {name: 0.2 + 0.05 * index for name in QUALITY}
        workloads[workload] = {"end_to_end": end_to_end, "quality": quality}
    return {"seed": 0, "workloads": workloads}


def _gate(tmp_path, base: dict, new: dict) -> tuple[int, dict[str, list]]:
    """Exit code and the verdict cells of each workload's row."""
    base_path, new_path = tmp_path / "base.json", tmp_path / "new.json"
    base_path.write_text(json.dumps(base), encoding="utf-8")
    new_path.write_text(json.dumps(new), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--compare", str(base_path),
         str(new_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode in (0, 1), proc.stderr
    rows = {}
    for line in proc.stdout.splitlines():
        workload, *cells = line.split()
        rows[workload] = cells
    assert sorted(rows) == sorted(WORKLOADS), proc.stdout
    return proc.returncode, rows


def _regressed(rows: dict[str, list]) -> list[str]:
    return [f"{workload} {cell}" for workload, cells in rows.items()
            for cell in cells if "=regressed" in cell]


def test_identical_copy_passes(tmp_path, base):
    code, rows = _gate(tmp_path, base, copy.deepcopy(base))
    assert code == 0 and not _regressed(rows)
    expected = len(CONFIG["end_to_end"]) + len(QUALITY)
    for cells in rows.values():
        assert len(cells) == expected
        assert all(cell.partition("=")[2].startswith("ok(")
                   for cell in cells), cells


@pytest.mark.parametrize("jitter", ["up", "down", "mixed"])
def test_five_percent_jitter_passes(tmp_path, base, jitter):
    """Every timing 5% worse, 5% better, or each run moved at random by
    up to 5% either way.  Quality is deterministic at a seed, so it is
    not jittered."""
    rng = random.Random(0)
    factor = {"up": lambda: 1.05, "down": lambda: 0.95,
              "mixed": lambda: rng.uniform(0.95, 1.05)}[jitter]
    new = copy.deepcopy(base)
    for entry in new["workloads"].values():
        for name, summary in entry["end_to_end"].items():
            entry["end_to_end"][name] = _summary(
                [value * factor() for value in summary["values"]])
    code, rows = _gate(tmp_path, base, new)
    assert code == 0 and not _regressed(rows), rows


def test_doubled_train_s_regresses(tmp_path, base):
    new = copy.deepcopy(base)
    workload = WORKLOADS[0]
    summary = new["workloads"][workload]["end_to_end"]["train_s"]
    new["workloads"][workload]["end_to_end"]["train_s"] = _summary(
        [2.0 * value for value in summary["values"]])
    code, rows = _gate(tmp_path, base, new)
    assert code == 1
    assert _regressed(rows) == [f"{workload} train_s=regressed(+100.0%)"]


def test_hits1_drop_regresses(tmp_path, base):
    new = copy.deepcopy(base)
    workload = WORKLOADS[-1]
    new["workloads"][workload]["quality"]["hits1"] *= 0.7
    code, rows = _gate(tmp_path, base, new)
    assert code == 1
    regressed = _regressed(rows)
    assert len(regressed) == 1
    assert regressed[0].startswith(f"{workload} hits1=regressed(")
