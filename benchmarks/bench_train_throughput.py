"""Training-step throughput: dense vs sparse gradient path.

Measures the per-step wall-clock cost of a TransE training step (gather
+ margin ranking loss + optimizer update) at several entity-table
scales, with the row-sparse gradient path toggled on and off.  The
dense path pays O(|E|) per step (full-table gradient allocation and a
full-table optimizer update); the sparse path pays O(batch).

A scale is (entities, batch, negatives per positive).  The 4,500-entity
scale, at batch 1,024 with 5 negatives, gathers about 12K entity rows
and 6K relation rows per step, the traffic of BootEA on the e2e
benchmark's ``boot-2.5k`` input; the others gather about 1K entity rows.

Writes ``benchmarks/reports/BENCH_train_throughput.json`` with median
per-step milliseconds, steps/sec and the sparse-over-dense speedup for
each scale.  The acceptance target is a >= 5x median step-time speedup
at 10k entities / batch 256.

Run standalone (full scales)::

    PYTHONPATH=src python benchmarks/bench_train_throughput.py

or as a quick smoke (tiny scales, used by the tier-1 regression test)::

    PYTHONPATH=src python benchmarks/bench_train_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.autodiff import SGD, Adam, set_sparse_gradients
from repro.embedding import TransE, margin_ranking_loss, uniform_corrupt

from _common import report_path, write_json_report

REPORT_PATH = report_path("BENCH_train_throughput.json")

FULL_SCALES = [(1_000, 256, 1), (4_500, 1_024, 5), (10_000, 256, 1)]
SMOKE_SCALES = [(500, 64, 1)]
N_RELATIONS = 20
DIM = 64


def _make_batches(n_entities: int, batch_size: int, steps: int, seed: int):
    rng = np.random.default_rng(seed)
    return [
        np.stack([
            rng.integers(0, n_entities, batch_size),
            rng.integers(0, N_RELATIONS, batch_size),
            rng.integers(0, n_entities, batch_size),
        ], axis=1)
        for _ in range(steps)
    ]


def _run_steps(model, optimizer, batches, n_entities, n_negatives, seed):
    """Run the training steps, returning (per-step seconds, final loss)."""
    negative_rng = np.random.default_rng(seed)
    timings = []
    loss_value = float("nan")
    for batch in batches:
        negatives = uniform_corrupt(batch, n_entities, n_negatives, negative_rng)
        started = time.perf_counter()
        optimizer.zero_grad()
        positive = model.score(batch[:, 0], batch[:, 1], batch[:, 2])
        negative = model.score(negatives[:, 0], negatives[:, 1], negatives[:, 2])
        if n_negatives > 1:
            negative = negative.reshape(-1, n_negatives).mean(axis=1)
        loss = margin_ranking_loss(positive, negative)
        loss.backward()
        optimizer.step()
        timings.append(time.perf_counter() - started)
        loss_value = float(loss.data)
    return np.array(timings), loss_value


def measure_scale(
    n_entities: int,
    batch_size: int,
    steps: int,
    warmup: int,
    optimizer_name: str = "adam",
    seed: int = 0,
    n_negatives: int = 1,
) -> dict:
    """Time dense and sparse paths on identical batches/seeds."""
    batches = _make_batches(n_entities, batch_size, warmup + steps, seed)
    results = {}
    for label, enabled in (("dense", False), ("sparse", True)):
        previous = set_sparse_gradients(enabled)
        try:
            model = TransE(n_entities, N_RELATIONS, DIM, np.random.default_rng(seed))
            if optimizer_name == "adam":
                optimizer = Adam(model.parameters(), lr=0.001)
            else:
                optimizer = SGD(model.parameters(), lr=0.01)
            timings, loss = _run_steps(
                model, optimizer, batches, n_entities, n_negatives, seed=seed + 1
            )
        finally:
            set_sparse_gradients(previous)
        measured = timings[warmup:]
        median_s = float(np.median(measured))
        results[label] = {
            "median_step_ms": median_s * 1e3,
            "mean_step_ms": float(measured.mean()) * 1e3,
            "steps_per_sec": (1.0 / median_s) if median_s > 0 else float("inf"),
            "final_loss": loss,
        }
    results["speedup"] = (
        results["dense"]["median_step_ms"] / results["sparse"]["median_step_ms"]
    )
    results["n_entities"] = n_entities
    results["batch_size"] = batch_size
    results["n_negatives"] = n_negatives
    return results


def run(smoke: bool = False, steps: int | None = None) -> dict:
    scales = SMOKE_SCALES if smoke else FULL_SCALES
    if steps is None:
        steps = 10 if smoke else 30
    warmup = 2 if smoke else 5
    # smoke mode uses SGD: dense/sparse are then *exactly* equivalent at
    # any row coverage, so final losses double as a correctness check
    optimizer_name = "sgd" if smoke else "adam"
    report = {
        "bench": "train_throughput",
        "mode": "smoke" if smoke else "full",
        "optimizer": optimizer_name,
        "dim": DIM,
        "n_relations": N_RELATIONS,
        "steps_timed": steps,
        "warmup_steps": warmup,
        "scales": [],
    }
    for n_entities, batch_size, n_negatives in scales:
        result = measure_scale(
            n_entities, batch_size, steps, warmup, optimizer_name,
            n_negatives=n_negatives,
        )
        report["scales"].append(result)
        print(
            f"  entities={n_entities:>6d} batch={batch_size:<4d} "
            f"negatives={n_negatives} "
            f"dense={result['dense']['median_step_ms']:8.2f} ms/step  "
            f"sparse={result['sparse']['median_step_ms']:8.2f} ms/step  "
            f"speedup={result['speedup']:6.1f}x",
            file=sys.__stdout__,
        )
    write_json_report(REPORT_PATH, report)
    print(f"  wrote {REPORT_PATH}", file=sys.__stdout__)
    return report


def bench_train_throughput(benchmark):
    """pytest-benchmark entry: full scales, asserts the 5x acceptance bar."""
    report = benchmark.pedantic(run, rounds=1, iterations=1)
    largest = report["scales"][-1]
    assert largest["n_entities"] == 10_000
    assert largest["speedup"] >= 5.0, (
        f"sparse path speedup {largest['speedup']:.1f}x < 5x at 10k entities"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny scales + SGD parity check (fast; used by tier-1 tests)",
    )
    parser.add_argument(
        "--steps", type=int, default=None,
        help="timed steps per configuration (default: 30 full, 10 smoke)",
    )
    arguments = parser.parse_args(argv)
    report = run(smoke=arguments.smoke, steps=arguments.steps)
    if arguments.smoke:
        for scale in report["scales"]:
            dense_loss = scale["dense"]["final_loss"]
            sparse_loss = scale["sparse"]["final_loss"]
            if abs(dense_loss - sparse_loss) > 1e-9:
                print(
                    f"FAIL: smoke loss parity broken: dense={dense_loss!r} "
                    f"sparse={sparse_loss!r}", file=sys.stderr,
                )
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
