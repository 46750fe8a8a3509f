"""Behaviour-preservation digests of every approach on one small pair.

A refactor that must not change results is checked by running this
script before and after it and comparing the two outputs.  Each
approach is trained on EN-FR 300 (``method="direct"``, seed 0; split
0.3 / 0.1, seed 0) with dim 16, 10 epochs, batch 256, 3 negatives and
lr 0.02, twice: "plain" (``valid_every=5`` without early stopping) and
"early-stop" (``valid_every=2, patience=1``).  The first table prints,
per run, the first 16 hex digits of the sha256 of the final parameters,
of the float64 loss curve and of the augmentation records, plus
``valid_history``, ``steps_run``, ``best_epoch`` and test Hits@1.

The second table digests the alignment module on the plain model:
``evaluate`` with ``csls_k=10`` and with ``candidates="all"``, greedy
and stable-marriage ``predict``, and, on a plain run over the same pair
with 20% dangling entities, the calibrated NIL threshold and the
``DanglingMetrics`` of ``evaluate_dangling`` (the calls
``cross_validate`` makes per fold); then stable-marriage ``predict``
with ``csls_k=10`` and heuristic ``predict``.

Run: ``PYTHONPATH=src python benchmarks/digest_table.py`` (all 15
approaches, about half a minute on 2 cores) or ``--approach MTransE`` for one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict

import numpy as np

from repro.approaches import (
    APPROACHES,
    ApproachConfig,
    UnsupervisedProcrustes,
    compose_approach,
    get_approach,
)
from repro.datagen import benchmark_pair
from repro.datagen.corruption import dangling_sources

COMPOSED = "compose(transe, swapping, truncated, self-training every 5)"
RUNS = {
    "plain": {"valid_every": 5, "early_stop": False},
    "early-stop": {"valid_every": 2, "patience": 1},
}


def approach_names() -> list[str]:
    return [*APPROACHES, "AliNet", "UnsupervisedProcrustes", COMPOSED]


def build(name: str, **overrides):
    config = ApproachConfig(dim=16, epochs=10, batch_size=256,
                            n_negatives=3, lr=0.02, seed=0, **overrides)
    if name == "UnsupervisedProcrustes":
        return UnsupervisedProcrustes(config)
    if name == COMPOSED:
        return compose_approach(
            "transe", "swapping", negative_sampling="truncated",
            self_training=True, self_training_every=5)(config)
    return get_approach(name, config)


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def training_row(name: str, run: str, approach, split) -> str:
    log = approach.log
    params = b"".join(np.ascontiguousarray(p.data).tobytes()
                      for p in approach._parameters())
    losses = np.asarray(log.losses, dtype=np.float64).tobytes()
    history = " ".join(f"{epoch}:{hits:.4f}"
                       for epoch, hits in log.valid_history) or "-"
    records = json.dumps([asdict(r) for r in log.augmentation], sort_keys=True)
    augmentation = f"`{digest(records)}`" if log.augmentation else "-"
    hits1 = approach.evaluate(split.test, hits_at=(1,)).hits_at(1)
    return (f"| {name} | {run} | `{digest(params)}` | `{digest(losses)}` "
            f"| {history} | {log.steps_run} | {augmentation} "
            f"| {log.best_epoch} | {hits1:.4f} |")


def evaluation_row(name: str, approach, split, nil_approach, nil_pair,
                   nil_split) -> str:
    test = split.test
    cells = [
        repr(approach.evaluate(test, csls_k=10)),
        repr(approach.evaluate(test, candidates="all")),
        json.dumps(approach.predict(test, strategy="greedy")),
        json.dumps(approach.predict(test, strategy="stable_marriage")),
    ]
    dangling = sorted(dangling_sources(nil_pair))
    half = len(dangling) // 2
    threshold = nil_approach.calibrate_abstention(nil_split.valid,
                                                  dangling[:half])
    nil = nil_approach.evaluate_dangling(nil_split.test, dangling[half:],
                                         threshold=threshold)
    later = [
        json.dumps(approach.predict(test, strategy="stable_marriage",
                                    csls_k=10)),
        json.dumps(approach.predict(test, strategy="heuristic")),
    ]
    return ("| " + name + " | "
            + " | ".join(f"`{digest(cell)}`" for cell in cells)
            + f" | {threshold!r} | `{digest(repr(nil))}` "
            f"| {nil.f1:.4f} | "
            + " | ".join(f"`{digest(cell)}`" for cell in later) + " |")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--approach", action="append",
                        choices=approach_names(),
                        help="digest only this approach (repeatable)")
    args = parser.parse_args(argv)
    names = args.approach or approach_names()

    pair = benchmark_pair("EN-FR", size=300, seed=0, method="direct")
    split = pair.split(train_ratio=0.3, valid_ratio=0.1, seed=0)
    nil_pair = benchmark_pair("EN-FR", size=300, seed=0, method="direct",
                              dangling_rate=0.2)
    nil_split = nil_pair.split(train_ratio=0.3, valid_ratio=0.1, seed=0)

    training, evaluation = [], []
    for name in names:
        for run, overrides in RUNS.items():
            approach = build(name, **overrides)
            approach.fit(pair, split)
            training.append(training_row(name, run, approach, split))
            if run == "plain":
                nil_approach = build(name, **overrides)
                nil_approach.fit(nil_pair, nil_split)
                evaluation.append(evaluation_row(
                    name, approach, split, nil_approach, nil_pair, nil_split))
            print(training[-1], file=sys.stderr, flush=True)

    print("| approach | run | params sha256 | loss-curve sha256 "
          "| valid_history | steps_run | augmentation sha256 | best_epoch "
          "| test H@1 |")
    print("|---|---|---|---|---|---|---|---|---|")
    print("\n".join(training))
    print()
    print("| approach | evaluate csls_k=10 | evaluate all | predict greedy "
          "| predict stable_marriage | NIL threshold | DanglingMetrics "
          "| dangling F1 | predict stable_marriage csls_k=10 "
          "| predict heuristic |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    print("\n".join(evaluation))
    return 0


if __name__ == "__main__":
    sys.exit(main())
