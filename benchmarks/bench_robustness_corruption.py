"""Robustness under data corruption (docs/robustness.md).

Sweeps the three corruption axes of :mod:`repro.datagen.corruption` —
dangling entities, noisy alignment links, missing attribute triples —
over three representative approaches: MTransE (relational family),
GCNAlign (GNN family) and IMUSE (literal family).  Each cell reports
clean-protocol Hits@1 next to the NIL-aware metrics (dangling-detection
F1, matchable Hits@1 and full-candidate-set MRR under a calibrated
abstention threshold).

The paper evaluates on datasets whose alignment is complete and exact;
this bench quantifies how far each approach family degrades when that
assumption is broken, and anchors the ledger with the smoke-gate
recipe (easy pair + literal approach) whose dangling F1
``repro robustness --check`` gates.
"""

from functools import lru_cache

from repro import benchmark_pair
from repro.approaches import ApproachConfig, get_approach
from repro.datagen import smoke_pair
from repro.datagen.corruption import dangling_sources

from _common import BENCH_SIZE, make_config, record_bench, report

APPROACHES = ["MTransE", "GCNAlign", "IMUSE"]

# axis -> benchmark_pair keyword, swept rates (0.0 is the shared clean cell)
AXES = [
    ("dangling", "dangling_rate", (0.1, 0.2)),
    ("link_noise", "link_noise_rate", (0.1, 0.2)),
    ("attr_missing", "attr_missing_rate", (0.3, 0.6)),
]


@lru_cache(maxsize=None)
def _pair(**rates):
    return benchmark_pair("EN-FR", size=BENCH_SIZE, seed=0, method="direct",
                          **rates)


@lru_cache(maxsize=None)
def _cell(name: str, **rates) -> dict:
    """Train ``name`` on the corrupted pair and score one table cell."""
    pair = _pair(**rates)
    split = pair.five_fold_splits(seed=0)[0]
    approach = get_approach(name, make_config(valid_every=0))
    approach.fit(pair, split)
    out = {"hits1": approach.evaluate(split.test, hits_at=(1,)).hits_at(1)}
    dangling = sorted(dangling_sources(pair))
    if dangling:
        half = len(dangling) // 2
        threshold = approach.calibrate_abstention(split.valid,
                                                  dangling[:half])
        nil = approach.evaluate_dangling(split.test, dangling[half:],
                                         threshold=threshold)
        out.update({"f1": nil.f1, "h1m": nil.hits1_matchable,
                    "mrrm": nil.mrr_matchable})
    return out


def _anchor() -> dict:
    """The smoke-gate recipe: easy pair + literal approach.

    This is the configuration ``repro robustness --check`` gates in CI
    (F1 >= 0.5, matchable Hits@1 within 5% of clean); the bench records
    its scalars so `repro obs-ledger` shows drift across sessions.
    """
    pair = smoke_pair(n_entities=400, seed=0, dangling_rate=0.2)
    split = pair.split(train_ratio=0.3, seed=0)
    approach = get_approach(
        "IMUSE", ApproachConfig(dim=48, epochs=30, seed=0, valid_every=0))
    approach.fit(pair, split)
    clean = approach.evaluate(split.test, hits_at=(1,)).hits_at(1)
    dangling = sorted(dangling_sources(pair))
    half = len(dangling) // 2
    threshold = approach.calibrate_abstention(split.valid, dangling[:half])
    nil = approach.evaluate_dangling(split.test, dangling[half:],
                                     threshold=threshold)
    return {"hits1": clean, "f1": nil.f1, "h1m": nil.hits1_matchable,
            "mrrm": nil.mrr_matchable}


def _fmt(cell: dict) -> str:
    nil = (f" F1={cell['f1']:.3f} H@1m={cell['h1m']:.3f} "
           f"MRRm={cell['mrrm']:.3f}" if "f1" in cell else
           " " + "-".rjust(24))
    return f"hits@1={cell['hits1']:.3f}{nil}"


def bench_robustness_corruption(benchmark):
    def run():
        grid = {}
        for name in APPROACHES:
            grid[(name, "clean", 0.0)] = _cell(name)
            for axis, keyword, rates in AXES:
                for rate in rates:
                    grid[(name, axis, rate)] = _cell(name, **{keyword: rate})
        return grid, _anchor()

    grid, anchor = benchmark.pedantic(run, rounds=1, iterations=1)

    # scalars first: report() would otherwise claim the artifact name
    # with a scalar-free record and the dedupe would drop these
    record_bench("bench_robustness_corruption", scalars={
        "hits_at_1": anchor["hits1"],
        "dangling_f1": anchor["f1"],
        "hits_at_1_matchable": anchor["h1m"],
        "mrr_matchable": anchor["mrrm"],
    })

    rows = []
    for name in APPROACHES:
        rows.append(f"{name} (clean: {_fmt(grid[(name, 'clean', 0.0)])})")
        for axis, _, rates in AXES:
            for rate in rates:
                rows.append(f"  {axis:>12s}={rate:<4g} "
                            f"{_fmt(grid[(name, axis, rate)])}")
    rows.append("")
    rows.append(f"smoke anchor (IMUSE, easy pair, dangling 0.2): "
                f"{_fmt(anchor)}")
    rows.append("expected shape: corruption never helps; dangling hurts")
    rows.append("recall-oriented metrics most, attribute loss hurts the")
    rows.append("literal family (IMUSE) most (docs/robustness.md)")
    # filename stem matches the record_bench name above, so report()'s
    # own (scalar-free) record_bench call is deduped away
    report("Robustness - corruption axes x approach families", rows,
           "bench_robustness_corruption.txt")

    # the anchor is the smoke-gate contract; the grid cells at bench
    # scale are informational (weak models separate dangling poorly)
    assert anchor["f1"] >= 0.5, f"anchor dangling F1 {anchor['f1']:.3f}"
    assert anchor["h1m"] >= 0.95 * anchor["hits1"], \
        f"abstention cost too high: {anchor['h1m']:.3f} vs {anchor['hits1']:.3f}"
    for (name, axis, rate), cell in grid.items():
        assert 0.0 <= cell["hits1"] <= 1.0
        if "f1" in cell:
            assert 0.0 <= cell["f1"] <= 1.0
    # dangling corruption removes counterparts, so clean-protocol Hits@1
    # (computed on the surviving matchable pairs) must stay evaluable
    for name in APPROACHES:
        assert grid[(name, "dangling", 0.2)]["hits1"] >= 0.0
