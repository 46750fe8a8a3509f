"""Workloads of the end-to-end benchmark and the pipeline one repeat runs.

Every workload runs the whole paper pipeline through the library's
public API, in the order ROADMAP lists it::

    generate -> IDS sample -> split -> train per fold -> validate
    -> evaluate -> NIL calibrate -> store/index build -> serve queries

The workloads differ in scale and approaches, so each one loads a
different layer (see README.md for why each was chosen).  One repeat
runs in its own process (see ``run.py``); this module does the work,
times it in units, checks the outputs, and turns the units of a run's
repeats into its end-to-end metrics (:func:`combine`).

A unit is a piece of work that every pass of every repeat does the
same way: an epoch of a fold, an alignment call, a query, a chunk of
the replay stream, a scan batch.  Each time a unit runs is a try, and a
unit counts with its fastest try: on a shared host, other load only
ever slows a try down, for stretches of one to several seconds, so the
fastest of tries spread over a run is the steadiest reading of the
unit's own cost.  The set-up counts with the median of its tries.
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from repro import benchmark_pair, cross_validate
from repro.approaches import ApproachConfig, get_approach
from repro.datagen import dangling_sources
from repro.obs import span
from repro.pipeline import EmbeddingSnapshot
from repro.serve import EmbeddingStore, QueryEngine, make_index

__all__ = ["Workload", "WORKLOADS", "SMOKE", "END_TO_END", "QUALITY",
           "run_workload", "combine", "snapshot_all", "top1_mismatches"]

# name -> (unit, direction); every workload reports all of them
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "eval_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "query_p50_ms": ("ms", "lower"),
    "query_p95_ms": ("ms", "lower"),
    "replay_qps": ("1/s", "higher"),
    "scan_qps": ("1/s", "higher"),
}
# Model and index quality, name -> unit.  Deterministic at a fixed seed,
# so it is checked against pinned values instead of bounded as a
# timing is (see run.py).
QUALITY = {
    "hits1": "fraction",
    "mrr": "fraction",
    "dangling_f1": "fraction",
    "recall10": "fraction",
}

TOP1_SAMPLE = 64
RECALL_SAMPLE = 512
K = 10
REPLAY_BATCH = 16
SCAN_BATCH = 256
# replay is timed in chunks of this many query_batch calls
REPLAY_CHUNK = 25
# untimed query() calls on a fresh engine before its interactive phase,
# on sources the timed phase does not ask for: without them the first
# timed queries, cold, were the slowest of the phase
WARMUP_QUERIES = 32
# KG1 entities without a counterpart, so every workload has a NIL
# evaluation and an abstention threshold to serve with
DANGLING_RATE = 0.2
# phases of timed units after the set-up; a try of a phase is a list
# of seconds, one per unit
PHASES = ("train", "eval", "query", "replay", "scan")


@dataclass(frozen=True)
class Workload:
    """One input set: dataset scale, approaches and serving traffic.

    A repeat sets the input up ``setups`` times and then runs the rest
    of the pipeline ``passes`` times on it.  The passes do the same
    work, so every unit of training (an epoch) gets one try per pass.
    After training, a pass runs ``rounds`` serving rounds, each after a
    try of the evaluation, so every alignment call and every serving
    unit (a query, a chunk of the replay stream, a scan batch) gets
    ``rounds`` tries per pass, spread over it.
    """

    name: str
    size: int                      # entities per KG requested from IDS
    approaches: tuple[str, ...]
    epochs: int
    served: str                    # approach whose model is stored and served
    repeat_s: float                # one repeat's wall time, 2-core box at full speed
    n_folds: int = 1
    dim: int = 32
    setups: int = 2                # benchmark_pair + five_fold_splits
    passes: int = 2                # train -> evaluate -> store -> serve
    rounds: int = 3                # evaluation try + serving round, per pass
    tail: bool = False             # evaluation adds the alignment variants
    interactive: int = 1000        # query() calls on distinct sources; 50 beyond p95
    replay: int = 6000             # Zipf(1.1) stream, query_batch of 16


WORKLOADS = {w.name: w for w in (
    Workload("rows-1.5k", size=1500,
             approaches=("MTransE", "MultiKE", "RSN4EA"), epochs=3,
             n_folds=2, served="MultiKE", repeat_s=10.0),
    # BootEA bootstraps every 5 epochs by default: at epochs 5 and 10
    Workload("boot-2.5k", size=2500, approaches=("BootEA",), epochs=10,
             served="BootEA", repeat_s=9.5),
    # a round costs over 3 s at 5K, so two rounds instead of three
    Workload("pipeline-5k", size=5000, approaches=("MultiKE",),
             epochs=1, served="MultiKE", repeat_s=14.0, rounds=2,
             tail=True),
)}

# --smoke: the same code paths and checks at sizes that finish in seconds
SMOKE = {name: replace(w, size=400, epochs=min(w.epochs, 5), dim=16,
                       interactive=200, replay=800,
                       repeat_s=2.0)
         for name, w in WORKLOADS.items()}


class Outcome:
    """Operations attempted and failed, with a reason per kind of failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.count(1, 0 if ok else 1, message)

    def count(self, attempted: int, failed: int, message: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{message} ({failed}/{attempted})")


def _timed_calls(calls, passes: int = 1) -> tuple[list, list]:
    """Run ``calls`` in order, ``passes`` times.

    Returns the last pass's results and one try per pass: each call's
    seconds.
    """
    tries = []
    for _ in range(passes):
        results, seconds = [], []
        for call in calls:
            started = time.perf_counter()
            results.append(call())
            seconds.append(time.perf_counter() - started)
        tries.append(seconds)
    return results, tries


def snapshot_all(approach, pair) -> EmbeddingSnapshot:
    """Every KG1 entity as a source and every KG2 entity as a target.

    ``EmbeddingSnapshot.from_approach`` takes aligned pairs, but serving
    must also answer for dangling sources and the two KGs differ in
    size.  So the source rows come from pairing every KG1 entity with
    one fixed KG2 entity, and the target rows the other way round.
    """
    sources = sorted(pair.kg1.entities)
    targets = sorted(pair.kg2.entities)
    source_side = EmbeddingSnapshot.from_approach(
        approach, [(source, targets[0]) for source in sources])
    target_side = EmbeddingSnapshot.from_approach(
        approach, [(sources[0], target) for target in targets])
    return EmbeddingSnapshot(
        sources, source_side.source_matrix,
        targets, target_side.target_matrix,
        metric="cosine", name=approach.info.name,
    )


def top1_mismatches(engine, approach, sources: list[str]) -> int:
    """Sources whose served top-1 is not the approach's best KG2 entity.

    The reference is ``similarity_between`` over all of KG2 under cosine
    (the serving metric).  A served target scoring within 1e-9 of the
    row maximum counts as a match, so exact ties cannot fail the check.
    """
    targets = engine.stored.targets
    similarity = approach.similarity_between(sources, targets,
                                             metric="cosine")
    column = {entity: j for j, entity in enumerate(targets)}
    mismatches = 0
    for row, result in enumerate(engine.query_batch(sources)):
        if not result.neighbors:
            mismatches += 1
            continue
        served = similarity[row, column[result.neighbors[0][0]]]
        if served < similarity[row].max() - 1e-9:
            mismatches += 1
    return mismatches


def _folds(workload, pair, splits, seed, outcome):
    """Cross-validate every approach.

    Returns the folds; a try of the train units: per approach and fold,
    the part of ``fit`` outside its epochs (literal features,
    validation) and then each epoch; and the seconds of the
    ``cross_validate`` calls.  Their own evaluation is not timed: it
    warms up the alignment calls that :func:`_evaluation` times.
    """
    folds = {}
    train = []
    cv_s = 0.0
    for name in workload.approaches:
        config = ApproachConfig(dim=workload.dim, epochs=workload.epochs,
                                early_stop=False, seed=seed)
        factory = partial(get_approach, name, config)
        started = time.perf_counter()
        result = cross_validate(factory, pair, n_folds=workload.n_folds,
                                seed=seed, name=name)
        cv_s += time.perf_counter() - started
        outcome.check(result.status == "completed",
                      f"{name}: cross-validation status {result.status}")
        for index, fold in enumerate(result.folds):
            epochs = fold.log.epoch_seconds
            train += [fold.seconds - sum(epochs), *epochs]
            test = splits[index].test
            finite = all(math.isfinite(loss) for loss in fold.log.losses)
            outcome.check(
                fold.log.status == "completed" and finite
                and len(epochs) == workload.epochs
                and fold.metrics.n == len(test) and fold.nil is not None,
                f"{name} fold {index + 1}: status {fold.log.status}, "
                f"{len(epochs)} epochs, n={fold.metrics.n} of {len(test)}, "
                f"finite losses {finite}",
            )
        folds[name] = result.folds
    return folds, train, cv_s


class _Evaluation:
    """The post-training alignment calls of a pass, timed as one try
    each time the pass runs them.

    First, for every approach and fold, the calls ``cross_validate``
    makes after training: ``evaluate`` on the test pairs, then
    ``calibrate_abstention`` on the valid pairs plus the first half of
    the dangling entities, and ``evaluate_dangling`` on the rest.  Each
    try must reproduce what ``cross_validate`` returned.  Then, with
    ``workload.tail``, the alignment-module variants on the served
    fold's test pairs: CSLS, all KG2 candidates, greedy and
    stable-marriage inference.
    """

    def __init__(self, workload, folds, pair, splits):
        dangling = sorted(dangling_sources(pair))
        half = len(dangling) // 2
        self.calls, self.expected = [], []
        for name in workload.approaches:
            for fold, split in zip(folds[name], splits):
                approach = fold.approach
                self.calls += [
                    partial(approach.evaluate, split.test),
                    partial(approach.calibrate_abstention, split.valid,
                            dangling[:half]),
                    partial(approach.evaluate_dangling, split.test,
                            dangling[half:], threshold=fold.nil.threshold),
                ]
                self.expected += [fold.metrics, fold.nil.threshold, fold.nil]
        approach, test = folds[workload.served][0].approach, splits[0].test
        if workload.tail:
            self.calls += [
                partial(approach.evaluate, test, csls_k=10),
                partial(approach.evaluate, test, candidates="all"),
                partial(approach.predict, test, strategy="greedy"),
                partial(approach.predict, test, strategy="stable_marriage"),
            ]
        self.tries: list[list[float]] = []
        self.seconds = 0.0

    def run(self, outcome) -> None:
        """One try of every call.  The replayed ``cross_validate`` calls
        must return what it did, and every later try what the first
        returned."""
        started = time.perf_counter()
        with span("bench.eval"):
            results, [seconds] = _timed_calls(self.calls)
        self.seconds += time.perf_counter() - started
        self.tries.append(seconds)
        if len(self.tries) == 1:
            self.expected += results[len(self.expected):]
        outcome.count(len(self.calls),
                      sum(repr(got) != repr(want)
                          for got, want in zip(results, self.expected)),
                      "evaluation differs from cross_validate's or the "
                      "first try's")


def _fresh(engine) -> QueryEngine:
    """An engine on ``engine``'s store, index and counters, with an empty
    cache."""
    return QueryEngine(engine.stored, index=engine.index, k=engine.k,
                       abstain_threshold=engine.abstain_threshold,
                       abstain_margin=engine.abstain_margin,
                       metrics=engine.metrics)


def _batches(engine, batches) -> list:
    return [result for batch in batches for result in engine.query_batch(batch)]


def _answers(phase, results, outcome) -> int:
    """Counts a phase's answers, failing empty ones; returns how many
    abstained."""
    outcome.count(len(results), sum(not r.neighbors for r in results),
                  f"{phase}: empty answers")
    return sum(r.abstained for r in results)


class _Service:
    """A store + IVF index of the served model, the engines on it, and
    the client streams of the three closed-loop phases.

    The store serves by cosine, so the served approach must rank by
    cosine too: then the threshold ``cross_validate`` calibrated for it
    is the store's abstention threshold.
    """

    def __init__(self, workload, fold, pair, seed, workdir):
        self.approach = approach = fold.approach
        if approach.info.metric != "cosine":
            raise ValueError(f"{workload.served} ranks by "
                             f"{approach.info.metric}, not by cosine")
        threshold = fold.nil.threshold
        store = EmbeddingStore(workdir / "store")
        snapshot = snapshot_all(approach, pair)
        version = store.save(snapshot, metadata={
            "abstain_threshold": threshold, "dataset": pair.name,
            "approach": approach.info.name, "seed": seed,
        })
        index = make_index("ivf", seed=seed)
        index.build(snapshot.target_matrix)
        store.save_index(index, version)
        self.engine = engine = QueryEngine.from_store(store, k=K)
        self.exact = QueryEngine(engine.stored, index="exact", k=K,
                                 cache_size=0, batch_size=SCAN_BATCH,
                                 abstain_threshold=threshold)
        self.sources = sources = engine.stored.sources
        n = len(sources)
        self.rng = rng = np.random.default_rng(seed)
        # interactive: distinct sources in a random order (every workload
        # has more sources than queries), so every request misses the
        # cache; the warm-up asks for sources after them in that order
        shuffled = rng.permutation(n)
        self.order = np.resize(shuffled, workload.interactive)
        self.warmup = shuffled[workload.interactive:][:WARMUP_QUERIES]
        # replay: a Zipf(1.1) stream over a shuffled source order, mostly
        # cache hits
        weights = 1.0 / np.arange(1, n + 1) ** 1.1
        self.stream = rng.permutation(n)[rng.choice(
            n, size=workload.replay, p=weights / weights.sum())]
        self.batches = [[sources[row] for row in
                         self.stream[start:start + REPLAY_BATCH]]
                        for start in range(0, len(self.stream), REPLAY_BATCH)]
        self.tries = {"query": [], "replay": [], "scan": []}
        self.hit_rate = self.abstain_rate = 0.0

    def round(self, outcome) -> None:
        """One try of each phase, on engines with an empty cache, so every
        round does the same work."""
        sources = self.sources
        interactive = _fresh(self.engine)
        for row in self.warmup:
            interactive.query(sources[row])
        with span("bench.query", phase="interactive"):
            results, timed = _timed_calls(
                [partial(interactive.query, sources[row])
                 for row in self.order])
        self.tries["query"] += timed
        abstained = _answers("interactive", results, outcome)

        replay = _fresh(self.engine)
        hits_before = self.engine.metrics.cache_hits
        with span("bench.query", phase="replay"):
            results, timed = _timed_calls(
                [partial(_batches, replay,
                         self.batches[start:start + REPLAY_CHUNK])
                 for start in range(0, len(self.batches), REPLAY_CHUNK)])
        self.tries["replay"] += timed
        self.hit_rate = ((self.engine.metrics.cache_hits - hits_before)
                         / len(self.stream))
        abstained += _answers("replay",
                              [r for chunk in results for r in chunk], outcome)
        self.abstain_rate = abstained / (len(self.order) + len(self.stream))

        # scan: every source through the exact engine, cache off
        with span("bench.query", phase="scan"):
            results, timed = _timed_calls(
                [partial(self.exact.query_batch,
                         sources[start:start + SCAN_BATCH])
                 for start in range(0, len(sources), SCAN_BATCH)])
        self.tries["scan"] += timed
        _answers("scan", [r for batch in results for r in batch], outcome)

    def check(self, outcome) -> float:
        """The top-1 and degradation checks; returns IVF recall@10."""
        engine, exact, rng = self.engine, self.exact, self.rng
        n = len(self.sources)
        probes = [self.sources[row] for row in
                  rng.choice(n, size=min(TOP1_SAMPLE, n), replace=False)]
        outcome.count(len(probes),
                      top1_mismatches(exact, self.approach, probes),
                      "exact engine top-1 differs from similarity_between")
        rows = rng.choice(n, size=min(RECALL_SAMPLE, n), replace=False)
        vectors = np.asarray(engine.stored.source_matrix)[rows]
        got, _ = engine.query_vectors(vectors, k=K)
        want, _ = exact.query_vectors(vectors, k=K)
        recall = np.mean([len(set(g) & set(w)) / K for g, w in zip(got, want)])
        outcome.check(engine.metrics.degraded == 0
                      and exact.metrics.degraded == 0,
                      f"serving degraded: {engine.metrics.degradation_reasons}")
        return float(recall)


def _pass(workload, pair, splits, seed, workdir, outcome) -> dict:
    """Everything after the set-up, once: train every approach, store
    the served model, then ``workload.rounds`` times a try of the
    evaluation followed by a serving round."""
    folds, train, cv_s = _folds(workload, pair, splits, seed, outcome)
    every = [fold for name in workload.approaches for fold in folds[name]]
    quality = {
        "hits1": float(np.mean([f.metrics.hits_at(1) for f in every])),
        "mrr": float(np.mean([f.metrics.mrr for f in every])),
        "dangling_f1": float(np.mean([f.nil.f1 for f in every])),
    }
    evaluation = _Evaluation(workload, folds, pair, splits)

    workdir.mkdir(parents=True, exist_ok=True)
    store_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=workdir))
    # A serving process holds the store, not the KGs and training state
    # this process built: freeze those so collector passes over them do
    # not land in the query timings.
    gc.collect()
    gc.freeze()
    try:
        with span("bench.serve"):
            service = _Service(workload, folds[workload.served][0], pair,
                               seed, store_dir)
        for _ in range(workload.rounds):
            evaluation.run(outcome)
            with span("bench.serve"):
                service.round(outcome)
        quality["recall10"] = service.check(outcome)
    finally:
        gc.unfreeze()
        shutil.rmtree(store_dir, ignore_errors=True)
    return {"tries": {"train": [train], "eval": evaluation.tries,
                      **service.tries},
            "quality": quality, "cv_s": cv_s,
            "eval_wall_s": evaluation.seconds,
            "replay_answers": len(service.stream),
            "scan_sources": len(service.sources),
            "replay_hit_rate": service.hit_rate,
            "abstain_rate": service.abstain_rate}


def _setup(workload, seed):
    with span("bench.setup"):
        pair = benchmark_pair("EN-FR", size=workload.size, version="V1",
                              seed=seed, dangling_rate=DANGLING_RATE)
        return pair, pair.five_fold_splits(seed=seed)


def run_workload(workload: Workload, seed: int, workdir: Path,
                 hits1_floor: float) -> dict:
    """One repeat of ``workload``: its units of work, quality and checks."""
    outcome = Outcome()
    started = time.perf_counter()
    # every set-up builds the same input; the last one is used
    [(pair, splits)], setup = _timed_calls(
        [partial(_setup, workload, seed)], workload.setups)
    # each pass lets its models and store go before the next one starts
    passes = [_pass(workload, pair, splits, seed, workdir, outcome)
              for _ in range(workload.passes)]
    last = passes[-1]
    outcome.check(all(p["quality"] == last["quality"] for p in passes),
                  f"pipeline passes disagree on quality: "
                  f"{[p['quality'] for p in passes]}")
    outcome.check(last["quality"]["hits1"] >= hits1_floor,
                  f"Hits@1 {last['quality']['hits1']:.4f} below the floor "
                  f"{hits1_floor}")
    return {
        "tries": {"setup": setup, **{phase: [t for p in passes
                                             for t in p["tries"][phase]]
                                     for phase in PHASES}},
        "cv_s": sum(p["cv_s"] for p in passes),
        "eval_wall_s": sum(p["eval_wall_s"] for p in passes),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        **last["quality"],
        "replay_answers": last["replay_answers"],
        "scan_sources": last["scan_sources"],
        "replay_hit_rate": last["replay_hit_rate"],
        "abstain_rate": last["abstain_rate"],
        "wall_s": time.perf_counter() - started,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "dataset": {"kg1": len(pair.kg1.entities),
                    "kg2": len(pair.kg2.entities),
                    "test": len(splits[0].test)},
    }


def combine(repeats: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of a run, from the tries of its repeats.

    All repeats of a run use one seed, so unit ``i`` of a phase is the
    same work in every try of every repeat, and counts with its fastest
    try.  ``train_s``, ``eval_s`` and the two rates add units up; the
    latency percentiles are taken over the queries.  ``setup_s`` is the
    median over every set-up of the run, and ``peak_rss_mb`` the median
    over the repeats.  ``fixed_work_s`` (not a metric) adds up every
    unit but the set-up.
    """
    def unit(phase):
        return np.min([seconds for r in repeats
                       for seconds in r["tries"][phase]], axis=0)

    first = repeats[0]
    query = unit("query")
    return {
        "setup_s": float(np.median([seconds for r in repeats
                                    for seconds in r["tries"]["setup"]])),
        "train_s": float(unit("train").sum()),
        "eval_s": float(unit("eval").sum()),
        "peak_rss_mb": float(np.median([r["peak_rss_mb"] for r in repeats])),
        "query_p50_ms": float(np.percentile(query, 50) * 1e3),
        "query_p95_ms": float(np.percentile(query, 95) * 1e3),
        "replay_qps": first["replay_answers"] / float(unit("replay").sum()),
        "scan_qps": first["scan_sources"] / float(unit("scan").sum()),
        "fixed_work_s": float(sum(unit(phase).sum() for phase in PHASES)),
    }
