"""Cross-validation runner (§5.1's experimental protocol).

Runs an approach factory over the five folds of a dataset, aggregates
metrics as ``mean ± std`` and records wall-clock training time — the
numbers Table 5 and Figure 8 report.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..alignment.evaluate import DanglingMetrics, RankMetrics
from ..approaches.base import EmbeddingApproach, TrainingLog
from ..datagen.corruption import dangling_sources
from ..approaches.checkpointing import _log_to_dict, restore_log_fields
from ..faults import atomic_write_json, fault_point
from ..fingerprint import config_fingerprint
from ..kg import AlignmentSplit, KGPair
from ..obs import peak_rss_tree_bytes, span
from ..obs.ledger import record_run

__all__ = ["FoldResult", "CVResult", "run_fold", "cross_validate",
           "fold_to_dict", "fold_from_dict"]

_PROGRESS_FILE = "cv_progress.json"


@dataclass
class FoldResult:
    """Outcome of one fold.

    ``approach`` is ``None`` for folds restored from a cross-validation
    progress file: only their metrics and log survive a crash, not the
    trained model object.
    """

    metrics: RankMetrics
    log: TrainingLog
    seconds: float
    approach: EmbeddingApproach | None
    # NIL-aware evaluation (docs/robustness.md), present only when the
    # dataset carries a corruption manifest with dangling entities: the
    # fold calibrates an abstention threshold on half the dangling set +
    # the validation pairs and scores the held-out half + the test pairs.
    nil: DanglingMetrics | None = None


@dataclass
class CVResult:
    """Aggregated cross-validation outcome."""

    name: str
    dataset: str
    folds: list[FoldResult] = field(default_factory=list)
    # "completed", "resumed" (completed after restoring earlier folds),
    # "interrupted" (a fold stopped at a checkpoint; rerun to resume) or
    # "diverged" (a sentinel aborted at least one fold early).
    status: str = "completed"

    def _values(self, getter) -> np.ndarray:
        return np.array([getter(fold) for fold in self.folds])

    def mean_std(self, metric: str) -> tuple[float, float]:
        """``metric`` is ``hits@K``, ``mr`` or ``mrr``."""
        if metric.startswith("hits@"):
            k = int(metric.split("@")[1])
            values = self._values(lambda f: f.metrics.hits_at(k))
        elif metric == "mr":
            values = self._values(lambda f: f.metrics.mr)
        elif metric == "mrr":
            values = self._values(lambda f: f.metrics.mrr)
        else:
            raise KeyError(f"unknown metric {metric!r}")
        return float(values.mean()), float(values.std())

    @property
    def train_seconds(self) -> float:
        return float(self._values(lambda f: f.seconds).mean())

    @property
    def steps_per_second(self) -> float:
        """Mean optimizer-step throughput across folds (0.0 if untracked).

        Figure 8 reports wall-clock training time; with the sparse
        gradient path this normalized view separates algorithmic cost
        from dataset size.
        """
        values = self._values(lambda f: f.log.steps_per_second)
        positive = values[values > 0]
        return float(positive.mean()) if len(positive) else 0.0

    @property
    def mean_epoch_seconds(self) -> float:
        """Mean per-epoch wall time over every trained epoch of every fold."""
        seconds = [s for fold in self.folds for s in fold.log.epoch_seconds]
        return float(np.mean(seconds)) if seconds else 0.0

    @property
    def peak_rss_bytes(self) -> int:
        """Highest process peak RSS any fold's training observed."""
        if not self.folds:
            return 0
        return int(max(fold.log.peak_rss_bytes for fold in self.folds))

    def format(self, metrics: tuple[str, ...] = ("hits@1", "hits@5", "mrr")) -> str:
        cells = []
        for metric in metrics:
            mean, std = self.mean_std(metric)
            cells.append(f"{metric}={mean:.3f}±{std:.3f}")
        return f"{self.name:9s} {self.dataset:18s} " + " ".join(cells)


def run_fold(
    factory: Callable[[], EmbeddingApproach],
    pair: KGPair,
    split: AlignmentSplit,
    hits_at: tuple[int, ...] = (1, 5, 10),
    checkpoint_dir: Path | str | None = None,
    checkpoint_every: int = 1,
) -> FoldResult:
    """Train on one fold and evaluate on its test pairs.

    With ``checkpoint_dir`` the fold trains crash-safely: ``fit``
    checkpoints every ``checkpoint_every`` epochs and resumes from an
    existing checkpoint in that directory.
    """
    approach = factory()
    with span("fold", approach=approach.info.name, dataset=pair.name):
        started = time.perf_counter()
        if checkpoint_dir is not None:
            log = approach.fit(pair, split, checkpoint_dir=checkpoint_dir,
                               checkpoint_every=checkpoint_every,
                               resume_from=True)
        else:
            log = approach.fit(pair, split)
        seconds = time.perf_counter() - started
        if log.status == "interrupted":
            # No evaluation: the model is mid-training.  Callers check
            # log.status and resume from the checkpoint.
            empty = RankMetrics(hits={k: 0.0 for k in hits_at},
                                mr=0.0, mrr=0.0, n=0)
            return FoldResult(metrics=empty, log=log, seconds=seconds,
                              approach=approach)
        with span("evaluate", approach=approach.info.name):
            metrics = approach.evaluate(split.test, hits_at=hits_at)
        nil = _nil_metrics(approach, pair, split)
    return FoldResult(metrics=metrics, log=log, seconds=seconds,
                      approach=approach, nil=nil)


def _nil_metrics(approach: EmbeddingApproach, pair: KGPair,
                 split: AlignmentSplit) -> DanglingMetrics | None:
    """Dangling evaluation for corrupted datasets; None on clean ones.

    The manifest's dangling list is split deterministically in half:
    the first half plus the validation pairs calibrate the abstention
    threshold, the second half plus the test pairs are scored — so the
    reported F1 is out-of-sample for the dangling side too.
    """
    dangling = sorted(dangling_sources(pair))
    if not dangling:
        return None
    half = len(dangling) // 2
    threshold = approach.calibrate_abstention(split.valid, dangling[:half])
    return approach.evaluate_dangling(split.test, dangling[half:],
                                      threshold=threshold)


def cross_validate(
    factory: Callable[[], EmbeddingApproach],
    pair: KGPair,
    n_folds: int = 5,
    hits_at: tuple[int, ...] = (1, 5, 10),
    name: str | None = None,
    seed: int = 0,
    checkpoint_dir: Path | str | None = None,
    checkpoint_every: int = 1,
    jobs: int = 1,
) -> CVResult:
    """The paper's 5-fold protocol (``n_folds`` may be reduced for speed).

    With ``checkpoint_dir`` the run is crash-safe: each completed fold's
    metrics are appended atomically to ``cv_progress.json`` in that
    directory, each in-flight fold checkpoints under ``fold_<k>/``, and
    rerunning with the same directory skips completed folds and resumes
    the interrupted one mid-training.  A fold stopped by SIGTERM/SIGINT
    leaves ``result.status == "interrupted"`` and no further folds run.

    With ``jobs > 1`` the pending folds fan out over that many worker
    processes through :mod:`repro.orchestrate` — results are
    bit-identical to the serial run (folds are independent and each
    seeds its own RNG), completed folds still land in
    ``cv_progress.json`` one by one, and a crashed worker's fold is
    requeued to a fresh worker (see ``docs/orchestration.md``).
    """
    if not 1 <= n_folds <= 5:
        raise ValueError("n_folds must be between 1 and 5")
    splits = pair.five_fold_splits(seed=seed)[:n_folds]
    if name is None:
        probe = factory()
        name = probe.info.name
    config = {"approach": name, "dataset": pair.name,
              "n_folds": n_folds, "seed": seed, "hits_at": list(hits_at)}
    completed: dict[int, FoldResult] = {}
    progress_path: Path | None = None
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        progress_path = checkpoint_dir / _PROGRESS_FILE
        completed = _load_cv_progress(progress_path, config)
    result = CVResult(name=name, dataset=pair.name)
    if completed:
        result.status = "resumed"
    pool_parent = False
    with span("cross_validate", approach=name, dataset=pair.name,
              n_folds=n_folds, jobs=jobs):
        pending = [k for k in range(1, n_folds + 1) if k not in completed]
        if jobs > 1 and len(pending) > 1:
            pool_parent = True
            _parallel_folds(
                pending, completed, factory=factory, pair=pair,
                splits=splits, hits_at=hits_at, jobs=jobs,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=checkpoint_every,
                progress_path=progress_path, config=config, name=name,
            )
            result.folds = [completed[k] for k in sorted(completed)]
        else:
            for fold_index, split in enumerate(splits, start=1):
                if fold_index in completed:
                    result.folds.append(completed[fold_index])
                    continue
                fold_ckpt = None
                if checkpoint_dir is not None:
                    fold_ckpt = checkpoint_dir / f"fold_{fold_index}"
                fold = run_fold(factory, pair, split, hits_at=hits_at,
                                checkpoint_dir=fold_ckpt,
                                checkpoint_every=checkpoint_every)
                if fold.log.status == "interrupted":
                    result.status = "interrupted"
                    break
                result.folds.append(fold)
                completed[fold_index] = fold
                if progress_path is not None:
                    _save_cv_progress(progress_path, config, completed)
        if result.status != "interrupted" and any(
            fold.log.status == "diverged" for fold in result.folds
        ):
            # sentinel-aborted folds evaluated on their best snapshot, so
            # the aggregate is still meaningful — but the run is flagged
            result.status = "diverged"
    # Persist the run to the ledger (no-op unless REPRO_LEDGER_PATH is
    # set), where `repro obs-ledger` and `repro obs-conformance` read it.
    record_run("cv", f"{name}/{pair.name}",
               config={**config, "status": result.status},
               scalars=(_cv_scalars(result, hits_at,
                                    pool_parent=pool_parent)
                        if result.folds else {}))
    return result


def fold_to_dict(fold: FoldResult) -> dict:
    """Serialize a :class:`FoldResult` to plain JSON-friendly data.

    The one wire/disk format for fold outcomes: ``cv_progress.json``,
    the sweep progress file and the orchestrator's worker->parent result
    queue all carry exactly this shape.
    """
    data = {
        "metrics": {
            "hits": {str(k): float(v) for k, v in fold.metrics.hits.items()},
            "mr": float(fold.metrics.mr),
            "mrr": float(fold.metrics.mrr),
            "n": int(fold.metrics.n),
        },
        "seconds": float(fold.seconds),
        "train_seconds": float(fold.log.train_seconds),
        "best_epoch": int(fold.log.best_epoch),
        "peak_rss_bytes": int(fold.log.peak_rss_bytes),
        "log": _log_to_dict(fold.log),
    }
    # only-when-present: clean-dataset folds keep the exact pre-NIL wire
    # shape, so progress files and fingerprints from older runs compare
    # equal
    if fold.nil is not None:
        data["nil"] = dataclasses.asdict(fold.nil)
    return data


def fold_from_dict(data: dict) -> FoldResult:
    """Rebuild a :class:`FoldResult` from :func:`fold_to_dict` output.

    The trained model object does not survive the round trip, so
    ``fold.approach`` is ``None`` — the same contract as folds restored
    from a progress file.
    """
    metrics = data["metrics"]
    log = TrainingLog()
    restore_log_fields(log, data.get("log"))
    # diverged_reason is deterministic log state, so a sentinel-aborted
    # fold keeps its status across the round trip; "resumed" does not
    # survive on purpose (clean and crash-resumed folds must compare equal)
    log.status = "diverged" if log.diverged_reason else "completed"
    log.train_seconds = float(data.get("train_seconds", 0.0))
    log.best_epoch = int(data.get("best_epoch", 0))
    log.peak_rss_bytes = int(data.get("peak_rss_bytes", 0))
    return FoldResult(
        metrics=RankMetrics(
            hits={int(k): float(v) for k, v in metrics["hits"].items()},
            mr=float(metrics["mr"]),
            mrr=float(metrics["mrr"]),
            n=int(metrics["n"]),
        ),
        log=log,
        seconds=float(data["seconds"]),
        approach=None,
        nil=(DanglingMetrics(**data["nil"]) if data.get("nil") else None),
    )


def _load_cv_progress(path: Path, config: dict) -> dict[int, FoldResult]:
    """Completed folds recorded by an earlier (interrupted) run.

    Refuses to mix runs: a progress file whose config fingerprint (see
    :mod:`repro.fingerprint`) differs — another approach, dataset, seed
    or fold count — raises instead of silently merging incomparable
    folds.  An unreadable progress file also raises — the file is
    written atomically, so damage means something outside this code
    touched it.
    """
    if not path.is_file():
        return {}
    fault_point("cv.progress", path=path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise RuntimeError(
            f"unreadable cross-validation progress file {path}: {error}"
        ) from error
    recorded = data.get("config", {})
    expected = config_fingerprint(config, include_env=False)
    stored = data.get("fingerprint",
                      config_fingerprint(recorded, include_env=False))
    if stored != expected:
        raise ValueError(
            f"cross-validation progress at {path} was written for "
            f"{recorded}, not {config}; use a fresh checkpoint directory"
        )
    return {int(key): fold_from_dict(fold_data)
            for key, fold_data in data.get("folds", {}).items()}


def _save_cv_progress(path: Path, config: dict,
                      completed: dict[int, FoldResult]) -> None:
    """Atomically rewrite the progress file with every completed fold."""
    payload = {
        "schema": 1,
        "config": config,
        "fingerprint": config_fingerprint(config, include_env=False),
        "folds": {str(index): fold_to_dict(fold)
                  for index, fold in completed.items()},
    }
    atomic_write_json(path, payload, site="cv.progress")


# ---------------------------------------------------------------------------
# parallel fold execution (delegates to repro.orchestrate)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _FoldTask:
    """A fold as the orchestrator's scheduler sees it."""

    fold: int

    @property
    def job_id(self) -> str:
        return f"fold_{self.fold}"


def _run_fold_task(task: _FoldTask, *, factory, pair, splits, hits_at,
                   checkpoint_dir, checkpoint_every) -> dict:
    """Worker-side fold execution; returns :func:`fold_to_dict` data."""
    fold_ckpt = None
    if checkpoint_dir is not None:
        fold_ckpt = Path(checkpoint_dir) / f"fold_{task.fold}"
    fold = run_fold(factory, pair, splits[task.fold - 1], hits_at=hits_at,
                    checkpoint_dir=fold_ckpt,
                    checkpoint_every=checkpoint_every)
    if fold.log.status == "interrupted":
        raise RuntimeError(
            f"fold {task.fold} was interrupted inside a worker; "
            f"rerun to resume from its checkpoint"
        )
    return fold_to_dict(fold)


def _parallel_folds(pending, completed, *, factory, pair, splits, hits_at,
                    jobs, checkpoint_dir, checkpoint_every, progress_path,
                    config, name) -> None:
    """Fan the pending folds out over worker processes."""
    from ..orchestrate.scheduler import run_jobs

    def on_complete(task, payload):
        completed[task.fold] = fold_from_dict(payload)
        if progress_path is not None:
            _save_cv_progress(progress_path, config, completed)

    _, stats = run_jobs(
        [_FoldTask(fold=k) for k in pending],
        jobs=jobs,
        runner=_run_fold_task,
        runner_kwargs=dict(factory=factory, pair=pair, splits=list(splits),
                           hits_at=hits_at, checkpoint_dir=checkpoint_dir,
                           checkpoint_every=checkpoint_every),
        label=f"cv/{name}",
        on_complete=on_complete,
    )
    if stats.failed:
        details = "; ".join(f"{job_id}: {error}"
                            for job_id, error in stats.failed.items())
        raise RuntimeError(f"cross-validation folds failed: {details}")


def _cv_scalars(result: CVResult, hits_at: tuple[int, ...],
                pool_parent: bool = False) -> dict:
    """The headline CVResult numbers a ``cv`` ledger record carries.

    ``pool_parent`` marks runs that fanned folds out over worker
    processes: per-fold RSS then comes from the workers (their
    ``RUSAGE_SELF`` at ``fit`` time), but the run's true peak must also
    cover the parent itself and any worker growth after ``fit`` — so the
    parent folds in ``max(self, children)`` via ``RUSAGE_CHILDREN``.
    """
    peak_rss = float(result.peak_rss_bytes)
    if pool_parent:
        peak_rss = float(max(int(peak_rss), peak_rss_tree_bytes()))
    scalars = {
        "train_seconds": result.train_seconds,
        "steps_per_second": result.steps_per_second,
        "mean_epoch_seconds": result.mean_epoch_seconds,
        "peak_rss_bytes": peak_rss,
    }
    for k in hits_at:
        mean, _ = result.mean_std(f"hits@{k}")
        scalars[f"hits_at_{k}"] = mean
    scalars["mrr"] = result.mean_std("mrr")[0]
    diverged = sum(1 for fold in result.folds
                   if fold.log.status == "diverged")
    if diverged:
        scalars["folds_diverged"] = float(diverged)
    probed = [fold.log.probes[-1]["hits_at_1"] for fold in result.folds
              if fold.log.probes]
    if probed:
        scalars["probe_hits_at_1"] = float(np.mean(probed))
    nils = [fold.nil for fold in result.folds if fold.nil is not None]
    if nils:
        # corrupted-dataset runs: dangling detection + the matchable
        # metrics under abstention, recorded next to clean quality
        scalars["dangling_f1"] = float(np.mean([n.f1 for n in nils]))
        scalars["dangling_precision"] = float(
            np.mean([n.precision for n in nils]))
        scalars["dangling_recall"] = float(np.mean([n.recall for n in nils]))
        scalars["hits_at_1_matchable"] = float(
            np.mean([n.hits1_matchable for n in nils]))
        scalars["mrr_matchable"] = float(
            np.mean([n.mrr_matchable for n in nils]))
    return scalars
