"""Sweep driver: spec -> jobs -> scheduler -> tables.

A *sweep spec* (TOML or JSON) declares datasets, approaches, optional
per-approach candidate grids and the fold protocol::

    [sweep]
    name = "smoke"
    n_folds = 2
    seed = 0
    epochs = 6            # default full budget per approach

    [halving]
    min_epochs = 2
    eta = 2

    [[datasets]]
    family = "EN-FR"
    size = 150
    method = "direct"

    [[approaches]]
    name = "MTransE"
    config = { dim = 16, lr = 0.05, valid_every = 2 }
    grid = { lr = [0.02, 0.05, 0.2, 1.0] }

:func:`run_sweep` turns that into two phases:

1. **Tuning** — for every (approach, dataset) group with more than one
   grid candidate, successive-halving rungs on a single tuning fold
   cull the grid down to one winner (scored on validation Hits@1,
   never test).  Rung promotions resume the candidate's training
   checkpoint, so a survivor pays each epoch once.
2. **Final cross-validation** — every winner (and every grid-less
   approach) trains all ``n_folds`` folds at the full budget.

Both phases run through :func:`repro.orchestrate.scheduler.run_jobs`,
so they parallelize over worker processes, stream into the sweep
progress file (crash-safe resume) and append one ledger record per
completed job tagged with the sweep id.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..fingerprint import config_fingerprint
from ..obs import get_registry, record_run, span
from ..pipeline.runner import CVResult, fold_from_dict
from .halving import HalvingSchedule
from .jobs import JobSpec, dataset_key, execute_job, load_dataset
from .progress import SweepProgress
from .scheduler import ScheduleStats, run_jobs
from .telemetry import SweepTelemetry

__all__ = ["SweepSpec", "SweepResult", "load_spec", "parse_spec",
           "run_sweep", "expand_grid", "payload_metrics"]


def payload_metrics(payload: dict) -> dict:
    """The deterministic portion of a job payload.

    Drops wall-clock and memory fields (``seconds``, ``train_seconds``,
    ``epoch_seconds``, ``peak_rss_bytes``) so two runs of the same job —
    serial vs parallel, clean vs crash-resumed — can be compared for
    bit-identity.  Everything that remains (metrics, losses, validation
    history, seeds, epochs) must match exactly.
    """
    payload = json.loads(json.dumps(payload))  # deep copy, plain data
    # status differs between clean ("completed") and crash-resumed
    # ("resumed") executions of the same job; the metrics must not
    payload.pop("status", None)
    fold = payload.get("fold_result", {})
    for key in ("seconds", "train_seconds", "peak_rss_bytes"):
        fold.pop(key, None)
    log = fold.get("log") or {}
    log.pop("epoch_seconds", None)
    return payload


# ---------------------------------------------------------------------------
# the spec
# ---------------------------------------------------------------------------
@dataclass
class SweepSpec:
    """Parsed, validated sweep specification."""

    name: str
    datasets: list[dict]
    approaches: list[dict]  # {"name", "config", "grid", "epochs"}
    n_folds: int = 2
    seed: int = 0
    epochs: int = 10
    hits_at: tuple = (1, 5, 10)
    min_epochs: int = 1
    eta: int = 2
    tune_fold: int = 1

    def payload(self) -> dict:
        """Canonical plain-data form (fingerprint / progress / ledger)."""
        return {
            "name": self.name,
            "datasets": [dict(d) for d in self.datasets],
            "approaches": [
                {"name": a["name"], "config": dict(a["config"]),
                 "grid": {k: list(v) for k, v in a["grid"].items()},
                 "epochs": a["epochs"]}
                for a in self.approaches
            ],
            "n_folds": self.n_folds,
            "seed": self.seed,
            "hits_at": list(self.hits_at),
            "halving": {"min_epochs": self.min_epochs, "eta": self.eta,
                        "tune_fold": self.tune_fold},
        }

    @property
    def sweep_id(self) -> str:
        """Stable sweep identity: spec name + config fingerprint.

        Re-running (or resuming) the same spec yields the same id, so
        ledger baselines built "within this sweep" survive restarts.
        """
        digest = config_fingerprint(self.payload(), include_env=False)
        return f"{self.name}@{digest[:8]}"


def parse_spec(data: dict, *, name: str = "sweep") -> SweepSpec:
    """Validate a raw spec mapping (parsed TOML/JSON) into a SweepSpec."""
    sweep = dict(data.get("sweep", {}))
    halving = dict(data.get("halving", {}))
    datasets = [dict(d) for d in data.get("datasets", [])]
    if not datasets:
        raise ValueError("sweep spec needs at least one [[datasets]] entry")
    raw_approaches = data.get("approaches", [])
    if not raw_approaches:
        raise ValueError("sweep spec needs at least one [[approaches]] entry")
    default_epochs = int(sweep.get("epochs", 10))
    approaches = []
    for entry in raw_approaches:
        entry = dict(entry)
        config = dict(entry.get("config", {}))
        epochs = int(config.pop("epochs", entry.get("epochs",
                                                    default_epochs)))
        grid = {key: list(values)
                for key, values in dict(entry.get("grid", {})).items()}
        for key in grid:
            if key == "epochs" or key == "seed":
                raise ValueError(
                    f"grid may not sweep {key!r}: epochs is the halving "
                    f"budget and seeds are derived per job"
                )
        approaches.append({
            "name": str(entry["name"]), "config": config,
            "grid": grid, "epochs": epochs,
        })
    n_folds = int(sweep.get("n_folds", 2))
    if not 1 <= n_folds <= 5:
        raise ValueError("sweep.n_folds must be between 1 and 5")
    return SweepSpec(
        name=str(sweep.get("name", name)),
        datasets=datasets,
        approaches=approaches,
        n_folds=n_folds,
        seed=int(sweep.get("seed", 0)),
        epochs=default_epochs,
        hits_at=tuple(int(k) for k in sweep.get("hits_at", (1, 5, 10))),
        min_epochs=int(halving.get("min_epochs", 1)),
        eta=int(halving.get("eta", 2)),
        tune_fold=int(halving.get("tune_fold", 1)),
    )


def load_spec(path: Path | str) -> SweepSpec:
    """Load a sweep spec from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    if path.suffix.lower() not in (".toml", ".json"):
        raise ValueError(
            f"unsupported sweep spec format {path.suffix!r} "
            f"(use .toml or .json)"
        )
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".toml":
        import tomllib

        data = tomllib.loads(text)
    else:
        data = json.loads(text)
    return parse_spec(data, name=path.stem)


def expand_grid(grid: dict) -> list[tuple[str, dict]]:
    """Cartesian product of a grid into (candidate id, overrides) pairs.

    Candidate ids are canonical ``key=value`` strings sorted by key, so
    they are stable across runs and order survivor tie-breaking."""
    if not grid:
        return [("", {})]
    keys = sorted(grid)
    candidates = []
    for values in itertools.product(*(grid[key] for key in keys)):
        overrides = dict(zip(keys, values))
        cand_id = ",".join(f"{key}={overrides[key]!r}"
                           if isinstance(overrides[key], str)
                           else f"{key}={overrides[key]}"
                           for key in keys)
        candidates.append((cand_id, overrides))
    return candidates


def _dataset_name(dataset: dict, pair=None) -> str:
    """Human name of a dataset spec (the KGPair name when available)."""
    if pair is not None:
        return pair.name
    if "path" in dataset:
        return Path(str(dataset["path"])).name
    return str(dataset.get("family", "dataset"))


# ---------------------------------------------------------------------------
# the result
# ---------------------------------------------------------------------------
@dataclass
class SweepResult:
    """Everything one sweep run produced."""

    sweep_id: str
    spec: SweepSpec
    tables: dict = field(default_factory=dict)   # (approach, ds) -> CVResult
    winners: dict = field(default_factory=dict)  # (approach, ds) -> cand id
    pruned: dict = field(default_factory=dict)   # (approach, ds) -> [cand]
    job_payloads: dict = field(default_factory=dict)  # job_id -> payload
    stats: ScheduleStats = field(default_factory=ScheduleStats)
    notes: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def n_pruned(self) -> int:
        return sum(len(cands) for cands in self.pruned.values())

    def format(self) -> str:
        lines = [f"== sweep {self.sweep_id}: {self.stats.summary()}, "
                 f"{self.n_pruned} candidate(s) pruned, "
                 f"{self.seconds:.1f}s wall =="]
        lines += [f"   {note}" for note in self.notes]
        header = (f"{'approach':10s} {'dataset':18s} {'H@1':>11s} "
                  f"{'H@5':>11s} {'MRR':>11s} {'s/fold':>7s}  winner")
        lines += [header, "-" * len(header)]
        for (approach, dataset), cv in sorted(self.tables.items()):
            hits1 = cv.mean_std("hits@1")
            hits5 = cv.mean_std("hits@5")
            mrr = cv.mean_std("mrr")
            winner = self.winners.get((approach, dataset), "") or "-"
            lines.append(
                f"{approach:10s} {dataset:18s} "
                f"{hits1[0]:.3f}±{hits1[1]:.3f} "
                f"{hits5[0]:.3f}±{hits5[1]:.3f} "
                f"{mrr[0]:.3f}±{mrr[1]:.3f} {cv.train_seconds:7.1f}  "
                f"{winner}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------
def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    workdir: Path | str | None = None,
    record: bool = True,
    max_attempts: int = 3,
    telemetry: bool = True,
    heartbeat_interval: float = 1.0,
    stall_intervals: int = 5,
) -> SweepResult:
    """Run one sweep end to end; see the module docstring.

    ``workdir`` enables crash safety: sweep progress, training
    checkpoints and rung-resume lineages all live there, and re-running
    with the same workdir restores completed jobs instead of
    recomputing them.  ``record=False`` suppresses ledger records (the
    ledger is also a no-op unless ``REPRO_LEDGER_PATH`` is set).

    With a ``workdir`` (and ``telemetry=True``, the default) the sweep
    also runs the live-telemetry stack (docs/observability.md): a
    ``<workdir>/telemetry/`` directory carries the parent event bus,
    per-worker heartbeat files (sampled every ``heartbeat_interval``
    seconds; a worker silent for ``stall_intervals`` intervals is
    flagged stalled), and the stitched distributed Chrome trace —
    watch it live with ``repro obs-top <workdir>``.  Telemetry only
    observes: results remain bit-identical to a serial, untelemetered
    run.
    """
    started = time.perf_counter()
    registry = get_registry()
    result = SweepResult(sweep_id=spec.sweep_id, spec=spec)

    progress: SweepProgress | None = None
    restored: dict[str, dict] = {}
    if workdir is not None:
        workdir = Path(workdir)
        progress = SweepProgress(workdir, spec.payload())
        restored = progress.load()

    sweep_telemetry: SweepTelemetry | None = None
    if telemetry and workdir is not None:
        sweep_telemetry = SweepTelemetry(
            workdir, sweep_id=spec.sweep_id, jobs=jobs, registry=registry,
            heartbeat_interval=heartbeat_interval,
            stall_intervals=stall_intervals,
        )

    def on_complete(job_spec: JobSpec, payload: dict) -> None:
        if progress is not None:
            progress.record(job_spec.job_id, payload)
        if record:
            _record_job(spec, job_spec, payload)

    def schedule(batch: list[JobSpec]) -> dict[str, dict]:
        if sweep_telemetry is not None:
            batch = [job.with_trace(sweep_telemetry.trace_id,
                                    sweep_telemetry.root_span_id)
                     for job in batch]
        payloads, stats = run_jobs(
            batch, jobs=jobs, runner=execute_job,
            runner_kwargs={"pairs": pairs, "workdir": workdir},
            label=spec.sweep_id, registry=registry,
            on_complete=on_complete, already=restored,
            max_attempts=max_attempts, telemetry=sweep_telemetry,
        )
        result.stats.executed += stats.executed
        result.stats.restored += stats.restored
        result.stats.requeued += stats.requeued
        result.stats.failed.update(stats.failed)
        result.stats.worker_deaths += stats.worker_deaths
        if stats.failed:
            details = "; ".join(f"{job_id}: {error}"
                                for job_id, error in stats.failed.items())
            raise RuntimeError(f"sweep {spec.sweep_id} jobs failed: "
                              f"{details}")
        restored.update(payloads)  # later phases reuse earlier results
        result.job_payloads.update(payloads)
        return payloads

    with (sweep_telemetry if sweep_telemetry is not None else nullcontext()), \
            span("sweep", sweep_id=spec.sweep_id, jobs=jobs,
                 n_datasets=len(spec.datasets),
                 n_approaches=len(spec.approaches)):
        # Datasets are built once in the parent; forked workers inherit
        # them instead of regenerating per job.
        pairs = {dataset_key(ds): load_dataset(ds) for ds in spec.datasets}

        # -- phase 1: successive halving per (approach, dataset) grid --
        final_jobs: list[JobSpec] = []
        with span("sweep.tune", sweep_id=spec.sweep_id):
            for entry in spec.approaches:
                for ds in spec.datasets:
                    ds_name = _dataset_name(ds, pairs[dataset_key(ds)])
                    winner_cand, winner_overrides, pruned = _tune_group(
                        spec, entry, ds, schedule, registry)
                    result.winners[(entry["name"], ds_name)] = winner_cand
                    result.pruned[(entry["name"], ds_name)] = pruned
                    if pruned:
                        result.notes.append(
                            f"{entry['name']}/{ds_name}: kept "
                            f"{winner_cand or 'sole candidate'}, pruned "
                            f"{len(pruned)} candidate(s) "
                            f"({', '.join(pruned)})"
                        )
                    config = {**entry["config"], **winner_overrides}
                    final_jobs += [
                        JobSpec(
                            approach=entry["name"], dataset=dict(ds),
                            fold=fold, cv_seed=spec.seed, config=config,
                            epochs=entry["epochs"],
                            candidate=winner_cand, stage="final",
                            hits_at=spec.hits_at, base_seed=spec.seed,
                        )
                        for fold in range(1, spec.n_folds + 1)
                    ]

        # -- phase 2: full cross-validation of the winners -------------
        with span("sweep.final", sweep_id=spec.sweep_id,
                  n_jobs=len(final_jobs)):
            payloads = schedule(final_jobs)

        for job in final_jobs:
            payload = payloads[job.job_id]
            key = (job.approach, payload["dataset"])
            cv = result.tables.get(key)
            if cv is None:
                cv = CVResult(name=job.approach, dataset=payload["dataset"])
                result.tables[key] = cv
            cv.folds.append(fold_from_dict(payload["fold_result"]))

    result.seconds = time.perf_counter() - started
    if record:
        scalars = {
            "jobs_executed": len(result.stats.executed),
            "jobs_restored": len(result.stats.restored),
            "jobs_requeued": len(result.stats.requeued),
            "jobs_failed": len(result.stats.failed),
            "candidates_pruned": result.n_pruned,
            "sweep_seconds": result.seconds,
        }
        if sweep_telemetry is not None:
            # per-worker peak RSS, heartbeat coverage, stall count
            scalars.update(sweep_telemetry.scalars())
        record_run(
            "sweep", f"{spec.name}/summary",
            config={**spec.payload(), "sweep_id": spec.sweep_id},
            fingerprint=config_fingerprint(spec.payload()),
            scalars=scalars,
            registry=registry,
        )
    return result


def _tune_group(spec, entry, ds, schedule, registry):
    """Halving rungs for one (approach, dataset) group.

    Returns ``(winner candidate id, winner overrides, pruned ids)``.
    """
    candidates = expand_grid(entry["grid"])
    if len(candidates) == 1:
        return candidates[0][0], candidates[0][1], []
    overrides_by_id = dict(candidates)
    plan = HalvingSchedule(
        n_candidates=len(candidates), max_epochs=entry["epochs"],
        min_epochs=spec.min_epochs, eta=spec.eta,
    )
    ds_name = _dataset_name(ds)

    alive = [cand_id for cand_id, _ in candidates]
    pruned: list[str] = []
    for rung, budget in enumerate(plan.budgets()):
        if len(alive) == 1:
            break
        batch = [
            JobSpec(
                approach=entry["name"], dataset=dict(ds),
                fold=spec.tune_fold, cv_seed=spec.seed,
                config={**entry["config"], **overrides_by_id[cand_id]},
                epochs=budget, candidate=cand_id, stage="tune",
                rung=rung, hits_at=spec.hits_at, base_seed=spec.seed,
            )
            for cand_id in alive
        ]
        payloads = schedule(batch)
        scores = {job.candidate: payloads[job.job_id]["score"]
                  for job in batch}
        keep = plan.keep_after(rung, len(alive))
        from .halving import select_survivors

        survivors = select_survivors(scores, keep)
        dropped = [cand_id for cand_id in alive
                   if cand_id not in survivors]
        for _ in dropped:
            registry.counter("sweep.jobs_pruned",
                             sweep=spec.sweep_id).inc()
        pruned += dropped
        alive = survivors
    winner = alive[0]
    return winner, overrides_by_id[winner], pruned


def _record_job(spec: SweepSpec, job: JobSpec, payload: dict) -> None:
    """One ledger record per completed job, tagged with the sweep id.

    The record's *fingerprint* excludes the sweep id (job identity is
    comparable across sweeps of the same spec), while the *config*
    carries it so ``obs-ledger --sweep`` / ``obs-conformance --sweep``
    can scope queries to this sweep only.
    """
    fold = payload["fold_result"]
    scalars = {
        "score": payload["score"],
        "train_seconds": fold["train_seconds"],
        "seconds": fold["seconds"],
        "epochs": payload["epochs"],
        "mrr": fold["metrics"]["mrr"],
    }
    for k, hits in fold["metrics"]["hits"].items():
        scalars[f"hits_at_{k}"] = hits
    name = f"{spec.name}/{job.approach}/{payload['dataset']}/fold{job.fold}"
    if job.stage == "tune":
        name += f"@rung{job.rung}"
    record_run(
        "sweep", name,
        config={**job.payload(), "sweep_id": spec.sweep_id},
        fingerprint=config_fingerprint(job.payload()),
        scalars=scalars,
    )
