"""Shared framework of the 12 entity alignment approaches.

Mirrors the paper's Figure 1/4 decomposition: an *embedding module* (the
subclass's ``_setup`` / ``_run_epoch``), an *alignment module* (distance
metric + inference, provided here), and an *interaction mode* declared in
each approach's :class:`ApproachInfo`.

Every approach trains through the same step: ``fit`` builds one
optimizer over ``_parameters()``, and each family's ``_run_epoch`` feeds
batches from :meth:`EmbeddingApproach._minibatches` to
:meth:`EmbeddingApproach._step`, which owns the ``forward`` /
``backward`` / ``step`` spans and counts ``steps_run``.

Training follows the common protocol of Table 4: fixed relation-triple
batch size and early stopping when validation Hits@1 begins to drop
(checked every ``valid_every`` epochs), restoring the best snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..alignment import csls as csls_rescale
from ..alignment import infer_alignment, rank_metrics, similarity_matrix
from ..alignment import SimilarityRows
from ..alignment.evaluate import (
    DanglingMetrics,
    RankMetrics,
    calibrate_abstention,
    nil_aware_metrics,
)
from ..autodiff import get_optimizer
from ..autodiff.sparse import SparseGrad
from ..faults import fault_point
from ..kg import AlignmentSplit, EntityIndex, KGPair
from ..obs import get_registry, peak_rss_bytes, report_progress, span, \
    tracing_enabled
from ..obs.ledger import record_run
from .checkpointing import (
    CheckpointSignalHandler,
    TrainingCheckpointer,
    restore_log_fields,
)

__all__ = [
    "ApproachConfig",
    "ApproachInfo",
    "AugmentationRecord",
    "TrainingLog",
    "PairData",
    "EmbeddingApproach",
]


@dataclass
class ApproachConfig:
    """Hyper-parameters shared by all approaches (Table 4 conventions)."""

    dim: int = 32
    epochs: int = 50
    lr: float = 0.02
    batch_size: int = 1024
    n_negatives: int = 5
    margin: float = 1.5
    optimizer: str = "adam"
    seed: int = 0
    valid_every: int = 10
    early_stop: bool = True
    patience: int = 2  # consecutive non-improving checks before stopping
    use_attributes: bool = True
    use_relations: bool = True
    # Streaming quality probes (docs/observability.md): every
    # ``probe_every`` epochs fit() scores Hits@1/5/10 + MRR on a sampled
    # validation subset plus embedding/gradient health; 0 disables.
    # Probes draw from their own RNG stream keyed by (seed, epoch), so a
    # probe-on run stays bit-identical to a probe-off run.
    probe_every: int = 0
    probe_sample: int = 64
    # Divergence sentinels: abort at the epoch boundary (status
    # "diverged") on non-finite loss/params, loss EWMA explosion, or —
    # when probes run — a probe-Hits@1 collapse/stagnation.
    sentinel: bool = False
    sentinel_loss_factor: float = 10.0
    sentinel_hits_drop: float = 0.5
    sentinel_patience: int = 0  # stagnant probes before abort; 0 disables


@dataclass(frozen=True)
class ApproachInfo:
    """Table 1 categorization of one approach."""

    name: str
    relation_embedding: str     # Triple / Path / Neighbor
    attribute_embedding: str    # '-', 'Att.', 'Literal'
    metric: str                 # cosine / euclidean / manhattan
    combination: str            # Transformation / Sharing / Swapping / Calibration
    learning: str               # Supervised / Semi-supervised
    requires_attributes: bool = False
    uses_attributes: bool = False
    uses_word_embeddings: bool = False


@dataclass
class AugmentationRecord:
    """Quality of one semi-supervised augmentation round (Figure 7)."""

    iteration: int
    n_proposed: int
    precision: float
    recall: float
    f1: float


@dataclass
class TrainingLog:
    """What one ``fit`` run recorded."""

    losses: list[float] = field(default_factory=list)
    valid_history: list[tuple[int, float]] = field(default_factory=list)
    augmentation: list[AugmentationRecord] = field(default_factory=list)
    epochs_run: int = 0
    best_epoch: int = 0
    train_seconds: float = 0.0
    steps_run: int = 0  # optimizer steps, for throughput reporting
    # Populated by the telemetry spans in fit(): per-epoch wall time and
    # the process peak RSS observed at the end of training.  Benches
    # (bench_fig8_running_time) read these instead of re-timing.
    epoch_seconds: list[float] = field(default_factory=list)
    peak_rss_bytes: int = 0
    # Quality-probe curves (docs/observability.md): one dict per probe
    # epoch with sampled Hits@k/MRR plus embedding/gradient health; fully
    # deterministic, so it checkpoints and resumes bit-identically.
    probes: list[dict] = field(default_factory=list)
    # Wall time spent inside probes, for overhead accounting (never
    # serialized — timing is not part of the deterministic log).
    probe_seconds: float = 0.0
    # Crash-safety bookkeeping (docs/robustness.md): "completed" when the
    # run reached its natural end, "interrupted" when a signal stopped it
    # at an epoch boundary after a checkpoint, "resumed" when it picked up
    # from a checkpoint and then completed, "diverged" when a sentinel
    # aborted it (``diverged_reason`` says which rule tripped).
    status: str = "completed"
    diverged_reason: str = ""
    resumed_from_epoch: int = 0

    @property
    def steps_per_second(self) -> float:
        """Training throughput (0.0 when nothing was timed)."""
        if self.train_seconds <= 0.0 or self.steps_run <= 0:
            return 0.0
        return self.steps_run / self.train_seconds


class PairData:
    """Integer indexing of a KG pair for the embedding models.

    Entities of both KGs share one id space.  With ``merge_seeds`` the
    training alignment is folded by *parameter sharing*: each aligned
    training pair maps to a single id (the "Sharing" combination mode).
    """

    def __init__(self, pair: KGPair, split: AlignmentSplit, merge_seeds: bool = False):
        self.pair = pair
        self.split = split
        self.merged = merge_seeds
        alias: dict[str, str] = {}
        if merge_seeds:
            alias = {b: a for a, b in split.train}
        self._alias = alias

        self.entities1 = sorted(pair.kg1.entities)
        self.entities2 = sorted(pair.kg2.entities)
        self.ent_index = EntityIndex()
        for entity in self.entities1:
            self.ent_index.add(entity)
        for entity in self.entities2:
            self.ent_index.add(alias.get(entity, entity))
        # Entities referenced only by the alignment (possible after feature
        # masking drops all their triples) still need ids for evaluation.
        for left, right in pair.alignment:
            self.ent_index.add(left)
            self.ent_index.add(alias.get(right, right))

        self.rel_index = EntityIndex()
        for _, relation, _ in pair.kg1.relation_triples:
            self.rel_index.add(f"1:{relation}")
        for _, relation, _ in pair.kg2.relation_triples:
            self.rel_index.add(f"2:{relation}")

        self.triples1 = self._index_triples(pair.kg1.relation_triples, "1")
        self.triples2 = self._index_triples(pair.kg2.relation_triples, "2")
        self.triples = (
            np.concatenate([self.triples1, self.triples2])
            if len(self.triples1) or len(self.triples2)
            else np.zeros((0, 3), dtype=np.int64)
        )

    def _index_triples(self, triples, side: str) -> np.ndarray:
        if not triples:
            return np.zeros((0, 3), dtype=np.int64)
        rows = [
            (
                self.entity_id(head),
                self.rel_index.id_of(f"{side}:{relation}"),
                self.entity_id(tail),
            )
            for head, relation, tail in triples
        ]
        return np.array(rows, dtype=np.int64)

    @property
    def n_entities(self) -> int:
        return len(self.ent_index)

    @property
    def n_relations(self) -> int:
        return max(1, len(self.rel_index))

    def entity_id(self, entity: str) -> int:
        return self.ent_index.id_of(self._alias.get(entity, entity))

    def entity_ids(self, entities) -> np.ndarray:
        return np.array([self.entity_id(e) for e in entities], dtype=np.int64)

    def seed_id_pairs(self, pairs) -> np.ndarray:
        """Id pairs for an alignment list, shape (n, 2)."""
        if not pairs:
            return np.zeros((0, 2), dtype=np.int64)
        return np.array(
            [(self.entity_id(a), self.entity_id(b)) for a, b in pairs],
            dtype=np.int64,
        )


class EmbeddingApproach:
    """Template of an embedding-based entity alignment approach.

    Subclasses implement ``_setup`` (build models from the pair + split),
    ``_parameters`` (what the optimizer trains) and ``_run_epoch`` (one
    training pass through :meth:`_step`, returning the epoch loss), and
    provide entity matrices via ``_source_matrix`` / ``_target_matrix``.
    """

    info: ApproachInfo
    lr_scale = 1.0  # times config.lr; literal-initialized RDGCN refines gently

    def __init__(self, config: ApproachConfig | None = None):
        self.config = config or ApproachConfig()
        self.log = TrainingLog()
        self.pair: KGPair | None = None
        self.split: AlignmentSplit | None = None

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _setup(self, pair: KGPair, split: AlignmentSplit, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def _run_epoch(self, epoch: int, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def _parameters(self):
        """All trainable parameters: what the optimizer updates, the
        best snapshot restores and checkpoints persist."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # the training step shared by every family
    # ------------------------------------------------------------------
    def _minibatches(self, rows: np.ndarray, batch_size: int,
                     rng: np.random.Generator):
        """One shuffled pass over ``rows`` in slices of ``batch_size``."""
        order = rng.permutation(len(rows))
        for start in range(0, len(rows), batch_size):
            yield rows[order[start:start + batch_size]]

    def _step(self, loss_fn, **attrs) -> float:
        """One optimizer step on the loss ``loss_fn()`` builds.

        Owns the ``forward`` / ``backward`` / ``step`` spans (``attrs``
        label all three) and the ``steps_run`` count; returns the loss.
        """
        self.optimizer.zero_grad()
        with span("forward", **attrs):
            loss = loss_fn()
        with span("backward", **attrs):
            loss.backward()
        with span("step", **attrs):
            self.optimizer.step()
        self.log.steps_run += 1
        return float(loss.data)

    def _normalize_model(self) -> None:
        """Per-epoch entity renormalization for approaches with a
        ``self.model`` relation model."""
        with span("normalize"):
            self.model.normalize()

    def _source_matrix(self, entities: list[str]) -> np.ndarray:
        """Embeddings of KG1 entities, mapped into the comparison space."""
        raise NotImplementedError

    def _target_matrix(self, entities: list[str]) -> np.ndarray:
        """Embeddings of KG2 entities in the comparison space."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(
        self,
        pair: KGPair,
        split: AlignmentSplit,
        *,
        checkpoint_dir: Path | str | None = None,
        checkpoint_every: int = 1,
        resume_from: Path | str | bool | None = None,
        quality_path: Path | str | None = None,
    ) -> TrainingLog:
        """Train on ``split.train``, early-stopping on ``split.valid``.

        Crash safety (docs/robustness.md): with ``checkpoint_dir`` set,
        a resumable checkpoint (parameters, optimizer state, RNG state,
        log, early-stopping bookkeeping) is written atomically every
        ``checkpoint_every`` epochs, and SIGTERM/SIGINT trigger one at
        the next epoch boundary before training stops with
        ``log.status == "interrupted"``.  ``resume_from`` (a checkpoint
        directory, or ``True`` for ``checkpoint_dir`` itself) restores
        that state and continues; a resumed run is *exactly* equivalent
        to one that never stopped — same RNG stream, same final
        embeddings.  Resuming from a directory without a completed
        checkpoint silently starts fresh, so kill-at-any-point retry
        loops need no special casing.

        Quality observability (docs/observability.md): with
        ``config.probe_every`` or ``config.sentinel`` set, a
        :class:`repro.obs.quality.QualityMonitor` runs after every epoch
        — streaming Hits@k probes into ``log.probes`` and divergence
        sentinels that latch an abort at the epoch boundary exactly like
        SIGTERM, with ``log.status == "diverged"``.  Probe curves are
        also appended to ``quality_path`` (defaults to
        ``checkpoint_dir/quality.jsonl`` when checkpointing).
        """
        config = self.config
        rng = np.random.default_rng(config.seed)
        self.pair = pair
        self.split = split
        self.log = TrainingLog()
        started = time.perf_counter()
        if resume_from is True:
            resume_from = checkpoint_dir
        elif resume_from is False:
            resume_from = None
        checkpointer = (TrainingCheckpointer(checkpoint_dir)
                        if checkpoint_dir is not None else None)
        interrupted = False
        diverged = False
        monitor = None
        if config.probe_every > 0 or config.sentinel:
            from ..obs.quality import QualityMonitor
            if quality_path is None and checkpoint_dir is not None:
                quality_path = Path(checkpoint_dir) / "quality.jsonl"
            # probe on validation pairs; fall back to test pairs so
            # valid-less runs still get curves (probes never feed training)
            monitor = QualityMonitor(
                self, split.valid or split.test, path=quality_path)
        with span("fit", approach=self.info.name, dataset=pair.name):
            with span("setup"):
                self._setup(pair, split, rng)
                self.optimizer = get_optimizer(
                    config.optimizer, self._parameters(),
                    config.lr * self.lr_scale)

            best_hits = -1.0
            best_state: list[np.ndarray] | None = None
            best_epoch = 0
            bad_checks = 0
            start_epoch = 1
            restored = None
            if resume_from is not None:
                restored = TrainingCheckpointer(resume_from).try_restore(
                    self._parameters(),
                    optimizer=self.optimizer,
                    rng=rng,
                )
            if restored is not None:
                best_hits = restored["best_hits"]
                best_epoch = restored["best_epoch"]
                bad_checks = restored["bad_checks"]
                best_state = restored["best_state"]
                start_epoch = restored["epoch"] + 1
                restore_log_fields(self.log, restored.get("log"))
                extra_state = dict(restored.get("extra") or {})
                quality_state = extra_state.pop("__quality__", None)
                if monitor is not None and quality_state:
                    monitor.load_state(quality_state)
                self._load_extra_state(extra_state)
                self.log.resumed_from_epoch = restored["epoch"]
            elif split.valid and config.valid_every:
                # epoch-0 snapshot: approaches with informative initialization
                # (literal features) must never end below their starting point
                with span("validate", epoch=0):
                    best_hits = self.evaluate(split.valid, hits_at=(1,)).hits_at(1)
                best_state = [p.data.copy() for p in self._parameters()]
            with CheckpointSignalHandler(enabled=checkpointer is not None) \
                    as signals:
                for epoch in range(start_epoch, config.epochs + 1):
                    epoch_started = time.perf_counter()
                    with span("epoch", epoch=epoch) as epoch_span:
                        loss = self._run_epoch(epoch, rng)
                        epoch_span.set(loss=loss)
                    self.log.epoch_seconds.append(time.perf_counter() - epoch_started)
                    self.log.losses.append(loss)
                    self.log.epochs_run = epoch
                    if tracing_enabled():
                        self._record_epoch_gauges(loss)
                    # one dict update when a heartbeat sink is installed
                    # (sweep workers); literally nothing otherwise
                    report_progress(stage="train", epoch=epoch,
                                    epochs=config.epochs,
                                    steps=self.log.steps_run)
                    diverge_reason = None
                    if monitor is not None:
                        diverge_reason = monitor.observe(epoch, loss)
                    stop = False
                    if split.valid and config.valid_every and epoch % config.valid_every == 0:
                        with span("validate", epoch=epoch):
                            hits1 = self.evaluate(split.valid, hits_at=(1,)).hits_at(1)
                        self.log.valid_history.append((epoch, hits1))
                        if hits1 >= best_hits:
                            best_hits = hits1
                            best_epoch = epoch
                            best_state = [p.data.copy() for p in self._parameters()]
                            bad_checks = 0
                        else:
                            bad_checks += 1
                            if config.early_stop and bad_checks >= config.patience:
                                stop = True
                    # the safe epoch boundary: batches done, model
                    # normalized, validation recorded
                    fault_point("epoch.end")
                    if checkpointer is not None and not stop and (
                        signals.requested
                        or diverge_reason is not None
                        or (checkpoint_every > 0
                            and epoch % checkpoint_every == 0)
                        or epoch == config.epochs
                    ):
                        extra = self._extra_state()
                        if monitor is not None:
                            extra = {**extra,
                                     "__quality__": monitor.state_dict()}
                        with span("checkpoint", epoch=epoch):
                            checkpointer.save(
                                epoch=epoch,
                                parameters=self._parameters(),
                                optimizer=self.optimizer,
                                rng=rng,
                                log=self.log,
                                best_state=best_state,
                                best_hits=best_hits,
                                best_epoch=best_epoch,
                                bad_checks=bad_checks,
                                approach=self.info.name,
                                extra=extra,
                            )
                    if signals.requested:
                        interrupted = True
                        break
                    if diverge_reason is not None:
                        # sentinel abort: same epoch-boundary latch as the
                        # signal path, but the best snapshot still restores
                        # below so the model ends on its last good state
                        diverged = True
                        self.log.diverged_reason = diverge_reason
                        break
                    if stop:
                        break
            if best_state is not None and not interrupted:
                for parameter, saved in zip(self._parameters(), best_state):
                    parameter.data[...] = saved
        # without validation the last epoch counts as the best; with it,
        # the restored snapshot's epoch, which may be the epoch-0 one
        self.log.best_epoch = (best_epoch if best_state is not None
                               else self.log.epochs_run)
        self.log.train_seconds = time.perf_counter() - started
        self.log.peak_rss_bytes = peak_rss_bytes()
        if monitor is not None:
            self.log.probe_seconds = monitor.probe_seconds
            monitor.close()
        if interrupted:
            self.log.status = "interrupted"
        elif diverged:
            self.log.status = "diverged"
        elif restored is not None:
            self.log.status = "resumed"
        if checkpointer is not None:
            # no-op unless REPRO_LEDGER_PATH is set (docs/observability.md)
            record_run(
                "train", f"fit/{self.info.name}/{pair.name}",
                config={"approach": self.info.name, "dataset": pair.name,
                        "seed": config.seed, "epochs": config.epochs,
                        "dim": config.dim, "status": self.log.status},
                scalars={"epochs_run": self.log.epochs_run,
                         "train_seconds": self.log.train_seconds,
                         "steps_per_second": self.log.steps_per_second,
                         "resumed_from_epoch": self.log.resumed_from_epoch,
                         **({"probe_hits_at_1": monitor.last_hits1}
                            if monitor is not None
                            and monitor.last_hits1 is not None else {})},
            )
        return self.log

    # -- approach-specific resumable state -----------------------------
    def _extra_state(self) -> dict:
        """JSON-serializable state beyond parameters/optimizer/RNG that a
        resumed run needs (semi-supervised augmentation, samplers …).
        Default: none."""
        return {}

    def _load_extra_state(self, state: dict) -> None:
        """Restore what :meth:`_extra_state` captured; default no-op."""

    def _record_epoch_gauges(self, loss: float) -> None:
        """Export loss / last-batch grad norm / touched rows as gauges.

        Only called while tracing is enabled: the grad-norm pass walks
        every parameter gradient, which the untraced hot path must not
        pay for.
        """
        registry = get_registry()
        name = self.info.name
        registry.gauge("train.loss", approach=name).set(loss)
        grad_sq = 0.0
        touched = 0
        for parameter in self._parameters():
            grad = parameter.grad
            if grad is None:
                continue
            if isinstance(grad, SparseGrad):
                # Optimizer.step left it coalesced: unique rows, no copy
                grad = grad.coalesce()
                grad_sq += float((grad.values ** 2).sum())
                touched += len(grad.indices)
            else:
                grad_sq += float((np.asarray(grad) ** 2).sum())
                touched += parameter.shape[0] if parameter.ndim else 1
        registry.gauge("train.grad_norm", approach=name).set(grad_sq ** 0.5)
        registry.gauge("train.touched_rows", approach=name).set(touched)

    # ------------------------------------------------------------------
    # alignment module
    # ------------------------------------------------------------------
    def similarity_between(
        self,
        sources: list[str],
        targets: list[str],
        metric: str | None = None,
        csls_k: int = 0,
    ) -> np.ndarray:
        """Similarity matrix between named source and target entities."""
        matrix = similarity_matrix(
            self._source_matrix(sources),
            self._target_matrix(targets),
            metric or self.info.metric,
        )
        if csls_k > 0:
            matrix = csls_rescale(matrix, k=csls_k)
        return matrix

    def similarity_slabs(
        self,
        sources: list[str],
        targets: list[str],
        metric: str | None = None,
        csls_k: int = 0,
    ) -> SimilarityRows:
        """:meth:`similarity_between`'s matrix as the ``(start, slab)``
        stream of :func:`~repro.alignment.similarity_blocks`, which can
        be read again by rows (:class:`~repro.alignment.SimilarityRows`)."""
        return SimilarityRows(
            self._source_matrix(sources),
            self._target_matrix(targets),
            metric=metric or self.info.metric,
            csls_k=csls_k,
        )

    def predict(
        self,
        pairs: list[tuple[str, str]],
        strategy: str = "greedy",
        metric: str | None = None,
        csls_k: int = 0,
    ) -> list[tuple[str, str]]:
        """Predicted alignment over the entities of ``pairs``."""
        sources = [a for a, _ in pairs]
        targets = [b for _, b in pairs]
        # only the Hungarian assignment needs the whole matrix
        similarity = (self.similarity_between if strategy == "hungarian"
                      else self.similarity_slabs)(
            sources, targets, metric, csls_k)
        assignment = infer_alignment(similarity, strategy)
        return [
            (source, targets[int(j)])
            for source, j in zip(sources, assignment)
            if j >= 0
        ]

    def evaluate(
        self,
        pairs: list[tuple[str, str]],
        hits_at: tuple[int, ...] = (1, 5, 10),
        metric: str | None = None,
        csls_k: int = 0,
        candidates: str = "test",
    ) -> RankMetrics:
        """Rank metrics over ``pairs``.

        ``candidates`` selects the target candidate set: ``"test"`` ranks
        against the targets of ``pairs`` (the compact OpenEA protocol);
        ``"all"`` ranks against every entity of KG2 — the harder setting
        whose cost §7.2 discusses for large KGs.
        """
        if candidates == "test":
            similarity = self.similarity_slabs(
                [a for a, _ in pairs], [b for _, b in pairs], metric, csls_k)
            gold = np.arange(len(pairs))
        elif candidates == "all":
            similarity, gold = self.nil_similarity(pairs, [], metric, csls_k)
        else:
            raise ValueError("candidates must be 'test' or 'all'")
        return rank_metrics(similarity, gold, hits_at=hits_at)

    # ------------------------------------------------------------------
    # NIL-aware evaluation (dangling entities; docs/robustness.md)
    # ------------------------------------------------------------------
    def nil_similarity(
        self,
        pairs: list[tuple[str, str]],
        dangling: list[str],
        metric: str | None = None,
        csls_k: int = 0,
    ) -> tuple[SimilarityRows, np.ndarray]:
        """Similarity + NIL gold labels over the *full* KG2 candidate set.

        Rows are the matchable sources of ``pairs`` followed by the
        ``dangling`` sources (KG1 entities with no counterpart); columns
        are every KG2 entity.  ``gold[i]`` is the counterpart's column,
        or ``-1`` for dangling rows — the inputs
        :func:`repro.alignment.evaluate.nil_aware_metrics` expects, with
        the similarity as the slab stream of :meth:`similarity_slabs`.
        """
        if self.pair is None:
            raise RuntimeError("fit() must run before ranking all of KG2")
        # KG2's entities plus the aligned ones that appear in no triple
        # (an attribute-only pair loses some)
        targets = sorted(self.pair.kg2.entities.union(
            b for _, b in self.pair.alignment))
        index = {entity: i for i, entity in enumerate(targets)}
        sources = [a for a, _ in pairs] + list(dangling)
        gold = np.array(
            [index[b] for _, b in pairs] + [-1] * len(dangling),
            dtype=np.int64,
        )
        similarity = self.similarity_slabs(sources, targets, metric, csls_k)
        return similarity, gold

    def calibrate_abstention(
        self,
        pairs: list[tuple[str, str]],
        dangling: list[str],
        method: str = "threshold",
        metric: str | None = None,
        csls_k: int = 0,
    ) -> float:
        """F1-maximizing abstention threshold on a calibration split."""
        similarity, gold = self.nil_similarity(pairs, dangling, metric, csls_k)
        return calibrate_abstention(similarity, gold, method=method)

    def evaluate_dangling(
        self,
        pairs: list[tuple[str, str]],
        dangling: list[str],
        method: str = "threshold",
        threshold: float | None = None,
        metric: str | None = None,
        csls_k: int = 0,
    ) -> DanglingMetrics:
        """NIL-aware metrics on held-out matchable + dangling sources.

        With ``threshold=None`` the threshold is calibrated in-sample, on
        the same scores — fine for smoke checks; proper evaluation
        calibrates on a disjoint split via :meth:`calibrate_abstention`
        first.
        """
        similarity, gold = self.nil_similarity(pairs, dangling, metric, csls_k)
        return nil_aware_metrics(
            similarity, gold, method=method, threshold=threshold
        )
