"""Translation-based alignment approaches: MTransE, SEA, IPTransE, BootEA.

These four cover the paper's main interaction modes for translational
embeddings: embedding-space transformation (MTransE, SEA), parameter
sharing with relation paths and self-training (IPTransE), and parameter
swapping with limit-based loss, truncated negative sampling and
bootstrapping (BootEA).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..alignment import mutual_nearest, normalize_rows
from ..autodiff import Parameter, Tensor
from ..obs import span
from ..embedding import (
    TransE,
    TruncatedSampler,
    limit_based_loss,
    logistic_loss,
    margin_ranking_loss,
    uniform_corrupt,
)
from .base import (
    ApproachConfig,
    ApproachInfo,
    AugmentationRecord,
    EmbeddingApproach,
    PairData,
)

__all__ = ["MTransE", "SEA", "IPTransE", "BootEA", "UnifiedTransApproach"]


# ---------------------------------------------------------------------------
# separate-spaces approaches (Transformation combination)
# ---------------------------------------------------------------------------
class MTransE(EmbeddingApproach):
    """Chen et al. (2017): TransE per KG + a learned linear transformation.

    The original trains with positives only (no negative sampling), which
    §5.2 identifies as its overfitting weakness; pass
    ``negative_sampling=True`` to reproduce the paper's ablation (+0.024
    Hits@1 on EN-FR-15K V1 in the original study).
    """

    info = ApproachInfo(
        name="MTransE", relation_embedding="Triple", attribute_embedding="-",
        metric="euclidean", combination="Transformation", learning="Supervised",
    )

    # models whose scores are unbounded similarities train better with the
    # logistic loss (the convention of their original papers)
    _LOGISTIC_MODELS = frozenset(
        {"distmult", "complex", "hole", "simple", "proje", "conve", "tucker"}
    )

    def __init__(self, config: ApproachConfig | None = None,
                 negative_sampling: bool = False, model_name: str = "transe"):
        super().__init__(config)
        self.negative_sampling = negative_sampling or model_name != "transe"
        self.model_name = model_name
        self.loss_name = (
            "logistic" if model_name in self._LOGISTIC_MODELS else "marginal"
        )

    def _setup(self, pair, split, rng):
        from ..embedding import get_relation_model

        config = self.config
        self.data = PairData(pair, split, merge_seeds=False)
        self.model = get_relation_model(self.model_name)(
            self.data.n_entities, self.data.n_relations, config.dim, rng
        )
        self.transform = Parameter(np.eye(config.dim), name="mtranse.M")
        self.seeds = self.data.seed_id_pairs(split.train)

    def _parameters(self):
        return self.model.parameters() + [self.transform]

    def _run_epoch(self, epoch, rng):
        config = self.config
        total, batches = 0.0, 0
        for batch in self._minibatches(self.data.triples, config.batch_size, rng):
            corrupted = None
            if self.negative_sampling:
                with span("neg_sampling"):
                    corrupted = uniform_corrupt(
                        batch, self.data.n_entities, config.n_negatives, rng
                    )
            total += self._step(lambda: self._batch_loss(batch, corrupted))
            batches += 1
        self._normalize_model()
        return total / max(batches, 1)

    def _batch_loss(self, batch: np.ndarray, corrupted: np.ndarray | None) -> Tensor:
        config = self.config
        positive = self.model.score(batch[:, 0], batch[:, 1], batch[:, 2])
        if corrupted is None:
            loss = (-positive).mean()  # positive-energy minimization only
        else:
            negative = self.model.score(
                corrupted[:, 0], corrupted[:, 1], corrupted[:, 2]
            )
            if self.loss_name == "logistic":
                loss = logistic_loss(positive, negative)
            else:
                loss = margin_ranking_loss(
                    positive,
                    negative.reshape(len(batch), config.n_negatives).mean(axis=1),
                    margin=config.margin,
                )
        return loss + self._alignment_loss()

    def _alignment_loss(self) -> Tensor:
        if not len(self.seeds):
            return Tensor(0.0)
        e1 = self.model.entities(self.seeds[:, 0])
        e2 = self.model.entities(self.seeds[:, 1])
        mapping = ((e1 @ self.transform) - e2).square().sum(axis=1).mean()
        # MTransE constrains the transformation towards orthogonality; it
        # also prevents rank collapse of M under aggressive optimization.
        identity = Tensor(np.eye(self.config.dim))
        orthogonality = (self.transform.T @ self.transform - identity).square().mean()
        return mapping + 0.5 * orthogonality

    def _source_matrix(self, entities):
        ids = self.data.entity_ids(entities)
        return self.model.entity_embeddings()[ids] @ self.transform.data

    def _target_matrix(self, entities):
        ids = self.data.entity_ids(entities)
        return self.model.entity_embeddings()[ids]


class SEA(MTransE):
    """Pei et al. (2019): transformation with negative sampling, cycle
    consistency and degree-aware regularization.

    The adversarial degree discriminator of the original is replaced by a
    direct degree-bucket norm regularizer with the same goal: stopping
    embedding norms from encoding entity degree (see DESIGN.md).
    """

    info = ApproachInfo(
        name="SEA", relation_embedding="Triple", attribute_embedding="-",
        metric="cosine", combination="Transformation", learning="Supervised",
    )

    def __init__(self, config: ApproachConfig | None = None):
        super().__init__(config, negative_sampling=True)

    def _setup(self, pair, split, rng):
        super()._setup(pair, split, rng)
        self.back_transform = Parameter(
            np.eye(self.config.dim), name="sea.M_back"
        )
        # degree buckets over all indexed entities, for the regularizer
        degrees = np.zeros(self.data.n_entities)
        for kg in (pair.kg1, pair.kg2):
            for entity, degree in kg.degrees().items():
                degrees[self.data.entity_id(entity)] += degree
        self._degree_buckets = [
            np.where((degrees >= low) & (degrees < high))[0]
            for low, high in ((0, 3), (3, 8), (8, np.inf))
        ]

    def _parameters(self):
        return super()._parameters() + [self.back_transform]

    def _alignment_loss(self) -> Tensor:
        if not len(self.seeds):
            return Tensor(0.0)
        e1 = self.model.entities(self.seeds[:, 0])
        e2 = self.model.entities(self.seeds[:, 1])
        forward = ((e1 @ self.transform) - e2).square().sum(axis=1).mean()
        backward = ((e2 @ self.back_transform) - e1).square().sum(axis=1).mean()
        cycle = ((e1 @ self.transform) @ self.back_transform - e1).square().sum(axis=1).mean()
        return forward + backward + 0.5 * cycle + 0.1 * self._degree_regularizer()

    def _degree_regularizer(self) -> Tensor:
        """Penalize differing mean embedding norms across degree buckets."""
        means = []
        for bucket in self._degree_buckets:
            if len(bucket) == 0:
                continue
            emb = self.model.entities(bucket)
            means.append(emb.norm(axis=1).mean())
        if len(means) < 2:
            return Tensor(0.0)
        loss = Tensor(0.0)
        for a, b in zip(means[:-1], means[1:]):
            loss = loss + (a - b).square()
        return loss


# ---------------------------------------------------------------------------
# unified-space approaches (Sharing / Swapping combinations)
# ---------------------------------------------------------------------------
class UnifiedTransApproach(EmbeddingApproach):
    """Shared machinery: one TransE-style space over both KGs.

    Subclasses toggle seed merging (parameter sharing), triple swapping
    and the loss function, and configure the epoch end by values: hard
    negatives from ``self.sampler`` (set in ``_setup``) are refreshed
    every ``refresh_every`` epochs, and every ``self_train_every`` epochs
    one self-training round proposes pairs from the unaligned pool's
    vectors (:meth:`_proposal_space`) by
    :func:`~repro.alignment.mutual_nearest`, then either accumulates them
    or, with ``self_train_edit``, edits the proposed alignment BootEA-style.
    """

    merge_seeds = True
    swapping = False
    loss_name = "marginal"
    calibration_weight = 0.0
    sampler: TruncatedSampler | None = None
    refresh_every = 0
    self_train_every = 0
    self_train_threshold = 0.7
    self_train_mutual = True
    self_train_edit = False

    def _setup(self, pair, split, rng):
        config = self.config
        self.data = PairData(pair, split, merge_seeds=self.merge_seeds)
        self.model = TransE(
            self.data.n_entities, self.data.n_relations, config.dim, rng
        )
        self.seeds = self.data.seed_id_pairs(split.train)
        # alignment proposed during self-training: entity ids for the
        # losses and swapping, entity names for the Figure 7 records
        self.augmented: dict[int, int] = {}
        self._proposed: list[tuple[str, str]] = []
        self._swapped = self._make_swapped() if self.swapping else None

    def _parameters(self):
        return self.model.parameters()

    # -- swapping ------------------------------------------------------
    def _make_swapped(self) -> np.ndarray:
        """Parameter swapping: seed (and augmented) pairs exchange roles in
        each other's triples (§2.2.3)."""
        seed_map: dict[int, int] = {}
        for a, b in self.seeds:
            seed_map[int(a)] = int(b)
            seed_map[int(b)] = int(a)
        for a, b in self.augmented.items():
            seed_map[a] = b
            seed_map[b] = a
        swapped = []
        for head, relation, tail in self.data.triples:
            if head in seed_map:
                swapped.append((seed_map[head], relation, tail))
            if tail in seed_map:
                swapped.append((head, relation, seed_map[tail]))
        if not swapped:
            return np.zeros((0, 3), dtype=np.int64)
        return np.array(swapped, dtype=np.int64)

    def _train_triples(self) -> np.ndarray:
        if self._swapped is not None and len(self._swapped):
            return np.concatenate([self.data.triples, self._swapped])
        return self.data.triples

    # -- loss ----------------------------------------------------------
    def _negatives(self, batch: np.ndarray, rng) -> np.ndarray:
        if self.sampler is not None:
            return self.sampler.corrupt(batch, self.config.n_negatives, rng)
        return uniform_corrupt(
            batch, self.data.n_entities, self.config.n_negatives, rng
        )

    def _triple_loss(self, positive: Tensor, negative: Tensor) -> Tensor:
        if self.loss_name == "limited":
            return limit_based_loss(positive, negative)
        negative = negative.reshape(-1, self.config.n_negatives).mean(axis=1)
        return margin_ranking_loss(positive, negative, margin=self.config.margin)

    def _calibration_loss(self) -> Tensor:
        """Pull (non-merged) seed/augmented pairs together in the space."""
        pairs = [(int(a), int(b)) for a, b in self.seeds] + list(self.augmented.items())
        if self.calibration_weight <= 0.0 or not pairs:
            return Tensor(0.0)
        ids = np.array(pairs, dtype=np.int64)
        e1 = self.model.entities(ids[:, 0])
        e2 = self.model.entities(ids[:, 1])
        return self.calibration_weight * (e1 - e2).square().sum(axis=1).mean()

    def _run_epoch(self, epoch, rng):
        total, batches = 0.0, 0
        for batch in self._minibatches(self._train_triples(),
                                       self.config.batch_size, rng):
            with span("neg_sampling"):
                corrupted = self._negatives(batch, rng)
            total += self._step(lambda: self._batch_loss(batch, corrupted))
            batches += 1
        self._normalize_model()
        self._after_epoch(epoch)
        return total / max(batches, 1)

    def _batch_loss(self, batch: np.ndarray, corrupted: np.ndarray) -> Tensor:
        positive = self.model.score(batch[:, 0], batch[:, 1], batch[:, 2])
        negative = self.model.score(corrupted[:, 0], corrupted[:, 1], corrupted[:, 2])
        return self._triple_loss(positive, negative) + self._calibration_loss()

    # -- epoch end: hard negatives and self-training -------------------
    def _after_epoch(self, epoch: int) -> None:
        if self.refresh_every and epoch % self.refresh_every == 0:
            with span("sampler_refresh", epoch=epoch):
                self.sampler.refresh(self.model.entity_embeddings())
        if self.self_train_every and epoch % self.self_train_every == 0:
            with span("bootstrap", epoch=epoch):
                self._self_train(epoch // self.self_train_every)

    def _self_train(self, iteration: int) -> None:
        """One round: propose from the pool, accumulate or edit, rebuild
        the swapped triples and record the proposed alignment."""
        pool1, pool2, source, target = self._proposal_space(iteration)
        proposals = [
            (pool1[i], pool2[j]) for i, j in mutual_nearest(
                source, target, self.self_train_threshold,
                self.self_train_mutual)
        ]
        if self.self_train_edit:
            self._proposed = self._edit(proposals)
            self.augmented = {
                self.data.entity_id(a): self.data.entity_id(b)
                for a, b in self._proposed
            }
        else:
            # no editing: earlier (possibly wrong) proposals stay
            for a, b in proposals:
                self.augmented[self.data.entity_id(a)] = self.data.entity_id(b)
            self._proposed = sorted(set(self._proposed) | set(proposals))
        if self.swapping:
            self._swapped = self._make_swapped()
        self._record_augmentation(iteration, self._proposed)

    def _proposal_space(
        self, iteration: int
    ) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
        """Round ``iteration``'s candidate pools and their unit vectors in
        the alignment space (one row per pool entity), whose dot products
        are the cosine scores :func:`~repro.alignment.mutual_nearest`
        proposes from."""
        pool1, pool2 = self._unaligned_candidates()
        return (pool1, pool2, normalize_rows(self._source_matrix(pool1)),
                normalize_rows(self._target_matrix(pool2)))

    def _edit(self, proposals: list[tuple[str, str]]) -> list[tuple[str, str]]:
        """Alignment editing: a source keeps only its newest mutual match,
        and many-to-one conflicts keep the most similar source."""
        names = dict(self._proposed)
        for a, b in proposals:
            names[a] = b
        edited: dict[str, str] = {}
        if names:
            sources = list(names)
            targets = [names[s] for s in sources]
            # each proposed pair's cosine, row by row
            scores = (normalize_rows(self._source_matrix(sources))
                      * normalize_rows(self._target_matrix(targets))
                      ).sum(axis=1)
            for source, target, score in sorted(
                zip(sources, targets, scores), key=lambda x: -x[2]
            ):
                if target not in edited.values() and source not in edited:
                    edited[source] = target
        return list(edited.items())

    # -- crash-safe resume (docs/robustness.md) ------------------------
    def _extra_state(self):
        return {
            "augmented": [[int(a), int(b)] for a, b in self.augmented.items()],
            "proposed": [[a, b] for a, b in self._proposed],
            "sampler_refreshed": self.sampler is not None and self.sampler.ready,
        }

    def _load_extra_state(self, state):
        self.augmented = {int(a): int(b)
                          for a, b in state.get("augmented", [])}
        self._proposed = [(a, b) for a, b in state.get("proposed", [])]
        if self.swapping:
            self._swapped = self._make_swapped()
        # Best-effort: the truncated sampler's neighbor cache is rebuilt
        # from the restored embeddings, which equal the ones it was built
        # from only when the checkpoint fell on a refresh epoch; otherwise
        # the resume is equivalent in expectation, not bit-for-bit — see
        # docs/robustness.md.
        if state.get("sampler_refreshed"):
            self.sampler.refresh(self.model.entity_embeddings())

    # -- embeddings ----------------------------------------------------
    def _source_matrix(self, entities):
        return self.model.entity_embeddings()[self.data.entity_ids(entities)]

    _target_matrix = _source_matrix

    # -- semi-supervised utilities --------------------------------------
    def _unaligned_candidates(self) -> tuple[list[str], list[str]]:
        """Entities not covered by train seeds (the augmentation pool)."""
        trained1 = {a for a, _ in self.split.train}
        trained2 = {b for _, b in self.split.train}
        pool1 = [a for a, _ in self.pair.alignment if a not in trained1]
        pool2 = [b for _, b in self.pair.alignment if b not in trained2]
        return pool1, pool2

    def _record_augmentation(self, iteration: int, proposed: list[tuple[str, str]]):
        """Score proposals against the (non-train) reference alignment."""
        gold = set(self.pair.alignment) - set(self.split.train)
        proposed_set = set(proposed)
        correct = len(proposed_set & gold)
        precision = correct / len(proposed_set) if proposed_set else 0.0
        recall = correct / len(gold) if gold else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall > 0 else 0.0
        )
        self.log.augmentation.append(
            AugmentationRecord(
                iteration=iteration, n_proposed=len(proposed_set),
                precision=precision, recall=recall, f1=f1,
            )
        )


class IPTransE(UnifiedTransApproach):
    """Zhu et al. (2017): path-based embedding with iterative self-training.

    Adds a relation-path composition loss (``r1 + r2 ~ r3``, Eq. 2) and a
    self-training loop that augments the seed alignment *without* error
    editing — the weakness Figure 7 exposes.
    """

    info = ApproachInfo(
        name="IPTransE", relation_embedding="Path", attribute_embedding="-",
        metric="euclidean", combination="Sharing", learning="Semi-supervised",
    )
    merge_seeds = True
    calibration_weight = 0.5
    # no mutual check and no editing: errors accumulate (Figure 7)
    self_train_mutual = False

    def __init__(self, config=None, augment_every: int = 10,
                 augment_threshold: float = 0.7):
        super().__init__(config)
        self.self_train_every = augment_every
        self.self_train_threshold = augment_threshold

    def _setup(self, pair, split, rng):
        super()._setup(pair, split, rng)
        self._paths = self._mine_paths()

    def _mine_paths(self, limit: int = 5000) -> np.ndarray:
        """(r1, r2, r3) ids where a 2-hop path co-exists with a direct edge."""
        out_edges: dict[int, list[tuple[int, int]]] = defaultdict(list)
        direct: dict[tuple[int, int], int] = {}
        for head, relation, tail in self.data.triples:
            out_edges[int(head)].append((int(relation), int(tail)))
            direct[(int(head), int(tail))] = int(relation)
        paths = []
        for head, first_hops in out_edges.items():
            for r1, middle in first_hops:
                for r2, tail in out_edges.get(middle, ()):
                    r3 = direct.get((head, tail))
                    if r3 is not None and tail != head:
                        paths.append((r1, r2, r3))
                        if len(paths) >= limit:
                            return np.array(paths, dtype=np.int64)
        if not paths:
            return np.zeros((0, 3), dtype=np.int64)
        return np.array(paths, dtype=np.int64)

    def _run_epoch(self, epoch, rng):
        loss = super()._run_epoch(epoch, rng)
        if len(self._paths):
            sample = self._paths[
                rng.choice(len(self._paths), size=min(512, len(self._paths)), replace=False)
            ]
            loss += self._step(lambda: self._path_loss(sample), phase="path")
        return loss

    def _path_loss(self, sample: np.ndarray) -> Tensor:
        r1 = self.model.relations(sample[:, 0])
        r2 = self.model.relations(sample[:, 1])
        r3 = self.model.relations(sample[:, 2])
        return ((r1 + r2) - r3).square().sum(axis=1).mean() * 0.3


class BootEA(UnifiedTransApproach):
    """Sun et al. (2018): bootstrapping entity alignment.

    Limit-based loss, epsilon-truncated negative sampling, parameter
    swapping, and a bootstrapping loop *with* alignment editing (mutual
    nearest neighbors, conflict resolution) — the combination §5.2 credits
    for its top-3 performance.  ``bootstrap=False`` gives the ablation.
    """

    info = ApproachInfo(
        name="BootEA", relation_embedding="Triple", attribute_embedding="-",
        metric="cosine", combination="Swapping", learning="Semi-supervised",
    )
    merge_seeds = False
    swapping = True
    loss_name = "limited"
    calibration_weight = 1.0
    self_train_edit = True

    def __init__(self, config=None, bootstrap: bool = True,
                 bootstrap_every: int = 5, bootstrap_threshold: float = 0.65,
                 truncation: float = 0.2):
        super().__init__(config)
        self.refresh_every = bootstrap_every
        self.self_train_every = bootstrap_every if bootstrap else 0
        self.self_train_threshold = bootstrap_threshold
        self.truncation = truncation

    def _setup(self, pair, split, rng):
        super()._setup(pair, split, rng)
        self.sampler = TruncatedSampler(
            self.data.n_entities, truncation=self.truncation
        )
