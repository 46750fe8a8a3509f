"""Unsupervised entity alignment (paper §7.2, future direction 1).

The paper observes that *no* surveyed approach works without seed
alignment and sketches two remedies: distilling distant supervision from
auxiliary features, and unsupervised cross-lingual word alignment
techniques such as orthogonal Procrustes.  This module implements that
sketch:

1. **distant supervision** — pseudo-seeds are collected from rare literal
   values shared across the KGs (no labels consumed);
2. two TransE spaces are trained independently, one per KG;
3. an **orthogonal Procrustes** rotation maps space 1 onto space 2 using
   the pseudo-seeds;
4. optional **iterative refinement** re-estimates the seed set from
   mutual nearest neighbors and re-solves Procrustes (the MUSE recipe).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..alignment import mutual_nearest, normalize_rows
from ..autodiff import Tensor
from ..embedding import TransE, margin_ranking_loss, uniform_corrupt
from ..kg import EntityIndex, KnowledgeGraph
from ..obs import span
from .base import ApproachConfig, ApproachInfo, EmbeddingApproach

__all__ = ["UnsupervisedProcrustes", "orthogonal_procrustes"]


def orthogonal_procrustes(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The rotation ``R`` minimizing ``||source R - target||_F`` with
    ``R^T R = I`` (Schönemann 1966): ``R = U V^T`` from the SVD of
    ``source^T target``."""
    if source.shape != target.shape:
        raise ValueError(
            f"paired matrices must match: {source.shape} != {target.shape}"
        )
    u, _, vt = np.linalg.svd(source.T @ target)
    return u @ vt


class _SingleKGSpace:
    """A TransE embedding space for one KG (no cross-KG interaction)."""

    def __init__(self, kg: KnowledgeGraph, config: ApproachConfig,
                 rng: np.random.Generator):
        self.index = EntityIndex(sorted(kg.entities))
        relations = EntityIndex(sorted(kg.relations) or ["_none_"])
        triples = [
            (self.index.id_of(h), relations.id_of(r), self.index.id_of(t))
            for h, r, t in kg.relation_triples
        ]
        self.triples = (
            np.array(triples, dtype=np.int64)
            if triples else np.zeros((0, 3), dtype=np.int64)
        )
        self.model = TransE(len(self.index), len(relations), config.dim, rng)

    def loss(self, batch: np.ndarray, corrupted: np.ndarray,
             margin: float) -> Tensor:
        positive = self.model.score(batch[:, 0], batch[:, 1], batch[:, 2])
        negative = self.model.score(
            corrupted[:, 0], corrupted[:, 1], corrupted[:, 2]
        ).reshape(len(batch), -1).mean(axis=1)
        return margin_ranking_loss(positive, negative, margin)

    def embeddings(self, entities: list[str]) -> np.ndarray:
        ids = [self.index.id_of(e) for e in entities]
        return self.model.entity_embeddings()[ids]


class UnsupervisedProcrustes(EmbeddingApproach):
    """Unsupervised alignment via distant supervision + Procrustes.

    ``fit`` ignores ``split.train`` entirely (asserted in the tests): the
    seed substitute comes from rare shared literals.
    """

    info = ApproachInfo(
        name="UnsupProcrustes", relation_embedding="Triple",
        attribute_embedding="Literal", metric="cosine",
        combination="Transformation", learning="Supervised",
        uses_attributes=True, requires_attributes=True,
    )

    def __init__(self, config: ApproachConfig | None = None,
                 refinement_rounds: int = 2, literal_blend: float = 0.4):
        super().__init__(config)
        self.refinement_rounds = refinement_rounds
        self.literal_blend = literal_blend

    # ------------------------------------------------------------------
    def _setup(self, pair, split, rng):
        self.space1 = _SingleKGSpace(pair.kg1, self.config, rng)
        self.space2 = _SingleKGSpace(pair.kg2, self.config, rng)
        self.pseudo_seeds = self._distant_supervision(pair)
        self.rotation = np.eye(self.config.dim)
        from .literals import value_word_vectors, word_tables

        table1, table2 = word_tables(pair, self.config.dim)
        self._literals1 = value_word_vectors(pair.kg1, table1)
        self._literals2 = value_word_vectors(pair.kg2, table2)
        # validation (and the epoch-0 snapshot) scores the rotated space
        self._solve_procrustes()

    @staticmethod
    def _distant_supervision(pair) -> list[tuple[str, str]]:
        """Pseudo-seeds: rare literal values appearing once in each KG."""
        def singletons(kg):
            holders: dict[str, list[str]] = defaultdict(list)
            for entity, _, value in kg.attribute_triples:
                holders[value].append(entity)
            return {v: es[0] for v, es in holders.items() if len(es) == 1}

        rare1 = singletons(pair.kg1)
        rare2 = singletons(pair.kg2)
        seen1: set[str] = set()
        seen2: set[str] = set()
        seeds = []
        for value, entity1 in rare1.items():
            entity2 = rare2.get(value)
            if entity2 is None or entity1 in seen1 or entity2 in seen2:
                continue
            seen1.add(entity1)
            seen2.add(entity2)
            seeds.append((entity1, entity2))
        return seeds

    def _run_epoch(self, epoch, rng):
        loss = (self._train_space(self.space1, rng)
                + self._train_space(self.space2, rng))
        self._solve_procrustes()
        return loss

    def _train_space(self, space: _SingleKGSpace, rng) -> float:
        """One pass over one KG's triples.  Both spaces share the
        optimizer: the idle space gets no gradient, so no step moves it."""
        config = self.config
        if not len(space.triples):
            return 0.0
        total, batches = 0.0, 0
        for batch in self._minibatches(space.triples, config.batch_size, rng):
            with span("neg_sampling"):
                corrupted = uniform_corrupt(
                    batch, len(space.index), config.n_negatives, rng
                )
            total += self._step(lambda: space.loss(batch, corrupted, config.margin))
            batches += 1
        with span("normalize"):
            space.model.normalize()
        return total / batches

    def _parameters(self):
        return self.space1.model.parameters() + self.space2.model.parameters()

    def fit(self, pair, split, **kwargs):
        """Unsupervised: the training seeds in ``split`` are never read.

        Keyword arguments (checkpointing, resume, quality path) pass
        through to :meth:`EmbeddingApproach.fit`.
        """
        log = super().fit(pair, split, **kwargs)
        # the restored best snapshot may predate the last epoch's rotation
        self._solve_procrustes()
        for _ in range(self.refinement_rounds):
            self._refine()
        return log

    # ------------------------------------------------------------------
    def _solve_procrustes(self) -> None:
        if not self.pseudo_seeds:
            return
        source = self.space1.embeddings([a for a, _ in self.pseudo_seeds])
        target = self.space2.embeddings([b for _, b in self.pseudo_seeds])
        self.rotation = orthogonal_procrustes(source, target)

    def _refine(self) -> None:
        """MUSE-style refinement: mutual nearest neighbors become the new
        seed set for the next Procrustes solve."""
        entities1 = self.space1.index.items()
        entities2 = self.space2.index.items()
        source = self._matrix(entities1, side=1)
        target = self._matrix(entities2, side=2)
        mutual = [(entities1[i], entities2[j])
                  for i, j in mutual_nearest(source, target)]
        if len(mutual) >= self.config.dim:
            self.pseudo_seeds = mutual
            self._solve_procrustes()

    # ------------------------------------------------------------------
    def _matrix(self, entities, side: int) -> np.ndarray:
        if side == 1:
            struct = normalize_rows(
                self.space1.embeddings(entities) @ self.rotation)
            literals = self._literals1
        else:
            struct = normalize_rows(self.space2.embeddings(entities))
            literals = self._literals2
        from .literals import vectors_to_matrix

        lit = normalize_rows(
            vectors_to_matrix(literals, list(entities), self.config.dim))
        blend = self.literal_blend
        return np.concatenate(
            [np.sqrt(1.0 - blend) * struct, np.sqrt(blend) * lit], axis=1
        )

    def _source_matrix(self, entities):
        return self._matrix(entities, side=1)

    def _target_matrix(self, entities):
        return self._matrix(entities, side=2)
