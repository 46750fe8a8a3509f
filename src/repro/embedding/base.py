"""Base class for relation embedding models.

A relation model scores triples of (head, relation, tail) index arrays;
higher scores mean more plausible triples.  Every model exposes its entity
matrix for the alignment module and an optional per-epoch normalization
hook (several approaches constrain entity embeddings to the unit sphere).
"""

from __future__ import annotations

import numpy as np

from ..autodiff import EmbeddingTable, Module, Tensor, xavier_init

__all__ = ["RelationModel"]


class RelationModel(Module):
    """Common state of triple-scoring models."""

    def __init__(
        self,
        n_entities: int,
        n_relations: int,
        dim: int,
        rng: np.random.Generator,
        initializer=xavier_init,
    ):
        if n_entities <= 0 or n_relations <= 0:
            raise ValueError("model needs at least one entity and one relation")
        if dim <= 0:
            raise ValueError("embedding dimension must be positive")
        self.n_entities = n_entities
        self.n_relations = n_relations
        self.dim = dim
        self.entities = EmbeddingTable(n_entities, dim, rng, initializer, name="entities")
        self.relations = EmbeddingTable(n_relations, dim, rng, initializer, name="relations")

    def score(self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray) -> Tensor:
        """Plausibility scores for a batch of triples; shape ``(batch,)``."""
        raise NotImplementedError

    def entity_embeddings(self) -> np.ndarray:
        """Current entity matrix (used by the alignment module)."""
        return self.entities.all_embeddings()

    def normalize(self) -> None:
        """Per-epoch normalization hook; default constrains entities to
        the unit sphere (the setting §5.1 found to help most models)."""
        self.entities.normalize_rows()
