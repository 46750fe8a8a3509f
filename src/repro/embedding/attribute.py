"""Attribute embedding models: AC2Vec and Label2Vec (§4).

The paper's library integrates two attribute embedding models:

* **AC2Vec** (from JAPE) — attribute-*correlation* embedding: attributes
  frequently describing the same entity get nearby vectors (Eq. 4),
  trained with skip-gram-with-negative-sampling over per-entity
  attribute sets;
* **Label2Vec** (from MultiKE) — literal embedding of an entity's
  label-like value using (cross-lingually anchored) word vectors.
"""

from __future__ import annotations

import numpy as np

from ..kg import KnowledgeGraph

__all__ = ["AC2Vec", "label2vec"]


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


class AC2Vec:
    """Attribute-correlation embedding (Eq. 4).

    ``fit`` takes per-entity attribute id sets; correlated attributes are
    those co-occurring on an entity.  Vectors are trained to maximize
    ``sigmoid(a_i . a_j)`` for co-occurring pairs against random
    negatives.
    """

    def __init__(self, n_attributes: int, dim: int = 32, epochs: int = 15,
                 lr: float = 0.1, seed: int = 0):
        if n_attributes <= 0:
            raise ValueError("need at least one attribute")
        self.n_attributes = n_attributes
        self.dim = dim
        self.epochs = epochs
        self.lr = lr
        rng = np.random.default_rng(seed)
        self.embeddings = 0.1 * rng.normal(size=(n_attributes, dim))
        self._rng = rng

    def fit(self, attribute_sets: dict[int, set[int]]) -> "AC2Vec":
        """Train on per-entity attribute id sets; returns self."""
        pairs = [
            (a, b)
            for attr_set in attribute_sets.values()
            for a in sorted(attr_set)
            for b in sorted(attr_set)
            if a != b
        ]
        if not pairs:
            return self
        pairs = np.array(pairs, dtype=np.int64)
        emb, lr, rng = self.embeddings, self.lr, self._rng
        for _ in range(self.epochs):
            order = rng.permutation(len(pairs))
            negatives = rng.integers(0, self.n_attributes, size=len(pairs))
            for (a, b), negative in zip(pairs[order], negatives):
                grad_pos = 1.0 - _sigmoid(emb[a] @ emb[b])
                grad_neg = _sigmoid(emb[a] @ emb[negative])
                emb[a] += lr * (grad_pos * emb[b] - grad_neg * emb[negative])
                emb[b] += lr * grad_pos * emb[a]
                emb[negative] -= lr * grad_neg * emb[a]
        return self

    def correlation(self, a: int, b: int) -> float:
        """Probability that attributes ``a`` and ``b`` are correlated."""
        return _sigmoid(float(self.embeddings[a] @ self.embeddings[b]))

    def entity_vectors(
        self, attribute_sets: dict[int, set[int]]
    ) -> dict[int, np.ndarray]:
        """Represent an entity as the mean of its attribute vectors."""
        return {
            entity: self.embeddings[sorted(attrs)].mean(axis=0)
            for entity, attrs in attribute_sets.items()
            if attrs
        }


def label2vec(
    kg: KnowledgeGraph, language: str = "en", dim: int = 32, seed: int = 0
) -> dict[str, np.ndarray]:
    """Label2Vec: per-entity label-like literal vectors (MultiKE's name
    view), built on pre-trained-style cross-lingual word embeddings."""
    from ..approaches.literals import name_vectors
    from ..text import WordEmbeddingTable

    return name_vectors(kg, WordEmbeddingTable(dim=dim, language=language, seed=seed))
