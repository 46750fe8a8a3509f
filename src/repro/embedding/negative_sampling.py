"""Negative sampling methods of the embedding module (Figure 4).

* **uniform** — corrupt the head or tail of a positive triple with an
  entity drawn uniformly (Bordes et al.);
* **truncated** — BootEA's epsilon-truncated sampling: corruptions are
  drawn from the corrupted entity's current nearest neighbors, producing
  hard negatives.  The neighbor cache must be refreshed periodically from
  the live embeddings.
"""

from __future__ import annotations

import numpy as np

from ..alignment import normalize_rows, similarity_blocks

__all__ = ["uniform_corrupt", "TruncatedSampler"]

Triples = np.ndarray  # (n, 3) int array of (head, relation, tail) ids


def uniform_corrupt(
    triples: Triples,
    n_entities: int,
    n_negatives: int,
    rng: np.random.Generator,
) -> Triples:
    """Uniform negative sampling.

    Returns ``(len(triples) * n_negatives, 3)`` corrupted triples; each
    positive is corrupted ``n_negatives`` times, replacing the head or the
    tail with probability 1/2.
    """
    repeated = np.repeat(triples, n_negatives, axis=0)
    corrupt_tail = rng.random(len(repeated)) < 0.5
    replacements = rng.integers(0, n_entities, size=len(repeated))
    negatives = repeated.copy()
    negatives[corrupt_tail, 2] = replacements[corrupt_tail]
    negatives[~corrupt_tail, 0] = replacements[~corrupt_tail]
    return negatives


class TruncatedSampler:
    """Epsilon-truncated negative sampling (BootEA §4).

    Negatives replace an entity with one of its ``s = ceil((1 - epsilon) *
    n)`` nearest neighbors in the current embedding space, where
    ``truncation`` corresponds to the paper's ``1 - epsilon`` fraction.
    Call :meth:`refresh` every few epochs with the live entity matrix.
    """

    def __init__(self, n_entities: int, truncation: float = 0.1, cache_size: int = 20):
        if not 0.0 < truncation <= 1.0:
            raise ValueError("truncation must be in (0, 1]")
        self.n_entities = n_entities
        self.truncation = truncation
        self.cache_size = cache_size
        self._neighbors: np.ndarray | None = None

    def refresh(self, embeddings: np.ndarray) -> None:
        """Recompute each entity's nearest-neighbor candidate list."""
        if len(embeddings) != self.n_entities:
            raise ValueError(
                f"expected {self.n_entities} embeddings, got {len(embeddings)}"
            )
        limit = max(1, int(np.ceil(self.truncation * self.n_entities)))
        k = min(self.cache_size, limit, self.n_entities - 1)
        normalized = normalize_rows(embeddings)
        # top-k neighbors per entity (unsorted is fine for sampling), one
        # slab of cosine rows at a time: memory stays O(|E| * k)
        neighbors = np.empty((self.n_entities, k), dtype=np.int64)
        for start, similarity in similarity_blocks(normalized, normalized):
            rows = np.arange(len(similarity))
            similarity[rows, start + rows] = -np.inf  # never oneself
            neighbors[start:start + len(rows)] = np.argpartition(
                -similarity, k - 1, axis=1)[:, :k]
        self._neighbors = neighbors

    @property
    def ready(self) -> bool:
        return self._neighbors is not None

    def corrupt(
        self, triples: Triples, n_negatives: int, rng: np.random.Generator
    ) -> Triples:
        """Corrupt triples with nearest-neighbor replacements.

        Falls back to uniform sampling until :meth:`refresh` has been
        called (the first epochs of training).
        """
        if self._neighbors is None:
            return uniform_corrupt(triples, self.n_entities, n_negatives, rng)
        repeated = np.repeat(triples, n_negatives, axis=0)
        corrupt_tail = rng.random(len(repeated)) < 0.5
        victims = np.where(corrupt_tail, repeated[:, 2], repeated[:, 0])
        choice = rng.integers(0, self._neighbors.shape[1], size=len(repeated))
        replacements = self._neighbors[victims, choice]
        negatives = repeated.copy()
        negatives[corrupt_tail, 2] = replacements[corrupt_tail]
        negatives[~corrupt_tail, 0] = replacements[~corrupt_tail]
        return negatives
