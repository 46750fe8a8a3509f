"""Candidate blocking for large-scale alignment (paper §7.2, direction 3).

The paper notes that nearest-neighbor inference grows polynomially with
the entity count and points to locality-sensitive hashing as the remedy.
:class:`HyperplaneLSH` implements the classic random-hyperplane scheme
for cosine similarity: entities hashing into the same bucket (in any of
several hash tables) become candidates; everything else is pruned.

Two refinements make the scheme usable as a serving-time index
(``repro.serve.index.LSHIndex`` builds on them):

* **multi-probe** — besides its own bucket, a query can probe the
  buckets reached by flipping its lowest-margin sign bits, which buys
  recall without extra hash tables;
* **empty-bucket fallback** — a query whose buckets are all empty used
  to silently receive *zero* candidates (and therefore no alignment at
  all); it now falls back to the nearest non-empty bucket per table, or
  to exact search over every row.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .metrics import normalize_rows

__all__ = ["HyperplaneLSH", "blocked_greedy_alignment"]

_FALLBACKS = ("nearest", "exact", "none")


class HyperplaneLSH:
    """Random-hyperplane LSH index over unit-normalized vectors.

    ``n_bits`` hyperplanes per table give ``2^n_bits`` buckets; ``n_tables``
    independent tables trade recall for candidate count.
    """

    def __init__(self, dim: int, n_bits: int = 8, n_tables: int = 4,
                 seed: int = 0):
        if n_bits <= 0 or n_tables <= 0:
            raise ValueError("n_bits and n_tables must be positive")
        rng = np.random.default_rng(seed)
        self.planes = [rng.normal(size=(dim, n_bits)) for _ in range(n_tables)]
        self._tables: list[dict[int, np.ndarray]] | None = None
        self._bucket_keys: list[np.ndarray] | None = None
        self._n_indexed = 0

    def _projections(self, vectors: np.ndarray, table: int) -> np.ndarray:
        return vectors @ self.planes[table]

    def _signatures(self, vectors: np.ndarray, table: int) -> np.ndarray:
        bits = self._projections(vectors, table) > 0
        weights = 1 << np.arange(bits.shape[1])
        return bits @ weights

    def index(self, vectors: np.ndarray) -> None:
        """Index the target-side vectors."""
        self._tables = []
        self._bucket_keys = []
        self._n_indexed = len(vectors)
        for table in range(len(self.planes)):
            buckets: dict[int, list[int]] = defaultdict(list)
            for row, signature in enumerate(self._signatures(vectors, table)):
                buckets[int(signature)].append(row)
            frozen = {key: np.asarray(rows, dtype=np.int64)
                      for key, rows in buckets.items()}
            self._tables.append(frozen)
            self._bucket_keys.append(
                np.fromiter(frozen, dtype=np.int64, count=len(frozen))
            )

    def _probe_signatures(self, projections: np.ndarray,
                          probes: int) -> np.ndarray:
        """Per-query probe sequence: own bucket plus single-bit flips.

        Flips the ``probes`` lowest-|margin| bits one at a time — the
        buckets the query was closest to falling into (multi-probe LSH).
        Returns shape ``(n_queries, 1 + probes)``.
        """
        bits = projections > 0
        weights = 1 << np.arange(bits.shape[1])
        base = bits @ weights
        probes = min(probes, bits.shape[1])
        if probes <= 0:
            return base[:, None]
        flip_order = np.argsort(np.abs(projections), axis=1)[:, :probes]
        flipped = base[:, None] ^ np.take(weights, flip_order)
        return np.concatenate([base[:, None], flipped], axis=1)

    def _nearest_bucket(self, table: int, signature: int) -> np.ndarray:
        """Members of the occupied bucket closest in Hamming distance."""
        keys = self._bucket_keys[table]
        distances = np.bitwise_count(keys ^ signature)
        return self._tables[table][int(keys[distances.argmin()])]

    def candidates(self, vectors: np.ndarray, probes: int = 0,
                   fallback: str = "nearest") -> list[np.ndarray]:
        """Candidate target rows for each query row.

        ``probes`` extra buckets per table are visited via multi-probe;
        queries whose buckets are all empty are rescued according to
        ``fallback``: ``"nearest"`` (closest occupied bucket per table),
        ``"exact"`` (every indexed row) or ``"none"`` (legacy behaviour —
        an empty candidate array).
        """
        if self._tables is None:
            raise RuntimeError("call index() before candidates()")
        if fallback not in _FALLBACKS:
            raise ValueError(f"fallback must be one of {_FALLBACKS}")
        per_query: list[set[int]] = [set() for _ in range(len(vectors))]
        for table in range(len(self.planes)):
            projections = self._projections(vectors, table)
            signatures = self._probe_signatures(projections, probes)
            buckets = self._tables[table]
            for row in range(len(vectors)):
                for signature in signatures[row]:
                    hit = buckets.get(int(signature))
                    if hit is not None:
                        per_query[row].update(hit.tolist())
        out: list[np.ndarray] = []
        for row, found in enumerate(per_query):
            if found or fallback == "none":
                out.append(np.fromiter(found, dtype=np.int64, count=len(found)))
            elif fallback == "exact":
                out.append(np.arange(self._n_indexed, dtype=np.int64))
            else:  # nearest occupied bucket, per table
                rescue: set[int] = set()
                for table in range(len(self.planes)):
                    signature = int(self._signatures(vectors[row:row + 1],
                                                     table)[0])
                    rescue.update(self._nearest_bucket(table,
                                                       signature).tolist())
                out.append(np.fromiter(rescue, dtype=np.int64,
                                       count=len(rescue)))
        return out


def blocked_greedy_alignment(
    source: np.ndarray,
    target: np.ndarray,
    n_bits: int = 8,
    n_tables: int = 4,
    seed: int = 0,
    probes: int = 0,
    fallback: str = "nearest",
) -> tuple[np.ndarray, float]:
    """Greedy nearest-neighbor alignment restricted to LSH candidates.

    Returns ``(assignment, candidate_fraction)`` where ``assignment[i]`` is
    the chosen target row (-1 when no candidate survived blocking, which
    only happens with ``fallback="none"``) and ``candidate_fraction`` is
    the average share of the target side that was actually scored — the
    speedup knob.
    """
    source = normalize_rows(source)
    target = normalize_rows(target)
    lsh = HyperplaneLSH(source.shape[1], n_bits=n_bits, n_tables=n_tables,
                        seed=seed)
    lsh.index(target)
    candidate_lists = lsh.candidates(source, probes=probes, fallback=fallback)
    assignment = np.full(len(source), -1, dtype=np.int64)
    scored = 0
    for row, candidates in enumerate(candidate_lists):
        if candidates.size == 0:
            continue
        scores = target[candidates] @ source[row]
        assignment[row] = candidates[int(scores.argmax())]
        scored += candidates.size
    fraction = scored / max(1, len(source) * len(target))
    return assignment, fraction
