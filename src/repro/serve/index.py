"""Pluggable ANN indexes with a uniform ``search(queries, k)`` contract.

Three implementations trade accuracy for speed (paper §7.2 names
candidate-space reduction as the open direction for large-scale
alignment):

* :class:`ExactIndex` — blockwise exact cosine top-k, the ground truth
  (wraps :func:`repro.alignment.topk_similarity`);
* :class:`LSHIndex` — random-hyperplane LSH
  (:class:`repro.alignment.HyperplaneLSH`) with multi-probe and an
  exact fallback for queries whose buckets are all empty;
* :class:`IVFIndex` — an inverted-file index over a spherical k-means
  coarse quantizer: queries visit only the ``n_probe`` nearest
  clusters.

All indexes return ``(ids, scores)`` of shape ``(n_queries, k)`` sorted
by decreasing cosine score; rows with fewer than ``k`` candidates are
padded with id ``-1`` and score ``-inf``.  The approximate indexes
score candidates in *bucket-grouped batches* (one matmul per visited
bucket, not per query), which is what makes them beat a single big
exact matmul on CPU.
"""

from __future__ import annotations

import numpy as np

from ..alignment.blocking import HyperplaneLSH
from ..alignment.metrics import normalize_rows
from ..alignment.streaming import topk_similarity

__all__ = ["ANNIndex", "ExactIndex", "LSHIndex", "IVFIndex",
           "INDEX_KINDS", "make_index"]


def _normalize(matrix: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Unit rows, normalized in float64 and then cast to ``dtype``."""
    unit = normalize_rows(np.asarray(matrix, dtype=np.float64))
    return unit.astype(dtype, copy=False)


def _merge_topk(ids_buf: np.ndarray, scores_buf: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-k of a candidate buffer, deduplicating ids.

    The same target can enter the buffer through several buckets (LSH
    tables / probes); keep its best score only.  Fully vectorized:
    sort by score, stable-sort by id (so the best copy of each id comes
    first), mask the repeats, then top-k what survives.
    """
    order = np.argsort(-scores_buf, axis=1, kind="stable")
    ids_s = np.take_along_axis(ids_buf, order, axis=1)
    scores_s = np.take_along_axis(scores_buf, order, axis=1)
    order = np.argsort(ids_s, axis=1, kind="stable")
    ids_s = np.take_along_axis(ids_s, order, axis=1)
    scores_s = np.take_along_axis(scores_s, order, axis=1)
    dup = np.zeros(scores_s.shape, dtype=bool)
    dup[:, 1:] = ids_s[:, 1:] == ids_s[:, :-1]
    scores_s[dup | (ids_s < 0)] = -np.inf
    kk = min(k, scores_s.shape[1])
    top = np.argpartition(-scores_s, kk - 1, axis=1)[:, :kk]
    top_ids = np.take_along_axis(ids_s, top, axis=1)
    top_scores = np.take_along_axis(scores_s, top, axis=1)
    order = np.argsort(-top_scores, axis=1, kind="stable")
    n = len(ids_buf)
    out_ids = np.full((n, k), -1, dtype=np.int64)
    out_scores = np.full((n, k), -np.inf)
    out_ids[:, :kk] = np.take_along_axis(top_ids, order, axis=1)
    out_scores[:, :kk] = np.take_along_axis(top_scores, order, axis=1)
    out_ids[~np.isfinite(out_scores)] = -1
    return out_ids, out_scores


def _score_rank(queries: np.ndarray, group_of_query: np.ndarray,
                bucket_of_group, ids_buf: np.ndarray,
                scores_buf: np.ndarray, col: int, k: int) -> None:
    """Score one probe rank, grouped by bucket.

    ``group_of_query[q]`` names the bucket query ``q`` visits at this
    rank; ``bucket_of_group(bucket)`` returns ``(member_rows,
    submatrix_T)`` — the bucket's target rows and their pre-gathered,
    transposed vectors — or ``None``.  Queries sharing a bucket are
    scored in one matmul and their per-bucket top-k lands in
    ``buf[:, col:col+k]``.
    """
    order = np.argsort(group_of_query, kind="stable")
    sorted_groups = group_of_query[order]
    starts = np.flatnonzero(np.r_[True, sorted_groups[1:] !=
                                  sorted_groups[:-1]])
    bounds = np.append(starts, len(order))
    for gi, start in enumerate(starts):
        entry = bucket_of_group(int(sorted_groups[start]))
        if entry is None:
            continue
        members, submatrix = entry
        rows = order[start:bounds[gi + 1]]
        sims = queries[rows] @ submatrix
        kk = min(k, members.size)
        if kk < members.size:
            top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
            ids_buf[rows, col:col + kk] = members[top]
            scores_buf[rows, col:col + kk] = \
                np.take_along_axis(sims, top, axis=1)
        else:
            ids_buf[rows, col:col + kk] = members[None, :]
            scores_buf[rows, col:col + kk] = sims


class ANNIndex:
    """Interface: ``build(vectors)`` then ``search(queries, k)``.

    Indexes whose built state is worth persisting additionally expose
    ``params()`` (constructor kwargs), ``state_arrays()`` (the arrays a
    store can checkpoint) and ``load_state(vectors, arrays)`` (rebuild
    against the same vectors without re-running construction) — see
    :meth:`repro.serve.EmbeddingStore.save_index`.
    """

    kind = "base"

    def build(self, vectors: np.ndarray) -> None:
        raise NotImplementedError

    def search(self, queries: np.ndarray,
               k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def params(self) -> dict:
        """JSON-able constructor kwargs to recreate this index empty."""
        return {}

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of indexed vectors (0 before :meth:`build`)."""
        return getattr(self, "_n_indexed", 0)

    def _require_built(self) -> None:
        if self.size == 0:
            raise RuntimeError("call build() before search()")

    @staticmethod
    def _check_k(k: int) -> None:
        if k <= 0:
            raise ValueError("k must be positive")


class ExactIndex(ANNIndex):
    """Blockwise exact cosine top-k — the recall=1.0 reference.

    ``block`` trades peak memory against BLAS efficiency; 256 keeps the
    per-block similarity slab inside L2/L3 and measures fastest on a
    single core, so it is also the fairest baseline for the approximate
    indexes to beat.
    """

    kind = "exact"

    def __init__(self, block: int = 256):
        self.block = block
        self._vectors: np.ndarray | None = None
        self._n_indexed = 0

    def build(self, vectors: np.ndarray) -> None:
        self._vectors = np.asarray(vectors, dtype=np.float64)
        self._n_indexed = len(self._vectors)

    def params(self) -> dict:
        return {"block": self.block}

    def search(self, queries: np.ndarray,
               k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        self._check_k(k)
        self._require_built()
        kk = min(k, self._n_indexed)
        ids, scores = topk_similarity(np.asarray(queries, dtype=np.float64),
                                      self._vectors, k=kk, block=self.block)
        if kk == k:
            return ids, scores
        out_ids = np.full((len(ids), k), -1, dtype=np.int64)
        out_scores = np.full((len(ids), k), -np.inf)
        out_ids[:, :kk] = ids
        out_scores[:, :kk] = scores
        return out_ids, out_scores


class LSHIndex(ANNIndex):
    """Multi-probe random-hyperplane LSH over unit vectors.

    ``n_bits``/``n_tables`` follow :class:`HyperplaneLSH`; ``probes``
    extra buckets per table are visited by flipping the lowest-margin
    sign bits.  Queries whose visited buckets yield fewer than
    ``min(k, size)`` candidates are answered by exact search over the
    whole index (the serving-grade empty-bucket fallback).

    Candidates are scored in float32 — like any production ANN engine,
    the approximation budget includes the scoring precision; recall is
    always measured against the float64 exact reference.
    """

    kind = "lsh"

    def __init__(self, n_bits: int = 6, n_tables: int = 4, probes: int = 1,
                 seed: int = 0):
        if probes < 0:
            raise ValueError("probes must be non-negative")
        self.n_bits = n_bits
        self.n_tables = n_tables
        self.probes = probes
        self.seed = seed
        self._lsh: HyperplaneLSH | None = None
        self._targets: np.ndarray | None = None
        self._n_indexed = 0

    def params(self) -> dict:
        return {"n_bits": self.n_bits, "n_tables": self.n_tables,
                "probes": self.probes, "seed": self.seed}

    def build(self, vectors: np.ndarray) -> None:
        targets64 = _normalize(vectors)
        self._targets = targets64.astype(np.float32)
        self._n_indexed = len(self._targets)
        self._lsh = HyperplaneLSH(targets64.shape[1], n_bits=self.n_bits,
                                  n_tables=self.n_tables, seed=self.seed)
        self._lsh.index(targets64)
        # pre-gather each bucket's (members, transposed float32 submatrix):
        # search-time matmuls then skip the fancy-index copy per call,
        # trading ~n_tables x matrix memory for steady-state latency.
        self._buckets = [
            {signature: (members,
                         np.ascontiguousarray(self._targets[members].T))
             for signature, members in self._lsh._tables[table].items()}
            for table in range(self.n_tables)
        ]

    def search(self, queries: np.ndarray,
               k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        self._check_k(k)
        self._require_built()
        queries64 = _normalize(queries)
        queries = queries64.astype(np.float32)
        n = len(queries)
        ranks = 1 + self.probes
        width = self.n_tables * ranks * k
        ids_buf = np.full((n, width), -1, dtype=np.int64)
        scores_buf = np.full((n, width), -np.inf, dtype=np.float32)
        col = 0
        for table in range(self.n_tables):
            signatures = self._lsh._probe_signatures(
                self._lsh._projections(queries64, table), self.probes
            )
            buckets = self._buckets[table]
            for rank in range(signatures.shape[1]):
                _score_rank(queries, signatures[:, rank], buckets.get,
                            ids_buf, scores_buf, col, k)
                col += k
        ids, scores = _merge_topk(ids_buf, scores_buf, k)
        # empty-bucket fallback: exact search for starved queries — rows
        # whose visited buckets held fewer than min(k, size) candidates
        kk = min(k, self._n_indexed)
        starved = np.where(ids[:, kk - 1] < 0)[0]
        if starved.size:
            exact_ids, exact_scores = topk_similarity(
                queries64[starved], self._targets, k=kk
            )
            ids[starved[:, None], np.arange(kk)[None, :]] = exact_ids
            scores[starved[:, None], np.arange(kk)[None, :]] = exact_scores
        return ids, scores


class IVFIndex(ANNIndex):
    """Inverted-file index: spherical k-means + ``n_probe`` cluster scan.

    ``n_clusters`` defaults to ``~sqrt(n)`` at build time.  Clusters
    partition the index, so the scored fraction is roughly
    ``n_probe / n_clusters`` — the speed knob.  Like :class:`LSHIndex`,
    candidate scoring runs in float32.
    """

    kind = "ivf"

    def __init__(self, n_clusters: int | None = None, n_probe: int = 4,
                 iters: int = 8, seed: int = 0):
        if n_probe <= 0:
            raise ValueError("n_probe must be positive")
        if iters <= 0:
            raise ValueError("iters must be positive")
        self.n_clusters = n_clusters
        self.n_probe = n_probe
        self.iters = iters
        self.seed = seed
        self._targets: np.ndarray | None = None
        self._centroids: np.ndarray | None = None
        self._members: list[np.ndarray] = []
        self._n_indexed = 0

    def build(self, vectors: np.ndarray) -> None:
        targets = _normalize(vectors)
        n = len(targets)
        n_clusters = self.n_clusters or max(1, int(round(np.sqrt(n))))
        n_clusters = min(n_clusters, n)
        rng = np.random.default_rng(self.seed)
        centroids = targets[rng.choice(n, size=n_clusters, replace=False)]
        assignment = np.zeros(n, dtype=np.int64)
        for _ in range(self.iters):
            assignment = (targets @ centroids.T).argmax(axis=1)
            centroids = centroids.copy()
            for cluster in range(n_clusters):
                mask = assignment == cluster
                if mask.any():
                    mean = targets[mask].mean(axis=0)
                    centroids[cluster] = mean / max(np.linalg.norm(mean),
                                                    1e-12)
        self._targets = targets.astype(np.float32)
        self._centroids = centroids.astype(np.float32)
        self._members = [np.where(assignment == cluster)[0]
                         for cluster in range(n_clusters)]
        # same pre-gathered layout as LSHIndex (clusters partition the
        # index, so this costs one extra matrix copy in total)
        self._clusters = [
            (members, np.ascontiguousarray(self._targets[members].T))
            if members.size else None
            for members in self._members
        ]
        self._n_indexed = n

    def search(self, queries: np.ndarray,
               k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        self._check_k(k)
        self._require_built()
        queries = _normalize(queries, dtype=np.float32)
        n = len(queries)
        n_probe = min(self.n_probe, len(self._members))
        centroid_sims = queries @ self._centroids.T
        if n_probe < centroid_sims.shape[1]:
            probe = np.argpartition(-centroid_sims, n_probe - 1,
                                    axis=1)[:, :n_probe]
        else:
            probe = np.tile(np.arange(centroid_sims.shape[1]), (n, 1))
        width = n_probe * k
        ids_buf = np.full((n, width), -1, dtype=np.int64)
        scores_buf = np.full((n, width), -np.inf, dtype=np.float32)
        clusters = self._clusters
        for rank in range(n_probe):
            _score_rank(queries, probe[:, rank], lambda c: clusters[c],
                        ids_buf, scores_buf, rank * k, k)
        return _merge_topk(ids_buf, scores_buf, k)

    # -- persistence ---------------------------------------------------
    def params(self) -> dict:
        return {"n_clusters": self.n_clusters, "n_probe": self.n_probe,
                "iters": self.iters, "seed": self.seed}

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The built quantizer: centroids plus per-target assignment.

        Together with the target matrix (which the store already holds)
        this is the whole index — k-means never has to rerun at load.
        """
        self._require_built()
        assignment = np.empty(self._n_indexed, dtype=np.int64)
        for cluster, members in enumerate(self._members):
            assignment[members] = cluster
        return {"centroids": np.asarray(self._centroids),
                "assignment": assignment}

    def load_state(self, vectors: np.ndarray,
                   arrays: dict[str, np.ndarray]) -> None:
        """Rebuild from :meth:`state_arrays` against the same vectors."""
        targets = _normalize(vectors)
        centroids = np.asarray(arrays["centroids"], dtype=np.float32)
        assignment = np.asarray(arrays["assignment"], dtype=np.int64)
        if assignment.shape != (len(targets),):
            raise ValueError(
                f"index state covers {assignment.shape[0]} targets, "
                f"the store holds {len(targets)}"
            )
        if centroids.ndim != 2 or centroids.shape[1] != targets.shape[1]:
            raise ValueError("centroid dimensionality mismatch")
        if assignment.size and not (
                0 <= assignment.min() and
                assignment.max() < len(centroids)):
            raise ValueError("assignment references unknown clusters")
        self._targets = targets.astype(np.float32)
        self._centroids = centroids
        self._members = [np.where(assignment == cluster)[0]
                         for cluster in range(len(centroids))]
        self._clusters = [
            (members, np.ascontiguousarray(self._targets[members].T))
            if members.size else None
            for members in self._members
        ]
        self._n_indexed = len(targets)


INDEX_KINDS: dict[str, type[ANNIndex]] = {
    "exact": ExactIndex,
    "lsh": LSHIndex,
    "ivf": IVFIndex,
}


def make_index(kind: str, **params) -> ANNIndex:
    """Factory: ``make_index("lsh", n_tables=4)``."""
    try:
        cls = INDEX_KINDS[kind]
    except KeyError:
        raise KeyError(
            f"unknown index kind {kind!r}; choose from {sorted(INDEX_KINDS)}"
        ) from None
    return cls(**params)
