"""The one similarity kernel of the alignment module (§7.2, large-scale).

The paper measures ~8 minutes for a full pairwise cosine matrix on a
100K dataset and calls for candidate-space reduction.  This module keeps
memory bounded instead: :func:`similarity_blocks` yields the similarity
under a metric, optionally CSLS-adjusted, one row slab at a time, and
every consumer reduces a slab before the next one is built.  The
reductions are per-row scores (:func:`row_scores`: evaluation, NIL
calibration, greedy inference, and with the running column maximum
mutual-nearest proposals and the heuristic matching), per-source top-k
(:func:`topk_similarity`, the preference lists of stable marriage) and
the neighbour lists of BootEA's truncated negatives
(``TruncatedSampler.refresh``).  :class:`SimilarityRows` is the stream a
consumer reads more than once: all rows, then selected rows only.  The
dense functions of :mod:`repro.alignment.metrics` are the same code over
one slab.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

__all__ = ["similarity_blocks", "SimilarityRows", "topk_similarity",
           "row_scores", "RowScores", "normalize_rows"]

# Cells of one float64 slab (8 MiB) when the caller names no block.  A
# sampler refresh at 4,457 entities ran fastest with slabs of this size
# (235 rows), against 64 or 1,024 rows or one full matrix
# (docs/performance.md, "Bounded-memory similarity").
SLAB_CELLS = 2**20

Slabs = Iterable[tuple[int, np.ndarray]]

_METRICS = ("cosine", "euclidean", "manhattan")


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Each row scaled to unit L2 norm (all-zero rows stay zero)."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.maximum(norms, 1e-12)


def similarity_blocks(
    source: np.ndarray,
    target: np.ndarray,
    block: int | None = None,
    metric: str | None = None,
    csls_k: int = 0,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, slab)``: rows ``start:start + len(slab)`` of the
    similarity under ``metric`` (``None``: ``source @ target.T``),
    CSLS-adjusted (Eq. 7) with ``csls_k > 0``.

    ``block`` rows per slab; by default ``SLAB_CELLS // len(target)``,
    about 8 MiB whatever the target count, and Manhattan's slabs keep
    its ``dim``-times larger temporary within that budget too.  Each
    slab is a fresh array the consumer may modify in place.
    """
    if metric not in (None, *_METRICS):
        raise KeyError(f"unknown metric {metric!r}; choose from "
                       f"{sorted(_METRICS)}")
    if csls_k > 0:
        yield from SimilarityRows(source, target, block, metric, csls_k)
        return
    if metric == "cosine":
        source, target = normalize_rows(source), normalize_rows(target)
    elif metric == "euclidean":
        source_sq = (source**2).sum(axis=1)[:, None]
        target_sq = (target**2).sum(axis=1)[None, :]
    width = len(target) * (source.shape[1] if metric == "manhattan" else 1)
    budget = max(1, SLAB_CELLS // max(width, 1))
    rows = block or budget
    if metric == "manhattan":
        rows = min(rows, budget)
    target_t = target.T
    for start in range(0, len(source), rows):
        part = source[start:start + rows]
        if metric == "manhattan":
            diff = part[:, None, :] - target[None, :, :]
            yield start, -np.abs(diff, out=diff).sum(axis=2)
        elif metric == "euclidean":
            squared = source_sq[start:start + rows] + target_sq \
                - 2.0 * part @ target_t
            yield start, -np.sqrt(np.maximum(squared, 0.0))
        else:
            yield start, part @ target_t


class SimilarityRows:
    """The similarity of :func:`similarity_blocks` as a stream that can be
    read again, whole or by rows.

    Iterating yields ``(start, slab)`` over every row; :meth:`rows` over
    selected source rows only.  With ``csls_k > 0`` the first read takes
    ψ (Eq. 7) in a pass of its own and every later read reuses it, so a
    consumer that re-reads a few rows does not rerun the metric over all
    of them.
    """

    def __init__(self, source: np.ndarray, target: np.ndarray,
                 block: int | None = None, metric: str | None = None,
                 csls_k: int = 0):
        self.shape = (len(source), len(target))
        if metric == "cosine":  # unit rows once, not on every read
            source, target, metric = (normalize_rows(source),
                                      normalize_rows(target), None)
        self.source, self.target = source, target
        self.block, self.metric, self.csls_k = block, metric, csls_k
        self._psi: tuple[np.ndarray, np.ndarray] | None = None

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        return self.rows()

    def rows(self, selection: np.ndarray | None = None
             ) -> Iterator[tuple[int, np.ndarray]]:
        """``(start, slab)`` over ``source[selection]`` (every row by
        default): slab rows are ``selection[start:start + len(slab)]``."""
        source = self.source if selection is None else self.source[selection]
        slabs = similarity_blocks(source, self.target, self.block,
                                  self.metric)
        if self.csls_k <= 0 or 0 in self.shape:
            yield from slabs
            return
        if self._psi is None:
            self._psi = _psi(similarity_blocks(self.source, self.target,
                                               self.block, self.metric),
                             *self.shape, self.csls_k)
        psi_source, psi_target = self._psi
        if selection is not None:
            psi_source = psi_source[selection]
        for start, slab in slabs:
            yield start, _adjusted(slab, psi_source[start:start + len(slab)],
                                   psi_target)


def _psi(slabs: Slabs, n: int, m: int, k: int
         ) -> tuple[np.ndarray, np.ndarray]:
    """ψ of CSLS (Eq. 7) for the rows and for the columns of a slab
    stream over ``n`` × ``m`` (both nonzero): the mean of the k largest
    scores of each row and of each column.  One pass takes the row top-k
    and keeps the column top-k seen so far."""
    k_row, k_col = min(k, m), min(k, n)
    psi_source, top = np.empty(n), None
    for start, slab in slabs:
        psi_source[start:start + len(slab)] = np.partition(
            slab, -k_row, axis=1)[:, -k_row:].mean(axis=1)
        slab_top = _column_top(slab, k_col)
        top = slab_top if top is None else _column_top(
            np.concatenate((top, slab_top)), k_col)
    return psi_source, top.mean(axis=0)


def _adjusted(slab: np.ndarray, psi_rows: np.ndarray,
              psi_target: np.ndarray) -> np.ndarray:
    """CSLS (Eq. 7): ``2 sim(s, t) - psi_t(s) - psi_s(t)``."""
    return 2.0 * slab - psi_rows[:, None] - psi_target[None, :]


def _column_top(x: np.ndarray, k: int) -> np.ndarray:
    """The k largest entries of each column (every row when fewer)."""
    return np.partition(x, -min(k, len(x)), axis=0)[-k:]


@dataclass(frozen=True)
class RowScores:
    """What every scoring call reads of a similarity, one entry per row:
    the top-1 ``column`` (the first on ties) and its score ``best``, the
    top-1/top-2 ``margin`` (``+inf`` with a single candidate) and the
    1-based ``rank`` of the gold column (one plus the number of strictly
    greater scores; 0 where the gold column is -1).  Per column, when
    asked for: the top-1 row ``best_row`` (the first on ties) and its
    score ``column_best``."""

    column: np.ndarray
    best: np.ndarray
    margin: np.ndarray | None
    rank: np.ndarray | None
    best_row: np.ndarray | None = None
    column_best: np.ndarray | None = None


def row_scores(
    similarity: np.ndarray | Slabs,
    gold: np.ndarray | None = None,
    margin: bool = False,
    columns: bool = False,
) -> RowScores:
    """Reduce a matrix (one slab) or a :func:`similarity_blocks` stream
    over the same rows to :class:`RowScores`; margins only when asked
    for, ranks only when ``gold`` gives each row's column, and the
    running column maximum only with ``columns`` (empty without rows)."""
    if isinstance(similarity, np.ndarray):
        if gold is not None and len(similarity) != len(gold):
            raise ValueError(
                f"{len(similarity)} rows but {len(gold)} gold labels")
        similarity = [(0, similarity)]
    tops, bests, margins, ranks = [], [], [], []
    best_row, column_best = np.zeros(0, dtype=np.int64), np.zeros(0)
    for start, slab in similarity:
        n_rows, width = slab.shape
        rows = np.arange(n_rows)
        column = slab.argmax(axis=1) if width else np.full(n_rows, -1)
        best = slab[rows, column] if width else np.zeros(n_rows)
        tops.append(column)
        bests.append(best)
        if margin:
            margins.append(best - np.partition(slab, -2, axis=1)[:, -2]
                           if width > 1
                           else np.full(n_rows, np.inf if width else 0.0))
        if gold is not None:
            slab_gold = gold[start:start + n_rows]
            gold_score = (slab[rows, np.maximum(slab_gold, 0)] if width
                          else best)
            greater = (slab > gold_score[:, None]).sum(axis=1)
            ranks.append(np.where(slab_gold >= 0, 1 + greater, 0))
        if columns and n_rows:
            if start == 0:
                column_best = np.full(width, -np.inf)
                best_row = np.zeros(width, dtype=np.int64)
            slab_best = slab.argmax(axis=0)
            slab_score = slab[slab_best, np.arange(width)]
            # strictly greater: an earlier slab keeps a tied column
            better = slab_score > column_best
            column_best[better] = slab_score[better]
            best_row[better] = start + slab_best[better]

    def joined(parts, dtype=np.float64):
        return np.concatenate([np.zeros(0, dtype), *parts])

    return RowScores(joined(tops, np.int64), joined(bests),
                     joined(margins) if margin else None,
                     joined(ranks, np.int64) if gold is not None else None,
                     best_row if columns else None,
                     column_best if columns else None)


def topk_similarity(
    source: np.ndarray,
    target: np.ndarray,
    k: int = 10,
    block: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-source top-k cosine candidates, computed in slabs.

    Returns ``(indices, scores)`` of shape ``(len(source), k)``, both
    sorted by decreasing score.  Peak memory is one slab (see
    :func:`similarity_blocks`) instead of the full matrix.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    k = min(k, len(target))
    n = len(source)
    indices = np.zeros((n, k), dtype=np.int64)
    scores = np.zeros((n, k))
    for start, sim in similarity_blocks(source, target, block, "cosine"):
        stop = start + len(sim)
        top, top_scores = _top_k(np.negative(sim, out=sim), k)
        order = np.argsort(-top_scores, axis=1)
        indices[start:stop] = np.take_along_axis(top, order, axis=1)
        scores[start:stop] = np.take_along_axis(top_scores, order, axis=1)
    return indices, scores


def _top_k(negated: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns and scores of each row's ``k`` largest scores, in no
    particular order, given the negated scores (``argpartition`` takes
    the lowest); which of the scores tied at the k-th are kept is
    arbitrary."""
    top = np.argpartition(negated, k - 1, axis=1)[:, :k]
    return top, -np.take_along_axis(negated, top, axis=1)
