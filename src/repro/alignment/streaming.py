"""The one similarity kernel of the alignment module (§7.2, large-scale).

The paper measures ~8 minutes for a full pairwise cosine matrix on a
100K dataset and calls for candidate-space reduction.  This module keeps
memory bounded instead: :func:`similarity_blocks` yields the similarity
under a metric, optionally CSLS-adjusted, one row slab at a time, and
every consumer reduces a slab before the next one is built.  The
reductions are per-row scores (:func:`row_scores`: evaluation, NIL
calibration, greedy inference), per-source top-k
(:func:`topk_similarity`) and the neighbour lists of BootEA's truncated
negatives (``TruncatedSampler.refresh``); mutual-nearest inference keeps
its own loop, as it also tracks the running column maximum.  The dense
functions of :mod:`repro.alignment.metrics` are the same code over one
slab.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

__all__ = ["similarity_blocks", "topk_similarity", "row_scores",
           "RowScores", "normalize_rows"]

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
        yield from _csls(
            lambda: similarity_blocks(source, target, block, metric),
            len(source), len(target), csls_k)
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


def _csls(slabs, n: int, m: int, k: int) -> Iterator:
    """CSLS (Eq. 7) of a slab stream: ``2 sim(s, t) - psi_t(s) - psi_s(t)``,
    where ``psi`` is the mean of the k largest scores of a row or of a
    column of the similarity.  One pass over ``slabs()`` takes the row
    top-k and keeps the column top-k seen so far; a second yields."""
    if n == 0 or m == 0:
        yield from slabs()
        return
    k_row, k_col = min(k, m), min(k, n)
    psi_source, top = np.empty(n), None
    for start, slab in slabs():
        psi_source[start:start + len(slab)] = np.partition(
            slab, -k_row, axis=1)[:, -k_row:].mean(axis=1)
        slab_top = _column_top(slab, k_col)
        top = slab_top if top is None else _column_top(
            np.concatenate((top, slab_top)), k_col)
    psi_target = top.mean(axis=0)
    for start, slab in slabs():
        stop = start + len(slab)
        yield start, (2.0 * slab - psi_source[start:stop, None]
                      - psi_target[None, :])


def _column_top(x: np.ndarray, k: int) -> np.ndarray:
    """The k largest entries of each column (every row when fewer)."""
    return np.partition(x, -min(k, len(x)), axis=0)[-k:]


@dataclass(frozen=True)
class RowScores:
    """What every scoring call reads of a similarity, one entry per row:
    the top-1 ``column`` (the first on ties) and its score ``best``, the
    top-1/top-2 ``margin`` (``+inf`` with a single candidate) and the
    1-based ``rank`` of the gold column (one plus the number of strictly
    greater scores; 0 where the gold column is -1)."""

    column: np.ndarray
    best: np.ndarray
    margin: np.ndarray | None
    rank: np.ndarray | None


def row_scores(
    similarity: np.ndarray | Slabs,
    gold: np.ndarray | None = None,
    margin: bool = False,
) -> RowScores:
    """Reduce a matrix (one slab) or a :func:`similarity_blocks` stream
    over the same rows to :class:`RowScores`; margins only when asked
    for, ranks only when ``gold`` gives each row's column."""
    if isinstance(similarity, np.ndarray):
        if gold is not None and len(similarity) != len(gold):
            raise ValueError(
                f"{len(similarity)} rows but {len(gold)} gold labels")
        similarity = [(0, similarity)]
    columns, bests, margins, ranks = [], [], [], []
    for start, slab in similarity:
        n_rows, width = slab.shape
        rows = np.arange(n_rows)
        column = slab.argmax(axis=1) if width else np.full(n_rows, -1)
        best = slab[rows, column] if width else np.zeros(n_rows)
        columns.append(column)
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

    def joined(parts, dtype=np.float64):
        return np.concatenate([np.zeros(0, dtype), *parts])

    return RowScores(joined(columns, np.int64), joined(bests),
                     joined(margins) if margin else None,
                     joined(ranks, np.int64) if gold is not None else None)


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
        np.negative(sim, out=sim)  # argpartition takes the lowest
        top = np.argpartition(sim, k - 1, axis=1)[:, :k]
        top_scores = -np.take_along_axis(sim, top, axis=1)
        order = np.argsort(-top_scores, axis=1)
        indices[start:stop] = np.take_along_axis(top, order, axis=1)
        scores[start:stop] = np.take_along_axis(top_scores, order, axis=1)
    return indices, scores
