"""Blockwise similarity for large candidate spaces (§7.2, large-scale).

The paper measures ~8 minutes for a full pairwise cosine matrix on a
100K dataset and calls for candidate-space reduction.  This module keeps
memory bounded instead: :func:`similarity_blocks` produces
``source @ target.T`` one row slab at a time, and every consumer reduces
each slab before the next one is built, so aligning N x M entities needs
O(N * k) memory rather than O(N * M).  The consumers are per-source
top-k (:func:`topk_similarity`, behind ``ExactIndex``), greedy and CSLS
alignment (:func:`streaming_greedy_alignment`), the neighbour lists of
BootEA's truncated negatives (``TruncatedSampler.refresh``) and the
mutual-nearest proposals of self-training
(:func:`repro.alignment.mutual_nearest`).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .metrics import normalize_rows

__all__ = ["similarity_blocks", "topk_similarity",
           "streaming_greedy_alignment"]

# Cells of one float64 slab (8 MiB) when the caller names no block.  A
# sampler refresh at 4,457 entities ran fastest with slabs of this size
# (235 rows), against 64 or 1,024 rows or one full matrix
# (docs/performance.md, "Bounded-memory similarity").
SLAB_CELLS = 2**20


def similarity_blocks(
    source: np.ndarray,
    target: np.ndarray,
    block: int | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, source[start:start + rows] @ target.T)`` slabs.

    ``block`` is the number of source rows per slab; by default it is
    ``SLAB_CELLS // len(target)``, so a slab holds about 8 MiB whatever
    the target count.  Each slab is a fresh array the consumer may
    modify in place.
    """
    rows = block or max(1, SLAB_CELLS // max(len(target), 1))
    target_t = target.T
    for start in range(0, len(source), rows):
        yield start, source[start:start + rows] @ target_t


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
    source = normalize_rows(source)
    target = normalize_rows(target)
    k = min(k, len(target))
    n = len(source)
    indices = np.zeros((n, k), dtype=np.int64)
    scores = np.zeros((n, k))
    for start, sim in similarity_blocks(source, target, block):
        stop = start + len(sim)
        top = np.argpartition(-sim, k - 1, axis=1)[:, :k]
        top_scores = np.take_along_axis(sim, top, axis=1)
        order = np.argsort(-top_scores, axis=1)
        indices[start:stop] = np.take_along_axis(top, order, axis=1)
        scores[start:stop] = np.take_along_axis(top_scores, order, axis=1)
    return indices, scores


def streaming_greedy_alignment(
    source: np.ndarray,
    target: np.ndarray,
    block: int | None = None,
    csls_k: int = 0,
) -> np.ndarray:
    """Greedy nearest-neighbor alignment without the full matrix.

    With ``csls_k > 0`` the CSLS correction is applied using streaming
    estimates of the neighborhood densities (two passes over the data).
    """
    if csls_k <= 0:
        indices, _ = topk_similarity(source, target, k=1, block=block)
        return indices[:, 0]

    k = min(csls_k, len(target), len(source))
    # pass 1: neighborhood densities psi_t(s) and psi_s(t)
    _, source_top = topk_similarity(source, target, k=k, block=block)
    psi_source = source_top.mean(axis=1)
    _, target_top = topk_similarity(target, source, k=k, block=block)
    psi_target = target_top.mean(axis=1)
    # pass 2: blockwise CSLS argmax
    result = np.zeros(len(source), dtype=np.int64)
    for start, sim in similarity_blocks(
            normalize_rows(source), normalize_rows(target), block):
        stop = start + len(sim)
        adjusted = 2.0 * sim - psi_source[start:stop, None] - psi_target[None, :]
        result[start:stop] = adjusted.argmax(axis=1)
    return result
