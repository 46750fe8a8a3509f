"""Distance metrics of the alignment module (Figure 4).

All functions return *similarity* matrices (larger = more similar) so the
inference strategies can share one convention.  Cosine, Euclidean and
Manhattan are the three metrics the surveyed approaches use (Table 1);
CSLS (Eq. 7) is the hubness-corrected metric of §6.1.2.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "cosine_similarity",
    "euclidean_similarity",
    "manhattan_similarity",
    "similarity_matrix",
    "csls",
    "METRICS",
    "top_scores",
    "normalize_rows",
]


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Each row scaled to unit L2 norm (all-zero rows stay zero)."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.maximum(norms, 1e-12)


def cosine_similarity(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity, shape ``(len(source), len(target))``."""
    return normalize_rows(source) @ normalize_rows(target).T


def euclidean_similarity(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Negated pairwise Euclidean distance."""
    source_sq = (source**2).sum(axis=1)[:, None]
    target_sq = (target**2).sum(axis=1)[None, :]
    squared = source_sq + target_sq - 2.0 * source @ target.T
    return -np.sqrt(np.maximum(squared, 0.0))


def manhattan_similarity(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Negated pairwise L1 distance (blocked to bound memory)."""
    n, m = len(source), len(target)
    out = np.empty((n, m))
    block = max(1, 2**22 // max(m * source.shape[1], 1))
    for start in range(0, n, block):
        stop = min(start + block, n)
        out[start:stop] = -np.abs(
            source[start:stop, None, :] - target[None, :, :]
        ).sum(axis=2)
    return out


METRICS = {
    "cosine": cosine_similarity,
    "euclidean": euclidean_similarity,
    "manhattan": manhattan_similarity,
}


def similarity_matrix(
    source: np.ndarray, target: np.ndarray, metric: str = "cosine"
) -> np.ndarray:
    """Pairwise similarity under a named metric."""
    try:
        func = METRICS[metric]
    except KeyError:
        raise KeyError(
            f"unknown metric {metric!r}; choose from {sorted(METRICS)}"
        ) from None
    return func(source, target)


def top_scores(similarity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row abstention signals: best score and top-1/top-2 margin.

    The two confidence signals the NIL-aware evaluation and the serving
    layer abstain on: a low best score means *nothing* looks like a
    counterpart; a low margin means the ranking cannot distinguish the
    top candidates.  With a single candidate column the margin is
    ``+inf`` (no competitor), so margin-based abstention never fires.
    """
    n_rows, n_cols = similarity.shape
    if n_cols == 0:
        return np.zeros(n_rows), np.zeros(n_rows)
    if n_cols == 1:
        best = similarity[:, 0].astype(float)
        return best, np.full(n_rows, np.inf)
    part = np.partition(similarity, -2, axis=1)[:, -2:]
    best = part[:, 1].astype(float)
    return best, best - part[:, 0]


def csls(similarity: np.ndarray, k: int = 10) -> np.ndarray:
    """Cross-domain similarity local scaling (Eq. 7).

    ``CSLS(s, t) = 2 sim(s, t) - psi_t(s) - psi_s(t)`` where ``psi`` is the
    average similarity to the k nearest neighbors in the other domain.
    Penalizes hub entities and lifts isolated ones.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    k_row = min(k, similarity.shape[1])
    k_col = min(k, similarity.shape[0])
    # Average of the k largest entries per row / per column.
    top_rows = np.partition(similarity, -k_row, axis=1)[:, -k_row:]
    psi_source = top_rows.mean(axis=1)  # psi_t(x_s), per source entity
    top_cols = np.partition(similarity, -k_col, axis=0)[-k_col:, :]
    psi_target = top_cols.mean(axis=0)  # psi_s(x_t), per target entity
    return 2.0 * similarity - psi_source[:, None] - psi_target[None, :]
