"""Distance metrics of the alignment module (Figure 4) as dense matrices.

All functions return *similarity* matrices (larger = more similar) so the
inference strategies can share one convention.  Cosine, Euclidean and
Manhattan are the three metrics the surveyed approaches use (Table 1);
CSLS (Eq. 7) is the hubness-corrected metric of §6.1.2.  Each is the
kernel of :mod:`repro.alignment.streaming` over the whole matrix.
"""

from __future__ import annotations

import numpy as np

from .streaming import _csls, normalize_rows, row_scores, similarity_blocks

__all__ = [
    "cosine_similarity",
    "euclidean_similarity",
    "manhattan_similarity",
    "similarity_matrix",
    "csls",
    "top_scores",
    "normalize_rows",
]


def similarity_matrix(
    source: np.ndarray, target: np.ndarray, metric: str = "cosine"
) -> np.ndarray:
    """Pairwise similarity under a named metric (one kernel slab, or
    several for Manhattan's broadcast temporary)."""
    out = np.empty((len(source), len(target)))
    for start, slab in similarity_blocks(source, target, len(source),
                                         metric):
        if len(slab) == len(source):
            return slab
        out[start:start + len(slab)] = slab
    return out


def cosine_similarity(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity, shape ``(len(source), len(target))``."""
    return similarity_matrix(source, target, "cosine")


def euclidean_similarity(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Negated pairwise Euclidean distance."""
    return similarity_matrix(source, target, "euclidean")


def manhattan_similarity(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Negated pairwise L1 distance."""
    return similarity_matrix(source, target, "manhattan")


def top_scores(similarity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row abstention signals: best score and top-1/top-2 margin.

    The two confidence signals the NIL-aware evaluation and the serving
    layer abstain on: a low best score means *nothing* looks like a
    counterpart; a low margin means the ranking cannot distinguish the
    top candidates.  With a single candidate column the margin is
    ``+inf`` (no competitor), so margin-based abstention never fires.
    """
    scores = row_scores(similarity, margin=True)
    return scores.best, scores.margin


def csls(similarity: np.ndarray, k: int = 10) -> np.ndarray:
    """Cross-domain similarity local scaling (Eq. 7).

    ``CSLS(s, t) = 2 sim(s, t) - psi_t(s) - psi_s(t)`` where ``psi`` is the
    average similarity to the k nearest neighbors in the other domain.
    Penalizes hub entities and lifts isolated ones.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    (_, adjusted), = _csls(lambda: [(0, similarity)], *similarity.shape, k)
    return adjusted
