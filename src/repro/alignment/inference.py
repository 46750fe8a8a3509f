"""Alignment inference strategies (§2.2.2).

Given a source-by-target similarity matrix, produce a predicted alignment:

* **greedy** nearest-neighbor search — what every surveyed approach uses;
* **stable marriage** — the Gale-Shapley strategy evaluated in Table 6;
* **Kuhn-Munkres** (Hungarian) — the collective O(N^3) strategy, solved
  with :func:`scipy.optimize.linear_sum_assignment`.

Every strategy can additionally *abstain*: with ``min_score`` /
``min_margin`` set, low-confidence sources are mapped to ``-1`` (NIL)
instead of being forced onto their least-bad candidate — the correct
behaviour on corrupted datasets where some entities genuinely have no
counterpart (docs/robustness.md, "Data-level robustness").
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .streaming import Slabs, row_scores, similarity_blocks

__all__ = [
    "greedy_alignment",
    "stable_marriage",
    "hungarian_alignment",
    "heuristic_matching",
    "mutual_nearest",
    "apply_abstention",
    "INFERENCE_STRATEGIES",
    "infer_alignment",
]


def apply_abstention(
    similarity: np.ndarray,
    assignment: np.ndarray,
    min_score: float | None = None,
    min_margin: float | None = None,
) -> np.ndarray:
    """Map low-confidence assignments to ``-1`` (NIL).

    A source abstains when its *assigned* similarity falls below
    ``min_score`` or its row's top-1/top-2 margin falls below
    ``min_margin``.  With both thresholds ``None`` the assignment is
    returned unchanged.
    """
    if min_score is None and min_margin is None:
        return assignment
    result = np.asarray(assignment, dtype=np.int64).copy()
    if min_score is not None:
        rows = np.where(result >= 0)[0]
        scores = similarity[rows, result[rows]]
        result[rows[scores < min_score]] = -1
    if min_margin is not None:
        result[row_scores(similarity, margin=True).margin < min_margin] = -1
    return result


def greedy_alignment(
    similarity: np.ndarray | Slabs,
    min_score: float | None = None,
    min_margin: float | None = None,
) -> np.ndarray:
    """For each source row, the index of its most similar target.

    Several sources may pick the same target (the 1-to-1 violations the
    hubness analysis of Figure 10 counts).  With ``min_score`` /
    ``min_margin`` set, low-confidence sources abstain to ``-1`` (NIL);
    without them ``similarity`` may also be the slab stream of
    :func:`~repro.alignment.similarity_blocks` over the same rows.
    """
    return apply_abstention(
        similarity, row_scores(similarity).column, min_score, min_margin
    )


def stable_marriage(
    similarity: np.ndarray,
    min_score: float | None = None,
    min_margin: float | None = None,
) -> np.ndarray:
    """Gale-Shapley stable matching; sources propose, targets accept/reject.

    Returns, per source row, the matched target index, or -1 for sources
    left unmatched (only possible when there are more sources than
    targets) or abstaining under ``min_score`` / ``min_margin``.
    """
    n_source, n_target = similarity.shape
    # Preference lists: targets in decreasing similarity per source.
    preference = np.argsort(-similarity, axis=1)
    next_choice = np.zeros(n_source, dtype=np.int64)
    match_of_target = np.full(n_target, -1, dtype=np.int64)
    match_of_source = np.full(n_source, -1, dtype=np.int64)
    free = list(range(n_source))
    while free:
        source = free.pop()
        while next_choice[source] < n_target:
            target = int(preference[source, next_choice[source]])
            next_choice[source] += 1
            holder = match_of_target[target]
            if holder == -1:
                match_of_target[target] = source
                match_of_source[source] = target
                break
            if similarity[source, target] > similarity[holder, target]:
                match_of_target[target] = source
                match_of_source[source] = target
                match_of_source[holder] = -1
                free.append(holder)
                break
    return apply_abstention(similarity, match_of_source, min_score, min_margin)


def heuristic_matching(similarity: np.ndarray) -> np.ndarray:
    """Near-linear-time collective matching (§2.2.2's heuristic option).

    Sorts all mutual-nearest-neighbor candidates plus per-row maxima by
    similarity and greedily commits conflict-free pairs — the classic
    cheap approximation of maximum-weight bipartite matching.  Returns,
    per source row, the matched target or -1.
    """
    n_source, n_target = similarity.shape
    row_best = similarity.argmax(axis=1)
    col_best = similarity.argmax(axis=0)
    candidates = {(i, int(row_best[i])) for i in range(n_source)}
    candidates.update((int(col_best[j]), j) for j in range(n_target))
    ordered = sorted(candidates, key=lambda ij: -similarity[ij[0], ij[1]])
    result = np.full(n_source, -1, dtype=np.int64)
    taken = np.zeros(n_target, dtype=bool)
    for i, j in ordered:
        if result[i] == -1 and not taken[j]:
            result[i] = j
            taken[j] = True
    # second pass: unmatched sources take their best free target
    for i in np.where(result == -1)[0]:
        free = np.where(~taken)[0]
        if free.size == 0:
            break
        j = free[int(similarity[i, free].argmax())]
        result[i] = j
        taken[j] = True
    return result


def mutual_nearest(
    source: np.ndarray,
    target: np.ndarray,
    threshold: float | None = None,
    mutual: bool = True,
) -> list[tuple[int, int]]:
    """``(row, column)`` pairs of each source row's nearest target row.

    Scores are ``source @ target.T`` (pass unit rows for cosine), reduced
    slab by slab (:func:`~repro.alignment.streaming.similarity_blocks`),
    so the full matrix is never built.  A pair is kept when its score
    reaches ``threshold`` (if given) and, with ``mutual``, when the row
    is also its column's nearest row (the first row wins ties) — the
    proposal rule of self-training (BootEA, KDCoE) and of MUSE-style
    Procrustes refinement.
    """
    n, m = len(source), len(target)
    if n == 0 or m == 0:
        return []
    best_for_row = np.empty(n, dtype=np.int64)
    best_score = np.empty(n)
    column_score = np.full(m, -np.inf)
    best_for_column = np.zeros(m, dtype=np.int64)
    columns = np.arange(m)
    for start, sim in similarity_blocks(source, target):
        stop = start + len(sim)
        row_best = sim.argmax(axis=1)
        best_for_row[start:stop] = row_best
        best_score[start:stop] = sim[np.arange(len(sim)), row_best]
        if mutual:
            slab_best = sim.argmax(axis=0)
            slab_score = sim[slab_best, columns]
            # strictly greater: an earlier slab keeps a tied column
            better = slab_score > column_score
            column_score[better] = slab_score[better]
            best_for_column[better] = start + slab_best[better]
    keep = np.ones(n, dtype=bool)
    if threshold is not None:
        keep &= best_score >= threshold
    if mutual:
        keep &= best_for_column[best_for_row] == np.arange(n)
    return [(int(i), int(best_for_row[i])) for i in np.flatnonzero(keep)]


def hungarian_alignment(similarity: np.ndarray) -> np.ndarray:
    """Globally optimal 1-to-1 assignment maximizing total similarity.

    Returns, per source row, the assigned target index, or -1 when there
    are more sources than targets and the source was left out.
    """
    rows, cols = linear_sum_assignment(similarity, maximize=True)
    result = np.full(similarity.shape[0], -1, dtype=np.int64)
    result[rows] = cols
    return result


INFERENCE_STRATEGIES = {
    "greedy": greedy_alignment,
    "stable_marriage": stable_marriage,
    "hungarian": hungarian_alignment,
    "heuristic": heuristic_matching,
}


def infer_alignment(
    similarity: np.ndarray,
    strategy: str = "greedy",
    min_score: float | None = None,
    min_margin: float | None = None,
) -> np.ndarray:
    """Run a named inference strategy on a similarity matrix.

    ``min_score`` / ``min_margin`` enable abstention for *any* strategy:
    low-confidence sources come back as ``-1`` (NIL).
    """
    try:
        func = INFERENCE_STRATEGIES[strategy]
    except KeyError:
        raise KeyError(
            f"unknown strategy {strategy!r}; choose from {sorted(INFERENCE_STRATEGIES)}"
        ) from None
    return apply_abstention(similarity, func(similarity), min_score, min_margin)
