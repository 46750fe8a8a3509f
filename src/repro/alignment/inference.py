"""Alignment inference strategies (§2.2.2).

Given a source-by-target similarity, produce a predicted alignment:

* **greedy** nearest-neighbor search — what every surveyed approach uses;
* **stable marriage** — the Gale-Shapley strategy evaluated in Table 6;
* **Kuhn-Munkres** (Hungarian) — the collective O(N^3) strategy, solved
  with :func:`scipy.optimize.linear_sum_assignment`;
* a **heuristic** matching between greedy and the collective ones.

Hungarian takes a matrix.  The others also take the similarity as
:class:`~repro.alignment.streaming.SimilarityRows` and never build the
whole matrix: they reduce one slab at a time into per-row state (a
matrix is read as slab-sized row views).

Every strategy can additionally *abstain*: with ``min_score`` /
``min_margin`` set, low-confidence sources are mapped to ``-1`` (NIL)
instead of being forced onto their least-bad candidate — the correct
behaviour on corrupted datasets where some entities genuinely have no
counterpart (docs/robustness.md, "Data-level robustness").
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .streaming import (SLAB_CELLS, SimilarityRows, Slabs, _top_k,
                        row_scores, similarity_blocks)

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


# Targets per source in a stable-marriage preference list.  Most
# sources settle within the first few, a few propose thousands deep (one
# of pipeline-5k's 2,509 test sources, 2,020).  Of 8 to 128, 32 ran
# fastest or within noise of it in every metric (docs/performance.md,
# "Bounded-memory similarity").
PREFERENCE_DEPTH = 32


def stable_marriage(
    similarity: np.ndarray | SimilarityRows,
    min_score: float | None = None,
    min_margin: float | None = None,
) -> np.ndarray:
    """Gale-Shapley stable matching; sources propose, targets accept/reject.

    A source proposes by decreasing score, then by lower column.  A
    target compares the scores its proposers carried and keeps its
    holder on a tie.  Without tied scores the source-optimal stable
    matching does not depend on the order of proposals, so another
    implementation can come out differently only where scores tie.

    Each source's preference list holds its first ``PREFERENCE_DEPTH``
    targets, taken in one read of the similarity (two with CSLS).  A
    source that runs out of its list is parked; when no source is free,
    only the parked rows are read again, for their next targets.  A
    matrix is read as slab-sized row views and left unmodified;
    abstention under ``min_score`` / ``min_margin`` needs the matrix.

    Returns, per source row, the matched target index, or -1 for sources
    left unmatched (only possible when there are more sources than
    targets) or abstaining under ``min_score`` / ``min_margin``.
    """
    rows = _readable(similarity)
    n_source, n_target = rows.shape
    match = np.full(n_source, -1, dtype=np.int64)
    if n_target == 0:
        return match
    depth = min(PREFERENCE_DEPTH, n_target)
    targets, carried = [], []  # per source: its list and the scores
    for _, slab in rows:
        columns, scores = _preferences(np.negative(slab), depth)
        targets += columns.tolist()
        carried += scores.tolist()
    position = [0] * n_source       # next entry of the source's list
    passed = [0] * n_source         # targets of its earlier lists
    holder = [-1] * n_target
    held = [0.0] * n_target
    free = list(range(n_source))
    while free:
        parked = []
        while free:
            source = free.pop()
            options, scores = targets[source], carried[source]
            for at in range(position[source], len(options)):
                target = options[at]
                current = holder[target]
                if current == -1 or scores[at] > held[target]:
                    holder[target], held[target] = source, scores[at]
                    position[source] = at + 1
                    if current != -1:
                        free.append(current)
                    break
            else:
                position[source] = len(options)
                if passed[source] + len(options) < n_target:
                    parked.append(source)
        if parked:
            # the parked rows share as many entries as the first lists
            deeper = min(n_target, max(depth,
                                       n_source * depth // len(parked)))
            free = _refill(rows, np.sort(parked), targets, carried,
                           position, passed, deeper)
    holder = np.array(holder)
    held_targets = np.flatnonzero(holder >= 0)
    match[holder[held_targets]] = held_targets
    return apply_abstention(similarity, match, min_score, min_margin)


def _preferences(negated: np.ndarray, depth: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first ``depth`` targets in preference order (decreasing
    score, then lower column) and their scores, from negated scores."""
    top, scores = _top_k(negated, depth)
    cut = scores.min(axis=1)
    # the partition keeps any of the targets tied at the cut; the
    # preference order keeps the lowest columns
    short = np.count_nonzero(negated <= -cut[:, None], axis=1) > depth
    for row in np.flatnonzero(short):
        ahead = np.flatnonzero(negated[row] < -cut[row])
        tied = np.flatnonzero(negated[row] == -cut[row])
        top[row] = np.concatenate((ahead, tied[:depth - len(ahead)]))
        scores[row] = -negated[row, top[row]]
    order = np.lexsort((top, -scores))
    return (np.take_along_axis(top, order, axis=1),
            np.take_along_axis(scores, order, axis=1))


def _refill(rows, parked, targets, carried, position, passed, depth):
    """Re-score the ``parked`` sources for the targets after the last of
    their lists, in preference order; returns those with a new list."""
    refilled = []
    columns = np.arange(rows.shape[1])
    for start, slab in rows.rows(parked):
        chunk = parked[start:start + len(slab)].tolist()
        last = np.array([carried[source][-1] for source in chunk])[:, None]
        last_column = np.array([targets[source][-1]
                                for source in chunk])[:, None]
        after = (slab < last) | ((slab == last) & (columns > last_column))
        remaining = np.count_nonzero(after, axis=1).tolist()
        new, scores = _preferences(np.where(after, -slab, np.inf), depth)
        for source, left, options, option_scores in zip(
                chunk, remaining, new.tolist(), scores.tolist()):
            passed[source] += len(targets[source])
            position[source] = 0
            targets[source] = options[:left]
            carried[source] = option_scores[:left]
            if left:
                refilled.append(source)
    return refilled[::-1]


def heuristic_matching(similarity: np.ndarray | SimilarityRows) -> np.ndarray:
    """Near-linear-time collective matching (§2.2.2's heuristic option).

    Takes each row's best column and each column's best row (the first
    on ties) from one read of the similarity, sorts these candidate
    pairs by decreasing score (then by row, then by column) and greedily
    commits conflict-free pairs — the classic cheap approximation of
    maximum-weight bipartite matching.  Then the sources left over, in
    ascending order, each take their best free target (the lowest column
    on ties); only their rows are read again.  Returns, per source row,
    the matched target or -1.
    """
    rows = _readable(similarity)
    n_source, n_target = rows.shape
    result = np.full(n_source, -1, dtype=np.int64)
    if n_source == 0 or n_target == 0:
        return result
    scores = row_scores(rows, columns=True)
    # a column's best row adds a candidate unless that row's best is it
    extra = np.flatnonzero(scores.column[scores.best_row]
                           != np.arange(n_target))
    sources = np.concatenate((np.arange(n_source), scores.best_row[extra]))
    columns = np.concatenate((scores.column, extra))
    order = np.lexsort((columns, sources,
                        -np.concatenate((scores.best,
                                         scores.column_best[extra]))))
    taken = np.zeros(n_target, dtype=bool)
    for i, j in zip(sources[order].tolist(), columns[order].tolist()):
        if result[i] == -1 and not taken[j]:
            result[i] = j
            taken[j] = True
    # second pass: as many sources as there are free targets, in order
    left = np.flatnonzero(result == -1)[:n_target - taken.sum()]
    for start, slab in rows.rows(left):
        for i, row in zip(left[start:start + len(slab)], slab):
            free = np.flatnonzero(~taken)
            j = free[int(row[free].argmax())]
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
    slab by slab (:func:`~repro.alignment.streaming.row_scores` over
    :func:`~repro.alignment.streaming.similarity_blocks`), so the full
    matrix is never built.  A pair is kept when its score reaches
    ``threshold`` (if given) and, with ``mutual``, when the row is also
    its column's nearest row (the first row wins ties) — the proposal
    rule of self-training (BootEA, KDCoE) and of MUSE-style Procrustes
    refinement.
    """
    n, m = len(source), len(target)
    if n == 0 or m == 0:
        return []
    scores = row_scores(similarity_blocks(source, target), columns=mutual)
    keep = np.ones(n, dtype=bool)
    if threshold is not None:
        keep &= scores.best >= threshold
    if mutual:
        keep &= scores.best_row[scores.column] == np.arange(n)
    return [(int(i), int(scores.column[i])) for i in np.flatnonzero(keep)]


class _MatrixRows:
    """A matrix read like :class:`SimilarityRows`: slab-sized row views,
    and copies of the selected rows."""

    def __init__(self, matrix: np.ndarray):
        self.matrix, self.shape = matrix, matrix.shape

    def __iter__(self):
        return self.rows()

    def rows(self, selection: np.ndarray | None = None):
        height = max(1, SLAB_CELLS // max(self.shape[1], 1))
        count = self.shape[0] if selection is None else len(selection)
        for start in range(0, count, height):
            stop = start + height
            yield start, (self.matrix[start:stop] if selection is None
                          else self.matrix[selection[start:stop]])


def _readable(similarity: np.ndarray | SimilarityRows):
    return (_MatrixRows(similarity) if isinstance(similarity, np.ndarray)
            else similarity)


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
    similarity: np.ndarray | SimilarityRows,
    strategy: str = "greedy",
    min_score: float | None = None,
    min_margin: float | None = None,
) -> np.ndarray:
    """Run a named inference strategy on a similarity: a matrix, or for
    every strategy but ``"hungarian"`` a :class:`SimilarityRows`.

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
