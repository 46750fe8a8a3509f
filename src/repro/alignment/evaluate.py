"""Evaluation metrics: Hits@m, MR, MRR and precision/recall/F1 (§2.1.3).

Rank metrics assume the standard left-to-right protocol: each test source
entity ranks all candidate target entities; the gold target's rank drives
Hits@m / MR / MRR.  Hits@1 equals precision in this protocol (every source
entity emits exactly one prediction).  Each function taking a similarity
also takes the slab stream of :func:`~repro.alignment.similarity_blocks`
over the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .streaming import RowScores, Slabs, row_scores

__all__ = [
    "RankMetrics",
    "rank_metrics",
    "sample_candidate_indices",
    "sampled_rank_metrics",
    "prf_metrics",
    "PRF",
    "DanglingMetrics",
    "nil_aware_metrics",
    "calibrate_abstention",
    "abstention_curve",
]


@dataclass(frozen=True)
class RankMetrics:
    """Ranking quality of one evaluation run."""

    hits: dict[int, float]
    mr: float
    mrr: float
    n: int

    def hits_at(self, m: int) -> float:
        return self.hits[m]

    def __str__(self) -> str:
        hits = " ".join(f"H@{m}={v:.3f}" for m, v in sorted(self.hits.items()))
        return f"{hits} MR={self.mr:.1f} MRR={self.mrr:.3f} (n={self.n})"


def rank_metrics(
    similarity: np.ndarray | Slabs,
    gold: np.ndarray,
    hits_at: tuple[int, ...] = (1, 5, 10),
) -> RankMetrics:
    """Compute Hits@m / MR / MRR from a similarity matrix.

    ``gold[i]`` is the column index of source row ``i``'s true counterpart.
    Ranks are 1-based; ties are counted optimistically-neutral by ranking
    the gold entity below strictly-more-similar candidates only.
    """
    gold = np.asarray(gold, dtype=np.int64)
    ranks = row_scores(similarity, gold).rank
    if len(ranks) == 0:
        return RankMetrics(hits={m: 0.0 for m in hits_at}, mr=0.0, mrr=0.0, n=0)
    hits = {m: float((ranks <= m).mean()) for m in hits_at}
    return RankMetrics(
        hits=hits,
        mr=float(ranks.mean()),
        mrr=float((1.0 / ranks).mean()),
        n=len(gold),
    )


def sample_candidate_indices(
    n: int,
    sample: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Sorted row indices of a sampled-candidate evaluation subset.

    Returns all ``n`` indices when ``sample`` is non-positive or at least
    ``n``, otherwise a sorted ``sample``-sized choice without replacement.
    Sorting keeps the subset order-stable so downstream metrics do not
    depend on the draw order.
    """
    if n <= 0:
        return np.zeros(0, dtype=np.int64)
    if sample <= 0 or sample >= n:
        return np.arange(n, dtype=np.int64)
    if rng is None:
        rng = np.random.default_rng(0)
    return np.sort(rng.choice(n, size=sample, replace=False)).astype(np.int64)


def sampled_rank_metrics(
    similarity_fn,
    pairs: list[tuple[str, str]],
    *,
    sample: int,
    rng: np.random.Generator | None = None,
    hits_at: tuple[int, ...] = (1, 5, 10),
) -> RankMetrics:
    """Rank metrics on a sampled subset of gold pairs — O(sample²).

    Each sampled source ranks against the sampled targets only (the
    compact candidate protocol restricted to the subset), so a streaming
    probe costs ``sample × sample`` similarity entries instead of the
    full |test|² matrix.  ``similarity_fn(sources, targets)`` must return
    the similarity matrix between the named entities (for an approach,
    pass ``approach.similarity_between``).
    """
    indices = sample_candidate_indices(len(pairs), sample, rng)
    subset = [pairs[int(i)] for i in indices]
    if not subset:
        return RankMetrics(hits={m: 0.0 for m in hits_at}, mr=0.0, mrr=0.0, n=0)
    sources = [a for a, _ in subset]
    targets = [b for _, b in subset]
    similarity = similarity_fn(sources, targets)
    gold = np.arange(len(subset), dtype=np.int64)
    return rank_metrics(similarity, gold, hits_at=hits_at)


@dataclass(frozen=True)
class PRF:
    """Precision / recall / F1 of a predicted alignment set."""

    precision: float
    recall: float
    f1: float
    n_predicted: int
    n_gold: int

    def __str__(self) -> str:
        return (
            f"P={self.precision:.3f} R={self.recall:.3f} F1={self.f1:.3f} "
            f"(pred={self.n_predicted}, gold={self.n_gold})"
        )


def prf_metrics(
    predicted: set[tuple[str, str]] | list[tuple[str, str]],
    gold: set[tuple[str, str]] | list[tuple[str, str]],
) -> PRF:
    """Set-based precision/recall/F1 (the conventional-systems protocol).

    Degenerate inputs are well-defined rather than division-by-zero:
    an empty prediction set has precision 0.0, an empty (zero-positive)
    gold set has recall 0.0, and F1 is 0.0 whenever both components
    vanish.
    """
    predicted_set = set(predicted)
    gold_set = set(gold)
    correct = len(predicted_set & gold_set)
    precision = correct / len(predicted_set) if predicted_set else 0.0
    recall = correct / len(gold_set) if gold_set else 0.0
    if precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return PRF(
        precision=precision,
        recall=recall,
        f1=f1,
        n_predicted=len(predicted_set),
        n_gold=len(gold_set),
    )


# ----------------------------------------------------------------------
# NIL-aware evaluation (dangling entities; docs/robustness.md)
# ----------------------------------------------------------------------

#: Valid abstention signals: "threshold" abstains on a low top-1 score,
#: "margin" on a low top-1/top-2 margin.
ABSTENTION_METHODS = ("threshold", "margin")


@dataclass(frozen=True)
class DanglingMetrics:
    """Quality of one abstention policy on a corrupted candidate set.

    Dangling detection treats *abstained* as the positive class:
    precision is the fraction of abstentions that were genuinely
    dangling, recall the fraction of dangling sources detected.
    ``hits1_matchable`` counts an abstained matchable source as a miss —
    the cost of abstaining too eagerly — while ``mrr_matchable`` scores
    the underlying ranking over the full candidate set, independent of
    the abstention decision.
    """

    method: str
    threshold: float
    precision: float
    recall: float
    f1: float
    hits1_matchable: float
    mrr_matchable: float
    abstained: int
    n_dangling: int
    n_matchable: int

    def __str__(self) -> str:
        return (
            f"dangling P={self.precision:.3f} R={self.recall:.3f} "
            f"F1={self.f1:.3f} H@1(match)={self.hits1_matchable:.3f} "
            f"MRR(match)={self.mrr_matchable:.3f} "
            f"({self.method}@{self.threshold:.4f}, "
            f"abstained={self.abstained}/{self.n_dangling}+{self.n_matchable})"
        )


def _signal(similarity, method: str,
            gold=None) -> tuple[RowScores, np.ndarray]:
    """The row scores (with ranks when ``gold`` is given) and the
    per-row signal an abstention ``method`` reads."""
    if method not in ABSTENTION_METHODS:
        raise ValueError(
            f"unknown abstention method {method!r}; "
            f"choose from {ABSTENTION_METHODS}"
        )
    scores = row_scores(similarity, gold, margin=method == "margin")
    return scores, scores.best if method == "threshold" else scores.margin


def nil_aware_metrics(
    similarity: np.ndarray | Slabs,
    gold: np.ndarray,
    method: str = "threshold",
    threshold: float | None = 0.0,
) -> DanglingMetrics:
    """Score an abstention policy against NIL ground truth.

    ``gold[i]`` is the column index of source row ``i``'s counterpart,
    or ``-1`` when the source is dangling (has no counterpart among the
    candidates).  A source *abstains* when its signal — top-1 score for
    ``method="threshold"``, top-1/top-2 margin for ``method="margin"`` —
    falls below ``threshold``; ``None`` calibrates it in-sample, as
    :func:`calibrate_abstention` would on the same inputs.
    """
    gold = np.asarray(gold, dtype=np.int64)
    scores, signal = _signal(similarity, method, gold)
    if threshold is None:
        threshold = _calibrated(signal, gold)
    return _nil_metrics(scores, signal, gold, method, threshold)


def _nil_metrics(scores: RowScores, signal: np.ndarray, gold: np.ndarray,
                 method: str, threshold: float) -> DanglingMetrics:
    abstain = signal < threshold
    dangling = gold < 0
    matchable = ~dangling

    true_pos = int((abstain & dangling).sum())
    n_abstained = int(abstain.sum())
    n_dangling = int(dangling.sum())
    precision = true_pos / n_abstained if n_abstained else 0.0
    recall = true_pos / n_dangling if n_dangling else 0.0
    f1 = (2.0 * precision * recall / (precision + recall)
          if precision + recall else 0.0)

    n_matchable = int(matchable.sum())
    if n_matchable:
        correct = (scores.column == gold) & ~abstain
        hits1 = float(correct[matchable].mean())
        mrr = float((1.0 / scores.rank[matchable]).mean())
    else:
        hits1 = 0.0
        mrr = 0.0

    return DanglingMetrics(
        method=method,
        threshold=float(threshold),
        precision=precision,
        recall=recall,
        f1=f1,
        hits1_matchable=hits1,
        mrr_matchable=mrr,
        abstained=n_abstained,
        n_dangling=n_dangling,
        n_matchable=n_matchable,
    )


def calibrate_abstention(
    similarity: np.ndarray | Slabs,
    gold: np.ndarray,
    method: str = "threshold",
    fallback_quantile: float = 0.05,
) -> float:
    """Pick the abstention threshold maximizing dangling-detection F1.

    Sweeps the midpoints between consecutive observed signal values and
    returns the F1-maximizing threshold (ties broken towards fewer
    abstentions, protecting matchable Hits@1).  Without any dangling
    example to calibrate on, falls back to the ``fallback_quantile`` of
    the matchable signals — abstain on the least-confident tail.
    """
    gold = np.asarray(gold, dtype=np.int64)
    return _calibrated(_signal(similarity, method)[1], gold,
                       fallback_quantile)


def _calibrated(signal: np.ndarray, gold: np.ndarray,
                fallback_quantile: float = 0.05) -> float:
    dangling = gold < 0
    if signal.size == 0:
        return 0.0
    if not dangling.any():
        return float(np.quantile(signal, fallback_quantile))
    order = np.unique(signal)
    if order.size == 1:
        candidates = np.array([order[0]])
    else:
        candidates = np.concatenate(
            ([order[0] - 1e-9], (order[:-1] + order[1:]) / 2.0,
             [order[-1] + 1e-9])
        )
    # "signal < t" abstains on a prefix of the signals in ascending
    # order: its length and the dangling count within it give the F1.
    ascending = np.argsort(signal, kind="stable")
    n_abstained = np.searchsorted(signal[ascending], candidates, side="left")
    true_pos = np.concatenate(([0], np.cumsum(dangling[ascending])))[
        n_abstained].astype(float)
    n_abstained = n_abstained.astype(float)
    n_dangling = float(dangling.sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(n_abstained > 0, true_pos / n_abstained, 0.0)
        recall = true_pos / n_dangling
        denominator = precision + recall
        f1 = np.where(denominator > 0, 2 * precision * recall / denominator, 0.0)
    best = f1.max()
    # argmax over the lowest-threshold maximizer = fewest abstentions.
    return float(candidates[int(np.argmax(f1 >= best - 1e-12))])


def abstention_curve(
    similarity: np.ndarray | Slabs,
    gold: np.ndarray,
    method: str = "threshold",
    thresholds: list[float] | np.ndarray | None = None,
    n_points: int = 9,
) -> list[DanglingMetrics]:
    """NIL metrics along a threshold sweep (for reports and the CLI).

    Default thresholds are evenly-spaced quantiles of the observed
    signal, so the curve covers the abstain-nothing..abstain-most range
    whatever the score scale.
    """
    gold = np.asarray(gold, dtype=np.int64)
    scores, signal = _signal(similarity, method, gold)
    if thresholds is None:
        if signal.size == 0:
            thresholds = [0.0]
        else:
            quantiles = np.linspace(0.0, 0.9, n_points)
            thresholds = np.unique(np.quantile(signal, quantiles))
    return [_nil_metrics(scores, signal, gold, method, float(t))
            for t in thresholds]
