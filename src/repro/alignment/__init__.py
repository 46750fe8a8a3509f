"""Alignment module: distance metrics, inference strategies, evaluation."""

from .blocking import HyperplaneLSH, blocked_greedy_alignment
from .streaming import (
    RowScores,
    row_scores,
    similarity_blocks,
    topk_similarity,
)
from .evaluate import (
    PRF,
    DanglingMetrics,
    RankMetrics,
    abstention_curve,
    calibrate_abstention,
    nil_aware_metrics,
    prf_metrics,
    rank_metrics,
    sample_candidate_indices,
    sampled_rank_metrics,
)
from .inference import (
    INFERENCE_STRATEGIES,
    apply_abstention,
    greedy_alignment,
    heuristic_matching,
    hungarian_alignment,
    infer_alignment,
    mutual_nearest,
    stable_marriage,
)
from .metrics import (
    cosine_similarity,
    csls,
    euclidean_similarity,
    manhattan_similarity,
    normalize_rows,
    similarity_matrix,
    top_scores,
)

__all__ = [
    "cosine_similarity", "euclidean_similarity", "manhattan_similarity",
    "similarity_matrix", "csls", "top_scores", "normalize_rows",
    "greedy_alignment", "stable_marriage", "hungarian_alignment",
    "heuristic_matching", "infer_alignment", "INFERENCE_STRATEGIES",
    "apply_abstention", "mutual_nearest",
    "rank_metrics", "RankMetrics", "prf_metrics", "PRF",
    "sample_candidate_indices", "sampled_rank_metrics",
    "DanglingMetrics", "nil_aware_metrics", "calibrate_abstention",
    "abstention_curve",
    "HyperplaneLSH", "blocked_greedy_alignment",
    "similarity_blocks", "topk_similarity", "row_scores", "RowScores",
]
