"""Experiment pipeline: cross-validation runner and aggregation."""

from .checkpoint import EmbeddingSnapshot, load_snapshot, save_snapshot
from .export import export_csv, export_fold_csv
from .runner import CVResult, FoldResult, cross_validate, run_fold

__all__ = ["cross_validate", "run_fold", "CVResult", "FoldResult",
           "export_csv", "export_fold_csv",
           "EmbeddingSnapshot", "save_snapshot", "load_snapshot"]
