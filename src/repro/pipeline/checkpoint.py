"""Persist trained entity embeddings for later analysis.

Training is the expensive step; the geometric analyses (§6.1) and the
alignment-module comparisons (Table 6) only need the final embedding
matrices.  A :class:`EmbeddingSnapshot` captures them, round-trips
through a single ``.npz`` file, and offers the same evaluate/predict
surface as a trained approach.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..approaches.base import ApproachInfo, EmbeddingApproach
from ..faults import atomic_write_with

__all__ = ["EmbeddingSnapshot", "save_snapshot", "load_snapshot"]


class EmbeddingSnapshot(EmbeddingApproach):
    """Frozen source/target embeddings with the alignment-module API: an
    approach whose embedding module is a row lookup (it cannot be fit).
    Float64 matrices are kept as given, so a mapped store stays mapped."""

    def __init__(self, sources: list[str], source_matrix: np.ndarray,
                 targets: list[str], target_matrix: np.ndarray,
                 metric: str = "cosine", name: str = "snapshot"):
        super().__init__()
        if len(sources) != len(source_matrix):
            raise ValueError("source names and matrix rows disagree")
        if len(targets) != len(target_matrix):
            raise ValueError("target names and matrix rows disagree")
        self.sources = list(sources)
        self.targets = list(targets)
        self.source_matrix = np.asanyarray(source_matrix, dtype=np.float64)
        self.target_matrix = np.asanyarray(target_matrix, dtype=np.float64)
        self.metric = metric
        self.name = name
        self._source_row = {entity: i for i, entity in enumerate(self.sources)}
        self._target_row = {entity: i for i, entity in enumerate(self.targets)}

    @property
    def info(self) -> ApproachInfo:
        return ApproachInfo(name=self.name, relation_embedding="-",
                            attribute_embedding="-", metric=self.metric,
                            combination="-", learning="-")

    def source_row(self, entity: str) -> int:
        return self._source_row[entity]

    def _source_matrix(self, entities: list[str]) -> np.ndarray:
        return self.source_matrix[[self._source_row[e] for e in entities]]

    def _target_matrix(self, entities: list[str]) -> np.ndarray:
        return self.target_matrix[[self._target_row[e] for e in entities]]

    @classmethod
    def from_approach(
        cls, approach: EmbeddingApproach,
        pairs: list[tuple[str, str]], name: str | None = None,
    ) -> "EmbeddingSnapshot":
        """Capture an approach's embeddings for the entities of ``pairs``."""
        sources = [a for a, _ in pairs]
        targets = [b for _, b in pairs]
        return cls(
            sources, approach._source_matrix(sources),
            targets, approach._target_matrix(targets),
            metric=approach.info.metric,
            name=name or approach.info.name,
        )


def save_snapshot(snapshot: EmbeddingSnapshot, path: Path | str) -> None:
    """Atomically write a snapshot to a single ``.npz`` file."""
    atomic_write_with(
        path,
        lambda handle: np.savez_compressed(
            handle,
            sources=np.array(snapshot.sources, dtype=object),
            targets=np.array(snapshot.targets, dtype=object),
            source_matrix=snapshot.source_matrix,
            target_matrix=snapshot.target_matrix,
            metric=np.array(snapshot.metric),
            name=np.array(snapshot.name),
        ),
        site="snapshot.save",
    )


def load_snapshot(path: Path | str) -> EmbeddingSnapshot:
    """Load a snapshot written by :func:`save_snapshot`."""
    with np.load(path, allow_pickle=True) as data:
        return EmbeddingSnapshot(
            sources=[str(s) for s in data["sources"]],
            source_matrix=data["source_matrix"],
            targets=[str(t) for t in data["targets"]],
            target_matrix=data["target_matrix"],
            metric=str(data["metric"]),
            name=str(data["name"]),
        )
