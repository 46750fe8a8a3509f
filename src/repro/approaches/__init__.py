"""The 12 embedding-based entity alignment approaches of the study."""

from .alinet import AliNet
from .attr_family import AttrE, IMUSE, JAPE, KDCoE, MultiKE
from .composer import ATTRIBUTE_CHANNELS, COMBINATIONS, compose_approach
from .base import (
    ApproachConfig,
    ApproachInfo,
    AugmentationRecord,
    EmbeddingApproach,
    PairData,
    TrainingLog,
)
from .checkpointing import CheckpointCorruption, TrainingCheckpointer
from .gcn_family import GCNAlign, RDGCN
from .literals import (
    char_vectors,
    description_vectors,
    name_vectors,
    value_word_vectors,
    vectors_to_matrix,
    word_tables,
)
from .registry import (
    APPROACHES,
    EXTRA_APPROACHES,
    REQUIRED_INFORMATION,
    get_approach,
    required_information_table,
)
from .rsn import RSN4EA
from .trans_family import SEA, BootEA, IPTransE, MTransE, UnifiedTransApproach
from .unsupervised import UnsupervisedProcrustes, orthogonal_procrustes

__all__ = [
    "ApproachConfig", "ApproachInfo", "EmbeddingApproach", "PairData",
    "TrainingLog", "AugmentationRecord",
    "TrainingCheckpointer", "CheckpointCorruption",
    "MTransE", "IPTransE", "JAPE", "KDCoE", "BootEA", "GCNAlign",
    "AttrE", "IMUSE", "SEA", "RSN4EA", "MultiKE", "RDGCN",
    "UnifiedTransApproach",
    "APPROACHES", "get_approach", "REQUIRED_INFORMATION",
    "required_information_table",
    "char_vectors", "description_vectors", "name_vectors",
    "value_word_vectors", "vectors_to_matrix", "word_tables",
    "UnsupervisedProcrustes", "orthogonal_procrustes",
    "AliNet", "EXTRA_APPROACHES",
    "compose_approach", "COMBINATIONS", "ATTRIBUTE_CHANNELS",
]
