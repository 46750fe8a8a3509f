"""Literal-derived entity vectors shared by the attribute-using approaches.

The paper's approaches consume literals in three ways: word-embedded
attribute values (JAPE's successor methods, IMUSE, MultiKE's attribute
view), name-like labels (MultiKE's name view, RDGCN's initialization),
and long textual descriptions (KDCoE).  AttrE instead encodes values at
the character level (Eq. 5).

Values are weighted by inverse document frequency so that rare literals
(near-keys) dominate ubiquitous ones.
"""

from __future__ import annotations

import numpy as np

from ..kg import KGPair, KnowledgeGraph
from ..text import CharEmbeddingTable, WordEmbeddingTable
from ..text.embeddings import segment_sums

__all__ = [
    "word_tables",
    "value_word_vectors",
    "name_vectors",
    "description_vectors",
    "char_vectors",
    "vectors_to_matrix",
]


def word_tables(
    pair: KGPair, dim: int = 32, seed: int = 0
) -> tuple[WordEmbeddingTable, WordEmbeddingTable]:
    """One word table per KG of ``pair``, in the language of its literals.

    A fit builds its tables once and passes each to every word-vector
    channel of that KG, so each token is hashed once per KG and fit.
    """
    return tuple(
        WordEmbeddingTable(dim=dim, language=pair.metadata.get(f"lang{side}", "en"),
                           seed=seed)
        for side in (1, 2)
    )


def _triple_ids(kg: KnowledgeGraph):
    """The KG's distinct entities and values, each in order of first
    appearance, and every attribute triple's entity and value ids."""
    entities: dict[str, int] = {}
    values: dict[str, int] = {}
    entity_of = np.array([entities.setdefault(e, len(entities))
                          for e, _, _ in kg.attribute_triples], dtype=np.int64)
    value_of = np.array([values.setdefault(v, len(values))
                         for _, _, v in kg.attribute_triples], dtype=np.int64)
    return list(entities), entity_of, list(values), value_of


def _idf(value_of: np.ndarray, n_values: int) -> np.ndarray:
    return 1.0 / np.log(2.0 + np.bincount(value_of, minlength=n_values))


def _idf_weights(kg: KnowledgeGraph) -> dict[str, float]:
    _, _, values, value_of = _triple_ids(kg)
    return dict(zip(values, _idf(value_of, len(values))))


def _best_value(entity_of, value_of, keep, score):
    """Per entity with a kept triple, ordered by its first kept triple:
    the entity id and the value id of its highest-scoring kept triple,
    the earliest one among ties."""
    kept = np.flatnonzero(keep)
    entities, first = np.unique(entity_of[kept], return_index=True)
    ranked = kept[np.lexsort((kept, -score[kept], entity_of[kept]))]
    best = ranked[np.searchsorted(entity_of[ranked], entities)]
    order = np.argsort(first)
    return entities[order], value_of[best[order]]


def _embedded(names: list[str], entity_ids, texts: list[str],
              value_ids, table: WordEmbeddingTable) -> dict[str, np.ndarray]:
    """``{entity: vector}`` with each distinct value embedded once."""
    distinct, inverse = np.unique(value_ids, return_inverse=True)
    vectors = table.embed_texts([texts[v] for v in distinct])[inverse]
    return {names[e]: vector for e, vector in zip(entity_ids, vectors)}


def value_word_vectors(
    kg: KnowledgeGraph, table: WordEmbeddingTable
) -> dict[str, np.ndarray]:
    """IDF-weighted mean word vector over all of an entity's values.

    An entity's weighted vectors and its weights are each summed in the
    order of its triples.
    """
    entities, entity_of, values, value_of = _triple_ids(kg)
    weight = _idf(value_of, len(values))[value_of]
    weighted = weight[:, None] * table.embed_texts(values)[value_of]
    # each entity's triples, in order, as consecutive segments
    by_entity = np.argsort(entity_of, kind="stable")
    counts = np.bincount(entity_of, minlength=len(entities))
    sums = segment_sums(weighted, by_entity, counts)
    weights = segment_sums(weight, by_entity, counts)
    return dict(zip(entities, sums / np.maximum(weights, 1e-12)[:, None]))


def name_vectors(
    kg: KnowledgeGraph, table: WordEmbeddingTable
) -> dict[str, np.ndarray]:
    """A name-like vector per entity.

    Entity labels are deleted from the datasets (paper §3.2), so, like the
    name-view approaches, we take the entity's *rarest short* literal as
    its label surrogate: at most 4 tokens, highest IDF.
    """
    entities, entity_of, values, value_of = _triple_ids(kg)
    short = np.array([len(v.split()) <= 4 for v in values], dtype=bool)
    idf = _idf(value_of, len(values))
    chosen, value_ids = _best_value(entity_of, value_of, short[value_of],
                                    idf[value_of])
    return _embedded(entities, chosen, values, value_ids, table)


def description_vectors(
    kg: KnowledgeGraph, table: WordEmbeddingTable, min_tokens: int = 5
) -> dict[str, np.ndarray]:
    """The entity's longest literal, if long enough to act as a description.

    Entities without a sufficiently long literal are absent from the
    result — the coverage gap that limits KDCoE's co-training (§5.2).
    """
    entities, entity_of, values, value_of = _triple_ids(kg)
    long = np.array([len(v.split()) >= min_tokens for v in values], dtype=bool)
    length = np.array([len(v) for v in values], dtype=np.int64)
    chosen, value_ids = _best_value(entity_of, value_of, long[value_of],
                                    length[value_of])
    return _embedded(entities, chosen, values, value_ids, table)


def char_vectors(
    kg: KnowledgeGraph, dim: int = 32, seed: int = 0
) -> dict[str, np.ndarray]:
    """AttrE-style character-level entity vectors (IDF-weighted)."""
    table = CharEmbeddingTable(dim=dim, seed=seed)
    idf = _idf_weights(kg)
    sums: dict[str, np.ndarray] = {}
    weights: dict[str, float] = {}
    for entity, _, value in kg.attribute_triples:
        vec = table.embed_literal(value)
        weight = idf[value]
        if entity not in sums:
            sums[entity] = weight * vec
            weights[entity] = weight
        else:
            sums[entity] += weight * vec
            weights[entity] += weight
    return {entity: sums[entity] / max(weights[entity], 1e-12) for entity in sums}


def vectors_to_matrix(
    vectors: dict[str, np.ndarray], entities: list[str], dim: int
) -> np.ndarray:
    """Stack per-entity vectors into a matrix, zero rows for missing ones."""
    out = np.zeros((len(entities), dim))
    for i, entity in enumerate(entities):
        vec = vectors.get(entity)
        if vec is not None:
            out[i] = vec
    return out
