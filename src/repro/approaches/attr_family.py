"""Attribute-using alignment approaches: JAPE, AttrE, IMUSE, KDCoE, MultiKE.

All five extend the unified translational trainer with literal channels:

* JAPE — attribute *correlation* embedding (no values, Eq. 4);
* AttrE — character-level literal embedding (Eq. 5);
* IMUSE — string-similarity preprocessing that augments the seeds;
* KDCoE — co-training of relation and description embeddings;
* MultiKE — name / relation / attribute multi-view combination.
"""

from __future__ import annotations

import numpy as np

from ..alignment import normalize_rows
from ..embedding.attribute import AC2Vec
from ..text import string_similarity
from .base import ApproachConfig, ApproachInfo
from .literals import (
    char_vectors,
    description_vectors,
    name_vectors,
    value_word_vectors,
    vectors_to_matrix,
    word_tables,
)
from .trans_family import UnifiedTransApproach

__all__ = ["JAPE", "AttrE", "IMUSE", "KDCoE", "MultiKE"]


class LiteralBlendApproach(UnifiedTransApproach):
    """Shared plumbing: blend the structural embedding with fixed literal
    channels by weighted concatenation of row-normalized parts.

    Channels are per-side ``{entity: vector}`` maps built in ``_setup``.
    The ``use_attributes`` config flag disables every literal channel
    (the Figure 6 ablation); ``use_relations=False`` empties the triple
    set (the Table 8 feature study).
    """

    structure_weight = 1.0

    def _setup(self, pair, split, rng):
        super()._setup(pair, split, rng)
        if not self.config.use_relations:
            self.data.triples = np.zeros((0, 3), dtype=np.int64)
            if self._swapped is not None:
                self._swapped = np.zeros((0, 3), dtype=np.int64)
        # channels: list of (weight, vectors_kg1, vectors_kg2)
        self.channels: list[tuple[float, dict, dict]] = []
        if self.config.use_attributes:
            self._build_channels(pair, rng)

    def _build_channels(self, pair, rng) -> None:
        raise NotImplementedError

    # -- literal pull --------------------------------------------------
    # Several approaches (AttrE via characters, KDCoE via descriptions)
    # drag entity embeddings towards a learned projection of a fixed
    # literal representation; because that representation is shared (or
    # anchored) across KGs, the pull fuses the two embedding spaces.
    def _register_pull(self, vecs1: dict, vecs2: dict, weight: float) -> None:
        rows, targets = [], []
        for vecs in (vecs1, vecs2):
            for entity, vec in vecs.items():
                rows.append(self.data.entity_id(entity))
                targets.append(vec)
        if not rows:
            return
        from ..autodiff import Parameter

        self._pull_rows = np.array(rows, dtype=np.int64)
        self._pull_targets = np.array(targets)
        self._pull_weight = weight
        self._pull_projection = Parameter(
            np.eye(self.config.dim), name=f"{self.info.name.lower()}.literal_proj"
        )

    def _parameters(self):
        params = super()._parameters()
        if getattr(self, "_pull_projection", None) is not None:
            params = params + [self._pull_projection]
        return params

    def _calibration_loss(self):
        loss = super()._calibration_loss()
        if getattr(self, "_pull_projection", None) is None:
            return loss
        from ..autodiff import Tensor

        entities = self.model.entities(self._pull_rows)
        projected = Tensor(self._pull_targets) @ self._pull_projection
        pull = (entities - projected).square().sum(axis=1).mean()
        return loss + self._pull_weight * pull

    def _matrix_for(self, entities: list[str], side: int) -> np.ndarray:
        struct = self.model.entity_embeddings()[self.data.entity_ids(entities)]
        parts = [np.sqrt(self.structure_weight) * normalize_rows(struct)]
        for weight, vecs1, vecs2 in self.channels:
            vectors = vecs1 if side == 1 else vecs2
            matrix = vectors_to_matrix(vectors, entities, self.config.dim)
            parts.append(np.sqrt(weight) * normalize_rows(matrix))
        return np.concatenate(parts, axis=1)

    def _entity_attr_vectors(self, kg, index, embeddings, side) -> dict:
        out: dict[str, np.ndarray] = {}
        counts: dict[str, int] = {}
        for entity, attribute, _ in kg.attribute_triples:
            vec = embeddings[index[f"{side}:{attribute}"]]
            if entity not in out:
                out[entity] = vec.copy()
                counts[entity] = 1
            else:
                out[entity] += vec
                counts[entity] += 1
        return {entity: out[entity] / counts[entity] for entity in out}

    def _source_matrix(self, entities):
        return self._matrix_for(entities, side=1)

    def _target_matrix(self, entities):
        return self._matrix_for(entities, side=2)


class JAPE(LiteralBlendApproach):
    """Sun et al. (2017): joint attribute-preserving embedding.

    The attribute channel embeds *attributes* (not values) by their
    co-occurrence (Eq. 4) — trained with skip-gram-with-negative-sampling
    over per-entity attribute sets — and represents an entity as the mean
    of its attribute vectors.  Cross-KG correlation only arises through
    seed entities whose attribute sets are merged, which is why the signal
    is coarse (Figure 6 finds little gain on D-Y).
    """

    info = ApproachInfo(
        name="JAPE", relation_embedding="Triple", attribute_embedding="Att.",
        metric="cosine", combination="Sharing", learning="Supervised",
        uses_attributes=True,
    )
    merge_seeds = True
    structure_weight = 0.85

    def _build_channels(self, pair, rng) -> None:
        attr_dim = self.config.dim
        attrs = sorted(
            {f"1:{a}" for a in pair.kg1.attributes}
            | {f"2:{a}" for a in pair.kg2.attributes}
        )
        index = {attribute: i for i, attribute in enumerate(attrs)}
        if not attrs:
            return
        # attribute sets per merged entity id: seeds pool cross-KG attributes
        sets: dict[int, set[int]] = {}
        for side, kg in ((1, pair.kg1), (2, pair.kg2)):
            for entity, attribute, _ in kg.attribute_triples:
                eid = self.data.entity_id(entity)
                sets.setdefault(eid, set()).add(index[f"{side}:{attribute}"])
        model = AC2Vec(
            len(attrs), dim=attr_dim, seed=self.config.seed
        ).fit(sets)
        embeddings = model.embeddings
        vecs1 = self._entity_attr_vectors(pair.kg1, index, embeddings, side=1)
        vecs2 = self._entity_attr_vectors(pair.kg2, index, embeddings, side=2)
        self.channels = [(1.0 - self.structure_weight, vecs1, vecs2)]



def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


class AttrE(LiteralBlendApproach):
    """Trsedya et al. (2019): attribute character embeddings.

    Entities gain a character-level literal vector (Eq. 5's ``comb``);
    character composition transfers across KGs without any attribute
    alignment, but degrades across languages because the pseudo-
    translation rewrites characters — the cross-lingual failure mode the
    paper notes for character-based literal embedding.
    """

    info = ApproachInfo(
        name="AttrE", relation_embedding="Triple", attribute_embedding="Literal",
        metric="cosine", combination="Sharing", learning="Supervised",
        uses_attributes=True, requires_attributes=True,
    )
    merge_seeds = True
    structure_weight = 0.5
    char_pull_weight = 0.3

    def _build_channels(self, pair, rng) -> None:
        vecs1 = char_vectors(pair.kg1, dim=self.config.dim, seed=self.config.seed)
        vecs2 = char_vectors(pair.kg2, dim=self.config.dim, seed=self.config.seed)
        self.channels = [(1.0 - self.structure_weight, vecs1, vecs2)]
        # AttrE's core mechanism: the character space is shared across KGs,
        # so pulling each entity towards a (learned projection of) its
        # character representation drags both KGs into one space (Eq. 5).
        self._register_pull(vecs1, vecs2, self.char_pull_weight)


class IMUSE(LiteralBlendApproach):
    """He et al. (2019): interactive multi-source entity alignment.

    Preprocessing collects extra "seeds" from high string-similarity
    literal matches (a bivariate blocking on rare values); the errors this
    introduces are exactly what §5.2 blames for its mixed attribute gains.
    The collected pairs join the training alignment; inference blends a
    word-embedded value channel.
    """

    info = ApproachInfo(
        name="IMUSE", relation_embedding="Triple", attribute_embedding="Literal",
        metric="cosine", combination="Sharing", learning="Supervised",
        uses_attributes=True, requires_attributes=True,
    )
    merge_seeds = True
    structure_weight = 0.6

    def __init__(self, config: ApproachConfig | None = None,
                 preprocess_threshold: float = 0.85):
        super().__init__(config)
        self.preprocess_threshold = preprocess_threshold
        self.collected_pairs: list[tuple[str, str]] = []

    def _setup(self, pair, split, rng):
        if self.config.use_attributes:
            self.collected_pairs = self._collect_string_pairs(pair, split)
            if self.collected_pairs:
                split = type(split)(
                    train=list(split.train) + self.collected_pairs,
                    valid=split.valid,
                    test=split.test,
                )
                # merged split may violate 1-1; dedupe conservatively
                seen1, seen2, train = set(), set(), []
                for a, b in split.train:
                    if a in seen1 or b in seen2:
                        continue
                    seen1.add(a)
                    seen2.add(b)
                    train.append((a, b))
                split = type(split)(train=train, valid=split.valid, test=split.test)
        super()._setup(pair, split, rng)

    def _collect_string_pairs(self, pair, split) -> list[tuple[str, str]]:
        """Block on rare literal values; keep near-identical matches."""
        def rare_values(kg):
            by_value: dict[str, list[str]] = {}
            for entity, _, value in kg.attribute_triples:
                by_value.setdefault(value, []).append(entity)
            return {v: ents[0] for v, ents in by_value.items() if len(ents) == 1}

        rare1 = rare_values(pair.kg1)
        rare2 = rare_values(pair.kg2)
        known1 = {a for a, _ in split.train} | {a for a, _ in split.valid}
        known2 = {b for _, b in split.train} | {b for _, b in split.valid}
        collected = []
        for value, entity1 in rare1.items():
            if entity1 in known1:
                continue
            entity2 = rare2.get(value)
            if entity2 is not None and entity2 not in known2:
                collected.append((entity1, entity2))
                continue
        # fuzzy pass: rare values within the same length bucket (capped)
        buckets: dict[int, list[str]] = {}
        for value in rare2:
            buckets.setdefault(len(value) // 4, []).append(value)
        budget = 4000
        for value, entity1 in rare1.items():
            if budget <= 0:
                break
            if entity1 in known1 or value in rare2:
                continue
            for candidate in buckets.get(len(value) // 4, ())[:20]:
                budget -= 1
                if string_similarity(value, candidate) >= self.preprocess_threshold:
                    entity2 = rare2[candidate]
                    if entity2 not in known2:
                        collected.append((entity1, entity2))
                    break
        return collected

    def _build_channels(self, pair, rng) -> None:
        table1, table2 = word_tables(pair, self.config.dim, self.config.seed)
        vecs1 = value_word_vectors(pair.kg1, table1)
        vecs2 = value_word_vectors(pair.kg2, table2)
        self.channels = [(1.0 - self.structure_weight, vecs1, vecs2)]


class KDCoE(LiteralBlendApproach):
    """Chen et al. (2018): co-training of KG embeddings and descriptions.

    Two orthogonal feature sets — relation triples and textual
    descriptions — alternately propose new training pairs for each other.
    Entities without a description can never be proposed by the text
    model, capping the augmentation (Figure 7's flat KDCoE curves).
    """

    info = ApproachInfo(
        name="KDCoE", relation_embedding="Triple", attribute_embedding="Literal",
        metric="euclidean", combination="Transformation", learning="Semi-supervised",
        uses_attributes=True, requires_attributes=True,
        uses_word_embeddings=True,
    )
    merge_seeds = True
    calibration_weight = 0.5
    structure_weight = 0.5

    def __init__(self, config: ApproachConfig | None = None,
                 cotrain_every: int = 10, threshold: float = 0.85):
        super().__init__(config)
        # co-training needs the description channel
        self.self_train_every = (cotrain_every if self.config.use_attributes
                                 else 0)
        self.self_train_threshold = threshold

    desc_pull_weight = 0.2

    def _build_channels(self, pair, rng) -> None:
        table1, table2 = word_tables(pair, self.config.dim, self.config.seed)
        self.desc1 = description_vectors(pair.kg1, table1)
        self.desc2 = description_vectors(pair.kg2, table2)
        self.channels = [(1.0 - self.structure_weight, self.desc1, self.desc2)]
        # KDCoE trains a description encoder jointly with the KG embedding;
        # the cross-lingually anchored description space pulls the two KGs
        # together for the entities that have a description.
        self._register_pull(self.desc1, self.desc2, self.desc_pull_weight)

    def _proposal_space(self, iteration):
        """Odd rounds propose in description space, among described
        entities only; even rounds in the structural space."""
        if iteration % 2 == 0:
            return super()._proposal_space(iteration)
        pool1, pool2 = self._unaligned_candidates()
        pool1 = [e for e in pool1 if e in self.desc1]
        pool2 = [e for e in pool2 if e in self.desc2]
        dim = self.config.dim
        return (pool1, pool2,
                normalize_rows(vectors_to_matrix(self.desc1, pool1, dim)),
                normalize_rows(vectors_to_matrix(self.desc2, pool2, dim)))


class MultiKE(LiteralBlendApproach):
    """Zhang et al. (2019): multi-view KG embedding.

    Three views — name (rare short literal), relation structure, and
    attribute values — combined by weighted concatenation.  The
    discriminative name view drives its fast convergence and top-3 rank;
    removing attributes (Figure 6 / Table 8) collapses the name and
    attribute views, leaving only the relation view.
    """

    info = ApproachInfo(
        name="MultiKE", relation_embedding="Triple", attribute_embedding="Literal",
        metric="cosine", combination="Swapping", learning="Supervised",
        uses_attributes=True, requires_attributes=True,
        uses_word_embeddings=True,
    )
    merge_seeds = False
    swapping = True
    calibration_weight = 1.0
    structure_weight = 0.30

    def _build_channels(self, pair, rng) -> None:
        # one table per KG serves both views
        table1, table2 = word_tables(pair, self.config.dim, self.config.seed)
        names1 = name_vectors(pair.kg1, table1)
        names2 = name_vectors(pair.kg2, table2)
        attrs1 = value_word_vectors(pair.kg1, table1)
        attrs2 = value_word_vectors(pair.kg2, table2)
        self.channels = [
            (0.45, names1, names2),   # name view
            (0.25, attrs1, attrs2),   # attribute view
        ]
