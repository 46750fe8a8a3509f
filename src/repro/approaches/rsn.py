"""RSN4EA: recurrent skipping networks over relation paths.

Guo et al. (2019) model joint entity-relation sequences sampled by biased
random walks.  The *skipping* mechanism lets the subject entity bypass
the intervening relation when predicting the object — the long-term
relational dependency that plain path composition (IPTransE) misses.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import EmbeddingTable, GRUCell, Linear, Tensor, concat
from .base import ApproachConfig, ApproachInfo, EmbeddingApproach, PairData

__all__ = ["RSN4EA"]


class RSN4EA(EmbeddingApproach):
    """Path-based alignment via a recurrent skipping network (sharing)."""

    info = ApproachInfo(
        name="RSN4EA", relation_embedding="Path", attribute_embedding="-",
        metric="cosine", combination="Sharing", learning="Supervised",
    )

    def __init__(self, config: ApproachConfig | None = None,
                 walk_length: int = 5, walks_per_entity: int = 3,
                 n_candidates: int = 10):
        super().__init__(config)
        self.walk_length = walk_length  # number of entities per walk
        self.walks_per_entity = walks_per_entity
        self.n_candidates = n_candidates

    def _setup(self, pair, split, rng):
        config = self.config
        self.data = PairData(pair, split, merge_seeds=True)
        n_ent = self.data.n_entities
        n_rel = self.data.n_relations
        # joint vocabulary: entities, then forward relations, then inverses
        self.rel_offset = n_ent
        self.vocab_size = n_ent + 2 * n_rel
        self.table = EmbeddingTable(self.vocab_size, config.dim, rng, name="rsn.table")
        self.gru = GRUCell(config.dim, config.dim, rng, name="rsn.gru")
        self.skip_subject = Linear(config.dim, config.dim, rng, bias=False, name="rsn.s1")
        self.skip_hidden = Linear(config.dim, config.dim, rng, bias=False, name="rsn.s2")
        self._modules = [self.table, self.gru, self.skip_subject, self.skip_hidden]
        self._adjacency = self._adjacency_lists(n_rel)
        self.walks = self._sample_walks(rng)

    def _parameters(self):
        return [p for m in self._modules for p in m.parameters()]

    def _adjacency_lists(self, n_rel: int) -> list[list[tuple[int, int]]]:
        """Outgoing (relation_vocab_id, tail) lists, incl. inverse edges."""
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(self.data.n_entities)]
        for head, relation, tail in self.data.triples:
            adjacency[head].append((self.rel_offset + relation, tail))
            adjacency[tail].append((self.rel_offset + n_rel + relation, head))
        return adjacency

    def _sample_walks(self, rng) -> np.ndarray:
        """Biased random walks: sequences [e, r, e, r, e, ...] of vocab ids."""
        length = 2 * self.walk_length - 1
        walks = []
        for start in range(self.data.n_entities):
            if not self._adjacency[start]:
                continue
            for _ in range(self.walks_per_entity):
                sequence = [start]
                current = start
                for _ in range(self.walk_length - 1):
                    hops = self._adjacency[current]
                    if not hops:
                        break
                    relation, nxt = hops[rng.integers(len(hops))]
                    sequence.extend([relation, nxt])
                    current = nxt
                if len(sequence) == length:
                    walks.append(sequence)
        if not walks:
            return np.zeros((0, length), dtype=np.int64)
        return np.array(walks, dtype=np.int64)

    def _run_epoch(self, epoch, rng):
        if not len(self.walks):
            return 0.0
        batch_size = max(32, self.config.batch_size // 8)
        total, batches = 0.0, 0
        for batch in self._minibatches(self.walks, batch_size, rng):
            total += self._step(lambda: self._walk_loss(batch, rng))
            batches += 1
            if batches >= 8:  # cap per-epoch work on large corpora
                break
        return total / batches

    def _walk_loss(self, batch: np.ndarray, rng) -> Tensor:
        """Sampled-softmax next-element prediction along the walks."""
        n, length = batch.shape
        hidden = self.gru.initial_state(n)
        losses = []
        subject = None
        for position in range(length - 1):
            inputs = self.table(batch[:, position])
            hidden = self.gru(inputs, hidden)
            if position % 2 == 0:
                subject = inputs  # entity position: remember the subject
                context = hidden
            else:
                # relation position: skip connection from the subject
                context = self.skip_hidden(hidden) + self.skip_subject(subject)
            targets = batch[:, position + 1]
            negatives = rng.integers(0, self.vocab_size,
                                     size=(n, self.n_candidates))
            target_emb = self.table(targets)
            positive_scores = (context * target_emb).sum(axis=1)
            neg_emb = self.table(negatives.ravel()).reshape(
                n, self.n_candidates, -1
            )
            negative_scores = (
                context.reshape(n, 1, -1) * neg_emb
            ).sum(axis=2)
            all_scores = concat(
                [positive_scores.reshape(n, 1), negative_scores], axis=1
            )
            shift = Tensor(all_scores.data.max(axis=1, keepdims=True))
            log_z = ((all_scores - shift).exp().sum(axis=1)).log() + shift.reshape(n)
            losses.append((log_z - positive_scores).mean())
        total = losses[0]
        for item in losses[1:]:
            total = total + item
        return total * (1.0 / len(losses))

    def _source_matrix(self, entities):
        ids = self.data.entity_ids(entities)
        emb = self.table.all_embeddings()[ids]
        return emb

    _target_matrix = _source_matrix
