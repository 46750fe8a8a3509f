"""Semantic matching models: DistMult, ComplEx, HolE, SimplE, RotatE."""

from __future__ import annotations

import numpy as np

from ..autodiff import EmbeddingTable, Parameter, Tensor, circular_correlation, unit_init, xavier_init
from .base import RelationModel

__all__ = ["DistMult", "ComplEx", "HolE", "SimplE", "RotatE", "TuckER"]


class DistMult(RelationModel):
    """Yang et al. (2015): bilinear-diagonal scoring ``<h, r, t>``."""

    def score(self, heads, relations, tails) -> Tensor:
        h = self.entities(heads)
        r = self.relations(relations)
        t = self.entities(tails)
        return (h * r * t).sum(axis=-1)


class ComplEx(RelationModel):
    """Trouillon et al. (2016): complex bilinear scoring.

    Embeddings of size ``dim`` are interpreted as ``dim/2`` complex
    numbers (first half real, second half imaginary).
    """

    def __init__(self, n_entities, n_relations, dim, rng):
        if dim % 2 != 0:
            raise ValueError("ComplEx needs an even embedding dimension")
        super().__init__(n_entities, n_relations, dim, rng)
        self.half = dim // 2

    def _split(self, x: Tensor) -> tuple[Tensor, Tensor]:
        return x[:, : self.half], x[:, self.half:]

    def score(self, heads, relations, tails) -> Tensor:
        h_re, h_im = self._split(self.entities(heads))
        r_re, r_im = self._split(self.relations(relations))
        t_re, t_im = self._split(self.entities(tails))
        return (
            (h_re * r_re * t_re).sum(axis=-1)
            + (h_im * r_re * t_im).sum(axis=-1)
            + (h_re * r_im * t_im).sum(axis=-1)
            - (h_im * r_im * t_re).sum(axis=-1)
        )


class HolE(RelationModel):
    """Nickel et al. (2016): holographic embeddings.

    ``score = r . corr(h, t)`` with circular correlation computed via FFT.
    """

    def score(self, heads, relations, tails) -> Tensor:
        h = self.entities(heads)
        r = self.relations(relations)
        t = self.entities(tails)
        return (r * circular_correlation(h, t)).sum(axis=-1)


class SimplE(RelationModel):
    """Kazemi & Poole (2018): two roles per entity, inverse per relation."""

    def __init__(self, n_entities, n_relations, dim, rng):
        super().__init__(n_entities, n_relations, dim, rng)
        self.tail_entities = EmbeddingTable(
            n_entities, dim, rng, xavier_init, name="tail_entities"
        )
        self.inverse_relations = EmbeddingTable(
            n_relations, dim, rng, xavier_init, name="inverse_relations"
        )

    def score(self, heads, relations, tails) -> Tensor:
        h_head = self.entities(heads)
        t_tail = self.tail_entities(tails)
        r = self.relations(relations)
        t_head = self.entities(tails)
        h_tail = self.tail_entities(heads)
        r_inv = self.inverse_relations(relations)
        forward = (h_head * r * t_tail).sum(axis=-1)
        backward = (t_head * r_inv * h_tail).sum(axis=-1)
        return 0.5 * (forward + backward)

    def entity_embeddings(self) -> np.ndarray:
        """Average of the two entity roles (standard evaluation choice)."""
        return 0.5 * (self.entities.all_embeddings() + self.tail_entities.all_embeddings())

    def normalize(self) -> None:
        self.entities.normalize_rows()
        self.tail_entities.normalize_rows()


class TuckER(RelationModel):
    """Balazevic et al. (2019): Tucker tensor factorization.

    ``score = W x1 h x2 r x3 t`` with a shared core tensor ``W``; the
    relation-specific bilinear map is ``M_r = W x2 r``.
    """

    def __init__(self, n_entities, n_relations, dim, rng):
        super().__init__(n_entities, n_relations, dim, rng)
        core = np.stack([np.eye(dim) for _ in range(dim)])
        core += 0.05 * rng.normal(size=core.shape)
        # core tensor indexed (relation_dim, head_dim, tail_dim)
        self.core = Parameter(core, name="tucker.core")

    def score(self, heads, relations, tails) -> Tensor:
        h = self.entities(heads)
        r = self.relations(relations)
        t = self.entities(tails)
        batch = len(h)
        # M_r[b] = sum_k r[b,k] * core[k]  -> (batch, dim, dim)
        flat_core = self.core.reshape(self.dim, self.dim * self.dim)
        mixed = (r @ flat_core).reshape(batch, self.dim, self.dim)
        projected = (h.reshape(batch, 1, self.dim) @ mixed).reshape(batch, self.dim)
        return (projected * t).sum(axis=-1)


class RotatE(RelationModel):
    """Sun et al. (2019): relations as rotations in complex space.

    Relations are parameterized by phases; each complex coordinate of the
    head is rotated by the relation's phase and compared to the tail:
    ``score = -|| h o r - t ||`` — the non-Euclidean model §6.2 singles
    out as the strongest unexplored candidate.
    """

    def __init__(self, n_entities, n_relations, dim, rng):
        if dim % 2 != 0:
            raise ValueError("RotatE needs an even embedding dimension")
        super().__init__(n_entities, n_relations, dim, rng, initializer=unit_init)
        self.half = dim // 2
        self.phases = Parameter(
            rng.uniform(-np.pi, np.pi, size=(n_relations, self.half)), name="phases"
        )

    def score(self, heads, relations, tails) -> Tensor:
        h = self.entities(heads)
        t = self.entities(tails)
        theta = self.phases.gather(np.asarray(relations))
        cos, sin = theta.cos(), theta.sin()
        h_re, h_im = h[:, : self.half], h[:, self.half:]
        t_re, t_im = t[:, : self.half], t[:, self.half:]
        rot_re = h_re * cos - h_im * sin
        rot_im = h_re * sin + h_im * cos
        delta_re = rot_re - t_re
        delta_im = rot_im - t_im
        return -(
            (delta_re * delta_re + delta_im * delta_im).sum(axis=-1) + 1e-12
        ).sqrt()
