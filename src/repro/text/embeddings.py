"""Word and character embedding tables.

Substitute for the pre-trained fastText cross-lingual vectors the paper
uses to initialize literal embeddings.  Each word's base vector is derived
deterministically from a hash of its *canonical* (English) form, so the
pseudo-translations of a word land near its original — exactly the property
cross-lingual word embeddings provide — with per-language Gaussian noise
standing in for imperfect alignment of the embedding spaces.
"""

from __future__ import annotations

import hashlib
from itertools import chain

import numpy as np

from .translate import LANGUAGES, translate_back

__all__ = ["WordEmbeddingTable", "CharEmbeddingTable", "embed_text", "segment_sums"]


def segment_sums(values: np.ndarray, members: np.ndarray,
                 counts: np.ndarray) -> np.ndarray:
    """Sum ``values[members]`` over consecutive segments of ``counts``
    items, one output row per segment; zero rows for empty segments.

    Each segment is summed left to right, as an axis-0 reduction does:
    its first item is copied, then each later item is added in order.
    All segments advance together, one position per step.
    """
    starts = np.cumsum(counts) - counts
    out = np.zeros((len(counts),) + values.shape[1:])
    rows = np.flatnonzero(counts)
    out[rows] = values[members[starts[rows]]]
    for position in range(1, int(counts.max(initial=0))):
        rows = rows[counts[rows] > position]
        out[rows] += values[members[starts[rows] + position]]
    return out


def _hash_vector(token: str, dim: int, salt: str = "") -> np.ndarray:
    """Deterministic unit Gaussian vector for ``token``."""
    digest = hashlib.sha256(f"{salt}:{token}".encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "big")
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


class WordEmbeddingTable:
    """Cross-lingually anchored word vectors.

    ``language`` names which synthetic language the looked-up tokens are
    written in; tokens are mapped back to their canonical form before
    hashing so that translations share a base vector.  ``noise`` controls
    the per-language perturbation (0 = perfectly aligned spaces).
    """

    def __init__(self, dim: int = 32, language: str = "en",
                 noise: float = 0.3, seed: int = 0):
        if language not in LANGUAGES:
            raise KeyError(f"unknown language {language!r}; choose from {sorted(LANGUAGES)}")
        self.dim = dim
        self.language = language
        self.noise = noise
        self.seed = seed
        self._cache: dict[str, np.ndarray] = {}

    def vector(self, token: str) -> np.ndarray:
        cached = self._cache.get(token)
        if cached is not None:
            return cached
        canonical = translate_back(token, self.language)
        base = _hash_vector(canonical, self.dim)
        if self.noise > 0.0 and self.language != "en":
            perturbation = _hash_vector(token, self.dim, salt=f"lang:{self.language}:{self.seed}")
            base = base + self.noise * perturbation
            base = base / np.linalg.norm(base)
        self._cache[token] = base
        return base

    def embed_texts(self, texts) -> np.ndarray:
        """Mean token vector of each text, shape ``(len(texts), dim)``;
        zero rows for empty texts.

        Each row equals ``np.mean`` over the text's stacked token vectors
        bit for bit: the tokens are summed in order (:func:`segment_sums`,
        the order of ``np.mean``'s axis-0 reduction), then divided by
        their count.  Each distinct token is looked up once.
        """
        ids: dict[str, int] = {}
        tokens = [[ids.setdefault(t, len(ids)) for t in text.split()]
                  for text in texts]
        if not ids:
            return np.zeros((len(tokens), self.dim))
        vectors = np.stack([self.vector(t) for t in ids])
        lengths = np.array([len(row) for row in tokens], dtype=np.int64)
        flat = np.fromiter(chain.from_iterable(tokens), dtype=np.int64,
                           count=int(lengths.sum()))
        out = segment_sums(vectors, flat, lengths)
        rows = np.flatnonzero(lengths)
        out[rows] /= lengths[rows, None]
        return out

    def embed_text(self, text: str) -> np.ndarray:
        """Mean of the token vectors; zero vector for empty text."""
        return self.embed_texts([text])[0]


class CharEmbeddingTable:
    """Deterministic character vectors for character-level literal encoders
    (AttrE's Eq. 5)."""

    def __init__(self, dim: int = 16, seed: int = 0):
        self.dim = dim
        self.seed = seed
        self._cache: dict[str, np.ndarray] = {}

    def vector(self, char: str) -> np.ndarray:
        cached = self._cache.get(char)
        if cached is not None:
            return cached
        vec = _hash_vector(char, self.dim, salt=f"char:{self.seed}")
        self._cache[char] = vec
        return vec

    def embed_literal(self, literal: str, max_chars: int = 40) -> np.ndarray:
        """Positionally weighted sum of character vectors (``comb`` in Eq. 5).

        A mild positional decay keeps the composition order-sensitive, so
        anagrams do not collide.
        """
        chars = list(literal[:max_chars])
        if not chars:
            return np.zeros(self.dim)
        weights = np.array([0.95**i for i in range(len(chars))])
        vectors = np.stack([self.vector(c) for c in chars])
        combined = (weights[:, None] * vectors).sum(axis=0)
        norm = np.linalg.norm(combined)
        return combined / norm if norm > 0 else combined


def embed_text(text: str, table: WordEmbeddingTable) -> np.ndarray:
    """Convenience wrapper around :meth:`WordEmbeddingTable.embed_text`."""
    return table.embed_text(text)
