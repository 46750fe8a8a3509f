"""Declarative composition of new alignment approaches (Figure 4).

The paper's library exposes its embedding module, alignment module and
interaction modes as interchangeable components so that "users can
freely call and combine different techniques ... to develop new
approaches".  :func:`compose_approach` is that facility: pick one option
per axis and get a ready-to-train approach class.

Axes and options
----------------
* ``relation_model`` — any name from
  :data:`repro.embedding.RELATION_MODELS` (``transe``, ``transh``,
  ``rotate``, ``conve``, ...);
* ``combination`` — ``sharing`` (seed ids merged), ``swapping`` (seed
  triples duplicated), ``calibration`` (seed-distance loss);
* ``loss`` — ``marginal``, ``logistic`` or ``limited``;
* ``negative_sampling`` — ``uniform`` or ``truncated`` (BootEA-style);
* ``attribute_channel`` — ``None``, ``"word"`` (IDF-weighted word
  vectors), ``"char"`` (character-level, AttrE-style), ``"name"``
  (label-like literals) or ``"correlation"`` (AC2Vec);
* ``self_training`` — every ``self_training_every`` epochs, add the
  mutual nearest neighbors above 0.7 cosine to the augmented alignment;
  proposals accumulate without editing (IPTransE-style, but mutual).

Example
-------
>>> Approach = compose_approach(relation_model="transh",
...                             combination="swapping",
...                             negative_sampling="truncated",
...                             attribute_channel="word")
>>> approach = Approach(ApproachConfig(dim=32, epochs=40))
"""

from __future__ import annotations

from ..embedding import RELATION_MODELS, TruncatedSampler
from .attr_family import JAPE, LiteralBlendApproach
from .base import ApproachConfig, ApproachInfo
from .literals import char_vectors, name_vectors, value_word_vectors, word_tables

__all__ = ["compose_approach", "COMBINATIONS", "ATTRIBUTE_CHANNELS"]

COMBINATIONS = ("sharing", "swapping", "calibration")
ATTRIBUTE_CHANNELS = (None, "word", "char", "name", "correlation")
LOSSES = ("marginal", "logistic", "limited")
NEGATIVE_SAMPLERS = ("uniform", "truncated")


def compose_approach(
    relation_model: str = "transe",
    combination: str = "sharing",
    loss: str = "marginal",
    negative_sampling: str = "uniform",
    attribute_channel: str | None = None,
    attribute_weight: float = 0.4,
    self_training: bool = False,
    self_training_every: int = 10,
    metric: str = "cosine",
    name: str | None = None,
):
    """Build an approach class from component choices.

    Returns a class (instantiate it with an
    :class:`~repro.approaches.base.ApproachConfig`); invalid component
    names raise ``ValueError`` immediately.
    """
    if relation_model not in RELATION_MODELS:
        raise ValueError(
            f"unknown relation model {relation_model!r}; "
            f"choose from {sorted(RELATION_MODELS)}"
        )
    if combination not in COMBINATIONS:
        raise ValueError(f"combination must be one of {COMBINATIONS}")
    if loss not in LOSSES:
        raise ValueError(f"loss must be one of {LOSSES}")
    if negative_sampling not in NEGATIVE_SAMPLERS:
        raise ValueError(f"negative_sampling must be one of {NEGATIVE_SAMPLERS}")
    if attribute_channel not in ATTRIBUTE_CHANNELS:
        raise ValueError(f"attribute_channel must be one of {ATTRIBUTE_CHANNELS}")

    display_name = name or "+".join(
        filter(None, [
            relation_model, combination,
            attribute_channel and f"attr:{attribute_channel}",
            "selftrain" if self_training else None,
        ])
    )
    info = ApproachInfo(
        name=display_name,
        relation_embedding="Triple",
        attribute_embedding=(
            "-" if attribute_channel is None
            else ("Att." if attribute_channel == "correlation" else "Literal")
        ),
        metric=metric,
        combination=combination.capitalize(),
        learning="Semi-supervised" if self_training else "Supervised",
        uses_attributes=attribute_channel is not None,
    )

    channel = attribute_channel
    weight = attribute_weight

    class ComposedApproach(LiteralBlendApproach):
        """An approach assembled by :func:`compose_approach`."""

        merge_seeds = combination == "sharing"
        swapping = combination == "swapping"
        calibration_weight = 1.0 if combination == "calibration" else 0.0
        loss_name = loss
        structure_weight = 1.0 - (weight if channel else 0.0)
        refresh_every = 5 if negative_sampling == "truncated" else 0
        self_train_every = self_training_every if self_training else 0

        def _setup(self, pair, split, rng):
            super()._setup(pair, split, rng)
            self.model = RELATION_MODELS[relation_model](
                self.data.n_entities, self.data.n_relations,
                self.config.dim, rng,
            )
            if negative_sampling == "truncated":
                self.sampler = TruncatedSampler(self.data.n_entities)

        def _build_channels(self, pair, rng) -> None:
            if channel is None:
                return
            dim, seed = self.config.dim, self.config.seed
            if channel in ("word", "name"):
                words = value_word_vectors if channel == "word" else name_vectors
                table1, table2 = word_tables(pair, dim, seed)
                vecs1 = words(pair.kg1, table1)
                vecs2 = words(pair.kg2, table2)
            elif channel == "char":
                vecs1 = char_vectors(pair.kg1, dim=dim, seed=seed)
                vecs2 = char_vectors(pair.kg2, dim=dim, seed=seed)
            else:  # correlation: reuse JAPE's AC2Vec channel construction
                JAPE._build_channels(self, pair, rng)
                self.channels = [(weight, c[1], c[2]) for c in self.channels]
                return
            self.channels = [(weight, vecs1, vecs2)]

    ComposedApproach.info = info
    ComposedApproach.__name__ = f"Composed_{display_name.replace('+', '_').replace(':', '_')}"
    return ComposedApproach
