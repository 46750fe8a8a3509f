"""The word-vector literal channels keep the bits of their per-triple loops.

``WordEmbeddingTable.embed_texts`` and the literal helpers
(``value_word_vectors``, ``name_vectors``, ``description_vectors``) work
on arrays: each distinct value is embedded once, and sums run position
by position across all texts or entities.  The e2e quality pins and the
behaviour digests were recorded with the straightforward loops, so this
file writes those loops out as references and compares through
``uint64`` views, with the same dict keys in the same order.  The same
holds for the training alignment's ids in ``UnifiedTransApproach``: the
swapped triples and the calibration pairs.
"""

import numpy as np
import pytest

import repro.approaches.attr_family as attr_family
from repro.approaches import (
    ApproachConfig,
    description_vectors,
    get_approach,
    name_vectors,
    value_word_vectors,
    word_tables,
)
from repro.datagen import benchmark_pair
from repro.kg import KnowledgeGraph
from repro.text import WordEmbeddingTable, pseudo_translate

WORDS = ["alpha", "beta", "gamma", "delta", "paris", "x", "mount", "river",
         "1987", "a", "everest", "eau"]


@pytest.fixture(scope="module")
def pair():
    return benchmark_pair("EN-FR", size=300, seed=0, method="direct")


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def assert_same_vectors(actual: dict, expected: dict):
    assert list(actual) == list(expected)
    for entity in expected:
        assert_same_bits(actual[entity], expected[entity])


# ---------------------------------------------------------------------------
# references: the per-triple loops the array code replaces
# ---------------------------------------------------------------------------
def reference_embed_text(table, text):
    tokens = [t for t in text.split() if t]
    if not tokens:
        return np.zeros(table.dim)
    return np.mean([table.vector(t) for t in tokens], axis=0)


def reference_idf(kg):
    counts = {}
    for _, _, value in kg.attribute_triples:
        counts[value] = counts.get(value, 0) + 1
    return {value: 1.0 / np.log(2.0 + count) for value, count in counts.items()}


def reference_value_word_vectors(kg, table):
    idf = reference_idf(kg)
    sums, weights = {}, {}
    for entity, _, value in kg.attribute_triples:
        vec = reference_embed_text(table, value)
        weight = idf[value]
        if entity not in sums:
            sums[entity] = weight * vec
            weights[entity] = weight
        else:
            sums[entity] += weight * vec
            weights[entity] += weight
    return {entity: sums[entity] / max(weights[entity], 1e-12) for entity in sums}


def reference_name_vectors(kg, table):
    idf = reference_idf(kg)
    best = {}
    for entity, _, value in kg.attribute_triples:
        if len(value.split()) > 4:
            continue
        score = idf[value]
        if entity not in best or score > best[entity][0]:
            best[entity] = (score, value)
    return {entity: reference_embed_text(table, value)
            for entity, (_, value) in best.items()}


def reference_description_vectors(kg, table, min_tokens=5):
    longest = {}
    for entity, _, value in kg.attribute_triples:
        if len(value.split()) >= min_tokens:
            if entity not in longest or len(value) > len(longest[entity]):
                longest[entity] = value
    return {entity: reference_embed_text(table, value)
            for entity, value in longest.items()}


HELPERS = [
    (value_word_vectors, reference_value_word_vectors),
    (name_vectors, reference_name_vectors),
    (description_vectors, reference_description_vectors),
]


def hand_made_kg():
    """Repeated values, an empty value, ties, an entity whose values are
    all longer than 4 tokens, one without any value, and entities whose
    first kept value comes after another entity's."""
    long = "one two three four five six"
    return KnowledgeGraph(
        relation_triples=[("e1", "r", "e2"), ("e5", "r", "e1")],
        attribute_triples=[
            ("e1", "a", "paris"),
            ("e2", "a", long),                    # e2: only long values
            ("e1", "b", "paris"),                 # repeated value
            ("e3", "a", ""),                      # empty value
            ("e2", "b", long + " seven"),
            ("e4", "a", "river mount"),
            ("e3", "b", "alpha beta"),
            ("e4", "b", "mount river"),           # same IDF: first one wins
            ("e1", "c", "x x x"),
            ("e4", "c", "a b c d e"),             # same length: first one wins
            ("e4", "d", "e d c b a"),
            ("e6", "a", "alpha beta"),
            ("e6", "b", "gamma"),
            ("e7", "a", long),
            ("e8", "a", "delta"),
            ("e7", "b", "beta"),                  # e7's name comes after e8's
            ("e3", "c", "one two three four five"),
        ],
    )


# ---------------------------------------------------------------------------
# 1. the token mean
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("language", ["en", "fr", "de"])
@pytest.mark.parametrize("dim", [8, 32])
def test_embed_texts_equals_np_mean_over_stacked_tokens(language, dim):
    rng = np.random.default_rng(dim)
    texts = ["", "   "]
    for n_tokens in range(13):
        for _ in range(8):
            words = rng.choice(WORDS, size=n_tokens)  # repeats included
            texts.append(" ".join(pseudo_translate(w, language) for w in words))
    table = WordEmbeddingTable(dim=dim, language=language, seed=1)
    embedded = table.embed_texts(texts)
    assert embedded.shape == (len(texts), dim)
    reference = WordEmbeddingTable(dim=dim, language=language, seed=1)
    for text, row in zip(texts, embedded):
        assert_same_bits(row, reference_embed_text(reference, text))
        assert_same_bits(table.embed_text(text), row)


def test_embed_texts_of_nothing_and_of_empty_texts():
    table = WordEmbeddingTable(dim=8)
    assert table.embed_texts([]).shape == (0, 8)
    assert_same_bits(table.embed_texts(["", " "]), np.zeros((2, 8)))


# ---------------------------------------------------------------------------
# 2. the helpers
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("helper, reference", HELPERS)
def test_helpers_equal_reference_loops_on_both_kgs(pair, helper, reference):
    for kg, table in zip((pair.kg1, pair.kg2), word_tables(pair, dim=16, seed=2)):
        expected = reference(kg, WordEmbeddingTable(
            dim=16, language=table.language, seed=2))
        assert expected
        assert_same_vectors(helper(kg, table), expected)


@pytest.mark.parametrize("helper, reference", HELPERS)
def test_helpers_equal_reference_loops_on_edge_cases(helper, reference):
    kg = hand_made_kg()
    table = WordEmbeddingTable(dim=8, language="fr")
    assert_same_vectors(helper(kg, table),
                        reference(kg, WordEmbeddingTable(dim=8, language="fr")))
    assert helper(KnowledgeGraph(relation_triples=[("a", "r", "b")]), table) == {}


def test_edge_case_choices():
    kg = hand_made_kg()
    table = WordEmbeddingTable(dim=8)
    names = name_vectors(kg, table)
    assert list(names) == ["e1", "e3", "e4", "e6", "e8", "e7"]
    assert_same_bits(names["e1"], table.embed_text("x x x"))
    assert_same_bits(names["e3"], np.zeros(8))
    assert_same_bits(names["e4"], table.embed_text("river mount"))
    assert_same_bits(names["e6"], table.embed_text("gamma"))
    descriptions = description_vectors(kg, table)
    assert list(descriptions) == ["e2", "e4", "e7", "e3"]
    assert_same_bits(descriptions["e2"], table.embed_text(
        "one two three four five six seven"))
    assert_same_bits(descriptions["e4"], table.embed_text("a b c d e"))
    assert list(value_word_vectors(kg, table)) == [
        "e1", "e2", "e3", "e4", "e6", "e7", "e8"]


# ---------------------------------------------------------------------------
# 3. a whole MultiKE fit
# ---------------------------------------------------------------------------
def test_multike_fit_matches_the_reference_channels(pair, monkeypatch):
    split = pair.split(train_ratio=0.3, valid_ratio=0.1, seed=0)
    entities1, entities2 = sorted(pair.kg1.entities), sorted(pair.kg2.entities)

    def fit():
        config = ApproachConfig(dim=16, epochs=2, batch_size=256,
                                n_negatives=3, seed=0, early_stop=False)
        approach = get_approach("MultiKE", config)
        approach.fit(pair, split)
        return (approach._matrix_for(entities1, side=1),
                approach._matrix_for(entities2, side=2))

    fitted = fit()
    monkeypatch.setattr(attr_family, "name_vectors", reference_name_vectors)
    monkeypatch.setattr(attr_family, "value_word_vectors",
                        reference_value_word_vectors)
    reference = fit()
    for got, want in zip(fitted, reference):
        assert_same_bits(got, want)


# ---------------------------------------------------------------------------
# 4. the training alignment's ids
# ---------------------------------------------------------------------------
def reference_swapped(seeds, augmented, triples):
    seed_map = {}
    for a, b in seeds:
        seed_map[int(a)] = int(b)
        seed_map[int(b)] = int(a)
    for a, b in augmented.items():
        seed_map[a] = b
        seed_map[b] = a
    swapped = []
    for head, relation, tail in triples:
        if head in seed_map:
            swapped.append((seed_map[head], relation, tail))
        if tail in seed_map:
            swapped.append((head, relation, seed_map[tail]))
    if not swapped:
        return np.zeros((0, 3), dtype=np.int64)
    return np.array(swapped, dtype=np.int64)


def reference_calibration_ids(seeds, augmented):
    pairs = [(int(a), int(b)) for a, b in seeds] + list(augmented.items())
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def assert_alignment_ids(approach):
    np.testing.assert_array_equal(
        approach._aligned_ids,
        reference_calibration_ids(approach.seeds, approach.augmented))
    assert approach._aligned_ids.dtype == np.int64
    swapped = reference_swapped(approach.seeds, approach.augmented,
                                approach.data.triples)
    np.testing.assert_array_equal(approach._swapped, swapped)
    assert approach._swapped.dtype == np.int64


def test_alignment_ids_equal_the_old_loops_and_survive_a_resume(pair):
    split = pair.split(train_ratio=0.3, valid_ratio=0.1, seed=0)
    config = ApproachConfig(dim=16, epochs=5, batch_size=256, n_negatives=3,
                            seed=0, early_stop=False)
    approach = get_approach("BootEA", config)
    approach.fit(pair, split)
    assert approach.augmented, "the bootstrapping round proposed nothing"
    assert_alignment_ids(approach)

    aligned, swapped = approach._aligned_ids, approach._swapped
    state = approach._extra_state()
    approach.augmented = {}
    approach._alignment_changed()
    assert len(approach._aligned_ids) == len(approach.seeds)
    approach._load_extra_state(state)
    assert_alignment_ids(approach)
    np.testing.assert_array_equal(approach._aligned_ids, aligned)
    np.testing.assert_array_equal(approach._swapped, swapped)

    # entities in several pairs take the partner of their last pair
    (a, b), (c, d) = approach.seeds[:2]
    approach.augmented = {int(a): int(d), int(c): int(a), 7: 7}
    approach._alignment_changed()
    assert_alignment_ids(approach)


def test_alignment_ids_without_triples_or_pairs(pair):
    split = pair.split(train_ratio=0.3, valid_ratio=0.1, seed=0)
    config = ApproachConfig(dim=8, epochs=0, seed=0, use_relations=False)
    approach = get_approach("MultiKE", config)
    approach.fit(pair, split)
    approach.seeds = approach.seeds[:0]
    approach._alignment_changed()
    assert approach._aligned_ids.shape == (0, 2)
    assert approach._swapped.shape == (0, 3)
    assert_alignment_ids(approach)
