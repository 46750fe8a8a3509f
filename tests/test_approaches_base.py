"""Tests for the approach framework: PairData, fit/evaluate, registry."""

import numpy as np
import pytest

from repro.approaches import (
    APPROACHES,
    ApproachConfig,
    EmbeddingApproach,
    PairData,
    get_approach,
    required_information_table,
)
from repro.alignment import RankMetrics
from repro.approaches.base import ApproachInfo
from repro.kg import AlignmentSplit, KGPair, KnowledgeGraph


def _tiny_pair():
    triples1 = [("a1", "r", "b1"), ("b1", "r", "c1"), ("c1", "s", "a1")]
    triples2 = [("a2", "t", "b2"), ("b2", "t", "c2"), ("c2", "u", "a2")]
    return KGPair(
        kg1=KnowledgeGraph(triples1, [("a1", "p", "v")], name="K1"),
        kg2=KnowledgeGraph(triples2, [("a2", "q", "v")], name="K2"),
        alignment=[("a1", "a2"), ("b1", "b2"), ("c1", "c2")],
    )


def _split():
    return AlignmentSplit(train=[("a1", "a2")], valid=[("b1", "b2")],
                          test=[("c1", "c2")])


# ---------------------------------------------------------------------------
# PairData
# ---------------------------------------------------------------------------
def test_pairdata_unmerged_entity_count():
    data = PairData(_tiny_pair(), _split(), merge_seeds=False)
    assert data.n_entities == 6
    assert data.triples.shape == (6, 3)


def test_pairdata_merged_shares_seed_ids():
    data = PairData(_tiny_pair(), _split(), merge_seeds=True)
    assert data.n_entities == 5  # a1/a2 folded
    assert data.entity_id("a1") == data.entity_id("a2")
    assert data.entity_id("b1") != data.entity_id("b2")


def test_pairdata_relations_namespaced():
    data = PairData(_tiny_pair(), _split())
    # r, s from KG1 and t, u from KG2 stay distinct even if names collide
    assert data.n_relations == 4


def test_pairdata_seed_id_pairs():
    data = PairData(_tiny_pair(), _split())
    ids = data.seed_id_pairs([("a1", "a2"), ("b1", "b2")])
    assert ids.shape == (2, 2)
    assert data.seed_id_pairs([]).shape == (0, 2)


def test_pairdata_triples_reference_valid_ids():
    data = PairData(_tiny_pair(), _split(), merge_seeds=True)
    assert data.triples[:, [0, 2]].max() < data.n_entities
    assert data.triples[:, 1].max() < data.n_relations


# ---------------------------------------------------------------------------
# registry & info
# ---------------------------------------------------------------------------
def test_registry_has_the_twelve_approaches():
    assert len(APPROACHES) == 12
    expected = {
        "MTransE", "IPTransE", "JAPE", "KDCoE", "BootEA", "GCNAlign",
        "AttrE", "IMUSE", "SEA", "RSN4EA", "MultiKE", "RDGCN",
    }
    assert set(APPROACHES) == expected


def test_get_approach_case_insensitive():
    approach = get_approach("bootea")
    assert approach.info.name == "BootEA"
    with pytest.raises(KeyError):
        get_approach("AlignNet9000")


def test_every_approach_has_table1_categorization():
    for name, cls in APPROACHES.items():
        info = cls.info
        assert isinstance(info, ApproachInfo)
        assert info.name == name
        assert info.relation_embedding in ("Triple", "Path", "Neighbor")
        assert info.metric in ("cosine", "euclidean", "manhattan")
        assert info.combination in (
            "Transformation", "Sharing", "Swapping", "Calibration"
        )
        assert info.learning in ("Supervised", "Semi-supervised")


def test_table9_covers_all_systems():
    from repro.approaches import REQUIRED_INFORMATION

    assert set(REQUIRED_INFORMATION) == set(APPROACHES) | {"LogMap", "PARIS"}
    text = required_information_table()
    assert "BootEA" in text
    assert "PARIS" in text


def test_semi_supervised_flags_match_paper():
    semi = {n for n, c in APPROACHES.items() if c.info.learning == "Semi-supervised"}
    assert semi == {"IPTransE", "BootEA", "KDCoE"}


# ---------------------------------------------------------------------------
# fit/evaluate contract
# ---------------------------------------------------------------------------
def test_fit_records_log(enfr_pair, enfr_split, fast_config):
    approach = get_approach("MTransE", fast_config)
    log = approach.fit(enfr_pair, enfr_split)
    assert log.epochs_run >= 1
    assert len(log.losses) == log.epochs_run
    assert log.train_seconds > 0
    assert log.valid_history  # validation ran


def test_early_stopping_restores_best(enfr_pair, enfr_split):
    config = ApproachConfig(dim=16, epochs=30, lr=0.3, valid_every=5,
                            patience=1, early_stop=True)
    approach = get_approach("MTransE", config)
    log = approach.fit(enfr_pair, enfr_split)
    # with an aggressive lr the run may stop early; never past max epochs
    assert log.epochs_run <= 30


def test_best_epoch_names_a_restored_epoch_zero_snapshot(enfr_pair,
                                                         enfr_split):
    """When no trained epoch beats the epoch-0 validation, fit restores
    the epoch-0 snapshot, and the log says so."""
    config = ApproachConfig(dim=8, epochs=3, valid_every=1,
                            early_stop=False)
    approach = get_approach("MTransE", config)
    scripted = iter([0.5, 0.1, 0.2, 0.1])  # epochs 0, 1, 2, 3
    approach.evaluate = lambda pairs, hits_at=(1,): RankMetrics(
        hits={1: next(scripted)}, mr=1.0, mrr=1.0, n=len(pairs))
    log = approach.fit(enfr_pair, enfr_split)
    initial = get_approach("MTransE", ApproachConfig(dim=8, epochs=0))
    initial.fit(enfr_pair, enfr_split)
    assert log.valid_history == [(1, 0.1), (2, 0.2), (3, 0.1)]
    assert (log.epochs_run, log.best_epoch) == (3, 0)
    for trained, start in zip(approach._parameters(), initial._parameters()):
        np.testing.assert_array_equal(trained.data, start.data)


def test_evaluate_and_predict_shapes(enfr_pair, enfr_split, fast_config):
    approach = get_approach("MTransE", fast_config)
    approach.fit(enfr_pair, enfr_split)
    metrics = approach.evaluate(enfr_split.test, hits_at=(1, 5))
    assert 0.0 <= metrics.hits_at(1) <= metrics.hits_at(5) <= 1.0
    predictions = approach.predict(enfr_split.test)
    assert len(predictions) == len(enfr_split.test)
    sources = {a for a, _ in enfr_split.test}
    assert all(a in sources for a, _ in predictions)


def test_predict_with_stable_marriage_is_one_to_one(enfr_pair, enfr_split, fast_config):
    approach = get_approach("MTransE", fast_config)
    approach.fit(enfr_pair, enfr_split)
    predictions = approach.predict(enfr_split.test, strategy="stable_marriage")
    targets = [b for _, b in predictions]
    assert len(targets) == len(set(targets))


def test_csls_option_changes_similarity(enfr_pair, enfr_split, fast_config):
    approach = get_approach("MTransE", fast_config)
    approach.fit(enfr_pair, enfr_split)
    plain = approach.similarity_between(
        [enfr_split.test[0][0]], [b for _, b in enfr_split.test[:10]]
    )
    scaled = approach.similarity_between(
        [enfr_split.test[0][0]], [b for _, b in enfr_split.test[:10]], csls_k=3
    )
    assert plain.shape == scaled.shape
    assert not np.allclose(plain, scaled)


def test_base_class_hooks_are_abstract():
    approach = EmbeddingApproach(ApproachConfig())
    with pytest.raises(NotImplementedError):
        approach._setup(None, None, None)
    with pytest.raises(NotImplementedError):
        approach._run_epoch(0, None)


def test_evaluate_all_candidates_is_harder(enfr_pair, enfr_split, fast_config):
    """Ranking against all of KG2 cannot beat ranking against test targets."""
    approach = get_approach("BootEA", fast_config)
    approach.fit(enfr_pair, enfr_split)
    compact = approach.evaluate(enfr_split.test, hits_at=(1,))
    full = approach.evaluate(enfr_split.test, hits_at=(1,), candidates="all")
    assert full.hits_at(1) <= compact.hits_at(1) + 1e-9
    assert full.mr >= compact.mr - 1e-9
    with pytest.raises(ValueError):
        approach.evaluate(enfr_split.test, candidates="everything")


def test_evaluate_dangling_calibrates_in_sample_from_one_stream(
        enfr_pair, enfr_split, fast_config, monkeypatch):
    """``threshold=None`` scores all of KG2 once and matches calibrating
    on the same sources first."""
    approach = get_approach("MTransE", fast_config)
    approach.fit(enfr_pair, enfr_split)
    dangling = [a for a, _ in enfr_split.train[:5]]
    streams = []
    slabs = approach.similarity_slabs
    monkeypatch.setattr(approach, "similarity_slabs",
                        lambda *args: streams.append(args) or slabs(*args))
    in_sample = approach.evaluate_dangling(enfr_split.test, dangling)
    assert len(streams) == 1
    threshold = approach.calibrate_abstention(enfr_split.test, dangling)
    assert in_sample == approach.evaluate_dangling(
        enfr_split.test, dangling, threshold=threshold)


@pytest.mark.parametrize("name", ["AttrE", "IMUSE", "MultiKE", "GCNAlign"])
def test_all_candidates_include_aligned_entities_without_triples(name):
    """Table 8's attribute-only pair: some aligned KG2 entities have no
    attribute triple, so they are not in ``kg2.entities``; ranking
    against all of KG2 and NIL calibration must still find them."""
    from repro.datagen import benchmark_pair

    pair = benchmark_pair("EN-FR", size=300, seed=0,
                          method="direct").without_relations()
    split = pair.split(train_ratio=0.3, valid_ratio=0.1, seed=0)
    orphans = {b for _, b in pair.alignment} - pair.kg2.entities
    # the case under test: some test and validation targets are orphans
    assert orphans & {b for _, b in split.test}
    assert orphans & {b for _, b in split.valid}
    approach = get_approach(name, ApproachConfig(dim=8, epochs=1,
                                                 valid_every=0))
    approach.fit(pair, split)
    metrics = approach.evaluate(split.test, candidates="all")
    assert metrics.n == len(split.test)
    threshold = approach.calibrate_abstention(split.valid, [])
    nil = approach.evaluate_dangling(split.test, [], threshold=threshold)
    assert nil.n_matchable == len(split.test)
