"""The blockwise similarity kernel and its reductions.

``similarity_blocks`` yields row slabs of the similarity under a metric,
optionally CSLS-adjusted; the sampler refresh, ``mutual_nearest``, the
per-row scores behind evaluation, NIL calibration and greedy inference
reduce slab by slab and must give what the dense formulas written out
here give on the full matrix.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.alignment import (
    calibrate_abstention,
    greedy_alignment,
    mutual_nearest,
    nil_aware_metrics,
    normalize_rows,
    rank_metrics,
    row_scores,
    similarity_blocks,
    top_scores,
)
from repro.alignment import streaming
from repro.alignment.streaming import SLAB_CELLS
from repro.embedding import TruncatedSampler


def _dense_neighbors(embeddings: np.ndarray, k: int) -> np.ndarray:
    normalized = embeddings / np.maximum(
        np.linalg.norm(embeddings, axis=1, keepdims=True), 1e-12
    )
    similarity = normalized @ normalized.T
    np.fill_diagonal(similarity, -np.inf)
    return np.argpartition(-similarity, k - 1, axis=1)[:, :k]


def _dense_mutual_nearest(similarity, threshold=None, mutual=True):
    if similarity.size == 0:
        return []
    best_for_row = similarity.argmax(axis=1)
    best_for_column = similarity.argmax(axis=0)
    return [
        (i, int(j)) for i, j in enumerate(best_for_row)
        if (threshold is None or similarity[i, j] >= threshold)
        and (not mutual or best_for_column[j] == i)
    ]


def _dyadic(rng, shape):
    """Multiples of 1/4 in [-0.5, 0.5]: every dot product of a few of
    them is exact, so slab and full products agree bit for bit and ties
    are real ties."""
    return rng.integers(-2, 3, size=shape) / 4.0


# ---------------------------------------------------------------------------
# similarity_blocks
# ---------------------------------------------------------------------------
def test_similarity_blocks_default_budget():
    rng = np.random.default_rng(0)
    source, target = rng.normal(size=(700, 4)), rng.normal(size=(3000, 4))
    slabs = list(similarity_blocks(source, target))
    rows = SLAB_CELLS // 3000
    assert [start for start, _ in slabs] == list(range(0, 700, rows))
    assert all(len(slab) == rows for _, slab in slabs[:-1])
    np.testing.assert_allclose(np.concatenate([s for _, s in slabs]),
                               source @ target.T, rtol=0, atol=1e-14)


def test_similarity_blocks_one_row_per_slab():
    rng = np.random.default_rng(1)
    source, target = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
    slabs = list(similarity_blocks(source, target, block=1))
    assert [start for start, _ in slabs] == [0, 1, 2, 3, 4]
    assert all(slab.shape == (1, 4) for _, slab in slabs)
    np.testing.assert_allclose(np.concatenate([s for _, s in slabs]),
                               source @ target.T, rtol=0, atol=1e-14)


def test_similarity_blocks_block_larger_than_input():
    rng = np.random.default_rng(2)
    source, target = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
    (start, slab), = similarity_blocks(source, target, block=100)
    assert start == 0
    np.testing.assert_array_equal(slab, source @ target.T)


def test_similarity_blocks_empty_source():
    assert list(similarity_blocks(np.zeros((0, 3)), np.ones((4, 3)))) == []


# ---------------------------------------------------------------------------
# TruncatedSampler.refresh
# ---------------------------------------------------------------------------
def test_sampler_neighbors_own_their_data():
    rng = np.random.default_rng(3)
    sampler = TruncatedSampler(300, truncation=0.1, cache_size=20)
    sampler.refresh(rng.normal(size=(300, 8)))
    assert sampler._neighbors.shape == (300, 20)
    assert sampler._neighbors.base is None


def test_sampler_neighbors_match_dense_reference_across_slabs():
    n = 1500  # SLAB_CELLS // 1500 = 699 rows: three slabs
    assert SLAB_CELLS // n == 699
    embeddings = np.random.default_rng(4).normal(size=(n, 32))
    sampler = TruncatedSampler(n, truncation=0.1, cache_size=20)
    sampler.refresh(embeddings)
    np.testing.assert_array_equal(sampler._neighbors,
                                  _dense_neighbors(embeddings, 20))
    # never oneself
    assert not (sampler._neighbors == np.arange(n)[:, None]).any()


# ---------------------------------------------------------------------------
# mutual_nearest
# ---------------------------------------------------------------------------
TIED = 77


@pytest.fixture(scope="module")
def multi_slab():
    """1,200 x 2,048 dyadic scores: three slabs of 512 rows, with column
    ``TIED`` maximal (4.0) at rows 100 and 600, across the first slab
    boundary."""
    rng = np.random.default_rng(5)
    source = _dyadic(rng, (1200, 8))
    target = _dyadic(rng, (2048, 8))
    assert SLAB_CELLS // len(target) == 512
    source[[100, 600]] = 0.0
    source[[100, 600], 0] = 2.0
    target[TIED] = 0.0
    target[TIED, 0] = 2.0
    return source, target, source @ target.T


def test_mutual_nearest_column_tie_across_slabs_keeps_first_row(multi_slab):
    source, target, similarity = multi_slab
    pairs = mutual_nearest(source, target)
    assert pairs == _dense_mutual_nearest(similarity)
    assert (100, TIED) in pairs and (600, TIED) not in pairs
    assert (600, TIED) in mutual_nearest(source, target, mutual=False)


def test_mutual_nearest_keeps_a_score_exactly_at_threshold(multi_slab):
    source, target, similarity = multi_slab
    assert similarity[100, TIED] == 4.0
    at = mutual_nearest(source, target, threshold=4.0)
    assert at == _dense_mutual_nearest(similarity, threshold=4.0)
    assert (100, TIED) in at
    above = mutual_nearest(source, target, threshold=np.nextafter(4.0, 5.0))
    assert (100, TIED) not in above
    for threshold in (0.25, 0.5):
        assert mutual_nearest(source, target, threshold) == \
            _dense_mutual_nearest(similarity, threshold)


def test_mutual_nearest_without_mutuality(multi_slab):
    source, target, similarity = multi_slab
    for threshold in (None, 0.5):
        assert mutual_nearest(source, target, threshold, mutual=False) == \
            _dense_mutual_nearest(similarity, threshold, mutual=False)


def test_mutual_nearest_matches_dense_on_unit_vectors():
    rng = np.random.default_rng(6)
    source = normalize_rows(rng.normal(size=(900, 16)))
    target = normalize_rows(rng.normal(size=(2500, 16)))
    similarity = source @ target.T
    assert mutual_nearest(source, target) == _dense_mutual_nearest(similarity)


# ---------------------------------------------------------------------------
# per-row scores: evaluation, NIL metrics, CSLS and greedy over slabs
# ---------------------------------------------------------------------------
METRIC_NAMES = ["cosine", "euclidean", "manhattan"]


def _dense_similarity(source, target, metric):
    if metric == "cosine":
        unit_source = source / np.linalg.norm(source, axis=1, keepdims=True)
        unit_target = target / np.linalg.norm(target, axis=1, keepdims=True)
        return unit_source @ unit_target.T
    difference = source[:, None, :] - target[None, :, :]
    if metric == "euclidean":
        return -np.sqrt((difference**2).sum(axis=2))
    return -np.abs(difference).sum(axis=2)


def _dense_csls(similarity, k):
    psi_source = np.sort(similarity, axis=1)[:, -k:].mean(axis=1)
    psi_target = np.sort(similarity, axis=0)[-k:, :].mean(axis=0)
    return 2 * similarity - psi_source[:, None] - psi_target[None, :]


def _dense_ranks(similarity, gold):
    ranks = np.zeros(len(gold), dtype=np.int64)
    for row in np.flatnonzero(gold >= 0):
        gold_score = similarity[row, gold[row]]
        ranks[row] = 1 + int((similarity[row] > gold_score).sum())
    return ranks


@pytest.fixture(scope="module")
def scored():
    """23 sources against 40 targets, with four dangling sources (gold
    -1); ``block=7`` leaves a ragged last slab of 2 rows."""
    rng = np.random.default_rng(7)
    source, target = rng.normal(size=(23, 6)), rng.normal(size=(40, 6))
    gold = rng.integers(0, 40, size=23)
    gold[[2, 9, 15, 22]] = -1
    return source, target, gold


@pytest.mark.parametrize("block", [1, 7, None])
@pytest.mark.parametrize("metric", METRIC_NAMES)
def test_row_scores_match_dense_reference(scored, metric, block):
    source, target, gold = scored
    dense = _dense_similarity(source, target, metric)
    ordered = np.sort(dense, axis=1)
    scores = row_scores(similarity_blocks(source, target, block, metric),
                        gold, margin=True)
    np.testing.assert_array_equal(scores.column, dense.argmax(axis=1))
    np.testing.assert_allclose(scores.best, ordered[:, -1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(scores.margin, ordered[:, -1] - ordered[:, -2],
                               rtol=0, atol=1e-12)
    np.testing.assert_array_equal(scores.rank, _dense_ranks(dense, gold))
    assert row_scores(similarity_blocks(source, target, block,
                                        metric)).margin is None


@pytest.mark.parametrize("block", [1, 7, None])
@pytest.mark.parametrize("metric", METRIC_NAMES)
def test_rank_and_nil_metrics_match_dense_reference(scored, metric, block):
    source, target, gold = scored
    dense = _dense_similarity(source, target, metric)
    ranks = _dense_ranks(dense, gold)
    matchable = gold >= 0
    compact = rank_metrics(
        similarity_blocks(source[matchable], target, block, metric),
        gold[matchable], hits_at=(1, 5))
    expected = ranks[matchable]
    assert compact.n == matchable.sum()
    assert compact.hits == pytest.approx(
        {1: (expected <= 1).mean(), 5: (expected <= 5).mean()})
    assert compact.mr == pytest.approx(expected.mean())
    assert compact.mrr == pytest.approx((1.0 / expected).mean())

    ordered = np.sort(dense, axis=1)
    for method, signal in (("threshold", ordered[:, -1]),
                           ("margin", ordered[:, -1] - ordered[:, -2])):
        threshold = np.sort(signal)[10:12].mean()  # between two signals
        nil = nil_aware_metrics(similarity_blocks(source, target, block,
                                                  metric),
                                gold, method=method, threshold=threshold)
        abstain = signal < threshold
        dangling = ~matchable
        true_pos = (abstain & dangling).sum()
        precision, recall = true_pos / abstain.sum(), true_pos / dangling.sum()
        hits1 = ((dense.argmax(axis=1) == gold) & ~abstain)[matchable].mean()
        assert nil.abstained == abstain.sum()
        assert (nil.n_dangling, nil.n_matchable) == (4, 19)
        assert nil.precision == pytest.approx(precision)
        assert nil.recall == pytest.approx(recall)
        assert nil.f1 == pytest.approx(
            2 * precision * recall / (precision + recall)
            if precision + recall else 0.0)
        assert nil.hits1_matchable == pytest.approx(hits1)
        assert nil.mrr_matchable == pytest.approx((1.0 / expected).mean())


@pytest.mark.parametrize("block", [1, 7, None])
@pytest.mark.parametrize("metric", METRIC_NAMES)
def test_csls_slabs_and_greedy_match_dense_reference(scored, metric, block):
    source, target, _ = scored
    dense = _dense_similarity(source, target, metric)
    adjusted = _dense_csls(dense, 5)
    slabs = list(similarity_blocks(source, target, block, metric, csls_k=5))
    assert [start for start, _ in slabs] == list(range(0, 23, block or 23))
    np.testing.assert_allclose(np.concatenate([s for _, s in slabs]),
                               adjusted, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(
        greedy_alignment(similarity_blocks(source, target, block, metric)),
        dense.argmax(axis=1))
    np.testing.assert_array_equal(
        greedy_alignment(similarity_blocks(source, target, block, metric,
                                           csls_k=5)),
        adjusted.argmax(axis=1))


def test_csls_reads_the_similarity_twice(scored, monkeypatch):
    """Both psi come from one pass over the rows (row top-k and a running
    column top-k); a second pass yields the adjusted slabs."""
    source, target, _ = scored
    kernel, passes = streaming.similarity_blocks, []

    def counted(*args, **kwargs):
        passes.append(args[0] is source)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(streaming, "similarity_blocks", counted)
    list(kernel(source, target, 7, "manhattan", csls_k=5))
    assert passes == [True, True]


@pytest.mark.parametrize("method", ["threshold", "margin"])
def test_in_sample_calibration_reads_the_stream_once(scored, method):
    """``threshold=None`` calibrates on the scores it evaluates: one
    reduction of the stream, the threshold ``calibrate_abstention``
    picks from the same inputs."""
    source, target, gold = scored
    starts = []

    def stream():
        for start, slab in similarity_blocks(source, target, 7, "cosine"):
            starts.append(start)
            yield start, slab

    nil = nil_aware_metrics(stream(), gold, method=method, threshold=None)
    assert starts == [0, 7, 14, 21]
    threshold = calibrate_abstention(
        similarity_blocks(source, target, 7, "cosine"), gold, method=method)
    assert nil == nil_aware_metrics(
        similarity_blocks(source, target, 7, "cosine"), gold, method=method,
        threshold=threshold)


@pytest.mark.parametrize("metric", METRIC_NAMES)
def test_reductions_of_an_empty_source(metric):
    source, target = np.zeros((0, 3)), np.ones((4, 3))
    no_gold = np.zeros(0, dtype=np.int64)
    scores = row_scores(similarity_blocks(source, target, metric=metric),
                        no_gold, margin=True)
    for field in (scores.column, scores.best, scores.margin, scores.rank):
        assert field.shape == (0,)
    assert rank_metrics(similarity_blocks(source, target, metric=metric),
                        no_gold).n == 0
    assert greedy_alignment(
        similarity_blocks(source, target, metric=metric)).shape == (0,)
    assert list(similarity_blocks(source, target, metric=metric,
                                  csls_k=3)) == []


@pytest.mark.parametrize("metric", METRIC_NAMES)
def test_single_candidate_column_has_infinite_margin(metric):
    rng = np.random.default_rng(8)
    source, target = rng.normal(size=(9, 4)), rng.normal(size=(1, 4))
    scores = row_scores(similarity_blocks(source, target, 4, metric),
                        margin=True)
    np.testing.assert_array_equal(scores.column, np.zeros(9))
    np.testing.assert_allclose(scores.best,
                               _dense_similarity(source, target, metric)[:, 0],
                               rtol=0, atol=1e-12)
    assert np.isposinf(scores.margin).all()
    best, margin = top_scores(_dense_similarity(source, target, metric))
    assert np.isposinf(margin).all()
    # margin abstention never fires without a competitor
    nil = nil_aware_metrics(similarity_blocks(source, target, 4, metric),
                            np.zeros(9, dtype=np.int64), method="margin",
                            threshold=1e9)
    assert nil.abstained == 0 and nil.hits1_matchable == 1.0


def test_manhattan_rows_do_not_depend_on_slab_height():
    rng = np.random.default_rng(9)
    source, target = rng.normal(size=(130, 16)), rng.normal(size=(700, 16))
    stacked = {
        block: np.concatenate([slab for _, slab in similarity_blocks(
            source, target, block, "manhattan")])
        for block in (1, 7, 64, None)}
    for block in (7, 64, None):
        np.testing.assert_array_equal(stacked[block], stacked[1])
    # slabs keep the (rows, 700, 16) broadcast temporary within the budget,
    # whatever block the caller asks for
    rows = SLAB_CELLS // (700 * 16)
    for block in (None, 1000):
        starts = [start for start, _ in similarity_blocks(
            source, target, block, "manhattan")]
        assert starts == list(range(0, 130, rows))


def _brute_force_threshold(signal, dangling):
    """Every midpoint between distinct signals, the F1 of "signal < t"
    through a (thresholds x rows) comparison, the lowest maximizer."""
    order = np.unique(signal)
    if order.size == 1:
        candidates = order
    else:
        candidates = np.concatenate(([order[0] - 1e-9],
                                     (order[:-1] + order[1:]) / 2.0,
                                     [order[-1] + 1e-9]))
    abstain = signal[None, :] < candidates[:, None]
    true_pos = (abstain & dangling[None, :]).sum(axis=1).astype(float)
    n_abstained = abstain.sum(axis=1).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(n_abstained > 0, true_pos / n_abstained, 0.0)
        recall = true_pos / float(dangling.sum())
        f1 = np.where(precision + recall > 0,
                      2 * precision * recall / (precision + recall), 0.0)
    return float(candidates[int(np.argmax(f1 >= f1.max() - 1e-12))])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("method", ["threshold", "margin"])
def test_calibrate_abstention_matches_brute_force_sweep(method, seed):
    rng = np.random.default_rng(seed)
    similarity = rng.integers(0, 6, size=(300, 5)) / 4.0
    gold = np.where(rng.random(300) < 0.3, -1, rng.integers(0, 5, size=300))
    ordered = np.sort(similarity, axis=1)
    signal = (ordered[:, -1] if method == "threshold"
              else ordered[:, -1] - ordered[:, -2])
    assert len(np.unique(signal)) <= 6  # ties everywhere
    expected = _brute_force_threshold(signal, gold < 0)
    assert calibrate_abstention(similarity, gold, method) == expected
    # the same matrix as a stream of 7-row slabs: rows of the identity
    # pick rows of ``similarity`` exactly
    slabs = similarity_blocks(np.eye(300), similarity.T, block=7)
    assert calibrate_abstention(slabs, gold, method) == expected


# ---------------------------------------------------------------------------
# memory: no reduction builds the |E| x |E| matrix
# ---------------------------------------------------------------------------
_PEAK_SCRIPT = """
import json, resource, sys
import numpy as np
from repro.alignment import (mutual_nearest, nil_aware_metrics,
                             normalize_rows, rank_metrics, similarity_blocks)
from repro.embedding import TruncatedSampler

rng = np.random.default_rng(0)
source = normalize_rows(rng.normal(size=(4000, 32)))
target = normalize_rows(rng.normal(size=(4000, 32)))
# gold columns with a fifth of the sources dangling, as in evaluate_dangling
gold = np.where(np.arange(4000) % 5 == 0, -1, np.arange(4000))


def reduce(n):
    if sys.argv[1] == "refresh":
        TruncatedSampler(n).refresh(source[:n])
    elif sys.argv[1] == "mutual_nearest":
        mutual_nearest(source[:n], target[:n])
    elif sys.argv[1] == "evaluate_dangling":
        nil_aware_metrics(similarity_blocks(source[:n], target[:n],
                                            metric="cosine"),
                          gold[:n], threshold=0.5)
    else:
        rank_metrics(similarity_blocks(source[:n], target[:n],
                                       metric="cosine", csls_k=10),
                     np.arange(n))


def peak_kib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

# warm-up: BLAS buffers and numpy's allocator are resident before the baseline
reduce(300)
before = peak_kib()
reduce(4000)
print(json.dumps((peak_kib() - before) / 1024))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("reduction", ["refresh", "mutual_nearest",
                                       "evaluate_dangling", "evaluate_csls"])
def test_reduction_peak_memory_is_bounded(reduction):
    """4,000 x 4,000 float64 is 122 MiB per dense temporary; one slab is
    8 MiB, so the peak grows by well under 64 MB."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, reduction],
                         capture_output=True, text=True, env=env, check=True,
                         timeout=120)
    grown_mb = json.loads(out.stdout.strip().splitlines()[-1])
    assert grown_mb < 64, f"{reduction} grew the peak by {grown_mb:.0f} MB"
