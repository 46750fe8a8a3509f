"""The blockwise similarity kernel and its reductions.

``similarity_blocks`` yields row slabs of ``source @ target.T``; the
sampler refresh and ``mutual_nearest`` reduce slab by slab and must give
what the dense formulas written out here give on the full matrix.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.alignment import mutual_nearest, normalize_rows, similarity_blocks
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
# memory: neither reduction builds the |E| x |E| matrix
# ---------------------------------------------------------------------------
_PEAK_SCRIPT = """
import json, resource, sys
import numpy as np
from repro.alignment import mutual_nearest, normalize_rows
from repro.embedding import TruncatedSampler

rng = np.random.default_rng(0)
source = normalize_rows(rng.normal(size=(4000, 32)))
target = normalize_rows(rng.normal(size=(4000, 32)))
# warm-up: BLAS buffers and numpy's allocator are resident before the baseline
TruncatedSampler(300).refresh(source[:300])
mutual_nearest(source[:300], target[:300])

def peak_kib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

before = peak_kib()
if sys.argv[1] == "refresh":
    TruncatedSampler(4000).refresh(source)
else:
    mutual_nearest(source, target)
print(json.dumps((peak_kib() - before) / 1024))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("reduction", ["refresh", "mutual_nearest"])
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
