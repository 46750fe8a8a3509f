"""Composing a new alignment approach from the library's modules.

The paper's library (Figure 4) is built so that embedding models, loss
functions, negative samplers and alignment-module components can be
recombined freely.  This example assembles an unnamed approach:

* relation embedding: **TransH** (handles multi-mapping relations),
* combination mode: parameter *sharing* + triple *swapping*,
* negative sampling: truncated (BootEA-style hard negatives),
* alignment inference: CSLS + stable marriage.

Run:  python examples/custom_approach.py
"""

import numpy as np

from repro import ApproachConfig, benchmark_pair
from repro.alignment import prf_metrics
from repro.approaches import UnifiedTransApproach
from repro.approaches.base import ApproachInfo
from repro.embedding import TransH, TruncatedSampler


class TransHSwap(UnifiedTransApproach):
    """TransH in a shared space with swapping and hard negatives."""

    info = ApproachInfo(
        name="TransHSwap", relation_embedding="Triple", attribute_embedding="-",
        metric="cosine", combination="Swapping", learning="Supervised",
    )
    merge_seeds = True
    swapping = True
    calibration_weight = 0.5
    refresh_every = 5  # epochs between refreshes of the hard negatives

    def _setup(self, pair, split, rng):
        super()._setup(pair, split, rng)
        # swap the relation model: TransE -> TransH (fit() builds the
        # optimizer afterwards, over whatever _parameters() returns)
        self.model = TransH(
            self.data.n_entities, self.data.n_relations, self.config.dim, rng
        )
        self.sampler = TruncatedSampler(self.data.n_entities, truncation=0.25)


def main() -> None:
    pair = benchmark_pair("D-Y", size=350, version="V1", seed=2)
    split = pair.five_fold_splits(seed=2)[0]

    approach = TransHSwap(ApproachConfig(dim=32, epochs=40, lr=0.05))
    approach.fit(pair, split)

    print(f"dataset: {pair}")
    print("greedy           :", approach.evaluate(split.test, hits_at=(1, 5)))
    print("greedy + CSLS    :", approach.evaluate(split.test, hits_at=(1, 5), csls_k=10))
    sm = approach.predict(split.test, strategy="stable_marriage", csls_k=10)
    print("stable marriage  :", prf_metrics(sm, set(split.test)))

    # the geometric analysis toolkit works on any approach
    from repro.analysis import hubness_isolation, similarity_distribution

    similarity = approach.similarity_between(
        [a for a, _ in split.test], [b for _, b in split.test], metric="cosine"
    )
    print("similarity profile:", similarity_distribution(similarity))
    print("hubness/isolation :", hubness_isolation(similarity))
    assert np.isfinite(similarity).all()


if __name__ == "__main__":
    main()
