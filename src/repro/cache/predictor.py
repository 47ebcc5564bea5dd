"""L2 cache hit/miss predictor (paper Section 4.1, accuracy in Table 2).

The compiler must decide, per reference, whether the datum will be found in
its home L2 bank or whether the access will fall through to a memory
controller — the MST uses the MC as the datum's location in the latter case.
The paper uses a Chandra-et-al-style predictor; we implement a per-region
two-bit saturating-counter predictor trained on an address-trace sample.

Regions are block-aligned address ranges (default: one 4KB page), so the
predictor generalizes across elements that share a page, the dominant reuse
granularity in the loop workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class PredictorStats:
    """Accuracy accounting for a predictor."""

    correct: int = 0
    incorrect: int = 0

    @property
    def total(self) -> int:
        return self.correct + self.incorrect

    def accuracy(self) -> float:
        """Fraction of verified predictions that were right."""
        return self.correct / self.total if self.total else 0.0


class HitMissPredictor:
    """Two-bit saturating counter per region; >=2 predicts an L2 hit.

    Counters start at 1 (weakly predict miss): a cold region has not been
    fetched yet, so predicting a miss — i.e. "the data is at the MC" — is the
    safe default, matching the paper's treatment of cold references.

    Prediction depends only on the queried address, never on the query
    stream: the counters are written only by ``train`` (the training pass),
    before any consumer reads a verdict, so location answers can be batched
    into tables.  Every predictor the pipeline accepts keeps this contract.
    """

    STRONG_MISS, WEAK_MISS, WEAK_HIT, STRONG_HIT = 0, 1, 2, 3

    def __init__(self, region_bits: int = 12):
        self.region_bits = region_bits
        self._counters: Dict[int, int] = {}
        self.stats = PredictorStats()

    def _region(self, address: int) -> int:
        return address >> self.region_bits

    def predict(self, address: int) -> bool:
        """True = predicted L2 hit (data on chip), False = predicted miss."""
        counter = self._counters.get(self._region(address), self.WEAK_MISS)
        return counter >= self.WEAK_HIT

    def predict_many(self, addresses) -> "np.ndarray":
        """Vectorized :meth:`predict` over an int array of addresses.

        Returns a bool array (True = predicted L2 hit).  Bit-equal to
        calling :meth:`predict` per element: the counters are read through
        the same default and threshold, deduplicated per region.
        """
        import numpy as np

        regions = np.asarray(addresses, dtype=np.int64) >> self.region_bits
        unique, inverse = np.unique(regions, return_inverse=True)
        get = self._counters.get
        weak_miss, weak_hit = self.WEAK_MISS, self.WEAK_HIT
        verdicts = np.fromiter(
            (get(int(region), weak_miss) >= weak_hit for region in unique),
            dtype=bool,
            count=len(unique),
        )
        return verdicts[inverse]

    def train(self, address: int, was_hit: bool) -> None:
        """Update the region counter with an observed outcome."""
        region = self._region(address)
        counter = self._counters.get(region, self.WEAK_MISS)
        if was_hit:
            counter = min(self.STRONG_HIT, counter + 1)
        else:
            counter = max(self.STRONG_MISS, counter - 1)
        self._counters[region] = counter

    def predict_and_train(self, address: int, was_hit: bool) -> bool:
        """Predict, verify against the outcome, train, and record accuracy."""
        prediction = self.predict(address)
        if prediction == was_hit:
            self.stats.correct += 1
        else:
            self.stats.incorrect += 1
        self.train(address, was_hit)
        return prediction

    def accuracy(self) -> float:
        return self.stats.accuracy()

    def reset(self) -> None:
        self._counters.clear()
        self.stats = PredictorStats()
