"""Ideal scenarios (paper Section 6.4, Figure 17 bars 2 and 3).

* **Ideal network** — every network message completes in 0 cycles.  The
  paper deducts measured network latencies from execution time; we run the
  simulator with ``ideal_network=True`` (traffic is still recorded so
  movement metrics stay meaningful).
* **Ideal data analysis** — perfect compile-time knowledge: 100% accurate
  L2 hit/miss prediction and exact data-access information.  We give the
  partitioner an :class:`OracleL2Predictor`, trained on the whole default
  execution's true shared-L2 outcomes (a perfect profile), and an
  unbounded L1-reuse model.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

import numpy as np

from repro.arch.machine import Machine
from repro.core.partitioner import NdpPartitioner, PartitionConfig, PartitionResult
from repro.ir.program import Program
from repro.sim.engine import SimConfig


def ideal_network_config(base: SimConfig = SimConfig()) -> SimConfig:
    """A simulator configuration where messages take zero cycles."""
    return replace(base, ideal_network=True)


class OracleL2Predictor:
    """The perfect profile: each L2 block's majority outcome in the default run.

    Duck-typed replacement for
    :class:`~repro.cache.predictor.HitMissPredictor`.  ``train`` records, per
    L2 block, how many of the default execution's accesses hit the shared
    L2 and how many there were in all; ``predict`` answers with the block's
    majority verdict.  A tie, or a block never seen, predicts a miss (the
    same cold bias as the trace predictor).  Only ``train`` writes the
    table, so predictions depend on the address alone.
    """

    def __init__(self, machine: Machine):
        self.block_bits = machine.mapping.l2.offset_field.width
        self._hits: Dict[int, int] = {}
        self._total: Dict[int, int] = {}

    def predict(self, address: int) -> bool:
        """True when most default-run accesses to the block hit in L2."""
        block = address >> self.block_bits
        return 2 * self._hits.get(block, 0) > self._total.get(block, 0)

    def predict_many(self, addresses) -> np.ndarray:
        """Vectorized :meth:`predict` over an int array of addresses."""
        blocks = np.asarray(addresses, dtype=np.int64) >> self.block_bits
        unique, inverse = np.unique(blocks, return_inverse=True)
        hits, total = self._hits.get, self._total.get
        verdicts = np.fromiter(
            (2 * hits(int(b), 0) > total(int(b), 0) for b in unique),
            dtype=bool,
            count=len(unique),
        )
        return verdicts[inverse]

    def train(self, address: int, was_hit: bool) -> None:
        """Count one observed shared-L2 outcome against the block."""
        block = address >> self.block_bits
        self._total[block] = self._total.get(block, 0) + 1
        if was_hit:
            self._hits[block] = self._hits.get(block, 0) + 1

    def predict_and_train(self, address: int, was_hit: bool) -> bool:
        """Train on the outcome; returns the block's updated verdict."""
        self.train(address, was_hit)
        return self.predict(address)

    def accuracy(self) -> float:
        """Fraction of the training stream the majority verdicts get right."""
        total = sum(self._total.values())
        if not total:
            return 0.0
        hits = self._hits.get
        right = sum(
            max(hits(block, 0), count - hits(block, 0))
            for block, count in self._total.items()
        )
        return right / total


def partition_with_ideal_analysis(
    machine: Machine,
    program: Program,
    config: Optional[PartitionConfig] = None,
) -> PartitionResult:
    """Partition with perfect data analysis (Figure 17's third bar).

    Oracle predictor + a generous L1-reuse model stand in for the paper's
    profile-everything run; the result upper-bounds what better compiler
    analysis could buy.  The ``predict`` pass trains the oracle over every
    instance of the program, not just the usual training prefix.
    """
    base = config or PartitionConfig()
    window = replace(base.window, l1_model_blocks=max(base.window.l1_model_blocks, 512))
    ideal_config = replace(
        base,
        window=window,
        use_predictor=False,
        predictor_training_instances=program.total_instances(),
    )
    partitioner = NdpPartitioner(machine, ideal_config)
    partitioner.predictor = OracleL2Predictor(machine)  # type: ignore[assignment]
    return partitioner.partition(program)
