"""Analytic L2 miss prediction from affine loop structure (DESIGN.md §12).

The default ``predict`` pass trains a two-bit-counter predictor on a
*simulated trace* of the default execution (:func:`repro.core.partitioner.
train_predictor`).  This module computes the same per-region on-chip/off-chip
verdicts **in closed form**, without simulating a single cache access:

1. :func:`repro.ir.affine.access_table` resolves every static reference of a
   nest over its whole iteration space as one ``int64`` column;
2. each access's cache line, home L2 bank, and 4KB region follow from the
   virtual address by pure arithmetic (the color-preserving page allocator
   guarantees the physical address keeps the bank and channel bits, and
   maps each virtual page to exactly one frame, so line/region *identity*
   is preserved by translation);
3. an access **hits** in its home bank when it reuses a line at short reuse
   distance (the line was touched within the last ``short_window`` stream
   positions, so fewer distinct lines than the bank's associativity can
   have intervened), or at long distance when the bank's whole program
   footprint fits its capacity (no capacity evictions possible);
4. a region is predicted **on-chip** when at least half of its accesses are
   modeled hits — the analytic analogue of the trace predictor's saturated
   counter, which also encodes "recent accesses to this page mostly hit".

The model is deliberately conservative where it cannot be exact: the first
touch of a line *within each nest* is a miss (no cross-nest reuse credit),
and a bank under capacity pressure only keeps short-distance reuses.  The
known divergences from the trace predictor, and the measured agreement on
the paper workloads, are documented in DESIGN.md §12.

:class:`AnalyticMissPredictor` is a drop-in for
:class:`repro.cache.predictor.HitMissPredictor` everywhere the pipeline
reads predictions (``predict``/``predict_many``); it is
selected with ``--predictor analytic`` (the ``predict_analytic`` pass).
The trace predictor stays the default and serves as the differential
oracle (:func:`repro.check.invariants.check_predictor_agreement`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.machine import Machine
from repro.cache.predictor import PredictorStats
from repro.errors import WorkloadError
from repro.ir.affine import NestAccessTable, access_table
from repro.ir.program import Program


@dataclass(frozen=True)
class NestLocality:
    """Closed-form locality summary of one nest (what DESIGN §12 tabulates).

    ``accesses`` counts every dynamic reference the nest issues;
    ``distinct_lines`` is its cache-line footprint; the two hit counters
    split the modeled L2 hits by mechanism (short reuse distance vs.
    footprint-fits temporal reuse).  ``affine`` is False when any column
    went through runtime index data (the inspector's tables) instead of a
    purely affine subscript.
    """

    nest_name: str
    accesses: int
    distinct_lines: int
    short_reuse_hits: int
    temporal_hits: int
    affine: bool

    @property
    def hit_fraction(self) -> float:
        """Modeled L2 hit fraction of the nest's access stream."""
        if not self.accesses:
            return 0.0
        return (self.short_reuse_hits + self.temporal_hits) / self.accesses


@dataclass
class LocalityModel:
    """The program-wide analytic model backing the predictor.

    ``region_verdicts`` maps a *virtual* 4KB region to its on-chip verdict;
    ``bank_footprint`` is the distinct-line count homed at each L2 bank
    (the capacity test of DESIGN §12); ``nests`` keeps the per-nest
    summaries for reports, the example walkthrough, and the docs.
    """

    region_verdicts: Dict[int, bool] = field(default_factory=dict)
    bank_footprint: Dict[int, int] = field(default_factory=dict)
    nests: List[NestLocality] = field(default_factory=list)
    skipped_nests: List[str] = field(default_factory=list)

    @property
    def hit_region_fraction(self) -> float:
        """Fraction of touched regions predicted on-chip."""
        if not self.region_verdicts:
            return 0.0
        hits = sum(1 for verdict in self.region_verdicts.values() if verdict)
        return hits / len(self.region_verdicts)

    def modeled_hit_fraction(self) -> float:
        """Access-weighted modeled L2 hit fraction over all analyzed nests."""
        total = sum(nest.accesses for nest in self.nests)
        if not total:
            return 0.0
        hits = sum(
            nest.short_reuse_hits + nest.temporal_hits for nest in self.nests
        )
        return hits / total


def _nest_stream(
    machine: Machine, table: NestAccessTable
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, bool]:
    """One nest's access stream as (lines, banks, regions, width, affine).

    The stream is in exact dynamic order: per iteration, the body's
    statements in order, each statement's reads (RHS order) then its write
    — the same order the scalar pipeline issues them.  ``width`` is the
    number of accesses per iteration (the stream's row width).
    """
    layout = machine.layout
    offset_width = layout.mapping.l2.offset_field.width
    region_width = layout.mapping.memory.offset_field.width
    columns = table.columns()
    affine = all(column.affine for column in columns)
    lines = np.empty((table.iterations, len(columns)), dtype=np.int64)
    banks = np.empty_like(lines)
    regions = np.empty_like(lines)
    for j, column in enumerate(columns):
        va = layout.va_map(column.array)[column.indices]
        lines[:, j] = va >> offset_width
        regions[:, j] = va >> region_width
        banks[:, j] = layout.bank_map(column.array)[column.indices]
    return (
        lines.ravel(),
        banks.ravel(),
        regions.ravel(),
        len(columns),
        affine,
    )


def _reuse_partition(
    lines: np.ndarray, short_window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Positions of short-distance and long-distance line reuses.

    A stable argsort groups equal lines with their stream positions
    ascending, so consecutive in-group position gaps are exactly the reuse
    gaps.  A gap of at most ``short_window`` positions bounds the distinct
    intervening lines by ``short_window`` (closed form: an affine column of
    element stride ``s`` revisits its line every ``line_size/(s*elem)``
    iterations, so unit-stride streams reuse at gap == stream width).
    """
    positions = np.arange(len(lines), dtype=np.int64)
    order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    sorted_pos = positions[order]
    same = sorted_lines[1:] == sorted_lines[:-1]
    gaps = np.diff(sorted_pos)
    short = sorted_pos[1:][same & (gaps <= short_window)]
    long = sorted_pos[1:][same & (gaps > short_window)]
    return short, long


def build_locality_model(
    machine: Machine,
    program: Program,
    short_window: Optional[int] = None,
) -> LocalityModel:
    """The closed-form :class:`LocalityModel` of ``program`` on ``machine``.

    Two sweeps over the affine access tables: the first accumulates every
    bank's distinct-line footprint (the capacity test must see the whole
    program — banks are shared across nests); the second classifies each
    access as modeled hit or miss and reduces to per-region verdicts.
    Nests whose subscripts cannot be resolved (missing runtime index data)
    are skipped and recorded in ``skipped_nests`` — their regions keep the
    cold-region default (off-chip).
    """
    program.declare_on(machine)
    capacity_lines = machine.l2_config.line_count
    assoc = machine.l2_config.associativity

    from repro import check
    from repro.check import invariants

    tables: List[NestAccessTable] = []
    skipped: List[str] = []
    for nest in program.nests:
        try:
            table = access_table(program, nest)
        except WorkloadError:
            skipped.append(nest.name)
            continue
        if check.enabled():
            invariants.check_access_table(table, program, nest)
        tables.append(table)

    streams = [_nest_stream(machine, table) for table in tables]

    # Sweep 1: per-bank distinct-line footprint across the whole program.
    footprint: Dict[int, int] = {}
    if streams:
        all_lines = np.concatenate([s[0] for s in streams])
        all_banks = np.concatenate([s[1] for s in streams])
        # One bank per line (SNUCA): dedup lines, count survivors per bank.
        _, first = np.unique(all_lines, return_index=True)
        unique_banks = all_banks[first]
        for bank, count in zip(*np.unique(unique_banks, return_counts=True)):
            footprint[int(bank)] = int(count)
    fits = {bank: count <= capacity_lines for bank, count in footprint.items()}

    # Sweep 2: classify accesses, reduce to per-region verdicts.
    region_hits: Dict[int, int] = {}
    region_totals: Dict[int, int] = {}
    nests: List[NestLocality] = []
    for table, (lines, banks, regions, width, affine) in zip(tables, streams):
        window = short_window
        if window is None:
            # Two iterations' worth of accesses can intervene without
            # exceeding the bank's associativity in distinct lines.
            window = max(4, min(2 * width, assoc))
        short, long = _reuse_partition(lines, window)
        if len(long):
            fits_by_bank = np.zeros(int(banks.max()) + 1, dtype=bool)
            for bank, bank_fits in fits.items():
                if bank < len(fits_by_bank):
                    fits_by_bank[bank] = bank_fits
            long_hit = long[fits_by_bank[banks[long]]]
        else:
            long_hit = long
        hit = np.zeros(len(lines), dtype=bool)
        hit[short] = True
        hit[long_hit] = True
        nests.append(
            NestLocality(
                nest_name=table.nest_name,
                accesses=len(lines),
                distinct_lines=int(len(np.unique(lines))),
                short_reuse_hits=int(len(short)),
                temporal_hits=int(len(long_hit)),
                affine=affine,
            )
        )
        unique_regions, inverse = np.unique(regions, return_inverse=True)
        totals = np.bincount(inverse, minlength=len(unique_regions))
        hits = np.bincount(
            inverse, weights=hit.astype(np.int64), minlength=len(unique_regions)
        ).astype(np.int64)
        for region, total, region_hit in zip(unique_regions, totals, hits):
            key = int(region)
            region_totals[key] = region_totals.get(key, 0) + int(total)
            region_hits[key] = region_hits.get(key, 0) + int(region_hit)

    verdicts = {
        region: 2 * region_hits[region] >= region_totals[region]
        for region in region_totals
    }
    return LocalityModel(
        region_verdicts=verdicts,
        bank_footprint=footprint,
        nests=nests,
        skipped_nests=skipped,
    )


class AnalyticMissPredictor:
    """Closed-form drop-in for the trace-trained hit/miss predictor.

    Builds the :class:`LocalityModel` once at construction, translates every
    touched virtual region to its physical frame (in ascending region
    order — the allocator is deterministic, so so is the mapping), and
    answers ``predict`` queries with a dict lookup.  Like the trace
    predictor, a region the model never saw predicts *miss* (cold data is
    located at its memory controller, the paper's safe default).

    Verdicts depend only on the queried address, like every predictor the
    pipeline accepts.
    ``train`` is accepted and ignored — the model is not trace-driven;
    ``stats`` only accumulate when a caller verifies predictions through
    :meth:`predict_and_train` (the differential oracle does).
    """

    def __init__(
        self,
        machine: Machine,
        program: Program,
        short_window: Optional[int] = None,
    ):
        """Build the model for ``program`` and pin its region verdicts."""
        layout = machine.layout
        self.region_bits = layout.mapping.memory.offset_field.width
        self.model = build_locality_model(machine, program, short_window)
        allocator = layout.allocator
        page_size = layout.mapping.memory.page_size
        shift = self.region_bits
        self._verdicts: Dict[int, bool] = {}
        for region in sorted(self.model.region_verdicts):
            # Virtual region -> physical frame.  Regions are OS pages
            # (both 4KB), so translate_page is exact; first touches here
            # allocate the frame the rest of the pipeline will reuse.
            virtual_page = (region << shift) // page_size
            frame = allocator.translate_page(virtual_page).physical_frame
            self._verdicts[frame] = self.model.region_verdicts[region]
        self.stats = PredictorStats()

    def _region(self, address: int) -> int:
        return address >> self.region_bits

    def predict(self, address: int) -> bool:
        """True = predicted L2 hit (data on chip), False = predicted miss."""
        return self._verdicts.get(self._region(address), False)

    def predict_many(self, addresses) -> np.ndarray:
        """Vectorized :meth:`predict` over an int array of addresses."""
        regions = np.asarray(addresses, dtype=np.int64) >> self.region_bits
        unique, inverse = np.unique(regions, return_inverse=True)
        get = self._verdicts.get
        verdicts = np.fromiter(
            (get(int(region), False) for region in unique),
            dtype=bool,
            count=len(unique),
        )
        return verdicts[inverse]

    def train(self, address: int, was_hit: bool) -> None:
        """No-op: the model is closed-form, not trace-driven."""

    def predict_and_train(self, address: int, was_hit: bool) -> bool:
        """Predict and record agreement with an observed outcome."""
        prediction = self.predict(address)
        if prediction == was_hit:
            self.stats.correct += 1
        else:
            self.stats.incorrect += 1
        return prediction

    def accuracy(self) -> float:
        """Fraction of verified predictions that were right (0.0 unverified)."""
        return self.stats.accuracy()

    def reset(self) -> None:
        """Clear verification stats (the model itself is immutable)."""
        self.stats = PredictorStats()
