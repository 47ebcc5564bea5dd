"""Differential tests of the analytic locality model (DESIGN.md §12).

The analytic predictor is a *model* of what the trace-trained predictor
learns, so the tests assert agreement bounds, structural invariants, and
that the check-mode oracles catch planted bugs — never exact equality of
the two predictors (they legitimately diverge at capacity boundaries and
on cross-nest reuse; the bounds here are the ones DESIGN.md documents).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.knl import small_machine
from repro.cache.predictor import HitMissPredictor
from repro.check.invariants import (
    MIN_PREDICTOR_AGREEMENT,
    check_access_table,
    check_predictor_agreement,
)
from repro.core.locality import AnalyticMissPredictor, build_locality_model
from repro.core.partitioner import train_predictor
from repro.errors import CheckError
from repro.ir.affine import access_table
from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program

NAMES = ("A", "B", "C", "D", "E")


@st.composite
def affine_nests(draw):
    """A small single-nest program recipe: (length, trip, statement texts).

    Returns a *recipe* rather than a Program so each predictor can build
    its program against a fresh machine (page allocation is first-touch:
    sharing one Program between machines would entangle their layouts).
    """
    length = draw(st.sampled_from([64, 256, 1024, 4096]))
    trip = draw(st.integers(min_value=4, max_value=48))
    statements = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        lhs = draw(st.sampled_from(NAMES))
        terms = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            coeff = draw(st.sampled_from([1, 1, 2, 3]))
            offset = draw(st.integers(min_value=0, max_value=8))
            array = draw(st.sampled_from(NAMES))
            terms.append(f"{array}({coeff}*i+{offset})")
        statements.append(f"{lhs}(i) = " + " + ".join(terms))
    return length, trip, tuple(statements)


def _build(recipe) -> Program:
    length, trip, statements = recipe
    program = Program("gen")
    for name in NAMES:
        program.declare(name, length)
    program.add_nest(
        LoopNest.of(
            [Loop("i", 0, trip)],
            [parse_statement(text) for text in statements],
            "nest",
        )
    )
    return program


def _address_stream(machine, program):
    """Every physical address the program touches, in dynamic order."""
    return [
        machine.layout.pa_of(access.array, access.index)
        for instance in program.instances()
        for access in instance.accesses()
    ]


class TestAnalyticVsTraceAgreement:
    @given(affine_nests())
    @settings(max_examples=40, deadline=None)
    def test_agreement_within_documented_floor(self, recipe):
        """Per-address agreement never falls below DESIGN §12's floor.

        Both predictors run on their own fresh machine (identical
        geometry), so the two address spaces are allocated independently
        but element-for-element equivalently.
        """
        analytic_machine, analytic_program = small_machine(), _build(recipe)
        analytic = AnalyticMissPredictor(analytic_machine, analytic_program)
        trace_machine, trace_program = small_machine(), _build(recipe)
        trace = HitMissPredictor()
        train_predictor(trace_machine, trace_program, trace)

        analytic_addresses = _address_stream(analytic_machine, analytic_program)
        trace_addresses = _address_stream(trace_machine, trace_program)
        agree = sum(
            analytic.predict(a) == trace.predict(b)
            for a, b in zip(analytic_addresses, trace_addresses)
        )
        fraction = agree / len(analytic_addresses)
        assert fraction >= MIN_PREDICTOR_AGREEMENT, (
            f"agreement {fraction:.3f} below the documented floor "
            f"{MIN_PREDICTOR_AGREEMENT} for {recipe}"
        )

    @given(affine_nests())
    @settings(max_examples=20, deadline=None)
    def test_predict_many_matches_scalar_predict(self, recipe):
        machine, program = small_machine(), _build(recipe)
        predictor = AnalyticMissPredictor(machine, program)
        addresses = np.asarray(_address_stream(machine, program), dtype=np.int64)
        vectorized = predictor.predict_many(addresses)
        scalar = np.fromiter(
            (predictor.predict(int(a)) for a in addresses),
            dtype=bool,
            count=len(addresses),
        )
        assert np.array_equal(vectorized, scalar)

    @given(affine_nests())
    @settings(max_examples=15, deadline=None)
    def test_model_is_deterministic(self, recipe):
        first = AnalyticMissPredictor(small_machine(), _build(recipe))
        second = AnalyticMissPredictor(small_machine(), _build(recipe))
        assert first._verdicts == second._verdicts
        assert first.model.bank_footprint == second.model.bank_footprint


class TestModelStructure:
    def test_cold_region_predicts_miss(self):
        machine, program = small_machine(), _build((64, 8, ("A(i) = B(i)",)))
        predictor = AnalyticMissPredictor(machine, program)
        # An address far beyond anything the program touches.
        assert predictor.predict(1 << 40) is False

    def test_pure_predict_and_train_is_inert(self):
        machine, program = small_machine(), _build((64, 8, ("A(i) = B(i)",)))
        predictor = AnalyticMissPredictor(machine, program)
        address = machine.layout.pa_of("A", 0)
        before = predictor.predict(address)
        for _ in range(8):
            predictor.train(address, not before)
        assert predictor.predict(address) == before

    def test_heavy_reuse_is_predicted_on_chip(self):
        """A nest re-reading one small array every iteration fits L2."""
        program = Program("reuse")
        program.declare("A", 64)
        program.declare("B", 64)
        program.add_nest(
            LoopNest.of(
                [Loop("i", 0, 64)],
                [parse_statement("A(i) = B(0) + B(1) + A(i)")],
                "nest",
            )
        )
        machine = small_machine()
        predictor = AnalyticMissPredictor(machine, program)
        assert predictor.predict(machine.layout.pa_of("B", 0)) is True

    def test_nest_locality_summary_accounts_all_accesses(self):
        machine = small_machine()
        program = _build((256, 16, ("A(i) = B(i) + C(i)", "D(i) = A(i)")))
        model = build_locality_model(machine, program)
        (nest,) = model.nests
        # 16 iterations x (3 + 2) accesses per iteration.
        assert nest.accesses == 80
        assert 0 <= nest.short_reuse_hits + nest.temporal_hits <= nest.accesses
        assert nest.affine is True
        assert model.skipped_nests == []


class TestPlantedBugs:
    """Each check-mode oracle must catch a deliberately planted bug."""

    def test_agreement_check_catches_inverted_predictor(self):
        machine, program = small_machine(), _build((256, 32, ("A(i) = A(i) + B(i)",)))
        predictor = AnalyticMissPredictor(machine, program)

        class Inverted:
            def predict(self, address):
                return not predictor.predict(address)

        addresses = _address_stream(machine, program)
        assert len(addresses) >= 64  # the floor only applies to real samples
        with pytest.raises(CheckError, match="diverged from the trace oracle"):
            check_predictor_agreement(predictor, Inverted(), addresses)

    def test_agreement_check_passes_identical_predictors(self):
        machine, program = small_machine(), _build((256, 32, ("A(i) = B(i)",)))
        predictor = AnalyticMissPredictor(machine, program)
        addresses = _address_stream(machine, program)
        assert check_predictor_agreement(predictor, predictor, addresses) == 1.0

    def test_access_table_check_catches_corrupted_column(self):
        machine, program = small_machine(), _build((256, 16, ("A(i) = B(i)",)))
        program.declare_on(machine)
        nest = program.nests[0]
        table = access_table(program, nest)
        check_access_table(table, program, nest)  # pristine: passes
        table.reads[0][0].indices[0] += 1  # plant an off-by-one (it=0 is always sampled)
        with pytest.raises(CheckError, match="access table divergence"):
            check_access_table(table, program, nest)

    def test_access_table_check_catches_wrong_write_array(self):
        machine, program = small_machine(), _build((256, 16, ("A(i) = B(i)",)))
        program.declare_on(machine)
        nest = program.nests[0]
        table = access_table(program, nest)
        object.__setattr__(
            table.writes[0], "array", "B"
        )  # plant a mislabeled store column
        with pytest.raises(CheckError, match="access table divergence"):
            check_access_table(table, program, nest)
