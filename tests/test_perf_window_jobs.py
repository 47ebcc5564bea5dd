"""Parallel window-size search determinism.

``WindowConfig.jobs > 1`` fans the candidate-size trials over worker
processes; the search must return exactly the serial result — same
``best_size`` AND same per-size movement numbers — on representative apps.
"""

from __future__ import annotations

import pytest

from repro.arch.knl import small_machine
from repro.cache.predictor import HitMissPredictor
from repro.core.locator import DataLocator
from repro.core.window import WindowConfig, WindowSizeSearch
from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program


def _shared_operand_app() -> Program:
    """Two statements sharing C(i) (the paper's Figure 11 scenario)."""
    p = Program("tiny")
    for name in ("A", "B", "C", "D", "E", "X", "Y"):
        p.declare(name, 512)
    p.add_nest(
        LoopNest.of(
            [Loop("i", 0, 32)],
            [
                parse_statement("A(i) = B(i) + C(i) + D(i) + E(i)"),
                parse_statement("X(i) = Y(i) + C(i)"),
            ],
            "main",
        )
    )
    return p


def _chained_app() -> Program:
    """Three chained statements so window size genuinely matters."""
    p = Program("chain")
    for name in ("P", "Q", "R", "S"):
        p.declare(name, 1024)
    p.add_nest(
        LoopNest.of(
            [Loop("i", 0, 48)],
            [
                parse_statement("P(i) = Q(i) + R(i)"),
                parse_statement("S(i) = P(i) + R(i)"),
                parse_statement("R(i) = S(i) + Q(i)"),
            ],
            "sweep",
        )
    )
    return p


def _search(program_factory, jobs: int):
    machine = small_machine()
    program = program_factory()
    program.declare_on(machine)
    locator = DataLocator(machine, HitMissPredictor())
    config = WindowConfig(jobs=jobs, search_sample_instances=64)
    search = WindowSizeSearch(machine, locator, config)
    outcome = search.search(program, program.nests[0])
    return outcome.best_size, outcome.movement_by_size


@pytest.mark.parametrize("app", [_shared_operand_app, _chained_app])
def test_parallel_search_matches_serial(app):
    serial_best, serial_movement = _search(app, jobs=1)
    parallel_best, parallel_movement = _search(app, jobs=2)
    assert parallel_best == serial_best
    assert parallel_movement == serial_movement
    assert set(serial_movement) == set(range(1, 9))
