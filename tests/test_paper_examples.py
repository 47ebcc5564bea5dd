"""The paper's worked examples (Sections 3 and 5), on constructed geometry.

The paper's figures place data at specific mesh positions we cannot read
off, so these tests pin their own positions and assert exactly
hand-computed movement values, verifying the same effects: MST beats the
default star (Fig 9), level-based splitting respects parentheses (Fig 10),
and a multi-statement window exploits the L1 copy left by an earlier
subcomputation (Fig 11).
"""

import itertools
from typing import Dict

import numpy as np

from repro.arch.knl import small_machine
from repro.arch.machine import Machine
from repro.core.balancer import LoadBalancer
from repro.core.locator import DataLocator
from repro.core.scheduler import schedule_statement, star_cost
from repro.core.splitter import split_statement
from repro.core.vectorized import NestTables
from repro.core.window import WindowConfig, WindowScheduler
from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program
from repro.noc.topology import Coord, Mesh2D


class PinnedMachine(Machine):
    """A 6x6-mesh machine whose arrays are each homed on one chosen node.

    Without a predictor every operand's location is its home, so pinning
    the homes pins what the splitter and the scheduler's tables see.
    """

    def __init__(self, placement: Dict[str, Coord]):
        super().__init__(small_machine().config)
        self.mesh = Mesh2D(6, 6)  # wider mesh for the figures' geometry
        self._pinned = {
            name: self.mesh.id_of(coord) for name, coord in placement.items()
        }

    def home_node(self, name, index, owner_hint=None) -> int:
        return self._pinned[name]

    def home_node_map(self, name) -> np.ndarray:
        length = self.layout.spec(name).length
        return np.full(length, self._pinned[name], dtype=np.int64)


def build_program(statements, arrays, trip=1):
    program = Program("example")
    for name in arrays:
        program.declare(name, 64)
    program.add_nest(
        LoopNest.of(
            [Loop("i", 0, trip)],
            [parse_statement(s) for s in statements],
            "example",
        )
    )
    return program


def setup_single(statement: str, placement: Dict[str, Coord]):
    """(machine, locator, tables, first instance) of a one-statement loop."""
    machine = PinnedMachine(placement)
    program = build_program([statement], sorted(placement))
    program.declare_on(machine)
    nest = program.nests[0]
    tables = NestTables(program, nest, machine, None)
    tables.ensure(nest.instance_count)
    return machine, DataLocator(machine), tables, next(program.instances())


class TestFigure9SingleStatement:
    """A(i) = B(i)+C(i)+D(i)+E(i) with B/E and C/D pairwise close."""

    PLACEMENT = {
        "A": Coord(0, 0),
        "B": Coord(2, 0),   # 2 links from A
        "E": Coord(4, 0),   # 4 links from A, 2 from B
        "C": Coord(0, 4),   # 4 links from A
        "D": Coord(0, 2),   # 2 links from A, 2 from C
    }

    def setup_case(self):
        return setup_single("A(i) = B(i) + C(i) + D(i) + E(i)", self.PLACEMENT)

    def test_default_movement_is_star(self):
        machine, locator, tables, instance = self.setup_case()
        # All inputs travel to n_A: 2 + 4 + 2 + 4 = 12 links.
        assert star_cost(instance, tables) == 12

    def test_mst_movement(self):
        machine, locator, tables, instance = self.setup_case()
        split = split_statement(instance, locator)
        # MST: A-B (2), B-E (2), A-D (2), D-C (2) = 8 links.
        assert split.mst_weight == 8

    def test_subcomputations_execute_near_data(self):
        machine, locator, tables, instance = self.setup_case()
        split = split_statement(instance, locator)
        schedule = schedule_statement(
            split, tables, LoadBalancer(machine.node_count), itertools.count()
        )
        assert schedule.movement == 8
        final = next(s for s in schedule.subcomputations if s.is_final)
        assert final.node == machine.mesh.id_of(self.PLACEMENT["A"])
        # B+E combine away from A: at least one intermediate subcomputation.
        assert len(schedule.subcomputations) >= 2


class TestFigure10Parentheses:
    """A(i) = B(i) * (C(i) + D(i) + E(i)): the inner sum reduces first."""

    PLACEMENT = {
        "A": Coord(0, 0),
        "B": Coord(1, 0),
        "C": Coord(4, 0),
        "D": Coord(4, 1),
        "E": Coord(5, 1),
    }

    def setup_case(self):
        return setup_single("A(i) = B(i) * (C(i) + D(i) + E(i))", self.PLACEMENT)

    def test_default_movement(self):
        machine, locator, tables, instance = self.setup_case()
        # B:1 + C:4 + D:5 + E:6 = 16.
        assert star_cost(instance, tables) == 16

    def test_level_based_mst(self):
        machine, locator, tables, instance = self.setup_case()
        split = split_statement(instance, locator)
        # Inner set {C,D,E}: C-D (1) + D-E (1).  Outer: B attaches to the
        # component at its nearest member (C, distance 3), A-B (1) => 6.
        assert split.mst_weight == 6

    def test_inner_sum_before_multiply(self):
        machine, locator, tables, instance = self.setup_case()
        split = split_statement(instance, locator)
        schedule = schedule_statement(
            split, tables, LoadBalancer(machine.node_count), itertools.count()
        )
        add_subs = [s for s in schedule.subcomputations if s.op == "+" and s.op_count]
        mul_subs = [s for s in schedule.subcomputations if s.op == "*" and s.op_count]
        assert add_subs and mul_subs
        # The multiply consumes the additive component's result.
        add_uids = {s.uid for s in add_subs}
        consumed = {
            r.producer_uid for s in mul_subs for r in s.sub_results
        }
        assert add_uids & consumed or any(
            r.producer_uid in add_uids
            for s in schedule.subcomputations
            for r in s.sub_results
        )


class TestFigure11MultiStatementReuse:
    """S1: A=B+C+D+E, S2: X=Y+C.  C's fetch into n_D is reused by S2."""

    PLACEMENT = {
        "A": Coord(0, 0),
        "B": Coord(2, 0),
        "E": Coord(4, 0),
        "C": Coord(0, 4),
        "D": Coord(0, 2),
        "X": Coord(1, 2),
        "Y": Coord(1, 3),
    }

    def schedule(self, window_size: int):
        """The two-statement loop scheduled in ``window_size`` windows."""
        machine = PinnedMachine(self.PLACEMENT)
        program = build_program(
            ["A(i) = B(i) + C(i) + D(i) + E(i)", "X(i) = Y(i) + C(i)"],
            list("ABCDE") + ["X", "Y"],
        )
        program.declare_on(machine)
        scheduler = WindowScheduler(
            machine,
            DataLocator(machine),
            WindowConfig(always_split=True),
            LoadBalancer(machine.node_count),
        )
        return scheduler.schedule_nest(program, program.nests[0], window_size)

    def test_window_reuses_l1_copy(self):
        together = self.schedule(2)
        assert len(together.windows) == 1
        # Scheduling each statement in its own window loses the reuse.
        isolated = self.schedule(1)
        assert together.movement < isolated.movement

    def test_s2_gather_hits_l1(self):
        s2 = self.schedule(2).windows[0].schedules[1]
        c_gathers = [
            g
            for s in s2.subcomputations
            for g in s.gathered
            if g.access.array == "C"
        ]
        assert c_gathers and c_gathers[0].l1_hit
