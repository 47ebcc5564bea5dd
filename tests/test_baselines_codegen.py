"""Tests for baselines (default placement, locality, data mapping, ideal)
and the code generator."""

import pytest

from repro.arch.knl import small_machine
from repro.baselines.data_mapping import preferred_mc, profile_page_mc_mapping
from repro.baselines.default_placement import DefaultPlacement
from repro.baselines.ideal import (
    OracleL2Predictor,
    ideal_network_config,
    partition_with_ideal_analysis,
)
from repro.baselines.locality import block_cyclic_placement, llc_locality_placement
from repro.core.codegen import generate_code
from repro.core.partitioner import NdpPartitioner, PartitionConfig
from repro.sim.engine import SimConfig, run_schedule


class TestDefaultPlacement:
    def test_every_instance_assigned(self, machine, tiny_program):
        result = DefaultPlacement(machine).place(tiny_program)
        assert len(result.node_of_seq) == tiny_program.total_instances()
        assert result.unit_count == tiny_program.total_instances()

    def test_nodes_in_range(self, machine, tiny_program):
        result = DefaultPlacement(machine).place(tiny_program)
        assert all(0 <= n < machine.node_count for n in result.node_of_seq.values())

    def test_chunks_are_contiguous(self, machine, tiny_program):
        result = DefaultPlacement(machine).place(tiny_program)
        # Statements of the same iteration stay on the same node.
        for seq in range(0, tiny_program.total_instances(), 2):
            assert result.node_of_seq[seq] == result.node_of_seq[seq + 1]

    def test_units_gather_all_reads(self, machine, tiny_program):
        result = DefaultPlacement(machine).place(tiny_program)
        first = result.units[0]
        assert len(first.gathered) == 4  # A = B + C + D + E
        assert first.store is not None

    def test_assignment_matches_place(self, machine, tiny_program):
        placement = DefaultPlacement(machine)
        import copy

        by_place = placement.place(copy.deepcopy(tiny_program)).node_of_seq
        by_assign = DefaultPlacement(machine).assignment(copy.deepcopy(tiny_program))
        assert by_place == by_assign

    def test_deterministic(self, machine, tiny_program):
        import copy

        a = DefaultPlacement(machine).place(copy.deepcopy(tiny_program)).node_of_seq
        b = DefaultPlacement(machine).place(copy.deepcopy(tiny_program)).node_of_seq
        assert a == b


class TestLocalityPlacements:
    def test_llc_locality_owner_computes(self, machine, tiny_program):
        result = llc_locality_placement(machine, tiny_program)
        for unit in result.units[:8]:
            home = machine.home_node(unit.store.array, unit.store.index)
            assert unit.node == home

    def test_block_cyclic_spreads(self, machine, tiny_program):
        result = block_cyclic_placement(machine, tiny_program, block=2)
        assert result.nodes_used() > 1


class TestDataMapping:
    def test_preferred_mc_is_nearest_corner(self, machine):
        for node in range(machine.node_count):
            mc = preferred_mc(machine, node)
            assert mc in machine.mc_nodes
            best = min(machine.distance(node, c) for c in machine.mc_nodes)
            assert machine.distance(node, mc) == best

    def test_mapping_covers_touched_pages(self, machine, tiny_program):
        placement = DefaultPlacement(machine).place(tiny_program)
        mapping = profile_page_mc_mapping(machine, placement.units)
        assert mapping
        assert all(mc in machine.mc_nodes for mc in mapping.values())

    def test_mapping_usable_by_simulator(self, machine, tiny_program):
        placement = DefaultPlacement(machine).place(tiny_program)
        mapping = profile_page_mc_mapping(machine, placement.units)
        metrics = run_schedule(machine, placement.units, SimConfig(mc_override=mapping))
        assert metrics.unit_count == placement.unit_count


class TestIdealScenarios:
    def test_ideal_network_config(self):
        config = ideal_network_config()
        assert config.ideal_network

    def test_oracle_predictor_accuracy(self, declared):
        machine, _ = declared
        oracle = OracleL2Predictor(machine)
        address = machine.layout.pa_of("A", 0)
        neighbour = machine.layout.pa_of("A", 1)  # same L2 block
        assert oracle.predict(address) is False   # never seen: cold miss
        oracle.train(address, False)
        oracle.train(neighbour, True)
        assert oracle.predict(address) is False   # 1 of 2: a tie is a miss
        oracle.train(address, True)
        assert oracle.predict(address) is True    # 2 of 3 hit
        # Predicting never changes a verdict; only train writes the table.
        assert [oracle.predict(address) for _ in range(3)] == [True] * 3
        assert list(oracle.predict_many([address, neighbour, 1 << 40])) == [
            True,
            True,
            False,
        ]
        assert oracle.accuracy() == pytest.approx(2 / 3)

    def test_oracle_trains_on_the_whole_stream(self, machine, tiny_program):
        """The ideal config trains past the default 4000-instance prefix."""
        from repro.core.partitioner import train_predictor

        tiny_program.declare_on(machine)
        oracle = OracleL2Predictor(machine)
        train_predictor(machine, tiny_program, oracle, tiny_program.total_instances())
        accesses = sum(
            len(instance.accesses()) for instance in tiny_program.instances()
        )
        assert sum(oracle._total.values()) == accesses

    def test_ideal_analysis_partition_runs(self, machine, tiny_program):
        result = partition_with_ideal_analysis(machine, tiny_program)
        assert result.statement_count == tiny_program.total_instances()

    def test_ideal_analysis_is_deterministic(self, tiny_program):
        first = partition_with_ideal_analysis(small_machine(), tiny_program)
        second = partition_with_ideal_analysis(small_machine(), tiny_program)
        assert first.split_plan == second.split_plan
        assert first.window_sizes == second.window_sizes
        assert first.per_statement_movement() == second.per_statement_movement()
        assert [
            (u.uid, u.seq, u.node, u.gathered, u.sub_results)
            for u in first.units()
        ] == [
            (u.uid, u.seq, u.node, u.gathered, u.sub_results)
            for u in second.units()
        ]


class TestCodegen:
    def make_schedules(self, machine, program):
        config = PartitionConfig(
            split_plan_override={("main", 0): True, ("main", 1): True},
            use_predictor=False,
        )
        result = NdpPartitioner(machine, config).partition(program)
        return list(result.nest_schedules["main"].statement_schedules())

    def test_listing_structure(self, machine, tiny_program):
        schedules = self.make_schedules(machine, tiny_program)[:2]
        code = generate_code(schedules)
        listing = code.listing()
        assert "Node" in listing
        assert "=" in listing
        assert code.line_count() > 0

    def test_sync_lines_for_cross_node_results(self, machine, tiny_program):
        schedules = self.make_schedules(machine, tiny_program)
        code = generate_code(schedules)
        has_cross_node = any(
            r.from_node != s.node
            for schedule in schedules
            for s in schedule.subcomputations
            for r in s.sub_results
        )
        if has_cross_node:
            assert "sync(" in code.listing()

    def test_store_targets_present(self, machine, tiny_program):
        schedules = self.make_schedules(machine, tiny_program)[:4]
        listing = generate_code(schedules).listing()
        assert "A[" in listing and "X[" in listing
