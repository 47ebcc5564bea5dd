"""Regression tests for the perf-layer caches added on top of the geometry
tables: XY-route memoization, instance-stream memoization (and its
invalidation), gate schedule reuse, and the gate's early rejection."""

from __future__ import annotations

import pickle

from repro.arch.knl import small_machine
from repro.cache.predictor import HitMissPredictor
from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program
from repro.noc.routing import xy_route_links, xy_route_links_cached, xy_route_nodes
from repro.noc.topology import Mesh2D


class TestRouteCache:
    def test_cached_routes_match_fresh_walk(self):
        mesh = Mesh2D(5, 3)
        for src in range(mesh.node_count):
            for dst in range(mesh.node_count):
                cached = xy_route_links_cached(mesh, src, dst)
                assert list(cached) == [
                    (nodes[i], nodes[i + 1])
                    for nodes in [xy_route_nodes(mesh, src, dst)]
                    for i in range(len(nodes) - 1)
                ]
                assert len(cached) == mesh.distance(src, dst)

    def test_cached_route_is_shared_and_immutable(self):
        mesh = Mesh2D(4, 4)
        first = xy_route_links_cached(mesh, 0, 15)
        second = xy_route_links_cached(mesh, 0, 15)
        assert first is second
        assert isinstance(first, tuple)

    def test_public_api_still_returns_fresh_lists(self):
        mesh = Mesh2D(4, 4)
        a = xy_route_links(mesh, 1, 14)
        b = xy_route_links(mesh, 1, 14)
        assert a == b
        assert a is not b
        a.append(("corrupted", "entry"))
        assert xy_route_links(mesh, 1, 14) == b


def _indirect_program() -> Program:
    program = Program("irr")
    program.declare("X", 64)
    program.declare("Y", 64)
    program.declare("IDX", 64)
    program.set_index_data("IDX", list(range(64)))
    stmt = parse_statement("X(i) = Y(IDX(i))")
    program.add_nest(LoopNest.of([Loop("i", 0, 16)], [stmt], "main"))
    return program


class TestInstanceStreamCache:
    def test_replay_equals_first_generation(self):
        program = _indirect_program()
        first = list(program.nest_instances(program.nests[0]))
        second = list(program.nest_instances(program.nests[0]))
        assert first == second
        assert (program.nests[0].name, 0) in program._instance_cache

    def test_partial_iteration_does_not_cache(self):
        program = _indirect_program()
        stream = program.nest_instances(program.nests[0])
        next(stream)
        del stream
        assert (program.nests[0].name, 0) not in program._instance_cache

    def test_set_index_data_invalidates(self):
        program = _indirect_program()
        before = list(program.nest_instances(program.nests[0]))
        program.set_index_data("IDX", list(reversed(range(64))))
        after = list(program.nest_instances(program.nests[0]))
        assert before != after
        assert [a.reads[0].index for a in after] == [
            63 - b.reads[0].index for b in before
        ]

    def test_pickling_drops_the_cache(self):
        program = _indirect_program()
        list(program.nest_instances(program.nests[0]))
        clone = pickle.loads(pickle.dumps(program))
        assert clone._instance_cache == {}
        assert list(clone.nest_instances(clone.nests[0])) == list(
            program.nest_instances(program.nests[0])
        )


def _canonical_units(units):
    """Units with uids replaced by their rank: reuse shifts absolute uids
    (gate measures consume counter values), but every consumer depends only
    on the relative order, so canonicalized schedules must be identical."""
    rank = {
        uid: i for i, uid in enumerate(sorted(u.uid for u in units))
    }
    return [
        (
            rank[u.uid],
            u.seq,
            u.node,
            u.op,
            u.op_count,
            u.cost,
            u.gathered,
            tuple(
                (rank[r.producer_uid], r.from_node, r.hops)
                for r in u.sub_results
            ),
            u.store,
        )
        for u in units
    ]


class TestGateScheduleReuse:
    def _gated_program(self):
        from repro.ir.loop import Loop, LoopNest

        p = Program("gated")
        n = 128
        for phase, name in ((2, "B"), (5, "C"), (8, "D")):
            p.declare(name, 8 * n + 16, bank_phase=phase)
        p.declare("A", 4 * n + 16, bank_phase=11)
        p.add_nest(
            LoopNest.of(
                [Loop("t", 0, 2), Loop("i", 0, n)],
                [parse_statement("A(4*i) = B(8*i) + C(8*i) + D(8*i)")],
                "main",
            )
        )
        return p

    def test_reused_schedule_matches_memoization_free_path(self, monkeypatch):
        """End-to-end: adopting the gate's winning schedule and redoing the
        final search and scheduling from scratch must agree on everything
        but absolute uid values."""
        from repro.core.partitioner import NdpPartitioner, PartitionConfig
        from repro.core.window import WindowSizeSearch
        from repro.pipeline.passes import SchedulePass
        from repro.sim.engine import run_schedule

        choose = SchedulePass._choose_nest_plan
        search = WindowSizeSearch.search
        final_searches = []

        def counted_search(self, *args):
            final_searches.append(1)
            return search(self, *args)

        monkeypatch.setattr(WindowSizeSearch, "search", counted_search)

        def without_reuse(self, *args):
            plan, variant, _ = choose(self, *args)
            return plan, variant, None

        results = []
        for reuse in (True, False):
            if not reuse:
                monkeypatch.setattr(SchedulePass, "_choose_nest_plan", without_reuse)
            machine = small_machine()
            partitioner = NdpPartitioner(machine, PartitionConfig())
            partitioner.predictor = HitMissPredictor()
            result = partitioner.partition(self._gated_program())
            machine.mcdram.reset()
            metrics = run_schedule(machine, result.units())
            results.append((result, metrics))
            # The reusing compile adopts the gate's schedule; the other one
            # redoes the final search.
            assert len(final_searches) == (0 if reuse else 1)
        (fast, fast_metrics), (slow, slow_metrics) = results
        assert fast.variant_by_nest == slow.variant_by_nest
        assert fast.window_sizes == slow.window_sizes
        assert fast.movement_by_size == slow.movement_by_size
        assert fast.movement == slow.movement
        assert fast.per_statement_movement() == slow.per_statement_movement()
        assert _canonical_units(fast.units()) == _canonical_units(slow.units())
        assert fast_metrics.total_cycles == slow_metrics.total_cycles
        assert fast_metrics.data_movement == slow_metrics.data_movement
        assert fast_metrics.energy_pj == slow_metrics.energy_pj


class TestGateEarlyRejection:
    """A candidate the gate's bound stops mid-nest, followed by a winner.

    The profile plan (split the first statement only) provably loses
    halfway through the nest and is dropped; the all-split plan then wins.
    Measuring every candidate in full (check mode) must give the same
    verdict and the same schedule up to absolute uids: each candidate draws
    uids from its own counter, so an aborted measure cannot shift the
    winner's.
    """

    PLAN = {("kernel", 0): True, ("kernel", 1): False}

    @staticmethod
    def _program():
        from repro.workloads.base import nest, permutation_index

        n = 64
        p = Program("gate_bound")
        for name, phase in (("A", 3), ("B", 7), ("C", 10)):
            p.declare(name, 2 * n + 8, bank_phase=phase)
        permutation_index(p, "IX", 4 * n + 4, 1, "gate-bound-ix")
        p.add_nest(
            nest(
                "kernel",
                [Loop("t", 0, 2), Loop("i", 0, n)],
                [
                    "A(2*i) = B(IX(4*i)) + B(IX(4*i+1))",
                    "C(2*i) = B(IX(4*i+2)) + A(2*i)",
                ],
            )
        )
        return p

    def _compile(self, monkeypatch, check_mode=False):
        import io
        import json

        from repro import check
        from repro.core.partitioner import NdpPartitioner, PartitionConfig
        from repro.obs.tracer import tracing
        from repro.sim.engine import run_schedule

        monkeypatch.setattr(
            "repro.pipeline.passes.build_split_plan",
            lambda profiles, bias: dict(self.PLAN),
        )
        machine = small_machine()
        partitioner = NdpPartitioner(
            machine, PartitionConfig(gate_movement_tolerance=3.0)
        )
        partitioner.predictor = HitMissPredictor()
        sink = io.StringIO()
        with tracing(sink), check.checking(check_mode):
            result = partitioner.partition(self._program())
        machine.mcdram.reset()
        metrics = run_schedule(machine, result.units())
        candidates = {
            event["data"]["variant"]: event["data"]
            for event in map(json.loads, sink.getvalue().splitlines())
            if event["name"] == "gate.candidate"
        }
        return result, metrics, candidates

    def test_aborted_candidate_then_winner(self, monkeypatch):
        fast, fast_metrics, bounded = self._compile(monkeypatch)
        profile = bounded["profile"]
        assert profile["stopped_early"] is True
        assert profile["accepted"] is False
        assert "cycles" not in profile and "movement" not in profile
        assert 0 < profile["units_measured"] < bounded["star"]["units_measured"]
        assert profile["cycles_at_least"] >= bounded["star"]["cycles"]
        assert bounded["split"]["accepted"] is True
        assert fast.variant_by_nest == {"kernel": "split"}

        full, full_metrics, measured = self._compile(monkeypatch, check_mode=True)
        # Measured in full: the profile plan still loses, on its totals.
        assert "stopped_early" not in measured["profile"]
        assert measured["profile"]["accepted"] is False
        assert measured["profile"]["cycles"] >= profile["cycles_at_least"]
        assert measured["profile"]["movement"] >= profile["movement_at_least"]
        assert full.variant_by_nest == fast.variant_by_nest
        assert full.window_sizes == fast.window_sizes
        assert full.movement_by_size == fast.movement_by_size
        assert full.per_statement_movement() == fast.per_statement_movement()
        assert _canonical_units(full.units()) == _canonical_units(fast.units())
        assert full_metrics == fast_metrics
