"""Backend-protocol tests: SimBackend adapter, RuntimeBackend contract.

The load-bearing assertions:

* the sim backend is a *pure adapter* — identical numbers to calling
  ``Simulator.run`` directly;
* the runtime backend's observed movement agrees with the simulator's
  forecast (exactly at one unseeded worker, within
  ``MOVEMENT_AGREEMENT_TOLERANCE`` at four workers) and never violates
  sync order: every cross-node dependency completes before its consumer
  in the observed completion order;
* seeded scheduling is reproducible, and property-holds across seeds.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch.knl import small_machine
from repro.cache.hierarchy import CacheSystem
from repro.core.codegen import task_specs
from repro.errors import ConfigurationError
from repro.exec import BACKEND_NAMES, SimBackend, get_backend
from repro.exec.backend import ExecutionResult
from repro.exec.runtime import (
    MOVEMENT_AGREEMENT_TOLERANCE,
    RuntimeBackend,
    movement_agreement,
)
from repro.pipeline import DEFAULT_PASS_ORDER, PassManager, compile_program, session_for
from repro.sim.engine import SimConfig, Simulator


@pytest.fixture
def compiled(declared):
    """(machine, units) for the conftest tiny program, compiled once."""
    machine, program = declared
    partition = compile_program(program, session_for(machine))
    return machine, partition.units()


def run_runtime(machine, units, **kwargs):
    machine.mcdram.reset()
    return RuntimeBackend(**kwargs).run(machine, units)


def sim_forecast(machine, units):
    machine.mcdram.reset()
    return SimBackend().run(machine, units)


def assert_sync_order_valid(execution, units):
    """Every cross-node dependency precedes its consumer in completion order."""
    assert execution.sync_violations == []
    position = {uid: k for k, uid in enumerate(execution.completion_order)}
    node_of = {spec.uid: spec.node for spec in task_specs(units)}
    checked = 0
    for spec in task_specs(units):
        for producer in spec.deps:
            if node_of[producer] != spec.node:
                assert position[producer] < position[spec.uid]
                checked += 1
    return checked


class TestGetBackend:
    def test_names_constant(self):
        assert BACKEND_NAMES == ("sim", "runtime")

    def test_sim_and_runtime_resolve(self):
        assert get_backend("sim").name == "sim"
        backend = get_backend("runtime", workers=1, seed=3)
        assert backend.name == "runtime"
        assert backend.workers == 1 and backend.seed == 3

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            get_backend("verilator")

    def test_sim_rejects_runtime_options(self):
        with pytest.raises(ConfigurationError, match="no options"):
            get_backend("sim", workers=2)

    def test_runtime_validates_options_eagerly(self):
        from repro.exec import TaskError

        with pytest.raises(TaskError, match="workers=1"):
            get_backend("runtime", workers=4, seed=1)


class TestSimBackendAdapter:
    def test_matches_direct_simulator_run(self, compiled):
        machine, units = compiled
        machine.mcdram.reset()
        direct = Simulator(machine, SimConfig()).run(units)
        result = sim_forecast(machine, units)
        assert result.backend == "sim"
        assert result.data_movement == direct.data_movement
        assert result.sync_count == direct.sync_count
        assert result.unit_count == direct.unit_count
        assert result.link_flits == dict(direct.link_flits)
        assert result.metrics is not None

    def test_link_flits_decompose_total(self, compiled):
        machine, units = compiled
        result = sim_forecast(machine, units)
        assert sum(result.link_flits.values()) == result.data_movement

    def test_to_json_is_name_only(self):
        assert ExecutionResult(backend="sim", data_movement=7).to_json() == {
            "backend": "sim"
        }

    def test_runtime_to_json_shape(self):
        payload = ExecutionResult(
            backend="runtime", data_movement=10, sync_count=2,
            workers=1, seed=5, tasks_executed=3, wall_seconds=0.1234567,
        ).to_json()
        assert payload == {
            "backend": "runtime",
            "workers": 1,
            "seed": 5,
            "tasks_executed": 3,
            "observed_movement": 10,
            "sync_count": 2,
            "sync_violations": 0,
            "wall_seconds": 0.123457,
        }


class TestRuntimeBackend:
    def test_single_worker_agrees_exactly_with_forecast(self, compiled):
        machine, units = compiled
        forecast = sim_forecast(machine, units)
        execution = run_runtime(machine, units, workers=1)
        assert execution.tasks_executed == len(units)
        assert execution.sync_count == forecast.sync_count
        assert movement_agreement(
            execution.data_movement, forecast.data_movement
        ) == 0.0
        assert sum(execution.link_flits.values()) == execution.data_movement

    def test_both_backends_consume_the_one_cache_walk(self, compiled, monkeypatch):
        """Planted drift: a walk that drops the MC leg moves both totals
        down together, so one-worker agreement stays exact."""
        machine, units = compiled
        forecast = sim_forecast(machine, units)
        execution = run_runtime(machine, units, workers=1)
        real_walk = CacheSystem.walk

        def walk_without_mc_leg(self, *args, **kwargs):
            home, _mc = real_walk(self, *args, **kwargs)
            return home, None

        monkeypatch.setattr(CacheSystem, "walk", walk_without_mc_leg)
        drifted_forecast = sim_forecast(machine, units)
        drifted = run_runtime(machine, units, workers=1)
        assert drifted_forecast.data_movement < forecast.data_movement
        assert drifted.data_movement < execution.data_movement
        assert movement_agreement(
            drifted.data_movement, drifted_forecast.data_movement
        ) == 0.0

    def test_multi_worker_agrees_within_tolerance(self, compiled):
        machine, units = compiled
        forecast = sim_forecast(machine, units)
        execution = run_runtime(machine, units, workers=4)
        agreement = movement_agreement(
            execution.data_movement, forecast.data_movement
        )
        assert agreement <= MOVEMENT_AGREEMENT_TOLERANCE
        assert_sync_order_valid(execution, units)

    def test_sync_order_valid_unseeded(self, compiled):
        machine, units = compiled
        execution = run_runtime(machine, units, workers=1)
        assert_sync_order_valid(execution, units)

    def test_same_seed_same_completion_order(self, compiled):
        machine, units = compiled
        first = run_runtime(machine, units, workers=1, seed=11)
        second = run_runtime(machine, units, workers=1, seed=11)
        assert first.completion_order == second.completion_order
        assert first.data_movement == second.data_movement

    @settings(
        max_examples=8,
        deadline=None,
        # Sharing the compiled fixture across examples is deliberate:
        # the units are immutable and every run builds fresh caches.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.integers(min_value=0, max_value=2**16))
    def test_any_seed_preserves_sync_order(self, compiled, seed):
        """Property (satellite 3): scrambled dispatch never lets a
        cross-node consume run ahead of its sync dependency."""
        machine, units = compiled
        execution = run_runtime(machine, units, workers=1, seed=seed)
        assert_sync_order_valid(execution, units)


class TestMovementAgreement:
    def test_zero_forecast_zero_observed(self):
        assert movement_agreement(0, 0) == 0.0

    def test_zero_forecast_nonzero_observed_is_infinite(self):
        assert movement_agreement(5, 0) == float("inf")

    def test_relative_error(self):
        assert movement_agreement(105, 100) == pytest.approx(0.05)
        assert movement_agreement(95, 100) == pytest.approx(0.05)


class TestExecutePass:
    def test_execute_pass_fills_artifacts(self, declared):
        machine, program = declared
        session = session_for(
            machine, pass_order=DEFAULT_PASS_ORDER + ("execute",)
        )
        artifacts = PassManager(session).run(program)
        execution = artifacts["execution"]
        assert execution.backend == "sim"
        assert execution.unit_count == len(artifacts["partition"].units())

    def test_execute_pass_honors_backend_artifact(self, declared):
        machine, program = declared
        session = session_for(
            machine, pass_order=DEFAULT_PASS_ORDER + ("execute",)
        )
        artifacts = PassManager(session).run(
            program,
            initial={
                "backend": "runtime",
                "backend_options": {"workers": 1},
            },
        )
        execution = artifacts["execution"]
        assert execution.backend == "runtime"
        assert execution.sync_violations == []

    def test_execute_pass_is_not_in_default_order(self):
        assert "execute" not in DEFAULT_PASS_ORDER

    def test_execute_pass_skippable(self, declared):
        machine, program = declared
        session = session_for(
            machine,
            pass_order=DEFAULT_PASS_ORDER + ("execute",),
            skip_passes=("execute",),
        )
        artifacts = PassManager(session).run(program)
        assert "execution" not in artifacts


class TestPaperWorkloads:
    """The acceptance criterion: all five paper workloads execute on the
    runtime backend with zero sync violations and movement agreement
    within the documented tolerance (exact at one unseeded worker)."""

    APPS = ("minimd", "ocean", "fft", "lu", "radix")

    @pytest.mark.parametrize("app", APPS)
    def test_runtime_agrees_with_sim_forecast(self, app):
        from repro.experiments.common import run_optimized

        partition, metrics, machine = run_optimized(app)
        units = partition.units()
        execution = run_runtime(machine, units, workers=1)
        assert_sync_order_valid(execution, units)
        agreement = movement_agreement(
            execution.data_movement, metrics.data_movement
        )
        assert agreement <= MOVEMENT_AGREEMENT_TOLERANCE
        assert execution.sync_count == metrics.sync_count
