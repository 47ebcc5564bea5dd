"""The Parla-style concurrent execution backend (DESIGN.md section 15).

:class:`RuntimeBackend` executes a schedule of
:class:`~repro.core.subcomputation.Subcomputation` units as a real task
graph on host threads: each unit becomes a task in a
:class:`~repro.exec.taskspace.TaskSpace`, its ``sub_results`` producers
become task dependencies (the cross-node subset is exactly what the
generated listing renders as ``sync(...)`` waits), and the simulator's
memory-order arcs (flow/anti/output, :class:`repro.sim.engine.MemoryOrder`) are
added so runtime execution respects the same ordering the simulator
enforces.

Each task runs its unit at the unit's mesh node.  Data movement is
observed as tasks run: a :class:`DataStore` tracks where blocks live —
bounded per-node replica sets with the machine's own L1/L2 cache
geometry, homed at the SNUCA bank, served by the same
:meth:`~repro.cache.hierarchy.CacheSystem.walk` the simulator uses — and
every remote fill or cross-node result message is charged as XY-route
flit-hops through a :class:`~repro.noc.traffic.TrafficMatrix`, the same
per-link accounting the simulator uses.  The two backends' movement
totals therefore differ only where their dispatch orders do (see
:data:`MOVEMENT_AGREEMENT_TOLERANCE`).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.arch.machine import Machine
from repro.cache.hierarchy import CacheSystem
from repro.core.codegen import TaskSpec, task_specs
from repro.core.subcomputation import Subcomputation
from repro.exec.backend import Backend, ExecutionResult
from repro.exec.taskspace import TaskRuntime, TaskSpace, spawn
from repro.ir.statement import Access
from repro.noc.traffic import TrafficMatrix
from repro.sim.engine import MemoryOrder

#: Documented relative tolerance for the movement-agreement check:
#: ``|runtime_observed - sim_forecast| <= tolerance * sim_forecast``.
#: A single unseeded worker replays the simulator's dispatch order
#: (ready tasks popped by ``(seq, uid)``), so its observed movement is
#: *exactly* the forecast — measured 0.0 disagreement on all five paper
#: workloads (minimd, ocean, fft, lu, radix).  With ``workers > 1`` the
#: OS interleaving perturbs the replica caches' fill order; measured
#: disagreement at 4 workers stays under 0.7% on the same workloads, so
#: 0.05 absorbs scheduling jitter with margin.  Both backends charge
#: accesses through the one cache walk, so the tolerance guards dispatch
#: order, not a second copy of the charging rule; dropping the result
#: messages still shifts totals by 10%+.  Seeded-random dispatch is
#: *excluded* from this contract: its whole point is to scramble the
#: execution order, which legitimately changes what the bounded replica
#: caches observe.
MOVEMENT_AGREEMENT_TOLERANCE = 0.05


class DataStore:
    """Where data lives while tasks execute: bounded replica residency.

    The runtime's observation substrate.  Each node's replica set is a
    real :class:`~repro.cache.hierarchy.CacheSystem` with the machine's
    own L1/L2 geometry (bounded LRU lines, SNUCA home banks), so the
    movement a task causes is what the machine would cause, not what an
    unbounded directory would.  Its :meth:`CacheSystem.walk` names the
    legs (none on a replica hit, home -> node on a home-bank hit,
    MC -> home -> node on a cold or evicted block; stores write-allocate)
    and the store charges each as XY flit-hops.

    All charging happens under one lock: task bodies on many worker
    threads share the caches and the traffic matrix, and neither is
    thread-safe on its own.
    """

    def __init__(self, machine: Machine, traffic: TrafficMatrix):
        self.traffic = traffic
        self.caches = CacheSystem(machine)
        self._lock = threading.Lock()

    def _charge(self, src: int, dst: int) -> int:
        """Record one block message ``src -> dst`` (0 hops if local)."""
        if src == dst:
            return 0
        return self.traffic.record(src, dst)

    def access(self, access: Access, node: int) -> int:
        """Touch ``access`` at ``node``; returns the flit-hops charged.

        Reads and stores take the same cache walk as the simulator's.
        """
        with self._lock:
            home, mc = self.caches.walk(node, access.array, access.index)
            if home is None:
                return 0
            if mc is None:
                return self._charge(home, node)
            return self._charge(mc, home) + self._charge(home, node)

    def result_message(self, producer_node: int, consumer_node: int) -> int:
        """Charge a cross-node subresult message; returns flit-hops."""
        with self._lock:
            return self._charge(producer_node, consumer_node)


class RuntimeBackend(Backend):
    """Concurrent host-thread execution of a subcomputation schedule.

    ``workers=1, seed=<n>`` is the reproducible mode: one worker, seeded
    ready-queue tie-breaking, so the completion order (and therefore the
    residency-protocol charge sequence) is identical across runs.  With
    ``workers > 1`` the interleaving is real OS-thread concurrency; the
    total movement may then vary slightly run to run (a different
    replica set can serve a read), which is exactly the runtime truth
    the agreement tolerance has to absorb.
    """

    name = "runtime"

    def __init__(self, workers: int = 4, seed: Optional[int] = None):
        # Validate eagerly with TaskRuntime's own rules.
        TaskRuntime(workers=workers, seed=seed)
        self.workers = workers
        self.seed = seed

    def run(
        self, machine: Machine, units: Sequence[Subcomputation]
    ) -> ExecutionResult:
        """Execute ``units`` concurrently; returns observed accounting."""
        specs = task_specs(units)
        node_of: Dict[int, int] = {spec.uid: spec.node for spec in specs}
        traffic = TrafficMatrix(machine.mesh, router=machine.router)
        store = DataStore(machine, traffic)
        space = TaskSpace("U")

        sync_total = [0]
        sync_lock = threading.Lock()

        # Ordering arcs beyond dataflow: the simulator's memory-order
        # arcs (flow/anti/output from a last-writer scan), kept as a
        # per-consumer *list* because each cross-node arc is one
        # synchronization — the same edge-level count the simulator
        # reports.  Arcs to uids outside this unit set (possible on
        # partial schedules) are dropped.
        order_deps: Dict[int, List[int]] = {}
        for producer, consumer, _is_flow in MemoryOrder().add(units):
            if producer in node_of and consumer in node_of:
                order_deps.setdefault(consumer, []).append(producer)

        def make_body(spec: TaskSpec):
            def body() -> int:
                moved = 0
                syncs = 0
                # Child results: a cross-node producer's result arrives
                # as a message (movement) behind a point-to-point sync.
                for producer_uid in spec.deps:
                    producer_node = node_of.get(producer_uid, spec.node)
                    if producer_node != spec.node:
                        moved += store.result_message(producer_node, spec.node)
                        syncs += 1
                # Memory-order predecessors: cross-node ones are a sync
                # wait only — their data (if any) flows through the
                # residency protocol when this task reads.
                for producer_uid in order_deps.get(spec.uid, ()):
                    if node_of[producer_uid] != spec.node:
                        syncs += 1
                for access in spec.reads:
                    moved += store.access(access, spec.node)
                if spec.store is not None:
                    moved += store.access(spec.store, spec.node)
                if syncs:
                    with sync_lock:
                        sync_total[0] += syncs
                return moved

            return body

        for spec in specs:
            deps = set(spec.deps) | set(order_deps.get(spec.uid, ()))
            deps.discard(spec.uid)
            handles = [space[d] for d in sorted(deps) if d in node_of]
            spawn(
                space[spec.uid],
                dependencies=handles,
                # Dispatch ready tasks in (seq, uid) order — the same
                # tie-break the simulator's ready heap uses, so the
                # unseeded single-worker run replays its access order.
                priority=(spec.seq, spec.uid),
            )(make_body(spec))

        runtime = TaskRuntime(workers=self.workers, seed=self.seed)
        started = time.perf_counter()
        runtime.run(space)
        wall = time.perf_counter() - started

        return ExecutionResult(
            backend=self.name,
            data_movement=traffic.total_flit_hops,
            link_flits={
                (link.src, link.dst): link.flits for link in traffic.links()
            },
            sync_count=sync_total[0],
            unit_count=len(specs),
            workers=self.workers,
            seed=self.seed,
            tasks_executed=len(runtime.completion_order),
            sync_violations=list(runtime.violations),
            wall_seconds=wall,
            completion_order=_uids_from_order(runtime.completion_order),
        )


def _uids_from_order(order: Sequence[str]) -> List[int]:
    """Recover unit uids from the runtime's qualified task names.

    Names look like ``U[42]`` (see :class:`TaskHandle.name`); the uid is
    the bracketed repr of the integer key.
    """
    uids: List[int] = []
    for name in order:
        open_idx = name.index("[")
        uids.append(int(name[open_idx + 1 : -1]))
    return uids


def movement_agreement(observed: int, forecast: int) -> float:
    """Relative disagreement between runtime-observed and sim movement.

    ``0.0`` is perfect agreement; compare against
    :data:`MOVEMENT_AGREEMENT_TOLERANCE`.  When the forecast is zero the
    runtime must also observe zero (any observed flit-hop is infinite
    disagreement, represented as ``float('inf')``).
    """
    if forecast == 0:
        return 0.0 if observed == 0 else float("inf")
    return abs(observed - forecast) / forecast
