"""The execution :class:`Backend` protocol and the simulator backend.

The compile pipeline produces schedules of
:class:`~repro.core.subcomputation.Subcomputation` units; a *backend* is
anything that can execute such a schedule on a machine and account for
the data movement it caused.  Two implementations ship:

* :class:`SimBackend` — wraps the event simulator
  (:class:`repro.sim.engine.Simulator`) unchanged.  The default; its
  numbers are bit-identical to calling ``Simulator.run`` directly.
* :class:`~repro.exec.runtime.RuntimeBackend` — a Parla-style task
  runtime that executes the units concurrently on host threads
  (DESIGN.md section 15).

Both report through :class:`ExecutionResult`: the same
``data_movement`` / per-link ``link_flits`` accounting as
:class:`~repro.sim.metrics.SimMetrics`, so a runtime execution can be
cross-checked against the simulator's forecast link by link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.machine import Machine
from repro.core.subcomputation import Subcomputation
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.metrics import SimMetrics

#: Backend names accepted by ``--backend`` everywhere (CLI, serve).
BACKEND_NAMES = ("sim", "runtime")


@dataclass
class ExecutionResult:
    """What one backend execution produced, in common accounting terms.

    ``data_movement`` and ``link_flits`` follow the paper's metric: one
    unit per flit per link traversed, with the per-link map summing
    exactly to the total (the :class:`~repro.noc.network.LinkStats`
    invariant).  ``metrics`` carries the full :class:`SimMetrics` when
    the backend was the simulator; the runtime backend fills the
    scheduler-observability fields instead.
    """

    backend: str
    data_movement: int = 0
    link_flits: Dict[Tuple[int, int], int] = field(default_factory=dict)
    sync_count: int = 0
    unit_count: int = 0
    #: Full simulator metrics (sim backend only).
    metrics: Optional[SimMetrics] = None
    #: Runtime-backend scheduler facts.
    workers: int = 0
    seed: Optional[int] = None
    tasks_executed: int = 0
    sync_violations: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Unit uids in observed completion order (runtime backend only) —
    #: the sync-order audit trail the property tests replay.
    completion_order: List[int] = field(default_factory=list)

    def to_json(self) -> Dict:
        """The report's ``execution`` section for this result."""
        payload: Dict = {"backend": self.backend}
        if self.backend == "sim":
            return payload
        payload.update(
            {
                "workers": self.workers,
                "seed": self.seed,
                "tasks_executed": self.tasks_executed,
                "observed_movement": self.data_movement,
                "sync_count": self.sync_count,
                "sync_violations": len(self.sync_violations),
                "wall_seconds": round(self.wall_seconds, 6),
            }
        )
        return payload


class Backend:
    """Protocol of an execution backend: a name plus :meth:`run`."""

    name: str

    def run(
        self, machine: Machine, units: Sequence[Subcomputation]
    ) -> ExecutionResult:
        """Execute ``units`` on ``machine``; returns the accounting."""
        raise NotImplementedError


class SimBackend(Backend):
    """The event simulator behind the :class:`Backend` protocol.

    A thin adapter: :meth:`run` is ``Simulator(machine).run``
    with the metrics re-exposed as an :class:`ExecutionResult`.  Nothing
    about the simulation changes — the default execution path stays
    bit-identical to pre-protocol behavior.
    """

    name = "sim"

    def run(
        self, machine: Machine, units: Sequence[Subcomputation]
    ) -> ExecutionResult:
        """Simulate ``units``; the full :class:`SimMetrics` ride along."""
        metrics = Simulator(machine).run(units)
        return ExecutionResult(
            backend=self.name,
            data_movement=metrics.data_movement,
            link_flits=dict(metrics.link_flits),
            sync_count=metrics.sync_count,
            unit_count=metrics.unit_count,
            metrics=metrics,
        )


def get_backend(name: str, **kwargs) -> Backend:
    """Construct the backend called ``name`` ('sim' or 'runtime').

    Keyword arguments are forwarded to the runtime backend's constructor
    (``workers=``, ``seed=``); the sim backend takes none.
    """
    if name == "sim":
        if kwargs:
            raise ConfigurationError(
                f"the sim backend takes no options, got {sorted(kwargs)}"
            )
        return SimBackend()
    if name == "runtime":
        from repro.exec.runtime import RuntimeBackend

        return RuntimeBackend(**kwargs)
    raise ConfigurationError(
        f"unknown backend {name!r}; choose one of {', '.join(BACKEND_NAMES)}"
    )
