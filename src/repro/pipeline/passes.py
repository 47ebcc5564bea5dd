"""The registered compiler passes (the paper's §4 flow, made explicit).

Every stage of the compile flow is a named :class:`Pass` in
:data:`PASS_REGISTRY`.  The default order reproduces the historical
``NdpPartitioner.partition`` behaviour bit-for-bit; the win is that the
stages are now independently timeable, skippable
(``repro.cli report --skip-pass balance``), reorderable, and extensible
without touching the core modules.

========  ==============  ==========================  =====================
pass      paper section   what it does                module
========  ==============  ==========================  =====================
profile   §6.1            array access profiling      core.profiling
predict   §4.1            L2 hit/miss predictor       cache.predictor
inspect   §4.5            inspector for irregular     ir.inspector
split     §4.2            MST split planning          core.profiling
schedule  §4.3–4.4        gate + window scheduling    core.window
balance   §4.5 (inline)   load balancing (10% rule)   core.balancer
sync      §4.5 (inline)   sync minimization           core.syncgraph
codegen   §4.5, Fig 8     per-node code (on demand)   core.codegen
========  ==============  ==========================  =====================

``balance`` and ``sync_minimize`` are *inline* passes: their work happens
inside the window scheduler's hot loop, so their ``run`` methods are
no-ops and skipping them flips a flag the scheduler consults
(:meth:`CompilationSession.pass_enabled`).  ``codegen`` is registered but
not part of the default order — rendering per-node listings for every
unit is paid only when asked for.

Artifacts flow between passes in an :class:`Artifacts` dict; a pass that
needs an upstream product uses :meth:`Artifacts.require`, which raises a
clear :class:`~repro.errors.ConfigurationError` naming the producing pass
when the order was rearranged incompatibly.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro import check
from repro.check import invariants
from repro.core.locator import DataLocator
from repro.core.partitioner import (
    PartitionResult,
    profile_access_counts,
    train_predictor,
)
from repro.core.profiling import build_split_plan, profile_statements
from repro.core.window import NestSchedule, WindowScheduler, WindowSizeSearch
from repro.errors import ConfigurationError, SchedulingError
from repro.ir.dependence import may_depend
from repro.ir.inspector import InspectorExecutor
from repro.ir.program import Program


class Artifacts(dict):
    """The typed artifact dict flowing between passes.

    Keys and producers:

    ==================  ==========  =====================================
    key                 producer    type
    ==================  ==========  =====================================
    program             (manager)   ir.program.Program
    access_counts       profile     {array: dynamic access count}
    predictor           predict     HitMissPredictor-compatible or None
    predictor_accuracy  predict     float or None
    inspected           inspect     bool (irregular nests resolved?)
    fallback_nodes      split       {seq: default execution node}
    profiles            split       {(nest, body): StatementProfile}
    split_plan          split       {(nest, body): split?}
    partition           schedule    core.partitioner.PartitionResult
    generated_code      codegen     core.codegen.GeneratedCode
    backend             (caller)    str backend name ('sim'/'runtime')
    backend_options     (caller)    {kwarg: value} for get_backend
    execution           execute     exec.backend.ExecutionResult
    ==================  ==========  =====================================
    """

    def require(self, key: str, needed_by: str):
        """The artifact under ``key``, or a clear wrong-order error."""
        if key not in self:
            producer = _PRODUCERS.get(key, "<unknown>")
            raise ConfigurationError(
                f"pass {needed_by!r} needs artifact {key!r}, which pass "
                f"{producer!r} produces — it is missing from this run "
                "(skipped or ordered after the consumer)"
            )
        return self[key]


_PRODUCERS = {
    "access_counts": "profile",
    "predictor": "predict",
    "predictor_accuracy": "predict",
    "inspected": "inspect",
    "fallback_nodes": "split",
    "profiles": "split",
    "split_plan": "split",
    "partition": "schedule",
    "generated_code": "codegen",
    "execution": "execute",
}


@dataclass(frozen=True)
class PassInfo:
    """Registry metadata of one pass (what ``--list-passes`` shows)."""

    name: str
    paper_section: str
    module: str
    #: Inline passes run inside the schedule pass's hot loop; their
    #: position in the order is informational and skipping them flips a
    #: scheduler flag instead of dropping a ``run`` call.
    inline: bool = False
    #: Whether the pass is part of the default order.
    default: bool = True


class Pass:
    """Protocol of a registered pass: ``info`` metadata plus ``run``."""

    info: PassInfo

    def run(self, session, artifacts: Artifacts) -> None:
        raise NotImplementedError


PASS_REGISTRY: Dict[str, Pass] = {}


def register_pass(cls):
    """Class decorator: instantiate and register a pass by its name."""
    instance = cls()
    PASS_REGISTRY[instance.info.name] = instance
    return cls


def resolve_order(order: Optional[Tuple[str, ...]]) -> Tuple[str, ...]:
    """``order`` validated against the registry (None = default order)."""
    if order is None:
        return DEFAULT_PASS_ORDER
    unknown = sorted(set(order) - set(PASS_REGISTRY))
    if unknown:
        known = ", ".join(sorted(PASS_REGISTRY))
        raise ConfigurationError(
            f"unknown pass name(s): {', '.join(unknown)}; registered passes: {known}"
        )
    if len(set(order)) != len(order):
        raise ConfigurationError(f"pass order lists a pass twice: {order}")
    return tuple(order)


@register_pass
class ProfilePass(Pass):
    """§6.1's profiling step: declare arrays, record access counts."""

    info = PassInfo("profile", "§6.1", "repro.core.profiling")

    def run(self, session, artifacts: Artifacts) -> None:
        program: Program = artifacts.require("program", self.info.name)
        program.declare_in(session)
        tracer = session.tracer
        with tracer.span("compile.profile_arrays"):
            counts = profile_access_counts(
                program, session.config.profile_instances
            )
            session.machine.record_profile(counts)
        artifacts["access_counts"] = counts


@register_pass
class PredictPass(Pass):
    """§4.1's miss prediction: train the L2 hit/miss predictor."""

    info = PassInfo("predict", "§4.1", "repro.cache.predictor")

    def run(self, session, artifacts: Artifacts) -> None:
        program: Program = artifacts.require("program", self.info.name)
        if "predictor" not in artifacts:
            # Session-first API: build the predictor the config asks for.
            # (The NdpPartitioner facade seeds this artifact instead, so
            # post-construction predictor injection — the ideal-analysis
            # oracle — keeps working.)
            from repro.cache.predictor import HitMissPredictor

            artifacts["predictor"] = (
                HitMissPredictor() if session.config.use_predictor else None
            )
        predictor = artifacts["predictor"]
        accuracy = None
        if predictor is not None:
            tracer = session.tracer
            with tracer.span("compile.train_predictor") as train_span:
                accuracy = train_predictor(
                    session.machine,
                    program,
                    predictor,
                    session.config.predictor_training_instances,
                )
                train_span.add(accuracy=round(accuracy, 6))
        artifacts["predictor_accuracy"] = accuracy


@register_pass
class AnalyticPredictPass(Pass):
    """§4.1 alternative: closed-form analytic miss prediction.

    Replaces the trace-trained predictor with
    :class:`repro.core.locality.AnalyticMissPredictor` (DESIGN.md §12):
    same artifact keys, no cache simulation.  Not in the default order —
    select it with ``--predictor analytic`` (which swaps it in for
    ``predict``) or an explicit pass order.  Unlike ``predict``, a seeded
    ``predictor`` artifact is *overwritten*: asking for the analytic pass
    means the analytic model, not whatever the facade constructed.

    In check mode the pass also trains the default trace predictor and
    runs the differential oracle
    (:func:`repro.check.invariants.check_predictor_agreement`) over the
    training address stream.
    """

    info = PassInfo(
        "predict_analytic", "§4.1", "repro.core.locality", default=False
    )

    def run(self, session, artifacts: Artifacts) -> None:
        program: Program = artifacts.require("program", self.info.name)
        if not session.config.use_predictor:
            artifacts["predictor"] = None
            artifacts["predictor_accuracy"] = None
            return
        from repro.core.locality import AnalyticMissPredictor

        tracer = session.tracer
        with tracer.span("compile.analytic_predict") as span:
            predictor = AnalyticMissPredictor(session.machine, program)
            model = predictor.model
            span.add(
                regions=len(model.region_verdicts),
                hit_region_fraction=round(model.hit_region_fraction, 6),
                modeled_hit_fraction=round(model.modeled_hit_fraction(), 6),
                skipped_nests=len(model.skipped_nests),
            )
        artifacts["predictor"] = predictor
        # The trace pass reports its training accuracy here; the analytic
        # model is not trained, so it reports its modeled hit fraction.
        artifacts["predictor_accuracy"] = None
        if check.enabled():
            self._differential_oracle(session, program, predictor)

    @staticmethod
    def _differential_oracle(session, program, predictor) -> None:
        """Train the trace oracle and bound the verdict disagreement."""
        from repro.cache.predictor import HitMissPredictor
        from repro.core.partitioner import train_predictor

        machine = session.machine
        trace = HitMissPredictor()
        budget = session.config.predictor_training_instances
        train_predictor(machine, program, trace, budget)
        addresses = []
        layout = machine.layout
        for seen, instance in enumerate(program.instances()):
            if seen >= budget or len(addresses) >= 2000:
                break
            for access in instance.accesses():
                addresses.append(layout.pa_of(access.array, access.index))
        invariants.check_predictor_agreement(predictor, trace, addresses)


def predictor_pass_order(predictor: str) -> Optional[Tuple[str, ...]]:
    """The pass order selecting ``predictor`` ('trace' or 'analytic').

    'trace' (the default pipeline) returns ``None`` — callers pass it
    straight through as "use the default order"; 'analytic' returns the
    default order with ``predict`` swapped for ``predict_analytic``.
    """
    if predictor == "trace":
        return None
    if predictor == "analytic":
        return tuple(
            "predict_analytic" if name == "predict" else name
            for name in DEFAULT_PASS_ORDER
        )
    raise ConfigurationError(
        f"unknown predictor {predictor!r}; choose 'trace' or 'analytic'"
    )


@register_pass
class InspectPass(Pass):
    """§4.5's inspector: resolve indirect accesses of irregular nests."""

    info = PassInfo("inspect", "§4.5", "repro.ir.inspector")

    def run(self, session, artifacts: Artifacts) -> None:
        program: Program = artifacts.require("program", self.info.name)
        inspected = False
        if may_depend(program):
            with session.tracer.span("compile.inspect"):
                InspectorExecutor(program).inspect_all()
            inspected = True
        artifacts["inspected"] = inspected


@register_pass
class SplitPass(Pass):
    """§4.2's MST split planning: profile statements, decide who splits."""

    info = PassInfo("split", "§4.2", "repro.core.profiling")

    def run(self, session, artifacts: Artifacts) -> None:
        program: Program = artifacts.require("program", self.info.name)
        machine = session.machine
        config = session.config
        predictor = artifacts.get("predictor")
        tracer = session.tracer
        # The default placement's iteration->node assignment: unsplit
        # statements run exactly where the default would run them, so "do
        # not split" always degenerates to the baseline (the paper's scheme
        # optimizes *on top of* the locality-optimized default, Section 6.1).
        from repro.baselines.default_placement import DefaultPlacement

        fallback_nodes = DefaultPlacement(machine).assignment(program)
        if config.split_plan_override is None:
            with tracer.span("compile.split_plan"):
                locator_for_profiling = DataLocator(machine, predictor)
                profiles = profile_statements(
                    machine,
                    program,
                    locator_for_profiling,
                    fallback_nodes,
                    sample_per_nest=config.profile_instances,
                    session=session,
                )
                split_plan = build_split_plan(profiles, config.window.split_bias)
                if tracer.enabled:
                    for key in sorted(profiles):
                        profile = profiles[key]
                        tracer.point(
                            "compile.statement_profile",
                            nest=key[0],
                            body_index=key[1],
                            instances=profile.instances,
                            star_movement=round(profile.star_movement, 6),
                            mst_weight=round(profile.mst_weight, 6),
                            serial_chain=profile.serial_chain,
                            split=split_plan[key],
                        )
        else:
            profiles = {}
            split_plan = dict(config.split_plan_override)
        artifacts["fallback_nodes"] = fallback_nodes
        artifacts["profiles"] = profiles
        artifacts["split_plan"] = split_plan


@register_pass
class SchedulePass(Pass):
    """§4.3–4.4: the per-nest empirical gate, window search, scheduling."""

    info = PassInfo("schedule", "§4.3–4.4", "repro.core.window")

    def run(self, session, artifacts: Artifacts) -> None:
        program: Program = artifacts.require("program", self.info.name)
        machine = session.machine
        config = session.config
        tracer = session.tracer
        predictor = artifacts.get("predictor")
        locator = DataLocator(machine, predictor)
        # Graceful degradation when upstream passes were skipped: no
        # fallback assignment (run the default placement now — schedule
        # cannot work without it) and an empty split plan (all-star).
        if "fallback_nodes" in artifacts:
            fallback_nodes = artifacts["fallback_nodes"]
        else:
            from repro.baselines.default_placement import DefaultPlacement

            fallback_nodes = DefaultPlacement(machine).assignment(program)
        split_plan = artifacts.get("split_plan", {})
        profiles = artifacts.get("profiles", {})

        nest_schedules: Dict = {}
        window_sizes: Dict[str, int] = {}
        movement_by_size: Dict[str, Dict[int, int]] = {}
        variant_by_nest: Dict[str, str] = {}
        chosen_plan: Dict = {}
        # The first uid of the next nest's kept schedule.  Gate candidates
        # each draw from their own counter starting here, so a measure cut
        # short never shifts the uids the kept schedule gets.
        next_uid = 0
        for nest in program.nests:
            if nest.name in nest_schedules:
                raise SchedulingError(f"duplicate nest name {nest.name!r}")
            nest_span = tracer.span(
                "compile.nest", nest=nest.name, statements=nest.body_size
            )
            reuse = None
            if config.split_plan_override is not None:
                keys = [(nest.name, b) for b in range(nest.body_size)]
                plan = {k: bool(split_plan.get(k, False)) for k in keys}
                variant = "override"
            else:
                plan, variant, reuse = self._choose_nest_plan(
                    session, program, nest, locator, fallback_nodes,
                    split_plan, profiles, next_uid,
                )
            chosen_plan.update(plan)
            variant_by_nest[nest.name] = variant
            uid_counter = itertools.count(next_uid)
            if reuse is not None:
                # The winning gate measure already scheduled the whole nest,
                # from this nest's first uid, under conditions that make it
                # bit-equal to the search below (see _choose_nest_plan);
                # redoing the search/schedule would only repeat the work.
                nest_schedules[nest.name] = reuse.schedule
                window_sizes[nest.name] = reuse.size
                movement_by_size[nest.name] = reuse.movement_by_size
                uid_counter = reuse.uid_counter
            elif config.adaptive_window and any(plan.values()):
                outcome = WindowSizeSearch(
                    machine,
                    locator,
                    config.window,
                    uid_counter=uid_counter,
                    fallback_nodes=fallback_nodes,
                    split_plan=plan,
                    session=session,
                ).search(program, nest)
                nest_schedules[nest.name] = outcome.best_schedule
                window_sizes[nest.name] = outcome.best_size
                movement_by_size[nest.name] = outcome.movement_by_size
            else:
                # All-star nests (== the default execution) and fixed-window
                # configurations skip the size search.
                size = 1 if config.adaptive_window else config.fixed_window_size
                scheduler = WindowScheduler(
                    machine,
                    locator,
                    config.window,
                    uid_counter=uid_counter,
                    fallback_nodes=fallback_nodes,
                    split_plan=plan,
                    session=session,
                )
                schedule = scheduler.schedule_nest(program, nest, size)
                nest_schedules[nest.name] = schedule
                window_sizes[nest.name] = size
                movement_by_size[nest.name] = {size: schedule.movement}
            next_uid = next(uid_counter)
            final = nest_schedules[nest.name]
            nest_span.add(
                variant=variant,
                window_size=window_sizes[nest.name],
                movement=final.movement,
                syncs=final.sync_count,
                syncs_unminimized=final.sync_count_unminimized,
                reused_gate_schedule=reuse is not None,
            )
            nest_span.end()
        result = PartitionResult(
            program_name=program.name,
            nest_schedules=nest_schedules,
            window_sizes=window_sizes,
            movement_by_size=movement_by_size,
            predictor_accuracy=artifacts.get("predictor_accuracy"),
            variant_by_nest=variant_by_nest,
            split_plan=chosen_plan,
        )
        if check.enabled():
            # Check mode: the finished compile must account consistently
            # (aggregates re-sum from their decompositions), its schedule
            # must be a well-formed dependence DAG, and on a degraded
            # machine nothing may be placed on a tile the plan ever kills.
            invariants.check_partition_accounting(result)
            units = result.units()
            invariants.check_units_wellformed(units)
            invariants.check_unit_nodes_alive(units, machine.dead_nodes)
        artifacts["partition"] = result

    def _choose_nest_plan(
        self,
        session,
        program: Program,
        nest,
        locator: DataLocator,
        fallback_nodes: Dict[int, int],
        profile_plan: Dict,
        profiles: Dict,
        first_uid: int,
    ):
        """Pick the nest's split plan empirically (the gate).

        Candidate plans — all-star (identical to the default execution), the
        profile-derived per-statement plan, and all-split (every statement
        except serial-chain reductions) — are each scheduled over the nest
        and *simulated*.  A splitting plan is accepted only when it improves
        execution time AND does not regress data movement beyond the
        configured tolerance (movement is the paper's first-class metric);
        among accepted plans the fastest wins.  The all-star plan is always
        a candidate, so a partitioned build never regresses a nest below
        the baseline.  A splitting candidate is scheduled and simulated
        window by window and dropped at the first window after which it
        provably fails that test (DESIGN.md section 7.1).

        Returns ``(plan, variant, reuse)``; ``reuse`` is the winning
        :class:`_GateMeasure` when its whole-nest schedule may stand in for
        the final scheduling pass, else ``None``.
        """
        config = session.config
        keys = [(nest.name, b) for b in range(nest.body_size)]
        star = {key: False for key in keys}
        from_profile = {key: bool(profile_plan.get(key, False)) for key in keys}
        all_split = {
            key: not (key in profiles and profiles[key].serial_chain)
            for key in keys
        }
        tracer = session.tracer
        if config.window.always_split:
            tracer.point("gate.skip", nest=nest.name, reason="always_split")
            return all_split, "split", None
        candidates = []
        if any(from_profile.values()):
            candidates.append(("profile", from_profile))
        if any(all_split.values()) and all_split != from_profile:
            candidates.append(("split", all_split))
        if not candidates or config.gate_sample_instances < 0:
            variant = "profile" if any(from_profile.values()) else "star"
            tracer.point(
                "gate.skip",
                nest=nest.name,
                reason="no_candidates" if not candidates else "gate_disabled",
                variant=variant,
            )
            return from_profile, variant, None

        star_measure = self._gate_measure(
            session, program, nest, locator, fallback_nodes, star, first_uid,
        )
        _trace_candidate(tracer, nest.name, "star", star_measure)
        best_plan = star
        best_variant = "star"
        best = star_measure
        movement_cap = config.gate_movement_tolerance * max(
            star_measure.movement, 1
        )
        for variant, plan in candidates:
            measure = self._gate_measure(
                session, program, nest, locator, fallback_nodes, plan,
                first_uid, bound=(best.cycles, movement_cap),
            )
            accepted = (
                not measure.stopped
                and measure.cycles < best.cycles
                and measure.movement <= movement_cap
            )
            _trace_candidate(tracer, nest.name, variant, measure, accepted)
            if accepted:
                best_plan = plan
                best_variant = variant
                best = measure
        # The winning measure's full-nest schedule can stand in for the
        # final scheduling pass only when that pass would redo bit-equal
        # work: the gate covered the whole nest, the final pass is the
        # adaptive one, and the size search would see the same sample.
        reuse = best if best.schedule is not None else None
        if reuse is not None:
            count = nest.instance_count
            sample = config.gate_sample_instances
            limit = sample if sample > 0 else count
            gate_eff = min(count, min(limit, 768))
            cfg_sample = config.window.search_sample_instances
            final_eff = min(count, cfg_sample) if cfg_sample else count
            reusable = (
                config.adaptive_window
                and limit >= count
                and (not any(best_plan.values()) or gate_eff == final_eff)
            )
            if not reusable:
                reuse = None
        tracer.point(
            "gate.verdict",
            nest=nest.name,
            variant=best_variant,
            cycles=best.cycles,
            schedule_reused=reuse is not None,
        )
        return best_plan, best_variant, reuse

    def _gate_measure(
        self,
        session,
        program: Program,
        nest,
        locator: DataLocator,
        fallback_nodes: Dict[int, int],
        plan: Dict,
        first_uid: int,
        bound: Optional[Tuple[float, float]] = None,
    ) -> "_GateMeasure":
        """Schedule and simulate one candidate plan over the gate sample.

        Windows are scheduled one at a time and fed straight to the
        simulator.  With ``bound = (best cycles, movement cap)``, the
        measure stops after the first window whose prefix already reaches
        the best cycles or exceeds the cap: the full run could only be
        slower and move more, so the gate would reject it anyway.  The
        stop is off in check mode, where the candidate is measured in full
        and the rejection is verified.
        """
        from repro.sim.engine import SimConfig, Simulator

        machine = session.machine
        config = session.config
        timed = session.tracer.enabled
        clock = time.perf_counter
        uid_counter = itertools.count(first_uid)
        scheduler = WindowScheduler(
            machine,
            locator,
            config.window,
            uid_counter=uid_counter,
            fallback_nodes=fallback_nodes,
            split_plan=plan,
            session=session,
        )
        measure = _GateMeasure(uid_counter=uid_counter)
        sample = config.gate_sample_instances
        limit = sample if sample > 0 else nest.instance_count
        if any(plan.values()):
            started = clock() if timed else 0.0
            outcome = WindowSizeSearch(
                machine,
                locator,
                config.window,
                fallback_nodes=fallback_nodes,
                split_plan=plan,
                session=session,
            ).search_sample(program, nest, min(limit, 768))
            if timed:
                measure.search_s = clock() - started
            measure.size = outcome.best_size
            measure.movement_by_size = outcome.movement_by_size

        windows = []

        def feeds():
            # One feed per window when a bound can stop the measure; the
            # unbounded star measure is fed as one batch.
            units = []
            stream = scheduler.iter_windows(program, nest, measure.size, limit)
            while True:
                started = clock() if timed else 0.0
                window = next(stream, None)
                if timed:
                    measure.schedule_s += clock() - started
                if window is None:
                    break
                windows.append(window)
                for statement_schedule in window.schedules:
                    units.extend(statement_schedule.subcomputations)
                if bound is not None:
                    yield units
                    units = []
            if units:
                yield units

        # (cycles, movement) of the first prefix that fails the bound.
        loss = []
        early = not check.enabled()
        stop = None
        if bound is not None:
            best_cycles, movement_cap = bound

            def stop(prefix) -> bool:
                if not loss and (
                    prefix.total_cycles >= best_cycles
                    or prefix.data_movement > movement_cap
                ):
                    loss.append((prefix.total_cycles, prefix.data_movement))
                    return early
                return False

        machine.mcdram.reset()
        started = clock() if timed else 0.0
        metrics = Simulator(machine, SimConfig()).run(feeds=feeds(), stop=stop)
        if timed:
            measure.simulate_s = clock() - started - measure.schedule_s
        measure.cycles = metrics.total_cycles
        measure.movement = metrics.data_movement
        measure.units = metrics.unit_count
        if loss:
            measure.stopped = early
            if check.enabled():
                invariants.check_gate_rejection(
                    loss[0], (measure.cycles, measure.movement), bound
                )
        if not measure.stopped and limit >= nest.instance_count:
            # Whole-nest measure: identical to schedule_nest's windowing.
            measure.schedule = NestSchedule(nest.name, measure.size, windows)
            if measure.movement_by_size is None:
                measure.movement_by_size = {
                    measure.size: measure.schedule.movement
                }
        return measure


@dataclass
class _GateMeasure:
    """One candidate plan's gate measure.

    ``cycles``/``movement`` are the simulated totals, or — when the bound
    ``stopped`` the measure — the prefix's, which only bound the totals
    from below.  ``schedule`` is the whole-nest schedule when the measure
    covered the nest, drawn from ``uid_counter``.
    """

    uid_counter: Iterator[int]
    size: int = 1
    movement_by_size: Optional[Dict[int, int]] = None
    cycles: float = 0.0
    movement: int = 0
    units: int = 0
    stopped: bool = False
    schedule: Optional[NestSchedule] = None
    search_s: float = 0.0
    schedule_s: float = 0.0
    simulate_s: float = 0.0


def _trace_candidate(tracer, nest_name: str, variant: str, measure, accepted=None):
    """The ``gate.candidate`` point of one measure."""
    if not tracer.enabled:
        return
    fields = {}
    if measure.stopped:
        fields.update(
            stopped_early=True,
            cycles_at_least=measure.cycles,
            movement_at_least=measure.movement,
        )
    else:
        fields.update(cycles=measure.cycles, movement=measure.movement)
    if accepted is not None:
        fields["accepted"] = accepted
    tracer.point(
        "gate.candidate",
        nest=nest_name,
        variant=variant,
        units_measured=measure.units,
        search_s=round(measure.search_s, 6),
        schedule_s=round(measure.schedule_s, 6),
        simulate_s=round(measure.simulate_s, 6),
        **fields,
    )


@register_pass
class BalancePass(Pass):
    """§4.5's load balancing — inline in the scheduler's placement loop.

    Skipping this pass makes the scheduler take the minimum-movement
    candidate unconditionally (no 10% veto): the scheduler constructs its
    :class:`repro.core.balancer.LoadBalancer` with ``enabled=False``.
    """

    info = PassInfo("balance", "§4.5", "repro.core.balancer", inline=True)

    def run(self, session, artifacts: Artifacts) -> None:
        """No-op: the work happens inside the schedule pass's hot loop."""


@register_pass
class SyncMinimizePass(Pass):
    """§4.5's synchronization minimization — inline per window.

    Skipping this pass leaves every window's sync graph unminimized
    (``sync_count == sync_count_unminimized``); the accumulated wall time
    of the per-window ``minimize()`` calls is charged to this pass.
    """

    info = PassInfo("sync_minimize", "§4.5", "repro.core.syncgraph", inline=True)

    def run(self, session, artifacts: Artifacts) -> None:
        """No-op: the work happens per window in the schedule pass."""


@register_pass
class CodegenPass(Pass):
    """§4.5 / Figure 8: per-node code generation (on demand)."""

    info = PassInfo(
        "codegen", "§4.5, Fig 8", "repro.core.codegen", default=False
    )

    def run(self, session, artifacts: Artifacts) -> None:
        from repro.core.codegen import generate_for_partition

        partition = artifacts.require("partition", self.info.name)
        artifacts["generated_code"] = generate_for_partition(partition)


@register_pass
class ExecutePass(Pass):
    """Run the compiled schedule through an execution backend.

    Registered but not in the default order — compiling does not imply
    executing.  The backend choice rides in as artifacts seeded by the
    caller (``backend`` name, optional ``backend_options`` kwargs for
    :func:`repro.exec.backend.get_backend`); absent, the simulator runs
    with defaults, matching the historical compile-then-simulate flow.
    """

    info = PassInfo("execute", "§5", "repro.exec", default=False)

    def run(self, session, artifacts: Artifacts) -> None:
        from repro.exec.backend import get_backend

        partition = artifacts.require("partition", self.info.name)
        name = artifacts.get("backend", "sim")
        options = artifacts.get("backend_options", {})
        backend = get_backend(name, **options)
        machine = session.machine
        with session.tracer.span("execute.backend", backend=name) as span:
            machine.mcdram.reset()
            result = backend.run(machine, partition.units())
            span.add(
                data_movement=result.data_movement,
                sync_count=result.sync_count,
                units=result.unit_count,
            )
        artifacts["execution"] = result


#: The registry's default order: every non-inline default pass in the
#: paper's sequence, with the inline passes listed where the paper puts
#: their work (after windowing).
DEFAULT_PASS_ORDER: Tuple[str, ...] = tuple(
    p.info.name for p in PASS_REGISTRY.values() if p.info.default
)
