"""Window-based multi-statement scheduling and the adaptive size search
(paper Sections 4.3 and 4.4).

A *window* is a run of consecutive statement instances in execution order
(a window of 8 over a 4-statement loop body spans 2 iterations).  Within a
window, the ``variable2node_map`` carries forward which L1s hold which
blocks because of already-scheduled subcomputations, so later statements'
MSTs can exploit the copies (NDP + data reuse together).  The map resets at
window boundaries — that boundary is precisely why the window size matters
(Figure 12's worked example).

:class:`WindowSizeSearch` is the preprocessing step of Section 4.4: try
every window size from 1 to 8 statements on the nest, measure the resulting
total data movement, and keep the best.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


from repro import check
from repro.arch.machine import Machine
from repro.check import invariants
from repro.core.balancer import LoadBalancer
from repro.core.locator import DataLocator, VariableToNodeMap
from repro.core.scheduler import (
    StatementSchedule,
    schedule_star,
    schedule_statement,
    star_cost,
)
from repro.core.splitter import StatementSplit, split_statement
from repro.core.vectorized import SplitTemplates, templates_for
from repro.core.syncgraph import SyncGraph
from repro.errors import SchedulingError
from repro.ir.dependence import DependenceKind, instance_dependences
from repro.ir.loop import LoopNest
from repro.ir.program import Program
from repro.ir.statement import StatementInstance
from repro.obs.tracer import get_tracer

#: The paper found no nest preferring more than 8 statements (footnote 4).
MAX_WINDOW_SIZE = 8


@dataclass(frozen=True)
class WindowConfig:
    """Knobs of the window scheduler.

    ``reuse_aware=False`` reproduces the paper's reuse-agnostic ablation
    (Section 6.3): the variable2node map is neither consulted nor updated.
    ``l1_model_blocks`` caps the compiler's per-node L1 model — the source
    of the modeled cache-pollution penalty for oversized windows.
    """

    max_window_size: int = MAX_WINDOW_SIZE
    reuse_aware: bool = True
    l1_model_blocks: int = 64
    balance_threshold: float = 0.10
    flatten_products: bool = False
    #: The size search measures candidate window sizes on this many leading
    #: statement instances of the nest (0 = the whole nest).  Loop bodies
    #: repeat, so a prefix is representative, and the search stays cheap.
    search_sample_instances: int = 768
    #: Force MST splitting even when the unsplit gather-at-store execution
    #: moves less data (ablation knob; the production path picks the better
    #: of the two per statement).
    always_split: bool = False
    #: Split only when the MST saves at least this many links per instance
    #: over the unsplit execution: each cross-node result message costs a
    #: synchronization and serializes dependence chains, so marginal splits
    #: are not worth taking.
    split_bias: float = 3.0
    #: Worker processes for the window-size search: the candidate sizes are
    #: independent trials, so they fan out across a process pool.  1 (the
    #: default) keeps the search in-process and bit-identical to the
    #: historical serial behaviour; the parallel path is validated to return
    #: the same ``best_size``/``movement_by_size`` by the regression tests.
    jobs: int = 1


@dataclass
class WindowSchedule:
    """All statement schedules of one window plus its sync graph."""

    schedules: List[StatementSchedule]
    sync_graph: SyncGraph
    syncs_before_minimization: int
    syncs_after_minimization: int

    @cached_property
    def movement(self) -> int:
        """Total data movement of the window (sum of member MSTs)."""
        return sum(s.movement for s in self.schedules)

    @property
    def statement_count(self) -> int:
        """Statement instances scheduled in this window."""
        return len(self.schedules)


@dataclass
class NestSchedule:
    """The complete schedule of one loop nest at one window size."""

    nest_name: str
    window_size: int
    windows: List[WindowSchedule]

    @property
    def movement(self) -> int:
        """Total data movement across every window of the nest."""
        return sum(w.movement for w in self.windows)

    @property
    def statement_count(self) -> int:
        """Statement instances scheduled across the nest."""
        return sum(w.statement_count for w in self.windows)

    @property
    def subcomputation_count(self) -> int:
        """Total subcomputations across the nest's windows."""
        return sum(
            len(s.subcomputations) for w in self.windows for s in w.schedules
        )

    @property
    def l1_hits_modeled(self) -> int:
        """Compile-time L1 reuse hits modeled across the nest."""
        return sum(s.l1_hits_modeled for w in self.windows for s in w.schedules)

    @property
    def gathers(self) -> int:
        """Total operand-gather messages across the nest."""
        return sum(s.gathers for w in self.windows for s in w.schedules)

    @property
    def sync_count(self) -> int:
        """Synchronization arcs after transitive-closure minimization."""
        return sum(w.syncs_after_minimization for w in self.windows)

    @property
    def sync_count_unminimized(self) -> int:
        """Synchronization arcs before minimization."""
        return sum(w.syncs_before_minimization for w in self.windows)

    def statement_schedules(self) -> Iterator[StatementSchedule]:
        """Every member statement schedule, in program order."""
        for window in self.windows:
            yield from window.schedules

    def per_statement_movement(self) -> List[int]:
        """Each member statement's movement, in program order."""
        return [s.movement for s in self.statement_schedules()]

    def parallel_degrees(self) -> List[int]:
        """Per-statement distinct-node counts across the nest."""
        return [s.parallel_degree() for s in self.statement_schedules()]

    def remapped_op_breakdown(self) -> Dict[str, int]:
        """Operator counts of re-mapped (non-home) subcomputations (Table 3)."""
        counts: Dict[str, int] = {}
        for schedule in self.statement_schedules():
            for op, count in schedule.remapped_op_breakdown().items():
                counts[op] = counts.get(op, 0) + count
        return counts


class WindowScheduler:
    """Schedules statement instances window by window."""

    def __init__(
        self,
        machine: Machine,
        locator: DataLocator,
        config: WindowConfig = WindowConfig(),
        balancer: Optional[LoadBalancer] = None,
        uid_counter: Optional[Iterator[int]] = None,
        fallback_nodes: Optional[Dict[int, int]] = None,
        split_plan: Optional[Dict[Tuple[str, int], bool]] = None,
        session=None,
    ):
        """A scheduler sharing the caller's uid stream and session."""
        self.machine = machine
        self.locator = locator
        self.config = config
        # The session carries the pipeline shape: a skipped ``balance``
        # pass disables the 10% veto (placement takes the minimum-movement
        # candidate unconditionally), a skipped ``sync_minimize`` leaves
        # window sync graphs unminimized and the per-window minimize time
        # is charged to the ``sync_minimize`` pass.  Its caches hold each
        # nest's location tables and split templates.
        self._session = session = session_or_default(session, machine, config)
        self.balancer = balancer or LoadBalancer(
            machine.node_count,
            config.balance_threshold,
            enabled=session.pass_enabled("balance"),
        )
        # Shared across nests (and window-size trials) so uids stay unique
        # within one compilation.
        self._uid_counter = uid_counter if uid_counter is not None else itertools.count()
        # seq -> default-placement node: where an unsplit statement runs
        # (the paper optimizes on top of the default assignment).
        self.fallback_nodes = fallback_nodes or {}
        # Static per-statement split decisions from the profiling pass; when
        # absent, the scheduler falls back to a per-instance model compare.
        self.split_plan = split_plan
        # Persistent model of the real L1 contents under the schedule being
        # built (real caches do not forget at window boundaries): stars
        # record their blocks at their execution node, splits at their
        # gather nodes.  Used for expected-hit marking and for the
        # split-vs-unsplit movement comparison; the window-scoped
        # ``variable2node_map`` remains the reuse-candidate source, as in
        # Algorithm 1.
        self._l1_model = VariableToNodeMap(
            per_node_capacity=machine.l1_config.line_count
        )

    def templates_of(self, program: Program, nest: LoopNest) -> SplitTemplates:
        """The nest's split templates, its tables covering the whole nest.

        Served from the session's caches, so every scheduler and search of
        one compile shares one set per nest.
        """
        templates = templates_for(
            self._session, program, nest, self.locator, self.config.flatten_products
        )
        templates.tables.ensure(nest.instance_count)
        return templates

    def schedule_window(
        self,
        instances: Sequence[StatementInstance],
        templates: SplitTemplates,
        sync_graph: bool = True,
    ) -> WindowSchedule:
        """Schedule one window of consecutive instances of one nest.

        ``templates`` are the nest's (:meth:`templates_of`).
        ``sync_graph=False`` skips building and minimizing the window's
        synchronization graph (the schedules and their movement are
        unaffected) — used by the window-size search, whose trials consume
        only the movement totals and discard the schedules.
        """
        var2node = (
            VariableToNodeMap(self.config.l1_model_blocks)
            if self.config.reuse_aware
            else None
        )
        tables = templates.tables
        schedules: List[StatementSchedule] = []
        for instance in instances:
            # A split is a pure function of the instance and the window map,
            # so statements whose plan says "don't split" skip the MST work.
            split = None
            # Split only when the MST actually beats the unsplit default
            # execution (data movement is the first-class metric; a split
            # that moves *more* data is never taken).
            fallback = self.fallback_nodes.get(instance.seq)
            if self.config.always_split:
                decision = True
            elif self.split_plan is not None and instance.static_key in self.split_plan:
                decision = self.split_plan[instance.static_key]
            else:
                split = self._split_of(instance, var2node, templates)
                unsplit = star_cost(instance, tables, self._l1_model, fallback)
                decision = split.mst_weight + self.config.split_bias <= unsplit
            if decision:
                if split is None:
                    split = self._split_of(instance, var2node, templates)
                schedules.append(
                    schedule_statement(
                        split,
                        tables,
                        self.balancer,
                        self._uid_counter,
                        var2node,
                        hit_model=self._l1_model,
                    )
                )
            else:
                schedules.append(
                    schedule_star(
                        instance,
                        tables,
                        self.balancer,
                        self._uid_counter,
                        var2node,
                        fallback,
                        hit_model=self._l1_model,
                    )
                )
        if not sync_graph:
            return WindowSchedule(schedules, SyncGraph(), 0, 0)
        if len(schedules) == 1 and len(schedules[0].subcomputations) == 1:
            # A singleton window whose one statement stayed whole has no
            # sync arcs by construction (no child results, no second
            # instance to depend on) — skip building and minimizing the
            # graph, but keep the inline pass's timing key alive.
            if self._session.pass_enabled("sync_minimize"):
                self._session.add_pass_seconds("sync_minimize", 0.0)
            return WindowSchedule(schedules, SyncGraph(), 0, 0)
        graph = self._build_sync_graph(instances, schedules)
        before = graph.arc_count()
        after = graph.minimize_in(self._session)
        tracer = get_tracer()
        if tracer.debug:
            # Per-window events are a firehose (thousands of windows per
            # nest); aggregate sync counts always appear in the nest span.
            tracer.point(
                "sync.minimize",
                window_start_seq=instances[0].seq if instances else -1,
                statements=len(schedules),
                arcs_before=before,
                arcs_after=after,
            )
        return WindowSchedule(schedules, graph, before, after)

    def _split_of(
        self,
        instance: StatementInstance,
        var2node: Optional[VariableToNodeMap],
        templates: SplitTemplates,
    ) -> StatementSplit:
        """Split ``instance`` against the window's ``variable2node_map``.

        While none of the statement's operand blocks is modeled L1-resident
        every ``locate`` would return empty ``l1_copies``, so the split is
        the empty-map one (a template clone); otherwise the templates
        replay the map-dependent vertex choice.  Check mode compares a
        split made against a non-empty map with the scalar splitter.
        """
        if var2node is not None and templates.blocks_held(instance, var2node):
            split = templates.split_with_map(instance, var2node)
        else:
            split = templates.split(instance)
        if check.enabled() and var2node is not None and len(var2node) > 0:
            invariants.check_split_cache_hit(
                split,
                split_statement(
                    instance,
                    self.locator,
                    var2node,
                    flatten_products=self.config.flatten_products,
                ),
            )
        return split

    def _build_sync_graph(
        self,
        instances: Sequence[StatementInstance],
        schedules: Sequence[StatementSchedule],
    ) -> SyncGraph:
        """Intra-statement join syncs + inter-statement dependence syncs."""
        graph = SyncGraph()
        for schedule in schedules:
            for producer, consumer in schedule.sync_arcs():
                graph.add_arc(producer, consumer)
        by_seq = {s.instance.seq: s for s in schedules}
        for dep in instance_dependences(list(instances)):
            if dep.src_seq == dep.dst_seq:
                continue
            producer = by_seq.get(dep.src_seq)
            consumer = by_seq.get(dep.dst_seq)
            if producer is None or consumer is None:
                continue
            targets = self._consumers_of(consumer, dep)
            for uid in targets:
                # Producers belong to an earlier statement, so no cycle risk.
                if producer.final_uid != uid:
                    graph.add_arc(producer.final_uid, uid)
        return graph

    @staticmethod
    def _consumers_of(schedule: StatementSchedule, dep) -> List[int]:
        """Subcomputations of ``schedule`` that touch the dependent access."""
        if dep.kind is DependenceKind.FLOW:
            uids = [
                sub.uid
                for sub in schedule.subcomputations
                for g in sub.gathered
                if g.access == dep.access
            ]
            return uids or [schedule.final_uid]
        # Anti/output dependences serialize against the consumer's store.
        return [schedule.final_uid]

    def schedule_nest(
        self, program: Program, nest: LoopNest, window_size: int
    ) -> NestSchedule:
        """Schedule a whole nest with a fixed window size."""
        windows = list(self.iter_windows(program, nest, window_size))
        return NestSchedule(nest.name, window_size, windows)

    def iter_windows(
        self,
        program: Program,
        nest: LoopNest,
        window_size: int,
        limit: Optional[int] = None,
    ) -> Iterator[WindowSchedule]:
        """Schedule the nest's leading ``limit`` instances (None = all) one
        ``window_size``-window at a time, yielding each as it is built."""
        if window_size < 1:
            raise SchedulingError(f"window size must be >= 1, got {window_size}")
        templates = self.templates_of(program, nest)
        stream = program.nest_instances(nest, program.seq_base_of(nest))
        buffer: List[StatementInstance] = []
        for instance in itertools.islice(stream, limit):
            buffer.append(instance)
            if len(buffer) == window_size:
                yield self.schedule_window(buffer, templates)
                buffer = []
        if buffer:
            yield self.schedule_window(buffer, templates)


@dataclass
class SearchOutcome:
    """Result of the adaptive window-size search for one nest."""

    nest_name: str
    best_size: int
    best_schedule: NestSchedule
    movement_by_size: Dict[int, int]


class WindowSizeSearch:
    """Section 4.4's preprocessing: pick the per-nest window size."""

    def __init__(
        self,
        machine: Machine,
        locator: DataLocator,
        config: WindowConfig = WindowConfig(),
        uid_counter: Optional[Iterator[int]] = None,
        fallback_nodes: Optional[Dict[int, int]] = None,
        split_plan: Optional[Dict[Tuple[str, int], bool]] = None,
        session=None,
    ):
        """A search owning (or sharing) the uid stream its trials consume."""
        self.machine = machine
        self.locator = locator
        self.config = config
        self.uid_counter = uid_counter if uid_counter is not None else itertools.count()
        self.fallback_nodes = fallback_nodes
        self.split_plan = split_plan
        # Forwarded to every trial scheduler (inline-pass gating, timing,
        # and the per-nest split templates every trial shares).
        self._session = session_or_default(session, machine, config)

    def search(self, program: Program, nest: LoopNest) -> SearchOutcome:
        """Try window sizes 1..max, keep the one minimizing data movement.

        Candidate sizes are measured on a leading sample of the nest's
        instance stream (loop bodies repeat, so the prefix is
        representative); the winning size then schedules the whole nest.
        Each trial uses a fresh load balancer so the comparison is apples
        to apples.
        """
        best_size, movement_by_size = self._best_size(
            program, nest, self.config.search_sample_instances
        )
        final = self._scheduler().schedule_nest(program, nest, best_size)
        return SearchOutcome(nest.name, best_size, final, movement_by_size)

    def search_sample(self, program: Program, nest: LoopNest, sample: int) -> SearchOutcome:
        """Like :meth:`search` but without scheduling the whole nest."""
        best_size, movement_by_size = self._best_size(program, nest, sample)
        empty = NestSchedule(nest.name, best_size, [])
        return SearchOutcome(nest.name, best_size, empty, movement_by_size)

    def _best_size(self, program: Program, nest: LoopNest, sample: int):
        """Movement of every candidate size; smallest best size wins ties.

        The sampled instance stream is materialized once and shared by all
        trials (it is identical for every size), as are the nest's split
        templates and the :class:`DataLocator`.  Each trial still gets a
        fresh scheduler + load balancer — their state is what the trial
        measures, so only the stateless work is hoisted out of the loop.
        The templates are resolved first, so worker processes unpickle a
        machine that already holds the nest's page translations.
        """
        tracer = get_tracer()
        search_span = tracer.span(
            "window.search", nest=nest.name, sample=sample
        )
        templates = self._scheduler().templates_of(program, nest)
        instances = self._sample_instances(program, nest, sample)
        sizes = range(1, self.config.max_window_size + 1)
        if self.config.jobs > 1 and len(instances) > 0:
            movement_by_size = self._parallel_trials(program, nest, sample, sizes)
        else:
            movement_by_size = {}
            for size in sizes:
                movement_by_size[size] = self._sampled_movement(
                    self._scheduler(), templates, instances, size
                )
        best_size = min(movement_by_size, key=lambda s: (movement_by_size[s], s))
        if tracer.enabled:
            # Emitted after all trials complete (not per trial) so the
            # stream is identical whether the trials ran serial (jobs=1,
            # in-process) or fanned out over worker processes.
            for size in sorted(movement_by_size):
                tracer.point(
                    "window.candidate",
                    nest=nest.name,
                    size=size,
                    movement=movement_by_size[size],
                )
        search_span.add(best_size=best_size, movement=movement_by_size[best_size])
        search_span.end()
        return best_size, movement_by_size

    def _parallel_trials(
        self, program: Program, nest: LoopNest, sample: int, sizes: range
    ) -> Dict[int, int]:
        """Fan the independent candidate-size trials over worker processes.

        Every worker re-derives its trial from a pickled copy of the parent
        state, so trials cannot observe each other; instance streams, page
        translations, and tie-breaking are all deterministic, which keeps
        the parallel result equal to the serial one (regression-tested).
        """
        nest_index = next(
            i for i, candidate in enumerate(program.nests) if candidate is nest
        )
        skipped = tuple(sorted(self._session.skip_passes))
        payloads = [
            (
                self.machine,
                self.locator.predictor,
                self.config,
                program,
                nest_index,
                size,
                sample,
                self.fallback_nodes,
                self.split_plan,
                skipped,
            )
            for size in sizes
        ]
        workers = min(self.config.jobs, len(payloads))
        movement_by_size: Dict[int, int] = {}
        with ProcessPoolExecutor(max_workers=workers) as executor:
            for size, movement in executor.map(_window_size_trial, payloads):
                movement_by_size[size] = movement
        return movement_by_size

    def _scheduler(self) -> WindowScheduler:
        # No explicit balancer: each trial's WindowScheduler builds its own
        # fresh one (honoring the session's balance gating), so trials stay
        # apples-to-apples.
        return WindowScheduler(
            self.machine,
            self.locator,
            self.config,
            uid_counter=self.uid_counter,
            fallback_nodes=self.fallback_nodes,
            split_plan=self.split_plan,
            session=self._session,
        )

    def _sample_instances(
        self, program: Program, nest: LoopNest, sample: int
    ) -> List[StatementInstance]:
        """The nest's leading instances, materialized once per search."""
        stream = program.nest_instances(nest, program.seq_base_of(nest))
        if sample:
            return list(itertools.islice(stream, sample))
        return list(stream)

    @staticmethod
    def _sampled_movement(
        scheduler: WindowScheduler,
        templates: SplitTemplates,
        instances: Sequence[StatementInstance],
        size: int,
    ) -> int:
        """Movement of ``size``-windows over the materialized sample."""
        movement = 0
        for start in range(0, len(instances), size):
            window = instances[start : start + size]
            movement += scheduler.schedule_window(
                window, templates, sync_graph=False
            ).movement
        return movement


def _window_size_trial(payload) -> Tuple[int, int]:
    """Process-pool worker: one candidate window size's sampled movement."""
    (
        machine,
        predictor,
        config,
        program,
        nest_index,
        size,
        sample,
        fallback_nodes,
        split_plan,
        skipped,
    ) = payload
    nest = program.nests[nest_index]
    locator = DataLocator(machine, predictor)
    # Rebuild just enough session context for inline-pass gating and the
    # nest's templates; the worker's timings die with the process, which is
    # fine — the parent charges the search to the schedule pass as a whole.
    from repro.core.partitioner import PartitionConfig
    from repro.pipeline.session import CompilationSession

    session = CompilationSession(
        machine=machine,
        config=PartitionConfig(window=config),
        skip_passes=frozenset(skipped),
    )
    search = WindowSizeSearch(
        machine,
        locator,
        config,
        fallback_nodes=fallback_nodes,
        split_plan=split_plan,
        session=session,
    )
    scheduler = search._scheduler()
    templates = scheduler.templates_of(program, nest)
    instances = search._sample_instances(program, nest, sample)
    movement = search._sampled_movement(scheduler, templates, instances, size)
    return size, movement


def session_or_default(session, machine: Machine, config: WindowConfig):
    """``session``, or a default-shaped one for scheduling outside a compile.

    The session's caches hold each nest's tables and split templates, so a
    bare scheduler or search still builds them once per nest.
    """
    if session is not None:
        return session
    from repro.core.partitioner import PartitionConfig
    from repro.pipeline.session import CompilationSession

    return CompilationSession(machine=machine, config=PartitionConfig(window=config))
