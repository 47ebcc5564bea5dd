"""The benchmark's three workloads: ``compile``, ``execute`` and ``serve``.

Every workload run has four steps: untimed set-up (reported as
``setup_s``), a warm-up, timed operations, and the output checks.  A
failed check marks its operation failed.  With ``trace`` set, the same
operations run once untraced and once under the span wrappers of
:mod:`spans`, and the per-layer metrics are derived from the spans.

The repository is driven only through public functions of
``repro.workloads``, ``repro.pipeline``, ``repro.core``,
``repro.baselines``, ``repro.sim``, ``repro.exec`` and ``repro.serve``.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.arch.knl import small_machine
from repro.baselines import DefaultPlacement
from repro.benchmarks.perf import tiny_app
from repro.core.partitioner import PartitionConfig
from repro.core.window import WindowConfig
from repro.exec import get_backend
from repro.errors import ServeError
from repro.experiments.common import paper_machine
from repro.pipeline import PASS_REGISTRY, compile_program, session_for
from repro.serve import loadgen
from repro.serve.client import ServeClient, ServeResponseError
from repro.serve.compiler import compile_bytes
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.request import CompileRequest
from repro.sim.engine import SimConfig, Simulator
from repro.workloads import build_workload

from spans import Recorder, SpanIndex, install_layers

REASONS = {
    "compile": "the empirical gate dominates a compile, so gate, window-search, "
    "scheduler and splitter changes show here",
    "execute": "simulator and task runtime do all the work and the gate none: the "
    "sim/exec workload and the no-change control for compile changes",
    "serve": "the only workload through repro.serve: store writes on cold misses "
    "beside store reads on warm hits, and many tiny compiles",
}

PAPER_APPS = ("barnes", "cholesky", "minimd")
PASSES = ("profile", "predict", "inspect", "split", "schedule")
VERDICTS = ("star", "profile", "split")
#: One warm-up operation runs on the cheapest app before timing.
WARMUP_APP = "cholesky"

#: Serve sizes: minimum cold (all-miss) and warm (all-hit) requests.
COLD_MIN = 200
WARM_MIN = 1000
#: Untraced warm requests the traced serve run uses as its overhead baseline.
WARM_BASELINE_MIN = 300
#: Cold requests compiled in-process to time ``compile_bytes`` from outside.
COMPILE_SAMPLE = 40
#: Request-index stride between seeds, so seeds never share a fingerprint.
SEED_STRIDE = 100_000
CLIENTS = 2
DAEMON_WORKERS = 2
QUEUE_DEPTH = 64
SETUP_REPEATS = 3

#: Slack of the traced-run consistency checks (share of the whole).
SCHEDULE_SLACK = 0.01
PASS_SUM_SLACK = 0.05
HTTP_SLACK = 0.05
HTTP_SLACK_MS = 0.5


@dataclass
class Context:
    """How one workload run is sized and where it may write."""

    seed: int
    seconds: float
    trace: bool
    quick: bool
    out_dir: str
    import_s: float
    expected: Dict

    @property
    def apps(self):
        return ("tiny",) if self.quick else PAPER_APPS

    @property
    def warmup_app(self) -> str:
        return "tiny" if self.quick else WARMUP_APP

    def machine(self):
        return small_machine() if self.quick else paper_machine()

    def program(self, app: str):
        return tiny_app() if app == "tiny" else build_workload(app, 1, self.seed)

    def expected_for(self, workload: str, app: str) -> Optional[Dict]:
        key = "tiny" if app == "tiny" else str(self.seed)
        return self.expected.get(workload, {}).get(key, {}).get(app)


@dataclass
class Outcome:
    """What a workload run measured and how its checks went."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; ``ok`` False marks it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok

    def guarded(self, what: str, fn: Callable):
        """Run ``fn`` as one operation; an exception marks it failed."""
        try:
            return fn()
        except Exception:  # a failing operation must not end the run
            self.check(False, f"{what}: {traceback.format_exc(limit=3)}")
            return None


def timed_loop(seconds: float, min_ops: int, step: Callable[[], None]) -> float:
    """Call ``step`` ``min_ops`` times, then while one more call fits in ``seconds``."""
    started = time.perf_counter()
    calls = 0
    while True:
        elapsed = time.perf_counter() - started
        if calls >= min_ops and elapsed * (calls + 1) / calls > seconds:
            return elapsed
        step()
        calls += 1


def tail(values: List[float]):
    """(label, value) of the highest percentile with >= 10 samples beyond it.

    With too few samples for any such percentile, the slowest sample.
    """
    ordered = sorted(values) or [0.0]
    count = len(ordered)
    for fraction, label in ((0.999, "p99.9"), (0.99, "p99"), (0.95, "p95"), (0.9, "p90")):
        rank = math.ceil(round(fraction * count, 6))  # nearest rank
        if count - rank >= 10:
            return label, ordered[rank - 1]
    return "max", ordered[-1]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_rounds(ctx: Context, outcome: Outcome, one_round: Callable, results: List):
    """Time rounds of ``one_round(rounds, recorder)`` over every app.

    An untraced run records the end-to-end metrics and returns ``None``.  A
    traced run spends half its time untraced, clears ``results``, spends the
    other half under the span wrappers, and returns ``(traced rounds,
    recorder)``.
    """
    rounds: List[float] = []
    budget = ctx.seconds / 2 if ctx.trace else ctx.seconds
    wall = timed_loop(budget, 1, lambda: one_round(rounds, None))
    if not ctx.trace:
        label, slowest = tail(rounds)
        outcome.metrics["p50_ms"] = median(rounds) * 1000.0
        outcome.metrics["tail_ms"] = slowest * 1000.0
        outcome.metrics["ops_per_s"] = len(rounds) * len(ctx.apps) / wall
        outcome.metrics["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
        outcome.notes.append(f"{len(rounds)} rounds of {len(ctx.apps)} ops; tail is {label}")
        return None
    results.clear()
    recorder = Recorder()
    install_layers(recorder)
    traced: List[float] = []
    try:
        timed_loop(budget, 1, lambda: one_round(traced, recorder))
    finally:
        recorder.uninstall()
    outcome.metrics["trace.overhead_pct"] = overhead_pct(median(traced), median(rounds))
    return traced, recorder


# -- compile ---------------------------------------------------------------


def compile_app(ctx: Context, app: str, recorder=None, check=False, machine=None):
    """Build ``app`` and compile it on a fresh machine (one operation)."""
    program = ctx.program(app)
    session = session_for(
        machine or ctx.machine(), PartitionConfig(window=WindowConfig(jobs=1)), check=check
    )
    if recorder is None:
        return compile_program(program, session)
    with recorder.span("compile_program", app):
        return compile_program(program, session)


def summarize(partition) -> Dict:
    """The compile outputs the checks compare."""
    return {
        "movement": partition.movement,
        "syncs": sum(s.sync_count for s in partition.nest_schedules.values()),
        "window_sizes": dict(sorted(partition.window_sizes.items())),
        "verdicts": dict(sorted(partition.variant_by_nest.items())),
        "units": len(partition.units()),
    }


def check_against(outcome: Outcome, what: str, got: Dict, expected: Optional[Dict], seen: Dict):
    """Compare with the expected entry, else with the first result this run saw."""
    reference = expected if expected is not None else seen.setdefault(what, got)
    return outcome.check(got == reference, f"{what}: got {got}, expected {reference}")


def run_compile(ctx: Context) -> Outcome:
    outcome = Outcome()
    builds = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        ctx.machine()
        for app in ctx.apps:
            ctx.program(app)
        builds.append(time.perf_counter() - started)
    outcome.metrics["setup_s"] = ctx.import_s + median(builds)

    seen: Dict = {}
    summaries: List[Dict] = []

    def check_compile(app: str, partition) -> Dict:
        """Seed-independent sanity, then equality with the reference."""
        got = summarize(partition)
        plausible = (
            got["units"] > 0
            and got["verdicts"].keys() == got["window_sizes"].keys()
            and set(got["verdicts"].values()) <= set(VERDICTS)
            and min(got["window_sizes"].values()) >= 1
        )
        if outcome.check(plausible, f"compile {app}: implausible outputs {got}"):
            check_against(outcome, f"compile {app}", got, ctx.expected_for("compile", app), seen)
        return got

    check_compile(ctx.warmup_app, compile_app(ctx, ctx.warmup_app))

    def one_round(rounds: List[float], recorder):
        total = 0.0
        for app in ctx.apps:
            started = time.perf_counter()
            if recorder is None:
                partition = outcome.guarded(app, lambda: compile_app(ctx, app))
            else:
                with recorder.span("op.compile", app):
                    partition = outcome.guarded(app, lambda: compile_app(ctx, app, recorder))
            total += time.perf_counter() - started
            if partition is not None:
                summaries.append(dict(check_compile(app, partition), app=app))
        rounds.append(total)

    timed = run_rounds(ctx, outcome, one_round, summaries)
    if timed is None:
        return outcome
    traced, recorder = timed
    # The independent repro.check oracles, once per app and untimed; the
    # checked compile must also agree with the unchecked ones.
    for app in ctx.apps:
        partition = outcome.guarded(f"check-mode {app}", lambda: compile_app(ctx, app, check=True))
        if partition is not None:
            check_compile(app, partition)
    compile_layer_metrics(ctx, outcome, recorder, traced, summaries)
    write_spans(ctx, "compile", recorder, outcome)
    return outcome


def compile_layer_metrics(ctx, outcome, recorder, traced_rounds, summaries):
    index = SpanIndex(recorder.spans)
    per = 1.0 / len(traced_rounds)
    m = outcome.metrics
    for name in PASSES:
        m[f"pipeline.{name}_s"] = index.total(f"pass.{name}")[0] * per
    children = {
        "core.window.gate_search": "window.search_sample",
        "core.window.final_search": "window.search",
        "core.window.schedule_nest": "window.schedule_nest",
        "sim.gate": "sim.run",
    }
    for metric, span in children.items():
        seconds, calls = index.total(span, within="pass.schedule", self_only=True)
        m[f"{metric}_s"] = seconds * per
        m[f"{metric}_calls"] = calls * per
    m["pipeline.schedule_self_s"] = index.total("pass.schedule", self_only=True)[0] * per
    m["baselines.placement_s"] = index.total("placement.assignment", within="pass.split")[0] * per
    nests = sum(len(s["verdicts"]) for s in summaries)
    gate_calls = index.total("sim.run", within="pass.schedule")[1]
    m["gate.useful_ratio"] = nests / gate_calls if gate_calls else 0.0
    for verdict in VERDICTS:
        m[f"gate.verdict.{verdict}"] = per * sum(
            list(s["verdicts"].values()).count(verdict) for s in summaries
        )
    m["core.units"] = per * sum(s["units"] for s in summaries)
    for app in ctx.apps:
        m[f"compile_s.{app}"] = per * sum(
            recorder.spans[i].duration
            for i in index.named("op.compile")
            if recorder.spans[i].tag == app
        )

    # Consistency: the schedule pass's children plus its self time make up
    # the pass, and the passes make up the traced compile.
    parts = sum(m[f"{metric}_s"] for metric in children) + m["pipeline.schedule_self_s"]
    whole = m["pipeline.schedule_s"]
    outcome.check(
        abs(parts - whole) <= SCHEDULE_SLACK * whole,
        f"schedule children sum to {parts:.6f}s, pass took {whole:.6f}s",
    )
    passes = sum(index.total(f"pass.{name}")[0] for name in PASS_REGISTRY)
    compiled = index.total("compile_program")[0]
    outcome.check(
        abs(compiled - passes) <= PASS_SUM_SLACK * compiled,
        f"passes sum to {passes:.6f}s, compile_program took {compiled:.6f}s",
    )
    outcome.notes.append(
        f"traced {len(traced_rounds)} round(s): passes {passes:.3f}s of "
        f"compile_program {compiled:.3f}s; schedule parts {parts:.3f}s of {whole:.3f}s"
    )


def overhead_pct(traced: float, untraced: float) -> float:
    return (traced - untraced) / untraced * 100.0 if untraced else 0.0


def write_spans(ctx: Context, workload: str, recorder: Recorder, outcome: Outcome) -> None:
    outcome.metrics["trace.spans"] = len(recorder.spans)
    recorder.write_jsonl(os.path.join(ctx.out_dir, f"spans-{workload}-seed{ctx.seed}.jsonl"))


# -- execute ---------------------------------------------------------------


def run_execute(ctx: Context) -> Outcome:
    outcome = Outcome()
    started = time.perf_counter()
    compiled = {}
    for app in ctx.apps:
        machine = ctx.machine()
        partition = compile_app(ctx, app, machine=machine)
        # The default placement gets its own program instance and machine, so
        # nothing the compile memoized leaks into the default run.
        compiled[app] = (ctx.program(app), machine, partition.units(), ctx.machine())
    outcome.metrics["setup_s"] = ctx.import_s + time.perf_counter() - started
    seen: Dict = {}

    def execute_app(app: str) -> Dict:
        """Default placement + simulation, then the optimized units on both backends."""
        program, machine, units, default_machine = compiled[app]
        placement = DefaultPlacement(default_machine).place(program)
        default_machine.mcdram.reset()
        default = Simulator(default_machine, SimConfig()).run(placement.units)
        machine.mcdram.reset()
        forecast = get_backend("sim").run(machine, units)
        machine.mcdram.reset()
        observed = get_backend("runtime", workers=1).run(machine, units)
        return {
            "default_units": default.unit_count,
            "units": len(units),
            "cycles": forecast.metrics.total_cycles,
            "movement": forecast.data_movement,
            "observed": observed.data_movement,
            "violations": len(observed.sync_violations),
            "tasks": observed.tasks_executed,
        }

    results: List[Dict] = []

    def one_round(rounds: List[float], recorder):
        total = 0.0
        for app in ctx.apps:
            began = time.perf_counter()
            if recorder is None:
                got = outcome.guarded(app, lambda: execute_app(app))
            else:
                with recorder.span("op.execute", app):
                    got = outcome.guarded(app, lambda: execute_app(app))
            total += time.perf_counter() - began
            if got is None:
                continue
            results.append(got)
            ok = (
                got["observed"] == got["movement"]
                and got["violations"] == 0
                and got["tasks"] == got["units"]
            )
            if outcome.check(ok, f"execute {app}: runtime disagrees with the forecast: {got}"):
                modeled = {"cycles": got["cycles"], "movement": got["movement"]}
                check_against(
                    outcome, f"execute {app}", modeled, ctx.expected_for("execute", app), seen
                )
        rounds.append(total)

    # Warm-up: the first placement on each default machine sets up state
    # that later rounds reuse, so one whole round runs untimed (and checked).
    one_round([], None)
    timed = run_rounds(ctx, outcome, one_round, results)
    last = results[-len(ctx.apps):]
    modeled_cycles = sum(r["cycles"] for r in last)
    modeled_movement = sum(r["movement"] for r in last)
    if timed is None:
        outcome.notes.append(
            f"modeled cycles {modeled_cycles:.4f}, movement {modeled_movement} flit-hops"
        )
        return outcome
    traced, recorder = timed
    index = SpanIndex(recorder.spans)
    per = 1.0 / len(traced)
    m = outcome.metrics
    sim_all = index.total("sim.run")[0]
    sim_in_backend = index.total("sim.run", within="exec.sim")[0]
    m["sim.default_s"] = (sim_all - sim_in_backend) * per
    m["sim.optimized_s"] = index.total("exec.sim")[0] * per
    m["baselines.place_s"] = index.total("placement.place")[0] * per
    m["exec.runtime_s"] = index.total("exec.runtime")[0] * per
    simulated = sum(r["default_units"] + r["units"] for r in results) * per
    m["sim.units_per_s"] = simulated / (m["sim.default_s"] + m["sim.optimized_s"])
    m["exec.tasks_per_s"] = sum(r["tasks"] for r in results) * per / m["exec.runtime_s"]
    m["exec.sync_violations"] = sum(r["violations"] for r in results)
    m["exec.movement_gap"] = sum(r["observed"] - r["movement"] for r in results)
    m["modeled_cycles"] = modeled_cycles
    m["modeled_movement"] = modeled_movement
    outcome.notes.append(f"traced {len(traced)} round(s)")
    write_spans(ctx, "execute", recorder, outcome)
    return outcome


# -- serve -----------------------------------------------------------------


@dataclass
class Sent:
    """One request as the client saw it."""

    index: int
    started: float
    ended: float = 0.0
    cache: str = ""
    ok: bool = False

    @property
    def latency_ms(self) -> float:
        return (self.ended - self.started) * 1000.0


def closed_loop(url: str, indices: Callable[[int], int], seconds: float, minimum: int,
                outcome: Outcome, expect_cache: str) -> tuple:
    """Drive ``CLIENTS`` threads, each on its own keep-alive connection.

    ``indices(n)`` is the request index of the n-th request.  A client sends
    its next request only after the previous one completed.  A 429 counts
    as failed even when its retry succeeds.
    """
    sent: List[Sent] = []
    lock = threading.Lock()
    started = time.perf_counter()

    def next_index() -> Optional[int]:
        with lock:
            count = len(sent)
            if count >= minimum and time.perf_counter() - started >= seconds:
                return None
            record = Sent(indices(count), 0.0)
            sent.append(record)
            return count

    def client_thread() -> None:
        with ServeClient(url) as client:
            while True:
                position = next_index()
                if position is None:
                    return
                record = sent[position]
                request = loadgen.synthetic_request(record.index)
                record.started = time.perf_counter()
                refused = False
                while True:
                    try:
                        _, record.cache = client.compile_raw(request)
                        record.ok = not refused
                        break
                    except ServeResponseError as error:
                        if error.status != 429:
                            break
                        refused = True
                        time.sleep(0.02)
                    except (OSError, ServeError):
                        break
                record.ended = time.perf_counter()

    threads = [threading.Thread(target=client_thread) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    for record in sent:
        outcome.check(
            record.ok and record.cache == expect_cache,
            f"request {record.index}: ok={record.ok} X-Cache={record.cache!r}, "
            f"expected {expect_cache!r}",
        )
    return [r for r in sent if r.ok], wall


def identity_check(outcome: Outcome, url: str, index: int) -> None:
    """A served artifact must be byte-identical to an in-process compile."""
    request = loadgen.synthetic_request(index)
    with ServeClient(url) as client:
        served, cache = client.compile_raw(request)
    local = compile_bytes(CompileRequest.from_json(request))
    outcome.check(
        served == local and cache == "hit",
        f"served artifact of request {index} ({cache}) differs from compile_bytes",
    )


def warm_up(url: str, base: int, outcome: Outcome) -> None:
    """One miss, then one hit, per client, on request indices outside the run."""
    indices = [base + SEED_STRIDE // 2 + k for k in range(CLIENTS)]
    for cache in ("miss", "hit"):
        closed_loop(url, lambda n: indices[n], 0.0, CLIENTS, outcome, cache)


def fresh_dir(ctx: Context, name: str) -> str:
    path = os.path.join(ctx.out_dir, name)
    shutil.rmtree(path, ignore_errors=True)
    return path


def serve_sizes(ctx: Context):
    if ctx.quick:
        return 4, 8, 4, 4
    return COLD_MIN, WARM_MIN, WARM_BASELINE_MIN, COMPILE_SAMPLE


def run_serve(ctx: Context) -> Outcome:
    if ctx.trace:
        return run_serve_traced(ctx)
    outcome = Outcome()
    cold_min, warm_min, _, _ = serve_sizes(ctx)
    base = ctx.seed * SEED_STRIDE
    spawns = []
    daemon = None
    try:
        for attempt in range(SETUP_REPEATS):
            started = time.perf_counter()
            daemon = loadgen.spawn_daemon(
                DAEMON_WORKERS, QUEUE_DEPTH, fresh_dir(ctx, "serve-cache")
            )
            spawns.append(time.perf_counter() - started)
            if attempt < SETUP_REPEATS - 1:
                code = loadgen.terminate_daemon(daemon)
                daemon = None
                outcome.check(code == 0, f"set-up daemon exited {code} on SIGTERM")
        outcome.metrics["setup_s"] = ctx.import_s + median(spawns)
        url = daemon.serve_url

        # Warm-up: one miss and one hit per client on indices outside the run.
        warm_up(url, base, outcome)

        cold, cold_wall = closed_loop(
            url, lambda n: base + n, 0.4 * ctx.seconds, cold_min, outcome, "miss"
        )
        pool = [r.index for r in cold] or [base]
        warm, warm_wall = closed_loop(
            url, lambda n: pool[n % len(pool)], 0.6 * ctx.seconds, warm_min, outcome, "hit"
        )
        identity_check(outcome, url, pool[0])
    finally:
        if daemon is not None:
            code = loadgen.terminate_daemon(daemon)
            outcome.check(code == 0, f"daemon exited {code} on SIGTERM")
        shutil.rmtree(os.path.join(ctx.out_dir, "serve-cache"), ignore_errors=True)

    latencies = [r.latency_ms for r in warm]
    label, value = tail(latencies)
    cold_label, cold_tail = tail([r.latency_ms for r in cold])
    outcome.metrics.update(
        {
            "p50_ms": median(latencies),
            "tail_ms": value,
            "ops_per_s": len(warm) / warm_wall,
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        }
    )
    outcome.notes.append(
        f"warm: {len(warm)} hits, tail is {label}; cold: {len(cold)} misses in "
        f"{cold_wall:.1f}s, p50 {median(r.latency_ms for r in cold):.1f} ms, "
        f"{cold_label} {cold_tail:.1f} ms"
    )
    return outcome


def run_serve_traced(ctx: Context) -> Outcome:
    """Host the daemon in this process so the wrappers see the service."""
    outcome = Outcome()
    cold_min, warm_min, baseline_min, sample = serve_sizes(ctx)
    base = ctx.seed * SEED_STRIDE
    daemon = ServeDaemon(
        ServeConfig(
            workers=DAEMON_WORKERS,
            queue_depth=QUEUE_DEPTH,
            cache_dir=fresh_dir(ctx, "serve-cache"),
        )
    ).start()
    recorder = Recorder()
    try:
        url = daemon.url
        warm_up(url, base, outcome)

        install_layers(recorder)
        try:
            cold, _ = closed_loop(url, lambda n: base + n, 0.0, cold_min, outcome, "miss")
        finally:
            recorder.uninstall()
        cold_end = time.perf_counter()
        pool = [r.index for r in cold] or [base]
        baseline, _ = closed_loop(
            url, lambda n: pool[n % len(pool)], 0.0, baseline_min, outcome, "hit"
        )
        install_layers(recorder)
        try:
            warm, _ = closed_loop(
                url, lambda n: pool[n % len(pool)], 0.0, warm_min, outcome, "hit"
            )
        finally:
            recorder.uninstall()
        compile_ms = []
        for index in pool[:sample]:
            request = CompileRequest.from_json(loadgen.synthetic_request(index))
            started = time.perf_counter()
            compile_bytes(request)
            compile_ms.append((time.perf_counter() - started) * 1000.0)
        identity_check(outcome, url, pool[0])
        with ServeClient(url) as client:
            stats = client.stats()
    finally:
        clean = daemon.stop()
        outcome.check(clean, "in-process daemon did not drain cleanly")
        shutil.rmtree(os.path.join(ctx.out_dir, "serve-cache"), ignore_errors=True)

    index = SpanIndex(recorder.spans)
    m = outcome.metrics

    def handles(phase_cold: bool):
        """handle spans of one phase, keyed by request index."""
        found = {}
        for i in index.named("serve.handle"):
            s = recorder.spans[i]
            if (s.start < cold_end) == phase_cold:
                found.setdefault(s.tag, []).append(i)
        return found

    def children_ms(parents, name: str) -> List[float]:
        return [
            recorder.spans[c].duration * 1000.0
            for p in parents
            for c in index.children.get(p, ())
            if recorder.spans[c].name == name
        ]

    def http_ms(records: List[Sent], by_tag) -> List[float]:
        """Client latency minus the handle time of the same request."""
        gaps = []
        for r in records:
            for i in by_tag.get(r.index, ()):
                s = recorder.spans[i]
                if r.started <= s.start and s.end <= r.ended:
                    gaps.append(r.latency_ms - s.duration * 1000.0)
                    break
        return gaps

    cold_handles, warm_handles = handles(True), handles(False)
    cold_ids = [i for ids in cold_handles.values() for i in ids]
    warm_ids = [i for ids in warm_handles.values() for i in ids]
    request_ms = [
        sum(
            recorder.spans[c].duration * 1000.0
            for c in index.children.get(p, ())
            if recorder.spans[c].name in ("serve.from_json", "serve.fingerprint")
        )
        for p in cold_ids + warm_ids
    ]
    warm_latency = [r.latency_ms for r in warm]
    cold_latency = [r.latency_ms for r in cold]
    m["serve.request_ms"] = median(request_ms)
    m["serve.handle_hit_ms"] = median(recorder.spans[i].duration * 1000.0 for i in warm_ids)
    m["serve.handle_miss_ms"] = median(recorder.spans[i].duration * 1000.0 for i in cold_ids)
    m["serve.store.get_ms"] = median(children_ms(warm_ids, "store.get"))
    m["serve.store.put_ms"] = median(children_ms(cold_ids, "store.put"))
    m["serve.pool.call_ms"] = median(
        recorder.spans[i].duration * 1000.0 for i in index.named("pool.call")
    )
    m["serve.compile_ms"] = median(compile_ms)
    m["serve.pool.wait_ms"] = m["serve.pool.call_ms"] - m["serve.compile_ms"]
    m["serve.http_ms"] = median(http_ms(warm, warm_handles))
    m["serve.http_miss_ms"] = median(http_ms(cold, cold_handles))
    m["serve.cold_p50_ms"] = median(cold_latency)
    m["serve.cold_p95_ms"] = tail(cold_latency)[1]
    m["serve.warm_p50_ms"] = median(warm_latency)
    m["serve.hit_ratio"] = stats["cache_hits"] / stats["requests"]
    for key in ("compiles", "joined", "rejected", "retries", "worker_restarts"):
        m[f"serve.{key}"] = stats[key]
    m["serve.store.evictions"] = stats["store"]["evictions"]
    m["trace.overhead_pct"] = overhead_pct(
        m["serve.warm_p50_ms"], median(r.latency_ms for r in baseline)
    )
    parts = m["serve.http_ms"] + m["serve.handle_hit_ms"]
    whole = m["serve.warm_p50_ms"]
    outcome.check(
        abs(parts - whole) <= HTTP_SLACK * whole + HTTP_SLACK_MS,
        f"http {m['serve.http_ms']:.3f} + handle {m['serve.handle_hit_ms']:.3f} ms "
        f"does not account for warm p50 {whole:.3f} ms",
    )
    outcome.notes.append(
        f"traced {len(cold)} cold and {len(warm)} warm requests "
        f"({len(baseline)} untraced warm for the overhead); cold {tail(cold_latency)[0]}"
    )
    write_spans(ctx, "serve", recorder, outcome)
    return outcome


RUNNERS = {"compile": run_compile, "execute": run_execute, "serve": run_serve}


def run(workload: str, ctx: Context) -> Outcome:
    outcome = RUNNERS[workload](ctx)
    if ctx.trace:
        outcome.metrics["error_rate"] = outcome.failed / max(outcome.attempted, 1)
    else:
        outcome.metrics["success_rate"] = 1.0 - outcome.failed / max(outcome.attempted, 1)
    return outcome


def record_expected(seed: int) -> Dict:
    """Compile outputs and modeled results of ``seed``, for ``expected.json``."""
    entry: Dict = {"compile": {}, "execute": {}}
    for quick in (False, True):
        ctx = Context(seed, 0.0, False, quick, "", 0.0, {})
        key = "tiny" if quick else str(seed)
        for app in ctx.apps:
            machine = ctx.machine()
            partition = compile_app(ctx, app, machine=machine)
            entry["compile"].setdefault(key, {})[app] = summarize(partition)
            machine.mcdram.reset()
            forecast = get_backend("sim").run(machine, partition.units())
            entry["execute"].setdefault(key, {})[app] = {
                "cycles": forecast.metrics.total_cycles,
                "movement": forecast.data_movement,
            }
    return entry


def load_expected(path: str) -> Dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}
