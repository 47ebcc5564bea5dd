#!/usr/bin/env python3
"""The repository's benchmark: compile, execute and serve, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload compile --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each
    python3 perfbench/run.py --self-check            # seconds-long check of this benchmark

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload once untraced and once under timing
wrappers and prints the per-layer metrics.  Every metric is printed on its
own line with its unit, and the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run records and
span dumps go to ``.perfbench_out/`` under the repository root.
``--record-expected`` rewrites ``perfbench/expected.json`` (the outputs the
compile and execute checks compare against) for the given seed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compile", "execute", "serve")
EXPECTED = HERE / "expected.json"
OUT_DIR = ROOT / ".perfbench_out"
#: Seconds per workload in ``--quick`` runs.
QUICK_SECONDS = 0.5
NOT_EXERCISED = "(not exercised by this workload)"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def use_sources() -> None:
    """Import the repository from its sources, here and in the daemon subprocess."""
    src = str(ROOT / "src")
    sys.path[:0] = [src, str(HERE)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )


def run_one(args, spec) -> int:
    """Run one workload in this process and print its metrics."""
    started = time.perf_counter()
    use_sources()
    import workloads  # imports the repository: part of set-up

    import_s = time.perf_counter() - started
    OUT_DIR.mkdir(exist_ok=True)
    ctx = workloads.Context(
        seed=args.seed,
        seconds=QUICK_SECONDS if args.quick else args.seconds,
        trace=bool(args.trace),
        quick=args.quick,
        out_dir=str(OUT_DIR),
        import_s=import_s,
        expected=workloads.load_expected(str(EXPECTED)),
    )
    outcome = workloads.run(args.workload, ctx)

    kind = "per_layer" if args.trace else "end_to_end"
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"why: {workloads.REASONS[args.workload]}")
    metrics = {}
    for entry in spec[kind]:
        name, unit = entry["name"], entry["unit"]
        value = outcome.metrics.get(name)
        note = ""
        if value is None:
            if kind == "end_to_end":
                raise SystemExit(f"error: workload {args.workload} did not measure {name}")
            value, note = 0.0, NOT_EXERCISED
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<34} {value:>16.6f} {unit} {note}".rstrip())
    for line in outcome.notes:
        print(f"note: {line}")
    for line in outcome.messages:
        print(f"FAILED: {line}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  why=workloads.REASONS[args.workload], notes=outcome.notes,
                  messages=outcome.messages)
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def child(workload: str, seed: int, seconds: int, trace: int, quick: bool):
    """Run one workload in a fresh process; returns (stdout lines, result)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return lines, json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload, each in its own process; prints them all by name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        lines, result = child(workload, args.seed, args.seconds, args.trace, args.quick)
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def self_check(spec) -> int:
    """Run every workload small, traced and untraced, and check the output."""
    problems = []
    exercised = set()
    for trace in (0, 1):
        kind = "per_layer" if trace else "end_to_end"
        for workload in WORKLOADS:
            lines, result = child(workload, 0, 1, trace, quick=True)
            where = f"{workload} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: checks did not pass: {result}")
            for entry in spec[kind]:
                name, unit = entry["name"], entry["unit"]
                printed = [line for line in lines if line.split()[:1] == [name]]
                if result["metrics"].get(name, {}).get("unit") != unit or not printed:
                    problems.append(f"{where}: {name} not printed with unit {unit}")
                elif not printed[0].endswith(NOT_EXERCISED):
                    exercised.add(name)
    for entry in spec["per_layer"]:
        # Per-program rows exist only for the paper apps, which --quick skips.
        if entry["name"] not in exercised and not entry["name"].startswith("compile_s."):
            problems.append(f"no workload measures {entry['name']}")
    for problem in problems:
        print(f"self-check: {problem}")
    print(f"self-check: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny app on the small machine and a handful of requests")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload with --quick and check the output")
    parser.add_argument("--record-expected", action="store_true",
                        help=f"rewrite {EXPECTED.name} for --seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no repository sources under {ROOT}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.self_check:
        return self_check(spec)
    if args.record_expected:
        use_sources()
        import workloads

        expected = workloads.load_expected(str(EXPECTED))
        for workload, entries in workloads.record_expected(args.seed).items():
            expected.setdefault(workload, {}).update(entries)
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
