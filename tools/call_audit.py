#!/usr/bin/env python
"""List every ``repro`` function that the tier-1 suite never calls.

Runs pytest in this process (by default the tier-1 suite: ``pytest -q``
over ``tests/``) under a stdlib call profiler — :func:`sys.setprofile`
for the main thread, :func:`threading.setprofile` for every thread
started afterwards — and records the code object of each Python call.
It then compiles every module under ``src/repro`` and prints each
function, method or closure whose code never ran, as
``path:line qualname``, followed by a count.

Blind spots: forked workers (the window-size search's process pool, the
serve daemon's workers) and subprocess CLIs are not followed, so code
that runs only there is listed as uncalled; so is code that only
``benchmarks/`` or ``perfbench/`` reach.  The list is a lead for a code
diet, not a verdict: read each entry before deleting it.

Usage::

    python tools/call_audit.py              # audit tier-1
    python tools/call_audit.py tests/test_cache.py   # any pytest args
    make call-audit

The exit status is pytest's.  The profiler slows the suite down by
roughly two to three times.
"""

import inspect
import os
import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

CodeKey = Tuple[str, int, str]


def _key(code: CodeType) -> CodeKey:
    return (code.co_filename, code.co_firstlineno, code.co_qualname)


def _functions(code: CodeType) -> Iterator[CodeType]:
    """Every function code object nested in ``code`` (not class bodies
    or comprehensions)."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                yield const
            yield from _functions(const)


def defined_functions() -> List[CodeKey]:
    """(file, first line, qualname) of every function under ``src/repro``."""
    found: List[CodeKey] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        filename = str(path)
        module = compile(path.read_text(), filename, "exec")
        found.extend(_key(code) for code in _functions(module))
    return found


def run_profiled(pytest_args: List[str]) -> Tuple[int, Set[CodeKey]]:
    """Run pytest under the call profiler; returns (status, called keys)."""
    import pytest

    called: Set[CodeType] = set()
    add = called.add

    def profile(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return int(status), {_key(code) for code in called}


def main(argv: List[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    status, called = run_profiled(argv or ["-q", "-p", "no:cacheprovider"])
    defined = defined_functions()
    uncalled = [key for key in defined if key not in called]
    for filename, line, qualname in uncalled:
        print(f"{Path(filename).relative_to(ROOT)}:{line} {qualname}")
    print(
        f"call-audit: {len(uncalled)} of {len(defined)} repro functions "
        "never called"
    )
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
