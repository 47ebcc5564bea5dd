#!/usr/bin/env python
"""Compile the built-in tiny app with ideal data analysis, in check mode.

The ideal-analysis baseline (Fig 17's third bar) schedules through the
same table-backed path as every other compile.  ``make check`` runs this
script under ``REPRO_CHECK=1`` with a 2-process window-size search, so
the oracle's tables, and the tables the search's worker processes
rebuild, pass every check-mode cross-check (DESIGN.md section 10.2).

Usage::

    REPRO_CHECK=1 python tools/check_ideal_analysis.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import check  # noqa: E402
from repro.arch.knl import small_machine  # noqa: E402
from repro.baselines.ideal import partition_with_ideal_analysis  # noqa: E402
from repro.benchmarks.perf import tiny_app  # noqa: E402
from repro.core.partitioner import PartitionConfig  # noqa: E402
from repro.core.window import WindowConfig  # noqa: E402


def main() -> int:
    config = PartitionConfig(window=WindowConfig(jobs=2))
    result = partition_with_ideal_analysis(small_machine(), tiny_app(), config)
    mode = "on" if check.enabled() else "off"
    print(
        f"ideal-analysis tiny: movement {result.movement}, "
        f"variants {result.variant_by_nest} (check mode {mode}, jobs=2)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
