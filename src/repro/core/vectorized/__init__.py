"""``repro.core.vectorized`` — the partitioner's table-backed location layer.

Two layers, checked against the scalar splitter by check-mode oracles:

* :class:`~repro.core.vectorized.tables.NestTables` — per-nest batched
  VA->PA->block/primary/on-chip tables, replaying page translations in
  canonical first-touch order;
* :class:`~repro.core.vectorized.split_kernel.SplitTemplates` —
  signature-deduplicated statement splits built on those tables.

They are the only scheduling path.  That rests on one invariant, which
every predictor the pipeline accepts keeps: a verdict depends on the
queried address alone, never on how often or in what order the compiler
asked (``train`` is the only writer, and training finishes before
scheduling starts).  A verdict can therefore be batched into a table once
and read back any number of times.  Both caches live in
:class:`~repro.pipeline.session.SessionCaches` and are cleared per
compile.
"""

from __future__ import annotations

from repro.core.vectorized.split_kernel import SplitTemplates
from repro.core.vectorized.tables import NestTables

__all__ = ["NestTables", "SplitTemplates", "templates_for"]


def templates_for(
    session, program, nest, locator, flatten_products: bool
) -> SplitTemplates:
    """The session's :class:`SplitTemplates` for ``nest``, built on first use.

    The nest's :class:`NestTables` are shared by both ``flatten_products``
    settings.  Raises :class:`~repro.errors.WorkloadError` when the nest's
    accesses cannot be resolved (an irregular nest whose index data is
    missing).
    """
    caches = session.caches
    key = (nest.name, bool(flatten_products))
    templates = caches.split_templates.get(key)
    if templates is None:
        tables = caches.nest_tables.get(nest.name)
        if tables is None:
            tables = NestTables(program, nest, session.machine, locator.predictor)
            caches.nest_tables[nest.name] = tables
        templates = SplitTemplates(tables, locator, flatten_products)
        caches.split_templates[key] = templates
    return templates
