"""Per-nest vectorized location tables (the splitter/scheduler's only path).

The scalar pipeline answers "where does this operand live?" one access at a
time: ``pa_of`` -> predictor -> home/MC map, each a Python call chain.  For
an affine (or inspector-resolved) nest the whole question can be answered
up front: :class:`NestTables` batches the virtual addresses of every access
of the nest (via :mod:`repro.ir.affine`), replays the page translations in
the exact first-touch order the scalar code would have used, and derives
flat per-column tables:

* ``read_block[s][r][it]``  — L2 block of statement ``s``'s ``r``-th read
  at iteration ``it``;
* ``read_on_chip[s][r][it]`` — the hit/miss predictor's verdict;
* ``read_primary[s][r][it]`` — the primary location node (home bank when
  predicted on-chip, else the MC node);
* ``write_block[s][it]`` / ``store_node[s][it]`` — the write's block and
  its home (store) node.

Invariants (enforced by ``check_nest_tables`` in check mode):

1. **Translation-order preservation.**  Page frames are assigned by a
   color-preserving first-touch allocator, so the *order* of first touches
   is semantically load-bearing.  ``ensure(n)`` extends coverage at
   *statement-instance* granularity, replaying the canonical access stream
   (per instance: reads in RHS order, then the write) through
   ``allocator.translate`` — the same order the scalar profiling and
   scheduling loops touch pages — so frame assignment is bit-identical to
   the scalar pipeline.
2. **Purity.**  A predictor's verdict depends on the queried address
   alone (``train`` is its only writer, and training ends before any
   table is built), so a verdict batched here equals every later scalar
   ``predict`` of the same address.  The trace, analytic and
   ideal-analysis predictors all keep this contract.
3. **Equality.**  Every table entry equals the scalar
   ``DataLocator``/``Machine`` answer for the same access (check mode
   samples and compares).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro import check
from repro.ir.affine import access_table


class NestTables:
    """Vectorized block/location tables of one loop nest.

    Construction resolves the access columns (virtual addresses only — no
    page is touched); :meth:`ensure` extends physical coverage to the first
    ``n`` statement instances.  Lookups are plain nested-list indexing,
    which beats ndarray item access for the scalar hot paths.
    """

    def __init__(self, program, nest, machine, predictor):
        """Resolve ``nest``'s access table; row materialization is lazy."""
        self.nest = nest
        self.machine = machine
        self.predictor = predictor
        self.seq_base = program.seq_base_of(nest)
        self.body_size = nest.body_size
        self.instance_count = nest.instance_count
        self.access = access_table(program, nest)
        layout = machine.layout
        self._layout = layout
        mapping = layout.mapping
        self._page_size = int(mapping.memory.page_size)
        self._block_shift = int(mapping.l2.offset_field.width)
        self._columns = self.access.columns()
        # Virtual address of every column entry (affine closed form).
        self._col_va: List[np.ndarray] = []
        for column in self._columns:
            base = layout.va_of(column.array, 0)
            esize = layout.spec(column.array).element_size
            self._col_va.append(base + column.indices * np.int64(esize))
        # Statement ``s`` owns canonical columns
        # ``col_bounds[s]..col_bounds[s+1]`` (reads in RHS order, then the
        # write).
        bounds = [0]
        for s in range(self.body_size):
            bounds.append(bounds[-1] + len(self.access.reads[s]) + 1)
        self._col_bounds = bounds
        self._col_count = bounds[-1]
        # Row-major (iteration x column) VA matrix: one row raveled is one
        # loop iteration's canonical access stream.
        self._va_matrix = (
            np.stack(self._col_va, axis=1)
            if self._col_va
            else np.zeros((self.access.iterations, 0), dtype=np.int64)
        )
        # page number -> physical frame, filled in first-touch order.
        self._frames: Dict[int, int] = {}
        #: Statement instances covered so far.
        self.covered = 0
        self._rows_done = [0] * self._col_count
        # Public scalar-lookup tables (grown by _materialize).
        self.read_block: List[List[List[int]]] = [
            [[] for _ in self.access.reads[s]] for s in range(self.body_size)
        ]
        self.read_on_chip: List[List[List[bool]]] = [
            [[] for _ in self.access.reads[s]] for s in range(self.body_size)
        ]
        self.read_primary: List[List[List[int]]] = [
            [[] for _ in self.access.reads[s]] for s in range(self.body_size)
        ]
        self.write_block: List[List[int]] = [[] for _ in range(self.body_size)]
        self.store_node: List[List[int]] = [[] for _ in range(self.body_size)]

    def ensure(self, n_instances: int) -> None:
        """Extend coverage to the nest's first ``n_instances`` instances."""
        n = min(int(n_instances), self.instance_count)
        if n <= self.covered:
            return
        self._translate(self.covered, n)
        self.covered = n
        self._materialize()
        if check.enabled():
            from repro.check import invariants

            invariants.check_nest_tables(self)

    # -- translation replay ------------------------------------------------

    def _translate(self, lo: int, hi: int) -> None:
        """Touch the pages of instances ``[lo, hi)`` in canonical order.

        The canonical stream is the row-major ravel of the VA matrix,
        restricted to the instance range — which may start or end mid-row
        (profiling samples a fixed *instance* count, cutting iterations).
        Segments: partial head row, full middle rows, partial tail row.
        """
        body = self.body_size
        matrix = self._va_matrix
        bounds = self._col_bounds
        lo_row, lo_s = divmod(lo, body)
        hi_row, hi_s = divmod(hi, body)
        parts = []
        if lo_s:
            if lo_row == hi_row:
                self._map_pages([matrix[lo_row, bounds[lo_s]:bounds[hi_s]]])
                return
            parts.append(matrix[lo_row, bounds[lo_s]:])
            lo_row += 1
        if hi_row > lo_row:
            parts.append(matrix[lo_row:hi_row].reshape(-1))
        if hi_s:
            parts.append(matrix[hi_row, :bounds[hi_s]])
        self._map_pages(parts)

    def _map_pages(self, parts) -> None:
        """First-touch translate every new page of a VA stream, in order."""
        parts = [part for part in parts if part.size]
        if not parts:
            return
        stream = np.concatenate(parts) if len(parts) > 1 else parts[0]
        page_size = self._page_size
        pages = stream // page_size
        unique, first = np.unique(pages, return_index=True)
        frames = self._frames
        translate = self._layout.allocator.translate
        # np.unique sorts by page number; replay new pages in stream order.
        for k in np.argsort(first, kind="stable"):
            page = int(unique[k])
            if page not in frames:
                frames[page] = translate(int(stream[first[k]])) // page_size

    def _pa_of(self, va: np.ndarray) -> np.ndarray:
        """Physical addresses of already-translated virtual addresses."""
        page_size = self._page_size
        pages = va // page_size
        offsets = va - pages * page_size
        unique, inverse = np.unique(pages, return_inverse=True)
        frames = self._frames
        unique_frames = np.fromiter(
            (frames[int(page)] for page in unique),
            dtype=np.int64,
            count=len(unique),
        )
        return unique_frames[inverse] * page_size + offsets

    # -- derived tables ----------------------------------------------------

    def _materialize(self) -> None:
        """Fill the per-column tables up to the covered instance count.

        A column of statement ``s`` has ``n // body + (1 if s < n % body)``
        covered rows when ``n`` instances are covered — exactly the rows
        whose pages the canonical replay has translated.
        """
        full_rows, rem = divmod(self.covered, self.body_size)
        machine = self.machine
        predictor = self.predictor
        shift = self._block_shift
        for s in range(self.body_size):
            target = full_rows + (1 if s < rem else 0)
            base = self._col_bounds[s]
            read_count = self._col_bounds[s + 1] - base - 1
            for k in range(read_count + 1):
                c = base + k
                done = self._rows_done[c]
                if target <= done:
                    continue
                column = self._columns[c]
                pa = self._pa_of(self._col_va[c][done:target])
                blocks = pa >> shift
                indices = column.indices[done:target]
                homes = machine.home_node_map(column.array)[indices]
                if k < read_count:
                    if predictor is not None:
                        on_chip = predictor.predict_many(pa)
                        primary = np.where(
                            on_chip,
                            homes,
                            machine.mc_node_map(column.array)[indices],
                        )
                    else:
                        on_chip = np.ones(len(pa), dtype=bool)
                        primary = homes
                    self.read_block[s][k].extend(blocks.tolist())
                    self.read_on_chip[s][k].extend(on_chip.tolist())
                    self.read_primary[s][k].extend(primary.tolist())
                else:
                    self.write_block[s].extend(blocks.tolist())
                    self.store_node[s].extend(homes.tolist())
                self._rows_done[c] = target
