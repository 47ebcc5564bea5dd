"""Signature-deduplicated statement splitting (the MST fast path).

An empty-``variable2node_map`` split's *structure* — operand tree, chosen
vertices, Kruskal edge order, merge log — depends only on the statement's
shape plus the tuple of (leaf primary locations, store node): with no L1
copies every leaf's vertex collapses to its primary, and the MST runs over
those vertices alone.  Distinct instances of the same statement therefore
produce only as many distinct split structures as there are distinct
signatures (typically a handful per statement on a mesh), while the seed
recomputed Kruskal per instance.

:class:`SplitTemplates` keeps one real :func:`split_statement` result per
signature (the *template*) and materializes per-instance splits as cheap
clones: the structural parts (sets, merges, MST edges) are shared —
the scheduler never mutates a split — while the per-instance parts
(the instance itself, each leaf's access and its table-derived on-chip
verdict) are rebuilt.  Check mode verifies every clone bit-equal to a
fresh recompute via ``check_split_cache_hit``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import check
from repro.core.locator import Location
from repro.core.mst import MstEdge
from repro.core.splitter import LeafInfo, MergeStep, StatementSplit, split_statement
from repro.utils.union_find import UnionFind

#: Per-statement template stores stop growing past this many signatures
#: (memory bound; misses just recompute without caching).
_TEMPLATE_LIMIT = 1 << 14


class SplitTemplates:
    """Per-nest store of signature-deduplicated statement splits."""

    def __init__(self, tables, locator, flatten_products: bool = False):
        """Empty template store over ``tables``; filled by first splits."""
        self.tables = tables
        self.locator = locator
        self.flatten = bool(flatten_products)
        body = tables.body_size
        self._templates: List[Dict[Tuple[int, ...], StatementSplit]] = [
            {} for _ in range(body)
        ]
        # Leaf positions of each statement's operand tree, in leaf order
        # (filled from the first real split; structure is static per
        # statement).
        self._leaf_positions: List[Optional[Tuple[int, ...]]] = [None] * body
        # Static split skeleton per statement: the operand-set structure and
        # member-id assignment never change across instances, only vertices
        # and the MST do.  ``(leaf_specs, sets, store_member, root_member)``
        # with leaf_specs = ((member_id, position, negated, inverted), ...).
        self._skeletons: List[Optional[tuple]] = [None] * body
        # (vertex..., store_node) -> (merges, mst_edges) per statement: the
        # MST is a pure function of the component vertices over the static
        # set structure, so map-dependent splits that land on the same
        # vertices share one Kruskal run (shared read-only, like _clone).
        self._mst_memo: List[Dict[Tuple[int, ...], tuple]] = [{} for _ in range(body)]

    def _instance_coords(self, instance) -> Tuple[int, int]:
        """(iteration row, body statement index) of ``instance``."""
        return divmod(instance.seq - self.tables.seq_base, self.tables.body_size)

    def _learn(self, instance, s: int) -> StatementSplit:
        """Split the statement's first instance in full; keep its skeleton.

        The one real :func:`split_statement` per statement: its leaf
        positions and operand-set skeleton are static across instances,
        and it is the first template.
        """
        template = split_statement(
            instance, self.locator, flatten_products=self.flatten
        )
        self._leaf_positions[s] = tuple(
            leaf.position for leaf in template.leaves.values()
        )
        self._skeletons[s] = (
            tuple(
                (leaf.member_id, leaf.position, leaf.negated, leaf.inverted)
                for leaf in template.leaves.values()
            ),
            template.sets,
            template.store_member,
            template.root_member,
        )
        signature = tuple(
            leaf.location.primary for leaf in template.leaves.values()
        ) + (template.store_node,)
        self._templates[s][signature] = template
        return template

    def split(self, instance) -> StatementSplit:
        """The empty-map split of ``instance`` (template or cheap clone)."""
        it, s = self._instance_coords(instance)
        positions = self._leaf_positions[s]
        if positions is None:
            return self._learn(instance, s)
        tables = self.tables
        primaries = tables.read_primary[s]
        signature = tuple(primaries[p][it] for p in positions) + (
            tables.store_node[s][it],
        )
        store = self._templates[s]
        template = store.get(signature)
        if template is None:
            template = self._fast_split(instance, it, s, signature)
            if len(store) < _TEMPLATE_LIMIT:
                store[signature] = template
            if check.enabled():
                from repro.check import invariants

                invariants.check_split_cache_hit(
                    template,
                    split_statement(
                        instance, self.locator, flatten_products=self.flatten
                    ),
                )
            return template
        if template.instance.seq == instance.seq:
            return template
        split = self._clone(template, instance, it, s)
        if check.enabled():
            from repro.check import invariants

            invariants.check_split_cache_hit(
                split,
                split_statement(
                    instance, self.locator, flatten_products=self.flatten
                ),
            )
        return split

    def blocks_held(self, instance, var2node) -> bool:
        """True when any leaf operand's block is modeled L1-resident.

        When False, every ``locate`` would return empty ``l1_copies`` and
        the split equals the empty-map split (:meth:`split`).
        """
        tables = self.tables
        it, s = divmod(instance.seq - tables.seq_base, tables.body_size)
        positions = self._leaf_positions[s]
        if positions is None:
            self._learn(instance, s)
            positions = self._leaf_positions[s]
        blocks = tables.read_block[s]
        holds = var2node.holds_block
        for position in positions:
            if holds(blocks[position][it]):
                return True
        return False

    def _fast_split(
        self, instance, it: int, s: int, signature: Tuple[int, ...]
    ) -> StatementSplit:
        """Recompute only the MST over the static skeleton (signature miss).

        With an empty ``variable2node_map`` every leaf's vertex is its
        primary location, so a fresh :func:`split_statement` would rebuild
        the operand tree and re-resolve every leaf just to rerun Kruskal
        over the new primaries.  The skeleton (member ids, set structure,
        signs) is static per statement; replay Kruskal set by set —
        innermost first, exactly the order ``split_statement`` emits its
        ``sets`` records — over the table's primaries.
        """
        leaf_specs, sets, store_member, root_member = self._skeletons[s]
        tables = self.tables
        on_chip = tables.read_on_chip[s]
        primaries = tables.read_primary[s]
        store_node = signature[-1]
        reads = instance.reads

        leaves: Dict[int, LeafInfo] = {}
        component_nodes: Dict[int, Tuple[int, ...]] = {store_member: (store_node,)}
        for member, position, negated, inverted in leaf_specs:
            access = reads[position]
            primary = primaries[position][it]
            leaves[member] = LeafInfo(
                member_id=member,
                position=position,
                access=access,
                location=Location(
                    access=access,
                    primary=primary,
                    on_chip=on_chip[position][it],
                    l1_copies=(),
                ),
                vertex=primary,
                negated=negated,
                inverted=inverted,
            )
            component_nodes[member] = (primary,)
        memo = self._mst_memo[s]
        cached = memo.get(signature)
        if cached is None:
            cached = self._run_kruskal(sets, component_nodes)
            if len(memo) < _TEMPLATE_LIMIT:
                memo[signature] = cached
        merges, mst_edges = cached
        return StatementSplit(
            instance=instance,
            leaves=leaves,
            sets=sets,
            merges=merges,
            mst_edges=mst_edges,
            store_member=store_member,
            store_node=store_node,
            root_member=root_member,
        )

    def split_with_map(self, instance, var2node) -> StatementSplit:
        """The split of ``instance`` against a non-empty window map.

        Same answers as ``split_statement(instance, locator, var2node)``,
        built from the static skeleton and the tables: per leaf, the L1
        copies come from the map (by table block id) and the vertex choice
        replays ``_choose_leaf_vertex`` exactly — candidates are the L1
        copies plus the primary, ranked by total distance to the other
        leaves' primaries and the store.
        """
        tables = self.tables
        it, s = divmod(instance.seq - tables.seq_base, tables.body_size)
        if self._skeletons[s] is None:
            self._learn(instance, s)
        leaf_specs, sets, store_member, root_member = self._skeletons[s]
        blocks = tables.read_block[s]
        on_chip = tables.read_on_chip[s]
        primaries = tables.read_primary[s]
        store_node = tables.store_node[s][it]
        distance = self.locator.machine.mesh.distance_fn()
        nodes_with = var2node.nodes_with
        reads = instance.reads

        leaf_primaries = [primaries[position][it] for _, position, _, _ in leaf_specs]
        leaves: Dict[int, LeafInfo] = {}
        component_nodes: Dict[int, Tuple[int, ...]] = {store_member: (store_node,)}
        for k, (member, position, negated, inverted) in enumerate(leaf_specs):
            access = reads[position]
            primary = leaf_primaries[k]
            copies = nodes_with(blocks[position][it])
            if copies:
                anchors = [
                    p
                    for j, p in enumerate(leaf_primaries)
                    if leaf_specs[j][1] != position
                ]
                anchors.append(store_node)
                vertex = min(
                    copies + (primary,),
                    key=lambda node: (
                        sum(distance(node, a) for a in anchors),
                        node,
                    ),
                )
            else:
                vertex = primary
            leaves[member] = LeafInfo(
                member_id=member,
                position=position,
                access=access,
                location=Location(
                    access=access,
                    primary=primary,
                    on_chip=on_chip[position][it],
                    l1_copies=copies,
                ),
                vertex=vertex,
                negated=negated,
                inverted=inverted,
            )
            component_nodes[member] = (vertex,)
        memo = self._mst_memo[s]
        memo_key = tuple(leaves[m].vertex for m, _, _, _ in leaf_specs) + (store_node,)
        cached = memo.get(memo_key)
        if cached is None:
            cached = self._run_kruskal(sets, component_nodes)
            if len(memo) < _TEMPLATE_LIMIT:
                memo[memo_key] = cached
        merges, mst_edges = cached
        return StatementSplit(
            instance=instance,
            leaves=leaves,
            sets=sets,
            merges=merges,
            mst_edges=mst_edges,
            store_member=store_member,
            store_node=store_node,
            root_member=root_member,
        )

    def _run_kruskal(self, sets, component_nodes) -> Tuple[list, list]:
        """Replay ``split_statement``'s per-set Kruskal over the skeleton."""
        distance = self.locator.machine.mesh.distance_fn()
        merges: List[MergeStep] = []
        mst_edges: List[MstEdge] = []
        for record in sets:
            member_ids = record.member_ids
            if len(member_ids) >= 2:
                candidate_edges = []
                for i, ma in enumerate(member_ids):
                    nodes_a = component_nodes[ma]
                    for mb in member_ids[i + 1:]:
                        best_w = -1
                        best_na = best_nb = 0
                        for na in nodes_a:
                            for nb in component_nodes[mb]:
                                w = distance(na, nb)
                                if best_w < 0 or w < best_w:
                                    best_w = w
                                    best_na = na
                                    best_nb = nb
                        candidate_edges.append(
                            (best_w, ma, mb, MstEdge(best_na, best_nb, best_w))
                        )
                candidate_edges.sort()
                uf = UnionFind(member_ids)
                op_kind = record.op_kind
                set_id = record.set_id
                for weight, ma, mb, edge in candidate_edges:
                    if uf.union(ma, mb):
                        merges.append(MergeStep(set_id, op_kind, ma, mb, edge))
                        mst_edges.append(edge)
            component_nodes[record.set_id] = tuple(
                sorted({n for m in member_ids for n in component_nodes[m]})
            )
        return merges, mst_edges

    def _clone(self, template, instance, it: int, s: int) -> StatementSplit:
        """Materialize ``template``'s structure for another instance.

        Structural parts (sets, merges, MST edges, member ids) are shared
        read-only; leaves are rebuilt with the instance's own accesses and
        the table's per-instance on-chip verdicts.  Primaries and vertices
        come from the template — equal by signature.
        """
        on_chip = self.tables.read_on_chip[s]
        reads = instance.reads
        leaves: Dict[int, LeafInfo] = {}
        for member, leaf in template.leaves.items():
            access = reads[leaf.position]
            leaves[member] = LeafInfo(
                member_id=member,
                position=leaf.position,
                access=access,
                location=Location(
                    access=access,
                    primary=leaf.location.primary,
                    on_chip=on_chip[leaf.position][it],
                    l1_copies=(),
                ),
                vertex=leaf.vertex,
                negated=leaf.negated,
                inverted=leaf.inverted,
            )
        return StatementSplit(
            instance=instance,
            leaves=leaves,
            sets=template.sets,
            merges=template.merges,
            mst_edges=template.mst_edges,
            store_member=template.store_member,
            store_node=template.store_node,
            root_member=template.root_member,
        )
