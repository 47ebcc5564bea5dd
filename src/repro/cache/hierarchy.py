"""Per-node L1 caches, distributed L2 banks, and the one movement walk.

:class:`CacheSystem` owns one L1 per mesh node and one L2 bank per node
(SNUCA: a block has exactly one home bank, determined by its physical
address).  Its :meth:`~CacheSystem.walk` is the single rule for where an
access is served along Figure 1's path — the requesting L1, else the
block's home L2 bank, else a memory controller — and so for which legs
the paper's DataMovement metric charges.  The execution simulator, the
task runtime's :class:`~repro.exec.runtime.DataStore` and the profiler
all consume it; each adds only its own accounting on top.  The window
scheduler separately *models* L1 contents with its ``variable2node_map``
— the simulator is the ground truth that model is judged against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.cache.sram import CacheConfig, SetAssocCache
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # repro.arch imports repro.cache; no runtime cycle
    from repro.arch.machine import Machine


class L1Cache(SetAssocCache):
    """Private per-core L1 data cache."""

    def __init__(self, node_id: int, config: CacheConfig):
        super().__init__(config)
        self.node_id = node_id


class L2Bank(SetAssocCache):
    """One bank of the shared, distributed L2 (the node's slice of SNUCA)."""

    def __init__(self, bank_id: int, node_id: int, config: CacheConfig):
        super().__init__(config)
        self.bank_id = bank_id
        self.node_id = node_id


class CacheSystem:
    """All L1s and L2 banks of ``machine``, plus the access walk."""

    def __init__(self, machine: "Machine"):
        node_count = machine.node_count
        bank_to_node = machine.bank_to_node
        if any(not 0 <= n < node_count for n in bank_to_node):
            raise ConfigurationError("bank_to_node entries must be node ids")
        self.machine = machine
        self.l1s: List[L1Cache] = [
            L1Cache(n, machine.l1_config) for n in range(node_count)
        ]
        self.l2_banks: List[L2Bank] = [
            L2Bank(b, node, machine.l2_config) for b, node in enumerate(bank_to_node)
        ]

    def walk(
        self,
        node: int,
        array: str,
        index: int,
        forced_l1: Optional[Callable[[int], bool]] = None,
        mc_override: Optional[Dict[int, int]] = None,
    ) -> Tuple[Optional[int], Optional[int]]:
        """Serve one access to ``array[index]`` from the core at ``node``.

        Returns ``(home, mc)``, the nodes the data legs run between:

        * ``(None, None)`` — an L1 hit, no leg;
        * ``(home, None)`` — an L2 hit at the home bank: one leg
          home -> node;
        * ``(home, mc)`` — an L2 miss: legs mc -> home -> node.

        Loads and stores walk alike (write-allocate): both levels are
        filled on the way back.  ``forced_l1`` (a block -> hit verdict)
        replaces the L1's outcome after the real lookup has updated its
        LRU state; ``mc_override`` (page -> controller node) picks the
        controller on an L2 miss.  Only the simulator's isolation studies
        pass either (Figures 18 and 23).
        """
        machine = self.machine
        layout = machine.layout
        block = layout.block_of(array, index)
        hit = self.l1s[node].access(block)
        if forced_l1 is not None:
            hit = forced_l1(block)
        if hit:
            return None, None
        home = machine.home_node(array, index)
        if self.l2_banks[layout.l2_bank_of(array, index)].access(block):
            return home, None
        mc = None
        if mc_override:
            mc = mc_override.get(layout.page_of(array, index))
        if mc is None:
            mc = machine.mc_node(array, index, requester=node)
        return home, mc
