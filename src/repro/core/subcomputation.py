"""Subcomputations: the unit of placement (paper Section 3.1).

A statement instance is split into a DAG of subcomputations.  Each
subcomputation executes on one mesh node, consumes *gathered inputs* (raw
array elements fetched from their locations) and/or the *results* of child
subcomputations (messages from other nodes, each requiring a point-to-point
synchronization), applies an associative chain of operations, and either
feeds its parent or performs the final store.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.ir.statement import Access


# The three record types below are NamedTuples, not frozen dataclasses:
# they are constructed hundreds of thousands of times per compile (every
# gather, every child result, every scheduled unit), and tuple construction
# avoids the per-field ``object.__setattr__`` cost a frozen dataclass pays.


class GatheredInput(NamedTuple):
    """A raw datum fetched into the subcomputation's node.

    ``from_node``/``hops`` are the compiler's prediction of where the datum
    is and how far it travels (0 hops for a modeled L1 hit at the execution
    node); the simulator recomputes the truth with real caches.
    """

    access: Access
    from_node: int
    hops: int
    l1_hit: bool = False
    off_chip: bool = False  # predictor said the datum misses L2


class SubResult(NamedTuple):
    """A child subcomputation's result arriving over the network."""

    producer_uid: int
    from_node: int
    hops: int


class Subcomputation(NamedTuple):
    """One scheduled subcomputation.

    ``op`` is the associative operator class applied at this node (``'+'``
    or ``'*'``; ``'move'`` for pure data forwarding); ``op_count`` the number
    of primitive binary ops folded into this node; ``cost`` the
    load-balancer cost (division weighted 10x); ``store`` the output access
    when this is the statement's final subcomputation.
    """

    uid: int
    seq: int            # statement instance ordinal this belongs to
    node: int
    op: str
    op_count: int
    cost: float
    gathered: Tuple[GatheredInput, ...] = ()
    sub_results: Tuple[SubResult, ...] = ()
    store: Optional[Access] = None
    op_breakdown: Tuple[Tuple[str, int], ...] = ()

    @property
    def is_final(self) -> bool:
        """True for the subcomputation that stores the statement's result."""
        return self.store is not None

    @property
    def movement(self) -> int:
        """Predicted links traversed by everything arriving at this node."""
        return sum(g.hops for g in self.gathered) + sum(
            r.hops for r in self.sub_results
        )

    @property
    def sync_count(self) -> int:
        """Point-to-point synchronizations this subcomputation waits on."""
        return len(self.sub_results)

    def describe(self) -> str:
        """One-line human-readable rendering (for code listings)."""
        inputs = [str(g.access) for g in self.gathered]
        inputs += [f"T{r.producer_uid}" for r in self.sub_results]
        joined = f" {self.op} ".join(inputs) if inputs else "<empty>"
        target = str(self.store) if self.store else f"T{self.uid}"
        return f"node {self.node}: {target} = {joined}"
