"""Link-level traffic accounting.

The simulator records every message as flit-traversals on the directed links
of its XY route.  Per-link utilization feeds the congestion component of the
latency model (the paper notes on-chip latency is a function of link count,
data volume, and congestion — Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from typing import Optional

from repro.noc.routing import LinkId, Router, xy_route_links_cached
from repro.noc.topology import Mesh2D


@dataclass(frozen=True)
class Link:
    """A directed mesh link with an accumulated traffic count."""

    src: int
    dst: int
    flits: int


@dataclass
class TrafficMatrix:
    """Accumulates per-link flit counts for a simulation run.

    With a fault-aware ``router`` installed, messages are charged on the
    links of their *detour* routes, so the matrix keeps decomposing the
    run's data movement exactly even when parts of the mesh are dead.
    """

    mesh: Mesh2D
    _flits: Dict[LinkId, int] = field(default_factory=dict)
    total_messages: int = 0
    total_hops: int = 0
    total_flit_hops: int = 0
    router: Optional[Router] = None

    def record(self, src: int, dst: int, flits: int = 1) -> int:
        """Record a ``flits``-sized message from ``src`` to ``dst``.

        Returns the hop count (0 when src == dst; local accesses use no
        links and contribute no traffic).
        """
        router = self.router
        if router is not None and not router.healthy:
            links = router.route_links(src, dst)
        else:
            links = xy_route_links_cached(self.mesh, src, dst)
        flit_map = self._flits
        for link in links:
            flit_map[link] = flit_map.get(link, 0) + flits
        self.total_messages += 1
        self.total_hops += len(links)
        self.total_flit_hops += len(links) * flits
        return len(links)

    def flits_on(self, src: int, dst: int) -> int:
        """Traffic recorded on the directed link ``src -> dst``."""
        return self._flits.get((src, dst), 0)

    def max_flits_on(self, links: Iterable[LinkId]) -> int:
        """Heaviest recorded load among ``links`` (0 when none recorded)."""
        flit_map = self._flits
        worst = 0
        for link in links:
            count = flit_map.get(link, 0)
            if count > worst:
                worst = count
        return worst

    def links(self) -> List[Link]:
        """All links with nonzero traffic, ordered by (src, dst)."""
        return [
            Link(src, dst, flits)
            for (src, dst), flits in sorted(self._flits.items())
        ]

    def max_link_load(self) -> int:
        """Heaviest per-link flit count (congestion hot spot)."""
        return max(self._flits.values(), default=0)

    def mean_link_load(self) -> float:
        """Average flits per *used* link (0.0 if no traffic)."""
        if not self._flits:
            return 0.0
        return sum(self._flits.values()) / len(self._flits)

    def merge(self, other: "TrafficMatrix") -> None:
        """Fold another matrix (e.g. from a different phase) into this one."""
        for (link, flits) in other._flits.items():
            self._flits[link] = self._flits.get(link, 0) + flits
        self.total_messages += other.total_messages
        self.total_hops += other.total_hops
        self.total_flit_hops += other.total_flit_hops

    def reset(self) -> None:
        self._flits.clear()
        self.total_messages = 0
        self.total_hops = 0
        self.total_flit_hops = 0
