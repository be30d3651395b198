"""Multihop ad-hoc network substrate.

Sensors within radio ``radius`` of each other are neighbours; everyone
else is reached by multihop routing (the paper assumes TORA/AODV-style
routing exists — we provide shortest-path hop counts over the geometric
graph, which is exactly the service such protocols expose).  The resulting
``hops`` callable plugs into :class:`repro.sim.network.TopologyNetwork`,
where loss compounds per hop — which is what makes a *topologically aware*
grid-box hash pay off: early protocol phases then only cross few hops.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

__all__ = ["AdHocNetwork"]


class AdHocNetwork:
    """Geometric radio graph with multihop routing over sensor positions."""

    def __init__(
        self,
        positions: Mapping[int, tuple[float, float]],
        radius: float,
    ):
        if radius <= 0:
            raise ValueError("radio radius must be positive")
        self.positions = dict(positions)
        self.radius = radius
        import networkx as nx  # heavy, and only ad-hoc scenarios need it

        self.graph = nx.Graph()
        self.graph.add_nodes_from(self.positions)
        members = sorted(self.positions)
        for index, a in enumerate(members):
            ax, ay = self.positions[a]
            for b in members[index + 1 :]:
                bx, by = self.positions[b]
                if math.hypot(ax - bx, ay - by) <= radius:
                    self.graph.add_edge(a, b)
        self._hops_cache: dict[int, dict[int, int]] = {}

    def is_connected(self) -> bool:
        """Whether every sensor can route to every other."""
        import networkx as nx

        return nx.is_connected(self.graph) if len(self.graph) else False

    def largest_component(self) -> set[int]:
        """Node ids of the biggest connected component."""
        if not len(self.graph):
            return set()
        import networkx as nx

        return set(max(nx.connected_components(self.graph), key=len))

    def hops(self, src: int, dest: int) -> int | None:
        """Route length in hops, or None if unroutable (disconnected)."""
        if src == dest:
            return 0
        table = self._hops_cache.get(src)
        if table is None:
            import networkx as nx

            table = nx.single_source_shortest_path_length(self.graph, src)
            self._hops_cache[src] = table
        return table.get(dest)

    def mean_hops(self, sample_pairs: int | None = None) -> float:
        """Average hop count over all (or a deterministic sample of) pairs."""
        members = sorted(self.largest_component())
        if len(members) < 2:
            return 0.0
        pairs = [
            (a, b)
            for index, a in enumerate(members)
            for b in members[index + 1 :]
        ]
        if sample_pairs is not None and len(pairs) > sample_pairs:
            stride = len(pairs) // sample_pairs
            pairs = pairs[::stride][:sample_pairs]
        total = sum(self.hops(a, b) for a, b in pairs)
        return total / len(pairs)

    def degree_stats(self) -> tuple[float, int]:
        """(mean degree, minimum degree) of the radio graph."""
        degrees = [degree for __, degree in self.graph.degree()]
        if not degrees:
            return 0.0, 0
        return sum(degrees) / len(degrees), min(degrees)
