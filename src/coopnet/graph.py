"""Per-window collaboration graphs.

Developers are nodes (carrying their firm), and an undirected, unweighted
edge connects two developers iff they modified at least one common file
within the window. Graphs are simple: no self-loops, no duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .identity import DeveloperIdentity

Edge = tuple[str, str]  # canonical ids, lexicographically ordered


class GraphError(Exception):
    pass


@dataclass(frozen=True)
class FirmFilter:
    firms: frozenset[str]

    def __post_init__(self):
        if not self.firms:
            raise GraphError("firm filter must be non-empty")


@dataclass(frozen=True)
class CollaborationGraph:
    window: str
    firms: dict[str, str] = field(default_factory=dict)  # node id -> firm
    edges: frozenset[Edge] = frozenset()

    @property
    def node_count(self) -> int:
        return len(self.firms)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


class WindowBuilder:
    """One release window's graph, folded in one commit at a time.

    ``commits`` counts every commit added, a filtered-out developer's too.
    With a firm filter, developers outside the filtered firms are dropped
    entirely, nodes and edges both. Isolated contributors remain nodes. A
    file's first developer is kept as a plain id; its set is made only when
    a second, different developer touches it, so the many files of a wide
    history that one developer touches cost no set. :meth:`graph` ends the
    fold: it enumerates the pairs from those sets alone and releases them.
    """

    def __init__(self, firm_filter: FirmFilter | None = None):
        self.firm_filter = firm_filter
        self.commits = 0
        self.firms: dict[str, str] = {}  # node id -> firm
        self.first: dict[str, str] = {}  # file -> the first node id to touch it
        self.shared: dict[str, set[str]] = {}  # file -> node ids, once there are two

    def add(self, identity: DeveloperIdentity, files: Iterable[str]) -> None:
        self.commits += 1
        if self.firm_filter is not None and identity.firm not in self.firm_filter.firms:
            return
        node = identity.canonical_id
        self.firms[node] = identity.firm
        first, shared = self.first, self.shared
        for path in files:
            dev = first.setdefault(path, node)
            if dev != node:
                devs = shared.get(path)
                if devs is None:
                    shared[path] = {dev, node}
                else:
                    devs.add(node)

    def graph(self, window: str) -> CollaborationGraph:
        edges = {e for devs in self.shared.values() for e in combinations(sorted(devs), 2)}
        self.first, self.shared = {}, {}
        return CollaborationGraph(window=window, firms=self.firms, edges=frozenset(edges))


def build_collaboration_graph(
    window: str,
    pairs: Iterable[tuple[DeveloperIdentity, Iterable[str]]],
    firm_filter: FirmFilter | None = None,
) -> CollaborationGraph:
    """The graph of a window's (author identity, files) pairs, one per commit."""
    builder = WindowBuilder(firm_filter)
    for identity, files in pairs:
        builder.add(identity, files)
    return builder.graph(window)


def merge_graphs(graphs: Iterable[CollaborationGraph], window: str = "merged") -> CollaborationGraph:
    """Union of nodes and edges across windows (firms must agree per node)."""
    firms: dict[str, str] = {}
    edges: set[Edge] = set()
    for g in graphs:
        for node, firm in g.firms.items():
            if firms.setdefault(node, firm) != firm:
                raise GraphError(f"node {node} has conflicting firms across windows")
        edges.update(g.edges)
    return CollaborationGraph(window=window, firms=firms, edges=frozenset(edges))
