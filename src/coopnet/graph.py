"""Per-window collaboration graphs.

Developers are nodes (carrying their firm), and an undirected, unweighted
edge connects two developers iff they modified at least one common file
within the window. Graphs are simple: no self-loops, no duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def build_collaboration_graph(
    window: str,
    pairs: Iterable[tuple[DeveloperIdentity, Iterable[str]]],
    firm_filter: FirmFilter | None = None,
) -> CollaborationGraph:
    """Build the collaboration graph for one release window.

    ``pairs`` holds one (author identity, files) pair per commit of the
    window. With a firm filter, developers outside the filtered firms are
    dropped entirely, nodes and edges both. Isolated contributors remain
    nodes.
    """
    firms: dict[str, str] = {}
    touched: dict[str, set[str]] = {}  # file -> node ids
    for identity, files in pairs:
        if firm_filter is not None and identity.firm not in firm_filter.firms:
            continue
        node = identity.canonical_id
        firms[node] = identity.firm
        for path in files:
            devs = touched.get(path)
            if devs is None:
                touched[path] = {node}
            else:
                devs.add(node)
    edges: set[Edge] = set()
    for devs in touched.values():
        if len(devs) < 2:  # most files on a wide history; they make no pair
            continue
        ordered = sorted(devs)
        for i, u in enumerate(ordered):
            for v in ordered[i + 1 :]:
                edges.add((u, v))
    return CollaborationGraph(window=window, firms=firms, edges=frozenset(edges))


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
