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
    firms, shared = shared_files(pairs, firm_filter)
    edges: set[Edge] = set()
    for devs in shared.values():
        ordered = sorted(devs)
        for i, u in enumerate(ordered):
            for v in ordered[i + 1 :]:
                edges.add((u, v))
    return CollaborationGraph(window=window, firms=firms, edges=frozenset(edges))


def shared_files(
    pairs: Iterable[tuple[DeveloperIdentity, Iterable[str]]],
    firm_filter: FirmFilter | None = None,
) -> tuple[dict[str, str], dict[str, set[str]]]:
    """The window's node map, and the developers of each file that two or more touched.

    A file's first developer is kept as a plain id; its set is made only
    when a second, different developer touches it, so the many files of a
    wide history that one developer touches cost no set.
    """
    firms: dict[str, str] = {}
    first: dict[str, str] = {}  # file -> the first node id to touch it
    shared: dict[str, set[str]] = {}  # file -> node ids, once there are two
    for identity, files in pairs:
        if firm_filter is not None and identity.firm not in firm_filter.firms:
            continue
        node = identity.canonical_id
        firms[node] = identity.firm
        for path in files:
            dev = first.setdefault(path, node)
            if dev != node:
                devs = shared.get(path)
                if devs is None:
                    shared[path] = {dev, node}
                else:
                    devs.add(node)
    return firms, shared


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
