"""Per-window collaboration graphs.

Developers are nodes (carrying their firm), and an undirected, unweighted
edge connects two developers iff they modified at least one common file
within the window. Graphs are simple: no self-loops, no duplicates.

The graphs of a run share its sorted id table: node ``u`` is ``ids[u]``,
so int order is id order, and sorted packed edges are in id-pair order.
"""

from __future__ import annotations

from itertools import combinations, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from .identity import DeveloperIdentity


class GraphError(Exception):
    pass


class CollaborationGraph(NamedTuple):
    window: str
    ids: Sequence[str]  # the run's sorted id table, shared by its graphs
    firms: dict[int, str]  # node -> firm
    edges: frozenset[int]  # packed u * len(ids) + v, u < v

    def ends(self, edges: Iterable[int]) -> Iterator[tuple[int, int]]:
        """The (u, v) nodes of each packed edge, in the order given."""
        return map(divmod, edges, repeat(len(self.ids)))

    @property
    def node_count(self) -> int:
        return len(self.firms)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


class WindowBuilder:
    """One release window's graph, folded in one commit at a time.

    ``commits`` counts every commit added, a filtered-out developer's too.
    With a firm filter (a set of firm names), developers of other firms are
    dropped entirely, nodes and edges both. Isolated contributors remain
    nodes. A file's first developer is kept as a plain id; its set is made
    only when a second, different developer touches it, so the many files of
    a wide history that one developer touches cost no set. :meth:`graph`
    ends the fold: it packs each set's pairs through an id index (in a run,
    the run's; a test may pass a window-local one) and releases the maps.
    """

    def __init__(self, firm_filter: frozenset[str] | None = None):
        self.firm_filter = firm_filter
        self.commits = 0
        self.firms: dict[str, str] = {}  # node id -> firm
        self.first: dict[str, str] = {}  # file -> the first node id to touch it
        self.shared: dict[str, set[str]] = {}  # file -> node ids, once there are two

    def add(self, identity: DeveloperIdentity, files: Iterable[str]) -> None:
        self.commits += 1
        if self.firm_filter is not None and identity.firm not in self.firm_filter:
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

    def graph(self, window: str, ids: Sequence[str], index: dict[str, int]) -> CollaborationGraph:
        """The window's graph over the id table ``ids``, whose index maps id -> node."""
        n = len(ids)
        edges = {
            u * n + v
            for devs in self.shared.values()
            for u, v in combinations(sorted(map(index.__getitem__, devs)), 2)
        }
        # the index's own ints are the node keys, so a node costs no new int
        firms = {index[node]: firm for node, firm in self.firms.items()}
        self.firms, self.first, self.shared = {}, {}, {}
        return CollaborationGraph(window, ids, firms, frozenset(edges))


def merge_graphs(graphs: Sequence[CollaborationGraph], window: str) -> CollaborationGraph:
    """Union of nodes and edges across graphs of one id table (firms must agree per node)."""
    ids = graphs[0].ids if graphs else []
    firms: dict[int, str] = {}
    edges: set[int] = set()
    for g in graphs:
        if g.ids is not ids:
            raise GraphError(f"graph {g.window} has another id table")
        for node, firm in g.firms.items():
            if firms.setdefault(node, firm) != firm:
                raise GraphError(f"node {ids[node]} has conflicting firms across windows")
        edges.update(g.edges)
    return CollaborationGraph(window, ids, firms, frozenset(edges))
