"""Per-window collaboration graphs.

Developers are nodes (carrying their firm), and an undirected, unweighted
edge connects two developers iff they modified at least one common file
within the window. Graphs are simple: no self-loops, no duplicates.

The graphs of a run share its sorted id table: node ``u`` is ``ids[u]``,
so int order is id order, and a graph's ascending packed edges are in
id-pair order.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import combinations, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from .identity import DeveloperIdentity


class GraphError(Exception):
    pass


class CollaborationGraph(NamedTuple):
    window: str
    ids: Sequence[str]  # the run's sorted id table, shared by its graphs
    firms: dict[int, str]  # node -> firm
    edges: array  # array('q') of packed u * len(ids) + v, u < v, ascending

    def ends(self, edges: Iterable[int]) -> Iterator[tuple[int, int]]:
        """The (u, v) nodes of each packed edge, in the order given."""
        return map(divmod, edges, repeat(len(self.ids)))

    @property
    def node_count(self) -> int:
        return len(self.firms)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def edge_array(packed: Iterable[int]) -> array:
    """The distinct packed edges of ``packed`` in ascending order, 8 bytes each."""
    return array("q", sorted(set(packed)))


class WindowBuilder:
    """One release window's graph, folded in one commit at a time.

    ``commits`` counts every commit added, a filtered-out developer's too.
    With a firm filter (a set of firm names), developers of other firms are
    dropped entirely, nodes and edges both. Isolated contributors remain
    nodes. A file's first developer is kept as a plain id; its set is made
    only when a second, different developer touches it, so the many files of
    a wide history that one developer touches cost no set. A path is kept as
    the first string ``paths`` holds for it; a run passes one dict to every
    window, so a path touched in several windows is one string. :meth:`graph`
    ends the fold: it packs each set's pairs through an id index (in a run,
    the run's; a test may pass a window-local one) and releases the maps.
    """

    def __init__(self, firm_filter: frozenset[str] | None = None,
                 paths: dict[str, str] | None = None):
        self.firm_filter = firm_filter
        self.paths: dict[str, str] = {} if paths is None else paths  # path -> its kept string
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
        first, shared, paths = self.first, self.shared, self.paths
        for path in files:
            path = paths.setdefault(path, path)
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
        edges = edge_array(
            u * n + v
            for devs in self.shared.values()
            for u, v in combinations(sorted(map(index.__getitem__, devs)), 2)
        )
        # the index's own ints are the node keys, so a node costs no new int
        firms = {index[node]: firm for node, firm in self.firms.items()}
        self.firms, self.first, self.shared, self.paths = {}, {}, {}, {}
        return CollaborationGraph(window, ids, firms, edges)


# merge_graphs' set holds the edges of one of this many slices of the packed range
MERGE_SLICES = 16


def merge_graphs(graphs: Sequence[CollaborationGraph], window: str) -> CollaborationGraph:
    """Union of nodes and edges across graphs of one id table (firms must agree per node)."""
    ids = graphs[0].ids if graphs else []
    firms: dict[int, str] = {}
    for g in graphs:
        if g.ids is not ids:
            raise GraphError(f"graph {g.window} has another id table")
        for node, firm in g.firms.items():
            if firms.setdefault(node, firm) != firm:
                raise GraphError(f"node {ids[node]} has conflicting firms across windows")
    # united one slice of the packed range at a time: no set of every edge
    n = len(ids)
    edges = array("q")
    starts = [0] * len(graphs)  # each graph's first edge past the slices done
    for s in range(1, MERGE_SLICES + 1):
        stop = n * n * s // MERGE_SLICES
        part: set[int] = set()
        for k, g in enumerate(graphs):
            end = bisect_left(g.edges, stop, starts[k])
            part.update(g.edges[starts[k]:end])
            starts[k] = end
        edges.extend(sorted(part))
    return CollaborationGraph(window, ids, firms, edges)
