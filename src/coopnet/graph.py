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


# a window's touch log is rewritten as its distinct (file, developer) pairs
# once it is past this many bytes and twice its size after its last rewrite
FOLD_MIN_BYTES = 1 << 20

# a touch log's entries are joined into one chunk once they reach this many bytes
LOG_CHUNK_BYTES = 1 << 14


class WindowBuilder:
    """One release window's graph, logged one commit at a time.

    ``commits`` counts every commit added, a filtered-out developer's too.
    With a firm filter (a set of firm names), developers of other firms are
    dropped entirely, nodes and edges both. Isolated contributors remain
    nodes. A kept commit is logged as an entry, its file names in UTF-8 (a
    lone surrogate as its three bytes) with 0xFF between two, and its
    developer's id, the identity's own string, in a list. No UTF-8 sequence
    holds 0xFF or 0xFE. Entries wait in ``tail`` until they reach
    LOG_CHUNK_BYTES and are then joined, each followed by 0xFE, into one
    immutable ``bytes`` chunk of ``log``. No buffer is ever resized, so the
    logs of many windows, growing side by side, leave no freed copies behind
    in the heap. A touch costs its name's bytes plus one, a commit eight more, and a file
    that one developer touches costs no dict entry. A commit of no files is
    an empty entry, which the fold skips (the parser refuses an empty file
    name). A log past FOLD_MIN_BYTES and twice its size after its last
    rewrite is rewritten as its distinct (file, developer) pairs, one entry
    per developer, so a history that touches the same files again and again
    holds each pair once. The builder keeps no firm: :meth:`graph` takes
    each node's firm from the run's firm list, aligned with the id table.
    It folds the log (each file's first developer, then a set once a
    second, different developer touches it), packs each set's pairs through
    an id index (in a run, the run's; a test may pass a window-local one)
    and releases the log.
    """

    def __init__(self, firm_filter: frozenset[str] | None = None):
        self.firm_filter = firm_filter
        self.commits = 0
        self.log: list[bytes] = []  # chunks of whole entries, each entry followed by 0xFE
        self.tail: list[bytes] = []  # the entries logged since the last chunk
        self.tail_bytes = 0  # the tail's size as a chunk
        self.size = 0  # the whole log's size, chunks and tail
        self.devs: list[str] = []  # the node id of each entry, chunked or not
        self.fold_at = FOLD_MIN_BYTES  # the log's size that triggers a rewrite

    def add(self, identity: DeveloperIdentity, files: Sequence[str]) -> None:
        self.commits += 1
        if self.firm_filter is not None and identity.firm not in self.firm_filter:
            return
        # surrogatepass writes a lone surrogate as its three bytes: one-to-one on str
        entry = b"\xff".join([f.encode("utf-8", "surrogatepass") for f in files])
        # _log, inlined: add runs once per commit
        self.devs.append(identity.canonical_id)
        self.tail.append(entry)
        self.tail_bytes += len(entry) + 1
        self.size += len(entry) + 1
        if self.tail_bytes >= LOG_CHUNK_BYTES:
            self._flush()
        if self.size > self.fold_at:
            self._rewrite()

    def _log(self, node: str, entry: bytes) -> None:
        self.devs.append(node)
        self.tail.append(entry)
        self.tail_bytes += len(entry) + 1
        self.size += len(entry) + 1
        if self.tail_bytes >= LOG_CHUNK_BYTES:
            self._flush()

    def _flush(self) -> None:
        """Join the tail's entries into one chunk of the log, each followed by 0xFE."""
        self.tail.append(b"")  # so that the last entry is followed by 0xFE too
        self.log.append(b"\xfe".join(self.tail))
        self.tail, self.tail_bytes = [], 0

    def _entries(self) -> Iterator[bytes]:
        """The logged entries in order, chunked and not."""
        for chunk in self.log:
            yield from chunk[:-1].split(b"\xfe")
        yield from self.tail

    def _fold(self) -> dict[bytes, str | set[str]]:
        """Each logged file's first node id, or its set of ids once a second one touched it."""
        devs_of: dict[bytes, str | set[str]] = {}
        for names, node in zip(self._entries(), self.devs):
            if not names:  # a commit of no files
                continue
            for key in names.split(b"\xff"):
                devs = devs_of.setdefault(key, node)
                if isinstance(devs, set):
                    devs.add(node)
                elif devs != node:
                    devs_of[key] = {devs, node}
        return devs_of

    def _rewrite(self) -> None:
        """Rewrite the log as one entry per developer: the distinct files it touched."""
        files_of: dict[str, list[bytes]] = {node: [] for node in self.devs}
        for key, devs in self._fold().items():
            for node in (devs,) if isinstance(devs, str) else devs:
                files_of[node].append(key)
        self._release()
        for node, keys in files_of.items():
            self._log(node, b"\xff".join(keys))
        self.fold_at = max(FOLD_MIN_BYTES, 2 * self.size)

    def _release(self) -> None:
        self.log, self.tail, self.devs = [], [], []
        self.tail_bytes = self.size = 0

    def graph(
        self, window: str, ids: Sequence[str], index: dict[str, int], firms: Sequence[str]
    ) -> CollaborationGraph:
        """The window's graph over the id table ``ids``, whose index maps id -> node.

        ``firms[u]`` is the firm of node ``u``, ``ids[u]``.
        """
        n = len(ids)
        edges = edge_array(
            u * n + v
            for devs in self._fold().values() if isinstance(devs, set)
            for u, v in combinations(sorted(map(index.__getitem__, devs)), 2)
        )
        # the index's own ints are the node keys, so a node costs no new int
        nodes = {u: firms[u] for u in map(index.__getitem__, self.devs)}
        self._release()
        return CollaborationGraph(window, ids, nodes, edges)


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
