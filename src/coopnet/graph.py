"""Per-window collaboration graphs.

Developers are nodes (carrying their firm), and an undirected, unweighted
edge connects two developers iff they modified at least one common file
within the window. Graphs are simple: no self-loops, no duplicates.

The graphs of a run share its sorted id table: node ``u`` is ``ids[u]``,
so int order is id order, and a graph's ascending packed edges are in
id-pair order.
"""

from __future__ import annotations

import zlib
from array import array
from bisect import bisect_left
from itertools import combinations, compress, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence


class GraphError(Exception):
    pass


class CollaborationGraph(NamedTuple):
    window: str
    ids: Sequence[str]  # the run's sorted id table, shared by its graphs
    firms: Sequence[str]  # the run's firm of each id, aligned with ids
    nodes: array  # array('i') of the graph's nodes, ascending
    edges: array  # array('q') of packed u * len(ids) + v, u < v, ascending

    def ends(self, edges: Iterable[int]) -> Iterator[tuple[int, int]]:
        """The (u, v) nodes of each packed edge, in the order given."""
        return map(divmod, edges, repeat(len(self.ids)))

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def edge_array(packed: Iterable[int]) -> array:
    """The distinct packed edges of ``packed`` in ascending order, 8 bytes each."""
    return array("q", sorted(set(packed)))


def id_table(
    canonical_ids: Sequence[str], firms: Sequence[str]
) -> tuple[list[str], list[str], array]:
    """The sorted id table of developers numbered in any order, as a run's graphs share it.

    ``canonical_ids[d]`` and ``firms[d]`` are developer ``d``'s id and firm.
    Returns the ids in ascending order, their firms in that order, and an
    ``array('i')`` rank whose ``rank[d]`` is developer ``d``'s node, the
    position of its id in the table.
    """
    order = sorted(range(len(canonical_ids)), key=canonical_ids.__getitem__)
    rank = array("i", bytes(4 * len(order)))
    for node, d in enumerate(order):
        rank[d] = node
    return [canonical_ids[d] for d in order], [firms[d] for d in order], rank


# a window's touch log is rewritten as its distinct (file, developer) pairs
# once it is past this many bytes and twice its size after its last rewrite
FOLD_MIN_BYTES = 1 << 20

# a touch log's entries are joined into one chunk once they reach this many bytes
LOG_CHUNK_BYTES = 1 << 14


class WindowBuilder:
    """One release window's graph, logged one commit at a time.

    A developer is a number of the run, and ``firms[d]`` is developer
    ``d``'s firm: the run's list, which may grow as the log is read.
    ``commits`` counts every commit added, a filtered-out developer's too.
    With a firm filter (a set of firm names), developers of other firms are
    dropped entirely, nodes and edges both. Isolated contributors remain
    nodes. A kept commit is logged as an entry, its file names in UTF-8 (a
    lone surrogate as its three bytes) with 0xFF between two, and its
    developer's number in an ``array('i')``. No UTF-8 sequence holds 0xFF or
    0xFE. Entries wait in ``tail`` until they reach LOG_CHUNK_BYTES and are
    then joined, each followed by 0xFE, and compressed (zlib, level 1) into
    one immutable ``bytes`` chunk of ``log``. No chunk is ever resized, so
    the logs of many windows, growing side by side, leave no freed copies
    behind in the heap. A touch costs its name's bytes plus one before
    compression, and a file that one developer touches costs no dict entry.
    A commit of no files is an empty entry, which the fold skips (the parser
    refuses an empty file name). A log past FOLD_MIN_BYTES and twice its
    size after its last rewrite, counted before compression, is rewritten as
    its distinct (file, developer) pairs, one entry per developer, so a
    history that touches the same files again and again holds each pair
    once. :meth:`graph` folds the log (each file's first developer, then a
    set once a second, different developer touches it), packs each set's
    pairs through the rank of the run's id table and releases the log.
    """

    def __init__(self, firms: Sequence[str], firm_filter: frozenset[str] | None = None):
        self.firms = firms
        self.firm_filter = firm_filter
        self.commits = 0
        self.log: list[bytes] = []  # compressed chunks of whole entries, each followed by 0xFE
        self.tail: list[bytes] = []  # the entries logged since the last chunk
        self.tail_bytes = 0  # the tail's size as a chunk
        self.size = 0  # the whole log's size before compression, chunks and tail
        self.devs = array("i")  # the developer of each entry, chunked or not
        self.fold_at = FOLD_MIN_BYTES  # the log's size that triggers a rewrite

    def add(self, dev: int, files: Sequence[str]) -> None:
        self.commits += 1
        if self.firm_filter is not None and self.firms[dev] not in self.firm_filter:
            return
        # surrogatepass writes a lone surrogate as its three bytes: one-to-one on str
        entry = b"\xff".join([f.encode("utf-8", "surrogatepass") for f in files])
        # _log, inlined: add runs once per commit
        self.devs.append(dev)
        self.tail.append(entry)
        self.tail_bytes += len(entry) + 1
        self.size += len(entry) + 1
        if self.tail_bytes >= LOG_CHUNK_BYTES:
            self._flush()
        if self.size > self.fold_at:
            self._rewrite()

    def _log(self, dev: int, entry: bytes) -> None:
        self.devs.append(dev)
        self.tail.append(entry)
        self.tail_bytes += len(entry) + 1
        self.size += len(entry) + 1
        if self.tail_bytes >= LOG_CHUNK_BYTES:
            self._flush()

    def _flush(self) -> None:
        """Join the tail's entries, each followed by 0xFE, into one compressed chunk of the log."""
        self.tail.append(b"")  # so that the last entry is followed by 0xFE too
        self.log.append(zlib.compress(b"\xfe".join(self.tail), 1))
        self.tail, self.tail_bytes = [], 0

    def _entries(self) -> Iterator[bytes]:
        """The logged entries in order, chunked and not."""
        for chunk in self.log:
            yield from zlib.decompress(chunk)[:-1].split(b"\xfe")
        yield from self.tail

    def _fold(self) -> dict[bytes, int | set[int]]:
        """Each logged file's first developer, or its set of developers once another touched it."""
        devs_of: dict[bytes, int | set[int]] = {}
        for names, dev in zip(self._entries(), self.devs):
            if not names:  # a commit of no files
                continue
            for key in names.split(b"\xff"):
                devs = devs_of.setdefault(key, dev)
                if type(devs) is set:
                    devs.add(dev)
                elif devs != dev:
                    devs_of[key] = {devs, dev}
        return devs_of

    def _rewrite(self) -> None:
        """Rewrite the log as one entry per developer: the distinct files it touched."""
        files_of: dict[int, list[bytes]] = {dev: [] for dev in self.devs}
        for key, devs in self._fold().items():
            for dev in devs if type(devs) is set else (devs,):
                files_of[dev].append(key)
        self._release()
        for dev, keys in files_of.items():
            self._log(dev, b"\xff".join(keys))
        self.fold_at = max(FOLD_MIN_BYTES, 2 * self.size)

    def _release(self) -> None:
        self.log, self.tail, self.devs = [], [], array("i")
        self.tail_bytes = self.size = 0

    def graph(
        self, window: str, ids: Sequence[str], firms: Sequence[str], rank: Sequence[int]
    ) -> CollaborationGraph:
        """The window's graph over the id table ``ids`` and its firms ``firms``.

        ``rank[d]`` is developer ``d``'s node, the position of its id in ``ids``.
        """
        n = len(ids)
        edges = edge_array(
            u * n + v
            for devs in self._fold().values() if type(devs) is set
            for u, v in combinations(sorted(map(rank.__getitem__, devs)), 2)
        )
        nodes = array("i", sorted(set(map(rank.__getitem__, self.devs))))
        self._release()
        return CollaborationGraph(window, ids, firms, nodes, edges)


# merge_graphs' set holds the edges of one of this many slices of the packed range
MERGE_SLICES = 16


def merge_graphs(graphs: Sequence[CollaborationGraph], window: str) -> CollaborationGraph:
    """Union of nodes and edges across graphs of one id table and firm list."""
    ids = graphs[0].ids if graphs else []
    firms = graphs[0].firms if graphs else []
    n = len(ids)
    present = bytearray(n)
    for g in graphs:
        if g.ids is not ids:
            raise GraphError(f"graph {g.window} has another id table")
        for u in g.nodes:
            present[u] = 1
    nodes = array("i", compress(range(n), present))
    # united one slice of the packed range at a time: no set of every edge
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
    return CollaborationGraph(window, ids, firms, nodes, edges)
