"""Simmelian backbone extraction and sub-community detection.

The strength of a tie is its embeddedness: the number of triangles the
edge participates in. The backbone keeps an edge only when it is strongly
embedded and reciprocally among both endpoints' top-k strongest ties.
Sub-communities are the backbone's connected components above a minimum
size. Nodes and edges are the packed ints of :mod:`coopnet.graph`.
"""

from __future__ import annotations

from array import array
from bisect import insort
from collections import Counter, defaultdict
from typing import NamedTuple

from .graph import CollaborationGraph


class _BackboneFields(NamedTuple):
    max_rank_k: int = 5
    min_embeddedness: int = 1


class BackboneParams(_BackboneFields):
    """Backbone settings, checked whenever one is made, by ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_rank_k < 1:
            raise ValueError("max_rank_k must be >= 1")
        if self.min_embeddedness < 0:
            raise ValueError("min_embeddedness must be >= 0")
        return self

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})


class SubCommunity(NamedTuple):
    members: frozenset[int]  # nodes of the graph's id table
    firms: Counter  # firm -> member count


def edge_embeddedness(g: CollaborationGraph) -> list[int]:
    """Triangle count of each edge, in ``g.edges`` order: |N(u) & N(v)| for edge {u, v}.

    Each node with an edge gets one bit, numbered within g rather than by
    the run's id table, and its neighbours form an int bitset, so an edge
    costs one AND and one popcount. Isolated nodes get no bit, which keeps
    the bitsets of sparse graphs short however wide the table is.
    """
    bits: dict[int, int] = {}
    index: dict[int, int] = {}
    for u, v in g.ends(g.edges):
        i = index.setdefault(u, len(index))
        j = index.setdefault(v, len(index))
        bits[u] = bits.get(u, 0) | 1 << j
        bits[v] = bits.get(v, 0) | 1 << i
    return [(bits[u] & bits[v]).bit_count() for u, v in g.ends(g.edges)]


def extract_backbone(g: CollaborationGraph, params: BackboneParams) -> CollaborationGraph:
    """Keep edges that pass the embeddedness floor and the reciprocal top-k rule.

    Each node ranks its incident edges by embeddedness descending, ties
    broken by lexicographic neighbor id; an edge survives only if each
    endpoint ranks the other within the top max_rank_k. The backbone
    shares g's id table, firms and nodes; treat it as read-only. Its edges
    are a subsequence of g's, so ascending.
    """
    k, shift = params.max_rank_k, len(g.ids).bit_length()
    embeddedness = edge_embeddedness(g)
    # a tie's rank key (-strength << shift) | neighbour ascends as strength
    # descends, then as the neighbour's id ascends; each node keeps its k smallest
    top: defaultdict[int, list[int]] = defaultdict(list)
    for (u, v), strength in zip(g.ends(g.edges), embeddedness):
        rank = -strength << shift
        ties = top[u]
        if len(ties) < k or rank | v < ties[-1]:
            insort(ties, rank | v)
            del ties[k:]
        ties = top[v]
        if len(ties) < k or rank | u < ties[-1]:
            insort(ties, rank | u)
            del ties[k:]
    # an edge is kept iff each end's key is in the other end's top list, so
    # the kept edges are read off the lists, each from its smaller end
    n, mask, floor = len(g.ids), (1 << shift) - 1, params.min_embeddedness
    kept = [
        u * n + v
        for u, ties in top.items()
        for key in ties
        if (v := key & mask) > u and -(key >> shift) >= floor and key - v + u in top[v]
    ]
    kept.sort()
    return g._replace(edges=array("q", kept))


def detect_subcommunities(backbone: CollaborationGraph, min_size: int) -> list[SubCommunity]:
    """Connected components of the backbone with at least min_size members.

    Components are found from the kept edges alone: a node without a
    backbone edge is a one-member component, reported only when min_size
    is at most 1. Sorted by size descending, then by lexicographically
    smallest member (components are disjoint, so the order is total).
    """
    firms = backbone.firms
    adj: dict[int, list[int]] = {}
    for u, v in backbone.ends(backbone.edges):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    components = [[u] for u in backbone.nodes if u not in adj] if min_size <= 1 else []
    seen: set[int] = set()
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        for node in component:  # the list grows as the walk reaches new nodes
            for other in adj[node]:
                if other not in seen:
                    seen.add(other)
                    component.append(other)
        if len(component) >= min_size:
            components.append(component)
    communities = [
        SubCommunity(members=frozenset(c), firms=Counter(firms[m] for m in c))
        for c in components
    ]
    communities.sort(key=lambda c: (-len(c.members), min(c.members)))
    return communities


def firm_overlap(communities: list[SubCommunity]) -> dict[str, int]:
    """How many communities each firm appears in (absent firms omitted)."""
    return Counter(firm for community in communities for firm in community.firms)
