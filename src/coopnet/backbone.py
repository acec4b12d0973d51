"""Simmelian backbone extraction and sub-community detection.

The strength of a tie is its embeddedness: the number of triangles the
edge participates in. The backbone keeps an edge only when it is strongly
embedded and reciprocally among both endpoints' top-k strongest ties.
Sub-communities are the backbone's connected components above a minimum
size.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass

from .graph import CollaborationGraph, Edge


@dataclass(frozen=True)
class BackboneParams:
    max_rank_k: int = 5
    min_embeddedness: int = 1

    def __post_init__(self):
        if self.max_rank_k < 1:
            raise ValueError("max_rank_k must be >= 1")
        if self.min_embeddedness < 0:
            raise ValueError("min_embeddedness must be >= 0")


@dataclass(frozen=True)
class SubCommunity:
    members: frozenset[str]
    firms: Counter  # firm -> member count


def edge_embeddedness(g: CollaborationGraph) -> dict[Edge, int]:
    """Triangle count per edge: |N(u) & N(v)| for each edge {u, v}.

    Each node with an edge gets one bit, and its neighbours form an int
    bitset, so an edge costs one AND and one popcount. Isolated nodes get
    no bit, which keeps the bitsets of sparse graphs short.
    """
    bits: dict[str, int] = {}
    index: dict[str, int] = {}
    for u, v in g.edges:
        i = index.setdefault(u, len(index))
        j = index.setdefault(v, len(index))
        bits[u] = bits.get(u, 0) | 1 << j
        bits[v] = bits.get(v, 0) | 1 << i
    return {(u, v): (bits[u] & bits[v]).bit_count() for u, v in g.edges}


def extract_backbone(g: CollaborationGraph, params: BackboneParams) -> CollaborationGraph:
    """Keep edges that pass the embeddedness floor and the reciprocal top-k rule.

    Each node ranks its incident edges by embeddedness descending, ties
    broken by lexicographic neighbor id; an edge survives only if each
    endpoint ranks the other within the top max_rank_k. The backbone
    shares g's node map, so both graphs have the same nodes; treat it as
    read-only.
    """
    embeddedness = edge_embeddedness(g)
    # each node's strongest ties as ascending (-strength, neighbor), at most k
    top: dict[str, list[tuple[int, str]]] = {}
    for (u, v), strength in embeddedness.items():
        for node, other in ((u, v), (v, u)):
            ties = top.setdefault(node, [])
            insort(ties, (-strength, other))
            del ties[params.max_rank_k :]
    kept = frozenset(
        (u, v)
        for (u, v), strength in embeddedness.items()
        if strength >= params.min_embeddedness
        and (-strength, v) in top[u]
        and (-strength, u) in top[v]
    )
    return CollaborationGraph(window=g.window, firms=g.firms, edges=kept)


def detect_subcommunities(
    backbone: CollaborationGraph, min_size: int = 3
) -> list[SubCommunity]:
    """Connected components of the backbone with at least min_size members.

    Components are found from the kept edges alone: a node without a
    backbone edge is a one-member component, reported only when min_size
    is at most 1. Sorted by size descending, then by lexicographically
    smallest member (components are disjoint, so the order is total).
    """
    firms = backbone.firms
    adj: dict[str, list[str]] = {}
    for u, v in backbone.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    components = [[node] for node in firms if node not in adj] if min_size <= 1 else []
    seen: set[str] = set()
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
    counts: dict[str, int] = {}
    for community in communities:
        for firm in community.firms:
            counts[firm] = counts.get(firm, 0) + 1
    return counts
