"""Cohesion and homophily measures on collaboration graphs.

Homophily and revenue-stream cohesion are read off one integer
firm-mixing count per graph (Newman, "Mixing patterns in networks",
PRE 67, 026126, 2003): nodes per firm and edges per unordered firm pair.

Undefined values (density of a < 2 node graph, homophily of an edgeless
graph) are None, never 0 -- downstream serialization renders them as the
explicit "UND" literal.
"""

from __future__ import annotations

from collections import Counter
from typing import AbstractSet, NamedTuple

from .graph import CollaborationGraph

FirmPair = tuple[str, str]  # firm names, lexicographically ordered


class FirmMixing(NamedTuple):
    """Node count per firm and edge count per unordered firm pair."""

    nodes: dict[str, int]
    edges: dict[FirmPair, int]


def pair_density(nodes: int, edges: int) -> float | None:
    """2e / (n (n-1)); None when fewer than 2 nodes."""
    if nodes < 2:
        return None
    return 2.0 * edges / (nodes * (nodes - 1))


def density(g: CollaborationGraph) -> float | None:
    """2|E| / (|V| (|V|-1)); None when fewer than 2 nodes."""
    return pair_density(len(g.nodes), len(g.edges))


def firm_mixing(g: CollaborationGraph) -> FirmMixing:
    """Count nodes per firm and edges per firm pair in one pass over the graph.

    Edges are counted per ordered pair of firm numbers, then named once.
    """
    firms = g.firms
    nodes = Counter(map(firms.__getitem__, g.nodes))
    number = {firm: i for i, firm in enumerate(nodes)}
    names, width = list(number), len(number)
    ordered = Counter(number[firms[u]] * width + number[firms[v]] for u, v in g.ends(g.edges))
    edges: Counter = Counter()
    for key, count in ordered.items():
        edges[tuple(sorted((names[key // width], names[key % width])))] += count
    return FirmMixing(nodes=nodes, edges=edges)


def group_counts(mix: FirmMixing, group: AbstractSet[str]) -> tuple[int, int]:
    """(nodes, edges) of the subgraph induced by the developers of ``group``'s firms."""
    nodes = sum(mix.nodes.get(firm, 0) for firm in group)
    edges = sum(c for (f, h), c in mix.edges.items() if f in group and h in group)
    return nodes, edges


def same_firm_edge_fraction(mix: FirmMixing) -> float | None:
    """Share of edges whose endpoints belong to the same firm; None if no edges."""
    m = sum(mix.edges.values())
    if m == 0:
        return None
    return sum(c for (f, h), c in mix.edges.items() if f == h) / m


def firm_assortativity(mix: FirmMixing) -> float | None:
    """Categorical assortativity over the firm attribute.

    r = (sum_i e_ii - sum_i a_i^2) / (1 - sum_i a_i^2), where e_ii is the
    fraction of edges within firm i and a_i the fraction of edge ends in
    firm i. Scaled by 4m^2 this is (4mW - S) / (4m^2 - S) over integers,
    with W the within-firm edges and S the sum of squared edge-end counts,
    so the one division is correctly rounded. None when there are no
    edges or only one firm touches edges.
    """
    m = within = 0
    ends: dict[str, int] = {}
    for (f, h), c in mix.edges.items():
        m += c
        if f == h:
            within += c
        ends[f] = ends.get(f, 0) + c
        ends[h] = ends.get(h, 0) + c
    squares = sum(c * c for c in ends.values())
    denominator = 4 * m * m - squares
    if denominator == 0:
        return None
    return (4 * m * within - squares) / denominator

