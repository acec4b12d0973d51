"""Backbone extraction tests against a brute-force triangle oracle."""

import random
import re
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Developer, StrGraph, as_strings, id_pair, make_graph, shared_table, window_graph
from coopnet.backbone import (
    BackboneParams,
    detect_subcommunities,
    edge_embeddedness,
    extract_backbone,
    firm_overlap,
)
from coopnet.report import export_graph


def graph_from_mask(n, mask, firm="HP"):
    names = [f"n{i}" for i in range(n)]
    pairs = list(combinations(names, 2))
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    return make_graph({name: firm for name in names}, edges)


def oracle_embeddedness(g: StrGraph):
    """Brute force: enumerate all node triples containing each edge."""
    counts = {}
    for u, v in g.edges:
        count = 0
        for w in g.firms:
            if w in (u, v):
                continue
            if tuple(sorted((u, w))) in g.edges and tuple(sorted((v, w))) in g.edges:
                count += 1
        counts[(u, v)] = count
    return counts


def oracle_backbone(g: StrGraph, params):
    """Direct implementation of the reciprocal top-k rank condition."""
    strength = oracle_embeddedness(g)
    ranked = {}
    for node in g.firms:
        incident = [
            (other, strength[tuple(sorted((node, other)))])
            for other in g.firms
            if tuple(sorted((node, other))) in g.edges
        ]
        incident.sort(key=lambda pair: (-pair[1], pair[0]))
        ranked[node] = {other for other, _ in incident[: params.max_rank_k]}
    return frozenset(
        (u, v)
        for (u, v), s in strength.items()
        if s >= params.min_embeddedness and v in ranked[u] and u in ranked[v]
    )


def oracle_communities(g: StrGraph, min_size):
    """Brute force: relabel every node to its smallest neighbour label until stable."""
    label = {node: node for node in g.firms}
    changed = True
    while changed:
        changed = False
        for u, v in g.edges:
            low = min(label[u], label[v])
            for node in (u, v):
                if label[node] != low:
                    label[node], changed = low, True
    groups = {}
    for node, root in label.items():
        groups.setdefault(root, set()).add(node)
    found = [
        (frozenset(m), Counter(g.firms[n] for n in m)) for m in groups.values() if len(m) >= min_size
    ]
    return sorted(found, key=lambda c: (-len(c[0]), min(c[0])))


def named_embeddedness(g):
    """The library's embeddedness, keyed by (smaller id, larger id)."""
    return {id_pair(g, e): strength for e, strength in zip(g.edges, edge_embeddedness(g))}


def backbone_pairs(g, params):
    return as_strings(extract_backbone(g, params)).edges


def as_pairs(g, communities):
    """Communities as (member ids, firm counts)."""
    return [(frozenset(g.ids[m] for m in c.members), c.firms) for c in communities]


def test_k4_edges_have_embeddedness_two():
    g = graph_from_mask(4, 0b111111)
    assert set(edge_embeddedness(g)) == {2}


def test_tree_edges_have_embeddedness_zero():
    g = make_graph(
        {"a": "HP", "b": "HP", "c": "HP", "d": "HP"},
        [("a", "b"), ("b", "c"), ("b", "d")],
    )
    assert set(edge_embeddedness(g)) == {0}


def test_triangle_edge_embeddedness_one():
    g = graph_from_mask(3, 0b111)
    assert set(edge_embeddedness(g)) == {1}


def test_star_backbone_is_empty():
    leaves = {f"l{i}": "HP" for i in range(5)}
    g = make_graph({"c": "HP", **leaves}, [("c", leaf) for leaf in leaves])
    backbone = extract_backbone(g, BackboneParams())
    assert set(backbone.edges) == set()
    assert backbone.nodes is g.nodes and backbone.firms is g.firms  # node set preserved


def test_k4_survives_with_k_at_least_three():
    g = graph_from_mask(4, 0b111111)
    backbone = extract_backbone(g, BackboneParams(max_rank_k=3))
    assert backbone.edges == g.edges


def test_bridge_between_cliques_is_removed():
    left = [f"a{i}" for i in range(4)]
    right = [f"b{i}" for i in range(4)]
    edges = list(combinations(left, 2)) + list(combinations(right, 2))
    edges.append((left[0], right[0]))
    g = make_graph({n: "HP" for n in left + right}, edges)
    kept = backbone_pairs(g, BackboneParams())
    assert (left[0], right[0]) not in kept
    assert set(combinations(left, 2)) <= kept
    assert set(combinations(right, 2)) <= kept


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        BackboneParams(max_rank_k=0)
    with pytest.raises(ValueError):
        BackboneParams(min_embeddedness=-1)


def test_replaced_params_are_checked_again():
    params = BackboneParams(max_rank_k=3)
    assert params._replace(min_embeddedness=0) == BackboneParams(3, 0)
    with pytest.raises(ValueError, match="max_rank_k must be >= 1"):
        params._replace(max_rank_k=0)
    with pytest.raises(ValueError, match="min_embeddedness must be >= 0"):
        params._replace(min_embeddedness=-1)


def test_two_triangles_give_two_communities():
    g = make_graph(
        {"a": "HP", "b": "HP", "c": "IBM", "x": "IBM", "y": "HP", "z": "IBM"},
        [("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z")],
    )
    backbone = extract_backbone(g, BackboneParams())
    communities = detect_subcommunities(backbone, min_size=3)
    assert len(communities) == 2
    assert as_pairs(g, communities)[0] == (frozenset({"a", "b", "c"}), {"HP": 2, "IBM": 1})
    overlap = firm_overlap(communities)
    assert overlap == {"HP": 2, "IBM": 2}


def test_isolated_nodes_form_no_communities():
    g = make_graph({"a": "HP", "b": "HP", "c": "HP"})
    assert detect_subcommunities(g, min_size=3) == []


def test_communities_sorted_by_size_then_member():
    pentagon = [f"p{i}" for i in range(5)]
    edges = list(combinations(pentagon, 2))  # K5
    triangle = ["t0", "t1", "t2"]
    edges += list(combinations(triangle, 2))
    g = make_graph({n: "HP" for n in pentagon + triangle}, edges)
    backbone = extract_backbone(g, BackboneParams())
    communities = detect_subcommunities(backbone, min_size=3)
    assert [len(c.members) for c in communities] == [5, 3]


def test_every_community_is_connected_in_backbone():
    g = graph_from_mask(6, 0b101011011101011)
    backbone = extract_backbone(g, BackboneParams())
    adj = {node: set() for node in backbone.nodes}
    for u, v in (divmod(e, len(backbone.ids)) for e in backbone.edges):
        adj[u].add(v)
        adj[v].add(u)
    for community in detect_subcommunities(backbone, min_size=2):
        members = set(community.members)
        reached = {min(members)}
        frontier = [min(members)]
        while frontier:
            node = frontier.pop()
            for other in adj[node] & members:
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
        assert reached == members


@pytest.mark.parametrize("seed", range(4))
def test_multi_digit_bitsets_match_oracle(seed):
    # 60-200 nodes, so a neighbour bitset spans several 30-bit int digits;
    # ids are inserted in shuffled order and a tenth of them have no edge
    rng = random.Random(seed)
    n = rng.randint(60, 200)
    names = [f"d{i:03d}" for i in range(n)]
    rng.shuffle(names)
    density = rng.uniform(0.03, 0.3)
    edges = [e for e in combinations(names[n // 10 :], 2) if rng.random() < density]
    g = make_graph({name: "HP" for name in names}, edges)
    assert named_embeddedness(g) == oracle_embeddedness(as_strings(g))
    params = BackboneParams(max_rank_k=rng.randint(1, 6), min_embeddedness=rng.randint(0, 4))
    assert backbone_pairs(g, params) == oracle_backbone(as_strings(g), params)


@pytest.mark.parametrize("seed", range(2))
def test_communities_of_large_sparse_graph_match_oracle(seed):
    # 60-200 nodes, a tenth of them isolated, two firms
    rng = random.Random(100 + seed)
    n = rng.randint(60, 200)
    names = [f"d{i:03d}" for i in range(n)]
    rng.shuffle(names)
    density = rng.uniform(0.01, 0.05)
    edges = [e for e in combinations(names[n // 10 :], 2) if rng.random() < density]
    g = make_graph({name: rng.choice(["HP", "IBM"]) for name in names}, edges)
    backbone = extract_backbone(g, BackboneParams(max_rank_k=3, min_embeddedness=0))
    for graph in (g, backbone):
        for min_size in range(1, 5):
            got = as_pairs(graph, detect_subcommunities(graph, min_size))
            assert got == oracle_communities(as_strings(graph), min_size)


# --- properties -----------------------------------------------------------

masks6 = st.integers(min_value=0, max_value=2 ** 15 - 1)
params_st = st.builds(
    BackboneParams,
    max_rank_k=st.integers(min_value=1, max_value=6),
    min_embeddedness=st.integers(min_value=0, max_value=4),
)


@given(masks6)
def test_embeddedness_matches_oracle(mask):
    g = graph_from_mask(6, mask)
    assert named_embeddedness(g) == oracle_embeddedness(as_strings(g))


@given(masks6, params_st)
def test_backbone_matches_oracle(mask, params):
    g = graph_from_mask(6, mask)
    assert backbone_pairs(g, params) == oracle_backbone(as_strings(g), params)


@given(masks6, params_st)
def test_backbone_is_subgraph(mask, params):
    g = graph_from_mask(6, mask)
    backbone = extract_backbone(g, params)
    assert set(backbone.edges) <= set(g.edges)
    assert backbone.nodes is g.nodes and backbone.firms is g.firms


@settings(max_examples=60)
@given(masks6, params_st)
def test_tightening_parameters_never_adds_edges(mask, params):
    g = graph_from_mask(6, mask)
    base = set(extract_backbone(g, params).edges)
    stricter_emb = BackboneParams(
        max_rank_k=params.max_rank_k,
        min_embeddedness=params.min_embeddedness + 1,
    )
    assert set(extract_backbone(g, stricter_emb).edges) <= base
    if params.max_rank_k > 1:
        stricter_k = BackboneParams(
            max_rank_k=params.max_rank_k - 1,
            min_embeddedness=params.min_embeddedness,
        )
        assert set(extract_backbone(g, stricter_k).edges) <= base


@given(masks6, params_st)
def test_backbone_deterministic_for_fixed_ids(mask, params):
    g = graph_from_mask(6, mask)
    first = extract_backbone(g, params)
    second = extract_backbone(g, params)
    assert first.edges == second.edges


@given(masks6, st.lists(st.sampled_from(["HP", "IBM"]), min_size=6, max_size=6),
       st.integers(min_value=1, max_value=4))
def test_communities_match_component_oracle(mask, labels, min_size):
    s = as_strings(graph_from_mask(6, mask))
    g = make_graph(dict(zip(sorted(s.firms), labels)), s.edges)
    got = as_pairs(g, detect_subcommunities(g, min_size))
    assert got == oracle_communities(as_strings(g), min_size)


# --- int ids follow id order ------------------------------------------------

# ids whose code-point order differs from insertion, numeric and case-folded
# order; U+FF21 sorts below the astral U+1F600 by code point, above it in UTF-16
ID_POOL = ["n2", "n10", "n1", "N3", "Zed", "abe", "Abe", "é", "e", "z", "Ａ", "\U0001F600"]


def edge_lines(text, pattern):
    """The (source, target) ids of each edge line, in file order."""
    return [tuple(m) for m in re.findall(pattern, text)]


@settings(max_examples=60)
@given(st.data(), params_st, st.integers(min_value=1, max_value=3))
def test_int_ids_follow_id_order(data, params, min_size):
    ids = data.draw(st.permutations(ID_POOL))  # the insertion order
    firms = {i: data.draw(st.sampled_from(["HP", "IBM"])) for i in ids}
    # a star from the first id, so every two ids share an edge or a neighbour
    # and the edge lines order every pair of them
    star = [(ids[0], i) for i in ids[1:]]
    pairs = star + data.draw(st.lists(st.sampled_from(list(combinations(ids[1:], 2))), unique=True))
    # one commit per developer in insertion order, then one per edge, so the
    # graph's id table is `sorted` of the window's developers, as a run sorts its ids
    commits = [(Developer(i, firms[i]), (f"own-{i}",)) for i in ids]
    for u, v in pairs:
        file = f"{u}+{v}"
        commits += [(Developer(x, firms[x]), (file,)) for x in (u, v)]
    g = window_graph("w", commits)
    expected = StrGraph("w", firms, frozenset(tuple(sorted(p)) for p in pairs))
    assert as_strings(g) == expected

    backbone = extract_backbone(g, params)
    kept = oracle_backbone(expected, params)
    assert as_strings(backbone).edges == kept
    got = as_pairs(backbone, detect_subcommunities(backbone, min_size))
    assert got == oracle_communities(StrGraph("w", firms, kept), min_size)

    for graph, edges in ((g, expected.edges), (backbone, kept)):
        graphml = edge_lines(export_graph(graph, "graphml"), r'<edge source="(.*)" target="(.*)"/>')
        dot = edge_lines(export_graph(graph, "dot"), r'\n  "(.*)" -- "(.*)";')
        assert graphml == dot == sorted(edges)


def test_rank_key_spans_a_wide_id_table():
    # the nodes are the last 12 of 70,000 ids, so a neighbour's number needs
    # 17 bits, and in these dense graphs many ties share a strength and are
    # broken by neighbour id; a rank key that shifts the strength by 16 bits
    # would let the neighbour's top bit change the strength's order
    table = shared_table({f"d{i:05d}": "HP" for i in range(70_000)})
    nodes = table[0][-12:]
    rng = random.Random(7)
    for _ in range(4):
        edges = [e for e in combinations(nodes, 2) if rng.random() < 0.6]
        g = make_graph(dict.fromkeys(nodes, "HP"), edges, table=table)
        for k in range(1, 6):
            params = BackboneParams(max_rank_k=k, min_embeddedness=1)
            assert backbone_pairs(g, params) == oracle_backbone(as_strings(g), params)
