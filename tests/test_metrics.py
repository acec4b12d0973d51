from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import degree_centrality, make_graph
from coopnet.metrics import (
    density,
    firm_assortativity,
    firm_mixing,
    group_counts,
    same_firm_edge_fraction,
)
from coopnet.report import format_real


def complete_graph(n, firm="HP"):
    nodes = {f"n{i:02d}": firm for i in range(n)}
    return make_graph(nodes, combinations(sorted(nodes), 2))


def test_density_of_triangle_is_one():
    assert density(complete_graph(3)) == 1.0


def test_density_of_edgeless_graph_is_zero():
    assert density(make_graph({f"n{i}": "HP" for i in range(4)})) == 0.0


def test_density_of_path_on_four_nodes():
    g = make_graph(
        {"a": "HP", "b": "HP", "c": "HP", "d": "HP"},
        [("a", "b"), ("b", "c"), ("c", "d")],
    )
    # oracle: 3 of the 6 unordered pairs are connected
    assert density(g) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n", [0, 1])
def test_density_undefined_below_two_nodes(n):
    assert density(complete_graph(n)) is None


def test_density_of_complete_graphs_exhaustive():
    for n in range(2, 9):
        assert density(complete_graph(n)) == pytest.approx(1.0, abs=1e-12)


def test_degree_centrality_complete_graph():
    centrality = degree_centrality(complete_graph(3))
    assert all(value == (2, 1.0) for value in centrality.values())


def test_degree_centrality_star():
    leaves = {f"l{i}": "HP" for i in range(4)}
    g = make_graph({"center": "HP", **leaves}, [("center", leaf) for leaf in leaves])
    centrality = degree_centrality(g)
    assert centrality["center"] == (4, 1.0)
    for leaf in leaves:
        assert centrality[leaf] == (1, 0.25)


def test_degree_centrality_isolated_node():
    g = make_graph({"a": "HP", "b": "HP", "c": "HP"}, [("a", "b")])
    assert degree_centrality(g)["c"] == (0, 0.0)


def test_degree_centrality_singleton_undefined_normalization():
    centrality = degree_centrality(make_graph({"a": "HP"}))
    assert centrality["a"] == (0, None)


def test_same_firm_fraction():
    g = make_graph(
        {"a": "HP", "b": "HP", "c": "IBM", "d": "IBM"},
        [("a", "b"), ("c", "d"), ("a", "c"), ("b", "d")],
    )
    assert same_firm_edge_fraction(firm_mixing(g)) == pytest.approx(0.5)


def test_same_firm_fraction_extremes():
    within = make_graph({"a": "HP", "b": "HP"}, [("a", "b")])
    assert same_firm_edge_fraction(firm_mixing(within)) == 1.0
    across = make_graph({"a": "HP", "b": "IBM"}, [("a", "b")])
    assert same_firm_edge_fraction(firm_mixing(across)) == 0.0
    assert same_firm_edge_fraction(firm_mixing(make_graph({"a": "HP"}))) is None


def test_assortativity_perfect_homophily():
    g = make_graph(
        {"a": "HP", "b": "HP", "c": "IBM", "d": "IBM"},
        [("a", "b"), ("c", "d")],
    )
    assert firm_assortativity(firm_mixing(g)) == pytest.approx(1.0, abs=1e-12)


def test_assortativity_complete_bipartite():
    hp = [f"h{i}" for i in range(3)]
    ibm = [f"i{i}" for i in range(3)]
    firms = {**{n: "HP" for n in hp}, **{n: "IBM" for n in ibm}}
    g = make_graph(firms, [(u, v) for u in hp for v in ibm])
    # mixing matrix is e12 = e21 = 0.5, so r = (0 - 0.5) / (1 - 0.5)
    assert firm_assortativity(firm_mixing(g)) == pytest.approx(-1.0, abs=1e-12)


def test_assortativity_undefined_cases():
    assert firm_assortativity(firm_mixing(make_graph({"a": "HP", "b": "HP"}))) is None
    single_firm = make_graph({"a": "HP", "b": "HP"}, [("a", "b")])
    assert firm_assortativity(firm_mixing(single_firm)) is None


# --- properties and brute-force oracle ------------------------------------

def brute_force_metrics(firms, edges):
    """Exact-rational reference for density, degrees, homophily."""
    nodes = sorted(firms)
    n, m = len(nodes), len(edges)
    pairs = list(combinations(nodes, 2))
    connected = sum(1 for p in pairs if p in edges)
    dens = None if n < 2 else Fraction(connected, len(pairs))
    degs = {v: sum(1 for e in edges if v in e) for v in nodes}
    same = None if m == 0 else Fraction(sum(1 for u, v in edges if firms[u] == firms[v]), m)
    assort = None
    if m:
        ends = {}
        for u, v in edges:
            ends[firms[u]] = ends.get(firms[u], 0) + 1
            ends[firms[v]] = ends.get(firms[v], 0) + 1
        sum_ab = sum(Fraction(c, 2 * m) ** 2 for c in ends.values())
        if sum_ab != 1:
            assort = (same - sum_ab) / (1 - sum_ab)
    return dens, degs, same, assort


def all_graphs_up_to(n, labelings):
    names = [f"n{i}" for i in range(n)]
    pairs = list(combinations(names, 2))
    for mask in range(2 ** len(pairs)):
        edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        for labeling in labelings:
            firms = {name: labeling[i] for i, name in enumerate(names)}
            yield firms, edges, make_graph(firms, edges)


def test_exhaustive_oracle_equivalence_up_to_five_nodes():
    labelings = [["HP"] * 5, ["HP", "IBM", "HP", "IBM", "IBM"]]
    for firms, edges, g in all_graphs_up_to(5, labelings):
        dens, degs, same, assort = brute_force_metrics(firms, set(edges))
        if dens is None:
            assert density(g) is None
        else:
            assert abs(density(g) - dens) < 1e-12
        assert {v: d for v, (d, _) in degree_centrality(g).items()} == degs
        mix = firm_mixing(g)
        for got, expected in [
            (same_firm_edge_fraction(mix), same),
            (firm_assortativity(mix), assort),
        ]:
            # one integer division: the correctly rounded exact value
            assert got == (None if expected is None else float(expected))


# r = -5/128 lies on a six-decimal rounding tie; summing float fractions in
# hash order missed it by one ulp, so the written value depended on the seed
TIE_FIRMS = "d0:D d1:D d2:A d3:D d4:C d5:B d6:A d7:A d8:A"
TIE_EDGES = (
    "d0-d1 d0-d3 d0-d4 d0-d5 d0-d6 d0-d8 d1-d3 d1-d4 d1-d5 d1-d7 "
    "d2-d4 d2-d6 d3-d4 d3-d5 d4-d5 d4-d7 d4-d8 d5-d7 d6-d8"
)


def test_assortativity_on_rounding_tie_is_exact():
    firms = dict(item.split(":") for item in TIE_FIRMS.split())
    edges = {tuple(edge.split("-")) for edge in TIE_EDGES.split()}
    g = make_graph(firms, edges)
    assortativity = firm_assortativity(firm_mixing(g))
    assert brute_force_metrics(firms, edges)[3] == Fraction(-5, 128)
    assert assortativity == -5 / 128
    assert format_real(assortativity) == "-0.039062"


def test_firm_mixing_counts_nodes_per_firm_and_edges_per_firm_pair():
    g = make_graph(
        {"a": "HP", "b": "HP", "c": "IBM", "d": "RedHat", "e": "RedHat"},
        [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")],
    )
    mix = firm_mixing(g)
    assert mix.nodes == {"HP": 2, "IBM": 1, "RedHat": 2}
    assert mix.edges == {("HP", "HP"): 1, ("HP", "IBM"): 2, ("IBM", "RedHat"): 1}
    assert group_counts(mix, {"HP", "IBM"}) == (3, 3)
    assert group_counts(mix, {"RedHat"}) == (2, 0)
    assert group_counts(mix, {"Citrix"}) == (0, 0)


edge_masks = st.integers(min_value=0, max_value=2 ** 15 - 1)
labelings = st.lists(st.sampled_from(["HP", "IBM", "RedHat"]), min_size=6, max_size=6)


@given(edge_masks, labelings)
def test_handshake_lemma(mask, labels):
    names = [f"n{i}" for i in range(6)]
    pairs = list(combinations(names, 2))
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    g = make_graph(dict(zip(names, labels)), edges)
    degrees = {v: d for v, (d, _) in degree_centrality(g).items()}
    assert sum(degrees.values()) == 2 * g.edge_count


@given(edge_masks, labelings, st.permutations(range(6)))
def test_metrics_invariant_under_relabeling(mask, labels, perm):
    names = [f"n{i}" for i in range(6)]
    pairs = list(combinations(names, 2))
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    g = make_graph(dict(zip(names, labels)), edges)
    renamed = {names[i]: f"m{perm[i]}" for i in range(6)}
    g2 = make_graph(
        {renamed[v]: f for v, f in zip(names, labels)},
        [(renamed[u], renamed[v]) for u, v in edges],
    )
    assert density(g) == density(g2)
    mix, mix2 = firm_mixing(g), firm_mixing(g2)
    assert same_firm_edge_fraction(mix) == same_firm_edge_fraction(mix2)
    assert firm_assortativity(mix) == firm_assortativity(mix2)
