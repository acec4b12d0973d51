from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import as_strings, make_graph
from coopnet.coopetition import (
    RevenueModelError,
    RevenueStream,
    compare_revenue_stream,
    load_revenue_models,
)
from coopnet.identity import UNAFFILIATED
from coopnet.metrics import firm_mixing

UNIVERSE = {"HP", "Rackspace", "Canonical", "IBM"}


def test_load_groups_firms_per_stream():
    config = "stream,firm\npublic-cloud,HP\npublic-cloud,Rackspace\npublic-cloud,Canonical\n"
    streams = load_revenue_models(config, UNIVERSE)
    assert len(streams) == 1
    assert streams[0].name == "public-cloud"
    assert streams[0].competing_firms == {"HP", "Rackspace", "Canonical"}


def test_load_preserves_first_appearance_order():
    config = "stream,firm\nbeta,IBM\nalpha,HP\nbeta,HP\n"
    streams = load_revenue_models(config, UNIVERSE)
    assert [s.name for s in streams] == ["beta", "alpha"]


def test_load_rejects_unknown_firm():
    with pytest.raises(RevenueModelError, match="Foo"):
        load_revenue_models("stream,firm\npublic-cloud,Foo\n", UNIVERSE)


def test_load_rejects_bad_header():
    with pytest.raises(RevenueModelError, match="header"):
        load_revenue_models("firm,stream\nHP,x\n", UNIVERSE)


def two_cliques_graph():
    """A-internal K3 and B-internal K3 with no cross edges."""
    firms = {f"a{i}": "A" for i in range(3)} | {f"b{i}": "B" for i in range(3)}
    edges = list(combinations([f"a{i}" for i in range(3)], 2)) + list(
        combinations([f"b{i}" for i in range(3)], 2)
    )
    return make_graph(firms, edges)


def test_compare_two_disjoint_cliques():
    g = two_cliques_graph()
    comparison = compare_revenue_stream(
        firm_mixing(g), RevenueStream("s", frozenset({"A"})), {"A", "B"}
    )
    assert comparison.n_alpha == 3 and comparison.den_alpha == 1.0
    assert comparison.n_beta == 3 and comparison.den_beta == 1.0


def test_stream_covering_all_firms_has_undefined_complement():
    g = two_cliques_graph()
    comparison = compare_revenue_stream(
        firm_mixing(g), RevenueStream("s", frozenset({"A", "B"})), {"A", "B"}
    )
    assert comparison.n_alpha == 6
    assert comparison.n_beta == 0
    assert comparison.den_beta is None


def test_empty_graph_comparison():
    g = make_graph({})
    comparison = compare_revenue_stream(
        firm_mixing(g), RevenueStream("s", frozenset({"A"})), {"A", "B"}
    )
    assert (comparison.n_alpha, comparison.den_alpha) == (0, None)
    assert (comparison.n_beta, comparison.den_beta) == (0, None)


def test_stream_outside_universe_rejected():
    g = make_graph({})
    with pytest.raises(RevenueModelError):
        compare_revenue_stream(firm_mixing(g), RevenueStream("s", frozenset({"Zed"})), {"A"})


def test_cross_group_edges_belong_to_neither_side():
    g = make_graph(
        {"a": "A", "b": "B"},
        [("a", "b")],
    )
    comparison = compare_revenue_stream(
        firm_mixing(g), RevenueStream("s", frozenset({"A"})), {"A", "B"}
    )
    assert comparison.n_alpha + comparison.n_beta == 0
    assert comparison.n_alpha + comparison.n_beta <= g.edge_count


# --- properties -----------------------------------------------------------

firms_st = st.sampled_from(["A", "B", "C"])
# Unaffiliated developers are nodes but outside the universe, so on neither side
graphs_st = st.builds(
    lambda labels, mask: _graph_from(labels, mask),
    st.lists(st.sampled_from(["A", "B", "C", UNAFFILIATED]), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=2 ** 15 - 1),
)


def _graph_from(labels, mask):
    names = [f"n{i}" for i in range(len(labels))]
    pairs = list(combinations(names, 2))
    edges = [p for i, p in enumerate(pairs) if mask >> (i % 15) & 1 and i < len(pairs)]
    return make_graph(dict(zip(names, labels)), edges)


@given(graphs_st, st.sets(firms_st, min_size=1))
def test_matches_bruteforce_subgraph_oracle(g, competing):
    universe = {"A", "B", "C"}
    comparison = compare_revenue_stream(
        firm_mixing(g), RevenueStream("s", frozenset(competing)), universe
    )
    # brute force both induced subgraphs by enumerating node pairs
    s = as_strings(g)
    for firms, (n_edges, den) in [
        (competing, (comparison.n_alpha, comparison.den_alpha)),
        (universe - competing, (comparison.n_beta, comparison.den_beta)),
    ]:
        nodes = sorted(v for v, f in s.firms.items() if f in firms)
        edges = [(u, v) for u, v in combinations(nodes, 2) if (u, v) in s.edges]
        assert n_edges == len(edges)
        if len(nodes) < 2:
            assert den is None
        else:
            assert den == 2 * len(edges) / (len(nodes) * (len(nodes) - 1))
