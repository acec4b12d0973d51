"""Graph construction tests, including the nested-loop brute-force oracle."""

from datetime import datetime, timedelta, timezone
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import identity_pairs, make_graph
from coopnet.graph import (
    FirmFilter,
    GraphError,
    build_collaboration_graph,
    merge_graphs,
)
from coopnet.identity import DeveloperIdentity
from coopnet.ingest import CommitRecord

T0 = datetime(2021, 1, 1, tzinfo=timezone.utc)

FIRM_OF = {"a": "HP", "b": "HP", "c": "IBM", "d": "IBM", "e": "RedHat", "f": "Citrix"}


def identity_map(devs=FIRM_OF):
    return {
        f"{dev}@x.example": DeveloperIdentity(
            canonical_id=f"{dev}@x.example",
            emails=frozenset({f"{dev}@x.example"}),
            firm=firm,
        )
        for dev, firm in devs.items()
    }


def commit(index, dev, files):
    return CommitRecord(
        sha=f"{index:040x}",
        author_name=dev,
        author_email=f"{dev}@x.example",
        timestamp=T0 + timedelta(hours=index),
        files=tuple(sorted(set(files))),
    )


def node(dev):
    return f"{dev}@x.example"


def test_shared_file_creates_edge():
    records = [commit(1, "a", ["nova/api.py"]), commit(2, "b", ["nova/api.py"])]
    g = build_collaboration_graph("w", identity_pairs(records, identity_map()))
    assert g.edges == {(node("a"), node("b"))}


def test_no_shared_file_no_edge_but_nodes_remain():
    records = [commit(1, "a", ["x.py"]), commit(2, "b", ["y.py"])]
    g = build_collaboration_graph("w", identity_pairs(records, identity_map()))
    assert g.edges == frozenset()
    assert g.firms.keys() == {node("a"), node("b")}


def test_firm_filter_drops_developer_and_edges():
    records = [commit(1, "a", ["f.py"]), commit(2, "e", ["f.py"])]
    g = build_collaboration_graph(
        "w", identity_pairs(records, identity_map()), FirmFilter(frozenset({"HP", "IBM"}))
    )
    assert g.firms.keys() == {node("a")}
    assert g.edges == frozenset()


def test_unknown_author_skipped():
    records = [commit(1, "a", ["f.py"]), commit(2, "zz", ["f.py"])]
    g = build_collaboration_graph("w", identity_pairs(records, identity_map()))
    assert g.firms.keys() == {node("a")}


def test_repeat_touches_count_once():
    records = [
        commit(1, "a", ["f.py"]),
        commit(2, "a", ["f.py"]),
        commit(3, "b", ["f.py"]),
        commit(4, "b", ["f.py"]),
    ]
    g = build_collaboration_graph("w", identity_pairs(records, identity_map()))
    assert g.edge_count == 1


def test_empty_input_gives_empty_graph():
    g = build_collaboration_graph("w", identity_pairs([], identity_map()))
    assert g.node_count == 0 and g.edge_count == 0


def test_empty_firm_filter_rejected():
    with pytest.raises(GraphError):
        FirmFilter(frozenset())


def test_merge_graphs_unions_nodes_and_edges():
    g1 = make_graph({"a": "HP", "b": "HP"}, [("a", "b")], window="w1")
    g2 = make_graph({"b": "HP", "c": "IBM"}, [("b", "c")], window="w2")
    merged = merge_graphs([g1, g2])
    assert merged.window == "merged"
    assert merged.firms.keys() == {"a", "b", "c"}
    assert merged.edges == {("a", "b"), ("b", "c")}


# --- properties -----------------------------------------------------------

dev_names = st.sampled_from(sorted(FIRM_OF))
file_names = st.sampled_from([f"f{i}.py" for i in range(6)])

commit_lists = st.lists(
    st.tuples(dev_names, st.lists(file_names, min_size=1, max_size=3)),
    max_size=12,
)


def oracle_edges(assignments):
    """Nested-loop oracle: all developer pairs sharing at least one file."""
    touched = {}
    for dev, files in assignments:
        touched.setdefault(dev, set()).update(files)
    edges = set()
    for d1, d2 in combinations(sorted(touched), 2):
        if touched[d1] & touched[d2]:
            edges.add((node(d1), node(d2)))
    return edges


@given(commit_lists)
def test_edges_match_bruteforce_oracle(assignments):
    records = [commit(i, dev, files) for i, (dev, files) in enumerate(assignments)]
    g = build_collaboration_graph("w", identity_pairs(records, identity_map()))
    assert set(g.edges) == oracle_edges(assignments)


@given(commit_lists)
def test_graph_is_simple_and_symmetric(assignments):
    records = [commit(i, dev, files) for i, (dev, files) in enumerate(assignments)]
    g = build_collaboration_graph("w", identity_pairs(records, identity_map()))
    for u, v in g.edges:
        assert u != v
        assert u < v  # canonical unordered representation
        assert u in g.firms and v in g.firms


@given(commit_lists, st.tuples(dev_names, st.lists(file_names, min_size=1, max_size=3)))
def test_adding_a_commit_is_monotone(assignments, extra):
    records = [commit(i, dev, files) for i, (dev, files) in enumerate(assignments)]
    g_before = build_collaboration_graph("w", identity_pairs(records, identity_map()))
    records.append(commit(len(records), extra[0], extra[1]))
    g_after = build_collaboration_graph("w", identity_pairs(records, identity_map()))
    assert g_before.firms.keys() <= g_after.firms.keys()
    assert g_before.edges <= g_after.edges

