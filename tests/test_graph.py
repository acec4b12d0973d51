"""Graph construction tests, including the nested-loop brute-force oracle."""

import random
import tracemalloc
import zlib
from array import array
from datetime import datetime, timedelta, timezone
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    Developer,
    as_strings,
    brute_force_graph,
    builder_graph,
    identity_pairs,
    make_graph,
    shared_table,
    window_builder,
    window_graph,
)
from coopnet.backbone import BackboneParams, extract_backbone
from coopnet import graph
from coopnet.graph import GraphError, WindowBuilder, id_table, merge_graphs
from coopnet.ingest import CommitRecord

T0 = datetime(2021, 1, 1, tzinfo=timezone.utc)

FIRM_OF = {"a": "HP", "b": "HP", "c": "IBM", "d": "IBM", "e": "RedHat", "f": "Citrix"}


def identity_map(devs=FIRM_OF):
    return {
        f"{dev}@x.example": Developer(canonical_id=f"{dev}@x.example", firm=firm)
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
    g = window_graph("w", identity_pairs(records, identity_map()))
    assert as_strings(g).edges == {(node("a"), node("b"))}


def test_no_shared_file_no_edge_but_nodes_remain():
    records = [commit(1, "a", ["x.py"]), commit(2, "b", ["y.py"])]
    g = window_graph("w", identity_pairs(records, identity_map()))
    assert set(g.edges) == set()
    assert as_strings(g).firms.keys() == {node("a"), node("b")}


def test_firm_filter_drops_developer_and_edges():
    records = [commit(1, "a", ["f.py"]), commit(2, "e", ["f.py"])]
    g = window_graph(
        "w", identity_pairs(records, identity_map()), frozenset({"HP", "IBM"})
    )
    assert as_strings(g).firms.keys() == {node("a")}
    assert set(g.edges) == set()


def test_unknown_author_skipped():
    records = [commit(1, "a", ["f.py"]), commit(2, "zz", ["f.py"])]
    g = window_graph("w", identity_pairs(records, identity_map()))
    assert as_strings(g).firms.keys() == {node("a")}


def test_repeat_touches_count_once():
    records = [
        commit(1, "a", ["f.py"]),
        commit(2, "a", ["f.py"]),
        commit(3, "b", ["f.py"]),
        commit(4, "b", ["f.py"]),
    ]
    g = window_graph("w", identity_pairs(records, identity_map()))
    assert g.edge_count == 1


def test_empty_input_gives_empty_graph():
    g = window_graph("w", identity_pairs([], identity_map()))
    assert g.node_count == 0 and g.edge_count == 0


def test_merge_graphs_unions_nodes_and_edges():
    table = shared_table({"a": "HP", "b": "HP", "c": "IBM"})
    g1 = make_graph({"a": "HP", "b": "HP"}, [("a", "b")], window="w1", table=table)
    g2 = make_graph({"b": "HP", "c": "IBM"}, [("b", "c")], window="w2", table=table)
    merged = merge_graphs([g1, g2], "merged")
    assert merged.window == "merged"
    assert merged.ids is table[0] and merged.firms is table[1]
    assert list(merged.nodes) == [0, 1, 2] and merged.nodes.typecode == "i"
    assert as_strings(merged).firms == {"a": "HP", "b": "HP", "c": "IBM"}
    assert as_strings(merged).edges == {("a", "b"), ("b", "c")}


@pytest.mark.parametrize("slices", [1, 3, graph.MERGE_SLICES, 5000])
def test_merge_graphs_unions_edges_across_slices(monkeypatch, slices):
    # 5000 slices of a 1600-value packed range leave most slices empty
    monkeypatch.setattr(graph, "MERGE_SLICES", slices)
    rng = random.Random(slices)
    firms = {f"d{i:02d}": "HP" for i in range(40)}
    table = shared_table(firms)
    pairs = list(combinations(table[0], 2))
    graphs = [make_graph(firms, rng.sample(pairs, 200), window=f"w{w}", table=table) for w in range(4)]
    graphs.append(make_graph({"d00": "HP"}, window="empty", table=table))
    merged = merge_graphs(graphs, "merged")
    union = set().union(*(g.edges for g in graphs))
    assert list(merged.edges) == sorted(union)
    assert merged.edges.typecode == "q"


def test_merge_graphs_of_no_graph_is_empty():
    merged = merge_graphs([], "merged")
    assert merged.node_count == 0 and merged.edge_count == 0


def test_merge_graphs_refuses_another_id_table():
    g1 = make_graph({"a": "HP", "b": "HP"}, [("a", "b")], window="w1")
    g2 = make_graph({"b": "HP", "c": "IBM"}, [("b", "c")], window="w2")
    with pytest.raises(GraphError, match="w2 has another id table"):
        merge_graphs([g1, g2], "merged")


def held_by_builder(touches, developers):
    """The builder of (developer, files) touches, and the bytes it holds once they are added.

    Each file name is made anew for its commit, as a parsed record makes it,
    so a builder that keeps a name's string is charged for it.
    """
    builder = WindowBuilder(["HP"] * developers)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for dev, files in touches:
            builder.add(dev, ["".join(["src/", name]) for name in files])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return builder, held


def test_a_wide_window_holds_each_touch_in_a_few_bytes_beyond_its_name():
    # 20,000 files touched once each by 500 developers: no file has two
    touches = [(i % 500, [f"pkg{i // 100:04d}/module_{i:06d}.py"]) for i in range(20_000)]
    _, held = held_by_builder(touches, 500)
    name_bytes = sum(len("src/" + files[0]) for _, files in touches)
    # a one-file commit is at most its name's bytes, a 0xFE and an array
    # slot; a kept str and a dict entry per file cost about 120 bytes a touch
    assert held < name_bytes + 24 * len(touches)


def test_a_repeat_heavy_window_holds_each_distinct_pair_in_a_few_bytes(monkeypatch):
    monkeypatch.setattr(graph, "FOLD_MIN_BYTES", 4096)
    rng = random.Random(3)
    pairs = {(d, f"d{d:03d}/f{k}.py") for d in range(100) for k in range(10)}
    touches = [
        (d, [f"d{d:03d}/f{k}.py" for k in rng.sample(range(10), rng.randint(1, 4))])
        for d in (rng.randrange(100) for _ in range(20_000))
    ]
    builder, held = held_by_builder(touches, 100)
    assert builder.commits == 20_000
    pair_bytes = sum(len("src/" + path) + 9 for _, path in pairs)
    # rewrites keep the log within twice its distinct pairs; without them
    # it would hold all of about 50,000 touches
    assert held < 3 * pair_bytes


def seeded_window(seed):
    """(identity, files) pairs mixing files of one, two and many developers.

    A one-developer file is committed by its developer one to four times;
    every developer's touches are cut into commits of one to three files.
    """
    rng = random.Random(seed)
    devs = [f"d{i:02d}" for i in range(30)]
    identities = identity_map({d: ("HP", "IBM", "RedHat")[i % 3] for i, d in enumerate(devs)})
    touches = {d: [] for d in devs}
    for i in range(40):
        touches[rng.choice(devs)] += [f"solo{i}.py"] * rng.randint(1, 4)
    for i in range(15):
        for d in rng.sample(devs, 2):
            touches[d].append(f"pair{i}.py")
    for i in range(3):
        for d in rng.sample(devs, rng.randint(8, 20)):
            touches[d] += [f"hub{i}.py"] * rng.randint(1, 2)
    commits = []
    for d, files in touches.items():
        rng.shuffle(files)
        while files:
            size = rng.randint(1, 3)
            commits.append((identities[node(d)], tuple(sorted(set(files[:size])))))
            files = files[size:]
    rng.shuffle(commits)
    return commits


def cofile_oracle(pairs, firm_filter):
    """Brute force: each kept developer's file set, then every pair of developers."""
    firms, files_of = {}, {}
    for identity, files in pairs:
        if firm_filter is None or identity.firm in firm_filter:
            firms[identity.canonical_id] = identity.firm
            files_of.setdefault(identity.canonical_id, set()).update(files)
    edges = {(u, v) for u, v in combinations(sorted(files_of), 2) if files_of[u] & files_of[v]}
    devs_of = {}
    for dev, files in files_of.items():
        for path in files:
            devs_of.setdefault(path, set()).add(dev)
    return firms, edges, {path: devs for path, devs in devs_of.items() if len(devs) > 1}


@pytest.mark.parametrize("firm_filter", [None, frozenset({"HP", "RedHat"})])
@pytest.mark.parametrize("seed", range(4))
def test_build_matches_cofile_oracle_on_seeded_windows(seed, firm_filter):
    pairs = seeded_window(seed)
    firms, edges, shared = cofile_oracle(pairs, firm_filter)
    # the input holds every case: solo files committed repeatedly, and files of 2 and many
    commits_of = {}
    for identity, files in pairs:
        for path in files:
            commits_of.setdefault(path, []).append(identity.canonical_id)
    assert any(len(c) > 1 and len(set(c)) == 1 for c in commits_of.values())
    sizes = {len(devs) for devs in shared.values()}
    assert 2 in sizes and max(sizes) >= 5
    g = window_graph("w", pairs, firm_filter)
    assert g.ids == sorted(firms)
    assert as_strings(g).firms == firms
    assert as_strings(g).edges == edges
    assert all(u < v for u, v in (divmod(e, len(g.ids)) for e in g.edges))  # no self-loop
    builder, _ = window_builder(pairs, firm_filter)
    assert builder.commits == len(pairs)


# names that a lossy encoding, or a terminator a name could hold, would merge
AWKWARD_NAMES = [
    "caf\u00e9.py", "cafe\u0301.py", "lone\ud800.py", "lone\udfff.py", "lone?.py",
    "nul\x00.py", "nul.py", "max\uffff.py", "max\ufffd.py", "\u4e2d\u6587/\U0001f600.py",
]


def repeat_heavy_window(seed):
    """(identity, files) pairs of 12 developers who touch 30 files of their own and the
    awkward names, again and again."""
    rng = random.Random(seed)
    devs = [f"r{i:02d}" for i in range(12)]
    identities = identity_map({d: ("HP", "IBM", "RedHat")[i % 3] for i, d in enumerate(devs)})
    own = {d: [f"{d}/f{k}.py" for k in range(30)] for d in devs}
    pairs = []
    for _ in range(400):
        d = rng.choice(devs)
        files = rng.sample(own[d], rng.randint(1, 3))
        if rng.random() < 0.3:
            files.append(rng.choice(AWKWARD_NAMES))
        pairs.append((identities[node(d)], tuple(sorted(set(files)))))
    return pairs


@pytest.mark.parametrize("firm_filter", [None, frozenset({"HP", "RedHat"})])
@pytest.mark.parametrize("seed", range(3))
def test_folded_touch_log_matches_cofile_oracle(monkeypatch, seed, firm_filter):
    monkeypatch.setattr(graph, "FOLD_MIN_BYTES", 256)
    rewrites = []
    rewrite = WindowBuilder._rewrite
    monkeypatch.setattr(WindowBuilder, "_rewrite", lambda self: rewrites.append(1) or rewrite(self))
    pairs = repeat_heavy_window(seed)
    assert set(AWKWARD_NAMES) <= cofile_oracle(pairs, None)[2].keys()  # each is shared
    firms, edges, _ = cofile_oracle(pairs, firm_filter)
    builder, number = window_builder(pairs, firm_filter)
    assert len(rewrites) >= 3  # the log crossed its fold threshold again and again
    assert builder.commits == len(pairs)
    g = builder_graph(builder, number)
    assert as_strings(g).firms == firms
    assert as_strings(g).edges == edges


def assert_bounded_chunks(builder, bound):
    """Every chunk of the builder's log compresses whole entries, below bound but for its last."""
    for packed in builder.log:
        assert type(packed) is bytes
        chunk = zlib.decompress(packed)
        *_, last, end = chunk.split(b"\xfe")
        assert end == b"" and len(chunk) - len(last) - 1 < bound


@pytest.mark.parametrize("bound", [1, 7, 64])
@pytest.mark.parametrize("seed", range(2))
def test_chunked_touch_log_matches_cofile_oracle(monkeypatch, seed, bound):
    # entries longer than a chunk's bound, entries left in the tail, and
    # rewrites that follow flushes and flush again themselves
    monkeypatch.setattr(graph, "LOG_CHUNK_BYTES", bound)
    monkeypatch.setattr(graph, "FOLD_MIN_BYTES", 256)
    flushed = []
    rewrite = WindowBuilder._rewrite

    def checking(self):
        assert_bounded_chunks(self, bound)
        flushed.append(len(self.log))
        rewrite(self)

    monkeypatch.setattr(WindowBuilder, "_rewrite", checking)
    pairs = repeat_heavy_window(seed)
    firms, edges, _ = cofile_oracle(pairs, None)
    builder, number = window_builder(pairs)
    assert len(flushed) >= 3 and all(flushed)  # each rewrite followed a flush
    assert_bounded_chunks(builder, bound)
    assert builder.log
    if bound == 64:
        assert builder.tail  # the fold reads entries not yet chunked too
    g = builder_graph(builder, number)
    assert as_strings(g).firms == firms
    assert as_strings(g).edges == edges
    assert (builder.log, builder.tail, list(builder.devs)) == ([], [], [])


def long_window(commits, seed):
    """(Developer, files) pairs of 30 developers: commits of no files, of the awkward names and
    of shared files, between commits of one to three long, mostly distinct non-ASCII paths."""
    rng = random.Random(seed)
    developers = [Developer(f"d{i:02d}@x.example", ("HP", "IBM", "RedHat")[i % 3]) for i in range(30)]
    shared = AWKWARD_NAMES + [f"shared/m\u00f3dulo_{k}.py" for k in range(40)]
    pairs = []
    for i in range(commits):
        if i % 97 == 0:
            files = ()
        else:
            files = {f"src/paquete_{i % 50:02d}/m\u00f3dulo_{i:06d}_{k}.py" for k in range(rng.randint(1, 3))}
            if i % 7 == 0:
                files.add(rng.choice(shared))
        pairs.append((rng.choice(developers), tuple(sorted(files))))
    return pairs


@pytest.mark.parametrize("firm_filter", [None, frozenset({"HP", "RedHat"})])
def test_touch_log_round_trips_through_compressed_chunks(monkeypatch, firm_filter):
    rewrites = []
    monkeypatch.setattr(WindowBuilder, "_rewrite", lambda self: rewrites.append(1))
    pairs = long_window(3000, 1)
    builder, number = window_builder(pairs, firm_filter)
    kept = [(d, files) for d, files in pairs if firm_filter is None or d.firm in firm_filter]
    entries = [b"\xff".join(f.encode("utf-8", "surrogatepass") for f in files) for _, files in kept]
    assert len(builder.log) >= 3 and rewrites == []  # past LOG_CHUNK_BYTES, short of a rewrite
    assert all(type(chunk) is bytes for chunk in builder.log)
    raw = sum(len(zlib.decompress(chunk)) for chunk in builder.log)
    assert raw + builder.tail_bytes == builder.size == sum(len(e) + 1 for e in entries)
    assert sum(map(len, builder.log)) < raw / 2  # held compressed
    assert list(builder._entries()) == entries
    assert list(builder.devs) == [number[d.canonical_id] for d, _ in kept]
    assert any(not files for _, files in kept)
    assert as_strings(builder_graph(builder, number)) == brute_force_graph("w", pairs, firm_filter)


@pytest.mark.parametrize("firm_filter", [None, frozenset({"HP", "RedHat"})])
def test_builder_past_fold_min_bytes_matches_brute_force(monkeypatch, firm_filter):
    rewrites = []
    rewrite = WindowBuilder._rewrite
    monkeypatch.setattr(WindowBuilder, "_rewrite", lambda self: rewrites.append(1) or rewrite(self))
    pairs = long_window(24_000, 2)
    kept = [files for d, files in pairs if firm_filter is None or d.firm in firm_filter]
    touched = sum(len(f.encode("utf-8", "surrogatepass")) + 1 for files in kept for f in files)
    assert touched > graph.FOLD_MIN_BYTES
    builder, number = window_builder(pairs, firm_filter)
    assert rewrites and builder.log  # rewritten, and logged in compressed chunks again
    g = builder_graph(builder, number)
    assert g.edge_count
    assert as_strings(g) == brute_force_graph("w", pairs, firm_filter)


def test_awkward_names_are_distinct_files():
    # one developer per name: a name that two encoded alike would make an edge
    devs = {f"n{i}": "HP" for i in range(len(AWKWARD_NAMES))}
    people = identity_map(devs)
    pairs = [(people[node(d)], (name,)) for d, name in zip(devs, AWKWARD_NAMES)]
    g = window_graph("w", pairs)
    assert g.node_count == len(AWKWARD_NAMES) and g.edge_count == 0


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
    g = window_graph("w", identity_pairs(records, identity_map()))
    assert as_strings(g).edges == oracle_edges(assignments)


@given(commit_lists)
def test_graph_is_simple_and_symmetric(assignments):
    records = [commit(i, dev, files) for i, (dev, files) in enumerate(assignments)]
    g = window_graph("w", identity_pairs(records, identity_map()))
    for e in g.edges:
        u, v = divmod(e, len(g.ids))
        assert u < v  # canonical unordered representation, no self-loop
        assert u in g.nodes and v in g.nodes


@given(commit_lists, st.tuples(dev_names, st.lists(file_names, min_size=1, max_size=3)))
def test_adding_a_commit_is_monotone(assignments, extra):
    records = [commit(i, dev, files) for i, (dev, files) in enumerate(assignments)]
    g_before = window_graph("w", identity_pairs(records, identity_map()))
    records.append(commit(len(records), extra[0], extra[1]))
    g_after = window_graph("w", identity_pairs(records, identity_map()))
    before, after = as_strings(g_before), as_strings(g_after)
    assert before.firms.keys() <= after.firms.keys()
    assert before.edges <= after.edges


def assert_ascending_edges(g):
    assert isinstance(g.nodes, array) and g.nodes.typecode == "i"
    assert all(a < b for a, b in zip(g.nodes, g.nodes[1:]))
    assert isinstance(g.edges, array) and g.edges.typecode == "q"
    assert all(a < b for a, b in zip(g.edges, g.edges[1:]))  # strictly: no duplicate
    assert all(u < v for u, v in g.ends(g.edges))


@given(st.lists(commit_lists, min_size=1, max_size=3),
       st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2))
def test_edges_are_an_ascending_int_array(windows, k, floor):
    people = identity_map()
    number = {email: d for d, email in enumerate(people)}
    firms = [people[email].firm for email in number]
    table = id_table(list(number), firms)
    graphs = []
    for w, assignments in enumerate(windows):
        builder = WindowBuilder(firms)
        for dev, files in assignments:
            builder.add(number[node(dev)], files)
        graphs.append(builder.graph(f"w{w}", *table))
    merged = merge_graphs(graphs, "merged")
    assert set(merged.edges) == set().union(*(g.edges for g in graphs))
    assert set(merged.nodes) == set().union(*(g.nodes for g in graphs))
    for g in [*graphs, merged]:
        assert_ascending_edges(g)
        backbone = extract_backbone(g, BackboneParams(k, floor))
        assert_ascending_edges(backbone)
        assert set(backbone.edges) <= set(g.edges)
