from __future__ import annotations

import io
from array import array
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path
from typing import NamedTuple
from xml.etree import ElementTree

import pytest

from coopnet.cli import main
from coopnet.graph import CollaborationGraph, WindowBuilder, edge_array
from coopnet.identity import IdentityResolver
from coopnet.ingest import ValidationReport, convert_vcs_log, iter_commits

FIXTURE_DIR = Path(__file__).parent / "data" / "fixture"
GOLDEN_DIR = Path(__file__).parent / "data" / "golden"


def analyze_args(tmp_path, **extra):
    """`coopnet analyze` argv for the fixture; each extra option is appended, so it wins."""
    args = [
        "analyze",
        "--log", str(FIXTURE_DIR / "commits.ndjson"),
        "--releases", str(FIXTURE_DIR / "releases.csv"),
        "--affiliations", str(FIXTURE_DIR / "affiliations.ini"),
        "--firms", str(FIXTURE_DIR / "firms.txt"),
        "--revenue-models", str(FIXTURE_DIR / "revenue.csv"),
        "--out", str(tmp_path / "out"),
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def run_cli(args: list[str]) -> CliResult:
    """Call the CLI's `main(args)` in process; its exit code and what it printed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(args)
    return CliResult(code, stdout.getvalue(), stderr.getvalue())


class StrGraph(NamedTuple):
    """A graph named by id: what oracles take and what asserts compare."""

    window: str
    firms: dict[str, str]  # id -> firm
    edges: frozenset[tuple[str, str]]  # (smaller id, larger id)


def id_pair(g: CollaborationGraph, edge: int) -> tuple[str, str]:
    """A packed edge's ends named by id, the smaller first."""
    u, v = divmod(edge, len(g.ids))
    return g.ids[u], g.ids[v]


def as_strings(g: CollaborationGraph) -> StrGraph:
    """g's nodes and edges named by id, through its id table."""
    return StrGraph(
        g.window,
        {g.ids[u]: g.firms[u] for u in g.nodes},
        frozenset(id_pair(g, e) for e in g.edges),
    )


def shared_table(firm_of: dict[str, str]) -> tuple[list[str], list[str]]:
    """An id table and its firm list, as a run's graphs share them: the sorted ids of firm_of."""
    ids = sorted(firm_of)
    return ids, [firm_of[node] for node in ids]


def make_graph(firms: dict[str, str], edges=(), window: str = "w", table=None) -> CollaborationGraph:
    """Build a graph from a node->firm map and edge pairs, over an id table and its firms.

    The table defaults to ``shared_table(firms)``; pass one (ids, firms)
    pair to give several graphs the same table.
    """
    ids, table_firms = shared_table(firms) if table is None else table
    assert ids == sorted(set(ids)), "id table must be sorted and distinct"
    index = {node: i for i, node in enumerate(ids)}
    assert all(table_firms[index[node]] == firm for node, firm in firms.items())
    packed = []
    for e in edges:
        u, v = sorted(index[node] for node in e)
        assert ids[u] in firms and ids[v] in firms, "edge endpoint missing from node map"
        assert u != v, "self-loop in test input"
        packed.append(u * len(ids) + v)
    nodes = array("i", sorted(map(index.__getitem__, firms)))
    return CollaborationGraph(window, ids, table_firms, nodes, edge_array(packed))


def degree_centrality(g: CollaborationGraph) -> dict[str, tuple[int, float | None]]:
    """Per node id: raw degree and degree/(n-1) (None when n < 2)."""
    n = len(g.nodes)
    s = as_strings(g)
    degree = dict.fromkeys(s.firms, 0)
    for u, v in s.edges:
        degree[u] += 1
        degree[v] += 1
    return {node: (d, d / (n - 1) if n >= 2 else None) for node, d in degree.items()}


def parse_commit_log(text: str):
    """All accepted records of `iter_commits` on text, with the finished report.

    text is read as open() reads a file, with universal newlines.
    """
    report = ValidationReport()
    return list(iter_commits(io.StringIO(text, newline=None), report)), report


def convert_text(raw: str):
    """`convert_vcs_log` on raw into memory: the NDJSON text and the records without files dropped.

    raw is read with its line endings kept, as convert opens its input.
    The records it says it wrote are checked against the lines written.
    """
    out = io.StringIO()
    written, empty = convert_vcs_log(io.StringIO(raw, newline=""), out)
    ndjson = out.getvalue()
    assert written == ndjson.count("\n")  # json.dumps escapes every newline inside a record
    return ndjson, empty


class Developer(NamedTuple):
    """A resolved developer named by id: what the graph helpers take."""

    canonical_id: str
    firm: str


def canonicalize_identities(records, amap):
    """Fold aliases and attach firms; returns (email -> Developer, excluded shas).

    The map holds each address that committed and resolved. The addresses
    the resolver gives one number share one Developer object.
    """
    resolver = IdentityResolver(amap)
    developers, identities, excluded = {}, {}, []
    for r in records:
        d = resolver.resolve(r.author_email)
        if d is None:
            excluded.append(r.sha)
        else:
            if d not in developers:
                developers[d] = Developer(resolver.canonical_ids[d], resolver.firms[d])
            identities[r.author_email] = developers[d]
    return identities, excluded


def identity_pairs(records, identities) -> list:
    """The (identity, files) pair of each record whose author has an identity."""
    return [(identities[r.author_email], r.files) for r in records if r.author_email in identities]


def brute_force_graph(window: str, pairs, firm_filter=None) -> StrGraph:
    """The graph of a window's (Developer, files) pairs by nested loops over developer pairs.

    Its nodes are the developers the firm filter keeps, and its edges every
    two of them whose file sets meet.
    """
    firm_of: dict[str, str] = {}
    files_of: dict[str, set[str]] = {}
    for developer, files in pairs:
        if firm_filter is None or developer.firm in firm_filter:
            firm_of[developer.canonical_id] = developer.firm
            files_of.setdefault(developer.canonical_id, set()).update(files)
    edges = [(u, v) for u, v in combinations(sorted(files_of), 2) if files_of[u] & files_of[v]]
    return StrGraph(window, firm_of, frozenset(edges))


def window_builder(pairs, firm_filter=None) -> tuple[WindowBuilder, dict[str, int]]:
    """A builder that logged a window's (Developer, files) pairs, and its developer numbers.

    Developers are numbered as they are first seen, as a run numbers them,
    and the builder's firm list grows as they are.
    """
    number: dict[str, int] = {}
    builder = WindowBuilder([], firm_filter)
    for developer, files in pairs:
        if developer.canonical_id not in number:
            number[developer.canonical_id] = len(builder.firms)
            builder.firms.append(developer.firm)
        builder.add(number[developer.canonical_id], files)
    return builder, number


def builder_graph(builder: WindowBuilder, number: dict[str, int], window: str = "w"):
    """The builder's graph over the sorted ids of its kept developers.

    Graphs built this way cannot be merged with each other.
    """
    kept = builder.firm_filter
    ids = sorted(c for c, d in number.items() if kept is None or builder.firms[d] in kept)
    rank = {number[c]: u for u, c in enumerate(ids)}
    return builder.graph(window, ids, [builder.firms[number[c]] for c in ids], rank)


def window_graph(window: str, pairs, firm_filter=None) -> CollaborationGraph:
    """The graph of a window's (Developer, files) pairs, over the window's own id table.

    The table is the sorted ids of the window's kept developers, so graphs
    built this way cannot be merged with each other.
    """
    return builder_graph(*window_builder(pairs, firm_filter), window)


def read_graphml(text: str) -> StrGraph:
    """Read back a GraphML export, to check round-trips."""
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    root = ElementTree.fromstring(text)
    graph = root.find(f"{ns}graph")
    if graph is None:
        raise ValueError("no <graph> element")
    firms: dict[str, str] = {}
    edges = set()
    for node in graph.findall(f"{ns}node"):
        firm = ""
        for data in node.findall(f"{ns}data"):
            if data.get("key") == "firm":
                firm = data.text or ""
        firms[node.get("id")] = firm
    for edge in graph.findall(f"{ns}edge"):
        u, v = edge.get("source"), edge.get("target")
        edges.add((u, v) if u < v else (v, u))
    return StrGraph(graph.get("id"), firms, frozenset(edges))


@pytest.fixture
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR
