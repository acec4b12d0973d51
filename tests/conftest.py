from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
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
        {g.ids[u]: firm for u, firm in g.firms.items()},
        frozenset(id_pair(g, e) for e in g.edges),
    )


def make_graph(firms: dict[str, str], edges=(), window: str = "w", ids=None) -> CollaborationGraph:
    """Build a graph from a node->firm map and edge pairs, over the id table ``ids``.

    The table defaults to the sorted ids of ``firms``; pass one list to
    give several graphs the same table.
    """
    ids = sorted(firms) if ids is None else ids
    assert ids == sorted(set(ids)), "id table must be sorted and distinct"
    index = {node: i for i, node in enumerate(ids)}
    packed = []
    for e in edges:
        u, v = sorted(index[node] for node in e)
        assert ids[u] in firms and ids[v] in firms, "edge endpoint missing from node map"
        assert u != v, "self-loop in test input"
        packed.append(u * len(ids) + v)
    return CollaborationGraph(
        window, ids, {index[node]: firm for node, firm in firms.items()}, edge_array(packed)
    )


def degree_centrality(g: CollaborationGraph) -> dict[str, tuple[int, float | None]]:
    """Per node id: raw degree and degree/(n-1) (None when n < 2)."""
    n = g.node_count
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
    """`convert_vcs_log` on raw into memory: the NDJSON text and the merge records dropped.

    raw is read with its line endings kept, as convert opens its input.
    The records it says it wrote are checked against the lines written.
    """
    out = io.StringIO()
    written, merges = convert_vcs_log(io.StringIO(raw, newline=""), out)
    ndjson = out.getvalue()
    assert written == ndjson.count("\n")  # json.dumps escapes every newline inside a record
    return ndjson, merges


def canonicalize_identities(records, amap):
    """Fold aliases and attach firms; returns (email -> identity, excluded shas).

    The map holds each address that committed and resolved.
    """
    resolver = IdentityResolver(amap)
    identities, excluded = {}, []
    for r in records:
        identity = resolver.resolve(r.author_email)
        if identity is None:
            excluded.append(r.sha)
        else:
            identities[r.author_email] = identity
    return identities, excluded


def identity_pairs(records, identities) -> list:
    """The (identity, files) pair of each record whose author has an identity."""
    return [(identities[r.author_email], r.files) for r in records if r.author_email in identities]


def window_graph(window: str, pairs, firm_filter=None) -> CollaborationGraph:
    """The graph of a window's (identity, files) pairs, over the window's own id table.

    The table is the sorted ids of the window's kept developers, so graphs
    built this way cannot be merged with each other.
    """
    builder = WindowBuilder(firm_filter)
    firm_of = {}
    for identity, files in pairs:
        builder.add(identity, files)
        if firm_filter is None or identity.firm in firm_filter:
            firm_of[identity.canonical_id] = identity.firm
    ids = sorted(firm_of)
    index = {node: i for i, node in enumerate(ids)}
    return builder.graph(window, ids, index, [firm_of[node] for node in ids])


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
