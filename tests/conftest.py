from __future__ import annotations

from pathlib import Path
from xml.etree import ElementTree

import pytest

from coopnet.graph import CollaborationGraph
from coopnet.identity import IdentityResolver
from coopnet.ingest import ValidationReport, iter_commits

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


def make_graph(firms: dict[str, str], edges=(), window: str = "w") -> CollaborationGraph:
    """Build a graph directly from a node->firm map and edge pairs."""
    normalized = frozenset(tuple(sorted(e)) for e in edges)
    for u, v in normalized:
        assert u in firms and v in firms, "edge endpoint missing from node map"
        assert u != v, "self-loop in test input"
    return CollaborationGraph(window=window, firms=dict(firms), edges=normalized)


def degree_centrality(g: CollaborationGraph) -> dict[str, tuple[int, float | None]]:
    """Per node: raw degree and degree/(n-1) (None when n < 2)."""
    n = g.node_count
    degree = dict.fromkeys(g.firms, 0)
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    return {node: (d, d / (n - 1) if n >= 2 else None) for node, d in degree.items()}


def parse_commit_log(stream):
    """All accepted records of `iter_commits`, with the finished report."""
    report = ValidationReport()
    return list(iter_commits(stream, report)), report


def canonicalize_identities(records, amap):
    """Fold aliases and attach firms; returns (email -> identity, excluded shas)."""
    resolver = IdentityResolver(amap)
    excluded = [r.sha for r in records if resolver.resolve(r.author_email) is None]
    return resolver.identities, excluded


def identity_pairs(records, identities) -> list:
    """The (identity, files) pair of each record whose author has an identity."""
    return [(identities[r.author_email], r.files) for r in records if r.author_email in identities]


def read_graphml(text: str) -> CollaborationGraph:
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
    return CollaborationGraph(window=graph.get("id"), firms=firms, edges=frozenset(edges))


@pytest.fixture
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR
