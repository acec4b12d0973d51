"""Pipeline orchestration and deterministic serialization.

Everything written by :func:`run_pipeline` is byte-deterministic for
identical inputs: nodes, edges, rows and JSON keys are emitted in sorted
or release order, reals are fixed to six decimals, and undefined values
are serialized as the literal "UND" in CSV (null in JSON).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import stat
import tempfile
from contextlib import ExitStack, contextmanager
from datetime import date
from functools import partial
from itertools import chain, islice, zip_longest
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .backbone import BackboneParams, detect_subcommunities, extract_backbone, firm_overlap
from .coopetition import RevenueStream, compare_revenue_stream, load_revenue_models
from .graph import CollaborationGraph, WindowBuilder, id_table, merge_graphs
from .identity import UNAFFILIATED, IdentityResolver, load_affiliation_map
from .ingest import InputError, ValidationReport, iter_commits
from .metrics import FirmMixing, density, firm_assortativity, firm_mixing, same_firm_edge_fraction
from .slicing import POST_RELEASE, assign_release, load_releases

# the timestamp a log carries: the extraction recipe's date line is the
# committer date (%cI), echoed in run_summary.json
TIME_FIELD = "committer"

MERGED_LABEL = "merged"

UND = "UND"

# everything run_pipeline writes: these files at the top of the output
# directory, and graph files (GRAPH_SUFFIXES) in these subdirectories
TABLE_FILES = frozenset({
    "evolution.csv", "homophily.csv", "comparisons.csv",
    "communities.json", "validation_report.json", "run_summary.json",
})
GRAPH_DIRS = frozenset({"graphs", "backbones"})


# ---------------------------------------------------------------------------
# value formatting

def format_real(value: float | None) -> str:
    """Six fixed decimals, or the UND literal for undefined values."""
    if value is None:
        return UND
    return f"{value:.6f}"


def _csv_cell(value) -> str:
    if value is None or isinstance(value, float):
        return format_real(value)
    text = str(value)
    if any(c in text for c in ',"\n\r'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def export_metrics_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """RFC 4180 CSV with LF endings; None cells become UND."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def evolution_csv(rows: list[tuple[str, int, int, float | None]]) -> str:
    return export_metrics_csv(["release", "nodes", "edges", "density"], rows)


def homophily_csv(rows: list[tuple[str, float | None, float | None]]) -> str:
    return export_metrics_csv(["release", "same_firm_fraction", "assortativity"], rows)


def comparisons_csv(rows: list[tuple[str, str, str, int, float | None, int, float | None]]) -> str:
    header = ["scope", "release", "stream", "n_alpha", "den_alpha", "n_beta", "den_beta"]
    return export_metrics_csv(header, rows)


# ---------------------------------------------------------------------------
# graph serialization

def escape(text: str) -> str:
    """XML character data: ``&``, ``<`` and ``>`` as entities, as xml.sax.saxutils.escape."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(text: str) -> str:
    """A quoted XML attribute value, as xml.sax.saxutils.quoteattr gives it.

    Beyond escape, newline, CR and tab become character references. The
    value is put in double quotes, in single quotes when it holds a double
    quote but no single one, and in double quotes with ``&quot;`` when it
    holds both.
    """
    text = escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


class GraphFormat(NamedTuple):
    """How one graph file format writes a graph, in id order.

    ``head`` takes the window name as ``quote_id`` quotes it. ``nodes``
    yields the node lines from the quoted id table, the quoted firms, the
    run's firm list and the graph's ascending nodes. ``edges`` yields the
    edge lines from the quoted id table and the (u, v) ends of the
    ascending edges.
    """

    quote_id: Callable[[str], str]
    quote_firm: Callable[[str], str]
    head: str
    nodes: Callable[[Sequence[str], dict[str, str], Sequence[str], Iterable[int]], Iterator[str]]
    edges: Callable[[Sequence[str], Iterable[tuple[int, int]]], Iterator[str]]
    tail: str


# each format's name is its file suffix
GRAPH_FORMATS = {
    "graphml": GraphFormat(
        quoteattr, escape,
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <key id="firm" for="node" attr.name="firm" attr.type="string"/>\n'
        '  <graph id={} edgedefault="undirected">\n',
        lambda q, qf, firms, nodes: (
            f'    <node id={q[u]}>\n      <data key="firm">{qf[firms[u]]}</data>\n    </node>\n'
            for u in nodes
        ),
        lambda q, ends: (f"    <edge source={q[u]} target={q[v]}/>\n" for u, v in ends),
        "  </graph>\n</graphml>\n",
    ),
    "dot": GraphFormat(
        _dot_quote, _dot_quote,
        "graph {} {{\n",
        lambda q, qf, firms, nodes: (f"  {q[u]} [firm={qf[firms[u]]}];\n" for u in nodes),
        lambda q, ends: (f"  {q[u]} -- {q[v]};\n" for u, v in ends),
        "}\n",
    ),
}
FORMATS = (*GRAPH_FORMATS, "csv", "json")
GRAPH_SUFFIXES = frozenset(f".{name}" for name in GRAPH_FORMATS)


# lines joined per part of a graph file, and so per write: a file's whole
# text is never held, and a few thousand lines per write keep the writes few
CHUNK_PARTS = 4096


def _chunks(lines: Iterable[str]) -> Iterator[str]:
    """The lines joined CHUNK_PARTS at a time; graph lines are never empty, so "" is the end."""
    lines = iter(lines)
    while chunk := "".join(islice(lines, CHUNK_PARTS)):
        yield chunk


def _node_chunks(
    fmt: GraphFormat, g: CollaborationGraph, quoted: Sequence[str], firms: dict[str, str]
) -> Iterator[str]:
    """g's node lines in id order, from the quoted ids and firms, in chunks as they are made."""
    return _chunks(fmt.nodes(quoted, firms, g.firms, g.nodes))


def _in_step(parts: Iterable[str]) -> tuple[Iterator[str], Iterator[str]]:
    """Two readers of parts, for a second reader that takes each part just after the first.

    The second ends where the first did. Unlike ``itertools.tee``, which
    keeps the parts it hands out in blocks of 57, only the part that the
    second reader has not yet taken is held.
    """
    held: list[str] = []

    def first() -> Iterator[str]:
        for part in parts:
            held.append(part)
            yield part

    def second() -> Iterator[str]:
        while held:
            yield held.pop()

    return first(), second()


def _render(
    fmt: GraphFormat, g: CollaborationGraph, quoted: Sequence[str], nodes: Iterable[str]
) -> Iterator[str]:
    """g as fmt's text in parts: the head, the node chunks, the edge lines in chunks, the tail.

    The edge lines are made as they are read, in g's edge (id-pair) order.
    """
    head = fmt.head.format(fmt.quote_id(g.window))
    return chain((head,), nodes, _chunks(fmt.edges(quoted, g.ends(g.edges))), (fmt.tail,))


def _quoted(
    names: Iterable[str], ids: Sequence[str], firms: Sequence[str]
) -> list[tuple[str, GraphFormat, list[str], dict[str, str]]]:
    """The graph formats called names, each with the id table and its firms quoted by it once.

    The formats share one table of quoted ids: a format that quotes an id as
    the first format did keeps the first one's string, so it holds only its
    own references and the ids it quotes otherwise.
    """
    formats = []
    first: list[str] | None = None
    for name in names:
        fmt = GRAPH_FORMATS[name]
        quoted = map(fmt.quote_id, ids)
        if first is None:
            quoted = first = list(quoted)
        else:  # each new string is freed at once unless it differs from the first's
            quoted = [s if s == q else q for s, q in zip(first, quoted)]
        formats.append((name, fmt, quoted, {firm: fmt.quote_firm(firm) for firm in set(firms)}))
    return formats


def export_graph(g: CollaborationGraph, fmt: str) -> str:
    """g alone as the text of the graph format named fmt, a key of GRAPH_FORMATS."""
    [(_, f, quoted, firms)] = _quoted([fmt], g.ids, g.firms)
    return "".join(_render(f, g, quoted, _node_chunks(f, g, quoted, firms)))


def write_together(paths: Sequence[Path], rows: Iterable[Sequence[str]]) -> None:
    """Write several files as UTF-8 in one pass: each row holds the next part of each path.

    Part i of a row goes to paths[i] as one write, as the row comes; an
    empty part writes nothing.
    """
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", encoding="utf-8")) for path in paths]
        for row in rows:
            for f, part in zip(files, row):
                if part:
                    f.write(part)


def write_parts(path: Path, parts: Iterable[str]) -> None:
    """Write the concatenated parts to path as UTF-8, one write per part as it comes."""
    write_together([path], zip(parts))


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# pipeline

class ConfigError(InputError):
    """Bad run configuration (not a per-module load error)."""


class _RunFields(NamedTuple):
    commit_log: Path
    releases: Path
    affiliations: Path
    out_dir: Path
    firms: Path | None = None
    revenue_models: Path | None = None
    backbone: BackboneParams = BackboneParams()
    community_min_size: int = 3
    formats: frozenset[str] = frozenset(FORMATS)


class RunConfig(_RunFields):
    """One run's inputs and settings, checked whenever one is made, by ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.formats, (set, frozenset)):
            raise ConfigError(
                f"formats must be a set of format names, not {type(self.formats).__name__}"
            )
        if not self.formats:
            raise ConfigError("format set must be non-empty")
        unknown = self.formats.difference(FORMATS)
        if unknown:
            raise ConfigError(f"unknown formats: {sorted(unknown)}")
        if self.community_min_size < 1:
            raise ConfigError(f"community minimum size {self.community_min_size} is below 1")
        # a run replaces the whole output directory, so no input may lie inside it
        out_dir = Path(self.out_dir).resolve()
        inputs = [self.commit_log, self.releases, self.affiliations, self.firms, self.revenue_models]
        for path in inputs:
            if path is not None and Path(path).resolve().is_relative_to(out_dir):
                raise ConfigError(
                    f"output directory must be distinct from input paths and not contain "
                    f"them: {path}"
                )
        return self

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})


class RunResult(NamedTuple):
    files_written: list[Path]
    summary: dict


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_-]", "_", name)


def _read_config(path: Path) -> str:
    """A config file's text; a leading byte-order mark, as Notepad writes one, is dropped."""
    return Path(path).read_text(encoding="utf-8-sig")


def _load_firm_filter(text: str) -> frozenset[str]:
    # read_text has turned \r\n and \r into \n, so lines end as open() ends them
    firms = frozenset(line.split("#", 1)[0].strip() for line in text.split("\n")) - {""}
    if not firms:
        raise ConfigError("firm filter file lists no firms")
    return firms


def _is_written_by_run(entry: Path) -> bool:
    mode = entry.lstat().st_mode
    if entry.name in TABLE_FILES:
        return stat.S_ISREG(mode)
    if entry.name in GRAPH_DIRS and stat.S_ISDIR(mode):
        return all(
            f.suffix in GRAPH_SUFFIXES and stat.S_ISREG(f.lstat().st_mode) for f in entry.iterdir()
        )
    return False


def _check_replaceable(out_dir: Path) -> None:
    """Refuse an existing output path holding anything a run does not write.

    A successful run replaces the whole directory, so this is checked
    before any work, and nothing of the user's is deleted. So is a path
    that runs through a file, which no run could make.
    """
    if not os.path.lexists(out_dir):
        ancestor = next(p for p in out_dir.parents if os.path.lexists(p))
        if not ancestor.is_dir():
            raise ConfigError(f"output path {out_dir} runs through {ancestor}, not a directory")
        return
    if not out_dir.is_dir():
        raise ConfigError(f"output path {out_dir} exists and is not a directory")
    foreign = sorted(e.name for e in out_dir.iterdir() if not _is_written_by_run(e))
    if foreign:
        raise ConfigError(
            f"output directory {out_dir} holds files coopnet does not write, which a run "
            f"would delete: {', '.join(foreign[:5])}"
        )


@contextmanager
def _replacing(out_dir: Path) -> Iterator[Path]:
    """Yield an empty staging directory that replaces out_dir if the block succeeds.

    Staging lives in a ``.NAME.*`` sibling, on out_dir's filesystem, so the
    swap is two renames. On any exception the sibling is removed and out_dir
    is left untouched. A run killed mid-swap leaves the old tree in the
    sibling.
    """
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    sibling = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
    staging, old = sibling / "new", sibling / "old"
    try:
        # mkdtemp makes a private directory; the staged tree takes the usual
        # permissions, as a directory made by mkdir does
        staging.mkdir()
        yield staging
        if os.path.lexists(out_dir):
            os.replace(out_dir, old)
        try:
            os.replace(staging, out_dir)
        except BaseException:
            if os.path.lexists(old):
                os.replace(old, out_dir)
            raise
    except BaseException:
        # an old tree that could not be put back stays in the sibling
        if not os.path.lexists(old):
            shutil.rmtree(sibling, ignore_errors=True)
        raise
    shutil.rmtree(sibling)


def _read_and_fold(cfg: RunConfig) -> tuple:
    """Read the inputs, in order, and fold the log into one builder per release window."""
    # open the log first, so a missing log is reported before the other inputs
    with open(cfg.commit_log, encoding="utf-8") as log:
        windows = load_releases(_read_config(cfg.releases))
        resolver = IdentityResolver(load_affiliation_map(_read_config(cfg.affiliations)))
        firm_filter = _load_firm_filter(_read_config(cfg.firms)) if cfg.firms else None
        revenue_text = _read_config(cfg.revenue_models) if cfg.revenue_models else None
        # One pass over the log: identity before release, so a post-release
        # commit still fails the run on an alias-group conflict. Each record
        # is logged in its window's builder and dropped.
        report = ValidationReport()
        builders = {w.name: WindowBuilder(resolver.firms, firm_filter) for w in windows}
        excluded_shas: list[str] = []
        post_release = 0
        # each UTC date is looked up once: its window's builder's add, or None past the last release
        add_of_day: dict[date, Callable | None] = {}
        resolve = resolver.resolve
        for record in iter_commits(log, report):
            dev = resolve(record.author_email)
            if dev is None:
                excluded_shas.append(record.sha)
                continue
            day = record.timestamp.date()  # timestamps are UTC
            try:
                add = add_of_day[day]
            except KeyError:
                label = assign_release(day, windows)
                add = add_of_day[day] = None if label == POST_RELEASE else builders[label].add
            if add is None:
                post_release += 1
            else:
                add(dev, record.files)

    if firm_filter is not None:
        universe = set(firm_filter)
    else:
        universe = set(resolver.firms) - {UNAFFILIATED}
    streams = load_revenue_models(revenue_text, universe) if revenue_text is not None else []
    # the run's id table: node u is ids[u], so int order is id order, its firm is
    # firms[u], and developer d of the log pass is node rank[d]
    table = id_table(resolver.canonical_ids, resolver.firms)
    return (report, excluded_shas, post_release), universe, streams, table, builders


def _build_and_merge(table: tuple, builders: dict[str, WindowBuilder]) -> tuple:
    """Each window's graph over the id table, in release order, and their merged graph."""
    window_graphs = [builder.graph(name, *table) for name, builder in builders.items()]
    return window_graphs, merge_graphs(window_graphs, MERGED_LABEL)


def _analyze_graph(
    cfg: RunConfig, streams: list[RevenueStream], universe: set[str], graph_formats: list,
    write: Callable, g: CollaborationGraph, scope: str, release: str, stem: str,
) -> tuple[FirmMixing, list[tuple], dict, tuple]:
    """g's firm mixing, comparison rows, communities and evolution row.

    They are returned once g and its backbone are written as stem, side by
    side, so that each node chunk is made once and written to both files.
    """
    mixing = firm_mixing(g)
    comparisons = [(scope, release, *compare_revenue_stream(mixing, s, universe)) for s in streams]
    bb = extract_backbone(g, cfg.backbone)
    communities = detect_subcommunities(bb, cfg.community_min_size)
    for name, fmt, quoted, quoted_firms in graph_formats:
        # the backbone shares g's nodes, so it shares g's node lines: the two
        # files are written in step, each row g's part first
        g_nodes, bb_nodes = _in_step(_node_chunks(fmt, g, quoted, quoted_firms))
        write([f"graphs/{stem}.{name}", f"backbones/{stem}.{name}"], zip_longest(
            _render(fmt, g, quoted, g_nodes), _render(fmt, bb, quoted, bb_nodes), fillvalue=""
        ))
    return mixing, comparisons, {
        "release": g.window,
        "communities": [
            {"members": sorted(g.ids[m] for m in c.members), "firms": c.firms}
            for c in communities
        ],
        "firm_overlap": firm_overlap(communities),
    }, (g.window, g.node_count, g.edge_count, density(g))


def _analyze_windows(analyze: Callable, window_graphs: list[CollaborationGraph]) -> list:
    """Each window graph's analysis, in release order.

    Each graph is taken out of window_graphs, and so released, once its
    files and rows are made.
    """
    analyses = []
    for i in range(1, len(window_graphs) + 1):
        g = window_graphs.pop(0)
        analyses.append(analyze(g, "window", g.window, f"{i:02d}_{_slug(g.window)}"))
    return analyses


def _write_tables(
    cfg: RunConfig, write: Callable, tally: tuple, universe: set[str], merged: CollaborationGraph,
    builders: dict[str, WindowBuilder], analyses: list,
) -> dict:
    """Write the selected formats' tables from each graph's analysis, and return the run summary."""
    report, excluded_shas, post_release = tally
    evolution_rows, homophily_rows = [], []
    for mix, _, _, row in analyses[:-1]:  # analyses ends with the merged graph's
        evolution_rows.append(row)
        homophily_rows.append((row[0], same_firm_edge_fraction(mix), firm_assortativity(mix)))
    if "csv" in cfg.formats:
        write("evolution.csv", [evolution_csv(evolution_rows)])
        write("homophily.csv", [homophily_csv(homophily_rows)])
        comparison_rows = [row for _, rows, _, _ in analyses for row in rows]
        write("comparisons.csv", [comparisons_csv(comparison_rows)])

    params = cfg.backbone._asdict()  # max_rank_k and min_embeddedness
    summary = {
        "commits": {
            "accepted": report.accepted,
            "rejected": len(report.rejected),
            "excluded": len(excluded_shas),
            "post_release": post_release,
            "analyzed": sum(b.commits for b in builders.values()),
        },
        "excluded_shas": sorted(excluded_shas),
        "identities": len(merged.ids),  # the run's id table
        "firms": sorted(universe),
        "windows": [
            {"release": r, "commits": builders[r].commits, "nodes": n, "edges": e, "density": d}
            for r, n, e, d in evolution_rows
        ],
        "merged": {
            "nodes": merged.node_count,
            "edges": merged.edge_count,
            "density": density(merged),
        },
        "backbone": {**params, "community_min_size": cfg.community_min_size},
        "time_field": TIME_FIELD,
        "formats": sorted(cfg.formats),
    }

    if "json" in cfg.formats:
        write("communities.json", [_json_text(
            {"min_size": cfg.community_min_size, "params": params,
             "windows": [p for _, _, p, _ in analyses]}
        )])
        # json writes tuples as arrays
        write("validation_report.json", [_json_text(
            {"accepted": report.accepted, "rejected": report.rejected, "cleaned": report.cleaned}
        )])
        write("run_summary.json", [_json_text(summary)])
    return summary


def run_pipeline(cfg: RunConfig) -> RunResult:
    """Run the full analysis and write all artifacts under cfg.out_dir.

    The run is four stages, each returning only what the later ones read:
    _read_and_fold, _build_and_merge, _analyze_graph on each graph, and
    _write_tables. Raises the originating module's error on bad inputs
    (the CLI maps these to exit codes). Each artifact is written as soon
    as it is rendered, into a staging directory that replaces cfg.out_dir
    only when the whole run succeeds; on any error cfg.out_dir is left as
    it was. An existing cfg.out_dir holding anything a run does not write
    is refused with ConfigError before any work.
    """
    out_dir = Path(cfg.out_dir).resolve()
    _check_replaceable(out_dir)
    tally, universe, streams, table, builders = _read_and_fold(cfg)
    window_graphs, merged = _build_and_merge(table, builders)
    del table

    with _replacing(out_dir) as staging:
        written: list[str] = []

        def target(rel_path: str) -> Path:
            path = staging / rel_path
            path.parent.mkdir(exist_ok=True)
            written.append(rel_path)
            return path

        def write(rel_path: str, parts: Iterable[str]) -> None:
            write_parts(target(rel_path), parts)

        def write_graphs(rel_paths: list[str], rows: Iterable[Sequence[str]]) -> None:
            write_together([target(p) for p in rel_paths], rows)

        # quoted once for the run: the id table holds every node of every graph
        graph_formats = _quoted(
            [name for name in GRAPH_FORMATS if name in cfg.formats], merged.ids, merged.firms
        )
        analyze = partial(_analyze_graph, cfg, streams, universe, graph_formats, write_graphs)
        analyses = _analyze_windows(analyze, window_graphs)
        # merged last in every table; scope is passed, as a release may itself be named "merged"
        analyses.append(analyze(merged, MERGED_LABEL, "all", MERGED_LABEL))
        summary = _write_tables(cfg, write, tally, universe, merged, builders, analyses)

    files_written = [Path(cfg.out_dir) / rel_path for rel_path in sorted(written)]
    return RunResult(files_written=files_written, summary=summary)
