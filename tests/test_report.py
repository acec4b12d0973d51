import gc
import json
import os
import random
import shutil
import weakref
from collections import Counter
from datetime import date, datetime, timedelta, timezone
from itertools import combinations
from pathlib import Path
from xml.dom import minidom
from xml.sax import saxutils

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    FIXTURE_DIR,
    GOLDEN_DIR,
    StrGraph,
    analyze_args,
    as_strings,
    make_graph,
    parse_commit_log,
    read_graphml,
    run_cli,
)
from coopnet import report
from coopnet.backbone import BackboneParams, extract_backbone
from coopnet.graph import WindowBuilder
from coopnet.identity import IdentityResolver
from coopnet.report import (
    ConfigError,
    RunConfig,
    comparisons_csv,
    evolution_csv,
    export_graph,
    export_metrics_csv,
    format_real,
    homophily_csv,
    run_pipeline,
)
from coopnet.slicing import POST_RELEASE, assign_release, load_releases


def run_config(tmp_path, **overrides):
    defaults = dict(
        commit_log=FIXTURE_DIR / "commits.ndjson",
        releases=FIXTURE_DIR / "releases.csv",
        affiliations=FIXTURE_DIR / "affiliations.ini",
        firms=FIXTURE_DIR / "firms.txt",
        revenue_models=FIXTURE_DIR / "revenue.csv",
        out_dir=tmp_path / "out",
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def tree(root: Path) -> dict[str, bytes | None]:
    """Every path under root, with file contents (None for a directory)."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
        for p in root.rglob("*")
    }


def siblings(tmp_path) -> list[Path]:
    return sorted(tmp_path.glob(".out.*"))


def test_format_real():
    assert format_real(None) == "UND"
    assert format_real(1.0) == "1.000000"
    assert format_real(0.32) == "0.320000"


def test_csv_serializes_undefined_as_UND():
    text = comparisons_csv([("window", "r1", "s", 0, None, 0, None)])
    assert text.splitlines()[1] == "window,r1,s,0,UND,0,UND"


def test_csv_quoting():
    text = export_metrics_csv(["a", "b"], [["x,y", 'he said "hi"']])
    assert text.splitlines()[1] == '"x,y","he said ""hi"""'


def test_evolution_and_homophily_headers():
    assert evolution_csv([]).startswith("release,nodes,edges,density\n")
    assert homophily_csv([]).startswith("release,same_firm_fraction,assortativity\n")
    row = evolution_csv([("r", 3, 3, 1.0)]).splitlines()[1]
    assert row == "r,3,3,1.000000"


def test_graphml_single_node():
    g = make_graph({"dev@hp.example": "HP"}, window="r1")
    text = export_graph(g, "graphml")
    assert 'edgedefault="undirected"' in text
    assert '<data key="firm">HP</data>' in text
    assert text.count("<node") == 1


def test_graphml_roundtrip():
    g = make_graph(
        {"a&b@x.example": "H&P", "c@x.example": "IBM", "d@x.example": "IBM"},
        [("a&b@x.example", "c@x.example"), ("c@x.example", "d@x.example")],
        window="r<1>",
    )
    assert read_graphml(export_graph(g, "graphml")) == as_strings(g)


# text mixing every character the XML quoting treats specially with plain,
# space and non-ASCII ones
xml_text = st.text(st.sampled_from("&<>\"'\n\r\t a\u00e9\u4e2d\U0001f600;#"))


@given(xml_text)
def test_xml_quoting_matches_saxutils(text):
    assert report.escape(text) == saxutils.escape(text)
    assert report.quoteattr(text) == saxutils.quoteattr(text)


def test_graphml_deterministic():
    g = make_graph({"b": "X", "a": "Y"}, [("a", "b")])
    assert export_graph(g, "graphml") == export_graph(g, "graphml")


def test_dot_empty_graph():
    assert export_graph(make_graph({}, window="G"), "dot") == 'graph "G" {\n}\n'


def test_dot_single_edge():
    g = make_graph({"a": "HP", "b": "IBM"}, [("a", "b")])
    text = export_graph(g, "dot")
    assert '"a" -- "b";' in text
    assert '"a" [firm="HP"];' in text


def test_dot_escapes_ids_repeated_across_edges():
    # every id ends two edges, so each quoted form is reused
    ids = ['a"q', "b\\s", "c"]
    g = make_graph(dict(zip(ids, ["H\\P", "IBM", "IBM"])), combinations(ids, 2), window='w"1')
    lines = [
        r'graph "w\"1" {',
        r'  "a\"q" [firm="H\\P"];',
        r'  "b\\s" [firm="IBM"];',
        r'  "c" [firm="IBM"];',
        r'  "a\"q" -- "b\\s";',
        r'  "a\"q" -- "c";',
        r'  "b\\s" -- "c";',
        "}",
    ]
    assert export_graph(g, "dot") == "\n".join(lines) + "\n"


def test_run_config_validation(tmp_path):
    with pytest.raises(ConfigError, match="non-empty"):
        run_config(tmp_path, formats=frozenset())
    with pytest.raises(ConfigError, match="unknown formats"):
        run_config(tmp_path, formats=frozenset({"svg"}))
    log = FIXTURE_DIR / "commits.ndjson"
    with pytest.raises(ConfigError, match="distinct"):
        run_config(tmp_path, out_dir=log)


@pytest.mark.parametrize("change, message", [
    ({"formats": frozenset()}, "non-empty"),
    ({"formats": frozenset({"svg"})}, "unknown formats"),
    ({"community_min_size": 0}, "community minimum size 0 is below 1"),
    ({"out_dir": FIXTURE_DIR}, "distinct"),
])
def test_replaced_run_config_is_checked_again(tmp_path, change, message):
    cfg = run_config(tmp_path)
    assert cfg._replace(community_min_size=4) == run_config(tmp_path, community_min_size=4)
    with pytest.raises(ConfigError, match=message):
        cfg._replace(**change)


@pytest.mark.parametrize("formats", [["csv"], ("csv", "json"), "csv"])
def test_run_config_rejects_formats_that_are_not_a_set(tmp_path, formats):
    with pytest.raises(ConfigError, match="formats must be a set of format names"):
        run_config(tmp_path, formats=formats)


@pytest.mark.parametrize("size", [0, -2])
def test_run_config_rejects_community_min_size_below_1(tmp_path, size):
    with pytest.raises(ConfigError, match="community minimum size .* below 1"):
        run_config(tmp_path, community_min_size=size)


def test_pipeline_min_size_1_communities_partition_each_graph(tmp_path):
    run_pipeline(run_config(tmp_path, community_min_size=1))
    out = tmp_path / "out"
    payloads = json.loads((out / "communities.json").read_text())["windows"]
    graphs = sorted((out / "graphs").glob("*.graphml"))  # the windows in order, then merged
    assert len(payloads) == len(graphs) == 4
    for payload, path in zip(payloads, graphs):
        g = read_graphml(path.read_text(encoding="utf-8"))
        assert payload["release"] == g.window
        members = [m for c in payload["communities"] for m in c["members"]]
        assert len(members) == len(set(members))  # disjoint
        assert set(members) == g.firms.keys()  # covering
        # every fixture graph has developers without a backbone edge
        assert any(len(c["members"]) == 1 for c in payload["communities"])


def test_pipeline_missing_input_raises_oserror(tmp_path):
    cfg = run_config(tmp_path, releases=tmp_path / "missing.csv")
    with pytest.raises(OSError):
        run_pipeline(cfg)
    assert not (tmp_path / "out").exists()


# the order in which a run reads its inputs, so the first missing one is the one reported
INPUT_ORDER = ["commit_log", "releases", "affiliations", "firms", "revenue_models"]


@pytest.mark.parametrize("first_missing", range(len(INPUT_ORDER)))
def test_inputs_are_read_in_order(tmp_path, first_missing):
    missing = {field: tmp_path / f"missing-{field}" for field in INPUT_ORDER[first_missing:]}
    with pytest.raises(FileNotFoundError) as caught:
        run_pipeline(run_config(tmp_path, **missing))
    assert caught.value.filename == str(missing[INPUT_ORDER[first_missing]])
    assert not (tmp_path / "out").exists() and siblings(tmp_path) == []


def test_log_pass_leaves_nothing_behind_at_the_first_write(tmp_path, monkeypatch):
    # by the first file written, the identity resolver has been freed by
    # reference counting alone (the cyclic collector is off for the run, so a
    # resolver in a reference cycle would still be alive) and every window's
    # touch log has been released
    resolvers, builders, first_write = [], [], []

    def tracked_resolver(amap):
        resolver = IdentityResolver(amap)
        resolvers.append(weakref.ref(resolver))
        return resolver

    def tracked_builder(firms, firm_filter):
        builders.append(WindowBuilder(firms, firm_filter))
        return builders[-1]

    write_together = report.write_together

    def checking(paths, rows):
        if not first_write:
            freed = [ref() is None for ref in resolvers]
            first_write.append((freed, [(b.log, b.tail, list(b.devs)) for b in builders]))
        write_together(paths, rows)

    monkeypatch.setattr(report, "IdentityResolver", tracked_resolver)
    monkeypatch.setattr(report, "WindowBuilder", tracked_builder)
    monkeypatch.setattr(report, "write_together", checking)
    gc.disable()
    try:
        run_pipeline(run_config(tmp_path))
    finally:
        gc.enable()
    [(freed, logs)] = first_write
    assert freed == [True]
    assert logs == [([], [], [])] * 3
    assert all(b.commits for b in builders)  # each window held commits before its log was freed


def test_window_graphs_are_released_before_the_merged_graph_is_written(tmp_path, monkeypatch):
    node_arrays, at_merged = [], []
    graph = WindowBuilder.graph

    def tracked(self, *args):
        g = graph(self, *args)
        node_arrays.append(weakref.ref(g.nodes))  # each window graph's own array
        return g

    write_together = report.write_together

    def checking(paths, rows):
        if paths[0].stem == report.MERGED_LABEL and not at_merged:
            gc.collect()
            at_merged.append([ref() is None for ref in node_arrays])
        write_together(paths, rows)

    monkeypatch.setattr(WindowBuilder, "graph", tracked)
    monkeypatch.setattr(report, "write_together", checking)
    run_pipeline(run_config(tmp_path))
    assert at_merged == [[True] * 3]


def test_firm_filter_lines_end_only_at_newlines(tmp_path):
    firms = tmp_path / "firms.txt"
    firms.write_bytes("Anvil\r\nBolt\r# comment\nCobalt\nAnn\u2028Co\n".encode())
    result = run_pipeline(run_config(tmp_path, firms=firms))
    assert result.summary["firms"] == sorted(["Anvil", "Bolt", "Cobalt", "Ann\u2028Co"])


def test_config_files_with_a_byte_order_mark_match_golden(tmp_path):
    # Notepad starts a UTF-8 file with a BOM; the commit log still rejects one per line
    configs = {}
    for option, name in [("releases", "releases.csv"), ("affiliations", "affiliations.ini"),
                         ("firms", "firms.txt"), ("revenue_models", "revenue.csv")]:
        configs[option] = tmp_path / name
        configs[option].write_bytes(b"\xef\xbb\xbf" + (FIXTURE_DIR / name).read_bytes())
    run_pipeline(run_config(tmp_path, **configs))
    assert tree(tmp_path / "out") == tree(GOLDEN_DIR)


@pytest.mark.parametrize("fmt, other", [("graphml", "dot"), ("dot", "graphml")])
def test_one_graph_format_alone_matches_golden(tmp_path, fmt, other):
    run_pipeline(run_config(tmp_path, formats=frozenset({fmt})))
    out = tmp_path / "out"
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob(f"*.{fmt}"))
    assert written == sorted(p.relative_to(GOLDEN_DIR).as_posix() for p in GOLDEN_DIR.rglob(f"*.{fmt}"))
    for rel_path in written:
        assert (out / rel_path).read_bytes() == (GOLDEN_DIR / rel_path).read_bytes()
    assert list(out.rglob(f"*.{other}")) == []


def test_pipeline_empty_log_succeeds(tmp_path):
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    result = run_pipeline(run_config(tmp_path, commit_log=empty))
    out = tmp_path / "out"
    evolution = (out / "evolution.csv").read_text().splitlines()
    assert evolution[0] == "release,nodes,edges,density"
    assert all(line.endswith(",0,0,UND") for line in evolution[1:])
    assert result.summary["commits"]["accepted"] == 0


def test_pipeline_formats_subset(tmp_path):
    run_pipeline(run_config(tmp_path, formats=frozenset({"csv"})))
    out = tmp_path / "out"
    assert (out / "evolution.csv").exists()
    assert not (out / "graphs").exists()
    assert not (out / "run_summary.json").exists()


def test_pipeline_without_optional_inputs(tmp_path):
    result = run_pipeline(run_config(tmp_path, firms=None, revenue_models=None))
    out = tmp_path / "out"
    comparisons = (out / "comparisons.csv").read_text().splitlines()
    assert comparisons == ["scope,release,stream,n_alpha,den_alpha,n_beta,den_beta"]
    # universe falls back to firms observed in the identity map
    assert result.summary["firms"] == ["Anvil", "Bolt", "Cobalt"]


def test_summary_cross_checks_against_written_tables(tmp_path):
    """Single source of truth: summary values equal the per-file values."""
    result = run_pipeline(run_config(tmp_path))
    out = tmp_path / "out"
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary == result.summary
    evolution = (out / "evolution.csv").read_text().splitlines()[1:]
    assert len(evolution) == len(summary["windows"])
    for line, window in zip(evolution, summary["windows"]):
        release, nodes, edges, dens = line.split(",")
        assert release == window["release"]
        assert int(nodes) == window["nodes"]
        assert int(edges) == window["edges"]
        if dens == "UND":
            assert window["density"] is None
        else:
            assert abs(float(dens) - window["density"]) < 5e-7
    report = json.loads((out / "validation_report.json").read_text())
    assert report["accepted"] == summary["commits"]["accepted"]
    assert len(report["rejected"]) == summary["commits"]["rejected"]


def test_graph_exports_roundtrip_from_pipeline(tmp_path):
    run_pipeline(run_config(tmp_path))
    out = tmp_path / "out"
    for path in sorted((out / "graphs").glob("*.graphml")):
        g = read_graphml(path.read_text())
        for u, v in g.edges:
            assert u in g.firms and v in g.firms


def test_pipeline_rolls_back_partial_outputs(tmp_path, monkeypatch):
    target = tmp_path / "out"
    cfg = run_config(tmp_path, out_dir=target)
    original_write = report.write_parts
    calls = {"n": 0}

    def failing_write(path, parts):
        calls["n"] += 1
        if calls["n"] > 3:
            raise OSError("disk full")
        return original_write(path, parts)

    monkeypatch.setattr(report, "write_parts", failing_write)
    with pytest.raises(OSError):
        run_pipeline(cfg)
    monkeypatch.undo()
    assert [p for p in target.rglob("*") if p.is_file()] == []


def test_release_named_merged_keeps_window_scope(tmp_path):
    releases = tmp_path / "releases.csv"
    releases.write_text((FIXTURE_DIR / "releases.csv").read_text().replace("quartz", "merged"))
    run_pipeline(run_config(tmp_path, releases=releases))
    out = tmp_path / "out"
    rows = [line.split(",") for line in (out / "comparisons.csv").read_text().splitlines()[1:]]
    assert {row[0] for row in rows if row[1] == "merged"} == {"window"}
    assert {row[1] for row in rows if row[0] == "merged"} == {"all"}
    assert (out / "graphs" / "03_merged.graphml").exists()
    assert (out / "graphs" / "merged.graphml").exists()


class _Tracked:
    """A record's fields that run_pipeline reads, in an object a weakref can follow.

    A CommitRecord is a tuple, which takes no weak reference.
    """

    __slots__ = ("sha", "author_email", "timestamp", "files", "__weakref__")

    def __init__(self, record):
        self.sha, self.author_email = record.sha, record.author_email
        self.timestamp, self.files = record.timestamp, record.files


def test_pipeline_holds_no_list_of_records(tmp_path, monkeypatch):
    original = report.iter_commits
    refs = []
    most_alive = 0

    def counting(stream, validation):
        nonlocal most_alive
        for record in original(stream, validation):
            tracked = _Tracked(record)
            refs.append(weakref.ref(tracked))
            most_alive = max(most_alive, sum(ref() is not None for ref in refs))
            yield tracked

    monkeypatch.setattr(report, "iter_commits", counting)
    result = run_pipeline(run_config(tmp_path))
    assert len(refs) == result.summary["commits"]["accepted"] > 2
    # the record being yielded and the one the pipeline's loop still names
    assert most_alive <= 2


@pytest.mark.parametrize("option, field, source", [
    ("log", "commit_log", "commits.ndjson"),
    ("firms", "firms", "firms.txt"),
])
@pytest.mark.parametrize("inside", [False, True])
def test_input_in_output_directory_is_exit_2(tmp_path, option, field, source, inside):
    out = tmp_path / "out"
    out.mkdir()
    path = out / source if inside else tmp_path / source
    shutil.copy(FIXTURE_DIR / source, path)
    out_dir = out if inside else path
    result = run_cli(analyze_args(tmp_path, **{option: path, "out": out_dir}))
    assert result.exit_code == 2, result.output
    assert "distinct" in result.output
    assert path.read_bytes() == (FIXTURE_DIR / source).read_bytes()
    with pytest.raises(ConfigError, match="distinct"):
        run_config(tmp_path, **{field: path, "out_dir": out_dir})


# the file each failing write hits: the first graph file, a later graph
# file, a backbone and run_summary.json
FAILED_FILE = {
    1: "graphs/01_onyx.graphml",
    9: "graphs/03_quartz.graphml",
    10: "backbones/03_quartz.graphml",
    22: "run_summary.json",
}


@pytest.mark.parametrize("first_run", [True, False])
@pytest.mark.parametrize("fail_at", sorted(FAILED_FILE))
def test_failed_write_leaves_previous_tree(tmp_path, monkeypatch, first_run, fail_at):
    out = tmp_path / "out"
    if not first_run:
        run_pipeline(run_config(tmp_path, formats=frozenset({"dot", "csv"})))
    before = tree(out) if out.exists() else None
    original_write = report.write_together
    calls = []

    def failing_write(paths, rows):
        # every file is written through write_together, a graph and its backbone in one call
        if len(calls) + len(paths) >= fail_at:
            calls.extend(paths[:fail_at - len(calls)])
            raise OSError("disk full")
        calls.extend(paths)
        return original_write(paths, rows)

    monkeypatch.setattr(report, "write_together", failing_write)
    with pytest.raises(OSError, match="disk full"):
        run_pipeline(run_config(tmp_path))
    monkeypatch.undo()
    assert len(calls) == fail_at
    assert calls[-1].as_posix().endswith(f"/new/{FAILED_FILE[fail_at]}")
    assert (tree(out) if out.exists() else None) == before
    assert siblings(tmp_path) == []


@pytest.mark.parametrize("restore_fails", [False, True])
def test_failed_swap_keeps_previous_tree(tmp_path, monkeypatch, restore_fails):
    out = tmp_path / "out"
    run_pipeline(run_config(tmp_path))
    before = tree(out)
    original_replace = os.replace
    failing = {"new", "old"} if restore_fails else {"new"}  # the staged tree, the moved-aside one

    def failing_replace(src, dst):
        if Path(src).name in failing:
            raise OSError("rename failed")
        return original_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        run_pipeline(run_config(tmp_path, formats=frozenset({"csv"})))
    monkeypatch.undo()
    if restore_fails:
        # nothing is deleted: the old tree stays in the sibling
        assert not out.exists()
        (sibling,) = siblings(tmp_path)
        assert tree(sibling / "old") == before
    else:
        assert tree(out) == before
        assert siblings(tmp_path) == []


def test_narrower_rerun_leaves_only_its_own_files(tmp_path):
    out = tmp_path / "out"
    run_pipeline(run_config(tmp_path))
    assert (out / "graphs").is_dir() and (out / "backbones").is_dir()
    result = run_pipeline(run_config(tmp_path, formats=frozenset({"csv", "json"})))
    assert sorted(tree(out)) == sorted(p.relative_to(out).as_posix() for p in result.files_written)
    assert [p.name for p in result.files_written] == sorted(report.TABLE_FILES)
    assert siblings(tmp_path) == []


@pytest.mark.parametrize("foreign", [
    "notes.txt", "graphs/notes.txt", "backbones/sub/x.dot", "data/evolution.csv",
])
def test_foreign_content_in_output_is_exit_2(tmp_path, monkeypatch, foreign):
    out = tmp_path / "out"
    run_pipeline(run_config(tmp_path))
    path = out / foreign
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("mine\n")
    before = tree(out)
    rendered = []
    monkeypatch.setattr(report, "_render", lambda fmt, g, *args: rendered.append(g) or "")
    result = run_cli(analyze_args(tmp_path))
    assert result.exit_code == 2, result.output
    assert "does not write" in result.output
    assert rendered == []  # refused before any work
    assert tree(out) == before
    assert siblings(tmp_path) == []


def test_symlink_in_output_is_refused(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (tmp_path / "mine.csv").write_text("mine\n")
    (out / "evolution.csv").symlink_to(tmp_path / "mine.csv")
    with pytest.raises(ConfigError, match="does not write"):
        run_pipeline(run_config(tmp_path))
    assert (out / "evolution.csv").read_text() == "mine\n"


def test_output_path_that_is_a_file_is_refused(tmp_path):
    (tmp_path / "out").write_text("mine\n")
    with pytest.raises(ConfigError, match="not a directory"):
        run_pipeline(run_config(tmp_path))
    assert (tmp_path / "out").read_text() == "mine\n"


def test_files_reach_disk_while_rendering(tmp_path, monkeypatch):
    original = report._render
    graphml = report.GRAPH_FORMATS["graphml"]
    on_disk = []

    def counting(fmt, *args):
        if fmt is graphml:
            (staging,) = siblings(tmp_path)
            on_disk.append(sum(p.is_file() for p in staging.rglob("*")))
        return original(fmt, *args)

    monkeypatch.setattr(report, "_render", counting)
    run_pipeline(run_config(tmp_path))
    assert len(on_disk) == 2 * 4  # graph and backbone, 3 releases + merged
    # a graph and its backbone are rendered together and written side by side
    graphs, backbones = on_disk[::2], on_disk[1::2]
    assert backbones == graphs
    assert all(a < b for a, b in zip(graphs, graphs[1:]))


def test_graph_files_written_in_chunks_equal_export(tmp_path, monkeypatch):
    # 100 developers of two firms on one file, a clique of 4,950 edges, beside
    # 5,000 developers alone on their own files: more edge lines, and more
    # node lines, than one chunk holds, in one release and the merged graph
    hub = [f"d{i:03d}@{'xy'[i % 2]}.example" for i in range(100)]
    alone = [f"s{i:04d}@x.example" for i in range(5000)]
    commits = [(email, "2021-01-10T09:00:00Z", ["hub.py"]) for email in hub]
    commits += [(email, "2021-01-10T09:00:00Z", [f"{email}.py"]) for email in alone]
    cfg = small_run_config(
        tmp_path, commits, "name,date\nr1,2021-03-01\n", "[domains]\nx.example = X\ny.example = Y\n"
    )
    entries_per_write = []

    def recording_open(*args, **kwargs):
        f = open(*args, **kwargs)
        write = f.write

        def counted(text):
            # a node or edge entry: a GraphML element, or a DOT statement
            entries = text.count("<node ") + text.count("<edge ") + text.count(";\n")
            entries_per_write.append(entries)
            return write(text)

        f.write = counted
        return f

    monkeypatch.setattr(report, "open", recording_open, raising=False)
    run_pipeline(cfg)
    assert max(entries_per_write) == report.CHUNK_PARTS  # no write holds more than one chunk
    firms = {email: email[5].upper() for email in hub} | dict.fromkeys(alone, "X")
    window = make_graph(firms, combinations(hub, 2), window="r1")
    assert window.edge_count == 4950 > report.CHUNK_PARTS
    assert window.node_count == 5100 > report.CHUNK_PARTS
    out = tmp_path / "out"
    for stem, g in (("01_r1", window), ("merged", window._replace(window="merged"))):
        backbone = extract_backbone(g, BackboneParams())
        for fmt in report.GRAPH_FORMATS:
            assert (out / "graphs" / f"{stem}.{fmt}").read_bytes() == export_graph(g, fmt).encode()
            assert (out / "backbones" / f"{stem}.{fmt}").read_bytes() == (
                export_graph(backbone, fmt).encode()
            )


@pytest.mark.parametrize("empty_chunks, lines", [(0, 0), (0, 1), (0, 9000), (1, 1), (2, 9000)])
def test_write_parts_writes_every_part(tmp_path, empty_chunks, lines):
    # whole chunks of empty parts must not end the file early
    parts = [""] * (report.CHUNK_PARTS * empty_chunks)
    parts += [f"line {i} \u00e9\n" for i in range(lines)] + [""]
    path = tmp_path / "f.txt"
    report.write_parts(path, iter(parts))
    assert path.read_bytes() == "".join(parts).encode("utf-8")


def write_log(path: Path, commits) -> Path:
    """An NDJSON log of (author email, timestamp, files) commits."""
    lines = [
        json.dumps({"sha": f"{i:040x}", "author_name": "Dev", "author_email": email,
                    "timestamp": timestamp, "files": list(files)})
        for i, (email, timestamp, files) in enumerate(commits, 1)
    ]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def small_run_config(tmp_path, commits, releases, affiliations):
    (tmp_path / "releases.csv").write_text(releases)
    (tmp_path / "affiliations.ini").write_text(affiliations)
    return run_config(
        tmp_path,
        commit_log=write_log(tmp_path / "commits.ndjson", commits),
        releases=tmp_path / "releases.csv",
        affiliations=tmp_path / "affiliations.ini",
        firms=None,
        revenue_models=None,
    )


# instants at the edges of UTC days; a release owns its whole UTC date
DAY_EDGES = [
    "2021-02-28T23:59:59.999999Z",
    "2021-03-01T00:00:00Z",
    "2021-03-01T23:59:59Z",
    "2021-03-01T23:59:59.999999Z",
    "2021-03-02T04:59:59+05:00",  # 2021-03-01T23:59:59Z
    "2021-03-02T04:59:59.999999+05:00",
    "2021-03-02T05:00:00+05:00",  # 2021-03-02T00:00:00Z
    "2021-03-01T18:59:59-05:00",  # 2021-03-01T23:59:59Z
    "2021-03-01T19:00:00-05:00",  # 2021-03-02T00:00:00Z
    "2021-03-02T00:00:00Z",
    "2021-03-02T23:59:59.999999Z",
    "2021-03-05T20:00:00-05:00",  # 2021-03-06T01:00:00Z, after the last release
    "2021-03-06T00:00:00Z",
]
DAY_EDGE_RELEASES = "name,date\na,2021-03-01\nb,2021-03-02\nc,2021-03-05\n"


def test_release_lookup_per_utc_date_matches_assign_release(tmp_path, monkeypatch):
    # every instant twice, by two developers, and once by a bot that is never looked up
    commits = [
        (email, t, ["f.py"])
        for t in DAY_EDGES
        for email in ("a@x.example", "b@x.example", "ci@x.example")
    ]
    cfg = small_run_config(
        tmp_path, commits, DAY_EDGE_RELEASES, "[domains]\nx.example = X\n[bots]\nci@x.example\n"
    )
    looked_up = []

    def counting(day, windows):
        looked_up.append(day)
        return assign_release(day, windows)

    monkeypatch.setattr(report, "assign_release", counting)
    result = run_pipeline(cfg)
    records, _ = parse_commit_log(cfg.commit_log.read_text(encoding="utf-8"))
    windows = load_releases(DAY_EDGE_RELEASES)
    kept = [r for r in records if r.author_email != "ci@x.example"]
    expected = Counter(assign_release(r.timestamp.date(), windows) for r in kept)
    commits_of = {w["release"]: w["commits"] for w in result.summary["windows"]}
    assert commits_of == {w.name: expected[w.name] for w in windows}
    assert result.summary["commits"]["post_release"] == expected[POST_RELEASE] == 4
    assert expected["a"] == 14 and expected["b"] == 8  # both sides of each day edge are hit
    # one lookup per distinct UTC date
    dates = Counter(looked_up)
    assert set(dates) == {r.timestamp.date() for r in kept}
    assert set(dates.values()) == {1}


FOLD_RELEASES = [("r1", date(2021, 3, 1)), ("r2", date(2021, 3, 10)), ("r3", date(2021, 3, 20))]


@pytest.mark.parametrize("firm_filter", [None, "A\nC\n"])
@pytest.mark.parametrize("seed", range(2))
def test_each_window_graph_is_the_cofile_graph_of_its_commits(tmp_path, seed, firm_filter):
    # commits in random time order, so consecutive records land in different windows
    rng = random.Random(seed)
    devs = [f"d{i:02d}@{'abcd'[i % 4]}.example" for i in range(16)] + ["zz@a.example"]
    files = [f"f{i}.py" for i in range(12)]
    start = datetime(2021, 2, 20, tzinfo=timezone.utc)
    commits = [
        (rng.choice(devs), (start + timedelta(minutes=rng.randrange(40 * 24 * 60))).isoformat(),
         rng.sample(files, rng.randint(1, 3)))
        for _ in range(150)
    ]
    cfg = small_run_config(
        tmp_path, commits, "name,date\n" + "".join(f"{n},{d}\n" for n, d in FOLD_RELEASES),
        "[domains]\na.example = A\nb.example = B\nc.example = C\nd.example = D\n"
        "[aliases]\nd00@a.example, zz@a.example\n",
    )
    if firm_filter is not None:
        (tmp_path / "firms.txt").write_text(firm_filter)
        cfg = cfg._replace(firms=tmp_path / "firms.txt")
    result = run_pipeline(cfg)

    # brute force: each record's window by date, then every pair of kept developers
    records, _ = parse_commit_log(cfg.commit_log.read_text(encoding="utf-8"))
    window_of = [next((n for n, d in FOLD_RELEASES if r.timestamp.date() <= d), None)
                 for r in records]
    assert window_of != sorted(window_of, key=lambda n: n or "~")  # not in time order
    kept_firms = {"A", "C"} if firm_filter else {"A", "B", "C", "D"}
    for i, (name, _) in enumerate(FOLD_RELEASES, 1):
        firms, files_of = {}, {}
        for r, window in zip(records, window_of):
            firm = r.author_email.split("@")[1][0].upper()
            if window == name and firm in kept_firms:
                dev = "d00@a.example" if r.author_email == "zz@a.example" else r.author_email
                firms[dev] = firm
                files_of.setdefault(dev, set()).update(r.files)
        edges = {(u, v) for u, v in combinations(sorted(files_of), 2) if files_of[u] & files_of[v]}
        text = (tmp_path / "out" / "graphs" / f"{i:02d}_{name}.graphml").read_text(encoding="utf-8")
        assert read_graphml(text) == StrGraph(name, firms, frozenset(edges))
        assert 0 < len(edges) < len(firms) * (len(firms) - 1) // 2
    # a window's commits include those of developers the firm filter drops
    commits_of = {w["release"]: w["commits"] for w in result.summary["windows"]}
    assert commits_of == {n: window_of.count(n) for n, _ in FOLD_RELEASES}
    assert result.summary["commits"]["post_release"] == window_of.count(None) > 0


# node ids and a firm name that every export format must escape
AWKWARD_EMAILS = ['q"uote@x.example', "amp&@x.example", "lt<@x.example", "back\\slash@x.example",
                  "plain@x.example"]


def awkward_run_config(tmp_path):
    # the developers share files in both releases, so an id is in up to three
    # graphs; the last one joins in the second release only
    commits = [
        (email, t, [f"{day}.py", "shared.py"])
        for day, t, emails in (("one", "2021-03-01T10:00:00Z", AWKWARD_EMAILS[:-1]),
                               ("two", "2021-03-02T10:00:00Z", AWKWARD_EMAILS))
        for email in emails
    ]
    return small_run_config(
        tmp_path, commits, "name,date\nr1,2021-03-01\nr2,2021-03-02\n",
        "[domains]\nx.example = H&P <x>\n",
    )


def test_each_graph_file_equals_its_export_alone(tmp_path, monkeypatch):
    rendered = {"graphml": [], "dot": []}
    name_of = {fmt: name for name, fmt in report.GRAPH_FORMATS.items()}
    original = report._render

    def recording(fmt, g, *args):
        rendered[name_of[fmt]].append(g)
        return original(fmt, g, *args)

    monkeypatch.setattr(report, "_render", recording)
    run_pipeline(awkward_run_config(tmp_path))
    out = tmp_path / "out"
    for fmt in rendered:
        names = sorted(p.name for p in (out / "graphs").glob(f"*.{fmt}"))
        assert names == [f"01_r1.{fmt}", f"02_r2.{fmt}", f"merged.{fmt}"]
        graphs = rendered[fmt]
        assert len(graphs) == 2 * len(names)  # a graph, then its backbone
        assert [g.node_count for g in graphs] == [4, 4, 5, 5, 5, 5]
        for name, g, bb in zip(names, graphs[::2], graphs[1::2]):
            assert bb.ids is g.ids and bb.firms is g.firms and bb.nodes is g.nodes
            assert (out / "graphs" / name).read_text(encoding="utf-8") == export_graph(g, fmt)
            assert (out / "backbones" / name).read_text(encoding="utf-8") == export_graph(bb, fmt)
    merged = read_graphml((out / "graphs" / "merged.graphml").read_text(encoding="utf-8"))
    assert merged.firms == dict.fromkeys(AWKWARD_EMAILS, "H&P <x>")


def test_export_quotes_each_id_and_firm_once_per_run(tmp_path, monkeypatch):
    calls = Counter()

    def counting(quote):
        def wrapper(text):
            calls[quote.__name__, text] += 1
            return quote(text)
        return wrapper

    for name, fmt in list(report.GRAPH_FORMATS.items()):
        monkeypatch.setitem(report.GRAPH_FORMATS, name, fmt._replace(
            quote_id=counting(fmt.quote_id), quote_firm=counting(fmt.quote_firm)
        ))
    run_pipeline(awkward_run_config(tmp_path))
    for quote in ("quoteattr", "_dot_quote"):
        assert all(calls[quote, email] == 1 for email in AWKWARD_EMAILS)
    assert calls["escape", "H&P <x>"] == calls["_dot_quote", "H&P <x>"] == 1


def test_every_graphml_file_parses_as_xml(tmp_path):
    # an author address holding a character XML 1.0 forbids is excluded, not made a node
    log = (FIXTURE_DIR / "commits.ndjson").read_text(encoding="utf-8")
    shas = {"\u0001": "e" * 40, "\ufffe": "e" * 39 + "f", "\uffff": "e" * 38 + "ff"}
    for char, sha in shas.items():
        log += json.dumps({"sha": sha, "author_name": "Ctl", "author_email": f"a{char}b@anvil.io",
                           "timestamp": "2021-01-12T09:00:00Z", "files": ["src/core.py"]}) + "\n"
    (tmp_path / "commits.ndjson").write_text(log, encoding="utf-8")
    result = run_pipeline(run_config(tmp_path, commit_log=tmp_path / "commits.ndjson"))
    assert set(shas.values()) <= set(result.summary["excluded_shas"])
    files = [p for p in result.files_written if p.suffix == ".graphml"]
    assert len(files) == 8
    for path in files:
        minidom.parseString(path.read_bytes())
