"""Tests of the benchmark itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench -q``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("name", ["dense-core", "firm-mix"])
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, name):
    first = workloads.generate(name, 7, tmp_path / "a")
    second = workloads.generate(name, 7, tmp_path / "b")
    workloads.generate(name, 8, tmp_path / "c")
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    assert first.expected == second.expected
    assert (tmp_path / "a" / "commits.ndjson").read_bytes() != (
        tmp_path / "c" / "commits.ndjson"
    ).read_bytes()


def test_generator_script_prints_the_workload(tmp_path):
    import subprocess
    import sys

    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "workloads.py"), "dense-core", "7", str(tmp_path / "a")],
        stdout=subprocess.PIPE, check=True, timeout=120,
    )
    printed = workloads.Workload(**json.loads(done.stdout))
    direct = workloads.generate("dense-core", 7, tmp_path / "b")
    assert printed.expected == direct.expected
    assert printed.pairs_enumerated == direct.pairs_enumerated
    assert printed.args[0] == "--log" and Path(printed.args[1]).parent == tmp_path / "a"
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")


def test_generated_log_has_unique_shas_and_whole_second_utc_stamps(tmp_path):
    workloads.generate("dense-core", 3, tmp_path)
    records = [json.loads(line) for line in (tmp_path / "commits.ndjson").read_text().splitlines()]
    shas = [r["sha"] for r in records]
    assert len(shas) == len(set(shas))
    assert all(len(r["timestamp"]) == 20 and r["timestamp"].endswith("Z") for r in records)


def test_expected_summary_matches_the_program(tmp_path):
    from coopnet.report import RunConfig, run_pipeline

    generated = workloads.generate("firm-mix", 5, tmp_path / "in")
    options = dict(zip(generated.args[::2], generated.args[1::2]))
    result = run_pipeline(
        RunConfig(
            commit_log=Path(options["--log"]),
            releases=Path(options["--releases"]),
            affiliations=Path(options["--affiliations"]),
            firms=Path(options["--firms"]),
            revenue_models=Path(options["--revenue-models"]),
            formats=frozenset(options["--formats"].split(",")),
            out_dir=tmp_path / "out",
        )
    )
    assert workloads.summary_mismatches(result.summary, generated.expected) == []


def test_wrappers_record_spans_and_are_removed(tmp_path):
    import pathlib

    from coopnet import backbone, graph, report
    from coopnet.report import RunConfig

    originals = {
        "run_pipeline": report.run_pipeline,
        "extract_backbone": report.extract_backbone,
        "edge_embeddedness": backbone.edge_embeddedness,
        "neighbors": graph.CollaborationGraph.__dict__["neighbors"],
        "write_text": pathlib.Path.__dict__["write_text"],
    }
    fixture = ROOT / "tests" / "data" / "fixture"
    t = tracer.Tracer()
    t.install()
    try:
        assert report.run_pipeline is not originals["run_pipeline"]
        report.run_pipeline(
            RunConfig(
                commit_log=fixture / "commits.ndjson",
                releases=fixture / "releases.csv",
                affiliations=fixture / "affiliations.ini",
                out_dir=tmp_path / "out",
            )
        )
    finally:
        t.restore()
    assert report.run_pipeline is originals["run_pipeline"]
    assert report.extract_backbone is originals["extract_backbone"]
    assert backbone.edge_embeddedness is originals["edge_embeddedness"]
    assert graph.CollaborationGraph.__dict__["neighbors"] is originals["neighbors"]
    assert pathlib.Path.__dict__["write_text"] is originals["write_text"]
    assert t.absent == []

    totals = tracer.summarize(t.spans)
    assert totals["coopnet.report.run_pipeline"]["calls"] == 1
    # per graph (3 releases + merged): two builds for the backbone, one for communities
    assert totals["coopnet.graph.CollaborationGraph.neighbors"]["calls"] == 3 * 4
    root = t.spans[0]
    assert root[0] == "coopnet.report.run_pipeline" and root[3] == -1
    assert all(span[3] >= 0 for span in t.spans[1:])


def test_missing_target_is_absent_not_an_error():
    t = tracer.Tracer(
        targets=(
            ("coopnet.report", "no_such_function", None),
            ("coopnet.graph", "NoSuchClass.neighbors", None),
            ("coopnet.no_such_module", "anything", None),
        )
    )
    t.install()
    t.restore()
    assert len(t.absent) == 3


def test_self_time_excludes_child_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("child", 1.0, 3.0, 0),
        ("child", 4.0, 5.0, 0),
        ("grandchild", 1.5, 2.5, 1),
    ]
    totals = tracer.summarize(spans)
    assert totals["root"] == {"calls": 1, "total_s": 10.0, "self_s": 7.0}
    assert totals["child"] == {"calls": 2, "total_s": 3.0, "self_s": 2.0}
    assert totals["grandchild"]["self_s"] == 1.0


def test_digest_check_flags_a_one_byte_change(tmp_path):
    (tmp_path / "graphs").mkdir()
    (tmp_path / "graphs" / "a.dot").write_text("graph {}\n")
    (tmp_path / "run_summary.json").write_text("{}\n")
    recorded = run.tree_digests(tmp_path)
    assert run.compare_digests(run.tree_digests(tmp_path), recorded) == ([], [])

    (tmp_path / "graphs" / "a.dot").write_text("graph {}\r")
    (tmp_path / "diagnostics.json").write_text("{}\n")
    problems, extra = run.compare_digests(run.tree_digests(tmp_path), recorded)
    assert problems == ["graphs/a.dot: content differs"]
    assert extra == ["diagnostics.json"]


def test_recorded_digests_cover_every_workload():
    recorded = json.loads(run.DIGESTS.read_text())
    assert sorted(recorded) == sorted(workloads.WORKLOADS)
    assert all("run_summary.json" in files for files in recorded.values())


def test_benchmark_spec_lists_every_metric_the_benchmark_reports():
    spec = json.loads(run.SPEC_FILE.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["command"] == ["python3", "bench/run.py"]
    per_layer = {m["name"] for m in spec["per_layer"]}
    layer_times = {name for names in run.LAYER_TIMES.values() for name in names}
    assert layer_times <= per_layer
    assert {m["name"] for m in spec["end_to_end"]} <= {
        "wall_s", "commits_per_s", "peak_rss_mib", "setup_s",
    }


def test_traced_cli_output_equals_golden_and_yields_every_layer_metric(tmp_path):
    import os
    import subprocess
    import sys

    fixture = ROOT / "tests" / "data" / "fixture"
    out = tmp_path / "out"
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(spans), "analyze",
         "--log", str(fixture / "commits.ndjson"),
         "--releases", str(fixture / "releases.csv"),
         "--affiliations", str(fixture / "affiliations.ini"),
         "--firms", str(fixture / "firms.txt"),
         "--revenue-models", str(fixture / "revenue.csv"),
         "--out", str(out)],
        env=env, check=True, capture_output=True, timeout=60,
    )
    golden = run.tree_digests(ROOT / "tests" / "data" / "golden")
    assert run.tree_digests(out) == golden

    generated = workloads.Workload(args=[], expected={}, pairs_enumerated=10)
    metrics = run.layer_metrics(spans, out, generated)
    spec = json.loads(run.SPEC_FILE.read_text())
    assert set(metrics) | {"trace.overhead_s"} == {m["name"] for m in spec["per_layer"]}
    assert metrics["ingest.lines"] == 26
    assert metrics["identity.alias_groups"] == 1
    assert metrics["report.files_written"] == len(golden)
    assert metrics["coopetition.compare_calls"] == 2 * 4  # 2 streams, 3 releases + merged
    assert metrics["report.self_s"] > 0
