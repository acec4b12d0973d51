import json
import os
import random
import subprocess
import sys
from datetime import date, timedelta

import pytest

from conftest import FIXTURE_DIR, GOLDEN_DIR, analyze_args, run_cli
from coopnet import cli
from coopnet.ingest import RECORD_SENTINEL


def test_analyze_runs_fixture(tmp_path):
    result = run_cli(analyze_args(tmp_path))
    assert result.exit_code == 0, result.output
    assert (tmp_path / "out" / "evolution.csv").exists()
    assert "analyzed 22 commits" in result.output
    files = sum(p.is_file() for p in (tmp_path / "out").rglob("*"))
    assert result.stdout == (
        f"analyzed 22 commits across 3 releases; wrote {files} files to {tmp_path / 'out'}\n"
    )
    assert result.stderr == ""


def test_validate_prints_counts_rejections_and_fixes():
    result = run_cli(["validate", "--log", str(FIXTURE_DIR / "commits.ndjson")])
    assert result.exit_code == 0
    golden = json.loads((GOLDEN_DIR / "validation_report.json").read_text(encoding="utf-8"))
    assert golden["rejected"] and golden["cleaned"]
    expected = [
        f"accepted: {golden['accepted']}",
        f"rejected: {len(golden['rejected'])}",
        *(f"  line {n}: {reason}" for n, reason in golden["rejected"]),
        f"cleaned: {len(golden['cleaned'])}",
        *(f"  {sha[:12]}: {fix}" for sha, fix in golden["cleaned"]),
    ]
    assert result.stdout == "\n".join(expected) + "\n"


def test_analyze_excludes_an_email_holding_a_lone_surrogate(tmp_path):
    # the escape decodes to U+D800, which no UTF-8 output file could hold
    log = tmp_path / "commits.ndjson"
    log.write_text(
        (FIXTURE_DIR / "commits.ndjson").read_text(encoding="utf-8")
        + json.dumps({"sha": "e" * 40, "author_name": "S", "author_email": "x\ud800y@anvil.io",
                      "timestamp": "2021-01-12T09:00:00Z", "files": ["src/core.py"]}) + "\n",
        encoding="utf-8",
    )
    args = analyze_args(tmp_path)
    args[args.index("--log") + 1] = str(log)
    result = run_cli(args)
    assert result.exit_code == 0, result.output
    assert "analyzed 22 commits" in result.output
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text(encoding="utf-8"))
    assert "e" * 40 in summary["excluded_shas"]


def test_analyze_missing_releases_is_config_error(tmp_path):
    args = analyze_args(tmp_path)
    args[args.index("--releases") + 1] = str(tmp_path / "nope.csv")
    result = run_cli(args)
    assert result.exit_code == 2
    assert not (tmp_path / "out").exists()


def test_analyze_missing_log_is_reported_before_other_inputs(tmp_path):
    args = analyze_args(tmp_path)
    args[args.index("--log") + 1] = str(tmp_path / "nolog.ndjson")
    args[args.index("--releases") + 1] = str(tmp_path / "nope.csv")
    result = run_cli(args)
    assert result.exit_code == 2
    assert "nolog.ndjson" in result.output


@pytest.mark.parametrize("out", ["file/out", "file/a/out"])
@pytest.mark.parametrize("log", ["fixture", "missing"])
def test_analyze_out_through_a_file_is_exit_2_before_any_input_is_read(tmp_path, out, log):
    (tmp_path / "file").write_text("")
    args = analyze_args(tmp_path, out=tmp_path / out)
    if log == "missing":  # the output path is named, so the log was never opened
        args[args.index("--log") + 1] = str(tmp_path / "nolog.ndjson")
    result = run_cli(args)
    assert result.exit_code == 2, result.output
    root = tmp_path.resolve()
    assert result.stderr == (
        f"error: output path {root / out} runs through {root / 'file'}, not a directory\n"
    )
    assert result.stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["file"]  # no directory, no staging sibling


def test_analyze_bad_config_is_exit_2(tmp_path):
    bad = tmp_path / "bad_releases.csv"
    bad.write_text("name,date\nb,2020-01-01\na,2019-01-01\n")
    args = analyze_args(tmp_path)
    args[args.index("--releases") + 1] = str(bad)
    result = run_cli(args)
    assert result.exit_code == 2
    assert "ascending" in result.output


def test_analyze_non_utf8_input_is_exit_2(tmp_path):
    bad = tmp_path / "releases.csv"
    bad.write_bytes(b"name,date\n\xff,2021-01-01\n")
    args = analyze_args(tmp_path)
    args[args.index("--releases") + 1] = str(bad)
    result = run_cli(args)
    assert result.exit_code == 2


def test_analyze_alias_conflict_after_last_release_is_exit_2(tmp_path):
    # identity is resolved before the release, so a post-release commit still counts
    affiliations = tmp_path / "affiliations.ini"
    affiliations.write_text(
        (FIXTURE_DIR / "affiliations.ini").read_text() + "[aliases]\nx@anvil.io, x@bolt.io\n"
    )
    late = {
        "sha": "f" * 40,
        "author_name": "X",
        "author_email": "x@anvil.io",
        "timestamp": "2030-01-01T00:00:00Z",
        "files": ["src/core.py"],
    }
    log = tmp_path / "commits.ndjson"
    log.write_text((FIXTURE_DIR / "commits.ndjson").read_text() + json.dumps(late) + "\n")
    args = analyze_args(tmp_path)
    args[args.index("--log") + 1] = str(log)
    args[args.index("--affiliations") + 1] = str(affiliations)
    result = run_cli(args)
    assert result.exit_code == 2
    assert "multiple firms" in result.output
    assert not (tmp_path / "out").exists()


def test_analyze_bot_marker_as_firm_is_exit_2(tmp_path):
    out = tmp_path / "out"
    assert run_cli(analyze_args(tmp_path)).exit_code == 0
    before = {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")}
    affiliations = tmp_path / "affiliations.ini"
    affiliations.write_text(
        (FIXTURE_DIR / "affiliations.ini").read_text() + "[emails]\nd@anvil.io = <bot>\n"
    )
    result = run_cli(analyze_args(tmp_path, affiliations=affiliations))
    assert result.exit_code == 2, result.output
    assert "error: line 16: firm name <bot> is reserved\n" in result.output
    assert {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")} == before
    assert sorted(tmp_path.glob(".out.*")) == []


def test_analyze_firm_filter_of_only_comments_is_exit_2(tmp_path):
    out = tmp_path / "out"
    assert run_cli(analyze_args(tmp_path)).exit_code == 0
    before = {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")}
    firms = tmp_path / "firms.txt"
    firms.write_text("# no firm yet\n\n   \n\t# Anvil\n")
    result = run_cli(analyze_args(tmp_path, firms=firms))
    assert result.exit_code == 2
    assert "lists no firms" in result.output
    assert {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")} == before
    assert sorted(tmp_path.glob(".out.*")) == []  # no staging left behind


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        # csv refuses a NUL on Python 3.10 and keeps it from 3.11
        ("releases.csv", "pearl", "pe\0arl", "releases file holds a NUL character"),
        ("revenue.csv", "metalworks,Bolt", "metal\0works,Bolt",
         "revenue models file holds a NUL character"),
        # the post-release marker would take the window's commits
        ("releases.csv", "pearl", "post-release", "row 3: release name post-release is reserved"),
        # csv refuses a cell over its field size limit
        ("releases.csv", "pearl", "p" * 140_000, "row 3: field larger than field limit (131072)"),
        ("revenue.csv", "metalworks,Bolt", "m" * 140_000 + ",Bolt",
         "row 3: field larger than field limit (131072)"),
    ],
    ids=["nul-in-releases", "nul-in-revenue", "reserved-release-name", "long-field-in-releases",
         "long-field-in-revenue"],
)
def test_analyze_bad_csv_config_is_exit_2_and_keeps_out(tmp_path, name, old, new, message):
    out = tmp_path / "out"
    assert run_cli(analyze_args(tmp_path)).exit_code == 0
    before = {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")}
    bad = tmp_path / name
    bad.write_text((FIXTURE_DIR / name).read_text(encoding="utf-8").replace(old, new),
                   encoding="utf-8")
    option = {"releases.csv": "releases", "revenue.csv": "revenue_models"}[name]
    result = run_cli(analyze_args(tmp_path, **{option: bad}))
    assert result.exit_code == 2, result.output
    assert f"error: {message}\n" in result.output
    assert {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")} == before
    assert sorted(tmp_path.glob(".out.*")) == []


def without(args, option):
    """args with option and its value left out."""
    i = args.index(option)
    return args[:i] + args[i + 2:]


@pytest.mark.parametrize("args", [
    # an abbreviation is refused, not read as the option it starts
    lambda tmp: [a if a != "--releases" else "--rel" for a in analyze_args(tmp)],
    lambda tmp: [],
    lambda tmp: without(analyze_args(tmp), "--log"),
    lambda tmp: analyze_args(tmp) + ["--bogus", "1"],
    lambda tmp: analyze_args(tmp, community_min_size="three"),
    lambda tmp: ["analyse", *analyze_args(tmp)[1:]],
    lambda tmp: ["validate", "--lo", str(FIXTURE_DIR / "commits.ndjson")],
    lambda tmp: ["convert", "--raw", str(FIXTURE_DIR / "commits.ndjson")],
], ids=["abbreviated-option", "no-subcommand", "missing-required-option", "unknown-option",
        "non-integer", "unknown-subcommand", "validate-abbreviated",
        "convert-missing-out"])
def test_usage_error_is_exit_2_with_usage_on_stderr(tmp_path, args):
    result = run_cli(args(tmp_path))
    assert result.exit_code == 2
    assert result.stderr.startswith("usage: coopnet")
    assert "error: " in result.stderr
    assert result.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, defaults", [
    ([], []),
    (["analyze"], ["(default: 5)", "(default: 1)", "(default: 3)",
                   "(default: graphml,dot,csv,json)"]),
    (["convert"], []),
    (["validate"], []),
])
def test_help_exits_0_and_shows_every_default(command, defaults):
    result = run_cli([*command, "--help"])
    assert result.exit_code == 0
    assert result.stderr == ""
    text = " ".join(result.stdout.split())  # the help wraps at the terminal width
    assert text.startswith(f"usage: {' '.join(['coopnet', *command])} ")
    assert text.count("(default: ") == len(defaults)
    for default in defaults:
        assert default in text
    if not command:
        for name in ("analyze", "convert", "validate"):
            assert f" {name} " in text


def test_analyze_backbone_k_out_of_range_is_exit_2(tmp_path):
    result = run_cli(analyze_args(tmp_path, backbone_k=0))
    assert result.exit_code == 2
    assert result.stderr.startswith("usage: coopnet analyze")
    assert "argument --backbone-k: 0 is not in the range x>=1" in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("size", [0, -2])
def test_analyze_community_min_size_below_1_is_exit_2(tmp_path, size):
    result = run_cli(analyze_args(tmp_path, community_min_size=size))
    assert result.exit_code == 2
    assert result.stderr.startswith("usage: coopnet analyze")
    assert not (tmp_path / "out").exists()


def test_analyze_internal_value_error_is_not_exit_2(tmp_path, monkeypatch):
    def broken(cfg):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "run_pipeline", broken)
    # not mapped to an exit code: it escapes, and the interpreter exits 1
    with pytest.raises(ValueError, match="internal bug"):
        run_cli(analyze_args(tmp_path))


def test_analyze_tunable_backbone_flags(tmp_path):
    result = run_cli(analyze_args(
            tmp_path, backbone_k=2, backbone_min_embeddedness=2, community_min_size=4
        ),
    )
    assert result.exit_code == 0, result.output
    communities = json.loads((tmp_path / "out" / "communities.json").read_text())
    assert communities["min_size"] == 4
    assert communities["params"] == {"max_rank_k": 2, "min_embeddedness": 2}


def test_analyze_formats_flag(tmp_path):
    result = run_cli(analyze_args(tmp_path, formats="dot,csv"))
    assert result.exit_code == 0, result.output
    out = tmp_path / "out"
    assert list((out / "graphs").glob("*.graphml")) == []
    assert (out / "graphs" / "merged.dot").exists()


def test_convert_and_validate(tmp_path):
    raw = tmp_path / "raw.log"
    raw.write_text(
        "\n".join(
            [
                RECORD_SENTINEL,
                "e" * 40,
                "Dev One",
                "dev1@hp.example",
                "2011-03-01T10:00:00+00:00",
                "a.py",
                "b.py",
                RECORD_SENTINEL,
                "f" * 40,
                "Dev Two",
                "dev2@hp.example",
                "2011-03-02T10:00:00+00:00",
            ]
        )
        + "\n"
    )
    out = tmp_path / "log.ndjson"
    result = run_cli(["convert", "--raw", str(raw), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "1 commits without files dropped" in result.output
    assert result.stdout == "wrote 1 records (1 commits without files dropped)\n"
    assert len(out.read_text().splitlines()) == 1
    umask = os.umask(0)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask  # the mode write_text would give

    result = run_cli(["validate", "--log", str(out)])
    assert result.exit_code == 0
    assert "accepted: 1" in result.output
    assert "rejected: 0" in result.output


def test_convert_bad_raw_is_exit_2(tmp_path):
    raw = tmp_path / "raw.log"
    raw.write_text("garbage without sentinel\n")
    out = tmp_path / "log.ndjson"
    result = run_cli(["convert", "--raw", str(raw), "--out", str(out)])
    assert result.exit_code == 2


def test_validate_reports_problems(tmp_path):
    log = tmp_path / "log.ndjson"
    log.write_text('{"sha": "zz"}\n')
    result = run_cli(["validate", "--log", str(log)])
    assert result.exit_code == 0
    assert "rejected: 1" in result.output


def test_malformed_lines_are_rejected_not_a_crash(tmp_path):
    good = json.loads((FIXTURE_DIR / "commits.ndjson").read_text(encoding="utf-8").splitlines()[0])
    bad = [
        "[" * 200_000,
        '{"sha": ' + '{"a": ' * 5000 + "1" + "}" * 5001,
        json.dumps({**good, "sha": "e" * 40, "timestamp": "9999-12-31T23:59:59-01:00"}),
        json.dumps({**good, "sha": "f" * 40, "timestamp": "0001-01-01T00:00:00+01:00"}),
    ]
    log = tmp_path / "commits.ndjson"
    log.write_text("\n".join([*bad, json.dumps(good)]) + "\n", encoding="utf-8")

    result = run_cli(["validate", "--log", str(log)])
    assert result.exit_code == 0, result.output
    assert "accepted: 1\nrejected: 4\n" in result.output
    assert "line 1: invalid JSON: nested too deeply\n" in result.output
    # Python 3.13 decodes 5000 levels and 3.10-3.12 do not, but a record has depth 2
    assert "line 2: " in result.output
    assert "line 3: timestamp is not RFC 3339\n" in result.output
    assert "line 4: timestamp is not RFC 3339\n" in result.output

    result = run_cli(analyze_args(tmp_path, log=log))
    assert result.exit_code == 0, result.output
    assert "analyzed 1 commits" in result.output
    report = json.loads((tmp_path / "out" / "validation_report.json").read_text(encoding="utf-8"))
    assert report["accepted"] == 1 and len(report["rejected"]) == 4


def test_validate_missing_file_is_config_error(tmp_path):
    result = run_cli(["validate", "--log", str(tmp_path / "nope")])
    assert result.exit_code == 2


def test_validate_non_utf8_log_is_exit_2(tmp_path):
    log = tmp_path / "log.ndjson"
    log.write_bytes(b'{"sha": "\xff"}\n')
    result = run_cli(["validate", "--log", str(log)])
    assert result.exit_code == 2
    assert "error:" in result.output


def test_convert_non_utf8_raw_is_exit_2(tmp_path):
    raw = tmp_path / "raw.log"
    raw.write_bytes(RECORD_SENTINEL.encode() + b"\n\xff\n")
    out = tmp_path / "log.ndjson"
    result = run_cli(["convert", "--raw", str(raw), "--out", str(out)])
    assert result.exit_code == 2
    assert not out.exists()


def raw_log(name="Dev One", newline="\n"):
    lines = [RECORD_SENTINEL, "e" * 40, name, "dev1@hp.example", "2011-03-01T10:00:00+00:00", "a.py"]
    return newline.join(lines) + newline


@pytest.mark.parametrize("name", ["Ann\u2028Lee", "Ann\x85Lee"])
def test_convert_then_validate_keeps_unicode_line_breaks(tmp_path, name):
    raw = tmp_path / "raw.log"
    raw.write_bytes(raw_log(name).encode())
    out = tmp_path / "log.ndjson"
    result = run_cli(["convert", "--raw", str(raw), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "wrote 1 records" in result.output
    assert json.loads(out.read_bytes())["author_name"] == name

    result = run_cli(["validate", "--log", str(out)])
    assert result.exit_code == 0
    assert "accepted: 1" in result.output
    assert "rejected: 0" in result.output


def test_convert_error_offset_counts_crlf_bytes(tmp_path):
    good = raw_log(newline="\r\n")
    raw = tmp_path / "raw.log"
    raw.write_bytes((good + RECORD_SENTINEL + "\r\n" + "f" * 40 + "\r\n").encode())
    out = tmp_path / "log.ndjson"
    result = run_cli(["convert", "--raw", str(raw), "--out", str(out)])
    assert result.exit_code == 2
    assert f"unterminated record at byte {len(good.encode())}" in result.output


def test_convert_non_utf8_after_a_bad_record_is_reported_first(tmp_path):
    # the undecodable byte, not the record far before it, is the fault
    # reported, as when the whole log was read before any record was checked
    bad = raw_log().replace("2011-03-01T10:00:00+00:00", "2011-03-01")
    raw = tmp_path / "raw.log"
    raw.write_bytes((raw_log() * 2000 + bad + raw_log() * 2000).encode() + b"\xff\n")
    out = tmp_path / "log.ndjson"
    result = run_cli(["convert", "--raw", str(raw), "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: 'utf-8' codec can't decode byte 0xff")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["raw.log"]


def test_convert_date_out_of_range_in_utc_is_exit_2(tmp_path):
    good = raw_log()
    raw = tmp_path / "raw.log"
    late = raw_log().replace("2011-03-01T10:00:00+00:00", "0001-01-01T00:00:00+01:00")
    raw.write_text(good + late)
    out = tmp_path / "log.ndjson"
    result = run_cli(["convert", "--raw", str(raw), "--out", str(out)])
    assert result.exit_code == 2
    assert f"unparseable committer date in record at byte {len(good.encode())}\n" in result.output
    assert not out.exists()


def test_convert_out_in_missing_directory_is_exit_2(tmp_path, monkeypatch):
    raw = tmp_path / "raw.log"
    raw.write_text(raw_log())
    converted = []
    monkeypatch.setattr(cli, "convert_vcs_log", lambda *args: converted.append(args))
    out = tmp_path / "missing" / "log.ndjson"
    result = run_cli(["convert", "--raw", str(raw), "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == f"error: [Errno 2] --out is not in a directory: {str(out)!r}\n"
    assert ".log.ndjson." not in result.stderr  # the private staging name is not shown
    assert converted == []  # refused before reading
    assert [p.name for p in tmp_path.iterdir()] == ["raw.log"]


def test_convert_out_is_directory_is_exit_2(tmp_path, monkeypatch):
    raw = tmp_path / "raw.log"
    raw.write_text(raw_log())
    converted = []
    monkeypatch.setattr(cli, "convert_vcs_log", lambda *args: converted.append(args))
    result = run_cli(["convert", "--raw", str(raw), "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert result.stderr == f"error: [Errno 21] --out is a directory: {str(tmp_path)!r}\n"
    assert converted == []  # refused before reading
    assert [p.name for p in tmp_path.iterdir()] == ["raw.log"]  # no temp file is left


@pytest.mark.parametrize("command, option", [
    ("analyze", "log"), ("analyze", "releases"), ("analyze", "affiliations"),
    ("analyze", "firms"), ("analyze", "revenue_models"), ("validate", "log"),
    ("convert", "raw"),
])
@pytest.mark.parametrize("kind", ["directory", "through-file"])
def test_input_path_of_the_wrong_kind_is_exit_2(tmp_path, command, option, kind):
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    path = tmp_path / "dir" if kind == "directory" else tmp_path / "file" / "x"
    args = {
        "analyze": analyze_args(tmp_path, **{option: path}),
        "validate": ["validate", "--log", str(path)],
        "convert": ["convert", "--raw", str(path), "--out", str(tmp_path / "out")],
    }[command]
    result = run_cli(args)
    assert result.exit_code == 2, result.output
    errno = "21" if kind == "directory" else "20"
    assert result.stderr.startswith(f"error: [Errno {errno}] ")
    assert result.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]


@pytest.mark.parametrize("bad, reason", [
    (raw_log().replace("2011-03-01T10:00:00+00:00", "2011-03-01"),
     "unparseable committer date in record"),
    (RECORD_SENTINEL + "\n" + "f" * 40 + "\nDev Two\n", "unterminated record"),
], ids=["bad-date", "truncated"])
def test_convert_failure_after_many_records_keeps_existing_out(tmp_path, bad, reason):
    good = raw_log() * 2000  # staged lines reach the disk before the fault is read
    raw = tmp_path / "raw.log"
    raw.write_text(good + bad + raw_log())
    out = tmp_path / "log.ndjson"
    out.write_bytes(b"old log\n")
    result = run_cli(["convert", "--raw", str(raw), "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == f"error: {reason} at byte {len(good.encode())}\n"
    assert result.stdout == ""
    assert out.read_bytes() == b"old log\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.ndjson", "raw.log"]


@pytest.mark.parametrize("spelling", ["raw.log", "./raw.log"])
def test_convert_out_that_is_the_raw_input_is_exit_2(tmp_path, monkeypatch, spelling):
    raw = tmp_path / "raw.log"
    raw.write_text(raw_log())
    before = raw.read_bytes()
    converted = []
    monkeypatch.setattr(cli, "convert_vcs_log", lambda *args: converted.append(args))
    out = f"{tmp_path}/{spelling}"
    result = run_cli(["convert", "--raw", str(raw), "--out", out])
    assert result.exit_code == 2, result.output
    assert "must not be the --raw input" in result.output
    assert converted == []  # refused before reading
    assert raw.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["raw.log"]


def child_env():
    """The environment for a child interpreter that imports this checkout's coopnet."""
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_convert_failed_write_leaves_old_target(tmp_path):
    resource = pytest.importorskip("resource")
    raw = tmp_path / "raw.log"
    raw.write_text(raw_log() * 100)
    out = tmp_path / "log.ndjson"
    out.write_bytes(b"old log\n")
    # the child may write no file past 1 KiB, so the 100-record log fails mid-write
    limit = (1024, resource.getrlimit(resource.RLIMIT_FSIZE)[1])
    code = (
        "import resource, sys; from coopnet.cli import main; "
        f"resource.setrlimit(resource.RLIMIT_FSIZE, {limit}); sys.exit(main())"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, "convert", "--raw", str(raw), "--out", str(out)],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 3, result.stderr
    assert "File too large" in result.stderr
    assert out.read_bytes() == b"old log\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.ndjson", "raw.log"]


# a python -S launcher that spawns an import-only child and a convert child
# in turn and prints each one's exit code and peak RSS (KiB) from wait4; a
# child's ru_maxrss starts from its spawner's peak, which pytest's would hide
# spawns an import-only child, then `coopnet ARGS...`, and prints each one's
# exit code and peak RSS; run with -S, so that its own peak stays below theirs
PEAK_RSS_LAUNCHER = """
import os, sys
for argv in (["-c", "import coopnet.cli"], ["-m", "coopnet.cli", *sys.argv[1:]]):
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ)
    _, status, usage = os.wait4(pid, 0)
    print("peak", os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def spawned_peaks(*args) -> tuple[str, float, float]:
    """`coopnet ARGS...` spawned from a launcher: its stdout, and the peak RSS in MiB of an
    import-only child and of the command's child."""
    if not sys.platform.startswith("linux"):
        pytest.skip("ru_maxrss is in KiB on Linux")
    result = subprocess.run(
        [sys.executable, "-S", "-c", PEAK_RSS_LAUNCHER, *map(str, args)],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    peaks = [line.split()[1:] for line in result.stdout.splitlines() if line.startswith("peak ")]
    assert [code for code, _ in peaks] == ["0", "0"], result.stderr
    import_only, running = (int(kib) / 1024 for _, kib in peaks)
    return result.stdout, import_only, running


def test_convert_peak_rss_does_not_grow_with_the_log(tmp_path):
    raw = tmp_path / "raw.log"
    with open(raw, "w", encoding="utf-8") as f:
        for i in range(27_000):  # about 4 MB
            f.write("\n".join([
                RECORD_SENTINEL, f"{i:040x}", f"Dev {i % 97}", f"dev{i % 97}@hp.example",
                f"2011-03-{i % 28 + 1:02d}T10:00:00+00:00", f"src/mod{i % 13}/file{i % 101}.py",
                f"docs/{i % 7}.rst",
            ]) + "\n\n")
    assert 3_500_000 < raw.stat().st_size < 4_500_000
    out = tmp_path / "log.ndjson"
    stdout, import_only, converting = spawned_peaks("convert", "--raw", raw, "--out", out)
    assert "wrote 27000 records (0 commits without files dropped)" in stdout
    assert converting < import_only + 4, (import_only, converting)


def test_analyze_peak_rss_grows_less_than_its_touch_logs(tmp_path):
    # 40,000 commits of three long, distinct paths each over eight releases:
    # the touch logs are most of what a run holds, every window's at once
    # until the graphs are built, and no file is shared, so there is no edge
    log = tmp_path / "commits.ndjson"
    touch_bytes = 0
    with open(log, "w", encoding="utf-8") as f:
        for i in range(40_000):
            files = [f"openstack/service{i % 40:02d}/module_{i:06d}/{part}_implementation.py"
                     for part in ("api", "db", "tests")]
            touch_bytes += sum(len(path) + 1 for path in files)
            f.write(json.dumps({
                "sha": f"{i:040x}", "author_name": f"Dev {i % 50}",
                "author_email": f"dev{i % 50}@hp.example",
                "timestamp": f"2011-{1 + i // 5000:02d}-10T10:00:00Z", "files": files,
            }) + "\n")
    releases = tmp_path / "releases.csv"
    releases.write_text("name,date\n" + "".join(f"r{m},2011-{m:02d}-28\n" for m in range(1, 9)))
    affiliations = tmp_path / "affiliations.ini"
    affiliations.write_text("[domains]\nhp.example = HP\n")
    stdout, import_only, analyzing = spawned_peaks(
        "analyze", "--log", log, "--releases", releases, "--affiliations", affiliations,
        "--out", tmp_path / "out",
    )
    assert "analyzed 40000 commits across 8 releases" in stdout
    # the logs are held compressed: the run grows by less than their raw bytes
    touch_mib = touch_bytes / 2**20
    assert touch_mib > 6
    assert analyzing - import_only < touch_mib, (import_only, analyzing, touch_mib)


def test_import_loads_no_third_party_or_dataclasses():
    # the CLI parses with argparse and the records need no code generation;
    # -S skips the site step, so no site-packages is on the path and
    # nothing is loaded before coopnet
    code = "import sys, coopnet.cli; print(*sorted(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=child_env(), capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "coopnet.cli" in loaded
    assert not loaded & {"click", "dataclasses", "inspect"}


def test_import_loads_no_web_stack():
    # xml.sax.saxutils would pull these into every run for two quoting
    # functions; what the interpreter's site step loads before does not count
    code = (
        "import sys; before = set(sys.modules); import coopnet.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "coopnet.cli" in loaded
    web = {"xml.sax", "urllib.request", "http.client", "email.parser", "ssl", "socket"}
    assert not loaded & web


def seeded_history(tmp_path) -> list[str]:
    """`analyze` options over a seeded history: a dozen firms, alias groups, bots,
    mixed-case emails, revenue streams and a firm filter."""
    rng = random.Random(34)
    firms = [f"Firm {c}" for c in "ABCDEFGHIJKL"]
    domain_of = {firm: f"{firm[-1].lower()}.example" for firm in firms}
    devs = [f"dev{i:03d}@{domain_of[rng.choice(firms)]}" for i in range(120)]
    # a personal address in each alias group is Unaffiliated, so the group keeps its firm
    aliases = {f"home{i:03d}@mail.example": dev for i, dev in enumerate(rng.sample(devs, 12))}
    authors = devs + list(aliases) + ["ci@bots.example"]
    files = [f"pkg{i % 9}/mod{i:03d}.py" for i in range(150)]
    lines = []
    for i in range(1500):
        email = rng.choice(authors)
        if rng.random() < 0.2:
            email = email.capitalize()
        day = date(2021, 1, 1) + timedelta(days=rng.randrange(140))
        touched = rng.choices(files, weights=[1 / (k + 1) for k in range(len(files))], k=3)
        lines.append(json.dumps({
            "sha": f"{rng.getrandbits(160):040x}", "author_name": "Dev", "author_email": email,
            "timestamp": f"{day.isoformat()}T{rng.randrange(24):02d}:00:00Z", "files": touched,
        }) + "\n")
    inputs = {
        "log": "".join(lines),
        "releases": "name,date\nr1,2021-02-01\nr2,2021-03-01\nr3,2021-04-01\nr4,2021-05-01\n",
        "affiliations": "[domains]\n" + "".join(f"{d} = {f}\n" for f, d in domain_of.items())
        + "[aliases]\n" + "".join(f"{dev}, {home}\n" for home, dev in aliases.items())
        + "[bots]\nci@bots.example\n",
        "firms": "".join(f"{firm}\n" for firm in firms[:9]),
        "revenue-models": "stream,firm\n" + "".join(
            f"s{s},{firm}\n" for s in range(6) for firm in rng.sample(firms[:9], rng.randint(2, 5))
        ),
    }
    args = ["analyze"]
    for option, text in inputs.items():
        path = tmp_path / option
        path.write_text(text, encoding="utf-8")
        args += [f"--{option}", str(path)]
    return args


def test_analyze_tree_does_not_depend_on_the_hash_seed(tmp_path):
    args = seeded_history(tmp_path)
    children = [
        subprocess.Popen(
            [sys.executable, "-m", "coopnet.cli", *args, "--out", str(tmp_path / f"out{seed}")],
            env={**child_env(), "PYTHONHASHSEED": seed}, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        for seed in ("0", "1")
    ]
    for child in children:
        _, stderr = child.communicate(timeout=60)
        assert child.returncode == 0, stderr
    trees = [
        {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        for out in (tmp_path / "out0", tmp_path / "out1")
    ]
    assert trees[0] == trees[1]
    summary = json.loads(trees[0]["run_summary.json"])
    assert summary["commits"]["excluded"] > 0 and len(summary["firms"]) == 9
    communities = json.loads(trees[0]["communities.json"])
    assert any(w["communities"] for w in communities["windows"])
    assert trees[0]["comparisons.csv"].count(b"\n") == 1 + 6 * 5  # 6 streams, 4 windows and merged
