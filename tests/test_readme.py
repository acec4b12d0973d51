"""The README's contract against the code: options, exit codes, outputs and names.

The README states what a user relies on; each test reads one part of it
and compares it with the program, so a change to either that the other
does not follow fails here.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pkgutil
import re
import subprocess
from collections import Counter
from itertools import combinations
from pathlib import Path
from types import ModuleType

import coopnet
from conftest import FIXTURE_DIR, GOLDEN_DIR, StrGraph, parse_commit_log, read_graphml, run_cli
from coopnet import cli
from coopnet.graph import CollaborationGraph
from coopnet.identity import IdentityResolver, load_affiliation_map
from coopnet.report import FORMATS, GRAPH_DIRS, GRAPH_SUFFIXES, TABLE_FILES

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
FENCE_RE = re.compile(r"^```\w*\n(.*?)^```$", re.M | re.S)


def section(heading: str) -> str:
    """The text under the heading line, up to the next heading outside a code block."""
    lines = README.split("\n")
    start = lines.index(heading) + 1
    fenced, end = False, len(lines)
    for i in range(start, len(lines)):
        fenced ^= lines[i].startswith("```")
        if not fenced and lines[i].startswith("#"):
            end = i
            break
    return "\n".join(lines[start:end])


def table(text: str) -> list[list[str]]:
    """The body rows of the first Markdown table in text, each cell stripped of backticks."""
    rows = [line for line in text.split("\n") if line.startswith("|")]
    return [[cell.strip().strip("`") for cell in row.strip("|").split("|")] for row in rows[2:]]


def subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = cli._parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices


def long_options(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    return {opt: a for a in parser._actions for opt in a.option_strings if opt.startswith("--")}


def documented_default(action: argparse.Action) -> str:
    """The options table's Default cell for the action."""
    if action.required:
        return "required"
    if action.default is None:
        return "none"
    if action.default == ",".join(FORMATS):
        return "all"
    return str(action.default)


def test_analyze_table_lists_every_option_with_its_default():
    options = long_options(subcommands()["analyze"])
    del options["--help"]
    rows = table(section("### `analyze` options"))
    assert {option: default for option, default, _ in rows} == {
        option: documented_default(action) for option, action in options.items()
    }
    assert len(rows) == len(options)  # one row per option


def test_each_other_subcommand_shows_its_options():
    for name, parser in subcommands().items():
        if name == "analyze":
            continue
        usage = re.search(rf"`coopnet {name}( [^`]*)`", README)
        assert usage, f"no usage line for coopnet {name}"
        shown = set(re.findall(r"--[a-z][a-z-]*", usage.group(1)))
        assert shown == set(long_options(parser)) - {"--help"}, name


def test_every_option_the_readme_names_exists():
    # the install and recipe blocks hold pip's and git's options, not coopnet's
    text = FENCE_RE.sub(
        lambda m: "" if m.group(1).split()[0] in {"git", "pip"} else m.group(0), README
    )
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    known = set(long_options(cli._parser()))
    for parser in subcommands().values():
        known |= set(long_options(parser))
    # --rel is the README's example of a refused abbreviation, which test_cli runs
    assert named - known == {"--rel"}


def test_exit_code_table_has_one_row_per_code():
    codes = [int(row[0]) for row in table(section("### Exit codes"))]
    assert sorted(codes) == sorted({0, cli.EXIT_CONFIG, cli.EXIT_IO})


def test_output_list_matches_what_a_run_writes():
    text = section("## Outputs")
    listed = re.findall(r"^- `([^`]+)`", text, re.M)
    assert {name.rstrip("/") for name in listed if name.endswith("/")} == GRAPH_DIRS
    assert {name for name in listed if not name.endswith("/")} == TABLE_FILES
    assert len(listed) == len(GRAPH_DIRS) + len(TABLE_FILES)
    graph_files = re.findall(r"`(NN_<release>|merged)(\.\w+)`", text)
    suffixes = {suffix for _, suffix in graph_files}
    assert suffixes == GRAPH_SUFFIXES
    assert {stem for stem, _ in graph_files} == {"NN_<release>", "merged"}
    # the fixture run writes every format, so the golden tree holds every name
    assert {p.name for p in GOLDEN_DIR.iterdir()} == TABLE_FILES | GRAPH_DIRS
    releases = [line.split(",")[0] for line in
                (FIXTURE_DIR / "releases.csv").read_text(encoding="utf-8").split("\n")[1:] if line]
    stems = [f"{i:02d}_{name}" for i, name in enumerate(releases, 1)] + ["merged"]
    for directory in GRAPH_DIRS:
        assert {p.name for p in (GOLDEN_DIR / directory).iterdir()} == {
            stem + suffix for stem in stems for suffix in suffixes
        }


def test_import_block_lists_the_root_exports():
    block = next(b for b in FENCE_RE.findall(README) if b.startswith("from coopnet import"))
    documented = re.findall(r"\w+", block.split("(", 1)[1])
    public = {
        name for name, value in vars(coopnet).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(documented) == sorted(public)
    count = re.search(r"These (\d+) names are all the package root exports", README)
    assert count and int(count.group(1)) == len(public)


def resolves(dotted: str) -> bool:
    """Whether a dotted coopnet name imports as a module or is an attribute of one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for name in parts[split:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_every_qualified_name_resolves():
    names = set(re.findall(r"`(coopnet(?:\.\w+)+)", README))
    assert names
    assert sorted(name for name in names if not resolves(name)) == []


def named_tuples() -> dict[str, type]:
    """Every NamedTuple class that a coopnet module defines, by name."""
    found = {}
    for info in pkgutil.iter_modules(coopnet.__path__):
        module = importlib.import_module(f"coopnet.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields"):
                if value.__module__ == module.__name__:
                    found[name] = value
    return found


def test_named_tuple_list_names_the_package_records():
    text = re.search(r"only reads are `typing.NamedTuple`s:(.*?)\. They are immutable", README, re.S)
    listed = re.findall(r"`(\w+)`", text.group(1))
    assert len(listed) == 9
    records = named_tuples()
    assert sorted(name for name in listed if name not in records) == []


def test_collaboration_graph_fields_are_the_listed_ones():
    text = re.search(r"A `CollaborationGraph` is (\w+) fields\..*?\n\n(.*?)\n\n", README, re.S)
    count = ["one", "two", "three", "four", "five", "six"].index(text.group(1)) + 1
    listed = re.findall(r"^- `(\w+)`", text.group(2), re.M)
    assert listed == list(CollaborationGraph._fields)
    assert count == len(listed)


def test_resolver_gives_developer_numbers_as_documented():
    attributes = re.findall(r"`resolver\.(\w+)\[d\]`", README)
    assert attributes == ["canonical_ids", "firms"]
    config = (FIXTURE_DIR / "affiliations.ini").read_text(encoding="utf-8")
    resolver = IdentityResolver(load_affiliation_map(config))
    records, _ = parse_commit_log((FIXTURE_DIR / "commits.ndjson").read_text(encoding="utf-8"))
    numbers = [resolver.resolve(r.author_email) for r in records]
    assert None in numbers  # the fixture has an excluded author
    kept = [d for d in numbers if d is not None]
    assert all(type(d) is int for d in kept)
    assert list(dict.fromkeys(kept)) == list(range(len(set(kept))))  # in first-seen order
    for attribute in attributes:
        assert len(getattr(resolver, attribute)) == len(set(kept))


# the domains of the recipe test's authors, as its affiliations file maps them
RECIPE_FIRMS = {"anvil.io": "Anvil", "bolt.io": "Bolt", "cobalt.io": "Cobalt"}


def test_recipe_run_on_a_git_repository_converts_and_analyzes(tmp_path):
    # git's own configuration is left out, and so is any GIT_* variable of a
    # calling process, so the repository is the same on every host; a
    # missing git fails the test
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
    env.update(GIT_CONFIG_GLOBAL=os.devnull, GIT_CONFIG_NOSYSTEM="1")
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=repo, env=env, check=True, capture_output=True, text=True
        ).stdout

    def edit(*names: str) -> None:
        for name in names:
            with open(repo / name, "a", encoding="utf-8") as f:
                f.write("change\n")

    def sign(name: str, email: str, date: str, author_date: str | None = None) -> None:
        env.update(GIT_AUTHOR_NAME=name, GIT_AUTHOR_EMAIL=email,
                   GIT_AUTHOR_DATE=author_date or date, GIT_COMMITTER_NAME=name,
                   GIT_COMMITTER_EMAIL=email, GIT_COMMITTER_DATE=date)

    # what each commit with files should become: (sha, email, UTC instant, files, window)
    committed = []

    def commit(files: list[str], window: str, utc: str | None = None) -> None:
        """Commit the work tree as signed; utc is the committer date in UTC, if it is not."""
        git("add", "-A")
        git("commit", "-q", "-m", "change")
        sha = git("rev-parse", "HEAD").strip()
        utc = utc or env["GIT_COMMITTER_DATE"]
        committed.append((sha, env["GIT_AUTHOR_EMAIL"], utc, files, window))

    git("init", "-q", "-b", "main")
    edit("a.py", "with space.py")
    sign("Alice", "Alice.Smith@Anvil.io", "2021-03-01T09:00:00Z")
    commit(["a.py", "with space.py"], "r1")
    edit("a.py")
    sign("Bob", "bob@bolt.io", "2021-03-01T10:00:00Z")
    commit(["a.py"], "r1")
    sign("Dave", "Dave@Bolt.io", "2021-03-01T11:00:00Z")
    git("commit", "-q", "--allow-empty", "-m", "empty")
    git("checkout", "-q", "-b", "side")
    edit("with space.py")
    # committed late on 1 March at -02:00, which is 2 March in UTC, and authored in February
    sign("Carol", "Carol@Cobalt.io", "2021-03-01T23:30:00-02:00", "2021-02-25T10:00:00Z")
    commit(["with space.py"], "r2", utc="2021-03-02T01:30:00Z")
    git("checkout", "-q", "main")
    sign("Bob", "bob@bolt.io", "2021-03-03T09:00:00Z")
    git("merge", "-q", "--no-ff", "-m", "merge", "side")
    merge = git("rev-parse", "HEAD").strip()
    edit("with space.py")
    sign("Bob", "bob@bolt.io", "2021-03-03T10:00:00Z")
    commit(["with space.py"], "r2")
    git("mv", "a.py", "renamed.py")
    sign("Alice", "Alice.Smith@Anvil.io", "2021-03-04T10:00:00Z")
    commit(["renamed.py"], "r2")

    # the recipe as the README gives it; it writes git.log in the repository
    recipe = next(b for b in FENCE_RE.findall(section("### Extraction recipe"))
                  if b.startswith("git log"))
    subprocess.run(["bash", "-c", recipe], cwd=repo, env=env, check=True)
    log = tmp_path / "commits.ndjson"
    result = run_cli(["convert", "--raw", str(repo / "git.log"), "--out", str(log)])
    assert result.exit_code == 0, result.output
    assert result.stdout == f"wrote {len(committed)} records (1 commits without files dropped)\n"
    records = {r["sha"]: (r["author_email"], r["timestamp"], r["files"])
               for r in map(json.loads, log.read_text(encoding="utf-8").splitlines())}
    assert records == {sha: (email, utc, files) for sha, email, utc, files, _ in committed}
    assert merge not in records

    (tmp_path / "releases.csv").write_text("name,date\nr1,2021-03-01\nr2,2021-03-05\n")
    (tmp_path / "affiliations.ini").write_text(
        "[domains]\n" + "".join(f"{d} = {f}\n" for d, f in RECIPE_FIRMS.items())
    )
    out = tmp_path / "out"
    result = run_cli(["analyze", "--log", str(log), "--releases", str(tmp_path / "releases.csv"),
                      "--affiliations", str(tmp_path / "affiliations.ini"), "--out", str(out)])
    assert result.exit_code == 0, result.output
    validation = json.loads((out / "validation_report.json").read_text(encoding="utf-8"))
    assert validation["accepted"] == len(committed) and validation["rejected"] == []
    assert sorted(validation["cleaned"]) == sorted(
        [sha, "email normalized"] for sha, email, *_ in committed if email != email.lower()
    )
    # each commit in its window: the commit counts, and each window's developers and edges
    summary = json.loads((out / "run_summary.json").read_text(encoding="utf-8"))
    windows = [w for *_, w in committed]
    assert {w["release"]: w["commits"] for w in summary["windows"]} == Counter(windows)
    for i, window in enumerate(dict.fromkeys(windows), 1):
        files_of: dict[str, set[str]] = {}
        for _, email, _, files, w in committed:
            if w == window:
                files_of.setdefault(email.lower(), set()).update(files)
        firms = {dev: RECIPE_FIRMS[dev.partition("@")[2]] for dev in files_of}
        edges = {(u, v) for u, v in combinations(sorted(files_of), 2) if files_of[u] & files_of[v]}
        graph = (out / "graphs" / f"{i:02d}_{window}.graphml").read_text(encoding="utf-8")
        assert read_graphml(graph) == StrGraph(window, firms, frozenset(edges))
