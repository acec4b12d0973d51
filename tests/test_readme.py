"""The README's contract against the code: options, exit codes, outputs and names.

The README states what a user relies on; each test reads one part of it
and compares it with the program, so a change to either that the other
does not follow fails here.
"""

from __future__ import annotations

import argparse
import importlib
import pkgutil
import re
from pathlib import Path
from types import ModuleType

import coopnet
from conftest import FIXTURE_DIR, GOLDEN_DIR, parse_commit_log
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
