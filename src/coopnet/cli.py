"""coopnet command line interface.

Exit codes: 0 success, 2 config/parse error (a usage error too), 3 I/O error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

from .backbone import BackboneParams
from .ingest import InputError, ValidationReport, convert_vcs_log, iter_commits
from .report import FORMATS, RunConfig, run_pipeline

EXIT_CONFIG = 2
EXIT_IO = 3

# a missing or undecodable input file, or a path of the wrong kind, is a
# configuration problem, not an I/O failure
_CONFIG_ERRORS = (InputError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
                  UnicodeDecodeError)


def _at_least(low: int):
    """An argparse type: an int no smaller than low."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}")
        return value

    return integer


def analyze(args: argparse.Namespace) -> None:
    """Run the full pipeline and write analysis artifacts."""
    result = run_pipeline(RunConfig(
        commit_log=args.commit_log,
        releases=args.releases,
        affiliations=args.affiliations,
        out_dir=args.out_dir,
        firms=args.firms,
        revenue_models=args.revenue_models,
        backbone=BackboneParams(args.max_rank_k, args.min_embeddedness),
        community_min_size=args.community_min_size,
        formats=frozenset(f.strip() for f in args.formats.split(",") if f.strip()),
    ))
    commits = result.summary["commits"]
    print(
        f"analyzed {commits['analyzed']} commits across "
        f"{len(result.summary['windows'])} releases; "
        f"wrote {len(result.files_written)} files to {args.out_dir}"
    )


@contextmanager
def _write_replacing(path: Path) -> Iterator[TextIO]:
    """Yield a new text file that replaces path only once the block succeeds.

    The file is made in a private sibling directory, so it gets the mode
    any new file gets; on any error the directory is removed with it and
    path is left as it was.
    """
    with tempfile.TemporaryDirectory(prefix=f".{path.name}.", dir=path.parent) as staging:
        new = Path(staging, path.name)
        with open(new, "w", encoding="utf-8") as out:
            yield out
        os.replace(new, path)


def convert(args: argparse.Namespace) -> None:
    """Convert raw extraction-recipe output to the canonical NDJSON log."""
    raw_path, out_path = args.raw_path, args.out_path
    if out_path.resolve() == raw_path.resolve():
        raise InputError(f"--out must not be the --raw input: {out_path}")
    if out_path.is_dir():  # refused before the log is read, and named as given
        raise IsADirectoryError(errno.EISDIR, "--out is a directory", str(out_path))
    if not out_path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "--out is not in a directory", str(out_path))
    with open(raw_path, encoding="utf-8", newline="") as raw, _write_replacing(out_path) as out:
        records, merges_dropped = convert_vcs_log(raw, out)
    print(f"wrote {records} records ({merges_dropped} merge commits dropped)")


def validate(args: argparse.Namespace) -> None:
    """Parse a commit log and report acceptance, rejections, and fixes."""
    report = ValidationReport()
    with open(args.log_path, encoding="utf-8") as log:
        for _ in iter_commits(log, report):
            pass
    print(f"accepted: {report.accepted}")
    print(f"rejected: {len(report.rejected)}")
    for line_number, reason in report.rejected:
        print(f"  line {line_number}: {reason}")
    print(f"cleaned: {len(report.cleaned)}")
    for sha, fix in report.cleaned:
        print(f"  {sha[:12]}: {fix}")


def _parser() -> argparse.ArgumentParser:
    # allow_abbrev=False on every parser: --rel must not stand for --releases
    parser = argparse.ArgumentParser(
        prog="coopnet", allow_abbrev=False,
        description="Reconstruct firm-level collaboration networks from commit history.",
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(run) -> argparse.ArgumentParser:
        sub = commands.add_parser(run.__name__, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub

    sub = command(analyze)
    sub.add_argument("--log", dest="commit_log", required=True, type=Path, metavar="PATH",
                     help="canonical NDJSON commit log")
    sub.add_argument("--releases", required=True, type=Path, metavar="PATH",
                     help="release schedule CSV")
    sub.add_argument("--affiliations", required=True, type=Path, metavar="PATH",
                     help="affiliation config (INI-like)")
    sub.add_argument("--firms", type=Path, metavar="PATH",
                     help="firm filter, one firm per line; also the firm universe")
    sub.add_argument("--revenue-models", type=Path, metavar="PATH", help="revenue stream CSV")
    sub.add_argument("--backbone-k", dest="max_rank_k", type=_at_least(1), metavar="N",
                     default=BackboneParams._field_defaults["max_rank_k"],
                     help="reciprocal rank cutoff for backbone extraction, x>=1 "
                          "(default: %(default)s)")
    sub.add_argument("--backbone-min-embeddedness", dest="min_embeddedness", type=_at_least(0),
                     default=BackboneParams._field_defaults["min_embeddedness"], metavar="N",
                     help="minimum triangles per kept edge, x>=0 (default: %(default)s)")
    sub.add_argument("--community-min-size", type=_at_least(1), metavar="N",
                     default=RunConfig._field_defaults["community_min_size"],
                     help="smallest reported sub-community, x>=1 (default: %(default)s)")
    sub.add_argument("--out", dest="out_dir", required=True, type=Path, metavar="PATH",
                     help="output directory, replaced as a whole on success")
    sub.add_argument("--formats", default=",".join(FORMATS), metavar="LIST",
                     help=f"comma-separated subset of {','.join(FORMATS)}. "
                          "(default: %(default)s)")

    sub = command(convert)
    sub.add_argument("--raw", dest="raw_path", required=True, type=Path, metavar="PATH",
                     help="raw git log output of the extraction recipe")
    sub.add_argument("--out", dest="out_path", required=True, type=Path, metavar="PATH",
                     help="NDJSON log to write, replaced only once it is whole")

    sub = command(validate)
    sub.add_argument("--log", dest="log_path", required=True, type=Path, metavar="PATH",
                     help="canonical NDJSON commit log")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand on argv (default sys.argv[1:]) and return its exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error and 0 after --help
        return exc.code
    try:
        args.run(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return 0


if __name__ == "__main__":
    sys.exit(main())
