"""coopnet command line interface.

Exit codes: 0 success, 2 config/parse error, 3 I/O error.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

import click

from .backbone import BackboneParams
from .coopetition import RevenueModelError
from .identity import AffiliationError
from .ingest import CommitLogError, ValidationReport, convert_vcs_log, iter_commits
from .report import ConfigError, RunConfig, run_pipeline
from .slicing import ReleaseConfigError

EXIT_CONFIG = 2
EXIT_IO = 3

# a missing or undecodable input file is a configuration problem, not an I/O failure
_CONFIG_ERRORS = (
    CommitLogError,
    AffiliationError,
    ReleaseConfigError,
    RevenueModelError,
    ConfigError,
    FileNotFoundError,
    UnicodeDecodeError,
)


class _ExitCodeGroup(click.Group):
    """Maps input errors to exit 2 and other I/O errors to exit 3, for every subcommand."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except _CONFIG_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(EXIT_IO)


@click.group(cls=_ExitCodeGroup)
def main():
    """Reconstruct firm-level collaboration networks from commit history."""


@main.command()
@click.option("--log", "log_path", required=True, type=click.Path(path_type=Path))
@click.option("--releases", "releases_path", required=True, type=click.Path(path_type=Path))
@click.option("--affiliations", "affiliations_path", required=True, type=click.Path(path_type=Path))
@click.option("--firms", "firms_path", type=click.Path(path_type=Path), default=None)
@click.option("--revenue-models", "revenue_path", type=click.Path(path_type=Path), default=None)
@click.option("--backbone-k", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--backbone-min-embeddedness", type=click.IntRange(min=0), default=1,
              show_default=True)
@click.option("--community-min-size", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--time-field", type=click.Choice(["committer", "author"]), default="committer",
              show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path))
@click.option("--formats", default="graphml,dot,csv,json", show_default=True,
              help="Comma-separated subset of graphml,dot,csv,json.")
def analyze(log_path, releases_path, affiliations_path, firms_path, revenue_path,
            backbone_k, backbone_min_embeddedness, community_min_size, time_field,
            out_dir, formats):
    """Run the full pipeline and write analysis artifacts."""
    result = run_pipeline(RunConfig(
        commit_log=log_path,
        releases=releases_path,
        affiliations=affiliations_path,
        firms=firms_path,
        revenue_models=revenue_path,
        backbone=BackboneParams(
            max_rank_k=backbone_k,
            min_embeddedness=backbone_min_embeddedness,
        ),
        community_min_size=community_min_size,
        time_field=time_field,
        formats=frozenset(f.strip() for f in formats.split(",") if f.strip()),
        out_dir=out_dir,
    ))
    commits = result.summary["commits"]
    click.echo(
        f"analyzed {commits['analyzed']} commits across "
        f"{len(result.summary['windows'])} releases; "
        f"wrote {len(result.files_written)} files to {out_dir}"
    )


def _write_replacing(path: Path, text: str) -> None:
    """Write text to a sibling temp file that replaces path only once it is whole.

    On any error the temp file is removed and path is left as it was.
    """
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", dir=path.parent)
    try:
        with open(fd, "w", encoding="utf-8") as out:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(out.fileno(), 0o666 & ~umask)  # the mode a new file gets, not mkstemp's 0600
            out.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@main.command()
@click.option("--raw", "raw_path", required=True, type=click.Path(path_type=Path))
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path))
def convert(raw_path, out_path):
    """Convert raw extraction-recipe output to the canonical NDJSON log."""
    with open(raw_path, encoding="utf-8", newline="") as raw:
        ndjson, merges_dropped = convert_vcs_log(raw)
    _write_replacing(out_path, ndjson)
    records = ndjson.count("\n")  # json.dumps escapes every newline inside a record
    click.echo(f"wrote {records} records ({merges_dropped} merge commits dropped)")


@main.command()
@click.option("--log", "log_path", required=True, type=click.Path(path_type=Path))
def validate(log_path):
    """Parse a commit log and report acceptance, rejections, and fixes."""
    report = ValidationReport()
    with open(log_path, encoding="utf-8") as log:
        for _ in iter_commits(log, report):
            pass
    click.echo(f"accepted: {report.accepted}")
    click.echo(f"rejected: {len(report.rejected)}")
    for line_number, reason in report.rejected:
        click.echo(f"  line {line_number}: {reason}")
    click.echo(f"cleaned: {len(report.cleaned)}")
    for sha, fix in report.cleaned:
        click.echo(f"  {sha[:12]}: {fix}")


if __name__ == "__main__":
    main()
