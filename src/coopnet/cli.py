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
from .ingest import InputError, ValidationReport, convert_vcs_log, iter_commits
from .report import FORMATS, RunConfig, run_pipeline

EXIT_CONFIG = 2
EXIT_IO = 3

# a missing or undecodable input file is a configuration problem, not an I/O failure
_CONFIG_ERRORS = (InputError, FileNotFoundError, UnicodeDecodeError)


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
@click.option("--log", "commit_log", required=True, type=click.Path(path_type=Path))
@click.option("--releases", required=True, type=click.Path(path_type=Path))
@click.option("--affiliations", required=True, type=click.Path(path_type=Path))
@click.option("--firms", type=click.Path(path_type=Path))
@click.option("--revenue-models", type=click.Path(path_type=Path))
@click.option("--backbone-k", "max_rank_k", type=click.IntRange(min=1),
              default=BackboneParams.max_rank_k, show_default=True)
@click.option("--backbone-min-embeddedness", "min_embeddedness", type=click.IntRange(min=0),
              default=BackboneParams.min_embeddedness, show_default=True)
@click.option("--community-min-size", type=click.IntRange(min=1),
              default=RunConfig.community_min_size, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path))
@click.option("--formats", default=",".join(FORMATS), show_default=True,
              help=f"Comma-separated subset of {','.join(FORMATS)}.")
def analyze(max_rank_k, min_embeddedness, formats, **options):
    """Run the full pipeline and write analysis artifacts."""
    result = run_pipeline(RunConfig(
        backbone=BackboneParams(max_rank_k, min_embeddedness),
        formats=frozenset(f.strip() for f in formats.split(",") if f.strip()),
        **options,
    ))
    commits = result.summary["commits"]
    click.echo(
        f"analyzed {commits['analyzed']} commits across "
        f"{len(result.summary['windows'])} releases; "
        f"wrote {len(result.files_written)} files to {options['out_dir']}"
    )


def _write_replacing(path: Path, text: str) -> None:
    """Write text to a new file that replaces path only once it is whole.

    The file is made in a private sibling directory, so it gets the mode
    any new file gets; on any error the directory is removed with it and
    path is left as it was.
    """
    with tempfile.TemporaryDirectory(prefix=f".{path.name}.", dir=path.parent) as staging:
        new = Path(staging, path.name)
        new.write_text(text, encoding="utf-8")
        os.replace(new, path)


@main.command()
@click.option("--raw", "raw_path", required=True, type=click.Path(path_type=Path))
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path))
def convert(raw_path, out_path):
    """Convert raw extraction-recipe output to the canonical NDJSON log."""
    if out_path.resolve() == raw_path.resolve():
        raise InputError(f"--out must not be the --raw input: {out_path}")
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
