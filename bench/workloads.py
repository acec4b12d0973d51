"""Seeded input generator and independent expectations for the benchmark.

Each workload is a :class:`Spec`.  :func:`generate` writes the inputs that
``coopnet analyze`` reads into a directory and returns the command-line
arguments together with the run summary the program must produce, which is
derived here from the generator's own ground truth (who committed what,
when, for which firm) and not from coopnet's code.

Run as a script, ``python bench/workloads.py NAME SEED DIR`` writes the
inputs into DIR and prints the :class:`Workload` as JSON.  The benchmark
generates in such a child process, so that the generator's memory never
adds to the peak RSS the benchmark reads for its analyze children.

Only inputs whose acceptance no planned ingest change can alter are
emitted: every SHA is unique, every timestamp is a whole second in UTC
with a ``Z`` suffix, and malformed lines are limited to kinds that any
version of the parser rejects (unknown field, bad SHA, empty file list).
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from itertools import accumulate
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

RELEASE_DAYS = 14
FIRST_RELEASE = datetime(2020, 1, 15, 23, 59, 59, tzinfo=timezone.utc)
_GOLDEN = 0.6180339887498949
_PLASTIC = 0.7548776662466927
HUB_FILES = ("ChangeLog", "requirements.txt", "docs/NEWS.rst", "setup.cfg")


@dataclass(frozen=True)
class Spec:
    """Shape of one workload; every count is exact, every share a probability."""

    developers: int
    firms: int
    commits: int
    files: int
    zipf: float  # file popularity exponent; 0 is flat
    files_per_commit: tuple[int, int]
    hub_files: int  # how many of HUB_FILES exist
    hub_share: float  # chance that a commit also touches one hub file
    releases: int
    post_release_share: float
    malformed_share: float
    unaffiliated_share: float  # developers on a domain without a rule
    invalid_email_share: float  # developers whose address has no "@"
    override_share: float  # developers on a personal domain pinned by [emails]
    alias_share: float  # developers committing under two addresses
    mailmap_groups: int  # alias groups of addresses that never commit
    bots: int
    bot_share: float  # share of commits made by bots
    filter_firms: int  # 0 means no --firms filter
    streams: int  # revenue streams; 0 means no --revenue-models
    formats: str  # --formats value; "" leaves the default (all formats)


WORKLOADS: dict[str, Spec] = {
    # Few developers sharing popular and hub files: every window is close
    # to a clique, so triangle counting in the backbone and graph export
    # dominate.
    "dense-core": Spec(
        developers=300, firms=8, commits=6_000, files=3_000, zipf=1.1,
        files_per_commit=(1, 4), hub_files=4, hub_share=0.12, releases=8,
        post_release_share=0.01, malformed_share=0.005, unaffiliated_share=0.05,
        invalid_email_share=0.0, override_share=0.02, alias_share=0.03,
        mailmap_groups=20, bots=2, bot_share=0.01, filter_firms=0, streams=4,
        formats="",
    ),
    # Many developers touching a huge flat file space: graphs are very
    # sparse, so parsing, slicing, graph build and many small writes dominate.
    "sparse-wide": Spec(
        developers=30_000, firms=20, commits=120_000, files=200_000, zipf=0.0,
        files_per_commit=(1, 4), hub_files=0, hub_share=0.0, releases=40,
        post_release_share=0.01, malformed_share=0.01, unaffiliated_share=0.2,
        invalid_email_share=0.01, override_share=0.0, alias_share=0.01,
        mailmap_groups=0, bots=5, bot_share=0.02, filter_firms=0, streams=3,
        formats="",
    ),
    # Many firms, a firm filter, many revenue streams and a mailmap-sized
    # alias config, writing tables only: coopetition and identity resolution
    # dominate and no graph file is written.
    "firm-mix": Spec(
        developers=2_000, firms=60, commits=14_000, files=6_000, zipf=0.7,
        files_per_commit=(1, 5), hub_files=2, hub_share=0.02, releases=10,
        post_release_share=0.01, malformed_share=0.005, unaffiliated_share=0.05,
        invalid_email_share=0.005, override_share=0.05, alias_share=0.05,
        mailmap_groups=2_500, bots=3, bot_share=0.01, filter_firms=40, streams=30,
        formats="csv,json",
    ),
}


@dataclass(frozen=True)
class Workload:
    """Generated inputs: the analyze arguments and what the run must report."""

    args: list[str]  # analyze options, without --out
    expected: dict  # subset of run_summary.json the program must reproduce
    # Developer pairs one co-file pass enumerates, summed over windows: a
    # constant of the input, computed here and not measured in the program.
    pairs_enumerated: int


def _sha(seed_text: str, index: int) -> str:
    return hashlib.sha1(f"{seed_text}:{index}".encode()).hexdigest()


def _stamp(ts: datetime) -> str:
    return ts.strftime("%Y-%m-%dT%H:%M:%SZ")


def _file_name(rank: int) -> str:
    return f"src/pkg{rank // 64:04d}/mod{rank:06d}.py"


@dataclass
class _Developer:
    emails: tuple[str, ...]  # addresses used in commits
    firm: str | None  # None when excluded (invalid address)
    canonical: str


def generate(name: str, seed: int, out_dir: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``out_dir``."""
    spec = WORKLOADS[name]
    seed_text = f"{name}:{seed}"
    rng = random.Random(seed_text)
    out_dir.mkdir(parents=True, exist_ok=True)

    firms = [f"Firm{i:02d}" for i in range(spec.firms)]
    domains = {firm: f"{firm.lower()}.example" for firm in firms}
    domain_lines = [f"{domains[firm]} = {firm}" for firm in firms]
    override_lines: list[str] = []
    alias_lines: list[str] = []

    # The developer population does not depend on the seed: which developer
    # is busy, excluded or in which firm would otherwise swing the amount of
    # work between seeds.  Low-discrepancy rolls spread each kind evenly.
    developers: list[_Developer] = []
    for i in range(spec.developers):
        firm = firms[i % len(firms)]
        roll = ((i + 1) * _GOLDEN) % 1.0
        if roll < spec.invalid_email_share:
            email = f"dev{i}-at-{domains[firm]}"
            developers.append(_Developer((email,), None, email))
            continue
        roll -= spec.invalid_email_share
        if roll < spec.unaffiliated_share:
            firm, email = "Unaffiliated", f"dev{i}@home{i % 97}.test"
        elif roll < spec.unaffiliated_share + spec.override_share:
            email = f"dev{i}@personal.test"
            override_lines.append(f"{email} = {firm}")
        else:
            email = f"dev{i}@{domains[firm]}"
        emails: tuple[str, ...] = (email,)
        if ((i + 1) * _PLASTIC) % 1.0 < spec.alias_share:
            alt = f"old.dev{i}@freemail.test"
            emails = (email, alt)
            alias_lines.append(f"{email}, {alt}")
        developers.append(_Developer(emails, firm, min(emails)))
    for k in range(spec.mailmap_groups):
        domain = domains[firms[k % len(firms)]]
        alias_lines.append(f"ghost{k}@{domain}, ghost{k}.old@{domain}, g{k}@freemail.test")
    bot_emails = [f"ci-bot{k}@{domains[firms[k % len(firms)]]}" for k in range(spec.bots)]

    # Developer activity is skewed: a few regulars make most commits.  Each
    # developer's commit count is fixed; the seed only orders the commits.
    authors = _apportion([1.0 / (i + 1) ** 0.6 for i in range(len(developers))], spec.commits)
    rng.shuffle(authors)
    file_cum = list(accumulate(1.0 / (rank + 1) ** spec.zipf for rank in range(spec.files)))
    hubs = HUB_FILES[: spec.hub_files]

    releases = [FIRST_RELEASE + timedelta(days=RELEASE_DAYS * r) for r in range(spec.releases)]
    window_seconds = RELEASE_DAYS * 86_400
    filter_set = set(firms[: spec.filter_firms]) if spec.filter_firms else None

    lines: list[str] = []
    accepted = rejected = excluded = post_release = 0
    identities: set[str] = set()
    firms_seen: set[str] = set()
    window_commits = [0] * spec.releases
    # window -> file -> developer indices (kept developers only)
    touched: list[dict[str, set[int]]] = [{} for _ in range(spec.releases)]
    window_nodes: list[set[int]] = [set() for _ in range(spec.releases)]
    lo, hi = spec.files_per_commit

    for index in range(spec.commits):
        sha = _sha(seed_text, index)
        if rng.random() < spec.post_release_share:
            window = None
            ts = releases[-1] + timedelta(seconds=rng.randrange(1, window_seconds))
        else:
            window = rng.randrange(spec.releases)
            ts = releases[window] - timedelta(seconds=rng.randrange(window_seconds))
        ranks = set(rng.choices(range(spec.files), cum_weights=file_cum, k=rng.randint(lo, hi)))
        files = {_file_name(r) for r in ranks}
        if hubs and rng.random() < spec.hub_share:
            files.add(rng.choice(hubs))
        bot = rng.random() < spec.bot_share
        if bot:
            dev_index, email = -1, rng.choice(bot_emails)
        else:
            dev_index = authors[index]
            email = rng.choice(developers[dev_index].emails)
        record = {
            "sha": sha,
            "author_name": f"Developer {dev_index}" if not bot else "CI",
            "author_email": email,
            "timestamp": _stamp(ts),
            "files": sorted(files),
        }
        if rng.random() < spec.malformed_share:
            kind = rng.randrange(3)
            if kind == 0:
                record["branch"] = "main"
            elif kind == 1:
                record["sha"] = "z" + sha[1:]
            else:
                record["files"] = []
            lines.append(json.dumps(record))
            rejected += 1
            continue
        lines.append(json.dumps(record))
        accepted += 1
        if bot or developers[dev_index].firm is None:
            excluded += 1
            continue
        dev = developers[dev_index]
        identities.add(dev.canonical)
        firms_seen.add(dev.firm)
        if window is None:
            post_release += 1
            continue
        window_commits[window] += 1
        if filter_set is not None and dev.firm not in filter_set:
            continue
        window_nodes[window].add(dev_index)
        per_file = touched[window]
        for path in files:
            per_file.setdefault(path, set()).add(dev_index)

    (out_dir / "commits.ndjson").write_text("\n".join(lines) + "\n", encoding="utf-8")
    release_names = [f"r{r + 1:02d}" for r in range(spec.releases)]
    (out_dir / "releases.csv").write_text(
        "name,date\n"
        + "".join(f"{n},{d.strftime('%Y-%m-%d')}\n" for n, d in zip(release_names, releases)),
        encoding="utf-8",
    )
    sections = [
        "[domains]", *domain_lines,
        "[emails]", *override_lines,
        "[aliases]", *alias_lines,
        "[bots]", *bot_emails,
    ]
    (out_dir / "affiliations.ini").write_text("\n".join(sections) + "\n", encoding="utf-8")

    args = [
        "--log", str(out_dir / "commits.ndjson"),
        "--releases", str(out_dir / "releases.csv"),
        "--affiliations", str(out_dir / "affiliations.ini"),
    ]
    if filter_set is not None:
        (out_dir / "firms.txt").write_text("".join(f"{f}\n" for f in sorted(filter_set)))
        args += ["--firms", str(out_dir / "firms.txt")]
        universe = set(filter_set)
    else:
        universe = firms_seen - {"Unaffiliated"}
    if spec.streams:
        pool = sorted(universe)
        rows = []
        for s in range(spec.streams):
            for firm in sorted(rng.sample(pool, rng.randint(1, max(1, len(pool) // 2)))):
                rows.append(f"stream{s:02d},{firm}\n")
        (out_dir / "revenue.csv").write_text("stream,firm\n" + "".join(rows), encoding="utf-8")
        args += ["--revenue-models", str(out_dir / "revenue.csv")]
    if spec.formats:
        args += ["--formats", spec.formats]

    windows = []
    pairs = 0
    merged_adj: dict[int, int] = {}
    merged_nodes: set[int] = set()
    for w in range(spec.releases):
        adj: dict[int, int] = {}
        for devs in touched[w].values():
            k = len(devs)
            if k < 2:
                continue
            pairs += k * (k - 1) // 2
            mask = 0
            for d in devs:
                mask |= 1 << d
            for d in devs:
                adj[d] = adj.get(d, 0) | mask
        edges = sum((bits & ~(1 << d)).bit_count() for d, bits in adj.items()) // 2
        for d, bits in adj.items():
            merged_adj[d] = merged_adj.get(d, 0) | bits
        merged_nodes |= window_nodes[w]
        windows.append({
            "release": release_names[w],
            "commits": window_commits[w],
            "nodes": len(window_nodes[w]),
            "edges": edges,
        })
    merged_edges = sum((bits & ~(1 << d)).bit_count() for d, bits in merged_adj.items()) // 2

    expected = {
        "commits": {
            "accepted": accepted,
            "rejected": rejected,
            "excluded": excluded,
            "post_release": post_release,
            "analyzed": sum(window_commits),
        },
        "identities": len(identities),
        "firms": sorted(universe),
        "windows": windows,
        "merged": {"nodes": len(merged_nodes), "edges": merged_edges},
    }
    return Workload(
        args=args,
        expected=expected,
        pairs_enumerated=pairs,
    )


def _apportion(weights: list[float], total: int) -> list[int]:
    """Indices repeated in proportion to their weights, ``total`` in all."""
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(len(weights)), key=lambda i: counts[i] - weights[i] * scale)
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return [i for i, n in enumerate(counts) for _ in range(n)]


def summary_mismatches(summary: dict, expected: dict) -> list[str]:
    """Fields of run_summary.json that differ from the generator's expectation."""
    problems = []
    for key in ("commits", "identities", "firms", "merged"):
        actual = summary.get(key)
        want = expected[key]
        if isinstance(want, dict) and isinstance(actual, dict):
            actual = {k: actual.get(k) for k in want}
        if actual != want:
            problems.append(f"{key}: expected {want}, got {actual}")
    actual_windows = [
        {k: w.get(k) for k in ("release", "commits", "nodes", "edges")}
        for w in summary.get("windows", [])
    ]
    if actual_windows != expected["windows"]:
        problems.append("windows: per-release commits, nodes or edges differ")
    return problems


if __name__ == "__main__":
    _name, _seed, _out = sys.argv[1:]
    print(json.dumps(asdict(generate(_name, int(_seed), Path(_out)))))
