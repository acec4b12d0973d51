"""Benchmark for ``coopnet analyze`` on seeded synthetic workloads.

Usage (from the repository root):

    python3 bench/run.py --workload dense-core --seed 1 --seconds 40 --trace 0

The workload's inputs are generated from the seed into a scratch directory
(``.bench_work/``, removed afterwards) by a separate generator process, then
``python -m coopnet.cli analyze`` runs as a fresh child process, one at a
time, until the time is up. With ``--trace 0`` the end-to-end metrics of
BENCHMARK.json are reported; with ``--trace 1`` untraced runs alternate with
runs under ``traced_cli.py`` and the per-layer metrics are reported. Every
run's outputs are checked: against the generator's expected run summary,
against the first run's output tree, and at the default seed against the
per-file digests in ``bench/digests.json``. The bundled fixture must
reproduce ``tests/data/golden/`` byte for byte.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-digests`` runs the workload once at the default seed and stores
its per-file digests; use it only when an intended output change lands.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "data" / "fixture"
GOLDEN = ROOT / "tests" / "data" / "golden"
DIGESTS = BENCH_DIR / "digests.json"
SPEC_FILE = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_work"

DEFAULT_SEED = 1
MIN_RUNS = 3
# Import-only spawns per analyze run; one spawn varies by about +-12%,
# so setup_s is the median over many of them.
SETUP_SPAWNS_PER_RUN = 6
CHILD_TIMEOUT_S = 100
GENERATE_TIMEOUT_S = 120


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def _on_term(signum, frame):
    sys.exit(128 + signum)  # unwinds through spawn, which stops the running child


@dataclass
class Child:
    wall_s: float
    rss_mib: float
    code: int


def spawn(argv: list[str], env: dict, log: Path) -> Child:
    """Run one child to completion; wall time from spawn to exit, peak RSS from wait4.

    A child's peak RSS starts from this process's own peak, which the exec
    carries over, so this process must stay smaller than any analyze run.
    """
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=sink, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return Child(wall, usage.ru_maxrss / 1024, proc.returncode)


def tree_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under root, keyed by POSIX relative path."""
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            with open(path, "rb") as stream:
                digests[path.relative_to(root).as_posix()] = hashlib.file_digest(
                    stream, "sha256").hexdigest()
    return digests


def own_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def compare_digests(actual: dict[str, str], recorded: dict[str, str]) -> tuple[list[str], list[str]]:
    """(problems, extra files).  A file only in ``actual`` is extra, not a problem."""
    problems = []
    for name, digest in sorted(recorded.items()):
        if name not in actual:
            problems.append(f"{name}: missing")
        elif actual[name] != digest:
            problems.append(f"{name}: content differs")
    extra = sorted(set(actual) - set(recorded))
    return problems, extra


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Bench:
    """One benchmark invocation: a workload, its scratch directory and tallies."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.extra_files: set[str] = set()
        self.generated: workloads.Workload | None = None
        self.reference: dict[str, str] | None = None
        self.recorded: dict[str, str] | None = None

    def _record(self, ok: bool, problems: list[str]) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.extend(problems[:5])

    # -- correctness -------------------------------------------------------

    def check_golden(self) -> bool:
        out = self.work / "fixture-out"
        args = [
            "--log", str(FIXTURE / "commits.ndjson"),
            "--releases", str(FIXTURE / "releases.csv"),
            "--affiliations", str(FIXTURE / "affiliations.ini"),
            "--firms", str(FIXTURE / "firms.txt"),
            "--revenue-models", str(FIXTURE / "revenue.csv"),
            "--out", str(out),
        ]
        child = spawn([sys.executable, "-m", "coopnet.cli", "analyze", *args], self.env,
                      self.work / "fixture.log")
        problems = [f"golden fixture: exit code {child.code}"] if child.code != 0 else []
        if not problems:
            mismatches, _ = compare_digests(tree_digests(out), tree_digests(GOLDEN))
            problems = [f"golden fixture: {m}" for m in mismatches]
        self._record(not problems, problems)
        return not problems

    def check_run(self, child: Child, out: Path) -> list[str]:
        if child.code != 0:
            log = (self.work / "analyze.log").read_text(errors="replace").strip()
            return [f"exit code {child.code}: {log[-300:]}"]
        digests = tree_digests(out)
        problems = []
        try:
            summary = json.loads((out / "run_summary.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"run_summary.json unreadable: {exc}")
        else:
            problems += workloads.summary_mismatches(summary, self.generated.expected)
        if self.recorded is not None:
            mismatches, extra = compare_digests(digests, self.recorded)
            problems += [f"recorded digest: {m}" for m in mismatches]
            self.extra_files.update(extra)
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            differing = sorted(k for k in digests.keys() | self.reference.keys()
                               if digests.get(k) != self.reference.get(k))
            problems.append(f"outputs differ from the first run: {', '.join(differing[:5])}")
        return problems

    # -- runs --------------------------------------------------------------

    def generate(self) -> workloads.Workload:
        """Generate the inputs in a child process, keeping this one small."""
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "workloads.py"), self.workload, str(self.seed),
             str(self.work / "inputs")],
            stdout=subprocess.PIPE, check=True, timeout=GENERATE_TIMEOUT_S, cwd=ROOT,
        )
        self.generated = workloads.Workload(**json.loads(done.stdout))
        return self.generated

    def analyze(self, spans: Path | None = None) -> tuple[Child, Path, bool]:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        if spans is None:
            prefix = [sys.executable, "-m", "coopnet.cli"]
        else:
            prefix = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans)]
        argv = [*prefix, "analyze", *self.generated.args, "--out", str(out)]
        child = spawn(argv, self.env, self.work / "analyze.log")
        problems = self.check_run(child, out)
        self._record(not problems, [f"attempt {self.attempted + 1}: {p}" for p in problems])
        return child, out, not problems

    def setup_sample(self) -> float:
        child = spawn([sys.executable, "-c", "import coopnet.cli"], self.env,
                      self.work / "setup.log")
        if child.code != 0:
            self._record(False, [f"import coopnet.cli: exit code {child.code}"])
        return child.wall_s


def measure(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics: interleaved import-only spawns and analyze runs."""
    walls, rss, setups = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        cycle_start = time.perf_counter()
        for _ in range(SETUP_SPAWNS_PER_RUN):
            setups.append(bench.setup_sample())
        child, _, _ = bench.analyze()
        walls.append(child.wall_s)
        rss.append(child.rss_mib)
        now = time.perf_counter()
        if len(walls) >= MIN_RUNS and now + (now - cycle_start) > deadline:
            break
    wall = statistics.median(walls)
    analyzed = bench.generated.expected["commits"]["analyzed"]
    rows = [
        ("wall_s", wall, "s", f"median of {len(walls)} runs, quartiles %.4f..%.4f" % _quartiles(walls)),
        ("commits_per_s", analyzed / wall, "1/s", f"{analyzed} analyzed commits / median wall_s"),
        ("peak_rss_mib", statistics.median(rss), "MiB",
         f"median of {len(rss)} runs, quartiles %.1f..%.1f" % _quartiles(rss)
         + f"; the benchmark process's own peak is {own_peak_rss_mib():.1f} MiB"),
        ("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)} import-only spawns, quartiles %.4f..%.4f" % _quartiles(setups)),
        ("fail_rate", bench.failed / bench.attempted, "ratio",
         f"{bench.failed} of {bench.attempted} runs failed ({len(walls)} analyze runs "
         "and the fixture run)"),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<15} {value:>14.6g} {unit:<6} {note}")
    return {name: value for name, value, _, _ in rows}


# Per-layer time, for naming the busiest layer: top-level spans only.
LAYER_TIMES = {
    "ingest": ("ingest.parse_s",),
    "identity": ("identity.load_s", "identity.canonicalize_s"),
    "slicing": ("slicing.load_s", "slicing.assign_s"),
    "graph": ("graph.build_s", "graph.merge_s"),
    "backbone": ("backbone.extract_s", "backbone.communities_s"),
    "metrics": ("metrics.homophily_s", "metrics.evolution_s"),
    "coopetition": ("coopetition.compare_s",),
    "report": ("report.graphml_s", "report.dot_s", "report.tables_s", "report.write_s",
               "report.self_s"),
}


def layer_metrics(spans_path: Path, out: Path, generated: workloads.Workload) -> dict[str, float]:
    """Per-layer metrics of one traced run (times in seconds, counts exact)."""
    spans, counts, _ = tracer.load_spans(spans_path)
    totals = tracer.summarize(spans)

    def stat(name: str, key: str = "total_s", module: str = "coopnet.report") -> float:
        return totals.get(f"{module}.{name}", {}).get(key, 0)

    def count(name: str, key: str, module: str = "coopnet.report") -> int:
        return counts.get(f"{module}.{name}", {}).get(key, 0)

    summary = json.loads((out / "run_summary.json").read_text(encoding="utf-8"))
    accepted, rejected = summary["commits"]["accepted"], summary["commits"]["rejected"]
    window_edges = sum(w["edges"] for w in summary["windows"])
    # A constant of the input, from the generator: no hook sees the pairs the
    # program enumerates, so this and edge_yield do not move with the code.
    pairs = generated.pairs_enumerated
    edges_in = count("extract_backbone", "edges_in")
    edges_kept = count("extract_backbone", "edges_kept")
    files = [p for p in out.rglob("*") if p.is_file()]
    return {
        "ingest.parse_s": stat("parse_commit_log"),
        "ingest.lines": accepted + rejected,
        "ingest.rejected": rejected,
        "ingest.accept_ratio": accepted / (accepted + rejected),
        "identity.load_s": stat("load_affiliation_map"),
        "identity.canonicalize_s": stat("canonicalize_identities"),
        "identity.alias_groups": count("load_affiliation_map", "alias_groups"),
        "identity.identities": summary["identities"],
        "identity.excluded": summary["commits"]["excluded"],
        "slicing.load_s": stat("load_releases"),
        "slicing.assign_s": stat("assign_release"),
        "slicing.assign_calls": stat("assign_release", "calls"),
        "graph.build_s": stat("build_collaboration_graph"),
        "graph.merge_s": stat("merge_graphs"),
        "graph.pairs_enumerated": pairs,
        "graph.edges": window_edges,
        "graph.edge_yield": window_edges / pairs if pairs else 0.0,
        "graph.adjacency_builds": stat("CollaborationGraph.neighbors", "calls", "coopnet.graph"),
        "backbone.extract_s": stat("extract_backbone"),
        "backbone.embeddedness_s": stat("edge_embeddedness", module="coopnet.backbone"),
        "backbone.communities_s": stat("detect_subcommunities"),
        "backbone.edges_in": edges_in,
        "backbone.edges_kept": edges_kept,
        "backbone.keep_ratio": edges_kept / edges_in if edges_in else 0.0,
        "metrics.homophily_s": stat("homophily_report"),
        "metrics.evolution_s": stat("evolution_series"),
        "coopetition.compare_s": stat("compare_revenue_stream"),
        "coopetition.induced_s": stat("induced_by_firms", module="coopnet.coopetition"),
        "coopetition.compare_calls": stat("compare_revenue_stream", "calls"),
        "coopetition.edges_scanned": count("induced_by_firms", "edges_scanned",
                                           "coopnet.coopetition"),
        "report.graphml_s": stat("export_graphml"),
        "report.dot_s": stat("export_dot"),
        "report.tables_s": sum(stat(n) for n in ("evolution_csv", "homophily_csv",
                                                  "comparisons_csv", "_json_text")),
        "report.write_s": stat("Path.write_text", module="pathlib"),
        "report.files_written": len(files),
        "report.bytes_written": sum(p.stat().st_size for p in files),
        "report.self_s": stat("run_pipeline", "self_s"),
    }


def measure_traced(bench: Bench, seconds: float) -> dict | None:
    """Per-layer metrics: untraced and traced runs alternate, traced outputs checked.

    None when no traced run succeeded, since there is nothing to report.
    """
    plain, traced, samples = [], [], []
    spans = bench.work / "spans.json"
    deadline = time.perf_counter() + seconds
    while True:
        cycle_start = time.perf_counter()
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for with_trace in order:
            child, out, ok = bench.analyze(spans if with_trace else None)
            if not with_trace:
                plain.append(child.wall_s)
                continue
            traced.append(child.wall_s)
            if ok:
                samples.append(layer_metrics(spans, out, bench.generated))
        now = time.perf_counter()
        if len(traced) >= MIN_RUNS and now + (now - cycle_start) > deadline:
            break
    if not samples:
        return None
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    for name in tracer.load_spans(spans)[2]:
        print(f"  absent: {name} (not found; its layer reads as 0 calls)")
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>16.6g}")
    wall = statistics.median(traced)
    shares = {layer: sum(metrics[n] for n in names) / wall for layer, names in LAYER_TIMES.items()}
    ranked = sorted(shares.items(), key=lambda kv: -kv[1])
    print(f"  traced wall {wall:.4f} s (median of {len(traced)}), untraced "
          f"{statistics.median(plain):.4f} s (median of {len(plain)})")
    print("  layer share of traced wall: "
          + ", ".join(f"{layer} {share:.0%}" for layer, share in ranked))
    return metrics


def _load_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


def record_digests(bench: Bench) -> int:
    child, out, ok = bench.analyze()
    if not ok:
        print("\n".join(bench.problems), file=sys.stderr)
        return 1
    recorded = _load_digests()
    recorded[bench.workload] = tree_digests(out)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded[bench.workload])} digests for {bench.workload}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    required = [SPEC_FILE, SRC / "coopnet" / "cli.py", FIXTURE, GOLDEN]
    missing = [str(p.relative_to(ROOT)) for p in required if not p.exists()]
    if missing:
        print(f"error: not a coopnet checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    seed = DEFAULT_SEED if args.record_digests else args.seed
    recorded = _load_digests().get(args.workload)
    if seed == DEFAULT_SEED and recorded is None and not args.record_digests:
        print(f"error: {DIGESTS.name} has no digests for {args.workload}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        bench = Bench(args.workload, seed, work)
        generated = bench.generate()
        if args.record_digests:
            return record_digests(bench)
        if seed == DEFAULT_SEED:
            bench.recorded = recorded
        golden_ok = bench.check_golden()
        commits = generated.expected["commits"]
        print(f"coopnet analyze, workload {args.workload}, seed {seed}: "
              f"{commits['accepted'] + commits['rejected']} log lines, "
              f"{commits['analyzed']} commits to analyze")
        print(f"  golden fixture: {'ok' if golden_ok else 'MISMATCH'}")
        if args.trace:
            values = measure_traced(bench, args.seconds)
            wanted = spec["per_layer"]
        else:
            values = measure(bench, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another invocation still uses it
    if bench.extra_files:
        print(f"  files not in the recorded digests (allowed): {', '.join(sorted(bench.extra_files))}")
    for problem in bench.problems:
        print(f"  FAILED {problem}")
    if values is None:
        print("error: no traced run succeeded", file=sys.stderr)
        return 1
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
