"""Span recording around coopnet's layers, installed from outside ``src/``.

:class:`Tracer` replaces functions by attribute name with wrappers that
record one span (name, start, end, parent) per call in memory.  The
targets are the names ``run_pipeline`` and its callees look up at call
time, so wrapping the attribute is enough to see every call.  A target
that no longer exists is reported as absent and measured as zero calls,
so the traced run keeps working when a later change renames or deletes a
function.  :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections.abc import Callable
from pathlib import Path


def _edges(graph) -> int:
    return len(graph.edges)


# (module, attribute path, count hook).  A hook maps (args, result) to
# counts, taken after the span has ended.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("coopnet.report", "run_pipeline", None),
    ("coopnet.report", "parse_commit_log", None),
    ("coopnet.report", "load_affiliation_map",
     lambda args, result: {"alias_groups": len(result.alias_groups)}),
    ("coopnet.report", "canonicalize_identities", None),
    ("coopnet.report", "load_releases", None),
    ("coopnet.report", "assign_release", None),
    ("coopnet.report", "build_collaboration_graph", None),
    ("coopnet.report", "merge_graphs", None),
    ("coopnet.report", "extract_backbone",
     lambda args, result: {"edges_in": _edges(args[0]), "edges_kept": _edges(result)}),
    ("coopnet.backbone", "edge_embeddedness", None),
    ("coopnet.report", "detect_subcommunities", None),
    ("coopnet.graph", "CollaborationGraph.neighbors", None),
    ("coopnet.report", "homophily_report", None),
    ("coopnet.report", "evolution_series", None),
    ("coopnet.report", "compare_revenue_stream", None),
    ("coopnet.coopetition", "induced_by_firms",
     lambda args, result: {"edges_scanned": _edges(args[0])}),
    ("coopnet.report", "export_graphml", None),
    ("coopnet.report", "export_dot", None),
    ("coopnet.report", "evolution_csv", None),
    ("coopnet.report", "homophily_csv", None),
    ("coopnet.report", "comparisons_csv", None),
    ("coopnet.report", "_json_text", None),
    ("pathlib", "Path.write_text", None),
)


class Tracer:
    """Records spans around the functions named in ``targets``."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, dict[str, int]] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr_path, hook in self.targets:
            name = f"{module_name}.{attr_path}"
            owner, attr = _resolve_owner(module_name, attr_path)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                try:
                    found = hook(args, result)
                except (AttributeError, TypeError, IndexError):
                    found = {}  # the signature changed: the count is absent
                bucket = counts.setdefault(name, {})
                for key, value in found.items():
                    bucket[key] = bucket.get(key, 0) + value
            return result

        return traced

    def dump(self, path: Path) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "names": names,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
            "counts": self.counts,
            "absent": self.absent,
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _resolve_owner(module_name: str, attr_path: str):
    """The object holding the last attribute of ``attr_path``, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, attr_path
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


def load_spans(path: Path) -> tuple[list[tuple[str, float, float, int]], dict, list[str]]:
    """Read a dump back as (spans, counts, absent)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    names = payload["names"]
    spans = [(names[n], s, e, p) for n, s, e, p in payload["spans"]]
    return spans, payload["counts"], payload["absent"]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total time, and self time.

    Self time is a span's duration minus the durations of its child spans.
    The traced program runs on one thread, so sibling spans never overlap.
    """
    child_time: dict[int, float] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
    totals: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time.get(i, 0.0)
    return totals
