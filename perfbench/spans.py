"""Timing wrappers installed from outside the package, and the spans they record.

`Recorder.install` replaces each traced function with a wrapper at every
module attribute that holds it, so the names bound by `from .policy
import enforce` (in `levelup`, `levelup.frontier`, ...) are traced too.
Nothing inside the package changes; `Recorder.uninstall` puts every
original back.  Spans stay in memory and are written out at the end.

A span's self time is its duration minus the durations of its direct
children.  The program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field

# (module, function, span name).  The span name is the layer metric prefix.
TRACED = (
    ("levelup.data", "load_csv", "data.load_csv"),
    ("levelup.data", "split", "data.split"),
    ("levelup.data", "synth_generate", "data.synth_generate"),
    ("levelup.scoring", "fit", "scoring.fit"),
    ("levelup.scoring", "predict", "scoring.predict"),
    ("levelup.scoring", "read_scores_csv", "scoring.read_scores_csv"),
    ("levelup.scoring", "write_scores_csv", "scoring.write_scores_csv"),
    ("levelup.metrics", "confusion", "metrics.confusion"),
    ("levelup.metrics", "group_metrics", "metrics.group_metrics"),
    ("levelup.metrics", "disparity", "metrics.disparity"),
    ("levelup.policy", "enforce", "policy.enforce"),
    ("levelup.policy", "partial_level_up", "policy.level_up"),
    ("levelup.policy", "full_level_up", "policy.level_up"),
    ("levelup.frontier", "equality_frontier", "frontier.frontier"),
    ("levelup.frontier", "mrc_frontier", "frontier.frontier"),
    ("levelup.frontier", "frontier_to_jsonl", "frontier.frontier_to_jsonl"),
    ("levelup.frontier", "frontier_to_tsv", "frontier.frontier_to_tsv"),
    ("levelup.audit", "build_report", "audit.build_report"),
    ("levelup.audit", "render_text", "audit.render_text"),
    ("levelup.audit", "save_report", "audit.save_report"),
    ("levelup.cli", "main", "cli.main"),
)


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    error: str = ""
    # What the call was given and returned; read after the run, never timed.
    args: tuple = ()
    result: object = None
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Span recorder for one process; wrappers share its parent stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = Span(name, parent, 0.0, args=args)
            spans.append(span)
            if parent >= 0:
                spans[parent].children.append(idx)
            stack.append(idx)
            span.start = clock()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every TRACED function at every levelup attribute bound to it."""
        if self._installed:
            raise RuntimeError("wrappers already installed")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "levelup" or key.startswith("levelup."))
        ]
        for mod_name, attr, span_name in TRACED:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed.clear()

    def mark(self) -> int:
        return len(self.spans)

    def write_jsonl(self, path) -> None:
        """One line per span: name, parent index, start, end, error."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, "error": s.error,
                }) + "\n")


def self_time(spans: list[Span], idx: int) -> float:
    span = spans[idx]
    return span.duration - sum(spans[c].duration for c in span.children)


def layer_metrics(lv, spans: list[Span], lo: int, hi: int, sizes) -> dict:
    """Per-layer figures of the spans recorded in [lo, hi), one pass.

    `sizes(scored)` gives the candidate grid sizes m_g of a dataset; the
    values derived from it (grid_combos, candidates) are computed from
    the inputs, not reported by the program.
    """
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in range(lo, hi):
        s = spans[i]
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + self_time(spans, i)
        calls[s.name] = calls.get(s.name, 0) + 1

    fit_iterations = csv_rows = grid_combos = candidates = approximate = 0
    search_kinds: dict[str, int] = {}
    sweep_attempted = sweep_feasible = kept = 0
    for i in range(lo, hi):
        s = spans[i]
        if s.name == "scoring.fit" and s.result is not None:
            fit_iterations += s.result.iterations_run
        elif s.name == "scoring.read_scores_csv" and s.result is not None:
            csv_rows += s.result.n_rows
        elif s.name == "scoring.write_scores_csv":
            csv_rows += s.args[0].n_rows
        elif s.name == "policy.enforce":
            ms = sizes(s.args[0])
            candidates += sum(ms)
            if isinstance(s.args[1], lv.Equality):
                prod = 1
                for m in ms:
                    prod *= m
                grid_combos += prod
        elif s.name == "frontier.frontier" and s.result is not None:
            for c in s.children:
                child = spans[c]
                if child.name == "policy.enforce" and not isinstance(
                    child.args[1], lv.Unconstrained
                ):
                    sweep_attempted += 1
                    sweep_feasible += not child.error
            kept += len(s.result.points)
        if s.name in ("policy.enforce", "policy.level_up") and s.result is not None:
            prov = s.result.policy.provenance
            approximate += prov.approximate
            search_kinds[prov.search] = search_kinds.get(prov.search, 0) + 1

    n_frontiers = calls.get("frontier.frontier", 0)
    return {
        "data.load_csv.s": total.get("data.load_csv", 0.0),
        "data.split.s": total.get("data.split", 0.0),
        "data.synth_generate.s": total.get("data.synth_generate", 0.0),
        "scoring.fit.s": total.get("scoring.fit", 0.0),
        "scoring.fit.iterations": fit_iterations,
        "scoring.predict.s": total.get("scoring.predict", 0.0),
        "scoring.read_scores_csv.s": total.get("scoring.read_scores_csv", 0.0),
        "scoring.write_scores_csv.s": total.get("scoring.write_scores_csv", 0.0),
        "scoring.csv.rows": csv_rows,
        "metrics.confusion.s": total.get("metrics.confusion", 0.0),
        "metrics.confusion.calls": calls.get("metrics.confusion", 0),
        "metrics.group_metrics.s": total.get("metrics.group_metrics", 0.0),
        "policy.enforce.self_s": own.get("policy.enforce", 0.0),
        "policy.enforce.calls": calls.get("policy.enforce", 0),
        "policy.level_up.self_s": own.get("policy.level_up", 0.0),
        "policy.grid_combos": float(grid_combos),
        "policy.candidates": candidates,
        "policy.approximate_results": approximate,
        "frontier.self_s": own.get("frontier.frontier", 0.0),
        "frontier.feasible_ratio": (
            sweep_feasible / sweep_attempted if sweep_attempted else 0.0),
        "frontier.kept_ratio": (
            kept / (sweep_feasible + n_frontiers) if n_frontiers else 0.0),
        "frontier.frontier_to_jsonl.s": total.get("frontier.frontier_to_jsonl", 0.0),
        "audit.build_report.s": total.get("audit.build_report", 0.0),
        "audit.render_text.s": total.get("audit.render_text", 0.0),
        "audit.save_report.s": total.get("audit.save_report", 0.0),
        "cli.main.self_s": own.get("cli.main", 0.0),
        # Not a metric of BENCHMARK.json: recorded and printed per pass.
        "search_kinds": search_kinds,
        "span_totals": total,
    }
