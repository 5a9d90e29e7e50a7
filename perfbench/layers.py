"""Per-layer tracing from outside the program.

`Tracer.install` rebinds each traced public function in every `declassiflow`
module namespace that holds it, so calls between modules are recorded too
(for example `cfg.dominators` inside `cfg.expand_loops`). Each call becomes a
span (function, program, start, end, parent span) kept in memory; hooks count
work from the results at the same boundaries. A layer's self time is its
spans' durations minus the parts their child spans cover. A function that no
longer exists is reported as absent.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# per-layer time metric -> functions whose self time it sums
TIMES = {
    "ir.parse_s": ["ir.parse_program"],
    "ir.validate_s": ["ir.validate_ssa"],
    "ir.print_s": ["ir.pretty_print"],
    "cfg.prune_s": ["cfg.prune_dead_blocks"],
    "cfg.expand_s": ["cfg.expand_loops"],
    "cfg.dominators_s": ["cfg.dominators"],
    "knowledge.fixpoint_s": ["knowledge.analyze_edges"],
    "knowledge.project_s": ["knowledge.project_to_original"],
    "knowledge.summarize_s": ["knowledge.summarize"],
    "frontier.block_knowledge_s": ["frontier.block_knowledge"],
    "frontier.frontiers_s": ["frontier.all_frontiers"],
    "refine.regions_s": ["refine.candidate_regions", "refine.candidate_vars"],
    "refine.instrument_s": ["refine.instrument_flags"],
    "refine.query_s": ["refine.check_inevitable"],
    "protect.plan_s": ["protect.plan_protection"],
    "protect.emit_s": ["protect.emit_protected"],
    "oracle.verify_s": ["oracle.check_frontier_property", "oracle.input_slots",
                        "oracle.input_grid"],
    "oracle.explore_s": ["oracle.speculative_explore"],
    "pipeline.call_order_s": ["pipeline.call_order"],
    "pipeline.self_s": ["pipeline.run_pipeline", "pipeline.analyze_program",
                        "pipeline.analyze_function", "pipeline.refine_function",
                        "pipeline.property_map"],
    "cli.emit_report_s": ["cli.emit_report"],
}

# per-layer call-count metric -> function
CALLS = {
    "cfg.dominators_calls": "cfg.dominators",
    "oracle.explore_calls": "oracle.speculative_explore",
}


def _count_parsed(counts, program):
    counts["ir.instructions"] += sum(len(b.instructions) + 1
                                     for f in program.functions for b in f.blocks)


def _count_expanded(counts, ef):
    counts["cfg.expanded_blocks"] += len(ef.function.blocks)
    counts["cfg.expanded_edges"] += sum(len(b.successor_labels())
                                        for b in ef.function.blocks)


def _count_projected(counts, km):
    counts["knowledge.known_facts"] += sum(len(vs) for vs in km.known.values())


def _count_plan(counts, plan):
    counts["protect.barriers"] += len(plan.barrier_blocks)


def _count_verdict(counts, verdict):
    counts["oracle.inputs_checked"] += verdict.inputs_checked
    counts["oracle.spec_executions"] += verdict.executions
    counts["oracle.violations"] += len(verdict.violations)


def _count_report(counts, payload):
    counts["cli.report_bytes"] += len(payload)


# function -> hook counting work from its result
HOOKS = {
    "ir.parse_program": _count_parsed,
    "cfg.expand_loops": _count_expanded,
    "knowledge.project_to_original": _count_projected,
    "protect.plan_protection": _count_plan,
    "oracle.check_frontier_property": _count_verdict,
    "cli.emit_report": _count_report,
}

# every per-layer metric: name -> unit
PER_LAYER = {name: "s" for name in TIMES}
PER_LAYER.update({name: "count" for name in CALLS})
PER_LAYER.update({
    "cfg.expanded_blocks": "count", "cfg.expanded_edges": "count",
    "knowledge.known_facts": "count",
    "refine.queries": "count", "refine.inevitable": "count",
    "refine.escapable": "count", "refine.unknown": "count",
    "refine.decided_ratio": "ratio",
    "oracle.inputs_checked": "count", "oracle.spec_executions": "count",
    "oracle.execs_per_s": "1/s", "oracle.violations": "count",
    "ir.instructions": "count", "protect.barriers": "count",
    "cli.report_bytes": "count", "pipeline.trace_overhead_ratio": "ratio",
})

HOOK_SPAN = "trace.hook"
TRACED = sorted({f for fs in TIMES.values() for f in fs} | set(CALLS.values()))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request: str | None = None  # program the current spans belong to
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "declassiflow"
                                         or name.startswith("declassiflow."))]
        for qualname in TRACED:
            module = sys.modules.get("declassiflow." + qualname.split(".")[0])
            original = getattr(module, qualname.split(".")[1], None)
            if not callable(original):
                self.absent.add(qualname)
                continue
            traced = self._wrap(qualname, original, HOOKS.get(qualname))
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    self._saved.append((m, attr, original))
                    setattr(m, attr, traced)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, qualname, fn, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (qualname, self.request, start, end, parent)
            if hook is not None:
                try:
                    hook(self.counts, result)
                except (AttributeError, TypeError):
                    self.absent.add(f"{qualname} result")
                spans.append((HOOK_SPAN, self.request, end, time.perf_counter(),
                              parent))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        return traced

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Self seconds and call counts per traced function."""
        child = defaultdict(float)
        for name, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, _, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return dict(self_s), calls

    def layer_metrics(self) -> dict[str, float]:
        self_s, calls = self.self_times()
        out: dict[str, float] = {}
        for metric, fns in TIMES.items():
            out[metric] = sum(self_s.get(f, 0.0) for f in fns)
        for metric, fn in CALLS.items():
            out[metric] = calls.get(fn, 0)
        out.update(self.counts)
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, request, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "program": request,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")
