"""End-to-end driver: data-flow analysis, path-sensitive refinement, barrier
placement and execution-based verification, in that order. The first two run
in one callees-first pass, so each function is summarized once, after its
refinement, and its callers read that final summary.

Refinement runs only for functions the data-flow phase left not fully
declassified, and skips queries whose variable is already known throughout the
candidate region.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from .cfg import ENTRY, ExpandedFunction, build_cfg, expand_loops, prune_dead_blocks, to_dot
from .frontier import BlockKnowledge, all_frontiers, block_knowledge
from .ir import (Function, Program, Transmission, callees_first, pretty_print,
                 validate_ssa)
from .knowledge import (AnalysisError, FunctionSummary, KnowledgeMap, analyze_edges,
                        leak_model, project_to_original, summarize)
from .oracle import check_frontier_property, input_grid, input_slots
from .protect import ProtectionPlan, emit_protected, plan_protection
from .refine import (INEVITABLE, Constraint, Limits, PathLog, RefinementResult,
                     apply_refinement, candidate_regions, candidate_vars,
                     check_inevitable)

REPORTED_VIOLATIONS = 20  # the report lists at most this many violations


@dataclass
class RunConfig:
    refine: bool = True
    protect: bool = True
    verify: bool = False
    emit_knowledge: bool = False
    emit_frontiers: bool = False
    limits: Limits = field(default_factory=Limits)
    constraints: dict[str, list[Constraint]] = field(default_factory=dict)
    window: int = 16
    depth: int = 1
    verify_domain: range = range(0, 4)
    transmit_speculative: bool = True


@dataclass
class FunctionAnalysis:
    name: str
    simplified: Function
    expanded: ExpandedFunction
    km: KnowledgeMap  # projected onto the simplified CFG
    kb: BlockKnowledge
    frontiers: dict[str, set[str]]
    summary: FunctionSummary
    leaks: list[Transmission]  # the leak model, from the callees' final summaries
    refinements: list[RefinementResult] = field(default_factory=list)
    phase2: str = "skipped"
    notes: list[str] = field(default_factory=list)


def call_order(program: Program) -> list[str]:
    """Reverse-topological order over the call DAG: callees before callers."""
    order, cyclic = callees_first(program)
    if cyclic is not None:
        raise AnalysisError("call graph has a cycle")
    return order


def analyze_function(f: Function, summaries: dict[str, FunctionSummary],
                     config: RunConfig) -> FunctionAnalysis:
    """Phase 1 for one function: expand, solve the edge fixpoint, project,
    derive block knowledge, frontiers and the summary."""
    ef = expand_loops(f)
    km_expanded = analyze_edges(ef, summaries)
    km = project_to_original(km_expanded, ef)
    kb = block_knowledge(km)
    frontiers = all_frontiers(kb)
    leaks = leak_model(ef.original, summaries, config.transmit_speculative)
    summary = summarize(ef, kb.bits, frontiers, summaries, leaks)
    notes = []
    if km.vacuous:
        flagged = sorted(km.index.decode(reduce(or_, km.vacuous.values())))
        notes.append(f"vacuous knowledge recorded for: {', '.join(flagged)}")
    return FunctionAnalysis(f.name, ef.original, ef, km, kb, frontiers, summary, leaks,
                            notes=notes)


def refine_function(fa: FunctionAnalysis, bodies: dict[str, Function],
                    summaries: dict[str, FunctionSummary], config: RunConfig,
                    walks: dict):
    """Phase 2: region-by-variable inevitability queries, outermost first,
    all answered from one exploration of the function; Inevitable verdicts
    upgrade block knowledge immediately, then frontiers and summary are
    rebuilt if any did. Regions and candidates come from the speculative
    leak sites; walks is the run's memo of decided callee walks."""
    tblocks = {t.block for t in fa.leaks if t.speculative}
    regions = candidate_regions(fa.simplified, tblocks, fa.km.cfg.dom)
    cands = sorted(candidate_vars(fa.kb, tblocks))
    paths = PathLog(fa.simplified, config.limits, config.constraints.get(fa.name, []),
                    bodies, walks)
    known, bit = fa.kb.bits, fa.kb.index.bit
    for region in regions:
        for var in cands:
            if all(known[b] & bit[var] for b in region.blocks):
                continue
            knowing = {b for b in tblocks if known[b] & bit[var]}
            try:
                result = check_inevitable(paths, region, var, knowing)
            except AnalysisError as exc:
                result = RefinementResult("unknown", region, var, note=str(exc))
            fa.refinements.append(result)
            if result.verdict == INEVITABLE:
                apply_refinement(fa.kb, result)
    if any(r.verdict == INEVITABLE for r in fa.refinements):
        fa.frontiers = all_frontiers(fa.kb)
        fa.summary = summarize(fa.expanded, fa.kb.bits, fa.frontiers, summaries, fa.leaks)
    fa.phase2 = "ran"


def check_constraints(program: Program, constraints: dict[str, list[Constraint]]):
    """Reject a constraint on a function or parameter the program lacks."""
    params = {f.name: f.params for f in program.functions}
    for name, cs in constraints.items():
        if name not in params:
            raise AnalysisError(f"constraint on unknown function '{name}'")
        for c in cs:
            if c.var not in params[name]:
                raise AnalysisError(f"constraint on unknown parameter '{c.var}' of '{name}'")


def analyze_program(program: Program, config: RunConfig | None = None):
    """Phases 1 and 2 for each function in one pass, callees first: a
    function is analyzed and, unless data flow already declassified all of
    it, refined before any caller, so callers read final summaries. Returns
    the analyses, the summaries, the order and the time of each phase."""
    config = config or RunConfig()
    t0 = time.perf_counter()
    issues = validate_ssa(program).issues
    if issues:
        raise AnalysisError("; ".join(i.message for i in issues[:5]))
    check_constraints(program, config.constraints)

    summaries: dict[str, FunctionSummary] = {}
    analyses: dict[str, FunctionAnalysis] = {}
    bodies = {f.name: f for f in program.functions}  # simplified before any caller refines
    order = call_order(program)
    walks: dict = {}  # decided callee walks, shared by every function's path log
    refine_s = 0.0
    for name in order:
        fa = analyses[name] = analyze_function(bodies[name], summaries, config)
        bodies[name] = fa.simplified
        if not config.refine:
            fa.phase2 = "disabled"
        elif not fa.summary.is_fully_declassified:
            t1 = time.perf_counter()
            refine_function(fa, bodies, summaries, config, walks)
            refine_s += time.perf_counter() - t1
        summaries[name] = fa.summary
    return analyses, summaries, order, (time.perf_counter() - t0 - refine_s, refine_s)


def _called_functions(program: Program) -> set[str]:
    """Names of the functions some call in the program calls."""
    return {ins.callee for f in program.functions
            for _, ins in f.instructions() if ins.opcode == "call"}


def property_map(program: Program,
                 analyses: dict[str, FunctionAnalysis]) -> dict[tuple[str, str], set[str]]:
    """Frontiers to enforce during verification: everything except variables
    public from the program text alone and parameters of called functions
    (those are covered per call site by the argument's own taint)."""
    called = _called_functions(program)
    out: dict[tuple[str, str], set[str]] = {}
    for name, fa in analyses.items():
        public, bit = fa.kb.bits[ENTRY], fa.kb.index.bit
        params = set(fa.simplified.params) if name in called else set()
        for var, fr in fa.frontiers.items():
            if bit[var] & public or var in params:
                continue
            out[(name, var)] = fr
    return out


def run_pipeline(program: Program, config: RunConfig | None = None) -> dict:
    """All phases over the whole program; returns the JSON-ready report (read-only)."""
    config = config or RunConfig()
    report: dict = {"entry": program.entry_function, "functions": [],
                    "barriers": {}, "plans": [], "timing": {}}
    analyses, summaries, order, (dfa_s, refine_s) = analyze_program(program, config)
    report["timing"]["dfa_s"] = round(dfa_s, 6)
    report["timing"]["refine_s"] = round(refine_s, 6)
    bodies = {name: fa.simplified for name, fa in analyses.items()}

    t2 = time.perf_counter()
    protected: Program | None = None
    if config.protect and program.functions:
        called = _called_functions(program)
        plans: dict[str, ProtectionPlan] = {}
        for name in order:
            fa = analyses[name]
            top = name == program.entry_function or name not in called
            plans[name] = plan_protection(fa.simplified, fa.leaks, fa.frontiers,
                                          fa.summary, top)
        protected = emit_protected(program, plans, bodies)
        report["plans"] = [plans[name].as_dict() for name in program.function_names()]
        report["barriers"] = {name: sorted(plans[name].barrier_blocks)
                              for name in program.function_names()
                              if plans[name].barrier_blocks}
        report["protected_entry"] = protected.entry_function
    report["timing"]["protect_s"] = round(time.perf_counter() - t2, 6)

    t3 = time.perf_counter()
    if config.verify and protected is not None:
        frontier_map = property_map(program, analyses)
        slots = input_slots(protected)
        verdict = check_frontier_property(
            protected, frontier_map, input_grid(slots, config.verify_domain),
            window=config.window, depth=config.depth,
            transmit_speculative=config.transmit_speculative, pad_inputs=True,
            max_violations=REPORTED_VIOLATIONS)
        report["verification"] = {
            "passed": verdict.passed,
            "window": config.window,
            "depth": config.depth,
            "domain": [config.verify_domain.start, config.verify_domain.stop - 1],
            "inputs_checked": verdict.inputs_checked,
            "executions": verdict.executions,
            "violations": [
                {"variable": list(v.variable), "inputs": v.inputs,
                 "mispredictions": [list(m) for m in v.misprediction],
                 "observation": {"function": v.observation.function,
                                 "block": v.observation.block,
                                 "kind": v.observation.kind,
                                 "value": v.observation.value},
                 "frontier": v.frontier}
                for v in verdict.violations],
        }
    report["timing"]["verify_s"] = round(time.perf_counter() - t3, 6)

    for name in program.function_names():
        fa = analyses[name]
        entry_fn: dict = {
            "name": name,
            "params": list(fa.simplified.params),
            "fully_declassified": fa.summary.is_fully_declassified,
            "pseudo_transmitter": fa.summary.is_pseudo_transmitter,
            "leaked_args": sorted(fa.summary.leaked_args),
            "internal_leaks": sorted(fa.summary.internal_leaks),
            "phase2": fa.phase2,
            "notes": fa.notes,
        }
        if config.emit_knowledge:
            bits, kbits = fa.km.bits, fa.kb.bits
            # one sorted list per distinct mask, shared by its edges and blocks
            lists = {m: sorted(fa.km.index.decode(m)) for m in {*bits, *kbits.values()}}
            entry_fn["edges"] = [{"from": e.src, "to": e.dst, "known": lists[bits[e.index]]}
                                 for e in fa.km.cfg.edges]
            entry_fn["block_knowledge"] = {label: lists[kbits[label]] for label in sorted(kbits)}
        if config.emit_frontiers:
            entry_fn["frontiers"] = {v: sorted(fr)
                                     for v, fr in sorted(fa.frontiers.items())}
        entry_fn["refinements"] = [
            {"region": r.region.header, "variable": r.variable,
             "verdict": r.verdict,
             "witness": (None if r.witness_inputs is None else r.witness_inputs),
             "note": r.note}
            for r in fa.refinements]
        report["functions"].append(entry_fn)

    if protected is not None:
        report["protected_program"] = pretty_print(protected)
    return report


def dump_cfgs(program: Program) -> str:
    return "\n".join(f"// {f.name}\n{to_dot(build_cfg(prune_dead_blocks(f)))}"
                     for f in program.functions)


def dump_expanded(program: Program) -> str:
    return "\n".join(pretty_print(Program([expand_loops(f).function]))
                     for f in program.functions)
