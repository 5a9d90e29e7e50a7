"""Edge-knowledge data-flow analysis.

Computes, for every control-flow edge, the set of variables an observer of the
non-speculative execution is guaranteed to learn (directly revealed by a
transmitter, or inferable from revealed values through instruction equations).
Runs on the acyclic expanded function and is projected back onto the
pre-expansion CFG.

Propagation rules, applied to a fixpoint:
  R1 (init)  transmitted operands join every out-edge of their block; constants
             join every edge; arguments at call sites join the call block's
             out-edges when the callee is known to reveal that parameter.
  R2         equations are global: on any single edge, all inputs known implies
             the output is known (phi counts as forward solvable here).
  R3         backward-solvable positions: output plus the other inputs known on
             an edge implies the remaining input is known there.
  R4         known on every in-edge of a block -> known on every out-edge.
  R5         known on every out-edge and not defined in the block -> known on
             every in-edge. Never applied onto the virtual entry dummy edge,
             whose knowledge stays at its initial value (program text only).
  R6         phi: each arm known on its own in-edge -> output on all out-edges.
  R7         phi: output known on all out-edges -> each arm on its in-edge.

The least fixpoint is computed with a worklist of facts (edge e, variable v).
A fact re-checks only the rules whose premises it can complete:
  R2/R3      on e, the equations that mention v (as output or input);
  R4, R6     at e.dst: v known on every in-edge; every arm of a phi fed by
             (e, v) known on its in-edge;
  R5, R7     at e.src: v known on every out-edge, then hoisted if not defined
             there, or pushed onto the arms if v is a phi output there.
The worklist starts from every initial fact plus the premise-free equations
(no variable inputs, all-literal phis included).

All paths are treated as realizable; that approximation loses precision but
never soundness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .cfg import ENTRY, EXIT, Cfg, Edge, ExpandedFunction
from .ir import DETERMINISTIC, Function, Transmission, solvability, transmissions


class AnalysisError(Exception):
    pass


@dataclass
class KnowledgeMap:
    cfg: Cfg
    known: dict[int, set[str]]
    vacuous: dict[int, set[str]] = field(default_factory=dict)

    def at(self, src: str, dst: str) -> set[str]:
        return self.known[self.cfg.edge(src, dst).index]


@dataclass
class FunctionSummary:
    """What a callee reveals, for use while analyzing its callers."""

    name: str
    params: list[str]
    leaked_args: frozenset[int]
    internal_leaks: frozenset[str]
    fully_declassified_vars: frozenset[str]
    is_fully_declassified: bool
    is_pseudo_transmitter: bool

    @property
    def declassified_args(self) -> frozenset[int]:
        return frozenset(i for i, p in enumerate(self.params)
                         if p in self.fully_declassified_vars)


def _const_outputs(f: Function) -> set[str]:
    return {ins.output for _, ins in f.instructions() if ins.opcode == "const"}


def _callee_summary(f: Function, ins, summaries: dict[str, FunctionSummary]) -> FunctionSummary:
    summary = summaries.get(ins.callee)
    if summary is None:
        raise AnalysisError(f"missing summary for callee '{ins.callee}' of '{f.name}'")
    return summary


def init_knowledge(ef: ExpandedFunction, summaries: dict[str, FunctionSummary],
                   transmit_speculative: bool = True) -> KnowledgeMap:
    """Seed the edge sets: transmitter operands, constants, callee leaks."""
    f, cfg = ef.function, ef.cfg
    known: dict[int, set[str]] = {e.index: set() for e in cfg.edges}

    consts = _const_outputs(f)
    for e in cfg.edges:
        known[e.index] |= consts

    for t in transmissions(f, transmit_speculative):
        if isinstance(t.operand, str):
            for e in cfg.out_edges[t.block]:
                known[e.index].add(t.operand)

    for b in f.blocks:
        for ins in b.instructions:
            if ins.opcode != "call":
                continue
            for pos in _callee_summary(f, ins, summaries).declassified_args:
                if isinstance(ins.operands[pos], str):
                    for e in cfg.out_edges[b.label]:
                        known[e.index].add(ins.operands[pos])
    return KnowledgeMap(cfg, known)


@dataclass
class Equation:
    output: str
    var_inputs: tuple[str, ...]
    backward: tuple[tuple[str, tuple[str, ...]], ...]  # (recoverable input, other var inputs)


def equations(f: Function) -> list[Equation]:
    """R2/R3 equations of f's deterministic instructions; a phi counts as
    forward solvable and has no backward positions."""
    eqs: list[Equation] = []
    for _, ins in f.instructions():
        if ins.opcode == "phi":
            eqs.append(Equation(ins.output, tuple(ins.var_operands()), ()))
            continue
        if ins.opcode not in DETERMINISTIC:
            continue
        sc = solvability(ins.opcode)
        backward = []
        for pos in sorted(sc.backward_operands):
            if pos < len(ins.operands) and isinstance(ins.operands[pos], str):
                others = tuple(o for i, o in enumerate(ins.operands)
                               if i != pos and isinstance(o, str))
                backward.append((ins.operands[pos], others))
        eqs.append(Equation(ins.output, tuple(ins.var_operands()), tuple(backward)))
    return eqs


def close(known: set[str], eqs: list[Equation]) -> bool:
    """Close one edge's set under R2/R3 in place; True if it grew."""
    grew = False
    changed = True
    while changed:
        changed = False
        for eq in eqs:
            if eq.output not in known and all(v in known for v in eq.var_inputs):
                known.add(eq.output)
                changed = grew = True
            if eq.output in known:
                for target, others in eq.backward:
                    if target not in known and all(v in known for v in others):
                        known.add(target)
                        changed = grew = True
    return grew


def propagate(km: KnowledgeMap, ef: ExpandedFunction,
              order_seed: int | None = None) -> KnowledgeMap:
    """Least fixpoint of R2-R7 over the initialized map, by worklist.

    Every fact (edge, v) that joins the map re-checks only the rules it can
    fire (see the module docstring). The rules only grow the per-edge sets,
    so the fixpoint is unique; the optional order_seed shuffles the equation
    and seed order to exercise that.
    """
    f = ef.function
    cfg = km.cfg
    known = km.known
    eqs = equations(f)
    work = [(e, v) for e in cfg.edges for v in known[e.index]]
    if order_seed is not None:
        rng = random.Random(order_seed)
        rng.shuffle(eqs)
        rng.shuffle(work)

    def add(e: Edge, v: str):
        if v not in known[e.index]:
            known[e.index].add(v)
            work.append((e, v))

    def fire(eq: Equation, e: Edge):  # R2 / R3 on one edge
        s = known[e.index]
        if eq.output not in s and all(v in s for v in eq.var_inputs):
            add(e, eq.output)
        if eq.output in s:
            for target, others in eq.backward:
                if target not in s and all(v in s for v in others):
                    add(e, target)

    mentions: dict[str, list[Equation]] = {}
    for eq in eqs:
        for v in dict.fromkeys((eq.output, *eq.var_inputs)):
            mentions.setdefault(v, []).append(eq)
    # blocks the block rules R4-R7 apply to (in- and out-edges) -> definitions
    defs = {b.label: b.defined_vars() for b in f.blocks
            if cfg.in_edges[b.label] and cfg.out_edges[b.label]}
    phi_arms: dict[str, dict[str, list]] = {}  # block -> phi output -> var arms
    fed_by: dict[tuple[int, str], list] = {}  # (in-edge, arm var) -> phis
    for b in f.blocks:
        if b.label not in defs:
            continue
        for phi in b.phis():
            arms = [(op, cfg.edge(lab, b.label)) for op, lab
                    in zip(phi.operands, phi.phi_labels) if isinstance(op, str)]
            phi_arms.setdefault(b.label, {})[phi.output] = arms
            for op, e in arms:
                fed_by.setdefault((e.index, op), []).append((phi.output, arms))

    for eq in eqs:  # premise-free: no variable inputs (all-literal phis too)
        if not eq.var_inputs:
            for e in cfg.edges:
                add(e, eq.output)
    while work:
        e, v = work.pop()
        for eq in mentions.get(v, ()):
            fire(eq, e)
        d, s = e.dst, e.src
        if d in defs:
            if all(v in known[i.index] for i in cfg.in_edges[d]):  # R4
                for o in cfg.out_edges[d]:
                    add(o, v)
            for out, arms in fed_by.get((e.index, v), ()):  # R6
                if all(op in known[i.index] for op, i in arms):
                    for o in cfg.out_edges[d]:
                        add(o, out)
        if s in defs and all(v in known[o.index] for o in cfg.out_edges[s]):
            if v in phi_arms.get(s, ()):  # R7
                for op, i in phi_arms[s][v]:
                    add(i, op)
            elif v not in defs[s]:  # R5; the entry dummy keeps its initial set
                for i in cfg.in_edges[s]:
                    if i.src != ENTRY:
                        add(i, v)
    return km


def analyze_edges(ef: ExpandedFunction, summaries: dict[str, FunctionSummary],
                  transmit_speculative: bool = True,
                  order_seed: int | None = None) -> KnowledgeMap:
    km = init_knowledge(ef, summaries, transmit_speculative)
    return propagate(km, ef, order_seed)


def project_to_original(km: KnowledgeMap, ef: ExpandedFunction) -> KnowledgeMap:
    """Map expanded-edge knowledge onto the pre-expansion CFG.

    A variable is known on an original edge when every expanded edge standing
    for it knows the copy of the variable that is current there. Knowledge of
    a variable on an edge no run through that edge could ever define is kept
    but flagged vacuous.
    """
    ocfg = ef.original_cfg
    by_key = {e.key: e.index for e in km.cfg.edges}
    counterparts: dict[tuple[str, str], list[tuple[str, str]]] = {e.key: [] for e in ocfg.edges}
    for ekey, origins in ef.edge_origin.items():
        for ok in origins:
            if ok in counterparts:
                counterparts[ok].append(ekey)

    out: dict[int, set[str]] = {}
    ovars = sorted(ef.original.defined_vars())
    for oe in ocfg.edges:
        cps = counterparts[oe.key]
        s: set[str] = set()
        if cps:
            for v in ovars:
                if all(ef.representative(v, ck) in km.known[by_key[ck]] for ck in cps):
                    s.add(v)
        out[oe.index] = s

    vac = _vacuous_flags(ocfg, ef.original, out)
    return KnowledgeMap(ocfg, out, vac)


def _vacuous_flags(cfg: Cfg, f: Function, known: dict[int, set[str]]) -> dict[int, set[str]]:
    def_block: dict[str, str | None] = {p: None for p in f.params}
    for b in f.blocks:
        for ins in b.instructions:
            if ins.output is not None:
                def_block[ins.output] = b.label

    reach: dict[str, set[str]] = {}
    for b in f.blocks:
        seen = {b.label}
        work = [b.label]
        while work:
            cur = work.pop()
            for s in cfg.succs(cur):
                if s not in seen:
                    seen.add(s)
                    work.append(s)
        reach[b.label] = seen

    vac: dict[int, set[str]] = {}
    for e in cfg.edges:
        flagged = set()
        for v in known[e.index]:
            db = def_block.get(v)
            if db is None:
                continue  # parameters are defined on every path
            defined_before = e.src != ENTRY and e.src in reach[db]
            defined_after = e.dst != EXIT and db in reach.get(e.dst, set())
            if not (defined_before or defined_after):
                flagged.add(v)
        if flagged:
            vac[e.index] = flagged
    return vac


# ---------------------------------------------------------------------------
# Function summaries
# ---------------------------------------------------------------------------

def leak_model(f: Function, summaries: dict[str, FunctionSummary],
               transmit_speculative: bool = True) -> list[Transmission]:
    """Every site where f reveals a value: its transmitters, plus one
    speculative "call" site per argument a called pseudo transmitter leaks.
    Other calls reveal nothing at their site (their callees protect
    themselves). Summaries, refinement regions and barrier placement all read
    this list; build it from the summaries the reading phase sees."""
    leaks = transmissions(f, transmit_speculative)
    for b in f.blocks:
        for ins in b.instructions:
            if ins.opcode != "call":
                continue
            summary = _callee_summary(f, ins, summaries)
            if summary.is_pseudo_transmitter:
                leaks += [Transmission(b.label, "call", ins.operands[pos], True)
                          for pos in sorted(summary.leaked_args)]
    return leaks


def summarize(f: Function, ef: ExpandedFunction, kb: "dict[str, set[str]]",
              frontiers: dict[str, set[str]], summaries: dict[str, FunctionSummary],
              leaks: list[Transmission]) -> FunctionSummary:
    """Build the caller-facing summary of f from its leak model.

    A variable counts as fully declassified when its frontier is the entry
    block, or when it is derivable from the program text alone (known before
    the body runs). f is a pseudo transmitter when every value it reveals is
    fully declassified, its internal leaks are all inferable from the leaked
    arguments alone, and every callee is itself a pseudo transmitter.
    """
    revealed: dict[str, set[str]] = {}
    for t in leaks:
        if isinstance(t.operand, str):
            revealed.setdefault(t.operand, set()).add(t.block)
    entry = f.entry_block
    public = kb.get(ENTRY, set())
    fdv = frozenset(v for v, fr in frontiers.items()
                    if fr == {entry} or v in public)

    candidate_leaks: set[str] = set()
    for b in {t.block for t in leaks}:
        candidate_leaks |= kb.get(b, set())
    leaked_args = frozenset(i for i, p in enumerate(f.params) if p in candidate_leaks)
    internal_leaks = frozenset(v for v in revealed if v not in f.params)
    is_fd = all(v in fdv for v in revealed)

    callees_pseudo = all(_callee_summary(f, ins, summaries).is_pseudo_transmitter
                         for _, ins in f.instructions() if ins.opcode == "call")
    leaked_values_declassified = all(
        f.params[i] in fdv for i in leaked_args) and all(
        v in fdv for v in internal_leaks)

    pseudo = callees_pseudo and leaked_values_declassified
    if pseudo and internal_leaks:
        pseudo = _internal_leaks_rederivable(
            ef, {f.params[i] for i in leaked_args}, revealed, internal_leaks)

    return FunctionSummary(
        name=f.name,
        params=list(f.params),
        leaked_args=leaked_args,
        internal_leaks=internal_leaks,
        fully_declassified_vars=fdv,
        is_fully_declassified=is_fd,
        is_pseudo_transmitter=pseudo,
    )


def _internal_leaks_rederivable(ef: ExpandedFunction, seed: set[str],
                                revealed: dict[str, set[str]],
                                internal_leaks: frozenset[str]) -> bool:
    """Check that knowledge of the leaked arguments alone re-derives every
    internally leaked value at the blocks where it escapes."""
    known = {e.index: set(seed) | _const_outputs(ef.function) for e in ef.cfg.edges}
    km = propagate(KnowledgeMap(ef.cfg, known), ef)
    proj = project_to_original(km, ef)
    for v in internal_leaks:
        for b in revealed[v]:
            for e in proj.cfg.out_edges[b]:
                if v not in proj.known[e.index]:
                    return False
    return True
