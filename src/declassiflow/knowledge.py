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

Each expanded function numbers its variables once, in a dense index
(ExpandedFunction.index: the loop-simplified function's variables first), and
an edge's knowledge is one int over it: bit i set means variable i is known.
The least fixpoint is computed with a worklist of edges, each carrying the
bits it gained since it was last taken (its delta). A delta re-checks only
the rules whose premises it can complete:
  R2/R3      on e, per new bit, the equations that mention it (as output or
             input); their conclusions join the delta;
  R4, R6     at e.dst: the delta ANDed over every in-edge moves to every
             out-edge; a phi whose arm bit is in the delta fires when every
             arm is known on its in-edge;
  R5, R7     at e.src: the delta ANDed over every out-edge is hoisted where
             not defined there, or pushed onto the arms for phi outputs.
The worklist starts from every seeded edge plus the premise-free equations
(no variable inputs, all-literal phis included). Projection onto the
pre-expansion CFG ANDs per-counterpart masks in the same index. Every map,
expanded or projected, is a KnowledgeMap of masks; names are decoded only
where a reader asks for them.

All paths are treated as realizable; that approximation loses precision but
never soundness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .cfg import ENTRY, EXIT, Cfg, ExpandedFunction, VarIndex
from .ir import OPCODES, Function, Transmission, transmissions


class AnalysisError(Exception):
    pass


@dataclass
class KnowledgeMap:
    """Edge knowledge: bits[e.index] is the set known on edge e of cfg, as a
    mask over index. Phase 1's map on the expanded CFG, its projection onto
    the simplified function's CFG (with vacuous flags), or the oracle's
    exact knowledge."""

    cfg: Cfg
    index: VarIndex
    bits: list[int]
    vacuous: dict[int, set[str]] = field(default_factory=dict)

    @property
    def known(self) -> dict[int, set[str]]:
        """The edge sets, decoded on each access."""
        decode = self.index.decode
        return {e.index: decode(self.bits[e.index]) for e in self.cfg.edges}

    def at(self, src: str, dst: str) -> set[str]:
        return self.index.decode(self.bits[self.cfg.edge(src, dst).index])


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


def init_knowledge(ef: ExpandedFunction,
                   summaries: dict[str, FunctionSummary]) -> KnowledgeMap:
    """Seed the edge sets: transmitter operands, constants, callee leaks."""
    f, cfg, ix = ef.function, ef.cfg, ef.index
    revealed: dict[str, int] = {}  # block -> what it reveals on its out-edges
    for t in transmissions(f):
        if isinstance(t.operand, str):
            revealed[t.block] = revealed.get(t.block, 0) | ix.bit[t.operand]
    for b, ins in f.instructions():
        if ins.opcode != "call":
            continue
        for pos in _callee_summary(f, ins, summaries).declassified_args:
            if isinstance(ins.operands[pos], str):
                revealed[b.label] = revealed.get(b.label, 0) | ix.bit[ins.operands[pos]]

    bits = [ix.mask(_const_outputs(f))] * len(cfg.edges)
    for label, m in revealed.items():
        for e in cfg.out_edges[label]:
            bits[e.index] |= m
    return KnowledgeMap(cfg, ix, bits)


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
        op = OPCODES[ins.opcode]
        if op.eval is None:
            continue
        backward = []
        for pos in op.backward:
            if isinstance(ins.operands[pos], str):
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


def _bits_of(m: int):
    """The single-bit masks of m, lowest first."""
    while m:
        low = m & -m
        yield low
        m ^= low


def propagate(km: KnowledgeMap, ef: ExpandedFunction,
              order_seed: int | None = None) -> KnowledgeMap:
    """Least fixpoint of R2-R7 over the initialized map, by worklist.

    The worklist holds edges, each with the bits it gained since it was last
    taken; those bits re-check only the rules they can fire (see the module
    docstring). The rules only grow the per-edge sets, so the fixpoint is
    unique; the optional order_seed shuffles the equation and seed order to
    exercise that.
    """
    f, cfg, ix, known = ef.function, km.cfg, km.index, km.bits
    bit = ix.bit
    eqs = equations(f)
    work = [e.index for e in cfg.edges if known[e.index]]
    if order_seed is not None:
        rng = random.Random(order_seed)
        rng.shuffle(eqs)
        rng.shuffle(work)
    pending = list(known)  # per edge: bits gained and not yet processed

    def add(i: int, m: int):
        new = m & ~known[i]
        if new:
            known[i] |= new
            if not pending[i]:
                work.append(i)
            pending[i] |= new

    # R2/R3 as (output bit, input mask, ((recoverable bit, others mask), ...)),
    # listed under every bit position the equation mentions
    mentions: list[list] = [[] for _ in ix.names]
    free = 0  # outputs of premise-free equations
    for eq in eqs:
        rule = (bit[eq.output], ix.mask(eq.var_inputs),
                tuple((bit[t], ix.mask(others)) for t, others in eq.backward))
        if not eq.var_inputs:
            free |= rule[0]
        for low in _bits_of(rule[0] | rule[1]):
            mentions[low.bit_length() - 1].append(rule)

    # the block rules R4-R7 apply to blocks with in- and out-edges; per edge,
    # (in-edges, out-edges) of its destination and (out-edges, in-edges that
    # R5 may fill, definitions, phi outputs) of its source
    n = len(cfg.edges)
    at_dst: list = [None] * n
    at_src: list = [None] * n
    phi_arms: dict[int, list] = {}  # phi output bit -> [(arm bit, in-edge)]
    fed_by: list[dict[int, list]] = [{} for _ in range(n)]  # arm bit -> phis
    for b in f.blocks:
        ins_e, outs_e = cfg.in_edges[b.label], cfg.out_edges[b.label]
        if not (ins_e and outs_e):
            continue
        ins, outs = [e.index for e in ins_e], [e.index for e in outs_e]
        outputs = 0
        for phi in b.phis():
            arms = [(bit[op], cfg.edge(lab, b.label).index) for op, lab
                    in zip(phi.operands, phi.phi_labels) if isinstance(op, str)]
            phi_arms[bit[phi.output]] = arms
            outputs |= bit[phi.output]
            for op, i in arms:
                fed_by[i].setdefault(op, []).append((bit[phi.output], arms))
        hoist = [e.index for e in ins_e if e.src != ENTRY]  # the dummy keeps its seeds
        for i in ins:
            at_dst[i] = (ins, outs)
        src_rules = (outs, hoist, ix.mask(b.defined_vars()), outputs)
        for o in outs:
            at_src[o] = src_rules

    if free:
        for i in range(n):
            add(i, free)
    while work:
        e = work.pop()
        delta = pending[e]
        pending[e] = 0
        # R2/R3 on e, per new bit; what they derive joins this delta
        todo, k = delta, known[e]
        while todo:
            low = todo & -todo
            todo ^= low
            for out, need, backward in mentions[low.bit_length() - 1]:
                if not k & out and k & need == need:
                    k |= out
                    todo |= out
                if backward and k & out:
                    for target, others in backward:
                        if not k & target and k & others == others:
                            k |= target
                            todo |= target
        delta |= k ^ known[e]
        known[e] = k
        if at_dst[e] is not None:
            ins, outs = at_dst[e]
            common = delta  # R4: known on every in-edge
            for i in ins:
                common &= known[i]
            if common:
                for o in outs:
                    add(o, common)
            for arm, phis in fed_by[e].items():  # R6: every arm known on its in-edge
                if delta & arm:
                    for out, arms in phis:
                        if all(known[i] & op for op, i in arms):
                            for o in outs:
                                add(o, out)
        if at_src[e] is not None:
            outs, hoist, defined, outputs = at_src[e]
            common = delta  # known on every out-edge
            for o in outs:
                common &= known[o]
            if common & outputs:  # R7
                for low in _bits_of(common & outputs):
                    for op, i in phi_arms[low]:
                        add(i, op)
            if common & ~defined:  # R5
                for i in hoist:
                    add(i, common & ~defined)
    return km


def analyze_edges(ef: ExpandedFunction, summaries: dict[str, FunctionSummary],
                  order_seed: int | None = None) -> KnowledgeMap:
    return propagate(init_knowledge(ef, summaries), ef, order_seed)


def project_to_original(km: KnowledgeMap, ef: ExpandedFunction) -> KnowledgeMap:
    """Map expanded-edge knowledge onto the pre-expansion CFG.

    A variable is known on an original edge when every expanded edge standing
    for it knows the copy of the variable that is current there. Knowledge of
    a variable on an edge no run through that edge could ever define is kept
    but flagged vacuous.
    """
    ocfg, ix = ef.original_cfg, km.index
    by_key = {e.key: e.index for e in km.cfg.edges}
    masks: dict[tuple[str, str], int] = {}  # original edge -> AND of counterparts
    for ekey, origins in ef.edge_origin.items():
        if not origins:
            continue
        k = km.bits[by_key[ekey]]
        m = k & ix.original  # each counterpart once, in the original's variables
        for v, rep in ef.edge_subst.get(ekey, {}).items():
            b = ix.bit.get(v, 0) & ix.original
            if b:
                m = m | b if k & ix.bit.get(rep, 0) else m & ~b
        for ok in origins:
            masks[ok] = masks.get(ok, m) & m

    bits = [masks.get(oe.key, 0) for oe in ocfg.edges]
    return KnowledgeMap(ocfg, ix, bits, _vacuous_flags(ef, bits, ix))


def _vacuous_flags(ef: ExpandedFunction, bits: list[int],
                   ix: VarIndex) -> dict[int, set[str]]:
    """Per edge of the original graph, the known non-parameters that no block
    reaching the edge's source and no block reachable from its destination
    defines."""
    cfg = ef.original_cfg
    defs = {b.label: ix.mask(b.defined_vars()) for b in ef.original.blocks}
    order = cfg.dom.order[::-1]  # postorder from the entry block

    def reach(labels, nexts) -> dict[str, int]:  # defs of every block reached, to a fixpoint
        out = dict(defs)
        changed = True
        while changed:
            changed = False
            for label in labels:
                m = out[label]
                for s in nexts(label):
                    m |= out[s]
                if m != out[label]:
                    out[label] = m
                    changed = True
        return out

    after = reach(order, cfg.succs)  # defined in a block reachable from the key
    before = reach(order[::-1], cfg.preds)  # defined in a block reaching the key
    defined = 0
    for m in defs.values():
        defined |= m
    vac: dict[int, set[str]] = {}
    for e in cfg.edges:
        m = bits[e.index] & defined
        if e.src != ENTRY:
            m &= ~before[e.src]
        if e.dst != EXIT:
            m &= ~after[e.dst]
        if m:
            vac[e.index] = ix.decode(m)
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
    ix = ef.index
    seeds = ix.mask(seed) | ix.mask(_const_outputs(ef.function))
    km = propagate(KnowledgeMap(ef.cfg, ix, [seeds] * len(ef.cfg.edges)), ef)
    proj = project_to_original(km, ef)
    for v in internal_leaks:
        for b in revealed[v]:
            for e in proj.cfg.out_edges[b]:
                if not proj.bits[e.index] & ix.bit[v]:
                    return False
    return True
