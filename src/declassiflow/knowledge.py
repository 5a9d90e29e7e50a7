"""Edge-knowledge data-flow analysis.

Computes, for every control-flow edge, the set of variables an observer of the
non-speculative execution is guaranteed to learn (directly revealed by a
transmitter, or inferable from revealed values through instruction equations).
Runs on the acyclic expanded function and is projected back onto the
pre-expansion CFG.

Propagation rules, applied to a fixpoint:
  R1 (init)  transmitted operands join every out-edge of their block;
             arguments at call sites join the call block's out-edges when the
             callee is known to reveal that parameter. Constants are the
             outputs of premise-free R2 rules and enter through the closure.
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
The R2/R3 equations are rules over the same index: an output bit, an input
mask and, per backward-solvable position, its bit and the others' mask.
One closure (closure) fires them, for the fixpoint, the pseudo-transmitter
check and the exact-knowledge oracle; closing a mask from scratch adds the
outputs of premise-free rules (constants, all-literal phis). The least
fixpoint is computed in passes over the expanded CFG's reverse postorder
(Cfg.dom.order), a topological order of the acyclic graph that covers every
block (Kam and Ullman, "Global Data Flow Analysis and Iterative Algorithms",
JACM 1976). The entry dummy edge is closed from scratch, and the first
forward pass carries its premise-free outputs to every edge, since each
in-edge comes earlier in the order. Then the passes alternate until one adds
no bit:
  forward    R4, R6: per block, each out-edge gains the AND of the in-edges
             and the phi outputs whose arms are all known on their in-edges;
  backward   R5, R7, from the last block up: each in-edge but the entry dummy
             gains the AND of the out-edges less the block's definitions, and
             the arms of the phi outputs in that AND.
A pass leaves every edge closed under R2/R3, semi-naively: a new bit
re-checks only the rules that mention it (as output or input). The AND of
closed edges is closed (Horn closures are closed under intersection), so its
bits are not re-checked: a rule that can still fire mentions a bit outside
it or, backward, concludes a definition of the block that the AND holds.
Projection onto the pre-expansion CFG ANDs per-counterpart masks in the same
index. Every map, its vacuous flags, the block knowledge and the summaries'
inputs stay masks; names are decoded only where they are printed.

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
    the simplified function's CFG (with vacuous flags, per edge the mask of
    its vacuously known variables), or the oracle's exact knowledge."""

    cfg: Cfg
    index: VarIndex
    bits: list[int]
    vacuous: dict[int, int] = field(default_factory=dict)

    @property
    def known(self) -> dict[int, set[str]]:
        """The edge sets, decoded on each access."""
        decode = self.index.decode
        return {e.index: decode(self.bits[e.index]) for e in self.cfg.edges}


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


def _callee_summary(f: Function, ins, summaries: dict[str, FunctionSummary]) -> FunctionSummary:
    summary = summaries.get(ins.callee)
    if summary is None:
        raise AnalysisError(f"missing summary for callee '{ins.callee}' of '{f.name}'")
    return summary


def init_knowledge(ef: ExpandedFunction,
                   summaries: dict[str, FunctionSummary]) -> KnowledgeMap:
    """Seed the edge sets: transmitter operands and callee leaks."""
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

    bits = [0] * len(cfg.edges)
    for label, m in revealed.items():
        for e in cfg.out_edges[label]:
            bits[e.index] |= m
    return KnowledgeMap(cfg, ix, bits)


def equations(f: Function, ix: VarIndex) -> list[tuple[int, int, tuple]]:
    """R2/R3 rules of f's deterministic instructions over ix, each (output
    bit, input mask, ((recoverable bit, others mask), ...)); a phi counts as
    forward solvable and has no backward positions."""
    bit, rules = ix.bit, []
    for _, ins in f.instructions():
        op = OPCODES[ins.opcode]
        if op.eval is None and ins.opcode != "phi":
            continue
        backward = tuple(
            (bit[ins.operands[pos]],
             ix.mask(o for i, o in enumerate(ins.operands) if i != pos and isinstance(o, str)))
            for pos in op.backward if isinstance(ins.operands[pos], str))
        rules.append((bit[ins.output], ix.mask(ins.var_operands()), backward))
    return rules


def closure(f: Function, ix: VarIndex, order_seed: int | None = None):
    """The one R2/R3 closure of f's equations over ix, as close(k, todo=None).

    close(k) is k closed under R2/R3, the premise-free outputs (constants,
    all-literal phis) included. close(k, todo) is the same when every rule
    that can still fire on k mentions a bit of todo, say k is closed but for
    the new bits todo: semi-naively, a new bit re-checks only the rules that
    mention it (as output or input). The optional order_seed shuffles the
    rule order, the order in which a new bit re-checks them."""
    rules = equations(f, ix)
    if order_seed is not None:
        random.Random(order_seed).shuffle(rules)
    mentions: list[list] = [[] for _ in ix.names]  # per bit, the rules that mention it
    free = 0  # outputs of premise-free rules
    for rule in rules:
        out, need, _ = rule
        if not need:
            free |= out
        m = out | need
        while m:
            low = m & -m
            m ^= low
            mentions[low.bit_length() - 1].append(rule)

    def close(k: int, todo: int | None = None) -> int:
        if todo is None:
            k |= free
            todo = k
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
        return k

    return close


def propagate(km: KnowledgeMap, ef: ExpandedFunction,
              order_seed: int | None = None) -> KnowledgeMap:
    """Least fixpoint of R2-R7 over the initialized map, by alternating
    forward and backward passes (see the module docstring). A forward pass
    leaves R4 and R6 satisfied on every block, a backward pass R5 and R7, and
    both leave every edge closed under R2/R3. The rules only grow the
    per-edge sets, so the fixpoint is unique; the optional order_seed
    shuffles the closure's rule order to exercise that.
    """
    f, cfg, ix, known = ef.function, km.cfg, km.index, km.bits
    grow = ef.close = closure(f, ix, order_seed)

    # per reachable block: in-edges, out-edges (it has both), in-edges that R5
    # may fill (the entry dummy keeps its seeds), definitions and phis, each
    # phi as (output bit, [(arm bit, in-edge)])
    blocks, by_label = [], f.block_map()
    for label in cfg.dom.order:
        b, ins_e, outs_e = by_label[label], cfg.in_edges[label], cfg.out_edges[label]
        phis = [(ix.bit[phi.output], [(ix.bit[op], cfg.edge(lab, label).index)
                                      for op, lab in zip(phi.operands, phi.phi_labels)
                                      if isinstance(op, str)])
                for phi in b.phis()]
        blocks.append(([e.index for e in ins_e], [e.index for e in outs_e],
                       [e.index for e in ins_e if e.src != ENTRY],
                       ix.mask(b.defined_vars()), phis))

    def forward(first: bool) -> bool:
        """R4, R6: each out-edge gains the AND of the in-edges (closed, as
        Horn closures are closed under intersection) and the fired phis."""
        grew = False
        for ins, outs, _, _, phis in blocks:
            base = known[ins[0]]
            for i in ins[1:]:
                base &= known[i]
            fired = 0
            for out, arms in phis:
                if all(known[i] & arm for arm, i in arms):
                    fired |= out
            for o in outs:
                k = known[o]
                if first:  # k is still its seeds
                    known[o] = grow(k | base | fired, (k | fired) & ~base)
                elif (base | fired) & ~k:
                    known[o] = grow(k | base | fired, (base | fired) & ~k)
                    grew = True
        return grew

    def backward() -> bool:
        """R5, R7, from the last block up: each in-edge gains what every
        out-edge knows and the block does not define, and each phi output
        known on every out-edge pushes its arms onto their in-edges."""
        grew = False
        for _, outs, hoist, defined, phis in reversed(blocks):
            common = known[outs[0]]
            for o in outs[1:]:
                common &= known[o]
            gain = dict.fromkeys(hoist, common & ~defined)
            for out, arms in phis:
                if common & out:
                    for arm, i in arms:
                        gain[i] |= arm
            for i, m in gain.items():
                k = known[i]
                if m & ~k:
                    # a rule that can still fire mentions a new bit, or else
                    # a bit outside the closed common or a definition of the
                    # block that common holds
                    rest = ((k | m) & ~common) | (common & defined & ~k)
                    known[i] = grow(k | m, min(m & ~k, rest, key=int.bit_count))
                    grew = True
        return grew

    dummy = cfg.entry_dummy().index
    known[dummy] = grow(known[dummy])
    forward(True)
    while backward() and forward(False):
        pass
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
    bits = _projected_bits(km, ef)
    return KnowledgeMap(ef.original_cfg, km.index, bits, _vacuous_flags(ef, bits, km.index))


def _projected_bits(km: KnowledgeMap, ef: ExpandedFunction) -> list[int]:
    """The bits of project_to_original, per edge of ef.original_cfg."""
    ix = km.index
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
    return [masks.get(oe.key, 0) for oe in ef.original_cfg.edges]


def _vacuous_flags(ef: ExpandedFunction, bits: list[int],
                   ix: VarIndex) -> dict[int, int]:
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
    vac: dict[int, int] = {}
    for e in cfg.edges:
        m = bits[e.index] & defined
        if e.src != ENTRY:
            m &= ~before[e.src]
        if e.dst != EXIT:
            m &= ~after[e.dst]
        if m:
            vac[e.index] = m
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


def summarize(ef: ExpandedFunction, kb: dict[str, int],
              frontiers: dict[str, set[str]], summaries: dict[str, FunctionSummary],
              leaks: list[Transmission]) -> FunctionSummary:
    """Build the caller-facing summary of ef.original from its leak model and
    block knowledge (masks over ef.index).

    A variable counts as fully declassified when its frontier is the entry
    block, or when it is derivable from the program text alone (known before
    the body runs). It is a pseudo transmitter when every value it reveals is
    fully declassified, its internal leaks are all inferable from the leaked
    arguments alone, and every callee is itself a pseudo transmitter.
    """
    f, bit = ef.original, ef.index.bit
    revealed: dict[str, set[str]] = {}
    for t in leaks:
        if isinstance(t.operand, str):
            revealed.setdefault(t.operand, set()).add(t.block)
    entry = f.entry_block
    public = kb.get(ENTRY, 0)
    fdv = frozenset(v for v, fr in frontiers.items()
                    if fr == {entry} or bit[v] & public)

    candidate_leaks = 0
    for b in {t.block for t in leaks}:
        candidate_leaks |= kb.get(b, 0)
    leaked_args = frozenset(i for i, p in enumerate(f.params) if bit[p] & candidate_leaks)
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
    internally leaked value at the blocks where it escapes. The same seed on
    every edge, the leaked parameters, holds no output of an equation, so the
    least fixpoint is that seed closed from scratch on every edge by the
    fixpoint's own R2/R3 closure, constants included (ef.close, or a new one
    when ef never went through propagate). Only the projected bits are read:
    no vacuous flags are computed."""
    ix = ef.index
    closed = (ef.close or closure(ef.function, ix))(ix.mask(seed))
    bits = _projected_bits(KnowledgeMap(ef.cfg, ix, [closed] * len(ef.cfg.edges)), ef)
    out_edges = ef.original_cfg.out_edges
    return all(bits[e.index] & ix.bit[v] for v in internal_leaks
               for b in revealed[v] for e in out_edges[b])
