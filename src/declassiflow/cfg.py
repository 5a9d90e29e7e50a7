"""Control-flow graph, dominators, natural loops, loop simplification and
partial loop expansion.

Every function's CFG gets a virtual entry node feeding the entry block and a
virtual exit node absorbing all ret blocks, so every real block has at least
one in-edge and one out-edge. Edge indices are stable: the entry dummy comes
first, then each block's out-edges in block/terminator order.

Each CFG carries its dominator tree, built by ir.dominator_tree when the
graph is: that one depth-first walk from the entry finds the dead blocks, and
natural loops read its reverse postorder.

Partial loop expansion duplicates a simple loop body into an initial copy and
an inductive copy, removes the back edge, and consolidates loop definitions in
a merge block. It works one nesting level at a time: each round expands every
innermost loop into one new function. The result is an analysis artifact: it
preserves data-flow relationships between variables, not computed values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .ir import OPCODES, Block, DomInfo, Function, Instruction, dominator_tree

ENTRY = "@entry"
EXIT = "@exit"

MAX_LOOP_DEPTH = 4


class CfgError(Exception):
    pass


@dataclass(frozen=True)
class Edge:
    index: int
    src: str
    dst: str

    @property
    def key(self) -> tuple[str, str]:
        return (self.src, self.dst)


@dataclass
class Cfg:
    function: Function
    edges: list[Edge]
    out_edges: dict[str, list[Edge]]
    in_edges: dict[str, list[Edge]]
    dom: DomInfo  # the blocks reachable from the entry, and their dominators
    dead_blocks: set[str]

    @property
    def entry(self) -> str:
        return self.function.entry_block

    @property
    def labels(self) -> list[str]:
        return [b.label for b in self.function.blocks]

    def edge(self, src: str, dst: str) -> Edge:
        for e in self.out_edges.get(src, ()):
            if e.dst == dst:
                return e
        raise KeyError((src, dst))

    def preds(self, label: str) -> list[str]:
        return [e.src for e in self.in_edges.get(label, ()) if e.src != ENTRY]

    def succs(self, label: str) -> list[str]:
        return [e.dst for e in self.out_edges.get(label, ()) if e.dst != EXIT]

    def entry_dummy(self) -> Edge:
        return self.in_edges[self.entry][0]


def build_cfg(f: Function) -> Cfg:
    """One edge per (terminator, successor) pair plus the dummy edges.

    Duplicate successors of a br collapse into a single edge. Blocks the
    dominator tree's walk from the entry block misses are flagged dead.
    """
    edges: list[Edge] = []
    out_edges: dict[str, list[Edge]] = {b.label: [] for b in f.blocks}
    in_edges: dict[str, list[Edge]] = {b.label: [] for b in f.blocks}
    out_edges[ENTRY] = []
    in_edges[EXIT] = []

    def add(src: str, dst: str):
        for e in out_edges[src]:
            if e.dst == dst:
                return
        e = Edge(len(edges), src, dst)
        edges.append(e)
        out_edges[src].append(e)
        in_edges.setdefault(dst, []).append(e)

    add(ENTRY, f.entry_block)
    for b in f.blocks:
        t = b.terminator
        if t.opcode == "ret":
            add(b.label, EXIT)
        else:
            for s in b.successor_labels():
                add(b.label, s)

    dom = dominator_tree({b.label: [e.dst for e in out_edges[b.label] if e.dst in out_edges]
                          for b in f.blocks}, f.entry_block)  # blocks, not EXIT
    dead = {b.label for b in f.blocks if b.label not in dom.depths}
    return Cfg(f, edges, out_edges, in_edges, dom, dead)


def prune_dead_blocks(f: Function) -> Function:
    """Drop unreachable blocks and fix up phi arms that referenced them."""
    return _prune_dead_blocks(f)[0]


def _prune_dead_blocks(f: Function) -> tuple[Function, Cfg | None]:
    """prune_dead_blocks, plus f's graph when nothing was pruned (f is then
    returned itself) or None when blocks were dropped."""
    cfg = build_cfg(f)
    if not cfg.dead_blocks:
        return f, cfg
    g = f.copy()
    g.blocks = [b for b in g.blocks if b.label not in cfg.dead_blocks]
    alive = {b.label for b in g.blocks}
    for b in g.blocks:
        for ins in b.instructions:
            if ins.opcode == "phi":
                keep = [(o, l) for o, l in zip(ins.operands, ins.phi_labels) if l in alive]
                ins.operands = [o for o, _ in keep]
                ins.phi_labels = [l for _, l in keep]
    return g, None


# ---------------------------------------------------------------------------
# Dominators
# ---------------------------------------------------------------------------

def dominators(cfg: Cfg) -> DomInfo:
    """The dominator tree of a CFG whose blocks are all reachable."""
    if cfg.dead_blocks:
        raise CfgError(f"unreachable blocks: {sorted(cfg.dead_blocks)}")
    return cfg.dom


# ---------------------------------------------------------------------------
# Natural loops
# ---------------------------------------------------------------------------

@dataclass
class NaturalLoop:
    header: str
    latches: list[str]
    body: set[str]
    exits: list[str]
    preheader: str | None


def natural_loops(cfg: Cfg) -> list[NaturalLoop]:
    """One loop per header; back edges sharing a header merge into one loop.
    Loops come in their headers' reverse postorder, which is topological over
    forward edges: each before every loop its blocks reach. Loops with
    different headers are nested or disjoint."""
    dom = dominators(cfg)
    rank = {l: i for i, l in enumerate(dom.order)}
    back: dict[str, list[str]] = {}
    for e in cfg.edges:
        if e.src == ENTRY or e.dst == EXIT:
            continue
        if dom.dom(e.dst, e.src):
            back.setdefault(e.dst, []).append(e.src)
        elif rank[e.dst] <= rank[e.src]:
            # a retreating edge that is no back edge: Hecht and Ullman, JACM 1974
            raise CfgError("irreducible control flow")

    loops: list[NaturalLoop] = []
    order = {l: i for i, l in enumerate(cfg.labels)}
    for header in (l for l in dom.order if l in back):
        body = {header}
        work = list(back[header])
        while work:
            cur = work.pop()
            if cur in body:
                continue
            body.add(cur)
            work.extend(cfg.preds(cur))
        exits = sorted({s for b in body for s in cfg.succs(b) if s not in body}, key=order.get)
        non_latch_preds = [p for p in cfg.preds(header) if p not in body]
        preheader = None
        if len(non_latch_preds) == 1 and len(cfg.succs(non_latch_preds[0])) == 1:
            preheader = non_latch_preds[0]
        loops.append(NaturalLoop(header, sorted(back[header], key=order.get), body,
                                 exits, preheader))
    return loops


def loop_depth(loops: list[NaturalLoop]) -> int:
    return max((1 + sum(1 for other in loops if other is not lp and lp.body < other.body)
                for lp in loops), default=0)


# ---------------------------------------------------------------------------
# Loop simplification
# ---------------------------------------------------------------------------

def _fresh(taken: set[str], base: str) -> str:
    name = base
    k = 1
    while name in taken:
        k += 1
        name = f"{base}{k}"
    taken.add(name)
    return name


def _retarget(block: Block, old: str, new: str):
    ops = block.terminator.operands
    for i in OPCODES[block.terminator.opcode].labels:
        if ops[i] == old:
            ops[i] = new


def simplify_loops(f: Function) -> Function:
    """Give every natural loop a unique preheader and a single latch.

    Multi-latch headers get a fresh latch whose consolidation phis merge the
    per-latch values, turning header phis two-way. Semantics are preserved.
    f itself is returned when it has no dead blocks and its loops are simple.
    """
    return _simplify_loops(f)[0]


def _simplify_loops(f: Function) -> tuple[Function, Cfg, list[NaturalLoop]]:
    """simplify_loops, plus the CFG and natural loops of the result. One
    analysis serves every insertion: a new preheader or latch changes no
    other loop's header, latches or outside predecessors."""
    g, cfg = _prune_dead_blocks(f)
    if cfg is None:  # g is a pruned copy
        cfg = build_cfg(g)
    loops = natural_loops(cfg)
    if all(lp.preheader is not None and len(lp.latches) == 1 for lp in loops):
        return g, cfg, loops
    if g is f:
        g = f.copy()
    labels = {b.label for b in g.blocks}
    varnames = set(g.defined_vars())
    for lp in loops:
        header = g.block(lp.header)
        if lp.preheader is None:
            outside = [p for p in cfg.preds(lp.header) if p not in lp.body]
            _insert_arm_block(g, header, outside, ".ph", labels, varnames, first=True)
        if len(lp.latches) > 1:
            _insert_arm_block(g, header, lp.latches, ".lt", labels, varnames, first=False)
    cfg = build_cfg(g)
    return g, cfg, natural_loops(cfg)


def _insert_arm_block(g: Function, header: Block, preds: list[str], suffix: str,
                      labels: set[str], varnames: set[str], first: bool):
    """Insert a fresh block jumping to header that preds now jump to instead:
    a preheader before header (first) or a latch after the last of preds.
    Each header phi's arms from preds move into it, merged by a new phi unless
    there is one, and leave one arm from the new block, first or last."""
    order = [b.label for b in g.blocks]
    at = order.index(header.label) if first else max(map(order.index, preds)) + 1
    blk = Block(_fresh(labels, f"{header.label}{suffix}"))
    blk.terminator = Instruction("jmp", operands=[header.label])
    for phi in header.phis():
        moved = [(o, l) for o, l in zip(phi.operands, phi.phi_labels) if l in preds]
        rest = [(o, l) for o, l in zip(phi.operands, phi.phi_labels) if l not in preds]
        val = moved[0][0]
        if len(moved) > 1:
            val = _fresh(varnames, f"{phi.output}{suffix}")
            blk.instructions.append(Instruction(
                "phi", output=val, operands=[o for o, _ in moved],
                phi_labels=[l for _, l in moved]))
        arms = [(val, blk.label)] + rest if first else rest + [(val, blk.label)]
        phi.operands = [o for o, _ in arms]
        phi.phi_labels = [l for _, l in arms]
    for p in preds:
        _retarget(g.blocks[order.index(p)], header.label, blk.label)
    g.blocks.insert(at, blk)


# ---------------------------------------------------------------------------
# Partial loop expansion
# ---------------------------------------------------------------------------

class VarIndex:
    """Dense numbering of variable names. A set of names is one int whose
    bit i stands for names[i]; original is the mask of the loop-simplified
    function's variables, which take the lowest bits."""

    def __init__(self, names: list[str], original: int):
        self.names = names
        self.bit = {v: 1 << i for i, v in enumerate(names)}
        self.original = original

    def mask(self, names) -> int:
        m = 0
        for v in names:
            m |= self.bit[v]
        return m

    def decode(self, m: int) -> set[str]:
        names = self.names
        return {names[i] for i, c in enumerate(reversed(bin(m))) if c == "1"}


@dataclass
class ExpandedFunction:
    """Acyclic analysis form of a function, with the graphs expansion built
    for later phases, each carrying its dominator tree: cfg is function's
    graph and original_cfg that of original, the loop-simplified function.
    original is the input function itself when simplification changed
    nothing, and function is original when there is no loop: neither may be
    mutated.

    edge_origin maps an expanded edge key to the set of pre-expansion edge
    keys it stands for (empty for synthetic merge plumbing). edge_subst gives,
    per expanded edge with an origin, the rename of each duplicated variable
    that is current there; names absent from the map are represented by
    themselves (the merge phis reuse original names, so post-loop edges need
    no entries).
    """

    function: Function
    original: Function
    edge_origin: dict[tuple[str, str], set[tuple[str, str]]]
    edge_subst: dict[tuple[str, str], dict[str, str]]
    cfg: Cfg
    original_cfg: Cfg

    def representative(self, var: str, edge_key: tuple[str, str]) -> str:
        return self.edge_subst.get(edge_key, {}).get(var, var)

    @cached_property
    def index(self) -> VarIndex:
        """The variables of original, then the others function defines, each
        group sorted and numbered once: edge knowledge of both graphs uses
        this index. Every name either function uses is defined in one of
        them (validate_ssa holds of the input, and expansion keeps it)."""
        names = dict.fromkeys(sorted(self.original.defined_vars()))
        low = (1 << len(names)) - 1
        names.update(dict.fromkeys(sorted(self.function.defined_vars())))
        return VarIndex(list(names), low)


def expand_loops(f: Function) -> ExpandedFunction:
    """Two-copy expansion, one nesting level at a time, until the CFG is
    acyclic.

    Each round rewrites every innermost simple loop: copy 1 replaces inductive
    phis with initial-value assignments, copy 2 with the copy-1 inductive
    values; a merge block per exit target consolidates every loop definition.
    Nesting deeper than MAX_LOOP_DEPTH is rejected.

    A round's loops are disjoint, and expanding one keeps dominance among the
    blocks outside it, so one loop analysis, one new function with its CFG and
    one composition of edge maps serve the round. The order is topological: a
    loop asks the round's dominators about blocks below its header, and no
    earlier loop of the round has renamed those.
    """
    g, cfg, loops = _simplify_loops(f)
    # expansion never deepens the nesting
    if loop_depth(loops) > MAX_LOOP_DEPTH:
        raise CfgError(f"loop nesting exceeds the supported depth of {MAX_LOOP_DEPTH}")
    work = g.copy() if loops else g  # rounds rewrite blocks outside their loops in place
    result = ExpandedFunction(work, g, {e.key: {e.key} for e in cfg.edges}, {},
                              replace(cfg, function=work), cfg)
    while loops:
        inner = [lp for lp in loops
                 if not any(other.body < lp.body for other in loops if other is not lp)]
        result = _compose(result, _expand_round(result.cfg, inner))
        loops = natural_loops(result.cfg)
    return result


def _compose(base: ExpandedFunction, step) -> ExpandedFunction:
    function, cfg, step_origin, step_subst = step
    edge_origin: dict[tuple[str, str], set[tuple[str, str]]] = {}
    edge_subst: dict[tuple[str, str], dict[str, str]] = {}
    for ek, mids in step_origin.items():
        acc: set[tuple[str, str]] = set()
        prior: dict[str, str] = {}
        for mk in mids:
            acc |= base.edge_origin.get(mk, set())
            prior.update(base.edge_subst.get(mk, {}))
        edge_origin[ek] = acc
        if not acc:  # synthetic plumbing: nothing reads its names
            continue
        s2 = step_subst.get(ek, {})
        chain: dict[str, str] = {}
        for orig, mid_name in prior.items():
            chain[orig] = s2.get(mid_name, mid_name)
        for mid_name, new in s2.items():
            chain.setdefault(mid_name, new)
        if chain:
            edge_subst[ek] = chain
    return ExpandedFunction(function, base.original, edge_origin, edge_subst, cfg,
                            base.original_cfg)


def _expand_round(cfg: Cfg, loops: list[NaturalLoop]):
    """Expand the disjoint innermost loops of one round of cfg's function, in
    the given topological order, mutating blocks outside them in place (phi
    arms, post-loop uses). Returns the rebuilt function, its CFG, edge_origin
    and edge_subst."""
    f, dom = cfg.function, cfg.dom
    blocks = f.block_map()
    order = {b.label: i for i, b in enumerate(f.blocks)}
    taken_labels = set(order)
    taken_vars = set(f.defined_vars())
    users: dict[str, set[str]] = {}  # variable -> labels of the blocks using it
    for b in f.blocks:
        for ins in b.instructions + [b.terminator]:
            for o in ins.var_operands():
                users.setdefault(o, set()).add(b.label)
    replaced: dict[str, list[Block]] = {}  # body label -> blocks taking its place
    entry_copy: dict[str, str] = {}  # header -> its copy 1
    copied: dict[str, tuple] = {}  # copy -> (original, {back edge} or {}, renames)
    merge_exit: dict[str, str] = {}  # merge block -> its exit target
    multi_names: dict[str, dict[str, str]] = {}  # merge of a multi-exit loop -> names
    for lp in loops:
        if len(lp.latches) != 1:
            raise CfgError(f"loop at '{lp.header}' is not simple (latches: {lp.latches})")
        latch = lp.latches[0]
        body = sorted(lp.body, key=order.get)
        loop_defs: set[str] = set()
        for lab in body:
            loop_defs |= blocks[lab].defined_vars()

        rename: dict[int, dict[str, str]] = {1: {}, 2: {}}
        for v in sorted(loop_defs):
            rename[1][v] = _fresh(taken_vars, f"{v}.1")
            rename[2][v] = _fresh(taken_vars, f"{v}.2")
        block_rename: dict[int, dict[str, str]] = {1: {}, 2: {}}
        for lab in body:
            block_rename[1][lab] = _fresh(taken_labels, f"{lab}.1")
            block_rename[2][lab] = _fresh(taken_labels, f"{lab}.2")
        inv_block = {v: k for c in (1, 2) for k, v in block_rename[c].items()}
        for c in (1, 2):
            for lab, nl in block_rename[c].items():
                back = {(latch, lp.header)} if c == 2 and lab == latch else set()
                copied[nl] = (lab, back, rename[c])
        entry_copy[lp.header] = block_rename[1][lp.header]

        single_merge = len(lp.exits) <= 1
        merge_of: dict[str, str] = {}  # exit target ("@none" if none) -> its merge
        for k, x in enumerate(lp.exits or ["@none"]):
            merge_of[x] = _fresh(taken_labels,
                                 f"{lp.header}.m" if single_merge else f"{lp.header}.m{k + 1}")
        fallback_merge = next(iter(merge_of.values()))
        merge_exit.update((m, x) for x, m in merge_of.items())

        def sub(c: int, op):
            if isinstance(op, str) and op in loop_defs:
                return rename[c][op]
            return op

        copies: dict[tuple[str, int], Block] = {}
        for c in (1, 2):
            for lab in body:
                src = blocks[lab]
                nb = Block(block_rename[c][lab])
                for ins in src.instructions:
                    if ins.opcode == "phi" and lab == lp.header:
                        arms = dict(zip(ins.phi_labels, ins.operands))
                        init_val = next(v for l, v in arms.items() if l != latch)
                        val = init_val if c == 1 else sub(1, arms[latch])
                        nb.instructions.append(Instruction(
                            "add", output=rename[c][ins.output], operands=[val, 0]))
                        continue
                    ni = ins.copy()
                    if ni.output is not None:
                        ni.output = rename[c][ni.output]
                    ni.operands = [sub(c, o) for o in ni.operands]
                    if ni.opcode == "phi":
                        ni.phi_labels = [block_rename[c].get(l, l) for l in ni.phi_labels]
                    nb.instructions.append(ni)
                t = src.terminator.copy()
                labels = OPCODES[t.opcode].labels
                for i, o in enumerate(t.operands):
                    if i not in labels:
                        t.operands[i] = sub(c, o)
                    elif o == lp.header:
                        t.operands[i] = block_rename[2][lp.header] if c == 1 else fallback_merge
                    elif o in lp.body:
                        t.operands[i] = block_rename[c][o]
                    else:
                        t.operands[i] = merge_of[o]
                nb.terminator = t
                copies[(lab, c)] = nb

        merge_preds: dict[str, list[tuple[str, int]]] = {m: [] for m in merge_of.values()}
        for c in (1, 2):
            for lab in body:
                nb = copies[(lab, c)]
                for s in nb.successor_labels():
                    if s in merge_preds and (nb.label, c) not in merge_preds[s]:
                        merge_preds[s].append((nb.label, c))

        # Consolidate a definition only when its phi would be well formed (every
        # arm's definition dominates that arm's predecessor) or when code after
        # the loop actually uses it; in the latter case SSA of the input already
        # guarantees the real exit arms are dominated. No earlier loop of the
        # round adds a use of this loop's definitions.
        def_block: dict[str, str] = {}
        for lab in body:
            for v in blocks[lab].defined_vars():
                def_block[v] = lab
        used_after = {v for v in loop_defs if not users.get(v, set()) <= lp.body}

        merge_blocks: list[Block] = []
        merged_name: dict[str, dict[str, str]] = {}
        for x, m in merge_of.items():
            mb = Block(m)
            outs: dict[str, str] = {}
            for v in sorted(loop_defs):
                arms_ok = all(dom.dom(def_block[v], inv_block[lab])
                              for (lab, _) in merge_preds[m])
                if v not in used_after and not arms_ok:
                    continue
                out_name = v if single_merge else _fresh(taken_vars, f"{v}.m")
                outs[v] = out_name
                mb.instructions.append(Instruction(
                    "phi", output=out_name,
                    operands=[rename[c][v] for (_, c) in merge_preds[m]],
                    phi_labels=[lab for (lab, _) in merge_preds[m]]))
            mb.terminator = Instruction("ret") if x == "@none" else Instruction("jmp", operands=[x])
            merged_name[m] = outs
            merge_blocks.append(mb)

        if not single_merge:
            used_in = set().union(*(users.get(v, ()) for v in loop_defs)) - lp.body
            _rewrite_multi_merge_uses([blocks[l] for l in sorted(used_in, key=order.get)],
                                      dom, lp, loop_defs, merge_of, merged_name)
            multi_names.update((m, names) for m, names in merged_name.items() if names)

        # exit-target phis: arms from exiting blocks collapse into one merge arm
        for x in lp.exits:
            m = merge_of[x]
            for ins in blocks[x].phis():
                loop_arms = [(o, l) for o, l in zip(ins.operands, ins.phi_labels) if l in lp.body]
                other = [(o, l) for o, l in zip(ins.operands, ins.phi_labels) if l not in lp.body]
                if not loop_arms:
                    continue
                if len(loop_arms) == 1 and len(merge_preds[m]) <= 2 and all(
                        inv_block[pl] == loop_arms[0][1] or (inv_block[pl] == latch)
                        for pl, _ in merge_preds[m]):
                    o = loop_arms[0][0]
                    val = merged_name[m][o] if isinstance(o, str) and o in loop_defs else o
                else:
                    arm_of = {l: o for o, l in loop_arms}
                    aux = _fresh(taken_vars, f"{ins.output}.x")
                    mb = next(blk for blk in merge_blocks if blk.label == m)
                    ops, labs = [], []
                    for pl, c in merge_preds[m]:
                        o = arm_of.get(inv_block[pl], next(iter(arm_of.values())))
                        ops.append(rename[c][o] if isinstance(o, str) and o in loop_defs else o)
                        labs.append(pl)
                    mb.instructions.append(Instruction("phi", output=aux, operands=ops,
                                                       phi_labels=labs))
                    val = aux
                ins.operands = [val] + [o for o, _ in other]
                ins.phi_labels = [m] + [l for _, l in other]

        replaced.update(dict.fromkeys(body, ()))
        replaced[body[0]] = ([copies[(lab, 1)] for lab in body]
                             + [copies[(lab, 2)] for lab in body] + merge_blocks)
        # later loops of the round draw fresh names from what this one leaves
        taken_labels -= lp.body
        taken_vars -= loop_defs - (set(merged_name[fallback_merge]) if single_merge else set())

    final_blocks: list[Block] = []
    for b in f.blocks:
        final_blocks.extend(replaced.get(b.label, (b,)))
    # outside predecessors, merge blocks among them, enter through copy 1; a
    # copy may bear a dropped header's name, but jumps only within its loop
    for b in final_blocks:
        if b.label in copied:
            continue
        ops = b.terminator.operands
        for i in OPCODES[b.terminator.opcode].labels:
            ops[i] = entry_copy.get(ops[i], ops[i])
    nf = Function(f.name, list(f.params), final_blocks, f.line)

    edge_origin: dict[tuple[str, str], set[tuple[str, str]]] = {}
    edge_subst: dict[tuple[str, str], dict[str, str]] = {}
    ncfg = build_cfg(nf)
    # below a multi-exit loop, an edge uses the names of the merge dominating it
    below: dict[str, dict[str, str]] = {}
    for m, names in multi_names.items():
        for b in ncfg.dom.dominated_by(m):
            below.setdefault(b, {}).update(names)
    for e in ncfg.edges:
        src, dst = e.key
        if src in merge_exit:  # synthetic plumbing
            edge_origin[e.key] = set()
            continue
        s, d = copied.get(src), copied.get(dst)
        if s and dst in merge_exit:  # an exit edge, or the back edge from copy 2
            x = merge_exit[dst]
            exit_edge = {(s[0], x)} if x in blocks[s[0]].successor_labels() else set()
            edge_origin[e.key] = exit_edge | s[1]
        else:
            edge_origin[e.key] = {(s[0] if s else src, d[0] if d else dst)}
        subst = {**below.get(src, {}), **(s[2] if s else {})}
        if subst:
            edge_subst[e.key] = subst
    return nf, ncfg, edge_origin, edge_subst


def _rewrite_multi_merge_uses(blocks: list[Block], dom: DomInfo, lp: NaturalLoop, loop_defs,
                              merge_of, merged_name):
    """With several exit targets, loop definitions get per-merge names; uses
    after the loop, in blocks outside it, must name the merge output that
    dominates them."""
    def pick(use_block: str, var: str) -> str:
        candidates = [x for x in merge_of if x != "@none" and dom.dom(x, use_block)]
        if len(candidates) != 1:
            raise CfgError(f"variable '{var}' used past multiple loop exits; unsupported")
        return merged_name[merge_of[candidates[0]]][var]

    for b in blocks:
        for ins in b.instructions + [b.terminator]:
            if ins.opcode == "phi":
                for i, (o, l) in enumerate(zip(ins.operands, ins.phi_labels)):
                    if isinstance(o, str) and o in loop_defs and l not in lp.body:
                        ins.operands[i] = pick(l, o)
            else:
                labels = OPCODES[ins.opcode].labels
                for i, o in enumerate(ins.operands):
                    if i not in labels and isinstance(o, str) and o in loop_defs:
                        ins.operands[i] = pick(b.label, o)


# ---------------------------------------------------------------------------
# DOT output
# ---------------------------------------------------------------------------

def to_dot(cfg: Cfg) -> str:
    lines = ["digraph cfg {"]
    lines.append(f'  "{ENTRY}" [shape=point];')
    lines.append(f'  "{EXIT}" [shape=point];')
    for b in cfg.function.blocks:
        lines.append(f'  "{b.label}" [shape=box];')
    for e in cfg.edges:
        lines.append(f'  "{e.src}" -> "{e.dst}" [label="e{e.index + 1}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
