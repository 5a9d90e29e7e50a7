import importlib
import pkgutil
import random
import sys
from collections import Counter

import pytest

import declassiflow
from declassiflow import cfg as cfg_module
from declassiflow import knowledge as knowledge_module
from declassiflow.cfg import (ENTRY, EXIT, MAX_LOOP_DEPTH, Cfg, CfgError, DomInfo,
                              ExpandedFunction, NaturalLoop, _compose, _fresh, _retarget,
                              _rewrite_multi_merge_uses, build_cfg, dominators, expand_loops,
                              loop_depth, natural_loops, prune_dead_blocks, simplify_loops,
                              to_dot)
from declassiflow.ir import (OPCODES, Block, Function, Instruction, Program, dominator_tree,
                             parse_program, pretty_print, validate_ssa)
from declassiflow.oracle import interpret
from declassiflow.pipeline import RunConfig, analyze_program, dump_expanded, run_pipeline

from conftest import FIXTURES, fixture_program, fixture_text, representative
from generators import call_chain, random_acyclic_program, random_loop_program, segments


def brute_force_dominates(cfg: Cfg, a: str, b: str) -> bool:
    """Path-enumeration oracle: every entry-to-b path contains a."""
    if a == b:
        return True
    seen = set()
    work = [cfg.entry]
    while work:
        cur = work.pop()
        if cur == a or cur in seen:
            continue
        if cur == b:
            return False
        seen.add(cur)
        work.extend(cfg.succs(cur))
    return True

ALL_FIXTURES = ["diamond_linked", "diamond_opaque", "anticorrelated", "aes_analog",
                "djbsort_analog", "chacha_analog", "hoistable_loop", "two_latch",
                "nested_loops", "self_loop_opaque", "self_loop_linked", "chain"]


def test_diamond_edges_and_labels():
    f = fixture_program("diamond_linked").functions[0]
    cfg = build_cfg(f)
    assert [e.key for e in cfg.edges] == [
        (ENTRY, "B1"), ("B1", "B3"), ("B1", "B2"), ("B2", "B3"), ("B3", EXIT)]
    assert len(cfg.edges) == 5


def test_single_block_dummy_edges():
    f = parse_program("fn f() { B: ret }").functions[0]
    cfg = build_cfg(f)
    assert [e.key for e in cfg.edges] == [(ENTRY, "B"), ("B", EXIT)]


def test_anticorrelated_has_eight_edges():
    f = fixture_program("anticorrelated").functions[0]
    cfg = build_cfg(f)
    assert len(cfg.edges) == 8
    assert cfg.edges[0].key == (ENTRY, "B1")
    assert cfg.edges[7].key == ("B5", EXIT)


def test_dual_branch_targets_collapse():
    f = parse_program("fn f(c) {\nB1:\n  br c, B2, B2\nB2:\n  ret\n}").functions[0]
    cfg = build_cfg(f)
    assert [e.key for e in cfg.edges] == [(ENTRY, "B1"), ("B1", "B2"), ("B2", EXIT)]


def test_dominators_reflexive_and_entry():
    f = fixture_program("anticorrelated").functions[0]
    cfg = build_cfg(f)
    dom = dominators(cfg)
    for label in cfg.labels:
        assert dom.dom(label, label)
        assert dom.dom("B1", label)
    assert dom.dom("B3", "B4") and not dom.dom("B2", "B3")


def test_dominators_error_on_dead_blocks():
    f = parse_program("fn f() {\nB1:\n  ret\nB2:\n  ret\n}").functions[0]
    cfg = build_cfg(f)
    assert cfg.dead_blocks == {"B2"}
    with pytest.raises(CfgError, match="unreachable"):
        dominators(cfg)
    pruned = prune_dead_blocks(f)
    assert [b.label for b in pruned.blocks] == ["B1"]


def test_dominators_agree_with_path_oracle():
    rng = random.Random(9)
    texts = [random_acyclic_program(rng, max_blocks=12) for _ in range(25)]
    texts += [random_loop_program(random.Random(seed)) for seed in range(200)]  # cyclic
    for text in texts:
        f = parse_program(text).functions[0]
        cfg = build_cfg(prune_dead_blocks(f))
        dom = dominators(cfg)
        for a in cfg.labels:
            for b in cfg.labels:
                assert dom.dom(a, b) == brute_force_dominates(cfg, a, b), (a, b, text)

    # the validator runs the shared routine on graphs with unreachable blocks
    f = parse_program("fn f(c) {\nB1:\n  br c, B2, B4\nB2:\n  jmp B4\n"
                      "B3:\n  jmp B4\nB4:\n  ret\n}").functions[0]
    cfg = build_cfg(f)
    assert cfg.dead_blocks == {"B3"}
    dom = dominator_tree({l: cfg.succs(l) for l in cfg.labels}, cfg.entry)
    assert not any(dom.dom(a, "B3") for a in cfg.labels)
    for a in ("B1", "B2", "B4"):
        for b in ("B1", "B2", "B4"):
            assert dom.dom(a, b) == brute_force_dominates(cfg, a, b), (a, b)


def test_self_loop_detection():
    f = fixture_program("self_loop_opaque").functions[0]
    cfg = build_cfg(f)
    loops = natural_loops(cfg)
    assert len(loops) == 1
    lp = loops[0]
    assert lp.header == "B2" and lp.latches == ["B2"] and lp.body == {"B2"}


def test_acyclic_has_no_loops():
    f = fixture_program("diamond_linked").functions[0]
    cfg = build_cfg(f)
    assert natural_loops(cfg) == []


def test_two_latch_loop_is_one_loop():
    f = fixture_program("two_latch").functions[0]
    cfg = build_cfg(f)
    loops = natural_loops(cfg)
    assert len(loops) == 1
    assert loops[0].latches == ["B4", "B5"]


def test_irreducible_rejected():
    f = parse_program("""
fn f(c) {
B1:
  br c, B2, B3
B2:
  jmp B3
B3:
  jmp B2
}
""").functions[0]
    cfg = build_cfg(f)
    with pytest.raises(CfgError, match="irreducible"):
        natural_loops(cfg)


def reference_natural_loops(cfg: Cfg) -> list[NaturalLoop]:
    """Loop finding with back edges from the path oracle, a Kahn sort of the
    remaining edges as the irreducibility check and the loop order, and an
    explicit nesting check: the reference for the one-walk version."""
    back: dict[str, list[str]] = {}
    back_edge_set = set()
    for e in cfg.edges:
        if e.src == ENTRY or e.dst == EXIT:
            continue
        if brute_force_dominates(cfg, e.dst, e.src):
            back.setdefault(e.dst, []).append(e.src)
            back_edge_set.add((e.src, e.dst))

    succs = {l: [s for s in cfg.succs(l) if (l, s) not in back_edge_set] for l in cfg.labels}
    indeg = {l: 0 for l in cfg.labels}
    for l, ss in succs.items():
        for s in ss:
            indeg[s] += 1
    queue = [l for l in cfg.labels if indeg[l] == 0]
    topo = []
    while queue:
        cur = queue.pop()
        topo.append(cur)
        for s in succs[cur]:
            indeg[s] -= 1
            if indeg[s] == 0:
                queue.append(s)
    if len(topo) != len(cfg.labels):
        raise CfgError("irreducible control flow")

    loops: list[NaturalLoop] = []
    order = {l: i for i, l in enumerate(cfg.labels)}
    for header in (l for l in topo if l in back):
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

    for a in loops:
        for b in loops:
            if a is not b and a.body & b.body and not (a.body <= b.body or b.body <= a.body):
                raise CfgError(f"loops at '{a.header}' and '{b.header}' overlap without nesting")
    return loops


def _random_digraph(rng: random.Random) -> Function:
    """A function of up to 8 blocks whose terminators jump anywhere but to the
    entry block: reducible or not, with or without dead blocks."""
    labels = [f"B{i}" for i in range(rng.randint(1, 8))]
    blocks = []
    for label in labels:
        b = Block(label)
        targets = rng.sample(labels[1:], min(rng.choice((0, 1, 2, 2)), len(labels) - 1))
        if len(targets) == 2:
            b.terminator = Instruction("br", operands=["c", *targets])
        elif targets:
            b.terminator = Instruction("jmp", operands=targets)
        else:
            b.terminator = Instruction("ret")
        blocks.append(b)
    return Function("f", ["c"], blocks)


def test_natural_loops_match_reference_on_random_digraphs():
    def outcome(find):
        try:
            return find()
        except CfgError as exc:
            return str(exc)

    shapes = {"irreducible": 0, "two or more loops": 0, "nested": 0}
    rng = random.Random(15)
    for _ in range(2000):
        cfg = build_cfg(prune_dead_blocks(_random_digraph(rng)))
        loops = outcome(lambda: natural_loops(cfg))
        want = outcome(lambda: reference_natural_loops(cfg))
        if isinstance(want, str):
            assert loops == want, to_dot(cfg)
            shapes["irreducible"] += 1
            continue
        assert sorted(loops, key=lambda lp: lp.header) == sorted(want, key=lambda lp: lp.header)
        shapes["two or more loops"] += len(loops) >= 2
        shapes["nested"] += loop_depth(loops) >= 2
        forward = {l: [s for s in cfg.succs(l) if not brute_force_dominates(cfg, s, l)]
                   for l in cfg.labels}
        for i, lp in enumerate(loops):
            reached, work = set(), [lp.header]
            while work:
                cur = work.pop()
                if cur not in reached:
                    reached.add(cur)
                    work.extend(forward[cur])
            assert not any(earlier.header in reached for earlier in loops[:i]), to_dot(cfg)
            for other in loops:
                assert (lp.body <= other.body or other.body <= lp.body
                        or not lp.body & other.body), to_dot(cfg)
    assert min(shapes.values()) >= 20, shapes


def reference_dead_blocks(cfg: Cfg) -> set[str]:
    """Blocks a reachability walk over the out-edges from the entry block
    misses: the reference for the dead blocks of the dominator tree's walk."""
    reachable = {cfg.entry}
    work = [cfg.entry]
    while work:
        for e in cfg.out_edges[work.pop()]:
            if e.dst in cfg.out_edges and e.dst not in reachable:  # a block, not EXIT
                reachable.add(e.dst)
                work.append(e.dst)
    return set(cfg.labels) - reachable


def test_dead_blocks_match_reachability_walk():
    rng = random.Random(16)
    with_dead = 0
    for _ in range(2000):
        cfg = build_cfg(_random_digraph(rng))
        assert cfg.dead_blocks == reference_dead_blocks(cfg), to_dot(cfg)
        with_dead += bool(cfg.dead_blocks)
    assert with_dead >= 200, with_dead


def test_simplify_two_latch_shape():
    f = fixture_program("two_latch").functions[0]
    g = simplify_loops(f)
    assert validate_ssa(Program([g])).ok()
    cfg = build_cfg(g)
    loops = natural_loops(cfg)
    assert len(loops) == 1
    lp = loops[0]
    assert len(lp.latches) == 1
    assert lp.preheader is not None
    header_phis = g.block(lp.header).phis()
    assert all(len(ph.operands) == 2 for ph in header_phis)
    # the merged latch holds only consolidation phis
    latch = g.block(lp.latches[0])
    assert all(i.opcode == "phi" for i in latch.instructions)


def test_simplify_idempotent_on_simple_loop():
    f = fixture_program("self_loop_linked").functions[0]
    g = simplify_loops(f)
    assert [b.label for b in g.blocks] == [b.label for b in f.blocks]
    again = simplify_loops(g)
    assert [b.label for b in again.blocks] == [b.label for b in g.blocks]


@pytest.mark.parametrize("name,n_inputs", [("two_latch", 1), ("nested_loops", 1),
                                           ("hoistable_loop", 2)])
def test_simplify_preserves_semantics(name, n_inputs):
    f = fixture_program(name).functions[0]
    g = simplify_loops(f)
    rng = random.Random(7)
    for _ in range(20):
        vals = [rng.randint(0, 6) for _ in range(n_inputs)]
        t1 = interpret(Program([f]), vals, pad_inputs=True)
        t2 = interpret(Program([g]), vals, pad_inputs=True)
        obs1 = [(o.kind, o.value) for o in t1.observations]
        obs2 = [(o.kind, o.value) for o in t2.observations]
        assert obs1 == obs2


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_expansion_is_acyclic_everywhere(name):
    for f in fixture_program(name).functions:
        ef = expand_loops(prune_dead_blocks(f))
        cfg = build_cfg(ef.function)
        assert natural_loops(cfg) == []
        assert not cfg.dead_blocks
        # on every counterpart of an original edge, each original variable
        # available there (a parameter, or defined in a block dominating the
        # edge's source) is represented by a name the expanded function defines
        g = ef.original
        gdom = dominators(build_cfg(g))
        def_block = {i.output: b.label for b in g.blocks
                     for i in b.instructions if i.output is not None}
        defined = ef.function.defined_vars()
        for ek, origins in ef.edge_origin.items():
            for src, _ in origins:
                for v in g.defined_vars():
                    if v in g.params or (src != ENTRY and gdom.dom(def_block[v], src)):
                        assert representative(ef, v, ek) in defined, (v, ek)


def test_expanded_cfg_order_covers_every_block():
    """knowledge.propagate walks each expanded function's blocks in
    cfg.dom.order: the order must hold every block (no dead block) and every
    edge must run forward in it."""
    texts = [random_loop_program(random.Random(seed)) for seed in range(1000)]
    texts += [random_acyclic_program(random.Random(seed)) for seed in range(300)]
    texts += [segments(k) for k in range(1, 17)] + [call_chain(6)]
    texts += [path.read_text() for path in sorted(FIXTURES.glob("*.mir"))]
    checked = 0
    for text in texts:
        for f in parse_program(text).functions:
            try:
                cfg = expand_loops(f).cfg
            except CfgError:
                continue  # irreducible or too deeply nested
            assert not cfg.dead_blocks, f.name
            rank = {b: i for i, b in enumerate(cfg.dom.order)}
            assert sorted(rank) == sorted(cfg.labels), f.name
            assert all(rank[e.src] < rank[e.dst] for e in cfg.edges
                       if e.src != ENTRY and e.dst != EXIT), f.name
            checked += 1
    assert checked >= 1300, checked


def test_expand_loop_free_is_identity():
    f = fixture_program("diamond_linked").functions[0]
    ef = expand_loops(f)
    assert [b.label for b in ef.function.blocks] == [b.label for b in f.blocks]
    assert ef.edge_subst == {}


def test_expand_self_loop_dataflow():
    f = fixture_program("self_loop_linked").functions[0]
    ef = expand_loops(f)
    g = ef.function
    b21, b22 = g.block("B2.1"), g.block("B2.2")
    # the initial copy assigns the seed; the inductive copy takes the copy-1 value
    assert any(i.output == "x2.1" and i.operands[0] == "x1" for i in b21.instructions)
    assert any(i.output == "x2.2" and i.operands[0] == "x3.1" for i in b22.instructions)
    merge = g.block("B2.m")
    merged = {i.output for i in merge.phis()}
    assert "x2" in merged and "x3" in merged
    # on the edges of each copy, x2 is represented by that copy's name
    assert representative(ef, "x2", ("B2.1", "B2.2")) == "x2.1"
    assert representative(ef, "x2", ("B2.1", "B2.m")) == "x2.1"
    assert representative(ef, "x2", ("B2.2", "B2.m")) == "x2.2"


def test_expand_nested_counts():
    f = fixture_program("nested_loops").functions[0]
    ef = expand_loops(f)
    labels = [b.label for b in ef.function.blocks]
    merges = [l for l in labels if ".m" in l]
    inner_copies = [l for l in labels if l.startswith("B3.") and ".m" not in l]
    assert len(merges) == 3
    assert len(inner_copies) == 4
    assert validate_ssa(Program([ef.function])).ok()


def test_expansion_preserves_transmitters():
    from declassiflow.ir import transmissions
    f = fixture_program("djbsort_analog").functions[0]
    ef = expand_loops(f)
    orig = sorted((t.opcode, t.operand) for t in transmissions(ef.original)
                  if isinstance(t.operand, str))
    out_edges = build_cfg(ef.function).out_edges

    def original_name(t):  # undo the rename current on the block's out-edge
        subst = ef.edge_subst.get(out_edges[t.block][0].key, {})
        return {new: old for old, new in subst.items()}.get(t.operand, t.operand)

    mapped = sorted((t.opcode, original_name(t))
                    for t in transmissions(ef.function) if isinstance(t.operand, str))
    # each original transmitter occurs at least once (copies may add more)
    for item in orig:
        assert item in mapped
    assert {o for _, o in mapped} <= {o for _, o in orig} | set()


def test_expansion_depth_cap():
    text_parts = ["fn f() {", "B0:", "  c0 = input", "  jmp L1"]
    for d in range(1, 6):
        text_parts += [f"L{d}:", f"  c{d} = input"]
        if d < 5:
            text_parts.append(f"  jmp L{d + 1}")
        else:
            text_parts.append("  jmp R5")
    for d in range(5, 0, -1):
        text_parts += [f"R{d}:", f"  x{d} = input",
                       f"  br x{d}, L{d}, " + (f"R{d - 1}" if d > 1 else "X")]
    text_parts += ["X:", "  ret", "}"]
    f = parse_program("\n".join(text_parts)).functions[0]
    with pytest.raises(CfgError, match="depth"):
        expand_loops(f)


def test_dot_output_mentions_every_edge():
    f = fixture_program("diamond_linked").functions[0]
    cfg = build_cfg(f)
    dot = to_dot(cfg)
    assert dot.count("->") == len(cfg.edges)


def reference_simplify_loops(f):
    """Loop simplification that analyzes the CFG again after every inserted
    block: the reference for the one-pass version."""
    g = prune_dead_blocks(f).copy()
    changed = True
    while changed:
        changed = False
        cfg = build_cfg(g)
        loops = natural_loops(cfg)
        labels = {b.label for b in g.blocks}
        varnames = set(g.defined_vars())
        for lp in loops:
            header_blk = g.block(lp.header)
            non_latch_preds = [p for p in cfg.preds(lp.header) if p not in lp.body]
            need_preheader = not (len(non_latch_preds) == 1
                                  and len(cfg.succs(non_latch_preds[0])) == 1)
            if need_preheader:
                ph = _fresh(labels, f"{lp.header}.ph")
                ph_block = Block(ph)
                ph_block.terminator = Instruction("jmp", operands=[lp.header])
                for phi in header_blk.phis():
                    init_arms = [(o, l) for o, l in zip(phi.operands, phi.phi_labels)
                                 if l in non_latch_preds]
                    rest = [(o, l) for o, l in zip(phi.operands, phi.phi_labels)
                            if l not in non_latch_preds]
                    if len(init_arms) == 1:
                        init_val = init_arms[0][0]
                    else:
                        v = _fresh(varnames, f"{phi.output}.ph")
                        ph_block.instructions.append(Instruction(
                            "phi", output=v,
                            operands=[o for o, _ in init_arms],
                            phi_labels=[l for _, l in init_arms]))
                        init_val = v
                    phi.operands = [init_val] + [o for o, _ in rest]
                    phi.phi_labels = [ph] + [l for _, l in rest]
                for p in non_latch_preds:
                    _retarget(g.block(p), lp.header, ph)
                g.blocks.insert(g.blocks.index(header_blk), ph_block)
                changed = True
                break
            if len(lp.latches) > 1:
                lt = _fresh(labels, f"{lp.header}.lt")
                lt_block = Block(lt)
                lt_block.terminator = Instruction("jmp", operands=[lp.header])
                for phi in header_blk.phis():
                    latch_arms = [(o, l) for o, l in zip(phi.operands, phi.phi_labels)
                                  if l in lp.latches]
                    rest = [(o, l) for o, l in zip(phi.operands, phi.phi_labels)
                            if l not in lp.latches]
                    v = _fresh(varnames, f"{phi.output}.lt")
                    lt_block.instructions.append(Instruction(
                        "phi", output=v,
                        operands=[o for o, _ in latch_arms],
                        phi_labels=[l for _, l in latch_arms]))
                    phi.operands = [o for o, _ in rest] + [v]
                    phi.phi_labels = [l for _, l in rest] + [lt]
                for latch in lp.latches:
                    _retarget(g.block(latch), lp.header, lt)
                last = max(g.blocks.index(g.block(l)) for l in lp.latches)
                g.blocks.insert(last + 1, lt_block)
                changed = True
                break
    return g


def reference_expand_loops(f) -> ExpandedFunction:
    """Expansion in the same rounds and order as expand_loops, but one loop per
    step: the function, its CFG, the dominators and the loop record are built
    again, and the edge maps composed, after every loop."""
    g = reference_simplify_loops(f)
    work = g.copy()
    cfg = build_cfg(work)
    gcfg = build_cfg(g)
    result = ExpandedFunction(work, g, {e.key: {e.key} for e in cfg.edges}, {}, cfg, gcfg)
    loops = natural_loops(cfg)
    if loop_depth(loops) > MAX_LOOP_DEPTH:
        raise CfgError(f"loop nesting exceeds the supported depth of {MAX_LOOP_DEPTH}")
    while loops:
        for header in [lp.header for lp in loops
                       if not any(other.body < lp.body for other in loops if other is not lp)]:
            cfg = build_cfg(result.function)
            dom = dominators(cfg)
            lp = next(lp for lp in natural_loops(cfg) if lp.header == header)
            result = _compose(result, reference_expand_one(result.function, cfg, dom, lp))
        cfg = build_cfg(result.function)
        loops = natural_loops(cfg)
    return result


def reference_expand_one(f: Function, cfg: Cfg, dom: DomInfo, lp: NaturalLoop):
    """Expand one simple innermost loop of f, mutating non-loop blocks of f in
    place (phi arms, post-loop uses), with its own scans over every block and
    its own CFG. Returns the rebuilt function, its CFG, edge_origin and
    edge_subst. cfg is f's; dom and lp are the round's."""
    if len(lp.latches) != 1:
        raise CfgError(f"loop at '{lp.header}' is not simple (latches: {lp.latches})")
    latch = lp.latches[0]
    order = {b.label: i for i, b in enumerate(f.blocks)}
    body = sorted(lp.body, key=order.get)
    loop_defs: set[str] = set()
    for lab in body:
        loop_defs |= f.blocks[order[lab]].defined_vars()

    taken_labels = {b.label for b in f.blocks}
    taken_vars = set(f.defined_vars())
    rename: dict[int, dict[str, str]] = {1: {}, 2: {}}
    for v in sorted(loop_defs):
        rename[1][v] = _fresh(taken_vars, f"{v}.1")
        rename[2][v] = _fresh(taken_vars, f"{v}.2")
    block_rename: dict[int, dict[str, str]] = {1: {}, 2: {}}
    for lab in body:
        block_rename[1][lab] = _fresh(taken_labels, f"{lab}.1")
        block_rename[2][lab] = _fresh(taken_labels, f"{lab}.2")
    inv_block = {v: k for c in (1, 2) for k, v in block_rename[c].items()}
    copy_of_block = {v: c for c in (1, 2) for v in block_rename[c].values()}

    exit_targets = list(lp.exits)
    single_merge = len(exit_targets) <= 1
    merge_of: dict[str, str] = {}
    for k, x in enumerate(exit_targets):
        merge_of[x] = _fresh(taken_labels,
                             f"{lp.header}.m" if single_merge else f"{lp.header}.m{k + 1}")
    if not exit_targets:
        merge_of["@none"] = _fresh(taken_labels, f"{lp.header}.m")
    fallback_merge = merge_of[exit_targets[0]] if exit_targets else merge_of["@none"]
    merge_labels = set(merge_of.values())

    def sub(c: int, op):
        if isinstance(op, str) and op in loop_defs:
            return rename[c][op]
        return op

    copies: dict[tuple[str, int], Block] = {}
    for c in (1, 2):
        for lab in body:
            src = f.blocks[order[lab]]
            nb = Block(block_rename[c][lab])
            for ins in src.instructions:
                if ins.opcode == "phi" and lab == lp.header:
                    arms = dict(zip(ins.phi_labels, ins.operands))
                    latch_val = arms[latch]
                    init_val = next(v for l, v in arms.items() if l != latch)
                    val = init_val if c == 1 else sub(1, latch_val)
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

    merge_preds: dict[str, list[tuple[str, int]]] = {m: [] for m in merge_labels}
    for c in (1, 2):
        for lab in body:
            nb = copies[(lab, c)]
            for s in nb.successor_labels():
                if s in merge_preds and (nb.label, c) not in merge_preds[s]:
                    merge_preds[s].append((nb.label, c))

    # Consolidate a definition only when its phi would be well formed (every
    # arm's definition dominates that arm's predecessor) or when code after
    # the loop actually uses it; in the latter case SSA of the input already
    # guarantees the real exit arms are dominated.
    def_block: dict[str, str] = {}
    for lab in body:
        for v in f.blocks[order[lab]].defined_vars():
            def_block[v] = lab
    used_after: set[str] = set()
    for b in f.blocks:
        if b.label not in lp.body:
            for ins in b.instructions:  # only a terminator has label operands
                used_after.update(ins.operands)
            used_after.update(b.terminator.var_operands())
    used_after &= loop_defs

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

    # outside predecessors enter the loop through copy 1 of the header
    for p in cfg.preds(lp.header):
        if p not in lp.body:
            _retarget(f.blocks[order[p]], lp.header, block_rename[1][lp.header])

    if not single_merge and exit_targets:
        _rewrite_multi_merge_uses([b for b in f.blocks if b.label not in lp.body], dom, lp,
                                  loop_defs, merge_of, merged_name)

    # exit-target phis: arms from exiting blocks collapse into one merge arm
    for b in f.blocks:
        if b.label in lp.body or b.label not in merge_of:
            continue
        m = merge_of[b.label]
        for ins in b.instructions:
            if ins.opcode != "phi":
                continue
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

    final_blocks: list[Block] = []
    placed = False
    for b in f.blocks:
        if b.label in lp.body:
            if not placed:
                for lab in body:
                    final_blocks.append(copies[(lab, 1)])
                for lab in body:
                    final_blocks.append(copies[(lab, 2)])
                final_blocks.extend(merge_blocks)
                placed = True
            continue
        final_blocks.append(b)
    nf = Function(f.name, list(f.params), final_blocks, f.line)

    old_edges = {e.key for e in cfg.edges}
    merge_exit = {m: x for x, m in merge_of.items()}
    edge_origin: dict[tuple[str, str], set[tuple[str, str]]] = {}
    edge_subst: dict[tuple[str, str], dict[str, str]] = {}
    ncfg = build_cfg(nf)
    # below several merge blocks, an edge uses the names of the one dominating it
    ndom = dominators(ncfg) if not single_merge and exit_targets else None
    for e in ncfg.edges:
        src, dst = e.key
        sc = copy_of_block.get(src)
        dc = copy_of_block.get(dst)
        if sc and dc:
            edge_origin[e.key] = {(inv_block[src], inv_block[dst])}
            edge_subst[e.key] = dict(rename[sc])
        elif sc and dst in merge_labels:
            x = merge_exit[dst]
            origins: set[tuple[str, str]] = set()
            if x != "@none" and (inv_block[src], x) in old_edges:
                origins.add((inv_block[src], x))
            if sc == 2 and inv_block[src] == latch:
                origins.add((latch, lp.header))
            edge_origin[e.key] = origins
            edge_subst[e.key] = dict(rename[sc])
        elif src in merge_labels:
            edge_origin[e.key] = set()
        elif dc:
            edge_origin[e.key] = {(src, inv_block[dst])}
        else:
            edge_origin[e.key] = {e.key}
            if ndom is not None and src != ENTRY:
                which = [m for m in merge_labels if ndom.dom(m, src)]
                if len(which) == 1 and merged_name[which[0]]:
                    edge_subst[e.key] = dict(merged_name[which[0]])
    return nf, ncfg, edge_origin, edge_subst


# Expanding the loops in block order (H2 first) would ask the first round's
# dominators about H2's copies, which use H1's definitions, when expanding H1;
# in topological order H1 goes first.
BLOCK_ORDER_NOT_TOPOLOGICAL = """
fn main(n, m) {
B0:
  jmp H1
Y:
  jmp H2
H2:
  k = phi [v, Y], [l, H2]
  l = add k, v
  w = load l
  d = lt l, n
  br d, H2, E
H1:
  i = phi [0, B0], [j, L1]
  j = add i, 1
  v = add j, m
  c = lt j, n
  br c, L1, Y
L1:
  e = lt v, m
  br e, H1, Z
Z:
  ret
E:
  ret
}
"""


# The first loop of the round has a block L2.1 and defines x.1, which it does
# not consolidate; the second has a block L2 and defines x. Per-loop expansion
# names their copy 1 L2.1 and x.1, free again once the first loop is expanded,
# so a round must not keep them taken (L2.12, x.12).
LATER_LOOP_REUSES_A_DROPPED_NAME = """
fn main(n) {
B0:
  jmp H1
H1:
  i = phi [0, B0], [j, L2.1]
  c = lt i, n
  br c, L2.1, P
L2.1:
  x.1 = add i, 1
  j = add i, 1
  jmp H1
P:
  jmp H2
H2:
  k = phi [0, P], [x, L2]
  d = lt k, n
  br d, L2, E
L2:
  x = add k, 1
  jmp H2
E:
  ret
}
"""


# The first loop of the round is headed L2.1, whose copy 1 is L2.1.1; the
# second loop's copy 1 of L2 takes the dropped name L2.1, and its header copy
# jumps there, not to the first loop's copy. With the first header named H2.m,
# the second loop's merge takes the dropped name instead.
LATER_LOOP_REUSES_A_DROPPED_HEADER = """
fn main(n) {
B0:
  jmp L2.1
L2.1:
  i = phi [0, B0], [j, B1]
  c = lt i, n
  br c, B1, P
B1:
  j = add i, 1
  jmp L2.1
P:
  jmp H2
H2:
  k = phi [0, P], [x, L2]
  d = lt k, n
  br d, L2, E
L2:
  x = add k, 1
  jmp H2
E:
  ret
}
"""


# P is the last latch of both loops, and both need a new latch: the inner
# loop's, made second, goes between P and the outer loop's. No other input of
# the per-step comparison has two new latches after one block.
SHARED_LAST_LATCH = """
fn main(n) {
E:
  jmp HA
HA:
  jmp HB
HB:
  br n, Q, R
Q:
  br n, HB, P
R:
  br n, HA, X
P:
  br n, HB, HA
X:
  ret
}
"""


def _rounds(loops):
    """The loops expand_loops expands together: those of one nesting height."""
    height: dict[str, int] = {}
    for lp in sorted(loops, key=lambda lp: len(lp.body)):
        height[lp.header] = max((height[o.header] + 1 for o in loops if o.body < lp.body),
                                default=0)
    rounds: dict[int, list] = {}
    for lp in loops:
        rounds.setdefault(height[lp.header], []).append(lp)
    return list(rounds.values())


def _expansion_outcome(expand, f):
    try:
        ef = expand(f)
    except CfgError as exc:
        return str(exc)
    return (pretty_print(Program([ef.function])), pretty_print(Program([ef.original])),
            ef.edge_origin, ef.edge_subst)


def test_expansion_matches_per_step_reference():
    programs = [random_loop_program(random.Random(seed)) for seed in range(1000)]
    programs += [path.read_text() for path in sorted(FIXTURES.glob("*.mir"))]
    programs += [segments(k) for k in range(1, 9)]
    programs += [BLOCK_ORDER_NOT_TOPOLOGICAL, LATER_LOOP_REUSES_A_DROPPED_NAME,
                 LATER_LOOP_REUSES_A_DROPPED_HEADER,
                 LATER_LOOP_REUSES_A_DROPPED_HEADER.replace("L2.1", "H2.m"),
                 SHARED_LAST_LATCH]
    shapes = {"nested": 0, "multi-exit": 0, "multi-latch": 0, "multi-loop round": 0,
              "multi-exit loop in a multi-loop round": 0}
    for text in programs:
        for f in parse_program(text).functions:
            assert (pretty_print(Program([simplify_loops(f)]))
                    == pretty_print(Program([reference_simplify_loops(f)]))), text
            assert (_expansion_outcome(expand_loops, f)
                    == _expansion_outcome(reference_expand_loops, f)), text
            cfg = build_cfg(prune_dead_blocks(f))
            loops = natural_loops(cfg)
            shapes["nested"] += loop_depth(loops) >= 2
            shapes["multi-exit"] += any(len(lp.exits) >= 2 for lp in loops)
            shapes["multi-latch"] += any(len(lp.latches) >= 2 for lp in loops)
            shared = [r for r in _rounds(loops) if len(r) >= 2]
            shapes["multi-loop round"] += bool(shared)
            shapes["multi-exit loop in a multi-loop round"] += any(
                len(lp.exits) >= 2 for r in shared for lp in r)
    assert min(shapes.values()) >= 20, shapes


def test_block_order_not_topological_expansion_pinned():
    """--dump-expanded text as the restart-per-loop expansion printed it."""
    assert dump_expanded(parse_program(BLOCK_ORDER_NOT_TOPOLOGICAL)) == """\
fn main(n, m) {
B0:
  jmp H1.1
Y:
  jmp H2.1
H2.1:
  k.1 = add v.m, 0
  l.1 = add k.1, v.m
  w.1 = load l.1
  d.1 = lt l.1, n
  br d.1, H2.2, H2.m
H2.2:
  k.2 = add l.1, 0
  l.2 = add k.2, v.m
  w.2 = load l.2
  d.2 = lt l.2, n
  br d.2, H2.m, H2.m
H2.m:
  d = phi [d.1, H2.1], [d.2, H2.2]
  k = phi [k.1, H2.1], [k.2, H2.2]
  l = phi [l.1, H2.1], [l.2, H2.2]
  w = phi [w.1, H2.1], [w.2, H2.2]
  jmp E
H1.1:
  i.1 = add 0, 0
  j.1 = add i.1, 1
  v.1 = add j.1, m
  c.1 = lt j.1, n
  br c.1, L1.1, H1.m1
L1.1:
  e.1 = lt v.1, m
  br e.1, H1.2, H1.m2
H1.2:
  i.2 = add j.1, 0
  j.2 = add i.2, 1
  v.2 = add j.2, m
  c.2 = lt j.2, n
  br c.2, L1.2, H1.m1
L1.2:
  e.2 = lt v.2, m
  br e.2, H1.m1, H1.m2
H1.m1:
  c.m = phi [c.1, H1.1], [c.2, H1.2], [c.2, L1.2]
  i.m = phi [i.1, H1.1], [i.2, H1.2], [i.2, L1.2]
  j.m = phi [j.1, H1.1], [j.2, H1.2], [j.2, L1.2]
  v.m = phi [v.1, H1.1], [v.2, H1.2], [v.2, L1.2]
  jmp Y
H1.m2:
  c.m2 = phi [c.1, L1.1], [c.2, L1.2]
  e.m = phi [e.1, L1.1], [e.2, L1.2]
  i.m2 = phi [i.1, L1.1], [i.2, L1.2]
  j.m2 = phi [j.1, L1.1], [j.2, L1.2]
  v.m2 = phi [v.1, L1.1], [v.2, L1.2]
  jmp Z
Z:
  ret
E:
  ret
}
"""


# The exit block branches to a block labelled X, and the loop defines a
# variable X that nothing after the loop uses: the label is not a use, so
# expansion must not consolidate X in the merge block (whose arms X.1 and X.2
# do not reach it).
LABEL_NAMED_LIKE_LOOP_VARIABLE = """
fn main(n) {
B1:
  jmp B2
B2:
  i = phi [0, B1], [X, B3]
  c = lt i, n
  br c, B3, B4
B3:
  X = add i, 1
  jmp B2
B4:
  br n, X, B5
X:
  ret
B5:
  ret
}
"""


def test_label_is_not_a_use_of_a_same_named_variable():
    program = parse_program(LABEL_NAMED_LIKE_LOOP_VARIABLE)
    b4 = program.functions[0].block("B4")
    assert b4.terminator.var_operands() == ["n"]
    assert b4.successor_labels() == ["X", "B5"]
    text = dump_expanded(program)
    assert "X = phi" not in text
    assert validate_ssa(parse_program(text)).ok()


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.mir"))
                         + ["BLOCK_ORDER_NOT_TOPOLOGICAL"])
def test_edge_subst_only_on_edges_with_an_origin(name):
    text = (BLOCK_ORDER_NOT_TOPOLOGICAL if name == "BLOCK_ORDER_NOT_TOPOLOGICAL"
            else fixture_text(name))
    for f in parse_program(text).functions:
        ef = expand_loops(f)
        assert set(ef.edge_subst) <= {k for k, o in ef.edge_origin.items() if o}


@pytest.mark.parametrize("name,builds", [
    pytest.param(name, builds, id=f"{name}-{builds}") for name, builds in [
        ("segments-8", 3), ("segments-16", 3), ("two_latch", 3), ("nested_loops", 3),
        ("self_loop_linked", 2), ("diamond_linked", 1), ("BLOCK_ORDER_NOT_TOPOLOGICAL", 2),
        ("random_loop-324", 3)]])
def test_expansion_dominator_computations(name, builds, monkeypatch):
    """One graph for the input, one more when simplification inserts a block,
    and one per round of expansion, each with one dominator tree computation.
    A round with multi-exit loops reads its new graph's tree: random_loop-324
    has two multi-exit loops in one round."""
    program = {"BLOCK_ORDER_NOT_TOPOLOGICAL": BLOCK_ORDER_NOT_TOPOLOGICAL,
               "random_loop-324": random_loop_program(random.Random(324))}.get(name)
    if name.startswith("segments"):
        program = segments(int(name.split("-")[1]))
    made: Counter = Counter()

    for fn in (build_cfg, dominator_tree):
        def counting(*args, fn=fn):
            made[fn.__name__] += 1
            return fn(*args)
        monkeypatch.setattr(cfg_module, fn.__name__, counting)
    expand_loops(parse_program(program or fixture_text(name)).functions[0])
    assert (made["dominator_tree"], made["build_cfg"]) == (builds, builds)


def _count_calls(monkeypatch, *fns) -> Counter:
    """Replace each of fns in every declassiflow module that holds it by a
    wrapper counting its calls per (function name, calling module)."""
    calls: Counter = Counter()

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__, sys._getframe(1).f_globals["__name__"]] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [declassiflow] + [importlib.import_module(f"declassiflow.{m.name}")
                                for m in pkgutil.iter_modules(declassiflow.__path__)]
    for fn in fns:
        for module in modules:
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting(fn))
    return calls


@pytest.mark.parametrize("name,builds", [
    pytest.param(name, builds, id=name) for name, builds in [
        ("segments-2", 3), ("call_chain-4", 8), ("aes_analog", 6), ("diamond_linked", 1)]])
def test_graph_builds_per_run(name, builds, monkeypatch):
    """A run configured like protect builds each function's graphs, each with
    its one dominator tree, in loop normalization only; later phases read the
    ones ExpandedFunction carries."""
    generated = {"segments-2": segments(2), "call_chain-4": call_chain(4)}
    program = parse_program(generated.get(name) or fixture_text(name))
    calls = _count_calls(monkeypatch, build_cfg, dominator_tree)
    run_pipeline(program, RunConfig())
    assert {caller for fn, caller in calls if fn == "build_cfg"} == {"declassiflow.cfg"}, calls
    assert calls["build_cfg", "declassiflow.cfg"] == builds
    assert calls["dominator_tree", "declassiflow.cfg"] == builds

    for fa in analyze_program(program, RunConfig(protect=False))[0].values():
        ef = fa.expanded
        assert ef.cfg.function is ef.function and ef.original_cfg.function is ef.original
        assert fa.km.cfg is ef.original_cfg and fa.simplified is ef.original
        assert ef.cfg.edges == build_cfg(ef.function).edges
        assert ef.original_cfg.edges == build_cfg(ef.original).edges
        assert ef.cfg.dom == build_cfg(ef.function).dom
        assert ef.original_cfg.dom == build_cfg(ef.original).dom


@pytest.mark.parametrize("name,functions", [
    pytest.param(name, functions, id=name) for name, functions in [
        ("aes_analog", 5), ("segments-2", 1), ("call_chain-4", 4)]])
def test_validations_and_equation_tables_per_run(name, functions, monkeypatch):
    """Parsing and a run configured like verify validate the program once, in
    parse_program, and build one equation table per analyzed function, in
    the closure propagate builds: the pseudo-transmitter check reuses it."""
    generated = {"segments-2": segments(2), "call_chain-4": call_chain(4)}
    calls = _count_calls(monkeypatch, validate_ssa, knowledge_module.equations)
    program = parse_program(generated.get(name) or fixture_text(name))
    assert len(program.functions) == functions
    run_pipeline(program, RunConfig(verify=True))
    assert calls == {("validate_ssa", "declassiflow.ir"): 1,
                     ("equations", "declassiflow.knowledge"): functions}, calls
