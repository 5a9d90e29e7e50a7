import random

import pytest

from declassiflow.cfg import (ENTRY, EXIT, Cfg, CfgError, build_cfg, dominators,
                              expand_loops, natural_loops, prune_dead_blocks,
                              simplify_loops, to_dot)
from declassiflow.ir import Program, dominator_sets, parse_program, validate_ssa
from declassiflow.oracle import interpret

from conftest import fixture_program
from generators import random_acyclic_program


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
    for _ in range(25):
        text = random_acyclic_program(rng, max_blocks=12)
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
    dom = dominator_sets({l: cfg.succs(l) for l in cfg.labels}, cfg.entry)
    assert dom["B3"] == set()
    for a in ("B1", "B2", "B4"):
        for b in ("B1", "B2", "B4"):
            assert (a in dom[b]) == brute_force_dominates(cfg, a, b), (a, b)


def test_self_loop_detection():
    f = fixture_program("self_loop_opaque").functions[0]
    cfg = build_cfg(f)
    loops = natural_loops(cfg, dominators(cfg))
    assert len(loops) == 1
    lp = loops[0]
    assert lp.header == "B2" and lp.latches == ["B2"] and lp.body == {"B2"}


def test_acyclic_has_no_loops():
    f = fixture_program("diamond_linked").functions[0]
    cfg = build_cfg(f)
    assert natural_loops(cfg, dominators(cfg)) == []


def test_two_latch_loop_is_one_loop():
    f = fixture_program("two_latch").functions[0]
    cfg = build_cfg(f)
    loops = natural_loops(cfg, dominators(cfg))
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
        natural_loops(cfg, dominators(cfg))


def test_simplify_two_latch_shape():
    f = fixture_program("two_latch").functions[0]
    g = simplify_loops(f)
    assert validate_ssa(Program([g])).ok()
    cfg = build_cfg(g)
    loops = natural_loops(cfg, dominators(cfg))
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
        assert natural_loops(cfg, dominators(cfg)) == []
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
                        assert ef.representative(v, ek) in defined, (v, ek)


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
    assert ef.representative("x2", ("B2.1", "B2.2")) == "x2.1"
    assert ef.representative("x2", ("B2.1", "B2.m")) == "x2.1"
    assert ef.representative("x2", ("B2.2", "B2.m")) == "x2.2"


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
