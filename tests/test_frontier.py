import random

from declassiflow.cfg import ENTRY, Cfg, CfgError
from declassiflow.frontier import BlockKnowledge
from declassiflow.ir import parse_program
from declassiflow.knowledge import leak_model, summarize
from declassiflow.pipeline import RunConfig, analyze_program

from conftest import FIXTURES, dfa, dfa_blocks, fixture_program, known_at
from generators import (random_acyclic_program, random_loop_program, random_tight_program,
                        segments)


def compute_frontier(kb: BlockKnowledge, var: str, cfg: Cfg) -> set[str]:
    """Reference: one variable's frontier, the knowing blocks minus those
    whose predecessors all know the variable. The entry block has no real
    predecessors and is never removed."""
    knowing = {b.label for b in cfg.function.blocks if var in known_at(kb, b.label)}
    frontier = set()
    for label in knowing:
        preds = [e.src for e in cfg.in_edges[label] if e.src != ENTRY]
        if not preds or not all(var in known_at(kb, p) for p in preds):
            frontier.add(label)
    return frontier


def frontier_covers(kb: BlockKnowledge, var: str, frontier: set[str], cfg: Cfg) -> bool:
    """Path oracle: every entry-to-knowing-block path crosses the frontier.

    Used by tests; explores simple paths exhaustively, so keep it to small
    graphs.
    """
    knowing = {b.label for b in cfg.function.blocks if var in known_at(kb, b.label)}

    def search(cur: str, seen: frozenset) -> bool:
        # returns True if some frontier-avoiding path reaches a knowing block
        if cur in frontier:
            return False
        if cur in knowing:
            return True
        for s in cfg.succs(cur):
            if s not in seen and search(s, seen | {s}):
                return True
        return False

    return not search(cfg.entry, frozenset({cfg.entry}))


def test_block_knowledge_is_out_edge_intersection():
    f = fixture_program("diamond_linked").functions[0]
    _, km, kb, _ = dfa_blocks(f)
    assert known_at(kb, "B1") == {"b1", "b2", "b3"}
    assert known_at(kb, "B2") == {"b1", "b2", "b3", "x1", "x2"}
    assert known_at(kb, "B3") == {"b1", "b2", "b3"}
    assert known_at(kb, ENTRY) == set()


def test_block_knowledge_opaque_variant():
    f = fixture_program("diamond_opaque").functions[0]
    _, km, kb, _ = dfa_blocks(f)
    assert known_at(kb, "B2") == {"x1", "x2", "a2"}
    assert known_at(kb, "B1") == set()


def test_block_knowledge_empty_edge_sets():
    f = parse_program("fn f(a) {\nB1:\n  ret\n}").functions[0]
    _, km, kb, _ = dfa_blocks(f)
    assert known_at(kb, "B1") == set()


def test_frontiers_linked_diamond():
    f = fixture_program("diamond_linked").functions[0]
    _, _, _, fr = dfa_blocks(f)
    assert fr["b1"] == fr["b2"] == fr["b3"] == {"B1"}
    assert fr["x1"] == fr["x2"] == {"B2"}


def test_frontiers_opaque_diamond():
    f = fixture_program("diamond_opaque").functions[0]
    _, _, _, fr = dfa_blocks(f)
    assert fr["a1"] == set()
    assert fr["x1"] == fr["x2"] == fr["a2"] == {"B2"}
    assert fr["a3"] == {"B3"}


def test_frontier_loop_and_exit_transmitter():
    f = fixture_program("hoistable_loop").functions[0]
    _, _, _, fr = dfa_blocks(f)
    assert fr["x"] == {"B1"}


def test_frontier_covering_and_minimality_on_fixtures():
    for name in ("diamond_linked", "diamond_opaque", "anticorrelated",
                 "hoistable_loop", "djbsort_analog"):
        f = fixture_program(name).functions[0]
        _, km, kb, fr = dfa_blocks(f)
        for var, frontier in fr.items():
            assert frontier_covers(kb, var, frontier, km.cfg), (name, var)
            for dropped in frontier:
                smaller = frontier - {dropped}
                assert not frontier_covers(kb, var, smaller, km.cfg), (name, var, dropped)


def test_frontier_unique_under_block_shuffles():
    f = fixture_program("diamond_linked").functions[0]
    _, km, kb, fr = dfa_blocks(f)
    rng = random.Random(3)
    for _ in range(5):
        keys = list(kb.bits)
        rng.shuffle(keys)
        kb2 = BlockKnowledge(kb.cfg, kb.index, {k: kb.bits[k] for k in keys})
        for var in fr:
            assert compute_frontier(kb2, var, km.cfg) == fr[var]


def test_no_hoist_past_definition():
    # knowledge of the fresh value must not move above the block defining it
    f = fixture_program("diamond_opaque").functions[0]
    ef, km, kb, fr = dfa_blocks(f)
    from declassiflow.cfg import build_cfg, dominators
    cfg = km.cfg
    dom = dominators(cfg)
    def_block = {"a3": "B3", "x2": "B2"}
    for var, db in def_block.items():
        for b in fr[var]:
            assert not (dom.dom(b, db) and b != db), (var, b)


def test_full_declassification():
    f = fixture_program("diamond_opaque").functions[0]
    ef, _, kb, fr = dfa_blocks(f)
    declassified = summarize(ef, kb.bits, fr, {}, leak_model(f, {})).fully_declassified_vars
    assert "a3" not in declassified

    p = fixture_program("aes_analog")
    analyses, _, _, _ = analyze_program(p, RunConfig(protect=False))
    decl = analyses["encrypt"].summary.fully_declassified_vars
    assert {"x", "y1", "y2", "y3"} <= decl

    quiet = parse_program("fn q(a) {\nB1:\n  ret\n}").functions[0]
    efq, _, kbq, frq = dfa_blocks(quiet)
    assert summarize(efq, kbq.bits, frq, {},
                     leak_model(quiet, {})).fully_declassified_vars == set()


# refinement on these loop-rich seeds takes over a second each (the caps bound
# each solve, not their number), so the gate runs them with refinement off only
SLOW_REFINE_LOOP_SEEDS = {12, 22, 26, 38, 78}


def test_all_frontiers_matches_per_variable_reference():
    """Gate for the one-pass frontiers: after analyze_program, with refinement
    on and off, every function's frontiers equal the per-variable reference
    on its block knowledge, with the same keys in the same order. With
    refinement off, each block's mask decodes to the intersection of its
    decoded out-edge sets (the entry pseudo-block's to its dummy edge's)."""
    runs = [(random_acyclic_program(random.Random(seed)), True) for seed in range(300)]
    runs += [(random_tight_program(random.Random(seed)), True) for seed in range(100)]
    runs += [(random_loop_program(random.Random(seed)), seed not in SLOW_REFINE_LOOP_SEEDS)
             for seed in range(100)]
    runs += [(path.read_text(), True) for path in sorted(FIXTURES.glob("*.mir"))]
    runs += [(segments(k), True) for k in range(1, 5)]
    checked = {False: 0, True: 0}
    for text, refine_too in runs:
        program = parse_program(text)
        for refine in (False, True) if refine_too else (False,):
            try:
                analyses = analyze_program(program, RunConfig(refine=refine, protect=False))[0]
            except CfgError:
                continue  # irreducible or too deeply nested: no frontiers to compare
            for fa in analyses.values():
                cfg = fa.km.cfg
                reference = {v: compute_frontier(fa.kb, v, cfg)
                             for v in sorted(cfg.function.defined_vars())}
                assert list(fa.frontiers.items()) == list(reference.items()), (text, refine)
                checked[refine] += 1
                if refine:
                    continue
                known = fa.km.known
                for b in cfg.function.blocks:
                    outs = [known[e.index] for e in cfg.out_edges[b.label]]
                    assert known_at(fa.kb, b.label) == set.intersection(*outs), (text, b.label)
                assert known_at(fa.kb, ENTRY) == known[cfg.entry_dummy().index], text
    assert checked[False] >= 500 and checked[True] >= 500, checked
