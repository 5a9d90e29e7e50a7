"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Edge names follow the per-fixture numbering: the synthetic entry edge first,
then each block's out-edges in block/terminator order.
"""

import json
import random
import time

from declassiflow.ir import parse_program
from declassiflow.oracle import (check_frontier_property, exact_knowledge, input_grid,
                                 input_slots, speculative_explore)
from declassiflow.pipeline import (RunConfig, analyze_program, property_map,
                                   run_pipeline)
from declassiflow.protect import barrier_count

from conftest import dfa, dfa_blocks, fixture_program, known_at, record_acceptance
from generators import random_acyclic_program


def _timed(budget_s):
    start = time.perf_counter()

    def done(line):
        elapsed = time.perf_counter() - start
        record_acceptance(f"{line}: PASS ({elapsed:.2f}s, budget {budget_s}s)")
        assert elapsed < budget_s, f"over time budget: {elapsed:.2f}s"

    return done


def test_criterion_1_linked_diamond_golden():
    done = _timed(1.0)
    f = fixture_program("diamond_linked").functions[0]
    _, km, kb, fr = dfa_blocks(f)
    sets = {e.key: frozenset(km.known[e.index]) for e in km.cfg.edges}
    assert sets[("@entry", "B1")] == frozenset()
    assert sets[("B1", "B3")] == {"b1", "b2", "b3"}
    assert sets[("B1", "B2")] == {"b1", "b2", "b3", "x1", "x2"}
    assert sets[("B2", "B3")] == {"b1", "b2", "b3", "x1", "x2"}
    assert sets[("B3", "@exit")] == {"b1", "b2", "b3"}
    assert fr["b1"] == fr["b2"] == fr["b3"] == {"B1"}
    assert fr["x1"] == fr["x2"] == {"B2"}
    # the full pipeline (with refinement) reports the same edge sets
    report = run_pipeline(fixture_program("diamond_linked"),
                          RunConfig(emit_knowledge=True, emit_frontiers=True,
                                    protect=False))
    edges = {(e["from"], e["to"]): set(e["known"])
             for e in report["functions"][0]["edges"]}
    assert edges[("B1", "B3")] == {"b1", "b2", "b3"}
    assert report["functions"][0]["frontiers"]["x1"] == ["B2"]
    done("criterion 1 (linked-diamond edge knowledge and frontiers)")


def test_criterion_2_opaque_diamond_golden():
    done = _timed(1.0)
    f = fixture_program("diamond_opaque").functions[0]
    _, km, kb, fr = dfa_blocks(f)
    sets = {e.key: frozenset(km.known[e.index]) for e in km.cfg.edges}
    assert sets[("B1", "B3")] == {"a1"}
    assert sets[("B1", "B2")] == {"x1", "x2", "a2"}
    assert sets[("B2", "B3")] == {"x1", "x2", "a2"}
    assert sets[("B3", "@exit")] == {"a3"}
    assert fr["a1"] == set()
    assert fr["a3"] == {"B3"}
    done("criterion 2 (opaque-diamond edge knowledge and frontiers)")


def test_criterion_3_anticorrelated_precision_ladder():
    done = _timed(5.0)
    program = fixture_program("anticorrelated")
    f = program.functions[0]
    _, km = dfa(f)
    assert "x" not in known_at(km, "B1", "B3")  # the fixpoint alone cannot see it

    analyses, _, _, _ = analyze_program(program, RunConfig())
    fa = analyses["main"]
    verdicts = {(r.region.header, r.variable): r.verdict for r in fa.refinements}
    assert verdicts[("B1", "x")] == "inevitable"
    assert "x" in known_at(fa.kb, "B1")  # known at the entry block after the upgrade
    assert fa.frontiers["x"] == {"B1"}
    done("criterion 3 (anticorrelated-branch precision ladder)")


def test_criterion_4_loop_pair():
    done = _timed(1.0)
    opaque = fixture_program("self_loop_opaque").functions[0]
    linked = fixture_program("self_loop_linked").functions[0]
    _, km_o = dfa(opaque)
    _, km_l = dfa(linked)
    assert "x2" not in known_at(km_o, "B2", "B3")
    assert "x2" in known_at(km_l, "B2", "B3")
    done("criterion 4 (loop pair: carried value knowledge on the exit edge)")


def test_criterion_5_barrier_goldens():
    done = _timed(10.0)
    expected = {
        "aes_analog": {"encrypt": ["B1"]},
        "djbsort_analog": {"int32_sort": ["B2"]},
        "chacha_analog": {"chacha20_ct": ["B2.ph"]},
    }
    for name, want in expected.items():
        report = run_pipeline(fixture_program(name), RunConfig())
        assert report["barriers"] == want, name
        protected = parse_program(report["protected_program"])
        counts = barrier_count(protected)
        assert sum(len(v) for v in counts.values()) == 1, name
        if name == "aes_analog":
            for helper in ("f.p", "g.p", "h.p"):
                assert helper not in counts  # pseudo-transmitter clones stay clean
    done("criterion 5 (single-barrier placements for the three analogs)")


def test_criterion_6_soundness_property_suite():
    done = _timed(120.0)
    rng = random.Random(20240810)
    checked_edges = 0
    for k in range(100):
        text = random_acyclic_program(rng, max_blocks=8, max_inputs=3)
        f = parse_program(text).functions[0]
        _, km = dfa(f)
        ke = exact_knowledge(f, range(0, 4))
        for e in km.cfg.edges:
            assert km.known[e.index] <= ke.known[e.index], (k, e.key, text)
            checked_edges += 1
    assert checked_edges > 0
    done(f"criterion 6 (knowledge sound vs oracle on 100 programs, "
         f"{checked_edges} edges)")


def test_criterion_7_frontier_property_verification():
    done = _timed(300.0)
    flipped = {}
    for name in ("aes_analog", "djbsort_analog", "chacha_analog"):
        program = fixture_program(name)
        report = run_pipeline(program, RunConfig())
        protected = parse_program(report["protected_program"])
        analyses, _, _, _ = analyze_program(program, RunConfig())
        fmap = property_map(program, analyses)
        grid = input_grid(input_slots(protected), range(0, 4))

        verdict = check_frontier_property(protected, fmap, grid, window=16,
                                          depth=1, pad_inputs=True)
        assert verdict.passed, (name, verdict.violations[:1])

        for fn in protected.functions:
            for b in fn.blocks:
                b.instructions = [i for i in b.instructions
                                  if i.opcode != "specbarr"]
        broken = check_frontier_property(protected, fmap, grid, window=16,
                                         depth=1, pad_inputs=True)
        flipped[name] = not broken.passed
        if not broken.passed:
            witness = broken.violations[0]
            _, specs = speculative_explore(protected, witness.inputs, window=16,
                                           depth=1, pad_inputs=True)
            replayed = any(
                sp.mispredictions == witness.misprediction and any(
                    witness.variable in {( _norm(fn), v) for fn, v in o.taint}
                    for o in sp.observations)
                for sp in specs)
            assert replayed, (name, witness)
    assert flipped["aes_analog"] and flipped["djbsort_analog"]
    done("criterion 7 (protected programs pass; barrier deletion flips with "
         "replayable witnesses)")


def _norm(fn):
    return fn[:-2] if fn.endswith(".p") else fn


def test_criterion_8_determinism_and_confluence():
    done = _timed(30.0)
    from declassiflow.cfg import expand_loops
    from declassiflow.knowledge import analyze_edges

    for name in ("diamond_linked", "djbsort_analog", "aes_analog"):
        f = fixture_program(name).functions[-1]
        reference = None
        for seed in range(5):
            ef = expand_loops(f)
            km = analyze_edges(ef, {}, order_seed=seed)
            snapshot = {e.key: frozenset(km.known[e.index]) for e in km.cfg.edges}
            if reference is None:
                reference = snapshot
            assert snapshot == reference, (name, seed)

    cfg = RunConfig(verify=True, verify_domain=range(0, 3))
    r1 = run_pipeline(fixture_program("djbsort_analog"), cfg)
    r2 = run_pipeline(fixture_program("djbsort_analog"), cfg)
    r1.pop("timing"), r2.pop("timing")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    done("criterion 8 (shuffled-rule confluence and byte-identical reports)")
