import random
from collections import Counter

import pytest

from declassiflow import pipeline
from declassiflow.cfg import CfgError
from declassiflow.ir import Function, Program, parse_program, pretty_print, validate_ssa
from declassiflow.oracle import interpret, speculative_explore
from declassiflow.pipeline import RunConfig, run_pipeline
from declassiflow.protect import (barrier_count, emit_protected, plan_protection)
from declassiflow.refine import Limits

from conftest import FIXTURES, fixture_program, fixture_text
from generators import call_chain, random_loop_program, refined_callee_caller, segments


def plans_for(name, **cfg):
    program = fixture_program(name)
    report = run_pipeline(program, RunConfig(**cfg))
    return program, report


@pytest.mark.parametrize("refine", [True, False])
@pytest.mark.parametrize("name", ["aes_analog", "djbsort_analog"])
def test_leak_model_once_per_function(name, refine, monkeypatch):
    """Each function's leak model is built once, in phase 1 from its callees'
    final summaries; refinement and protection read that one."""
    made: Counter = Counter()
    leak_model = pipeline.leak_model

    def counting(f, *args):
        made[f.name] += 1
        return leak_model(f, *args)

    monkeypatch.setattr(pipeline, "leak_model", counting)
    program, _ = plans_for(name, refine=refine)
    assert made == {fn: 1 for fn in program.function_names()}


def test_callers_of_refined_callee_verify():
    """Each caller is analyzed after its callee's refinement, so the knowledge
    it gains at a call site matches the barriers the callee ends up with."""
    config = RunConfig(verify=True, verify_domain=range(0, 2))
    failed = [seed for seed in range(200)
              if not run_pipeline(parse_program(refined_callee_caller(random.Random(seed))),
                                  config)["verification"]["passed"]]
    assert failed == []


def test_verify_run_leaves_its_input_unchanged():
    """Phase 1 analyzes a function without copying it unless a step rewrites
    it, and the protected program shares the input's functions, so no phase
    may mutate them. Small caps and a two-value domain keep the runs short;
    the loop-rich programs skip verification, whose runs of their random
    loops can exhaust the fuel instead of returning."""
    small = Limits(loop_cap=2, path_cap=64, max_symbols=6, enum_budget=4096)
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.mir"))]
    texts += [segments(k) for k in range(1, 5)] + [call_chain(4)]
    runs = [(text, True) for text in texts]
    runs += [(random_loop_program(random.Random(seed)), False) for seed in range(50)]
    ran = 0
    for text, verify in runs:
        program = parse_program(text)
        before = pretty_print(program)
        try:
            run_pipeline(program, RunConfig(verify=verify, verify_domain=range(0, 2),
                                            limits=small))
            ran += 1
        except CfgError:
            pass  # expansion rejects a use past several loop exits
        assert pretty_print(program) == before, text
    assert ran >= len(texts) + 40, ran


@pytest.mark.parametrize("name,copies", [("diamond_linked", 1), ("segments-2", 3)])
def test_function_copies_per_verify_run(name, copies, monkeypatch):
    """A function is copied only by the step that rewrites it: its protected
    clone always, simplification when it inserts a block and expansion when
    there is a loop. segments(2) needs preheaders and has loops;
    diamond_linked has neither."""
    made = Counter()
    copy = Function.copy

    def counting(f):
        made[f.name] += 1
        return copy(f)

    program = parse_program(segments(2) if name == "segments-2" else fixture_text(name))
    monkeypatch.setattr(Function, "copy", counting)
    run_pipeline(program, RunConfig(verify=True))
    assert sum(made.values()) == copies, made


def test_aes_plan_single_entry_barrier():
    program, report = plans_for("aes_analog")
    assert report["barriers"] == {"encrypt": ["B1"]}
    by_name = {p["function"]: p for p in report["plans"]}
    assert by_name["encrypt"]["mode"] == "callee"
    for helper in ("f", "g", "h"):
        assert by_name[helper]["mode"] == "caller"
        assert by_name[helper]["barriers"] == []
    assert by_name["encrypt"]["redirections"]


def test_sort_plan_barrier_after_length_check():
    _, report = plans_for("djbsort_analog")
    assert report["barriers"] == {"int32_sort": ["B2"]}


def test_chacha_plan_barrier_in_loop_preheader():
    _, report = plans_for("chacha_analog")
    assert report["barriers"] == {"chacha20_ct": ["B2.ph"]}


def test_pseudo_chain_single_top_level_barrier():
    _, report = plans_for("chain")
    assert report["barriers"] == {"top": ["B1"]}
    by_name = {p["function"]: p for p in report["plans"]}
    assert by_name["top"]["mode"] == "caller"  # pseudo, but top level keeps the barrier
    assert by_name["mid"]["barriers"] == [] and by_name["leaf"]["barriers"] == []


def test_empty_frontier_falls_back_to_transmitter_block():
    from declassiflow.knowledge import FunctionSummary, leak_model
    f = parse_program("fn f(a) {\nB1:\n  transmit a\n  ret\n}").functions[0]
    own = FunctionSummary("f", ["a"], frozenset(), frozenset(), frozenset(),
                          False, False)
    plan = plan_protection(f, leak_model(f, {}), {"a": set()}, own, is_top_level=True)
    assert plan.barrier_blocks == {"B1"}
    assert plan.fallback_blocks == {"B1"}


def test_emit_protected_structure():
    program, report = plans_for("aes_analog")
    protected = parse_program(report["protected_program"])
    names = protected.function_names()
    # protected entry leads; originals retained
    assert names[0] == "main.p"
    assert set(names) == {"main.p", "encrypt.p", "f.p", "g.p", "h.p",
                          "main", "encrypt", "f", "g", "h"}
    assert validate_ssa(protected).ok()
    counts = barrier_count(protected)
    assert counts == {"encrypt.p": ["B1"]}
    enc = protected.function("encrypt.p")
    callees = {i.callee for _, i in enc.instructions() if i.opcode == "call"}
    assert callees == {"f.p", "g.p", "h.p"}
    barrier_block = enc.block("B1")
    assert barrier_block.instructions[0].opcode == "specbarr"
    # originals are untouched
    assert barrier_count(Program([protected.function("encrypt")])) == {}


def test_protected_clone_of_loop_function_uses_simplified_body():
    _, report = plans_for("chacha_analog")
    protected = parse_program(report["protected_program"])
    clone = protected.function("chacha20_ct.p")
    assert any(b.label == "B2.ph" for b in clone.blocks)
    assert validate_ssa(protected).ok()


def test_exactly_one_static_barrier_per_analog():
    for name in ("aes_analog", "djbsort_analog", "chacha_analog"):
        _, report = plans_for(name)
        protected = parse_program(report["protected_program"])
        total = sum(len(v) for v in barrier_count(protected).values())
        assert total == 1, name


def test_barrier_in_phi_headed_block_follows_the_phis():
    program, report = plans_for("phi_frontier", verify=True)
    assert report["barriers"] == {"main": ["B4"]}
    assert report["verification"]["passed"]
    protected = parse_program(report["protected_program"])  # phis stay a prefix
    b4 = protected.function("main.p").block("B4")
    assert [i.opcode for i in b4.instructions] == ["phi", "specbarr", "load"]
    # a=0, b=0 runs B1 B2 B4 B5: the clone executes one instruction more
    clone = interpret(protected, [0, 0])
    original = interpret(program, [0, 0])
    assert ("main.p", "B4") in clone.pc
    assert clone.steps == original.steps + 1
    # b=5 skips B4; a misprediction into it stops at the barrier
    _, specs = speculative_explore(protected, [0, 5])
    assert any(sp.mispredictions == [("main.p", "B2", "B4")]
               and sp.stopped_by == "barrier" and not sp.observations
               for sp in specs)
