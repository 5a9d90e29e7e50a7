import random
import sys
from collections import Counter

import pytest

from declassiflow.cfg import ENTRY, EXIT, CfgError, VarIndex, expand_loops
from declassiflow.ir import OPCODES, parse_program
from declassiflow.knowledge import (AnalysisError, KnowledgeMap, analyze_edges, closure,
                                    init_knowledge, project_to_original, propagate)
from declassiflow.pipeline import RunConfig, analyze_program, run_pipeline

from conftest import (FIXTURES, dfa, fixture_program, fixture_text, known_at,
                      representative)
from generators import call_chain, random_acyclic_program, random_loop_program, segments


def km_by_key(km):
    return {e.key: frozenset(km.known[e.index]) for e in km.cfg.edges}


def test_init_seeds_transmitter_out_edges_only():
    f = fixture_program("diamond_linked").functions[0]
    ef = expand_loops(f)
    km = init_knowledge(ef, {})
    sets = km_by_key(km)
    assert sets[("B3", "@exit")] == {"b3"}
    assert sets[("B2", "B3")] == {"x1"}
    assert sets[("B1", "B3")] == set()
    assert sets[("@entry", "B1")] == set()


def test_init_transmitter_free_is_empty():
    f = parse_program("fn f(a) {\nB1:\n  b = add a, 1\n  ret\n}").functions[0]
    km = init_knowledge(expand_loops(f), {})
    assert all(not s for s in km.known.values())


def test_init_call_to_declassifying_callee():
    p = parse_program("""
fn caller(s) {
B1:
  d = call g(s)
  br s, B2, B3
B2:
  jmp B3
B3:
  ret
}
fn g(x) {
B1:
  transmit x
  ret
}
""")
    analyses, summaries, _, _ = analyze_program(p, RunConfig(refine=False, protect=False))
    assert summaries["g"].declassified_args == {0}
    fa = analyses["caller"]
    ef = fa.expanded
    km = init_knowledge(ef, summaries)
    sets = km_by_key(km)
    assert "s" in sets[("B1", "B2")] and "s" in sets[("B1", "B3")]


def test_missing_summary_raises():
    p = parse_program("""
fn caller(s) {
B1:
  d = call g(s)
  ret
}
fn g(x) {
B1:
  transmit x
  ret
}
""")
    with pytest.raises(AnalysisError, match="missing summary"):
        init_knowledge(expand_loops(p.functions[0]), {})


def test_diamond_linked_fixpoint_exact():
    f = fixture_program("diamond_linked").functions[0]
    _, km = dfa(f)
    sets = km_by_key(km)
    assert sets[("@entry", "B1")] == set()
    assert sets[("B1", "B3")] == {"b1", "b2", "b3"}
    assert sets[("B1", "B2")] == {"b1", "b2", "b3", "x1", "x2"}
    assert sets[("B2", "B3")] == {"b1", "b2", "b3", "x1", "x2"}
    assert sets[("B3", "@exit")] == {"b1", "b2", "b3"}


def test_diamond_opaque_fixpoint_exact():
    f = fixture_program("diamond_opaque").functions[0]
    _, km = dfa(f)
    sets = km_by_key(km)
    assert sets[("@entry", "B1")] == set()
    assert sets[("B1", "B3")] == {"a1"}
    assert sets[("B1", "B2")] == {"x1", "x2", "a2"}
    assert sets[("B2", "B3")] == {"x1", "x2", "a2"}
    assert sets[("B3", "@exit")] == {"a3"}


def test_anticorrelated_dfa_misses_x_on_skip_edge():
    f = fixture_program("anticorrelated").functions[0]
    _, km = dfa(f)
    assert "x" not in known_at(km, "B1", "B3")
    assert "x" in known_at(km, "B1", "B2")


def test_loop_pair_projection():
    opaque = fixture_program("self_loop_opaque").functions[0]
    linked = fixture_program("self_loop_linked").functions[0]
    _, km_o = dfa(opaque)
    _, km_l = dfa(linked)
    assert "x2" not in known_at(km_o, "B2", "B3")
    assert "x2" in known_at(km_l, "B2", "B3")


def test_projection_identity_when_loop_free():
    f = fixture_program("diamond_opaque").functions[0]
    ef = expand_loops(f)
    km = analyze_edges(ef, {})
    proj = project_to_original(km, ef)
    assert km_by_key(km) == km_by_key(proj)


def test_monotone_growth():
    f = fixture_program("diamond_linked").functions[0]
    ef = expand_loops(f)
    init = init_knowledge(ef, {})
    before = {k: set(v) for k, v in init.known.items()}
    after = propagate(init, ef)
    for idx, s in before.items():
        assert s <= after.known[idx]


def test_confluence_under_shuffled_orders():
    for name in ("diamond_linked", "djbsort_analog", "anticorrelated"):
        f = fixture_program(name).functions[0]
        reference = None
        for seed in range(5):
            ef = expand_loops(f)
            km = analyze_edges(ef, {}, order_seed=seed)
            snapshot = km_by_key(km)
            if reference is None:
                reference = snapshot
            assert snapshot == reference


def test_transmitted_operand_on_out_edges_at_fixpoint():
    from declassiflow.ir import transmissions
    for name in ("diamond_linked", "anticorrelated", "djbsort_analog"):
        f = fixture_program(name).functions[0]
        km_exp = analyze_edges(expand_loops(f), {})
        for t in transmissions(km_exp.cfg.function):
            if isinstance(t.operand, str):
                for e in km_exp.cfg.out_edges[t.block]:
                    assert t.operand in km_exp.known[e.index]


def test_vacuous_knowledge_flagged():
    f = fixture_program("diamond_linked").functions[0]
    _, km = dfa(f)
    # b2 is known on the arm that skips its definition: vacuous there
    e = km.cfg.edge("B1", "B3")
    assert "b2" in km.known[e.index]
    assert km.vacuous.get(e.index, 0) & km.index.bit["b2"]


def test_decodes_per_run(monkeypatch):
    """Knowledge stays in masks from the equations to the report. A run
    configured like protect on segments(4) decodes twice: the vacuous note
    and refinement's candidates. One configured like analyze decodes the
    note and each distinct mask among the report's edges and blocks once,
    and equal lists in the report are one object. With refinement off,
    phase 1 decodes at most once per function, for the note."""
    calls = Counter()
    decode = VarIndex.decode

    def counting(self, m):
        calls[sys._getframe(1).f_code.co_name] += 1
        return decode(self, m)

    monkeypatch.setattr(VarIndex, "decode", counting)
    run_pipeline(parse_program(segments(4)), RunConfig())
    assert calls == {"analyze_function": 1, "candidate_vars": 1}, calls
    calls.clear()
    analyze = RunConfig(refine=False, protect=False, emit_knowledge=True)
    (fn,) = run_pipeline(parse_program(segments(4)), analyze)["functions"]
    lists = [e["known"] for e in fn["edges"]] + list(fn["block_knowledge"].values())
    distinct = {tuple(names) for names in lists}
    assert len(distinct) == len({id(names) for names in lists}) < len(lists)
    assert calls.pop("analyze_function") == 1
    assert sum(calls.values()) == len(distinct), calls  # from run_pipeline
    for text in (segments(4), call_chain(4), fixture_text("aes_analog")):
        calls.clear()
        program = parse_program(text)
        analyze_program(program, RunConfig(refine=False, protect=False))
        assert set(calls) <= {"analyze_function"}, calls
        assert calls["analyze_function"] <= len(program.functions), calls


def test_summaries_pseudo_transmitters():
    p = fixture_program("aes_analog")
    analyses, summaries, _, _ = analyze_program(p, RunConfig(protect=False))
    for helper in ("f", "g", "h"):
        s = summaries[helper]
        assert s.is_pseudo_transmitter
        assert s.leaked_args == {0, 1}
        assert s.is_fully_declassified
    enc = summaries["encrypt"]
    assert not enc.is_pseudo_transmitter  # x leaks internally, underivable from y1
    assert enc.is_fully_declassified
    assert "x" in enc.internal_leaks
    assert enc.leaked_args == {0}


def test_summary_transmitter_free_function():
    p = parse_program("""
fn quiet(a) {
B1:
  b = add a, 1
  ret
}
""")
    analyses, summaries, _, _ = analyze_program(p, RunConfig(refine=False, protect=False))
    s = summaries["quiet"]
    assert s.is_fully_declassified  # vacuously: nothing is transmitted
    assert s.is_pseudo_transmitter and s.leaked_args == frozenset()


def test_pseudo_requires_rederivable_internal_leaks():
    # the internal leak is unrelated to the argument, so caller enforcement
    # cannot stand in for the internal frontier
    p = parse_program("""
fn leaky(a) {
B1:
  z = input
  transmit a
  transmit z
  ret
}
""")
    _, summaries, _, _ = analyze_program(p, RunConfig(refine=False, protect=False))
    s = summaries["leaky"]
    assert s.is_fully_declassified
    assert not s.is_pseudo_transmitter
    assert "z" in s.internal_leaks


def test_pseudo_rederivable_internal_leak_accepted():
    p = parse_program("""
fn fwd(a) {
B1:
  b = add a, 1
  transmit b
  ret
}
""")
    _, summaries, _, _ = analyze_program(p, RunConfig(refine=False, protect=False))
    s = summaries["fwd"]
    assert s.is_pseudo_transmitter
    assert s.leaked_args == {0}
    assert "b" in s.internal_leaks


def test_gep_backward_only_in_base():
    p = parse_program("""
fn f(base, idx) {
B1:
  addr = gep base, idx, 4
  transmit addr
  transmit idx
  ret
}
""")
    _, km = dfa(p.functions[0])
    out = known_at(km, "B1", "@exit")
    assert "base" in out  # addr and idx known, so the base is recoverable
    p2 = parse_program("""
fn f(base, idx) {
B1:
  addr = gep base, idx, 4
  transmit addr
  transmit base
  ret
}
""")
    _, km2 = dfa(p2.functions[0])
    out2 = known_at(km2, "B1", "@exit")
    assert "idx" not in out2  # index recovery would need exact division


def test_hoist_blocked_by_defining_block():
    p = parse_program("""
fn f(c) {
B1:
  br c, B2, B3
B2:
  v = input
  transmit v
  jmp B3
B3:
  ret
}
""")
    _, km = dfa(p.functions[0])
    assert "v" in known_at(km, "B2", "B3")
    assert "v" not in known_at(km, "B1", "B2")  # defined in B2: no hoist above it


def _reference_equations(f):
    """The named R2/R3 equations: (output, variable inputs, ((recoverable
    input, other variable inputs), ...)); a phi counts as forward solvable
    and has no backward positions."""
    eqs = []
    for _, ins in f.instructions():
        if ins.opcode == "phi":
            eqs.append((ins.output, tuple(ins.var_operands()), ()))
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
        eqs.append((ins.output, tuple(ins.var_operands()), tuple(backward)))
    return eqs


def _reference_close(known, eqs):
    """Close one edge's name set under the equations in place; True if it
    grew."""
    grew = False
    changed = True
    while changed:
        changed = False
        for output, var_inputs, backward in eqs:
            if output not in known and all(v in known for v in var_inputs):
                known.add(output)
                changed = grew = True
            if output in known:
                for target, others in backward:
                    if target not in known and all(v in known for v in others):
                        known.add(target)
                        changed = grew = True
    return grew


def _reference_sweep(known, ef):
    """The whole-graph reference sweep, on decoded edge sets: re-close every
    edge and re-run R4-R7 on every block until nothing changes."""
    f = ef.function
    cfg = ef.cfg
    eqs = _reference_equations(f)

    phi_arms = {}
    for b in f.blocks:
        arms = []
        for phi in b.phis():
            pairs = []
            for op, lab in zip(phi.operands, phi.phi_labels):
                pairs.append((op, cfg.edge(lab, b.label).index))
            arms.append((phi.output, pairs))
        if arms:
            phi_arms[b.label] = arms

    changed = True
    while changed:
        changed = False
        for e in cfg.edges:
            if _reference_close(known[e.index], eqs):
                changed = True
        for b in f.blocks:
            ins_e = cfg.in_edges[b.label]
            outs_e = cfg.out_edges[b.label]
            if not ins_e or not outs_e:
                continue
            in_common = set.intersection(*(known[e.index] for e in ins_e))
            for e in outs_e:
                missing = in_common - known[e.index]
                if missing:
                    known[e.index] |= missing
                    changed = True
            out_common = set.intersection(*(known[e.index] for e in outs_e))
            defs = b.defined_vars()
            hoistable = {v for v in out_common if v not in defs}
            for e in ins_e:
                if e.src == ENTRY:
                    continue
                missing = hoistable - known[e.index]
                if missing:
                    known[e.index] |= missing
                    changed = True
            for out, pairs in phi_arms.get(b.label, ()):
                if out not in out_common and all(
                        (not isinstance(op, str)) or op in known[eidx]
                        for op, eidx in pairs):
                    for e in outs_e:
                        if out not in known[e.index]:
                            known[e.index].add(out)
                            changed = True
                    out_common = set.intersection(*(known[e.index] for e in outs_e))
                if out in out_common:
                    for op, eidx in pairs:
                        if isinstance(op, str) and op not in known[eidx]:
                            known[eidx].add(op)
                            changed = True
    return {e.key: frozenset(known[e.index]) for e in cfg.edges}


def _analyzed(texts):
    """(expanded function, summaries) of every function of every program
    whose loops expand, with the summaries phase 1 gives its callees."""
    for text in texts:
        try:
            analyses, summaries, _, _ = analyze_program(
                parse_program(text), RunConfig(refine=False, protect=False))
        except CfgError:
            continue  # irreducible or too deeply nested
        for fa in analyses.values():
            yield fa.expanded, summaries


def _sweep_corpus():
    """Loop-free and loop-rich programs, segments(1..6) and segments(8) (the
    middle dataflow-large size), a call chain and every fixture."""
    rng = random.Random(4)
    texts = [random_acyclic_program(rng) for _ in range(300)]
    texts += [segments(k) for k in (*range(1, 7), 8)]
    texts += [random_loop_program(random.Random(seed)) for seed in range(100)]
    texts += [call_chain(4)]
    texts += [path.read_text() for path in sorted(FIXTURES.glob("*.mir"))]
    return texts


def test_fixpoint_matches_reference_sweep():
    """The pass-structured fixpoint reaches the reference sweep's fixpoint
    under every order seed, on loop-free and loop-rich functions and on
    callers seeded from their callees' summaries."""
    checked = callers = 0
    for ef, summaries in _analyzed(_sweep_corpus()):
        expected = _reference_sweep(init_knowledge(ef, summaries).known, ef)
        for seed in (None, 0, 1, 2):
            got = km_by_key(propagate(init_knowledge(ef, summaries), ef, order_seed=seed))
            assert got == expected, (ef.function.name, seed)
        checked += 1
        callers += any(ins.opcode == "call" for _, ins in ef.function.instructions())
    assert checked >= 420 and callers >= 5, (checked, callers)


def test_fixpoint_from_unclosed_seeds_on_every_edge_matches_reference_sweep():
    """Seeded the way a pseudo-transmitter check seeds it, with leaked
    arguments and constants on every edge and no edge closed, the fixpoint
    still equals the reference sweep's under every order seed, and so does
    the seed closed under R2/R3 on every edge, which the check reads."""
    rng = random.Random(18)
    checked = grown = 0
    for ef, _ in _analyzed(_sweep_corpus()):
        f, ix = ef.function, ef.index
        leaked = [p for p in f.params if rng.random() < 0.5]
        seeds = ix.mask(leaked) | ix.mask(ins.output for _, ins in f.instructions()
                                          if ins.opcode == "const")
        km = KnowledgeMap(ef.cfg, ix, [seeds] * len(ef.cfg.edges))
        expected = _reference_sweep(km.known, ef)
        closed = closure(f, ix)(seeds)  # what _internal_leaks_rederivable reads
        assert km_by_key(KnowledgeMap(ef.cfg, ix, [closed] * len(ef.cfg.edges))) == expected, \
            f.name
        for seed in (None, 0, 1, 2):
            km = KnowledgeMap(ef.cfg, ix, [seeds] * len(ef.cfg.edges))
            assert km_by_key(propagate(km, ef, order_seed=seed)) == expected, \
                (f.name, seed)
        checked += 1
        grown += any(s != ix.decode(seeds) for s in expected.values())
    assert checked >= 420 and grown >= 150, (checked, grown)


def test_closure_matches_reference_close():
    """The R2/R3 closure, called directly on every function of the sweep
    corpus with seeded random masks and shuffled rule orders: closing from
    scratch equals the reference close on the decoded names, and closing a
    closed mask plus new bits, re-checking only the new bits (as the
    fixpoint's passes and the exact-knowledge oracle do), equals closing the
    union from scratch."""
    rng = random.Random(33)
    checked = grown = regrown = 0
    for ef, _ in _analyzed(_sweep_corpus()):
        f, ix = ef.function, ef.index
        eqs = _reference_equations(f)
        for seed in (None, 0, 1):
            close = closure(f, ix, order_seed=seed)
            names = rng.sample(ix.names, rng.randint(0, len(ix.names) // 4))
            expected = set(names)
            _reference_close(expected, eqs)
            closed = close(ix.mask(names))
            assert ix.decode(closed) == expected, (f.name, seed)
            new = ix.mask(rng.sample(ix.names, min(3, len(ix.names)))) & ~closed
            again = close(closed | new, new)
            assert again == close(closed | new), (f.name, seed)
            grown += closed != ix.mask(names)
            regrown += again != closed | new
        checked += 1
    assert checked >= 420 and grown >= 800 and regrown >= 600, (checked, grown, regrown)


def _reference_project(km, ef):
    """The set-based projection the bitset one replaced: per original edge
    and variable, test the representative on every counterpart edge."""
    known_x = km.known
    ocfg = ef.original_cfg
    by_key = {e.key: e.index for e in km.cfg.edges}
    counterparts = {e.key: [] for e in ocfg.edges}
    for ekey, origins in ef.edge_origin.items():
        for ok in origins:
            if ok in counterparts:
                counterparts[ok].append(ekey)
    out = {}
    ovars = sorted(ef.original.defined_vars())
    for oe in ocfg.edges:
        cps = counterparts[oe.key]
        s = set()
        if cps:
            for v in ovars:
                if all(representative(ef, v, ck) in known_x[by_key[ck]] for ck in cps):
                    s.add(v)
        out[oe.index] = s
    return out, _reference_vacuous(ocfg, ef.original, out)


def _reference_vacuous(cfg, f, known):
    """The set-based vacuous flags: one reachability search per block."""
    def_block = {p: None for p in f.params}
    for b in f.blocks:
        for ins in b.instructions:
            if ins.output is not None:
                def_block[ins.output] = b.label
    reach = {}
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
    vac = {}
    for e in cfg.edges:
        flagged = set()
        for v in known[e.index]:
            db = def_block.get(v)
            if db is None:
                continue
            defined_before = e.src != ENTRY and e.src in reach[db]
            defined_after = e.dst != EXIT and db in reach.get(e.dst, set())
            if not (defined_before or defined_after):
                flagged.add(v)
        if flagged:
            vac[e.index] = flagged
    return vac


def test_projection_matches_set_reference():
    """The bitset projection and vacuous flags equal the set-based ones, also
    on the cyclic original graphs of loop-rich programs."""
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.mir"))]
    texts += [segments(k) for k in range(1, 17)]
    texts += [random_loop_program(random.Random(seed)) for seed in range(150)]
    checked = cyclic = flagged = 0
    for ef, summaries in _analyzed(texts):
        km = analyze_edges(ef, summaries)
        got = project_to_original(km, ef)
        known, vacuous = _reference_project(km, ef)
        assert got.known == known, ef.function.name
        assert {i: got.index.decode(m) for i, m in got.vacuous.items()} == vacuous, \
            ef.function.name
        checked += 1
        cyclic += len(ef.function.blocks) > len(ef.original.blocks)  # loops expanded
        flagged += bool(vacuous)
    assert checked >= 180 and cyclic >= 150 and flagged >= 75, (checked, cyclic, flagged)
