import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from declassiflow.cfg import CfgError, build_cfg, dominators, expand_loops, simplify_loops
from declassiflow.frontier import BlockKnowledge
from declassiflow import pipeline, refine
from declassiflow.knowledge import AnalysisError, leak_model
from declassiflow.oracle import input_grid, input_slots, interpret
from declassiflow.refine import (ESCAPABLE, INEVITABLE, UNKNOWN, Limits, PathLog,
                                 _FULL, _interval, _SymState, eval_term,
                                 apply_refinement, candidate_regions, candidate_vars,
                                 check_inevitable, parse_constraint)
from declassiflow.ir import Program, parse_program
from declassiflow.pipeline import RunConfig, analyze_program, run_pipeline

from conftest import FIXTURES, dfa_blocks, fixture_program, fixture_text, known_at
from generators import (anticorrelated_chain, call_chain, random_acyclic_program,
                        random_call_program, random_loop_program, random_tight_program,
                        segments)


def simplified(name, index=0):
    return simplify_loops(fixture_program(name).functions[index])


def spec_tblocks(f):
    """Speculative transmitter blocks of a call-free function."""
    return {t.block for t in leak_model(f, {}) if t.speculative}


def regions_of(f):
    """Candidate regions of a call-free function, from its own dominators."""
    return candidate_regions(f, spec_tblocks(f), dominators(build_cfg(f)))


def knowing(f, kb, var):
    """Speculative transmitter blocks whose knowledge includes var."""
    return {b for b in spec_tblocks(f) if var in known_at(kb, b)}


def query(f, region, var, kb, limits=None, constraints=None):
    return check_inevitable(PathLog(f, limits, constraints), region, var,
                            knowing(f, kb, var))


def flag_escapes(trace, fname, header, know):
    """The flag plan: 0 at entry, -1 in the header, 1 in each knowing block;
    a trace escapes when the flag is -1 at its end."""
    flag = 0
    for fn, blk in trace.pc:
        if fn == fname and blk == header:
            flag = -1
        if fn == fname and blk in know:
            flag = 1
    return flag == -1


def test_candidate_regions_ordering_and_counts():
    f = simplified("djbsort_analog")
    regions = regions_of(f)
    assert [r.header for r in regions] == ["B1", "B2", "B3.ph", "B3"]
    assert len(regions) == 4

    g = simplified("chacha_analog")
    regions_c = regions_of(g)
    assert len(regions_c) == 3
    assert [r.header for r in regions_c] == ["B1", "B2.ph", "B2"]


def test_candidate_region_single_block():
    f = parse_program("fn f(a) {\nB1:\n  transmit a\n  ret\n}").functions[0]
    regions = regions_of(f)
    assert len(regions) == 1
    assert regions[0].header == "B1" and regions[0].blocks == {"B1"}


def test_candidate_vars_include_backward_solved_base():
    f = simplified("djbsort_analog")
    _, _, kb, _ = dfa_blocks(f)
    cands = candidate_vars(kb, spec_tblocks(f))
    assert "x" in cands  # recovered from the transmitted address via the base
    assert "a1" in cands


def test_candidate_vars_empty_without_knowledge():
    f = simplified("djbsort_analog")
    empty = BlockKnowledge(build_cfg(f), expand_loops(f).index, {})
    assert candidate_vars(empty, spec_tblocks(f)) == set()


def test_instrument_flags_both_transmitter_blocks():
    f = fixture_program("anticorrelated").functions[0]
    _, _, kb, _ = dfa_blocks(f)
    regions = regions_of(f)
    assert [r.header for r in regions] == ["B1"]
    assert knowing(f, kb, "x") == {"B2", "B4"}  # not the header B1


def test_instrument_flags_single_block_region():
    f = parse_program("fn f(a) {\nB1:\n  transmit a\n  ret\n}").functions[0]
    _, _, kb, _ = dfa_blocks(f)
    region = regions_of(f)[0]
    assert knowing(f, kb, "a") == {"B1"}  # a knowing header never escapes
    result = query(f, region, "a", kb, Limits(domain_min=0, domain_max=3))
    assert result.verdict == INEVITABLE


def test_anticorrelated_inevitable():
    f = fixture_program("anticorrelated").functions[0]
    _, _, kb, _ = dfa_blocks(f)
    region = regions_of(f)[0]
    result = query(f, region, "x", kb, Limits(domain_min=0, domain_max=3))
    assert result.verdict == INEVITABLE
    kb2 = apply_refinement(kb, result)
    assert "x" in known_at(kb2, "B1")


def test_anticorrelated_chain_one_barrier():
    """anti(k) for k up to 10 keeps one barrier, at the entry A1: refinement
    finds each x_s inevitably known at its segment's entry, where data flow
    alone puts a barrier on each of the 2k transmitting arms. The protected
    anti(1..4) pass `verify` at domain 0..1."""
    for k in range(1, 11):
        report = run_pipeline(parse_program(anticorrelated_chain(k)), RunConfig())
        assert report["barriers"] == {"main": ["A1"]}, k
    config = RunConfig(verify=True, verify_domain=range(0, 2))
    for k in range(1, 5):
        verification = run_pipeline(parse_program(anticorrelated_chain(k)),
                                    config)["verification"]
        assert verification["passed"], (k, verification["violations"])
        assert verification["inputs_checked"] == 4 ** k


def test_sort_guard_region_inevitable_and_entry_escapable():
    f = simplified("djbsort_analog")
    _, _, kb, _ = dfa_blocks(f)
    regions = regions_of(f)
    by_header = {r.header: r for r in regions}
    lim = Limits(domain_min=0, domain_max=15)

    entry = query(f, by_header["B1"], "x", kb, lim)
    assert entry.verdict == ESCAPABLE
    assert entry.witness_inputs is not None and entry.witness_inputs[1] in (0, 1)

    guard = query(f, by_header["B2"], "x", kb, lim)
    assert guard.verdict == INEVITABLE


def test_escapable_witness_replays():
    f = simplified("djbsort_analog")
    _, _, kb, _ = dfa_blocks(f)
    region = regions_of(f)[0]
    result = query(f, region, "x", kb, Limits(domain_min=0, domain_max=15))
    assert result.verdict == ESCAPABLE
    trace = interpret(Program([f]), result.witness_inputs)
    assert flag_escapes(trace, f.name, region.header, knowing(f, kb, "x"))


def test_entry_constraint_drives_inevitability():
    f = simplified("djbsort_analog")
    _, _, kb, _ = dfa_blocks(f)
    by_header = {r.header: r for r in regions_of(f)}
    lim = Limits(domain_min=0, domain_max=15)
    constraint = [parse_constraint("n >= 2")]
    # with the handrail constraint even the whole-function region is inevitable
    entry = query(f, by_header["B1"], "x", kb, lim, constraint)
    assert entry.verdict == INEVITABLE


def test_unsatisfiable_entry_constraints_error():
    f = simplified("djbsort_analog")
    _, _, kb, _ = dfa_blocks(f)
    region = regions_of(f)[0]
    with pytest.raises(AnalysisError, match="unsatisfiable"):
        query(f, region, "x", kb, Limits(), [parse_constraint("n > 5"),
                                             parse_constraint("n < 3")])


def test_verdicts_monotone_in_limits():
    f = simplified("djbsort_analog")
    _, _, kb, _ = dfa_blocks(f)
    by_header = {r.header: r for r in regions_of(f)}
    small = Limits(loop_cap=2, path_cap=8, domain_min=0, domain_max=15)
    big = Limits(loop_cap=64, path_cap=8192, domain_min=0, domain_max=15)
    for header in ("B1", "B2"):
        low = query(f, by_header[header], "x", kb, small)
        high = query(f, by_header[header], "x", kb, big)
        if low.verdict == INEVITABLE:
            assert high.verdict == INEVITABLE
        if low.verdict == ESCAPABLE:
            assert high.verdict == ESCAPABLE


def test_regions_track_speculative_transmitters_only():
    # the only speculative transmitter sits in the entry block, so only the
    # entry dominates every site even though every block ends in a branch
    f = simplified("self_loop_linked")
    regions = regions_of(f)
    assert [r.header for r in regions] == ["B1"]

    quiet = parse_program("fn f(a) {\nB1:\n  br a, B2, B3\nB2:\n  jmp B3\nB3:\n  ret\n}").functions[0]
    assert regions_of(quiet) == []


INPUT_LOOP = """
fn f(a) {
B1:
  p = load a
  jmp B2
B2:
  c = input
  br c, B2, B3
B3:
  ret
}
"""

TWO_DIAMONDS = """
fn f(a) {
B1:
  c = input
  br c, B2, B3
B2:
  jmp B3
B3:
  d = input
  br d, B4, B5
B4:
  jmp B5
B5:
  transmit a
  ret
}
"""

GUARDED = """
fn f(a) {
B1:
  br a, B2, B3
B2:
  transmit a
  jmp B3
B3:
  ret
}
"""


@pytest.mark.parametrize("text,limits,note", [
    (INPUT_LOOP, Limits(loop_cap=4, path_cap=64, domain_min=0, domain_max=3),
     "cap hit: loop_cap"),
    (TWO_DIAMONDS, Limits(path_cap=2, domain_min=0, domain_max=3),
     "cap hit: path_cap"),
    (GUARDED, Limits(domain_min=0, domain_max=3, enum_budget=2),
     "cap hit: enum_budget"),
], ids=["loop_cap", "path_cap", "enum_budget"])
def test_loop_cap_unknown_on_input_driven_loop(text, limits, note):
    f = simplify_loops(parse_program(text).functions[0])
    _, _, kb, _ = dfa_blocks(f)
    by_header = {r.header: r for r in regions_of(f)}
    result = query(f, by_header["B1"], "a", kb, limits)
    assert result.verdict == UNKNOWN
    assert result.note == note


def test_apply_refinement_rejects_non_inevitable():
    f = simplified("djbsort_analog")
    _, _, kb, _ = dfa_blocks(f)
    region = regions_of(f)[0]
    result = query(f, region, "x", kb, Limits(domain_min=0, domain_max=15))
    assert result.verdict == ESCAPABLE
    with pytest.raises(AnalysisError):
        apply_refinement(kb, result)


def test_constraint_parser():
    c = parse_constraint("n >= 0")
    assert (c.var, c.op, c.value) == ("n", ">=", 0)
    with pytest.raises(AnalysisError):
        parse_constraint("nonsense")


def test_refinement_sound_against_interpreter():
    """Differential gate: every inevitable verdict holds on every input of the
    grid, and every escapable witness replays to an escaping trace."""
    rng = random.Random(20240811)
    limits = Limits(domain_min=0, domain_max=3)
    verdicts = {INEVITABLE: 0, ESCAPABLE: 0, UNKNOWN: 0}
    for _ in range(300):
        program = parse_program(random_acyclic_program(rng))
        f = program.functions[0]
        _, _, kb, _ = dfa_blocks(f)
        paths = PathLog(f, limits)
        traces = [interpret(program, inputs)
                  for inputs in input_grid(input_slots(program), range(4))]
        for region in regions_of(f):
            for var in sorted(candidate_vars(kb, spec_tblocks(f))):
                know = knowing(f, kb, var)
                result = check_inevitable(paths, region, var, know)
                verdicts[result.verdict] += 1
                if result.verdict == INEVITABLE:
                    assert not any(flag_escapes(t, f.name, region.header, know)
                                   for t in traces), (region.header, var)
                elif result.verdict == ESCAPABLE:
                    trace = interpret(program, result.witness_inputs)
                    assert flag_escapes(trace, f.name, region.header, know)
    assert verdicts[INEVITABLE] > 1000 and verdicts[ESCAPABLE] > 50, verdicts


def test_solve_excludes_holes():
    """The escaping path B1 -> B3 -> B4 needs a != 1 (a hole inside a's
    range) and a + 0 == 1 (a complex constraint the intervals leave open):
    its box holds a = 1, which solving must skip, so b is inevitable."""
    f = parse_program("""fn f(a, b) {
B1:
  c = eq a, 1
  br c, B2, B3
B2:
  transmit b
  jmp B5
B3:
  s = add a, 0
  d = eq s, 1
  br d, B4, B2
B4:
  jmp B5
B5:
  ret
}
""").functions[0]
    _, _, kb, _ = dfa_blocks(f)
    region = regions_of(f)[0]
    assert region.header == "B1" and knowing(f, kb, "b") == {"B2"}
    assert query(f, region, "b", kb, Limits(domain_min=0, domain_max=3)).verdict == INEVITABLE


def test_solve_too_deep_raises_on_every_call():
    """A solve that nests past the recursion limit is not recorded, so every
    query that reaches its exit ends with the same error."""
    term = ("sym", "x")
    for _ in range(5000):
        term = ("add", term, 1)
    paths = PathLog(parse_program("fn f(x) {\nB1:\n  ret\n}\n").functions[0])
    paths._events = [(((("lt", term, 5), True),), {}, {}, {"x": (0, 3)})]
    for _ in range(2):
        with pytest.raises(AnalysisError, match="recursion limit"):
            paths.solve(0)


def test_input_symbols_do_not_alias_parameters():
    # x != in0 is satisfiable: the input's symbol must not share the name of
    # the parameter in0
    text = """
fn f(in0) {
B1:
  x = input
  c = eq x, in0
  br c, B2, B3
B2:
  transmit in0
  jmp B3
B3:
  ret
}
"""
    f = parse_program(text).functions[0]
    _, _, kb, _ = dfa_blocks(f)
    region = regions_of(f)[0]
    result = query(f, region, "in0", kb, Limits(domain_min=0, domain_max=3))
    assert result.verdict == ESCAPABLE
    trace = interpret(Program([f]), result.witness_inputs)
    assert flag_escapes(trace, f.name, region.header, knowing(f, kb, "in0"))


def reference_refine_ranges(constraints, ranges: dict[str, tuple[int, int]]) -> bool:
    """Narrow symbol ranges from sym-vs-const comparisons over a whole path
    condition, to a fixpoint; False on conflict."""
    changed = True
    while changed:
        changed = False
        for term, truthy in constraints:
            if isinstance(term, tuple) and term[0] in ("lt", "eq"):
                a, b = term[1], term[2]
                sym, const, flipped = None, None, False
                if isinstance(a, tuple) and a[0] == "sym" and isinstance(b, int):
                    sym, const = a[1], b
                elif isinstance(b, tuple) and b[0] == "sym" and isinstance(a, int):
                    sym, const, flipped = b[1], a, True
                if sym is None:
                    continue
                lo, hi = ranges.get(sym, _FULL)
                if term[0] == "lt":
                    if truthy:  # sym < const, or const < sym when flipped
                        lo, hi = (lo, min(hi, const - 1)) if not flipped else (max(lo, const + 1), hi)
                    else:
                        lo, hi = (max(lo, const), hi) if not flipped else (lo, min(hi, const))
                else:  # eq
                    if truthy:
                        lo, hi = max(lo, const), min(hi, const)
                    elif lo == hi == const:
                        return False
                    elif lo == const:
                        lo += 1
                    elif hi == const:
                        hi -= 1
                if (lo, hi) != ranges.get(sym, _FULL):
                    ranges[sym] = (lo, hi)
                    changed = True
                if lo > hi:
                    return False
            elif isinstance(term, tuple) and term[0] == "sym":
                lo, hi = ranges.get(sym := term[1], _FULL)
                if not truthy:
                    if lo > 0 or hi < 0:
                        return False
                    ranges[sym] = (0, 0)
                elif lo == hi == 0:
                    return False
    return True


def reference_quick_unsat(constraints, syms, limits):
    """The per-fork check that incremental narrowing replaced: narrow every
    symbol from the full domain over the whole path condition, then check
    each constraint's interval."""
    d = (limits.domain_min, limits.domain_max)
    ranges = {s: d for s in syms}
    if not reference_refine_ranges(constraints, ranges):
        return True
    for term, truthy in constraints:
        iv = _interval(term, ranges)
        if iv is None:
            continue
        if truthy and iv == (0, 0):
            return True
        if not truthy and iv[0] > 0:
            return True
        if not truthy and iv[1] < 0:
            return True
    return False


def random_constraint(rng, lits):
    def sym():
        return ("sym", rng.choice("xyz"))

    kind = rng.randrange(8)
    if kind < 3:  # symbol vs literal, the literal on either side
        a, b = sym(), rng.choice(lits)
        term = (rng.choice(("lt", "eq")),) + ((a, b) if rng.random() < 0.5 else (b, a))
    elif kind == 3:
        term = sym()
    elif kind == 4:
        arith = (rng.choice(("add", "sub")), sym(), rng.choice((sym(), rng.choice(lits))))
        term = (rng.choice(("lt", "eq")), arith, rng.choice(lits))
    elif kind == 5:
        term = (rng.choice(("lt", "eq")), sym(), sym())
    elif kind == 6:
        term = ("load", sym())
    else:
        term = ("lt", ("load", sym()), rng.choice(lits))
    return term, rng.random() < 0.5


def test_assume_matches_reference_quick_unsat():
    """Differential gate: narrowing one symbol per constraint decides every
    prefix of a path condition exactly as re-narrowing the whole prefix,
    which the test tracks itself since a path keeps no such list."""
    rng = random.Random(20261018)
    syms = ["x", "y", "z"]
    decided = {True: 0, False: 0}
    for limits in (Limits(domain_min=0, domain_max=15), Limits(domain_min=-3, domain_max=4)):
        d = (limits.domain_min, limits.domain_max)
        lits = range(d[0] - 2, d[1] + 3)
        for _ in range(3000):
            st, pc = _SymState([], dict.fromkeys(syms, d)), []
            for _ in range(rng.randint(1, 14)):
                pc.append(random_constraint(rng, lits))
                live = st.assume(*pc[-1])
                assert live == (not reference_quick_unsat(pc, syms, limits)), pc
                decided[live] += 1
                if not live:
                    break
    assert decided[False] > 2000 and decided[True] > 10000, decided


def satisfying(assignments, constraints):
    return [a for a in assignments
            if all((eval_term(t, a) != 0) == tr for t, tr in constraints)]


def box_solutions(st):
    """The points of st's box of ranges, less each symbol's holes, that
    satisfy its complex constraints, in lexicographic order."""
    boxes = ([v for v in range(lo, hi + 1) if v not in st.holes.get(s, ())]
             for s, (lo, hi) in st.ranges.items())
    return satisfying([dict(zip(st.ranges, p)) for p in itertools.product(*boxes)],
                      st.complex)


def test_decide_settles_exactly_the_arm_assume_rejects():
    """Property gate for the fork-free branch: whenever the intervals decide
    a condition, the other arm is infeasible, the live arm narrows nothing,
    and dropping the constraint from the path condition changes neither the
    reference check nor the solutions in the box. On every live path, the
    box of ranges less each symbol's holes, filtered by the complex
    constraints, is exactly the domain's solutions of the path condition the
    test tracked, in the same order: what PathLog.solve searches."""
    seen = Counter()

    @settings(derandomize=True, database=None, deadline=None, max_examples=500)
    @given(hst.randoms(use_true_random=False), hst.sampled_from([(0, 7), (-3, 4)]))
    def check(rng, domain):
        limits = Limits(domain_min=domain[0], domain_max=domain[1])
        lits = range(domain[0] - 2, domain[1] + 3)
        syms = ["x", "y", "z"]
        every = [dict(zip(syms, p)) for p in itertools.product(
            range(domain[0], domain[1] + 1), repeat=len(syms))]
        st, pc = _SymState([], dict.fromkeys(syms, domain)), []
        for _ in range(rng.randint(0, 6)):  # a live path, built as branch would
            term, truthy = random_constraint(rng, lits)
            child = st.fork()
            if st.decide(term) is None and child.assume(term, truthy):
                st = child
                pc.append((term, truthy))
                assert box_solutions(st) == satisfying(every, pc), pc
        cond, _ = random_constraint(rng, lits)
        v = st.decide(cond)
        seen[v] += 1
        if v is None:
            return
        assert not st.fork().assume(cond, not v)
        live = st.fork()
        assert live.assume(cond, v) and live.ranges == st.ranges
        assert reference_quick_unsat(pc + [(cond, v)], syms, limits) == \
            reference_quick_unsat(pc, syms, limits)
        box = [dict(zip(syms, p)) for p in itertools.product(
            *(range(st.ranges[s][0], st.ranges[s][1] + 1) for s in syms))]
        assert all((eval_term(cond, a) != 0) == v for a in box)
        sat = satisfying(box, pc)
        assert sat == satisfying(sat, [(cond, v)])

    check()
    assert min(seen.values()) > 20, seen


@pytest.mark.parametrize("name,exits,caps,runs", [
    pytest.param(name, exits, caps, runs, id=name) for name, exits, caps, runs in [
        ("anticorrelated", 2, 0, 4), ("two_latch", 6, 0, 11),
        ("djbsort_analog", 15, 0, 29), ("segments-2", 92, 0, 183),
        ("call_chain-4", 16, 0, 31)]])
def test_exploration_counters(monkeypatch, name, exits, caps, runs):
    """Exact work counters of one fully drained exploration: a change in
    pruning or forking shows here without timing anything. A branch the
    intervals decide does not fork, so only open branches add runs."""
    generated = {"segments-2": segments(2), "call_chain-4": call_chain(4)}
    program = parse_program(generated.get(name) or fixture_text(name))
    bodies = {g.name: simplify_loops(g) for g in program.functions}
    calls = 0
    run = refine._SymState.run

    def counting(st):
        nonlocal calls
        calls += 1
        return run(st)

    monkeypatch.setattr(refine._SymState, "run", counting)
    paths = PathLog(bodies[program.functions[0].name], Limits(), functions=bodies)
    events = [e for _, e in paths.events()]
    assert (sum(e != "cap" for e in events), events.count("cap"), calls) == (
        exits, caps, runs)


def counting_eval_term(monkeypatch) -> Counter:
    """Count refine.eval_term calls, recursive ones included, under "calls"."""
    counter = Counter()
    evaluate = refine.eval_term

    def counting(t, assignment):
        counter["calls"] += 1
        return evaluate(t, assignment)

    monkeypatch.setattr(refine, "eval_term", counting)
    return counter


def test_solve_work_on_segments_3(monkeypatch):
    """eval_term calls, recursive ones included, of a full `protect` run on
    segments(3): solving backtracks over independent groups of symbols and
    checks each complex constraint once its last symbol is bound, so a
    symbol no constraint mentions is never enumerated. Enumerating each
    exit's whole box less its holes took 23,739 calls, and re-checking the
    whole path condition at every point of the box 209,751."""
    counter = counting_eval_term(monkeypatch)
    run_pipeline(parse_program(segments(3)), RunConfig())
    assert counter["calls"] == 288


@pytest.mark.parametrize("seed,calls,verdicts", [
    (12, 507_882, {ESCAPABLE: 9, UNKNOWN: 5}), (78, 39_415, {ESCAPABLE: 10})])
def test_solve_work_on_loop_rich_seeds(monkeypatch, seed, calls, verdicts):
    """eval_term calls and verdicts of a `protect` run, default limits, on
    loop-rich seeds whose solves enumerated whole boxes: seed 12 made 201
    solves over 38.6 M assignments (134 M eval_term calls), and seed 78 had
    not finished after 600 s."""
    counter = counting_eval_term(monkeypatch)
    report = run_pipeline(parse_program(random_loop_program(random.Random(seed))), RunConfig())
    assert counter["calls"] == calls
    assert Counter(r["verdict"] for fn in report["functions"]
                   for r in fn["refinements"]) == verdicts


def reference_solve(event, limits: Limits):
    """The enumeration PathLog.solve replaced: walk exit event's whole box of
    ranges less its holes in lexicographic order, checking every complex
    constraint at every point, under the same enum_budget rule."""
    complex, holes, _, ranges = event
    if (limits.domain_max - limits.domain_min + 1) ** len(ranges) > limits.enum_budget:
        return "unknown", None
    boxes = ([v for v in range(lo, hi + 1) if v not in holes.get(s, ())]
             for s, (lo, hi) in ranges.items())
    for combo in itertools.product(*boxes):
        assignment = dict(zip(ranges, combo))
        if all(truthy == (eval_term(term, assignment) != 0) for term, truthy in complex):
            return "sat", list(combo)
    return "unsat", None


def solver_corpus() -> list[str]:
    """Acyclic, tight and call programs, segments(1..3), the fixtures and the
    loop-rich seeds the reference enumerates in seconds."""
    texts = [random_acyclic_program(random.Random(seed)) for seed in range(300)]
    texts += [random_tight_program(random.Random(seed)) for seed in range(100)]
    texts += [random_call_program(random.Random(seed)) for seed in range(60)]
    texts += [segments(k) for k in (1, 2, 3)]
    texts += [path.read_text() for path in sorted(FIXTURES.glob("*.mir"))]
    texts += [random_loop_program(random.Random(seed)) for seed in range(100)
              if seed not in (12, 38, 78)]
    return texts


def test_solver_matches_reference_enumeration(monkeypatch):
    """Differential gate: on every exit event that refinement solves in a
    `protect` run, under default limits and under small ones, the
    backtracking solver and the reference enumeration give the same status
    and witness. The reference takes minutes on loop-rich seeds 12, 38 and
    78, and on some unsolved exits of other seeds, so only solved exits are
    compared."""
    seen = Counter()
    solve = PathLog.solve

    def compared(log, i):
        if i in log._solved:
            return solve(log, i)
        answer = solve(log, i)
        assert answer == reference_solve(log._events[i], log.limits), (text, i)
        seen[answer[0]] += 1
        return answer

    monkeypatch.setattr(PathLog, "solve", compared)
    for limits in (Limits(), Limits(loop_cap=3, path_cap=16, domain_min=0, domain_max=7,
                                    enum_budget=64)):
        for text in solver_corpus():
            try:
                run_pipeline(parse_program(text), RunConfig(limits=limits))
            except CfgError:  # loops the expansion does not support
                continue
    assert seen["sat"] > 300 and seen["unsat"] > 1000 and seen["unknown"] > 300, seen


def test_chain_steps_per_function(monkeypatch):
    """Symbolic steps of each refined function of call_chain(8): each steps
    its own body only, since every callee walk a caller needs is an exit path
    of the callee's own exploration, recorded as a walk. Keys hold the
    callee and its arguments' ranges, not their names, so the chain whose
    function k names its parameters `buf{k}, n{k}` takes the same steps.
    Before exit paths were recorded, each caller took 1,094 steps (7,800 in
    all; 27,792 with distinct names), and before walks were replayed it
    re-stepped the whole chain below it (27,792)."""
    steps = Counter()
    run = refine._SymState.run

    def counting(st):
        outcome = run(st)
        steps[st.fname] += st.steps
        return outcome

    monkeypatch.setattr(refine._SymState, "run", counting)
    for distinct_names in (False, True):
        steps.clear()
        analyze_program(parse_program(call_chain(8, distinct_names)), RunConfig())
        assert steps == {f"f{k}": 142 for k in range(8)}, distinct_names
        assert sum(steps.values()) == 1136


@pytest.mark.parametrize("name,calls", [
    ("call_chain-8", 8), ("segments-2", 1), ("anticorrelated", 2)])
def test_summarize_calls_per_protect_run(monkeypatch, name, calls):
    """`summarize` calls of a `protect` run: one per function from phase 1,
    and one more after refinement only where some verdict is `inevitable`
    and so changed block knowledge. Rebuilding after every refinement made
    16, 2 and 2 calls."""
    generated = {"call_chain-8": call_chain(8), "segments-2": segments(2)}
    made = 0
    summarize = pipeline.summarize

    def counting(*args):
        nonlocal made
        made += 1
        return summarize(*args)

    monkeypatch.setattr(pipeline, "summarize", counting)
    run_pipeline(parse_program(generated.get(name) or fixture_text(name)), RunConfig())
    assert made == calls


CALL_LIMITS = [Limits(domain_max=3), Limits(loop_cap=4, domain_max=5),
               Limits(loop_cap=9, domain_max=3, path_cap=40)]


def test_replayed_walks_match_stepping(monkeypatch):
    """Reports with the run's memo of decided callee walks equal those of a
    reference that steps into every callee, on random call programs whose
    functions share parameter names and on the same programs naming them
    apart, so walks replay across different names. The memo has one writer,
    each refined function's decided exit paths, so every key is the callee
    and one range per parameter: a call is looked up only when its arguments
    are distinct symbols, and any other call steps in."""
    replays = Counter()
    replay = refine._SymState.call
    memos = {}  # id -> each memo of decided callee walks that a run shared
    refine_function = pipeline.refine_function

    def keeping(fa, bodies, summaries, config, walks):
        memos[id(walks)] = walks
        refine_function(fa, bodies, summaries, config, walks)

    def counting(st, callee, args):
        ret = replay(st, callee, args)
        if ret is not None:
            replays["cap" if ret == "cap" else "hit"] += 1
        return ret

    def report(text, limits, call):
        monkeypatch.setattr(refine._SymState, "call", call)
        out = run_pipeline(parse_program(text), RunConfig(limits=limits))
        out.pop("timing")
        return out

    monkeypatch.setattr(pipeline, "refine_function", keeping)
    for distinct_names in (False, True):
        replays.clear()
        for seed in range(60):
            text = random_call_program(random.Random(seed), distinct_names)
            arity = {f.name: len(f.params) for f in parse_program(text).functions}
            for limits in CALL_LIMITS:
                memos.clear()
                assert report(text, limits, counting) == \
                    report(text, limits, lambda st, callee, args: None), (seed, limits)
                assert all(len(ranges) == arity[callee] for walks in memos.values()
                           for callee, ranges in walks), (seed, limits)
        assert replays["hit"] and replays["cap"], (distinct_names, replays)


def replayed_calls(monkeypatch):
    """Wrap _SymState.call: the returned list gains, per call, whether it
    replayed a recorded walk (True) or stepped into the callee (False)."""
    replayed = []
    call = refine._SymState.call

    def counting(st, callee, args):
        ret = call(st, callee, args)
        replayed.append(ret is not None)
        return ret

    monkeypatch.setattr(refine._SymState, "call", counting)
    return replayed


def explore_in_order(program, names, walks):
    """Drain the path log of each named function in turn, sharing walks."""
    functions = {f.name: f for f in program.functions}
    for name in names:
        paths = PathLog(functions[name], Limits(), functions=functions, walks=walks)
        assert sum(e != "cap" for _, e in paths.events()) == 1, name


def test_argument_past_key_budget_is_stepped_into(monkeypatch):
    """A call whose argument is not a bare symbol steps in without a lookup,
    even though g's exit path is recorded: x16 below is a tree of 2^17
    nodes, which nothing may walk as a tree."""
    lines = ["fn main(a) {", "B1:", "  x0 = add a, 1"]
    lines += [f"  x{i} = add x{i - 1}, x{i - 1}" for i in range(1, 17)]
    lines += ["  r = call g(x16)", "  s = call g(x16)", "  ret", "}",
              "fn g(v) {", "B1:", "  transmit v", "  ret v", "}"]
    program = parse_program("\n".join(lines) + "\n")
    replayed = replayed_calls(monkeypatch)
    walks = {}
    start = time.perf_counter()
    explore_in_order(program, ["g", "main"], walks)
    assert time.perf_counter() - start < 1.0
    assert replayed == [False, False]
    assert sorted(key[0] for key in walks) == ["g", "main"]


def test_walk_lookup_needs_distinct_symbol_arguments(monkeypatch):
    """After g(p, q) is explored, main's g(a, b) under the same ranges
    replays it, renaming its return term to a and b; g(a, a), g(a, 1) and
    g(c, b) with c = add a, 1 step in."""
    program = parse_program("""fn g(p, q) {
B1:
  d = sub p, q
  ret d
}
fn main(a, b) {
B1:
  r = call g(a, b)
  s = call g(a, a)
  t = call g(a, 1)
  c = add a, 1
  u = call g(c, b)
  ret r
}
""")
    replayed = replayed_calls(monkeypatch)
    walks = {}
    explore_in_order(program, ["g", "main"], walks)
    assert replayed == [True, False, False, False]
    full = (0, 15)
    assert walks[("g", (full, full))][0] == ("sub", ("sym", "p"), ("sym", "q"))
    assert walks[("main", (full, full))][0] == ("sub", ("sym", "a"), ("sym", "b"))


def test_large_return_term_renames_in_linear_time():
    """A return term of 22 doublings is a DAG of 24 nodes but a tree of 2^23:
    recording it as g's exit path, renaming it to main's symbol at each
    replay in main and recording main's exit path stays linear in the DAG."""
    lines = ["fn g(a) {", "B1:", "  x0 = add a, 1"]
    lines += [f"  x{i} = add x{i - 1}, x{i - 1}" for i in range(1, 23)]
    lines += ["  ret x22", "}",
              "fn main(b) {", "B1:", "  r = call g(b)", "  s = call g(b)",
              "  t = call g(r)", "  ret s", "}"]
    program = parse_program("\n".join(lines) + "\n")
    functions = {f.name: f for f in program.functions}
    walks = {}
    start = time.perf_counter()
    for name in ("g", "main"):
        paths = PathLog(functions[name], Limits(), functions=functions, walks=walks)
        assert sum(e != "cap" for _, e in paths.events()) == 1
    assert time.perf_counter() - start < 1.0
    assert sorted(key[0] for key in walks) == ["g", "main"]


def test_exit_paths_left_open_are_not_recorded():
    """An exit path is recorded as a walk only when its final ranges decide
    every branch it took: not past a hole (`eq n, 3` false), a constraint
    between two symbols or an input."""
    program = parse_program("""fn hole(n) {
B1:
  c = eq n, 3
  br c, B2, B3
B2:
  ret 1
B3:
  ret 2
}
fn pair(n, m) {
B1:
  c = lt n, m
  br c, B2, B3
B2:
  ret 1
B3:
  ret 2
}
fn read(n) {
B1:
  q = input
  c = lt n, 2
  br c, B2, B3
B2:
  ret q
B3:
  ret n
}
""")
    walks = {}
    for f in program.functions:
        paths = PathLog(f, Limits(), walks=walks)
        assert sum(e != "cap" for _, e in paths.events()) == 2
    assert walks == {("hole", ((3, 3),)): (1, ((("hole", "B1"), 1), (("hole", "B2"), 1)))}


@pytest.mark.parametrize("kwargs,message", [
    ({"loop_cap": -1}, "negative loop_cap -1"),
    ({"path_cap": -1}, "negative path_cap -1"),
    ({"max_symbols": -2}, "negative max_symbols -2"),
    ({"enum_budget": -1}, "negative enum_budget -1"),
    ({"domain_min": 4, "domain_max": 3}, r"empty domain 4\.\.3 \(domain_min > domain_max\)"),
    ({"domain_min": -(1 << 31) - 1},
     r"domain_min -2147483649 outside signed 32 bits \(-2147483648\.\.2147483647\)"),
    ({"domain_min": 1 << 31, "domain_max": (1 << 31) + 1},
     r"domain_min 2147483648 outside signed 32 bits \(-2147483648\.\.2147483647\)"),
    ({"domain_max": 1 << 31},
     r"domain_max 2147483648 outside signed 32 bits \(-2147483648\.\.2147483647\)"),
])
def test_limits_reject_invalid_values(kwargs, message):
    # Limits(path_cap=-1) used to turn segments(2)'s 17 escapable verdicts
    # into 9 inevitable ones and drop its loop-body barriers
    with pytest.raises(AnalysisError, match=f"^{message}$"):
        Limits(**kwargs)
    limits = Limits(loop_cap=0, path_cap=0, domain_min=3, domain_max=3,
                    max_symbols=0, enum_budget=0)
    Limits(domain_min=-(1 << 31), domain_max=(1 << 31) - 1)  # the int32 ends are in
    with pytest.raises(AttributeError):
        limits.path_cap = -1  # frozen: no caller can skip the check
