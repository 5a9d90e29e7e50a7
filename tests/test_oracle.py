import copy
import random
import weakref
from collections import Counter
from dataclasses import dataclass, field

import pytest

from declassiflow.cfg import ENTRY, EXIT
from declassiflow.ir import Function, Program, parse_program, to_i32
from declassiflow.oracle import (DEFAULT_FUEL, Observation, OracleError, SpecExecution,
                                 Verdict, Violation, _Machine, _normalize_fn,
                                 check_frontier_property, eval_op, exact_knowledge,
                                 input_grid, input_slots, interpret, load_value,
                                 speculative_explore)
from declassiflow.pipeline import RunConfig, analyze_program, property_map, run_pipeline

from conftest import FIXTURES, dfa, fixture_program, known_at
from generators import (call_chain, random_acyclic_program, random_call_program,
                        random_tight_program, segments)


def edge_seq(trace, fn):
    return [(s, d) for f, s, d in trace.edges if f == fn]


def test_interpret_diamond_trace():
    f = fixture_program("diamond_linked").functions[0]
    tr = interpret(Program([f]), [5, 6])
    assert edge_seq(tr, "main") == [(ENTRY, "B1"), ("B1", "B3"), ("B3", EXIT)]
    transmits = [o for o in tr.observations if o.kind == "transmit"]
    assert [o.value for o in transmits] == [5]  # b3 = b1 on the direct arm


def test_interpret_straightline_single_path():
    f = parse_program("""
fn f(a, b) {
B1:
  c = add a, b
  transmit c
  ret c
}
""").functions[0]
    paths = {tuple(edge_seq(interpret(Program([f]), [x, y]), "f"))
             for x in range(3) for y in range(3)}
    assert len(paths) == 1
    assert interpret(Program([f]), [2, 3]).returned == 5


def test_interpret_anticorrelated_trace_and_single_transmit():
    f = fixture_program("anticorrelated").functions[0]
    cfgless = Program([f])
    tr = interpret(cfgless, [1, 9])
    assert edge_seq(tr, "main") == [
        (ENTRY, "B1"), ("B1", "B2"), ("B2", "B3"), ("B3", "B5"), ("B5", EXIT)]
    assert sum(1 for o in tr.observations if o.kind == "transmit") == 1
    tr0 = interpret(cfgless, [0, 9])
    assert edge_seq(tr0, "main") == [
        (ENTRY, "B1"), ("B1", "B3"), ("B3", "B4"), ("B4", "B5"), ("B5", EXIT)]
    assert sum(1 for o in tr0.observations if o.kind == "transmit") == 1


def test_interpret_arithmetic_wraps():
    f = parse_program("""
fn f(a) {
B1:
  big = const 2147483647
  s = add big, a
  ret s
}
""").functions[0]
    assert interpret(Program([f]), [1]).returned == -2147483648


def test_interpret_fuel_guard():
    p = parse_program("""
fn f(n) {
B1:
  z = const 0
  jmp B2
B2:
  i = phi [0, B1], [j, B2]
  j = add i, 1
  c = lt j, n
  br c, B2, B3
B3:
  r = add z, 1
  ret r
}
""")
    n = (DEFAULT_FUEL - 4) // 4  # 4 steps per iteration, 4 outside the loop
    assert interpret(p, [n]).steps == DEFAULT_FUEL
    with pytest.raises(OracleError, match="fuel"):
        interpret(p, [n + 1])
    with pytest.raises(OracleError, match="fuel"):
        interpret(parse_program("fn f() {\nB1:\n  jmp B2\nB2:\n  jmp B2\n}"), [])


def test_interpret_load_is_deterministic():
    f = parse_program("fn f(a) {\nB1:\n  v = load a\n  ret v\n}").functions[0]
    r1 = interpret(Program([f]), [7]).returned
    r2 = interpret(Program([f]), [7]).returned
    assert r1 == r2 == load_value(7)


def test_exact_knowledge_anticorrelated():
    f = fixture_program("anticorrelated").functions[0]
    km = exact_knowledge(f, range(0, 2))
    assert "x" in known_at(km, "B1", "B3")  # exact beats the edge fixpoint here
    assert "x" in known_at(km, "B1", "B2")


def test_exact_knowledge_transmitter_free():
    f = parse_program("fn f(a) {\nB1:\n  b = add a, 1\n  ret\n}").functions[0]
    km = exact_knowledge(f, range(0, 2))
    assert all(not s for s in km.known.values())


def test_exact_knowledge_rejects_loops_and_budget():
    loopy = fixture_program("self_loop_linked").functions[0]
    with pytest.raises(OracleError, match="acyclic"):
        exact_knowledge(loopy, range(0, 2))
    wide = parse_program("fn f() {\nB1:\n" +
                         "\n".join(f"  v{i} = input" for i in range(25)) +
                         "\n  ret\n}").functions[0]
    with pytest.raises(OracleError, match="budget"):
        exact_knowledge(wide, range(0, 4))


def test_soundness_on_random_sample():
    rng = random.Random(2024)
    for _ in range(25):
        f = parse_program(random_acyclic_program(rng)).functions[0]
        _, km = dfa(f)
        ke = exact_knowledge(f, range(0, 4))
        for e in km.cfg.edges:
            assert km.known[e.index] <= ke.known[e.index]


def test_tightness_on_curated_sample():
    rng = random.Random(55)
    for _ in range(25):
        f = parse_program(random_tight_program(rng)).functions[0]
        _, km = dfa(f)
        ke = exact_knowledge(f, range(0, 4))
        for e in km.cfg.edges:
            assert km.known[e.index] == ke.known[e.index]


def test_explorer_loop_exit_misprediction_observes():
    # mispredicting the loop branch exposes the not-yet-due transmit
    f = parse_program("""
fn f(s, n) {
B1:
  jmp B2
B2:
  i1 = phi [0, B1], [i2, B2]
  i2 = add i1, 1
  c = lt i2, n
  br c, B2, B3
B3:
  transmit s
  ret
}
""").functions[0]
    tr, specs = speculative_explore(Program([f]), [9, 3], window=16, depth=1)
    spec_transmits = [o for sp in specs for o in sp.observations
                      if o.kind == "transmit" and o.speculative]
    assert any(o.value == 9 for o in spec_transmits)
    assert any(("f", "s") in o.taint for o in spec_transmits)


def test_explorer_barrier_stops_speculation():
    f = parse_program("""
fn f(s) {
B1:
  c = eq s, 0
  br c, B2, B3
B2:
  specbarr
  transmit s
  jmp B3
B3:
  ret
}
""").functions[0]
    _, specs = speculative_explore(Program([f]), [3], window=32, depth=1)
    assert all(not sp.observations for sp in specs)
    assert any(sp.stopped_by == "barrier" for sp in specs)


@pytest.mark.parametrize("depth", [1, 2])
def test_explorer_keeps_at_most_depth_snapshots_alive(monkeypatch, depth):
    """Each burst runs at its branch, on a snapshot that lives only as long as
    the burst: a 200-iteration loop never holds more than `depth` at once."""
    p = parse_program("""
fn f(s, n) {
B1:
  jmp B2
B2:
  i = phi [0, B1], [j, B2]
  j = add i, 1
  c = lt j, n
  br c, B2, B3
B3:
  d = eq s, 0
  br d, B4, B5
B4:
  transmit s
  ret
B5:
  ret
}
""")
    live, peak = weakref.WeakSet(), 0
    snapshot = _Machine.snapshot

    def counted(self):
        nonlocal peak
        m = snapshot(self)
        live.add(m)
        peak = max(peak, len(live))
        return m

    monkeypatch.setattr(_Machine, "snapshot", counted)
    _, specs = speculative_explore(p, [9, 200], window=16, depth=depth)
    assert len(specs) > 200 * depth  # a burst per branch, and per branch in a burst
    assert peak <= depth


def test_explorer_rollback_leaves_trace_identical():
    f = fixture_program("djbsort_analog").functions[0]
    for inputs in ([0, 0], [1, 3], [2, 2]):
        plain = interpret(Program([f]), inputs)
        explored, _ = speculative_explore(Program([f]), inputs, window=16, depth=1)
        assert plain.edges == explored.edges
        assert plain.final_env == explored.final_env
        assert [o.value for o in plain.observations] == \
               [o.value for o in explored.observations]


def test_explorer_monotone_in_window_and_depth():
    f = fixture_program("djbsort_analog").functions[0]

    def obs_set(window, depth):
        _, specs = speculative_explore(Program([f]), [1, 3], window=window, depth=depth)
        return {(o.function, o.block, o.kind, o.value)
                for sp in specs for o in sp.observations}

    assert obs_set(4, 1) <= obs_set(16, 1) <= obs_set(32, 1)
    assert obs_set(16, 1) <= obs_set(16, 2)


def test_frontier_property_differential():
    program = fixture_program("aes_analog")
    report = run_pipeline(program, RunConfig())
    protected = parse_program(report["protected_program"])
    analyses, _, _, _ = analyze_program(program, RunConfig())
    fmap = property_map(program, analyses)
    grid = input_grid(input_slots(protected), range(0, 4))

    verdict = check_frontier_property(protected, fmap, grid, window=8, depth=1,
                                      pad_inputs=True)
    assert verdict.passed

    for f in protected.functions:
        for b in f.blocks:
            b.instructions = [i for i in b.instructions if i.opcode != "specbarr"]
    broken = check_frontier_property(protected, fmap, grid, window=8, depth=1,
                                     pad_inputs=True)
    assert not broken.passed
    v = broken.violations[0]
    assert v.variable[0] == "encrypt"


def test_frontier_crossed_at_first_entry():
    """A frontier is crossed at its first entry. In frontier_reentry the loop
    enters the frontier block F again after a mispredicted branch has
    observed v, which the first entry already revealed."""
    program = fixture_program("frontier_reentry")
    report = run_pipeline(program, RunConfig(verify=True))
    assert report["verification"]["passed"], report["verification"]["violations"]
    # the fixture keeps its power: an observation of v between two entries to F
    trace, specs = speculative_explore(parse_program(report["protected_program"]),
                                       [2, 0], pad_inputs=True)
    entries = [t for (_, _, dst), t in zip(trace.edges, trace.edge_times) if dst == "F"]
    assert any(entries[0] <= spec.start_step < entries[-1]
               and any(var == "v" for o in spec.observations for _, var in o.taint)
               for spec in specs)


def test_frontier_property_vacuous_pass():
    f = parse_program("""
fn f(a) {
B1:
  c = eq a, 0
  br c, B2, B3
B2:
  store a, c
  jmp B3
B3:
  ret
}
""").functions[0]
    program = Program([f])
    analyses, _, _, _ = analyze_program(program, RunConfig(protect=False))
    fmap = property_map(program, analyses)
    verdict = check_frontier_property(program, fmap, input_grid(1, range(0, 4)),
                                      window=16, depth=1)
    assert verdict.passed  # no speculative transmitters at all


def test_phi_batch_is_parallel():
    # the classic swap: both phis must read the pre-block values
    p = parse_program("""
fn f(n) {
B1:
  a0 = const 1
  b0 = const 2
  jmp B2
B2:
  a = phi [a0, B1], [b, B2]
  b = phi [b0, B1], [a, B2]
  i = phi [0, B1], [j, B2]
  j = add i, 1
  c = lt j, n
  br c, B2, B3
B3:
  ret a
}
""")
    assert interpret(p, [1]).returned == 1   # one iteration: a=1
    assert interpret(p, [2]).returned == 2   # two iterations: swapped once
    assert interpret(p, [3]).returned == 1   # swapped twice


def test_store_and_nonspec_transmit_silent_under_speculation():
    f = parse_program("""
fn f(s) {
B1:
  c = eq s, 0
  br c, B2, B3
B2:
  store s, s
  transmit s
  jmp B3
B3:
  ret
}
""").functions[0]
    _, specs = speculative_explore(Program([f]), [3], window=32, depth=1,
                                   transmit_speculative=False)
    spec_obs = [o for sp in specs for o in sp.observations]
    assert spec_obs == []  # stores and non-speculative transmits stay quiet
    _, specs2 = speculative_explore(Program([f]), [3], window=32, depth=1,
                                    transmit_speculative=True)
    kinds = {o.kind for sp in specs2 for o in sp.observations}
    assert kinds == {"transmit"}


def test_interpret_across_calls():
    p = parse_program("""
fn main(s) {
B1:
  d = call double(s)
  transmit d
  ret d
}
fn double(a) {
B1:
  r = add a, a
  ret r
}
""")
    tr = interpret(p, [21])
    assert tr.returned == 42
    assert [(f, s, d) for f, s, d in tr.edges] == [
        ("main", ENTRY, "B1"), ("double", ENTRY, "B1"),
        ("double", "B1", EXIT), ("main", "B1", EXIT)]
    obs = [o for o in tr.observations if o.kind == "transmit"]
    assert obs[0].value == 42
    assert ("main", "s") in obs[0].taint and ("double", "r") in obs[0].taint


def _deepcopy_snapshot(self):
    """Reference snapshot: a deep copy of the whole frame stack, the IR that
    every frame holds included."""
    m = object.__new__(_Machine)
    m.functions = self.functions
    m.inputs = self.inputs
    m.cursor = self.cursor
    m.pad_inputs = self.pad_inputs
    m.transmit_speculative = self.transmit_speculative
    m.slots_of, m.steered = self.slots_of, self.steered
    m.frames = copy.deepcopy(self.frames)
    return m


# ---------------------------------------------------------------------------
# Reference explorer: the concrete stepper the shared one replaced, kept as an
# independent check of the control semantics (phi batches, calls and
# returns, jmp and br, step counting, window and barrier stops).
# ---------------------------------------------------------------------------

@dataclass
class _RefTrace:
    """The reference stepper's trace: the fields of oracle.Trace, with pc
    recorded at each block entry rather than derived from the edges."""
    edges: list = field(default_factory=list)
    edge_times: list = field(default_factory=list)
    pc: list = field(default_factory=list)
    observations: list = field(default_factory=list)
    returned: int | None = None
    steps: int = 0
    final_env: dict = field(default_factory=dict)


@dataclass
class _RefBranchPoint:
    step: int
    function: str
    block: str
    wrong: str
    machine: "_RefMachine"


@dataclass
class _RefFrame:
    function: Function
    block: str
    prev_block: str | None
    idx: int
    phis_done: bool
    env: dict[str, int]
    taint: dict[str, frozenset]
    pending_out: str | None


class _RefMachine:
    def __init__(self, program: Program, entry: str, inputs: list[int],
                 pad_inputs: bool = False):
        self.program = program
        self.blocks = {g.name: g.block_map() for g in program.functions}
        self.inputs = list(inputs)
        self.cursor = 0
        self.pad_inputs = pad_inputs
        f = program.function(entry)
        env: dict[str, int] = {}
        taint: dict[str, frozenset] = {}
        for p in f.params:
            env[p] = to_i32(self._take_param())
            taint[p] = frozenset({(f.name, p)})
        self.frames = [_RefFrame(f, f.entry_block, None, 0, False, env, taint, None)]
        self.done = False

    def _take_param(self) -> int:
        if self.cursor < len(self.inputs):
            v = self.inputs[self.cursor]
            self.cursor += 1
            return v
        if self.pad_inputs:
            return 0
        raise OracleError("input valuation does not cover all parameters")

    def next_input(self, speculative: bool) -> int:
        if self.cursor < len(self.inputs):
            v = self.inputs[self.cursor]
            self.cursor += 1
            return to_i32(v)
        if speculative or self.pad_inputs:
            return 0
        raise OracleError("input valuation exhausted")

    def snapshot(self) -> "_RefMachine":
        m = object.__new__(_RefMachine)
        m.program = self.program
        m.blocks = self.blocks
        m.inputs = self.inputs
        m.cursor = self.cursor
        m.pad_inputs = self.pad_inputs
        m.frames = [_RefFrame(fr.function, fr.block, fr.prev_block, fr.idx,
                              fr.phis_done, dict(fr.env), dict(fr.taint),
                              fr.pending_out) for fr in self.frames]
        m.done = self.done
        return m


def _ref_operand(frame: _RefFrame, op):
    if isinstance(op, int):
        return op, frozenset()
    if op not in frame.env:
        raise OracleError(f"read of undefined variable '{op}'")
    return frame.env[op], frame.taint.get(op, frozenset())


def _ref_step(m: _RefMachine, trace: _RefTrace, *, speculative: bool,
              transmit_speculative: bool, branch_sink: list | None = None) -> str | None:
    frame = m.frames[-1]
    f = frame.function
    block = m.blocks[f.name][frame.block]

    if not frame.phis_done:
        frame.phis_done = True
        phis = block.phis()
        if phis:
            if frame.prev_block is None:
                raise OracleError(f"phi in entry block '{block.label}'")
            new_vals = {}
            for phi in phis:
                try:
                    k = phi.phi_labels.index(frame.prev_block)
                except ValueError:
                    raise OracleError(
                        f"phi in '{block.label}' lacks an arm for predecessor "
                        f"'{frame.prev_block}'") from None
                val, tnt = _ref_operand(frame, phi.operands[k])
                new_vals[phi.output] = (val, tnt | {(f.name, phi.output)})
            for out, (val, tnt) in new_vals.items():
                frame.env[out] = val
                frame.taint[out] = tnt
            frame.idx = len(phis)
            trace.steps += len(phis)
            trace.pc.append((f.name, block.label))
            return None
        trace.pc.append((f.name, block.label))

    if frame.idx < len(block.instructions):
        ins = block.instructions[frame.idx]
        frame.idx += 1
        trace.steps += 1
        if ins.opcode == "phi":
            return None
        if ins.opcode == "specbarr":
            return "barrier" if speculative else None
        if ins.opcode == "input":
            frame.env[ins.output] = m.next_input(speculative)
            frame.taint[ins.output] = frozenset({(f.name, ins.output)})
            return None
        if ins.opcode == "load":
            addr, tnt = _ref_operand(frame, ins.operands[0])
            trace.observations.append(Observation(
                f.name, block.label, "load", ins.operands[0], addr, tnt,
                trace.steps, speculative))
            frame.env[ins.output] = load_value(addr)
            frame.taint[ins.output] = tnt | {(f.name, ins.output)}
            return None
        if ins.opcode == "store":
            addr, tnt = _ref_operand(frame, ins.operands[1])
            if not speculative:
                trace.observations.append(Observation(
                    f.name, block.label, "store", ins.operands[1], addr, tnt,
                    trace.steps, False))
            return None
        if ins.opcode == "transmit":
            val, tnt = _ref_operand(frame, ins.operands[0])
            if not speculative or transmit_speculative:
                trace.observations.append(Observation(
                    f.name, block.label, "transmit", ins.operands[0], val, tnt,
                    trace.steps, speculative))
            return None
        if ins.opcode == "call":
            callee = m.program.function(ins.callee)
            env, taint = {}, {}
            for p, a in zip(callee.params, ins.operands):
                val, tnt = _ref_operand(frame, a)
                env[p] = val
                taint[p] = tnt | {(callee.name, p)}
            frame.pending_out = ins.output
            m.frames.append(_RefFrame(callee, callee.entry_block, None, 0, False,
                                      env, taint, None))
            trace.edges.append((callee.name, ENTRY, callee.entry_block))
            trace.edge_times.append(trace.steps)
            return None
        args = []
        tnt_all = frozenset()
        for op in ins.operands:
            v, tnt = _ref_operand(frame, op)
            args.append(v)
            tnt_all |= tnt
        frame.env[ins.output] = eval_op(ins.opcode, args)
        frame.taint[ins.output] = tnt_all | {(f.name, ins.output)}
        return None

    t = block.terminator
    trace.steps += 1
    if t.opcode == "ret":
        val: int | None = None
        tnt: frozenset = frozenset()
        if t.operands:
            val, tnt = _ref_operand(frame, t.operands[0])
        trace.edges.append((f.name, block.label, EXIT))
        trace.edge_times.append(trace.steps)
        m.frames.pop()
        if not m.frames:
            m.done = True
            trace.returned = val
            trace.final_env = dict(frame.env)
            return None
        caller = m.frames[-1]
        if caller.pending_out is not None:
            caller.env[caller.pending_out] = val if val is not None else 0
            caller.taint[caller.pending_out] = tnt | {(caller.function.name,
                                                       caller.pending_out)}
            caller.pending_out = None
        return None
    if t.opcode == "jmp":
        nxt = t.operands[0]
        trace.edges.append((f.name, block.label, nxt))
        trace.edge_times.append(trace.steps)
        frame.prev_block, frame.block, frame.idx, frame.phis_done = (
            frame.block, nxt, 0, False)
        return None
    cond, tnt = _ref_operand(frame, t.operands[0])
    then_l, else_l = t.operands[1], t.operands[2]
    if not speculative:
        trace.observations.append(Observation(
            f.name, block.label, "br", t.operands[0], cond, tnt,
            trace.steps, False))
    taken = then_l if cond != 0 else else_l
    wrong = else_l if cond != 0 else then_l
    if branch_sink is not None and then_l != else_l:
        branch_sink.append(_RefBranchPoint(trace.steps, f.name, block.label, wrong,
                                           m.snapshot()))
    trace.edges.append((f.name, block.label, taken))
    trace.edge_times.append(trace.steps)
    frame.prev_block, frame.block, frame.idx, frame.phis_done = (
        frame.block, taken, 0, False)
    return None


def _ref_burst(machine: _RefMachine, wrong: str, window: int, depth_left: int):
    m = machine.snapshot()
    frame = m.frames[-1]
    subtrace = _RefTrace()
    frame.prev_block, frame.block, frame.idx, frame.phis_done = (
        frame.block, wrong, 0, False)
    variants = []
    nested: list[_RefBranchPoint] = []
    stopped = "window"
    while subtrace.steps < window:
        if m.done:
            stopped = "return"
            break
        res = _ref_step(m, subtrace, speculative=True, transmit_speculative=True,
                        branch_sink=nested if depth_left > 0 else None)
        if res == "barrier":
            stopped = "barrier"
            break
    variants.append(([], list(subtrace.observations), stopped))
    for bp in nested:
        inner = _ref_burst(bp.machine, bp.wrong, window - bp.step, depth_left - 1)
        prefix_obs = [o for o in subtrace.observations if o.time <= bp.step]
        for mis, obs, stop in inner:
            variants.append(([(bp.function, bp.block, bp.wrong)] + mis,
                             prefix_obs + obs, stop))
    return variants


def _ref_explore(program: Program, inputs: list[int], window: int, depth: int):
    """speculative_explore(..., pad_inputs=True) on the reference stepper."""
    m = _RefMachine(program, program.entry_function, inputs, pad_inputs=True)
    trace = _RefTrace()
    trace.edges.append((program.entry_function, ENTRY, m.frames[0].block))
    trace.edge_times.append(0)
    branch_points: list[_RefBranchPoint] = []
    while not m.done:
        _ref_step(m, trace, speculative=False, transmit_speculative=True,
                  branch_sink=branch_points)
    executions = []
    for bp in branch_points:
        for mis, obs, stopped in _ref_burst(bp.machine, bp.wrong, window, depth - 1):
            executions.append(SpecExecution(bp.step, [(bp.function, bp.block, bp.wrong)]
                                            + mis, obs, stopped))
    return trace, executions


# a speculative return into the caller, which then transmits what it got back
RETURN_INTO_CALLER = """
fn main(s, n) {
B1:
  d = call leaf(s, n)
  e = add d, s
  transmit e
  ret e
}
fn leaf(a, n) {
B1:
  c = lt a, n
  br c, B2, B3
B2:
  r = add a, 1
  ret r
B3:
  ret a
}
"""


def test_snapshot_matches_deepcopy_reference(monkeypatch):
    """A snapshot that copies only frame state explores exactly what the
    deep-copying one did, and the shared stepper explores exactly what the
    reference stepper does: same trace, same speculative executions."""
    texts = [random_acyclic_program(random.Random(seed)) for seed in range(300)]
    texts += [random_tight_program(random.Random(seed)) for seed in range(100)]
    texts += [path.read_text() for path in sorted(FIXTURES.glob("*.mir"))]
    texts += [call_chain(4), RETURN_INTO_CALLER]
    rng = random.Random(7)
    returns_into_caller = 0
    stops = set()
    for text in texts:
        program = parse_program(text)
        protected = parse_program(run_pipeline(program, RunConfig())["protected_program"])
        for prog in (program, protected):
            calls = {(f.name, ins.callee) for f in prog.functions
                     for _, ins in f.instructions() if ins.opcode == "call"}
            slots = input_slots(prog)
            for inputs in ([rng.randrange(4) for _ in range(slots)] for _ in range(2)):
                for depth in (1, 2):
                    trace, specs = speculative_explore(prog, inputs, window=16,
                                                       depth=depth, pad_inputs=True)
                    with monkeypatch.context() as mp:
                        mp.setattr(_Machine, "snapshot", _deepcopy_snapshot)
                        deep = speculative_explore(
                            prog, inputs, window=16, depth=depth, pad_inputs=True)
                    for ref, ref_specs in (deep, _ref_explore(prog, inputs, 16, depth)):
                        assert trace.edges == ref.edges
                        assert trace.edge_times == ref.edge_times
                        assert trace.pc == ref.pc
                        assert trace.observations == ref.observations
                        assert trace.returned == ref.returned
                        assert trace.steps == ref.steps
                        assert trace.final_env == ref.final_env
                        assert specs == ref_specs, (text, inputs, depth)
                    stops.update(spec.stopped_by for spec in specs)
                    returns_into_caller += sum(
                        1 for spec in specs for o in spec.observations
                        if (o.function, spec.mispredictions[0][0]) in calls)
    assert returns_into_caller > 0  # a speculative ret resumed a caller frame
    assert stops == {"window", "barrier", "return"}


@pytest.mark.parametrize("k,executions,inputs_checked", [
    (2, 1_808, 256),
    (3, 10_112, 1_024),
])
def test_verification_counters(k, executions, inputs_checked):
    """`verify` on segments(k), domain 0..3, window 16, depth 1, explores a
    fixed number of speculative executions; an oracle speed-up keeps it."""
    config = RunConfig(verify=True, verify_domain=range(0, 4), window=16, depth=1)
    verification = run_pipeline(parse_program(segments(k)), config)["verification"]
    assert verification["passed"]
    assert (verification["executions"], verification["inputs_checked"]) == (
        executions, inputs_checked)


def _check_every_input(program: Program, frontiers, inputs_sample, window: int = 16,
                       depth: int = 1, transmit_speculative: bool = True,
                       pad_inputs: bool = False) -> Verdict:
    """Reference frontier check: the one that ran every input of the sample,
    which one run per observational class replaced."""
    violations: list[Violation] = []
    n_exec = 0
    n_inputs = 0
    entering: dict[tuple[str, str], list[tuple[str, str]]] = {}  # (fn, block) -> keys
    for key, fr in frontiers.items():
        for block in fr:
            entering.setdefault((key[0], block), []).append(key)
    for inputs in inputs_sample:
        inputs = list(inputs)
        n_inputs += 1
        trace, specs = speculative_explore(
            program, inputs, window=window, depth=depth,
            transmit_speculative=transmit_speculative, pad_inputs=pad_inputs)
        n_exec += len(specs)

        crossed_at: dict[tuple[str, str], int] = {}
        for (fn, src, dst), t in zip(trace.edges, trace.edge_times):
            for key in entering.get((_normalize_fn(fn), dst), ()):
                if key not in crossed_at or t < crossed_at[key]:
                    crossed_at[key] = t

        for spec in specs:
            for obs in spec.observations:
                for (tfn, tvar) in sorted(obs.taint):
                    key = (_normalize_fn(tfn), tvar)
                    fr = frontiers.get(key)
                    if fr is None:
                        continue
                    when = crossed_at.get(key)
                    if when is None or when > spec.start_step:
                        violations.append(Violation(
                            key, inputs, spec.mispredictions, obs, sorted(fr)))
    return Verdict(not violations, violations, n_exec, n_inputs, n_inputs)


def test_class_sharing_check_matches_every_input_reference(monkeypatch):
    """Running one input per violation-free control-flow class, and every
    input of a class with a violation, gives the Verdict that running every
    input does: passed, every violation in order, executions and inputs
    checked, on unprotected and protected programs alike. Both sides of the
    rule are exercised: some input is skipped, and some class with a
    violation runs more than one member.

    The acyclic, tight and fixture grids are whole (at most 64 inputs). Call
    programs reach 9 slots, 262,144 inputs a grid, and step loops through
    calls, so each of their grids is a seeded sample of at most 16 inputs,
    kept in grid order."""
    texts = [random_acyclic_program(random.Random(seed)) for seed in range(300)]
    texts += [random_tight_program(random.Random(seed)) for seed in range(100)]
    texts += [path.read_text() for path in sorted(FIXTURES.glob("*.mir"))]
    whole = len(texts)
    texts += [random_call_program(random.Random(seed)) for seed in range(60)]
    sampler = random.Random(11)
    ran: list[tuple] = []  # (inputs, class) of each run of the check under test
    run = _Machine.run

    def recorded(self):
        trace = run(self)
        live = self.live_slots()
        ran.append((tuple(self.inputs), (live, tuple(self.inputs[i] for i in live))))
        return trace

    monkeypatch.setattr(_Machine, "run", recorded)
    checked = run_total = skipped = violated_classes_rerun = 0
    for n, text in enumerate(texts):
        program = parse_program(text)
        analyses, _, _, _ = analyze_program(program, RunConfig())
        fmap = property_map(program, analyses)
        protected = parse_program(run_pipeline(program, RunConfig())["protected_program"])
        slots = input_slots(protected)
        for prog in (program, protected):
            for domain in (range(0, 4), range(-2, 2)):
                grid = input_grid(slots, domain)
                if n >= whole and len(grid) > 16:
                    grid = [grid[i] for i in sorted(sampler.sample(range(len(grid)), 16))]
                for depth in (1, 2):
                    ref = _check_every_input(prog, fmap, grid, window=16, depth=depth,
                                             pad_inputs=True)
                    ran.clear()
                    got = check_frontier_property(prog, fmap, grid, window=16,
                                                  depth=depth, pad_inputs=True)
                    assert (got.passed, got.executions, got.inputs_checked) == (
                        ref.passed, ref.executions, ref.inputs_checked), (text, domain, depth)
                    assert got.violations == ref.violations, (text, domain, depth)
                    assert got.inputs_run == len(ran) <= got.inputs_checked
                    checked += got.inputs_checked
                    run_total += got.inputs_run
                    runs = {inputs for inputs, _ in ran}
                    skipped += sum(1 for inputs in grid if tuple(inputs) not in runs)
                    violating = {tuple(v.inputs) for v in ref.violations}
                    members = Counter(cls for inputs, cls in ran if inputs in violating)
                    violated_classes_rerun += sum(1 for k in members.values() if k > 1)
    assert run_total < checked
    assert skipped > 0  # members of violation-free classes that did not run
    assert violated_classes_rerun > 0


def test_class_sharing_runs_pinned():
    """diamond_opaque's three input slots at domain 0..3. Its one branch
    tests the literal 1, so no slot steers and all 64 inputs form one class.
    Unprotected, the burst into B2 transmits x1 before its frontier: the
    class has a violation and all 64 inputs run. Protected, the burst stops
    at B2's barrier, the class is violation-free and one input runs."""
    program = fixture_program("diamond_opaque")
    analyses, _, _, _ = analyze_program(program, RunConfig())
    protected = parse_program(run_pipeline(program, RunConfig())["protected_program"])
    fmap = property_map(program, analyses)
    grid = input_grid(input_slots(protected), range(0, 4))
    runs = [(v.passed, v.inputs_checked, v.inputs_run)
            for v in (check_frontier_property(prog, fmap, grid, pad_inputs=True)
                      for prog in (program, protected))]
    assert runs == [(False, 64, 64), (True, 64, 1)]


def test_class_sharing_transmitted_slot_varies_in_a_class():
    """Slot 0 steers the branch; slot 1 only reaches a transmit. Protected,
    the burst into B2 stops at its barrier, so each value of k is one
    violation-free class whose four members transmit four different values
    of s, and one member of each runs."""
    program = parse_program("""fn main(k, s) {
B1:
  c = lt k, 2
  br c, B2, B3
B2:
  transmit s
  ret
B3:
  ret
}
""")
    analyses, _, _, _ = analyze_program(program, RunConfig())
    protected = parse_program(run_pipeline(program, RunConfig())["protected_program"])
    fmap = property_map(program, analyses)
    grid = input_grid(input_slots(protected), range(0, 4))
    got = check_frontier_property(protected, fmap, grid, pad_inputs=True)
    ref = _check_every_input(protected, fmap, grid, pad_inputs=True)
    assert (got.passed, got.executions, got.violations) == (True, ref.executions, [])
    assert (got.inputs_checked, got.inputs_run) == (16, 4)
    sent = {tuple(o.value for o in interpret(protected, [0, s]).observations
                  if o.kind == "transmit") for s in range(4)}
    assert sent == {(0,), (1,), (2,), (3,)}
