"""Ground-truth engines: a concrete interpreter, an exact-knowledge enumerator
and a speculative explorer that checks the frontier protection property.

Memory is not modeled: a load returns a deterministic pseudo-value derived
from its address, so traces are reproducible without a heap. Taint flows from
every definition through operands, loads (address into result) and phi
selections, and is the checkable stand-in for "a function of x": a speculative
observation whose taint contains x counts as transmitting a function of x.

A machine snapshot, taken at every branch point so that a misprediction can
roll back, shares what no execution mutates: the program's IR (each frame's
`Function`), each function's label-to-block map and the input list. It
copies what a speculative burst can change: each frame's block position and
its `env` and `taint` dicts (the taint values are frozensets, so a shallow
copy of the dict suffices).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .cfg import ENTRY, EXIT, build_cfg, dominators, natural_loops
from .ir import Function, Program, callees_first, to_i32
from .knowledge import KnowledgeMap, close, equations

DEFAULT_FUEL = 200_000
ENUM_LIMIT = 10 ** 6


class OracleError(Exception):
    pass


def eval_op(opcode: str, args: list[int]) -> int:
    """Concrete semantics of the deterministic opcodes on canonical signed
    32-bit values."""
    if opcode == "const":
        return to_i32(args[0])
    if opcode == "add":
        return to_i32(args[0] + args[1])
    if opcode == "sub":
        return to_i32(args[0] - args[1])
    if opcode == "mul":
        return to_i32(args[0] * args[1])
    if opcode == "neg":
        return to_i32(-args[0])
    if opcode == "xor":
        return to_i32(args[0] ^ args[1])
    if opcode == "and":
        return to_i32(args[0] & args[1])
    if opcode == "or":
        return to_i32(args[0] | args[1])
    if opcode == "not":
        return to_i32(~args[0])
    if opcode == "shl":
        return to_i32(args[0] << (args[1] & 31))
    if opcode == "eq":
        return 1 if args[0] == args[1] else 0
    if opcode == "lt":
        return 1 if args[0] < args[1] else 0
    if opcode == "gep":
        return to_i32(args[0] + args[1] * args[2])
    raise OracleError(f"not a deterministic opcode: {opcode}")


def load_value(addr: int) -> int:
    """Deterministic pseudo-value standing in for unmodeled memory."""
    return to_i32(((addr & 0xFFFFFFFF) * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF)


@dataclass(frozen=True)
class Observation:
    function: str
    block: str
    kind: str  # load | store | transmit | br
    operand: "str | int"
    value: int
    taint: frozenset
    time: int
    speculative: bool


@dataclass
class Trace:
    edges: list[tuple[str, str, str]] = field(default_factory=list)
    edge_times: list[int] = field(default_factory=list)
    pc: list[tuple[str, str]] = field(default_factory=list)
    observations: list[Observation] = field(default_factory=list)
    returned: int | None = None
    steps: int = 0
    final_env: dict = field(default_factory=dict)


@dataclass
class SpecExecution:
    start_step: int
    mispredictions: list[tuple[str, str, str]]  # (function, block, wrong target)
    observations: list[Observation]
    stopped_by: str  # window | barrier | return


@dataclass
class _Frame:
    function: Function
    block: str
    prev_block: str | None
    idx: int  # next instruction index; len(instructions) means the terminator
    phis_done: bool
    env: dict[str, int]
    taint: dict[str, frozenset]
    pending_out: str | None  # call output awaiting the callee's return


class _Machine:
    """Architectural state: frame stack plus the input cursor."""

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
        self.frames = [_Frame(f, f.entry_block, None, 0, False, env, taint, None)]
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

    def snapshot(self) -> "_Machine":
        m = object.__new__(_Machine)
        m.program = self.program
        m.blocks = self.blocks
        m.inputs = self.inputs
        m.cursor = self.cursor
        m.pad_inputs = self.pad_inputs
        m.frames = [_Frame(fr.function, fr.block, fr.prev_block, fr.idx,
                           fr.phis_done, dict(fr.env), dict(fr.taint),
                           fr.pending_out) for fr in self.frames]
        m.done = self.done
        return m


def _operand_value(frame: _Frame, op):
    if isinstance(op, int):
        return op, frozenset()
    if op not in frame.env:
        raise OracleError(f"read of undefined variable '{op}'")
    return frame.env[op], frame.taint.get(op, frozenset())


@dataclass
class _BranchPoint:
    step: int
    function: str
    block: str
    taken: str
    wrong: str
    machine: "_Machine"


def _step(m: _Machine, trace: Trace, *, speculative: bool,
          transmit_speculative: bool, branch_sink: list | None = None) -> str | None:
    """Execute one dynamic instruction. Returns "barrier" when a speculative
    execution reaches a speculation barrier, None otherwise."""
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
                val, tnt = _operand_value(frame, phi.operands[k])
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
            return None  # already applied in the block-entry batch
        if ins.opcode == "specbarr":
            return "barrier" if speculative else None
        if ins.opcode == "input":
            frame.env[ins.output] = m.next_input(speculative)
            frame.taint[ins.output] = frozenset({(f.name, ins.output)})
            return None
        if ins.opcode == "load":
            addr, tnt = _operand_value(frame, ins.operands[0])
            trace.observations.append(Observation(
                f.name, block.label, "load", ins.operands[0], addr, tnt,
                trace.steps, speculative))
            frame.env[ins.output] = load_value(addr)
            frame.taint[ins.output] = tnt | {(f.name, ins.output)}
            return None
        if ins.opcode == "store":
            addr, tnt = _operand_value(frame, ins.operands[1])
            if not speculative:
                trace.observations.append(Observation(
                    f.name, block.label, "store", ins.operands[1], addr, tnt,
                    trace.steps, False))
            return None
        if ins.opcode == "transmit":
            val, tnt = _operand_value(frame, ins.operands[0])
            if not speculative or transmit_speculative:
                trace.observations.append(Observation(
                    f.name, block.label, "transmit", ins.operands[0], val, tnt,
                    trace.steps, speculative))
            return None
        if ins.opcode == "call":
            callee = m.program.function(ins.callee)
            env, taint = {}, {}
            for p, a in zip(callee.params, ins.operands):
                val, tnt = _operand_value(frame, a)
                env[p] = val
                taint[p] = tnt | {(callee.name, p)}
            frame.pending_out = ins.output
            m.frames.append(_Frame(callee, callee.entry_block, None, 0, False,
                                   env, taint, None))
            trace.edges.append((callee.name, ENTRY, callee.entry_block))
            trace.edge_times.append(trace.steps)
            return None
        args = []
        tnt_all = frozenset()
        for op in ins.operands:
            v, tnt = _operand_value(frame, op)
            args.append(v)
            tnt_all |= tnt
        frame.env[ins.output] = eval_op(ins.opcode, args)
        frame.taint[ins.output] = tnt_all | {(f.name, ins.output)}
        return None

    # terminator
    t = block.terminator
    trace.steps += 1
    if t.opcode == "ret":
        val: int | None = None
        tnt: frozenset = frozenset()
        if t.operands:
            val, tnt = _operand_value(frame, t.operands[0])
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
    if t.opcode == "br":
        cond, tnt = _operand_value(frame, t.operands[0])
        then_l, else_l = t.operands[1], t.operands[2]
        if not speculative:
            trace.observations.append(Observation(
                f.name, block.label, "br", t.operands[0], cond, tnt,
                trace.steps, False))
        taken = then_l if cond != 0 else else_l
        wrong = else_l if cond != 0 else then_l
        if branch_sink is not None and then_l != else_l:
            branch_sink.append(_BranchPoint(trace.steps, f.name, block.label,
                                            taken, wrong, m.snapshot()))
        trace.edges.append((f.name, block.label, taken))
        trace.edge_times.append(trace.steps)
        frame.prev_block, frame.block, frame.idx, frame.phis_done = (
            frame.block, taken, 0, False)
        return None
    raise OracleError(f"bad terminator '{t.opcode}'")


def _as_program(program_or_fn) -> Program:
    if isinstance(program_or_fn, Program):
        return program_or_fn
    return Program([program_or_fn])


def interpret(program_or_fn, inputs: list[int], entry: str | None = None,
              fuel: int = DEFAULT_FUEL, transmit_speculative: bool = True,
              pad_inputs: bool = False) -> Trace:
    """Non-speculative execution: deterministic edge trace and observations."""
    return _run(program_or_fn, inputs, entry, fuel, transmit_speculative, pad_inputs, None)


def _run(program_or_fn, inputs: list[int], entry: str | None, fuel: int,
         transmit_speculative: bool, pad_inputs: bool, branch_sink: list | None) -> Trace:
    """The non-speculative run, recording each branch point in branch_sink."""
    program = _as_program(program_or_fn)
    entry = entry or program.entry_function
    m = _Machine(program, entry, inputs, pad_inputs)
    trace = Trace()
    trace.edges.append((entry, ENTRY, m.frames[0].block))
    trace.edge_times.append(0)
    while not m.done:
        if trace.steps > fuel:
            raise OracleError("fuel exhausted (possible non-termination)")
        _step(m, trace, speculative=False, transmit_speculative=transmit_speculative,
              branch_sink=branch_sink)
    return trace


# ---------------------------------------------------------------------------
# Exact knowledge (Definition-level oracle)
# ---------------------------------------------------------------------------

def exact_knowledge(f: Function, domain: range, fuel: int = DEFAULT_FUEL,
                    transmit_speculative: bool = True):
    """Enumerate all executions over the domain and intersect, per edge, the
    closure of what each trace reveals.

    A variable is known on an edge when every trace through that edge reveals
    it (now or later) or lets it be inferred from revealed values via the
    equation closure. Requires an acyclic, call-free function. The synthetic
    start edge is pinned to program-text knowledge (constants) only; edges no
    trace crosses keep the full variable set (all knowledge there is vacuous).
    """
    cfg = build_cfg(f)
    dom = dominators(cfg)
    if natural_loops(cfg, dom):
        raise OracleError("exact knowledge requires an acyclic function")
    for _, ins in f.instructions():
        if ins.opcode == "call":
            raise OracleError("exact knowledge requires a call-free function")

    slots = len(f.params) + sum(1 for _, i in f.instructions() if i.opcode == "input")
    count = len(domain) ** slots
    if count > ENUM_LIMIT:
        raise OracleError(f"enumeration budget exceeded ({count} executions)")

    all_vars = frozenset(f.defined_vars())
    eqs = equations(f)
    phis = [(b.label, ins) for b, ins in f.instructions() if ins.opcode == "phi"]
    per_edge: dict[tuple[str, str], set[frozenset]] = {}
    closures: dict[tuple, frozenset] = {}

    for vals in itertools.product(domain, repeat=slots) if slots else [()]:
        tr = interpret(f, list(vals), fuel=fuel,
                       transmit_speculative=transmit_speculative)
        revealed = frozenset(o.operand for o in tr.observations
                             if isinstance(o.operand, str))
        pred_of = {}
        for fn, src, dst in tr.edges:
            if src != ENTRY and dst != EXIT:
                pred_of[dst] = src
        key = (revealed, tuple(sorted(pred_of.items())))
        if key not in closures:
            closures[key] = _closure(eqs, phis, set(revealed), pred_of)
        cl = closures[key]
        for fn, src, dst in tr.edges:
            per_edge.setdefault((src, dst), set()).add(cl)

    known: dict[int, set[str]] = {}
    base = _closure(eqs, phis, set(), {})
    for e in cfg.edges:
        if e.src == ENTRY:
            known[e.index] = set(base)
        elif e.key in per_edge:
            known[e.index] = set(frozenset.intersection(*per_edge[e.key]))
        else:
            known[e.index] = set(all_vars)
    return KnowledgeMap(cfg, known)


def _closure(eqs, phis, known: set[str], pred_of: dict[str, str]) -> frozenset:
    """Close a revealed-variable set under the equations (R2/R3, phi forward
    included: vacuous when the phi never ran) and the phis' selected arms."""
    selected = []
    for label, phi in phis:
        pred = pred_of.get(label)
        if pred is not None and pred in phi.phi_labels:
            selected.append((phi.output, phi.operands[phi.phi_labels.index(pred)]))
    changed = True
    while changed:
        close(known, eqs)
        changed = False
        for out, arm in selected:
            if not isinstance(arm, str):
                if out not in known:
                    known.add(out)  # selected a literal: output is public
                    changed = True
            elif (out in known) != (arm in known):
                known.update((out, arm))
                changed = True
    return frozenset(known)


# ---------------------------------------------------------------------------
# Speculative exploration
# ---------------------------------------------------------------------------

def speculative_explore(program_or_fn, inputs: list[int], window: int = 16,
                        depth: int = 1, entry: str | None = None,
                        fuel: int = DEFAULT_FUEL, transmit_speculative: bool = True,
                        pad_inputs: bool = False) -> tuple[Trace, list[SpecExecution]]:
    """Enumerate all executions where up to `depth` branches take the wrong
    CFG edge for up to `window` speculative instructions before rollback.

    Speculative loads and speculative transmits produce observations; branches
    and stores only change microarchitectural state once non-speculative. A
    speculation barrier halts speculative progress."""
    if window < 1 or depth < 1:
        raise OracleError("window and depth must be at least 1")
    branch_points: list[_BranchPoint] = []
    trace = _run(program_or_fn, inputs, entry, fuel, transmit_speculative, pad_inputs,
                 branch_points)

    executions: list[SpecExecution] = []
    for bp in branch_points:
        variants = _burst(bp.machine, bp.wrong, window, depth - 1,
                          transmit_speculative)
        for mis, obs, stopped in variants:
            executions.append(SpecExecution(
                start_step=bp.step,
                mispredictions=[(bp.function, bp.block, bp.wrong)] + mis,
                observations=obs,
                stopped_by=stopped))
    return trace, executions


def _burst(machine: _Machine, wrong: str, window: int,
           depth_left: int, transmit_speculative: bool):
    """Run one speculative burst from a misprediction; returns variants of
    (extra mispredictions, observations, stop reason)."""
    m = machine.snapshot()
    frame = m.frames[-1]
    subtrace = Trace()
    subtrace.edges.append((frame.function.name, frame.block, wrong))
    frame.prev_block, frame.block, frame.idx, frame.phis_done = (
        frame.block, wrong, 0, False)

    variants = []
    nested: list[_BranchPoint] = []
    stopped = "window"
    while subtrace.steps < window:
        if m.done:
            stopped = "return"
            break
        sink = nested if depth_left > 0 else None
        res = _step(m, subtrace, speculative=True,
                    transmit_speculative=transmit_speculative, branch_sink=sink)
        if res == "barrier":
            stopped = "barrier"
            break
    variants.append(([], list(subtrace.observations), stopped))

    for bp in nested:
        inner = _burst(bp.machine, bp.wrong, window - bp.step, depth_left - 1,
                       transmit_speculative)
        prefix_obs = [o for o in subtrace.observations if o.time <= bp.step]
        for mis, obs, stop in inner:
            variants.append(([(bp.function, bp.block, bp.wrong)] + mis,
                             prefix_obs + obs, stop))
    return variants


# ---------------------------------------------------------------------------
# Frontier protection property
# ---------------------------------------------------------------------------

@dataclass
class Violation:
    variable: tuple[str, str]
    inputs: list[int]
    misprediction: list[tuple[str, str, str]]
    observation: Observation
    frontier: list[str]


@dataclass
class Verdict:
    passed: bool
    violations: list[Violation]
    executions: int
    inputs_checked: int


def _normalize_fn(name: str) -> str:
    return name[:-2] if name.endswith(".p") else name


def check_frontier_property(program_or_fn, frontiers: dict[tuple[str, str], set[str]],
                            inputs_sample, window: int = 16, depth: int = 1,
                            entry: str | None = None,
                            transmit_speculative: bool = True,
                            pad_inputs: bool = False) -> Verdict:
    """PASS iff no explored speculative observation tainted by a variable
    happens strictly before the non-speculative prefix enters that variable's
    frontier. Protected clones are matched to their originals by name."""
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
            program_or_fn, inputs, window=window, depth=depth, entry=entry,
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
    return Verdict(not violations, violations, n_exec, n_inputs)


def input_grid(slots: int, domain: range):
    """All valuations of `slots` input slots over the domain."""
    if slots == 0:
        return [[]]
    return [list(v) for v in itertools.product(domain, repeat=slots)]


def input_slots(program_or_fn, entry: str | None = None) -> int:
    """Parameters of the entry function plus its static input instructions.

    Callees' input instructions count once per call site; loops can make the
    true dynamic count larger, in which case runs should pad."""
    program = _as_program(program_or_fn)
    entry = entry or program.entry_function
    order, cyclic = callees_first(program, [entry])
    if cyclic is not None:
        raise OracleError("call graph has a cycle")
    bodies = {f.name: f for f in program.functions}
    slots: dict[str, int] = {}
    for name in order:  # callees first
        slots[name] = sum(1 if i.opcode == "input" else slots[i.callee]
                          for _, i in bodies[name].instructions()
                          if i.opcode in ("input", "call"))
    return len(bodies[entry].params) + slots[entry]
