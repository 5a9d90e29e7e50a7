"""Ground-truth engines: a concrete interpreter, an exact-knowledge enumerator
and a speculative explorer that checks the frontier protection property.

One stepper, `execute`, runs the mini-IR for the verifier and for
refinement's symbolic executor alike: it owns block entry with the parallel
phi batch, calls and returns, `jmp` and `br` over a stack of `Frame`s, and a
value domain supplies operand reads, the other instructions and the branch
decision. The concrete domain here, `_Machine`, binds each variable to a
(value, taint) pair; refine.py's `_SymState` binds terms.

Memory is not modeled: a load returns a deterministic pseudo-value derived
from its address, so traces are reproducible without a heap. Taint flows from
every definition through operands, loads (address into result) and phi
selections, and is the checkable stand-in for "a function of x": a speculative
observation whose taint contains x counts as transmitting a function of x.

A machine snapshot, taken at every branch point so that a misprediction can
roll back, shares what no execution mutates: the program's IR (each frame's
`Function` and label-to-block map) and the input list. It copies what a
speculative burst can change: each frame's position and its one `env` dict of
(value, taint) pairs (immutable, so a shallow copy suffices). Each snapshot
is run by exactly one burst, in place.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .cfg import ENTRY, EXIT, VarIndex, build_cfg, natural_loops
from .ir import OPCODES, Function, Program, callees_first, to_i32
from .knowledge import KnowledgeMap, close, equations
from .protect import PROTECTED_SUFFIX

DEFAULT_FUEL = 200_000
ENUM_LIMIT = 10 ** 6


class OracleError(Exception):
    pass


_EVAL = {name: op.eval for name, op in OPCODES.items() if op.eval is not None}


def eval_op(opcode: str, args: list[int]) -> int:
    """Concrete semantics of a deterministic opcode (its `eval` in
    ir.OPCODES) on canonical signed 32-bit values."""
    try:
        f = _EVAL[opcode]
    except KeyError:
        raise OracleError(f"not a deterministic opcode: {opcode}") from None
    return f(args)


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


@dataclass(slots=True, eq=False)
class Frame:
    """One activation: the function, its label -> Block map, the position
    (block, predecessor block, next instruction, whether the block's phis
    ran), the env binding variables to the domain's values and the call
    output awaiting the callee's return."""

    function: Function
    blocks: dict
    block: str
    prev_block: str | None
    idx: int  # next instruction index; len(instructions) means the terminator
    phis_done: bool
    env: dict
    pending_out: str | None

    def copy(self) -> "Frame":
        return Frame(self.function, self.blocks, self.block, self.prev_block,
                     self.idx, self.phis_done, dict(self.env), self.pending_out)

    def goto(self, label: str) -> None:
        self.prev_block, self.block, self.idx, self.phis_done = (
            self.block, label, 0, False)


def execute(st, limit: int):
    """Step the frames of domain state st until the entry frame returns
    ("return"), a hook stops the run (its stop value) or a step would begin
    with `limit` steps taken ("window"); st.steps is then the steps taken.

    The stepper owns the IR's control: block entry with its parallel phi
    batch (one step per phi), calls and returns, jmp and br. The domain
    supplies operand(frame, op) -> value, name(function, var, value) -> the
    value bound to var, and the hooks enter(frame, block, steps) at block
    entry, instruction(frame, block, ins, steps) for every instruction but
    phi and call, leave(frame, block, value, steps) at a ret (value None for
    a bare ret) and branch(frame, block, cond, then, else, steps), which
    returns the label to take. enter and instruction return None to go on;
    any other value, or a branch result that is not a label, stops the run.
    Errors are raised as st.error."""
    frames = st.frames
    functions = st.functions
    read, name = st.operand, st.name
    enter, instruction, branch = st.enter, st.instruction, st.branch
    steps = 0
    while steps < limit:
        frame = frames[-1]
        block = frame.blocks[frame.block]
        if not frame.phis_done:
            frame.phis_done = True
            stop = enter(frame, block, steps)
            if stop is not None:
                break
            phis = block.phis()
            if phis:
                if frame.prev_block is None:
                    raise st.error(f"phi in entry block '{block.label}'")
                fname = frame.function.name
                bound = {}
                for phi in phis:
                    try:
                        k = phi.phi_labels.index(frame.prev_block)
                    except ValueError:
                        raise st.error(
                            f"phi in '{block.label}' lacks an arm for predecessor "
                            f"'{frame.prev_block}'") from None
                    bound[phi.output] = name(fname, phi.output, read(frame, phi.operands[k]))
                frame.env.update(bound)
                frame.idx = len(phis)
                steps += len(phis)
                continue

        if frame.idx < len(block.instructions):
            ins = block.instructions[frame.idx]
            frame.idx += 1
            steps += 1
            if ins.opcode == "call":
                try:
                    callee, blocks = functions[ins.callee]
                except KeyError:
                    raise st.error(f"execution needs the body of '{ins.callee}'") from None
                env = {p: name(callee.name, p, read(frame, a))
                       for p, a in zip(callee.params, ins.operands)}
                frame.pending_out = ins.output
                frames.append(Frame(callee, blocks, callee.entry_block, None, 0, False,
                                    env, None))
            elif ins.opcode != "phi":  # a phi already ran in the entry batch
                stop = instruction(frame, block, ins, steps)
                if stop is not None:
                    break
            continue

        t = block.terminator
        steps += 1
        if t.opcode == "br":
            taken = branch(frame, block, read(frame, t.operands[0]), t.operands[1],
                           t.operands[2], steps)
            if taken.__class__ is not str:
                stop = taken
                break
            frame.goto(taken)
        elif t.opcode == "jmp":
            frame.goto(t.operands[0])
        elif t.opcode == "ret":
            val = read(frame, t.operands[0]) if t.operands else None
            st.leave(frame, block, val, steps)
            if len(frames) == 1:
                stop = "return"
                break
            frames.pop()
            caller = frames[-1]
            if caller.pending_out is not None:
                caller.env[caller.pending_out] = name(
                    caller.function.name, caller.pending_out,
                    read(caller, 0) if val is None else val)
                caller.pending_out = None
        else:
            raise st.error(f"bad terminator '{t.opcode}'")
    else:
        stop = "window"
    st.steps = steps
    return stop


_UNTAINTED = frozenset()


class _Machine:
    """The concrete domain of `execute`: an env binds each variable to its
    (value, taint) pair. The machine holds the input cursor and records into
    `trace` (edges, pc and observations) and, when `branch_sink` is a list,
    a `_BranchPoint` with a snapshot at every two-way branch."""

    error = OracleError

    def __init__(self, program: Program, entry: str, inputs: list[int],
                 pad_inputs: bool = False, transmit_speculative: bool = True,
                 branch_sink: list | None = None):
        self.functions = {g.name: (g, g.block_map()) for g in program.functions}
        self.inputs = list(inputs)
        self.cursor = 0
        self.pad_inputs = pad_inputs
        self.transmit_speculative = transmit_speculative
        self.speculative = False
        self.trace = Trace()
        self.branch_sink = branch_sink
        f, blocks = self.functions[entry]
        missing = "input valuation does not cover all parameters"
        env = {p: (self.next_input(missing), frozenset({(f.name, p)})) for p in f.params}
        self.frames = [Frame(f, blocks, f.entry_block, None, 0, False, env, None)]

    def next_input(self, missing: str = "input valuation exhausted") -> int:
        if self.cursor < len(self.inputs):
            self.cursor += 1
            return to_i32(self.inputs[self.cursor - 1])
        if self.speculative or self.pad_inputs:
            return 0
        raise OracleError(missing)

    def snapshot(self) -> "_Machine":
        """The architectural state, without trace, speculation flag or branch
        sink: the burst that runs the snapshot sets those."""
        m = object.__new__(_Machine)
        m.functions = self.functions
        m.inputs = self.inputs
        m.cursor = self.cursor
        m.pad_inputs = self.pad_inputs
        m.transmit_speculative = self.transmit_speculative
        m.frames = [fr.copy() for fr in self.frames]
        return m

    def operand(self, frame: Frame, op):
        if isinstance(op, int):
            return op, _UNTAINTED
        try:
            return frame.env[op]
        except KeyError:
            raise OracleError(f"read of undefined variable '{op}'") from None

    def name(self, fname: str, var: str, value):
        return value[0], value[1] | {(fname, var)}

    def enter(self, frame: Frame, block, steps: int):
        trace = self.trace
        trace.edges.append((frame.function.name, frame.prev_block or ENTRY, block.label))
        trace.edge_times.append(steps)
        trace.pc.append((frame.function.name, block.label))

    def leave(self, frame: Frame, block, val, steps: int):
        self.trace.edges.append((frame.function.name, block.label, EXIT))
        self.trace.edge_times.append(steps)
        if len(self.frames) == 1:
            self.trace.returned = None if val is None else val[0]
            self.trace.final_env = {k: v for k, (v, _) in frame.env.items()}

    def instruction(self, frame: Frame, block, ins, steps: int):
        opcode, out, env = ins.opcode, ins.output, frame.env
        fname = frame.function.name
        if opcode == "specbarr":
            return "barrier" if self.speculative else None
        if opcode == "input":
            env[out] = self.next_input(), frozenset({(fname, out)})
        elif opcode in ("load", "store", "transmit"):  # observe the address or value
            op = ins.operands[1 if opcode == "store" else 0]
            val, tnt = self.operand(frame, op)
            spec = self.speculative  # a store is observed once it retires
            if not spec or opcode == "load" or (opcode == "transmit"
                                                and self.transmit_speculative):
                self.trace.observations.append(Observation(
                    fname, block.label, opcode, op, val, tnt, steps, spec))
            if opcode == "load":
                env[out] = load_value(val), tnt | {(fname, out)}
        else:
            args = []
            tnt_all = _UNTAINTED
            for op in ins.operands:
                v, tnt = self.operand(frame, op)
                args.append(v)
                tnt_all |= tnt
            env[out] = eval_op(opcode, args), tnt_all | {(fname, out)}
        return None

    def branch(self, frame: Frame, block, cond, then_l: str, else_l: str, steps: int):
        val, tnt = cond
        fname = frame.function.name
        if not self.speculative:
            self.trace.observations.append(Observation(
                fname, block.label, "br", block.terminator.operands[0], val, tnt,
                steps, False))
        taken, wrong = (then_l, else_l) if val != 0 else (else_l, then_l)
        if self.branch_sink is not None and then_l != else_l:
            self.branch_sink.append(_BranchPoint(steps, fname, block.label, taken,
                                                 wrong, self.snapshot()))
        return taken


@dataclass
class _BranchPoint:
    step: int
    function: str
    block: str
    taken: str
    wrong: str
    machine: _Machine


def _as_program(program_or_fn) -> Program:
    if isinstance(program_or_fn, Program):
        return program_or_fn
    return Program([program_or_fn])


def interpret(program_or_fn, inputs: list[int], entry: str | None = None,
              fuel: int = DEFAULT_FUEL, pad_inputs: bool = False) -> Trace:
    """Non-speculative execution: deterministic edge trace and observations
    (every transmit is observed, speculative or not)."""
    return _run(program_or_fn, inputs, entry, fuel, True, pad_inputs, None)


def _run(program_or_fn, inputs: list[int], entry: str | None, fuel: int,
         transmit_speculative: bool, pad_inputs: bool, branch_sink: list | None) -> Trace:
    """The non-speculative run, recording each branch point in branch_sink."""
    program = _as_program(program_or_fn)
    m = _Machine(program, entry or program.entry_function, inputs, pad_inputs,
                 transmit_speculative, branch_sink)
    if execute(m, fuel + 1) != "return":
        raise OracleError("fuel exhausted (possible non-termination)")
    m.trace.steps = m.steps
    return m.trace


# ---------------------------------------------------------------------------
# Exact knowledge (Definition-level oracle)
# ---------------------------------------------------------------------------

def exact_knowledge(f: Function, domain: range, fuel: int = DEFAULT_FUEL) -> KnowledgeMap:
    """Enumerate all executions over the domain and intersect, per edge, the
    closure of what each trace reveals.

    A variable is known on an edge when every trace through that edge reveals
    it (now or later) or lets it be inferred from revealed values via the
    equation closure. Requires an acyclic, call-free function. The synthetic
    start edge is pinned to program-text knowledge (constants) only; edges no
    trace crosses keep the full variable set (all knowledge there is vacuous).
    """
    cfg = build_cfg(f)
    if natural_loops(cfg):
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
        tr = interpret(f, list(vals), fuel=fuel)
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

    ix = VarIndex(sorted(all_vars), (1 << len(all_vars)) - 1)  # every name is f's own
    bits = []
    for e in cfg.edges:
        if e.src == ENTRY:
            bits.append(ix.mask(_closure(eqs, phis, set(), {})))
        elif e.key in per_edge:
            bits.append(ix.mask(frozenset.intersection(*per_edge[e.key])))
        else:
            bits.append(ix.original)
    return KnowledgeMap(cfg, ix, bits)


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
        for mis, obs, stopped in _burst(bp, window, depth - 1):
            executions.append(SpecExecution(
                start_step=bp.step,
                mispredictions=[(bp.function, bp.block, bp.wrong)] + mis,
                observations=obs,
                stopped_by=stopped))
    return trace, executions


def _burst(bp: _BranchPoint, window: int, depth_left: int):
    """Run one speculative burst from a misprediction, on the branch point's
    own snapshot (exactly one burst runs each); returns variants of (extra
    mispredictions, observations, stop reason)."""
    m = bp.machine
    m.trace, m.speculative = Trace(), True
    m.branch_sink = nested = [] if depth_left > 0 else None
    m.frames[-1].goto(bp.wrong)
    stopped = execute(m, window)
    if stopped == "return" and m.steps >= window:
        stopped = "window"  # the window is checked before the return
    observations = m.trace.observations
    variants = [([], observations, stopped)]
    for inner_bp in nested or ():
        prefix_obs = [o for o in observations if o.time <= inner_bp.step]
        for mis, obs, stop in _burst(inner_bp, window - inner_bp.step, depth_left - 1):
            variants.append(([(inner_bp.function, inner_bp.block, inner_bp.wrong)] + mis,
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
    return name.removesuffix(PROTECTED_SUFFIX)


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
