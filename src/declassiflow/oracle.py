"""Ground-truth engines: a concrete interpreter, an exact-knowledge enumerator
and a speculative explorer that checks the frontier protection property.

One stepper, `execute`, runs the mini-IR for the verifier and for
refinement's symbolic executor alike: it owns block entry with the parallel
phi batch, calls and returns, `jmp` and `br` over a stack of `Frame`s, and a
value domain supplies operand reads, the other instructions, the branch
decision and whether a call steps into its callee or takes a result the
domain already has. The concrete domain here, `_Machine`, binds each variable to a
(value, taint) pair and steps into every call; refine.py's `_SymState` binds
terms and replays the callee walks it has already recorded.

Memory is not modeled: a load returns a deterministic pseudo-value derived
from its address, so traces are reproducible without a heap. Taint flows from
every definition through operands, loads (address into result) and phi
selections, and is the checkable stand-in for "a function of x": a speculative
observation whose taint contains x counts as transmitting a function of x.

Each speculative burst runs at its branch, as soon as the branch is reached,
on a snapshot of the machine that lives only as long as the burst. The
snapshot shares what no execution mutates, the IR and the input list, and
copies each frame's position and its `env` dict of immutable (value, taint)
pairs. It also shares `slots_of`, the input slots bound to each (function,
variable), and `steered`, the taint of every branch condition, real or
speculative.

The frontier check runs one input per control-flow class: the inputs of one
length that agree on a run's steering slots, those bound to a variable in
`steered`. Values enter a run only through its input slots and taint
over-approximates value dependence, so every branch condition is a function
of the steering slots. By induction over steps every member of the class
takes the same branches, stops every burst (window, barrier or return) at
the same step, runs out of fuel or raises the same `OracleError` at the same
point, and records each observation at the same time with the same taint:
its speculative executions and violations, which depend on nothing else, are
the run's. Only observed values differ. So a member of a violation-free
class takes the executions without running, and every member of a class
with a violation runs, to report its own observed values, until the check's
`max_violations` are found: past that bound a member of any known class
takes the executions without running.
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
    observations: list[Observation] = field(default_factory=list)
    returned: int | None = None
    steps: int = 0
    final_env: dict = field(default_factory=dict)

    @property
    def pc(self) -> list[tuple[str, str]]:
        """The (function, block) of each block entry, in order."""
        return [(fn, dst) for fn, _, dst in self.edges if dst != EXIT]


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
    a bare ret), branch(frame, block, cond, then, else, steps), which
    returns the label to take, and call(callee, argument values) at a call,
    which returns None to step into the callee or else the value the call
    returns. enter and instruction return None to go on; any other value, a
    branch result that is not a label or a call result that is a string
    stops the run.
    Errors are raised as st.error."""
    frames = st.frames
    functions = st.functions
    read, name = st.operand, st.name
    enter, instruction, branch, call = st.enter, st.instruction, st.branch, st.call
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
                args = [read(frame, a) for a in ins.operands]
                ret = call(callee, args)
                if ret is None:
                    frame.pending_out = ins.output
                    frames.append(Frame(callee, blocks, callee.entry_block, None, 0, False,
                                        {p: name(callee.name, p, a)
                                         for p, a in zip(callee.params, args)}, None))
                elif ret.__class__ is str:
                    stop = ret
                    break
                elif ins.output is not None:
                    frame.env[ins.output] = name(frame.function.name, ins.output, ret)
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
    `trace` (edges and observations). While it may still mispredict (`depth`
    above 0), each two-way branch runs a burst of at most `window` steps down
    the wrong edge and appends it, then the bursts it started, to `specs`.
    The machine and its bursts' snapshots share `slots_of` and `steered`, the
    taint of every branch condition, real or speculative, from which
    `live_slots` derives the input slots that steer the run."""

    error = OracleError

    def __init__(self, functions: dict, entry: str, inputs: list[int],
                 pad_inputs: bool = False, transmit_speculative: bool = True,
                 window: int = 0, depth: int = 0):
        self.functions = functions
        self.inputs = list(inputs)
        self.cursor = 0
        self.pad_inputs = pad_inputs
        self.transmit_speculative = transmit_speculative
        self.speculative = False
        self.trace = Trace()
        self.window, self.depth = window, depth
        self.mispredicted: list[tuple[str, str, str]] = []
        self.specs: list[SpecExecution] = []
        self.slots_of: dict[tuple[str, str], set[int]] = {}
        self.steered: set[tuple[str, str]] = set()
        f, blocks = functions[entry]
        missing = "input valuation does not cover all parameters"
        env = {p: self.next_input(f.name, p, missing) for p in f.params}
        self.frames = [Frame(f, blocks, f.entry_block, None, 0, False, env, None)]

    def run(self) -> Trace:
        """The non-speculative run, within DEFAULT_FUEL steps."""
        if execute(self, DEFAULT_FUEL + 1) != "return":
            raise OracleError("fuel exhausted (possible non-termination)")
        self.trace.steps = self.steps
        return self.trace

    def next_input(self, fname: str, var: str,
                   missing: str = "input valuation exhausted") -> tuple[int, frozenset]:
        """The (value, taint) pair that binds var to the next input slot,
        recorded in `slots_of`; past the last slot, a padded 0."""
        c = self.cursor
        if c < len(self.inputs):
            self.cursor = c + 1
            self.slots_of.setdefault((fname, var), set()).add(c)
            return to_i32(self.inputs[c]), frozenset({(fname, var)})
        if self.speculative or self.pad_inputs:
            return 0, frozenset({(fname, var)})
        raise OracleError(missing)

    def live_slots(self) -> tuple[int, ...]:
        """The input slots bound to a variable that taints a branch condition
        so far: the only slots the run's control flow depends on."""
        return tuple(sorted({c for var, cs in self.slots_of.items() if var in self.steered
                             for c in cs}))

    def snapshot(self) -> "_Machine":
        """The architectural state, without trace, speculation flag or burst
        bookkeeping: the burst that runs the snapshot sets those."""
        m = object.__new__(_Machine)
        m.functions, m.inputs, m.cursor = self.functions, self.inputs, self.cursor
        m.pad_inputs, m.transmit_speculative = self.pad_inputs, self.transmit_speculative
        m.slots_of, m.steered = self.slots_of, self.steered
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

    def call(self, callee, args):
        return None

    def enter(self, frame: Frame, block, steps: int):
        trace = self.trace
        trace.edges.append((frame.function.name, frame.prev_block or ENTRY, block.label))
        trace.edge_times.append(steps)

    def leave(self, frame: Frame, block, val, steps: int):
        self.trace.edges.append((frame.function.name, block.label, EXIT))
        self.trace.edge_times.append(steps)
        if len(self.frames) == 1 and not self.speculative:
            self.trace.returned = None if val is None else val[0]
            self.trace.final_env = {k: v for k, (v, _) in frame.env.items()}

    def instruction(self, frame: Frame, block, ins, steps: int):
        opcode, out, env = ins.opcode, ins.output, frame.env
        fname = frame.function.name
        if opcode == "specbarr":
            return "barrier" if self.speculative else None
        if opcode == "input":
            env[out] = self.next_input(fname, out)
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
        self.steered |= tnt
        if not self.speculative:
            self.trace.observations.append(Observation(
                fname, block.label, "br", block.terminator.operands[0], val, tnt,
                steps, False))
        taken, wrong = (then_l, else_l) if val != 0 else (else_l, then_l)
        if self.depth and then_l != else_l:
            m = self.snapshot()
            if self.speculative:  # a nested burst goes on from this one
                m.start, m.window = self.start, self.window - steps
                m.trace = Trace(observations=list(self.trace.observations))
            else:
                m.start, m.window, m.trace = steps, self.window, Trace()
            m.speculative, m.depth, m.specs = True, self.depth - 1, []
            m.mispredicted = self.mispredicted + [(fname, block.label, wrong)]
            m.frames[-1].goto(wrong)
            stopped = execute(m, m.window)
            if stopped == "return" and m.steps >= m.window:
                stopped = "window"  # the window is checked before the return
            self.specs.append(SpecExecution(m.start, m.mispredicted,
                                            m.trace.observations, stopped))
            self.specs += m.specs
        return taken


def _bodies(program: Program) -> dict:
    """Each function's name -> (Function, label -> Block map), as `execute`
    reads them."""
    return {g.name: (g, g.block_map()) for g in program.functions}


def interpret(program: Program, inputs: list[int], pad_inputs: bool = False) -> Trace:
    """Non-speculative execution of the entry function: deterministic edge
    trace and observations (every transmit is observed, speculative or not)."""
    return _Machine(_bodies(program), program.entry_function, inputs, pad_inputs).run()


# ---------------------------------------------------------------------------
# Exact knowledge (Definition-level oracle)
# ---------------------------------------------------------------------------

def exact_knowledge(f: Function, domain: range) -> KnowledgeMap:
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

    names = sorted(f.defined_vars())
    ix = VarIndex(names, (1 << len(names)) - 1)  # every name is f's own
    rules = equations(f, ix)
    phis = [(b.label, ins) for b, ins in f.instructions() if ins.opcode == "phi"]
    per_edge: dict[tuple[str, str], int] = {}  # AND of the closures crossing it
    closures: dict[tuple, int] = {}

    program = Program([f])
    for vals in itertools.product(domain, repeat=slots) if slots else [()]:
        tr = interpret(program, list(vals))
        revealed = ix.mask(o.operand for o in tr.observations
                           if isinstance(o.operand, str))
        pred_of = {}
        for fn, src, dst in tr.edges:
            if src != ENTRY and dst != EXIT:
                pred_of[dst] = src
        key = (revealed, tuple(sorted(pred_of.items())))
        if key not in closures:
            closures[key] = _closure(rules, phis, ix, revealed, pred_of)
        cl = closures[key]
        for fn, src, dst in tr.edges:
            per_edge[src, dst] = per_edge.get((src, dst), cl) & cl

    public = _closure(rules, phis, ix, 0, {})  # known from the program text alone
    bits = [public if e.src == ENTRY else per_edge.get(e.key, ix.original) for e in cfg.edges]
    return KnowledgeMap(cfg, ix, bits)


def _closure(rules, phis, ix: VarIndex, known: int, pred_of: dict[str, str]) -> int:
    """Close a revealed-variable mask under the R2/R3 rules (phi forward
    included: vacuous when the phi never ran) and the phis' selected arms."""
    selected = []
    for label, phi in phis:
        pred = pred_of.get(label)
        if pred is not None and pred in phi.phi_labels:
            arm = phi.operands[phi.phi_labels.index(pred)]
            selected.append((ix.bit[phi.output], ix.bit[arm] if isinstance(arm, str) else 0))
    changed = True
    while changed:
        known = close(known, rules)
        changed = False
        for out, arm in selected:  # a literal arm (0) is known: the output is public
            if (known & out == out) != (known & arm == arm):
                known |= out | arm
                changed = True
    return known


# ---------------------------------------------------------------------------
# Speculative exploration
# ---------------------------------------------------------------------------

def speculative_explore(program: Program, inputs: list[int], window: int = 16,
                        depth: int = 1, transmit_speculative: bool = True,
                        pad_inputs: bool = False) -> tuple[Trace, list[SpecExecution]]:
    """Enumerate all executions where up to `depth` branches take the wrong
    CFG edge for up to `window` speculative instructions before rollback.

    Speculative loads and speculative transmits produce observations; branches
    and stores only change microarchitectural state once non-speculative. A
    speculation barrier halts speculative progress."""
    if window < 1 or depth < 1:
        raise OracleError("window and depth must be at least 1")
    m = _Machine(_bodies(program), program.entry_function, inputs, pad_inputs,
                 transmit_speculative, window, depth)
    return m.run(), m.specs


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
    """inputs_run counts the inputs that ran: one per violation-free
    control-flow class and every member of a class with a violation, less
    the members skipped once `max_violations` were found."""

    passed: bool
    violations: list[Violation]
    executions: int
    inputs_checked: int
    inputs_run: int


def _normalize_fn(name: str) -> str:
    return name.removesuffix(PROTECTED_SUFFIX)


def check_frontier_property(program: Program, frontiers: dict[tuple[str, str], set[str]],
                            inputs_sample, window: int = 16, depth: int = 1,
                            transmit_speculative: bool = True, pad_inputs: bool = False,
                            max_violations: int | None = None) -> Verdict:
    """PASS iff no explored speculative observation tainted by a variable
    happens strictly before the non-speculative prefix enters that variable's
    frontier. Protected clones are matched to their originals by name.

    Runs one input per control-flow class (see the module docstring): an
    input that agrees with an earlier run on that run's steering slots takes
    its executions without running when that run had no violation or once
    `max_violations` violations are found, and runs otherwise; past that
    bound a new class runs for its executions alone. `violations` keeps the
    first `max_violations` (every one for None)."""
    limit = float("inf") if max_violations is None else max_violations
    if min(window, depth, limit) < 1:
        raise OracleError("window, depth and max_violations must be at least 1")
    violations: list[Violation] = []
    n_exec = n_inputs = n_run = 0
    entering: dict[tuple[str, str], list[tuple[str, str]]] = {}  # (fn, block) -> keys
    for key, fr in frontiers.items():
        for block in fr:
            entering.setdefault((key[0], block), []).append(key)
    bodies, entry = _bodies(program), program.entry_function
    # input length -> steering slots -> their values -> (executions, violated)
    classes: dict[int, dict[tuple[int, ...], dict[tuple, tuple[int, bool]]]] = {}
    for inputs in inputs_sample:
        n_inputs += 1
        tables = classes.setdefault(len(inputs), {})
        hit = None
        for live, table in tables.items():
            if (hit := table.get(tuple(map(inputs.__getitem__, live)))) is not None:
                break
        full = len(violations) >= limit
        if hit is not None and (full or not hit[1]):
            n_exec += hit[0]
            continue
        n_run += 1
        m = _Machine(bodies, entry, inputs, pad_inputs, transmit_speculative, window, depth)
        trace = m.run()
        found = [] if full else _violations(trace, m.specs, entering, frontiers, m.inputs)
        n_exec += len(m.specs)
        violations += found
        if hit is None:
            live = m.live_slots()
            tables.setdefault(live, {})[tuple(map(inputs.__getitem__, live))] = (
                len(m.specs), bool(found))
    return Verdict(not violations, violations[:max_violations], n_exec, n_inputs, n_run)


def _violations(trace: Trace, specs: list[SpecExecution], entering: dict, frontiers: dict,
                inputs: list[int]) -> list[Violation]:
    """The observations of one input's speculative executions that happen
    before the real run first enters the frontier of a variable in their
    taint."""
    crossed_at: dict[tuple[str, str], int] = {}
    for (fn, src, dst), t in zip(trace.edges, trace.edge_times):
        for key in entering.get((_normalize_fn(fn), dst), ()):
            if key not in crossed_at or t < crossed_at[key]:
                crossed_at[key] = t
    found = []
    for spec in specs:
        for obs in spec.observations:
            for (tfn, tvar) in sorted(obs.taint):
                key = (_normalize_fn(tfn), tvar)
                fr = frontiers.get(key)
                if fr is None:
                    continue
                when = crossed_at.get(key)
                if when is None or when > spec.start_step:
                    found.append(Violation(key, inputs, spec.mispredictions, obs, sorted(fr)))
    return found


def input_grid(slots: int, domain: range):
    """All valuations of `slots` input slots over the domain."""
    if slots == 0:
        return [[]]
    return [list(v) for v in itertools.product(domain, repeat=slots)]


def input_slots(program: Program) -> int:
    """Parameters of the entry function plus its static input instructions.

    Callees' input instructions count once per call site; loops can make the
    true dynamic count larger, in which case runs should pad."""
    entry = program.entry_function
    order, cyclic = callees_first(program)
    if cyclic is not None:
        raise OracleError("call graph has a cycle")
    bodies = {f.name: f for f in program.functions}
    slots: dict[str, int] = {}
    for name in order:  # callees first
        slots[name] = sum(1 if i.opcode == "input" else slots[i.callee]
                          for _, i in bodies[name].instructions()
                          if i.opcode in ("input", "call"))
    return len(bodies[entry].params) + slots[entry]
