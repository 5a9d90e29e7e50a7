"""Path-sensitive refinement: decide whether a candidate variable is
transmitted on every realizable path through a region, and upgrade block
knowledge where transmission is inevitable.

A bounded symbolic executor explores each function once, depth first, on
the verifier's IR stepper (oracle.execute): `_SymState` is its domain of
terms, counting block visits against loop_cap and forking at open branches.
Each path carries an interval range per symbol, kept at the fixpoint of its
path condition. A branch whose condition the intervals decide takes its one live
arm without forking and adds nothing to the path condition, which so holds
only the constraints left open when they were added. An open branch forks:
each arm narrows only the symbol its condition compares with a literal,
re-checks the other constraints only when that range moved, and is pruned
when the intervals prove its condition unsatisfiable. A shared
path log keeps what it finds: every loop_cap hit and, for every path that
reaches the exit, its path condition, its symbols, the last visit to each
block of the function and its ranges. A (region, variable) query replays the
log and extends it only when it needs more paths. A path escapes when it
visits the region header after the last visit to every transmitter block that
knows the variable. Constraint solving is exact within the configured input
domain: exhaustive enumeration over the exit's box of ranges, once per path.
Any cap hit degrades the verdict to Unknown, whose note names the caps;
Unknown is treated like Escapable downstream (no knowledge upgrade).

A callee walk that never forks, reads no input and hits no cap is decided by
its entry state: the callee, its argument terms and the range of each symbol
in them, since a decided branch reads only the ranges. One memo per analysis
run, shared by every function's path log, keeps such walks' return terms and
block-visit increments, and has one writer: each exit path of an explored
function that read no input and left no hole or complex constraint is
recorded under the function and its parameters' final ranges, since those
ranges decide every branch it took, so stepping the function from them takes
the same path. A call whose arguments are distinct symbols is looked up under
the callee and their ranges in argument order; a recorded walk adds its
increments to the path's visits (ending it "cap" past loop_cap, as stepping
would) and binds its return term, renamed from the callee's parameters to
the arguments, instead of stepping the callee; any other call steps in, so
the memo hits whatever the caller calls its symbols. Callees are explored
before their callers, so a caller finds its callees' exit paths already
recorded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .cfg import DomInfo
from .frontier import BlockKnowledge
from .ir import Function
from .knowledge import AnalysisError
from .oracle import Frame, eval_op, execute, load_value

INEVITABLE = "inevitable"
ESCAPABLE = "escapable"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Region:
    """Header plus every block it dominates (closed under header-avoiding
    paths by construction)."""

    header: str
    blocks: frozenset


_CAPS = ("loop_cap", "path_cap", "max_symbols", "enum_budget")


@dataclass(frozen=True)
class Limits:
    """Refinement caps and input domain, checked on construction: a negative
    cap or budget would end queries early (path_cap = -1 made them
    `inevitable`), and an empty domain has nothing to solve over."""

    loop_cap: int = 32
    path_cap: int = 4096
    domain_min: int = 0
    domain_max: int = 15
    max_symbols: int = 20
    enum_budget: int = 1 << 20

    def __post_init__(self):
        for name in _CAPS:
            if getattr(self, name) < 0:
                raise AnalysisError(f"negative {name} {getattr(self, name)}")
        if self.domain_min > self.domain_max:
            raise AnalysisError(f"empty domain {self.domain_min}..{self.domain_max}"
                                " (domain_min > domain_max)")


@dataclass
class Constraint:
    """Entry constraint `var op literal` on a parameter of the function."""

    var: str
    op: str  # == != < <= > >=
    value: int


# constraint op -> (comparison term, literal on the left, truthy)
_CONSTRAINT_OPS = {"==": ("eq", False, True), "!=": ("eq", False, False),
                   "<": ("lt", False, True), ">=": ("lt", False, False),
                   ">": ("lt", True, True), "<=": ("lt", True, False)}


def parse_constraint(text: str) -> Constraint:
    parts = text.split()
    try:
        if len(parts) == 3 and parts[1] in _CONSTRAINT_OPS:
            return Constraint(parts[0], parts[1], int(parts[2]))
    except ValueError:
        pass
    raise AnalysisError(f"bad constraint '{text}' (expected 'var op literal')")


@dataclass
class RefinementResult:
    verdict: str
    region: Region
    variable: str
    witness_inputs: list[int] | None = None
    note: str = ""


def candidate_regions(f: Function, tblocks: set[str], dom: DomInfo) -> list[Region]:
    """Regions headed at each block of f dominating every speculative
    transmitter block in tblocks, ordered from the entry inward; dom is f's."""
    if not tblocks:
        return []
    headers = [b.label for b in f.blocks
               if all(dom.dom(b.label, t) for t in tblocks)]
    headers.sort(key=dom.depth)
    return [Region(h, frozenset(dom.dominated_by(h))) for h in headers]


def candidate_vars(kb: BlockKnowledge, tblocks: set[str]) -> set[str]:
    """Union of block knowledge over the speculative transmitter blocks,
    decoded once."""
    m = 0
    for b in tblocks:
        m |= kb.bits.get(b, 0)
    return kb.index.decode(m)


# ---------------------------------------------------------------------------
# Terms and satisfiability
# ---------------------------------------------------------------------------
#
# A term is an int (concrete), ("sym", name), or (opcode, operand terms...).
# Loads become ("load", address term) and are evaluated with the same
# deterministic pseudo-value as the concrete interpreter.

def make_term(opcode: str, args: list):
    for a in args:
        if not isinstance(a, int):
            return (opcode,) + tuple(args)
    return eval_op(opcode, args)


def eval_term(t, assignment: dict[str, int]) -> int:
    if isinstance(t, int):
        return t
    if t[0] == "sym":
        return assignment[t[1]]
    if t[0] == "load":
        return load_value(eval_term(t[1], assignment))
    return eval_op(t[0], [eval_term(a, assignment) for a in t[1:]])


_FULL = (-(1 << 31), (1 << 31) - 1)
_SAFE = 1 << 30  # stay far from the wrap boundary in the interval layer


def _interval(t, ranges: dict[str, tuple[int, int]]):
    """Best-effort interval; None means unknown/possibly wrapping."""
    if isinstance(t, int):
        return (t, t)
    if t[0] == "sym":
        return ranges.get(t[1], _FULL)
    if t[0] in ("add", "sub"):
        a = _interval(t[1], ranges)
        b = _interval(t[2], ranges)
        if a is None or b is None:
            return None
        if max(abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1])) > _SAFE:
            return None
        return (a[0] + b[0], a[1] + b[1]) if t[0] == "add" else (a[0] - b[1], a[1] - b[0])
    if t[0] in ("eq", "lt"):
        a = _interval(t[1], ranges)
        b = _interval(t[2], ranges)
        if a is None or b is None:
            return (0, 1)
        if t[0] == "lt":
            if a[1] < b[0]:
                return (1, 1)
            if a[0] >= b[1]:
                return (0, 0)
            return (0, 1)
        if a[0] == a[1] == b[0] == b[1]:
            return (1, 1)
        if a[1] < b[0] or b[1] < a[0]:
            return (0, 0)
        return (0, 1)
    return None


def _refine_ranges(constraints, ranges: dict[str, tuple[int, int]]) -> bool:
    """Narrow symbol ranges from sym-vs-const comparisons; False on conflict."""
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


def _narrowed_symbol(term):
    """The symbol that a symbol-vs-literal comparison or a bare symbol
    constrains, or None for any other term."""
    if term[0] == "sym":
        return term[1]
    if term[0] in ("lt", "eq"):
        for a, b in ((term[1], term[2]), (term[2], term[1])):
            if isinstance(a, tuple) and a[0] == "sym" and isinstance(b, int):
                return a[1]
    return None


# ---------------------------------------------------------------------------
# Bounded symbolic execution
# ---------------------------------------------------------------------------

@dataclass
class _SymState:
    """One path, and the symbolic domain of oracle.execute: an env binds each
    variable to a term. pc holds only the branch and entry constraints that
    the intervals left open when they were added; ranges is its fixpoint.
    functions, limits and fname (the explored function) are the
    exploration's, shared by every path; walks is the run's memo of decided
    callee walks."""

    frames: list[Frame]
    pc: list  # [(term, truthy)]
    syms: list[str]
    ranges: dict[str, tuple[int, int]]  # symbol -> (lo, hi)
    holes: dict[str, tuple] = field(default_factory=dict)  # x != c and truthy x
    complex: tuple = ()  # the constraints that are not symbol-vs-literal
    visits: dict[tuple[str, str], int] = field(default_factory=dict)
    last: dict[str, int] = field(default_factory=dict)  # block of f -> last visit
    clock: int = 0  # visits to blocks of f so far
    input_count: int = 0
    functions: dict = field(default_factory=dict)  # name -> (Function, block map)
    limits: Limits = field(default_factory=Limits)
    fname: str = ""
    walks: dict = field(default_factory=dict)  # key -> (return term, visit increments)
    ret: object = 0  # the explored function's return term, once it returns

    error = AnalysisError

    def fork(self) -> "_SymState":
        """A copy of the path."""
        return _SymState(
            [fr.copy() for fr in self.frames], list(self.pc), list(self.syms),
            dict(self.ranges), dict(self.holes), self.complex, dict(self.visits),
            dict(self.last), self.clock, self.input_count, self.functions,
            self.limits, self.fname, self.walks)

    def run(self):
        """Run the path until it exits ("return"), hits loop_cap ("cap") or
        forks at a branch the intervals leave open (the list of children
        whose branch constraint they allow)."""
        return execute(self, _UNBOUNDED)

    def operand(self, frame: Frame, op):
        return op if isinstance(op, int) else frame.env[op]

    def name(self, fname: str, var: str, value):
        return value

    def enter(self, frame: Frame, block, steps: int):
        key = (frame.function.name, block.label)
        visits = self.visits[key] = self.visits.get(key, 0) + 1
        if visits > self.limits.loop_cap:
            return "cap"
        if key[0] == self.fname:
            self.last[block.label] = self.clock
            self.clock += 1
        return None

    def call(self, callee: Function, args: list):
        """Replay a decided walk of callee on args: its return term, or "cap"
        when its block visits pass loop_cap. None steps into the callee: an
        argument is not a symbol, a symbol repeats, or no walk is recorded
        under the arguments' ranges."""
        syms = [a[1] for a in args if not isinstance(a, int) and a[0] == "sym"]
        if len(set(syms)) < len(args):
            return None
        walk = self.walks.get((callee.name, tuple(self.ranges[s] for s in syms)))
        if walk is None:
            return None
        ret, increments = walk
        visits, cap = self.visits, self.limits.loop_cap
        for k, n in increments:
            n = visits[k] = visits.get(k, 0) + n
            if n > cap:
                return "cap"
        return _rename(ret, dict(zip(callee.params, syms)))

    def leave(self, frame: Frame, block, val, steps: int):
        if len(self.frames) == 1:
            self.ret = 0 if val is None else val

    def instruction(self, frame: Frame, block, ins, steps: int):
        opcode, env = ins.opcode, frame.env
        if ins.output is None:  # nothing to bind
            return None
        if opcode == "input":
            name = f"#in{self.input_count}"  # no IR name starts with #
            self.input_count += 1
            lim = self.limits
            if len(self.syms) >= lim.max_symbols:
                raise AnalysisError(
                    f"too many symbolic inputs (> max_symbols {lim.max_symbols})")
            self.syms.append(name)
            self.ranges[name] = (lim.domain_min, lim.domain_max)
            env[ins.output] = ("sym", name)
            return None
        args = []
        for op in ins.operands:
            args.append(op if isinstance(op, int) else env[op])
        if opcode == "load":
            addr = args[0]
            env[ins.output] = (load_value(addr) if isinstance(addr, int)
                               else ("load", addr))
        else:
            env[ins.output] = make_term(opcode, args)
        return None

    def branch(self, frame: Frame, block, cond, then_l: str, else_l: str, steps: int):
        if then_l == else_l:
            return then_l
        live = self.decide(cond)
        if live is not None:  # one arm is dead: go on without forking
            return then_l if live else else_l
        forks = []
        for target, truthy in ((then_l, True), (else_l, False)):
            child = self.fork()
            if child.assume(cond, truthy):
                child.frames[-1].goto(target)
                forks.append(child)
        return forks

    def decide(self, cond):
        """The truth of condition term cond at every point of ranges, or None
        when the intervals leave both arms open. A decided constraint stays
        decided: ranges only shrink along a path, and _interval is monotone."""
        lo, hi = _interval(cond, self.ranges) or (0, 1)
        return None if lo <= 0 <= hi and (lo, hi) != (0, 0) else hi != 0

    def assume(self, term, truthy: bool) -> bool:
        """Add a constraint to pc; False when intervals prove pc unsatisfiable.
        branch adds only what decide() leaves open, as a decided constraint
        narrows nothing. The answer is that of narrowing all of pc from the
        domain: each rule of _refine_ranges reads and narrows one symbol's own
        range, only the holes are not plain intersections, so they alone need
        re-running, and once narrowing succeeds no symbol-vs-literal
        constraint fails its interval check."""
        c = (term, truthy)
        self.pc.append(c)
        sym = _narrowed_symbol(term)
        if sym is None:
            self.complex += (c,)
            return self.decide(term) in (None, truthy)
        before = self.ranges[sym]
        # c first: a falsy bare symbol narrows without asking for another
        # round, so the holes must come after it
        if not _refine_ranges([c, *self.holes.get(sym, ())], self.ranges):
            return False
        if term[0] == ("sym" if truthy else "eq"):
            self.holes[sym] = self.holes.get(sym, ()) + (c,)
        return self.ranges[sym] == before or all(
            self.decide(t) in (None, tr) for t, tr in self.complex)


def _rename(t, names: dict):
    """t with each symbol s renamed to names[s], in time linear in t's DAG:
    a shared subterm is renamed once (memoized by id), without recursion."""
    done, todo = {}, [t]
    while todo:
        u = todo.pop()
        if isinstance(u, int) or id(u) in done:
            continue
        if u[0] == "sym":
            done[id(u)] = ("sym", names[u[1]])
        elif kids := [a for a in u[1:] if not isinstance(a, int) and id(a) not in done]:
            todo += [u, *kids]
        else:
            done[id(u)] = (u[0],) + tuple(a if isinstance(a, int) else done[id(a)]
                                          for a in u[1:])
    return done.get(id(t), t)


_UNBOUNDED = 1 << 62  # refinement bounds paths with loop_cap, not steps
_TOO_DEEP = "symbolic term nested past the Python recursion limit"


class PathLog:
    """The bounded paths of one function, explored lazily and shared by every
    query on it. Events are "cap" (a loop_cap hit), (path condition, symbols,
    last visits, ranges) for an exit, or the AnalysisError that ended
    exploration. walks is the memo of decided callee walks, which the logs of
    one run may share."""

    def __init__(self, f: Function, limits: Limits | None = None,
                 constraints: list[Constraint] | None = None,
                 functions: dict[str, Function] | None = None,
                 walks: dict | None = None):
        self.limits = limits or Limits()
        self._events: list = []
        self._solved: dict[int, tuple] = {}
        # the generator must not reference the log: a cycle would keep its
        # pending states alive until cyclic garbage collection
        self._source = _explore(f, self.limits, constraints or [], functions or {},
                                {} if walks is None else walks)

    def events(self):
        """Yield (index, event) from the start, exploring further on demand."""
        i = 0
        while True:
            if i == len(self._events):
                try:
                    self._events.append(next(self._source))
                except StopIteration:
                    return
                except AnalysisError as exc:  # the generator is finished too
                    self._events.append(exc.with_traceback(None))
                except RecursionError:
                    self._events.append(AnalysisError(_TOO_DEEP))
            event = self._events[i]
            if isinstance(event, AnalysisError):
                raise AnalysisError(*event.args)
            yield i, event
            i += 1

    def solve(self, i: int):
        """("sat", the first witness in lexicographic order), ("unsat", None)
        or ("unknown", None) past enum_budget for exit event i, computed once.
        Only the exit's box of ranges is enumerated: it holds every solution
        in the domain."""
        if i not in self._solved:
            pc, syms, _, ranges = self._events[i]
            lim = self.limits
            answer = "unknown", None
            if (lim.domain_max - lim.domain_min + 1) ** len(syms) <= lim.enum_budget:
                answer = "unsat", None
                boxes = (range(ranges[s][0], ranges[s][1] + 1) for s in syms)
                try:
                    for combo in itertools.product(*boxes):
                        assignment = dict(zip(syms, combo))
                        if all(truthy == (eval_term(term, assignment) != 0)
                               for term, truthy in pc):
                            answer = "sat", assignment
                            break
                except RecursionError:
                    raise AnalysisError(_TOO_DEEP) from None
            self._solved[i] = answer
        return self._solved[i]


def check_inevitable(paths: PathLog, region: Region, var: str,
                     knowing: set[str]) -> RefinementResult:
    """Answer one query from the function's paths; `knowing` holds the
    transmitter blocks whose knowledge includes the variable.

    A path escapes when it visits the header after the last visit to every
    knowing block (so a knowing header never escapes). Escapable: some
    satisfiable path escapes (with a concrete witness). Inevitable: the whole
    bounded exploration finished with no such path and no cap hits. Unknown
    otherwise, with every cap hit named in the note.
    """
    header = region.header
    caps: set[str] = set()
    exits = 0
    for i, event in paths.events():
        if event == "cap":
            caps.add("loop_cap")
            continue
        exits += 1
        if exits > paths.limits.path_cap:
            caps.add("path_cap")
            break
        _, syms, last, _ = event
        if header in last and all(last.get(b, -1) < last[header] for b in knowing):
            status, witness = paths.solve(i)
            if status == "sat":
                return RefinementResult(ESCAPABLE, region, var,
                                        witness_inputs=[witness[s] for s in syms])
            if status == "unknown":
                caps.add("enum_budget")
    if caps:
        return RefinementResult(UNKNOWN, region, var, note="cap hit: " + ", ".join(
            c for c in ("loop_cap", "path_cap", "enum_budget") if c in caps))
    return RefinementResult(INEVITABLE, region, var)


def _explore(f: Function, limits: Limits, constraints: list[Constraint],
             functions: dict[str, Function], walks: dict):
    """Depth-first bounded symbolic execution of f: yields "cap" for each
    loop_cap hit and (path condition, symbols, last visit of each block of f,
    ranges) for each exit, and stops after path_cap + 1 exits."""
    entry_pc = []
    for c in constraints:
        if c.var not in f.params:
            raise AnalysisError(f"constraint on unknown parameter '{c.var}'")
        op, flipped, truthy = _CONSTRAINT_OPS[c.op]
        args = [("sym", c.var), c.value]
        entry_pc.append((make_term(op, args[::-1] if flipped else args), truthy))
    root = _SymState(
        frames=[Frame(f, f.block_map(), f.entry_block, None, 0, False,
                      {p: ("sym", p) for p in f.params}, None)],
        pc=[], syms=list(f.params),
        ranges=dict.fromkeys(f.params, (limits.domain_min, limits.domain_max)),
        functions={name: (g, g.block_map()) for name, g in functions.items()},
        limits=limits, fname=f.name, walks=walks)
    if not all(root.decide(term) == truthy or root.assume(term, truthy)
               for term, truthy in entry_pc):
        raise AnalysisError("unsatisfiable entry constraints")
    if len(f.params) > limits.max_symbols:
        raise AnalysisError(f"too many symbolic inputs ({len(f.params)} > "
                            f"max_symbols {limits.max_symbols})")

    stack = [root]
    exits = 0
    while stack and exits <= limits.path_cap:
        st = stack.pop()
        outcome = st.run()
        if outcome == "cap":
            yield "cap"
        elif outcome == "return":
            exits += 1
            if not (st.input_count or st.complex or st.holes):  # ranges decide the path
                walks.setdefault((f.name, tuple(st.ranges[p] for p in f.params)),
                                 (st.ret, tuple(st.visits.items())))
            yield st.pc, st.syms, st.last, st.ranges
        else:  # the live children of a branch
            stack.extend(reversed(outcome))


# ---------------------------------------------------------------------------
# Applying results
# ---------------------------------------------------------------------------

def apply_refinement(kb: BlockKnowledge, result: RefinementResult) -> BlockKnowledge:
    """OR the variable's bit into every region block's mask. If the region is
    never entered the added knowledge is vacuous, which is inactionable and
    needs no separate check."""
    if result.verdict != INEVITABLE:
        raise AnalysisError(f"cannot apply a result with verdict '{result.verdict}'")
    for b in result.region.blocks:
        kb.bits[b] = kb.bits.get(b, 0) | kb.index.bit[result.variable]
    return kb
