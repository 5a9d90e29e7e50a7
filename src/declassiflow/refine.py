"""Path-sensitive refinement: decide whether a candidate variable is
transmitted on every realizable path through a region, and upgrade block
knowledge where transmission is inevitable.

A bounded symbolic executor explores each function once, depth first, on
the verifier's IR stepper (oracle.execute): `_SymState` is its domain of
terms, counting block visits against loop_cap and forking at open branches.
Each path keeps every constraint once: an interval range per symbol, the
holes (`x != c`) that no range end sits on, and the complex constraints.
A branch whose condition the intervals decide takes its one live arm
without forking and adds no constraint. An open branch forks: each arm
narrows only the symbol its condition compares with a literal, re-checks
the complex constraints only when that range moved, and is pruned when the
intervals prove its condition unsatisfiable. A shared path log keeps what it
finds: every loop_cap hit and, for every path that reaches the exit, its
complex constraints, its holes, the last visit to each block of the function
and its ranges. A (region, variable) query replays the log and extends it
only when it needs more paths. A path escapes when it visits the region
header after the last visit to every transmitter block that knows the
variable. Constraint solving is exact within the configured input domain,
once per path: a backtracking search, one independent group of symbols at a
time, of the exit's box of ranges less its holes for the complex constraints.
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

from dataclasses import dataclass, field

from .cfg import DomInfo
from .frontier import BlockKnowledge
from .ir import INT32_MAX, INT32_MIN, Function
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
    `inevitable`), an empty domain has nothing to solve over, and a bound
    outside signed 32 bits would make symbols, which compare raw integers,
    disagree with the IR, which wraps them."""

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
        for name in ("domain_min", "domain_max"):
            if not INT32_MIN <= getattr(self, name) <= INT32_MAX:
                raise AnalysisError(f"{name} {getattr(self, name)} outside signed 32 bits"
                                    f" ({INT32_MIN}..{INT32_MAX})")
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


_FULL = (INT32_MIN, INT32_MAX)
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


# ---------------------------------------------------------------------------
# Bounded symbolic execution
# ---------------------------------------------------------------------------

@dataclass
class _SymState:
    """One path, and the symbolic domain of oracle.execute: an env binds each
    variable to a term. The branch and entry constraints that the intervals
    left open when they were added are each kept once: a symbol-vs-literal
    one as its symbol's range, `x != c` as a hole c that neither end of x's
    range sits on, and any other in complex. ranges lists the symbols in
    creation order, the order of a witness's inputs. functions, limits and
    fname (the explored function) are the exploration's, shared by every
    path; walks is the run's memo of decided callee walks."""

    frames: list[Frame]
    ranges: dict[str, tuple[int, int]]  # symbol -> (lo, hi)
    holes: dict[str, frozenset] = field(default_factory=dict)  # x -> each c of x != c
    complex: tuple = ()  # every other (term, truthy), a truthy bare symbol included
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
            [fr.copy() for fr in self.frames], dict(self.ranges), dict(self.holes),
            self.complex, dict(self.visits),
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
            if len(self.ranges) >= lim.max_symbols:
                raise AnalysisError(
                    f"too many symbolic inputs (> max_symbols {lim.max_symbols})")
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
        """Add an open constraint; False when the intervals prove the path
        unsatisfiable. branch adds only what decide() leaves open, as a
        decided constraint narrows nothing. A symbol-vs-literal comparison or
        a falsy bare symbol narrows its symbol's range to the constraint's
        solutions, `x != c` by adding the hole c; both ends then skip past
        the symbol's holes. Only a moved range re-checks complex, since
        decide reads nothing else."""
        if term[0] == "sym" and not truthy:  # x == 0
            term, truthy = ("eq", term, 0), True
        sym = None
        if term[0] in ("lt", "eq"):
            for sym_term, c, flipped in ((term[1], term[2], False), (term[2], term[1], True)):
                if isinstance(sym_term, tuple) and sym_term[0] == "sym" and isinstance(c, int):
                    sym = sym_term[1]
                    break
        if sym is None:
            self.complex += ((term, truthy),)
            return self.decide(term) in (None, truthy)
        before = lo, hi = self.ranges[sym]
        holes = self.holes.get(sym, frozenset())
        if term[0] == "eq" and truthy:
            lo, hi = max(lo, c), min(hi, c)
        elif term[0] == "eq":
            holes = self.holes[sym] = holes | {c}
        elif truthy != flipped:  # x < c, or x <= c
            hi = min(hi, c - truthy)
        else:  # x >= c, or x > c
            lo = max(lo, c + truthy)
        while lo in holes:
            lo += 1
        while hi in holes:
            hi -= 1
        if lo > hi:
            return False
        self.ranges[sym] = (lo, hi)
        return (lo, hi) == before or all(self.decide(t) in (None, tr)
                                         for t, tr in self.complex)


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
    query on it. Events are "cap" (a loop_cap hit), (complex constraints,
    holes, last visits, ranges) for an exit, or the AnalysisError that ended
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
        """("sat", the inputs of the first solution in lexicographic order),
        ("unsat", None) or ("unknown", None) past enum_budget for exit event
        i, computed once; the budget bounds the domain's span to the power of
        the symbol count, as when the whole box was enumerated. The box of
        ranges less holes is exactly the set of solutions of the symbol-vs-
        literal constraints, so backtracking checks only the complex ones."""
        if i not in self._solved:
            complex, holes, _, ranges = self._events[i]
            lim = self.limits
            answer = "unknown", None
            if (lim.domain_max - lim.domain_min + 1) ** len(ranges) <= lim.enum_budget:
                try:
                    answer = _first_solution(complex, holes, ranges)
                except RecursionError:
                    raise AnalysisError(_TOO_DEEP) from None
            self._solved[i] = answer
        return self._solved[i]


def _first_solution(complex: tuple, holes: dict, ranges: dict) -> tuple:
    """("sat", the first point of the box in ranges order that satisfies
    every complex constraint) or ("unsat", None). Symbols share a group when
    some constraint mentions both; a symbol in none takes its box's first
    value. Each group is searched depth first on its own, binding its
    symbols in ranges order, each over its box in ascending order, and
    checking a constraint as soon as its last symbol is bound: it finds the
    group's lexicographically first solution, and the groups share no
    symbols, so together they form the box's. A group with none is unsat."""
    order = {s: k for k, s in enumerate(ranges)}
    checks: dict[str, list] = {}  # symbol -> the constraints whose last symbol it is
    groups: list[set] = []  # disjoint: the symbols of connected constraints
    for term, truthy in complex:
        syms = _symbols(term)
        checks.setdefault(max(syms, key=order.__getitem__), []).append((term, truthy))
        for g in [g for g in groups if g & syms]:
            groups.remove(g)
            syms |= g
        groups.append(syms)

    def box(s):
        lo, hi = ranges[s]
        return (v for v in range(lo, hi + 1) if v not in holes.get(s, ()))

    assignment = {s: next(box(s)) for s in ranges}
    for group in groups:
        syms = sorted(group, key=order.__getitem__)
        values = [box(syms[0])]  # the rest of the box of each bound symbol
        while values:
            s = syms[len(values) - 1]
            for assignment[s] in values[-1]:
                if all(truthy == (eval_term(term, assignment) != 0)
                       for term, truthy in checks.get(s, ())):
                    break
            else:  # s's box is used up: rebind the symbol before it
                values.pop()
                continue
            if len(values) == len(syms):
                break
            values.append(box(syms[len(values)]))
        else:
            return "unsat", None
    return "sat", [assignment[s] for s in ranges]


def _symbols(t) -> set[str]:
    """The names of the symbols in term t."""
    if isinstance(t, int):
        return set()
    return {t[1]} if t[0] == "sym" else set().union(*map(_symbols, t[1:]))


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
        last = event[2]
        if header in last and all(last.get(b, -1) < last[header] for b in knowing):
            status, witness = paths.solve(i)
            if status == "sat":
                return RefinementResult(ESCAPABLE, region, var, witness_inputs=witness)
            if status == "unknown":
                caps.add("enum_budget")
    if caps:
        return RefinementResult(UNKNOWN, region, var, note="cap hit: " + ", ".join(
            c for c in ("loop_cap", "path_cap", "enum_budget") if c in caps))
    return RefinementResult(INEVITABLE, region, var)


def _explore(f: Function, limits: Limits, constraints: list[Constraint],
             functions: dict[str, Function], walks: dict):
    """Depth-first bounded symbolic execution of f: yields "cap" for each
    loop_cap hit and (complex constraints, holes, last visit of each block of
    f, ranges) for each exit, and stops after path_cap + 1 exits."""
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
            yield st.complex, st.holes, st.last, st.ranges
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
