"""Textual SSA mini-IR: the opcode table, types, parser, validator, printer
and transmitter model, and the dominator tree that the validator and the CFG
share.

The language is line-oriented, and `#` starts a comment:

    fn name(a, b) {
    B1:
      v = const 7
      w = add a, v
      br w, B2, B3
    B2: transmit w
    ...
    B3: ret }

A line holds at most one instruction, which may follow its block's label. A
function's first line may follow its `{` and its last may end in its `}`, so
`fn f() { B1: ret }` is a whole function. Lines end at every break that
`str.splitlines` knows, form feed included. Tokens are names, 32-bit
two's-complement integer literals and single characters; spaces and tabs
separate them, and other whitespace (U+00A0, U+3000, ...) is allowed only at
the ends of a line, after a function's `{` and before its `}`. An error names
its line and, for bad syntax, the 1-based column (a tab counts one) in the
source line of the token at fault, or one past the line's last token.

Each opcode's facts sit in one row of OPCODES: whether it defines a variable,
its arity, its concrete semantics, the operands its equation recovers
backward and the operands that are block labels. The parser, the validator,
the CFG and loop expansion, the edge-knowledge equations, the oracle and the
symbolic executor all read that row, so adding an opcode is adding a row.
The leak model is kept apart, in `transmissions` here and in the oracle's
observation rules: `load` (address, may run speculatively), `store` (address
only, non-speculative), `br` (condition, non-speculative) and the explicit
`transmit`.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field

MASK32 = 0xFFFFFFFF
INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1


def to_i32(v: int) -> int:
    """Canonical signed 32-bit value."""
    v &= MASK32
    return v - (1 << 32) if v > INT32_MAX else v


@dataclass(frozen=True, slots=True)
class Op:
    """Everything the pipeline knows about one opcode but its leak model.

    output: the instruction defines a variable. arity: the operand count, -1
    when it varies (phi arms, call arguments, ret's optional value). eval: the
    concrete semantics, from the list of operand values to the result, on
    canonical signed 32-bit values; None when the opcode has no defining
    equation y = f(x1..xN).
    backward: the operand positions R3 recovers from the output and the other
    operands. labels: the operand positions that hold block labels, which
    come after every other operand.
    """

    output: bool
    arity: int
    eval: Callable | None = None
    backward: tuple[int, ...] = ()
    labels: tuple[int, ...] = ()


OPCODES = {
    "const": Op(True, 1, lambda x: to_i32(x[0])),
    "input": Op(True, 0),
    "add": Op(True, 2, lambda x: to_i32(x[0] + x[1]), (0, 1)),
    "sub": Op(True, 2, lambda x: to_i32(x[0] - x[1]), (0, 1)),
    "neg": Op(True, 1, lambda x: to_i32(-x[0]), (0,)),
    "xor": Op(True, 2, lambda x: to_i32(x[0] ^ x[1]), (0, 1)),
    "not": Op(True, 1, lambda x: to_i32(~x[0]), (0,)),
    "mul": Op(True, 2, lambda x: to_i32(x[0] * x[1])),
    "and": Op(True, 2, lambda x: to_i32(x[0] & x[1])),
    "or": Op(True, 2, lambda x: to_i32(x[0] | x[1])),
    "shl": Op(True, 2, lambda x: to_i32(x[0] << (x[1] & 31))),
    "eq": Op(True, 2, lambda x: 1 if x[0] == x[1] else 0),
    "lt": Op(True, 2, lambda x: 1 if x[0] < x[1] else 0),
    # x[0] + x[1] * x[2]: recovering the index would need exact division, so
    # only the base is recoverable.
    "gep": Op(True, 3, lambda x: to_i32(x[0] + x[1] * x[2]), (0,)),
    "load": Op(True, 1),
    "store": Op(False, 2),
    "transmit": Op(False, 1),
    "phi": Op(True, -1),
    "call": Op(True, -1),
    "specbarr": Op(False, 0),
    "br": Op(False, 3, labels=(1, 2)),
    "jmp": Op(False, 1, labels=(0,)),
    "ret": Op(False, -1),
}
TERMINATORS = {"br", "jmp", "ret"}

class IRError(Exception):
    """Problem with the textual IR (syntax or structure)."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}: {message}" if col is None else f"line {line}, col {col}: {message}"
        super().__init__(message)


@dataclass
class Instruction:
    """One non-terminator or terminator instruction.

    operands holds variable names (str) or literals (int). For phi, operands
    pairs up with phi_labels (incoming predecessor label per operand). For
    call, callee names the target and operands are the arguments.
    """

    opcode: str
    output: str | None = None
    operands: list = field(default_factory=list)
    phi_labels: list = field(default_factory=list)
    callee: str | None = None
    line: int = 0

    def var_operands(self) -> list[str]:
        """The variables among the operands: every name but block labels."""
        ops = self.operands
        labels = OPCODES[self.opcode].labels
        if labels:
            ops = ops[:labels[0]]
        return [o for o in ops if isinstance(o, str)]

    def copy(self) -> "Instruction":
        return Instruction(self.opcode, self.output, list(self.operands),
                           list(self.phi_labels), self.callee, self.line)


@dataclass
class Block:
    label: str
    instructions: list[Instruction] = field(default_factory=list)
    terminator: Instruction | None = None
    line: int = 0

    def phis(self) -> list[Instruction]:
        return [i for i in self.instructions if i.opcode == "phi"]

    def successor_labels(self) -> list[str]:
        t = self.terminator
        if t is None:
            return []
        labels = OPCODES[t.opcode].labels
        return t.operands[labels[0]:] if labels else []

    def defined_vars(self) -> set[str]:
        return {i.output for i in self.instructions if i.output is not None}

    def copy(self) -> "Block":
        b = Block(self.label, [i.copy() for i in self.instructions], None, self.line)
        if self.terminator is not None:
            b.terminator = self.terminator.copy()
        return b


@dataclass
class Function:
    name: str
    params: list[str]
    blocks: list[Block]
    line: int = 0

    @property
    def entry_block(self) -> str:
        return self.blocks[0].label

    def block(self, label: str) -> Block:
        for b in self.blocks:
            if b.label == label:
                return b
        raise KeyError(label)

    def block_map(self) -> dict[str, Block]:
        return {b.label: b for b in self.blocks}

    def defined_vars(self) -> set[str]:
        out = set(self.params)
        for b in self.blocks:
            out |= b.defined_vars()
        return out

    def instructions(self):
        for b in self.blocks:
            for i in b.instructions:
                yield b, i

    def copy(self) -> "Function":
        return Function(self.name, list(self.params), [b.copy() for b in self.blocks], self.line)


@dataclass
class Program:
    functions: list[Function]

    @property
    def entry_function(self) -> str | None:
        return self.functions[0].name if self.functions else None

    def function(self, name: str) -> Function:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)

    def function_names(self) -> list[str]:
        return [f.name for f in self.functions]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# One token after any spaces and tabs: an identifier, an integer or any other
# character. findall gives each as the triple of the three groups, in which
# only the one that matched is not empty.
_TOKEN = re.compile(r"[ \t]*(?:([A-Za-z_][A-Za-z0-9_.]*)|(-?[0-9]+)|([^ \t]))")


class _Line:
    """The tokens of one source line and a cursor over those before `stop`."""

    def __init__(self, text: str, line: int):
        self.text, self.line = text, line
        self.toks = _TOKEN.findall(text)
        self.pos, self.stop = 0, len(self.toks)

    def error(self, msg: str) -> IRError:
        """The error at the cursor's token, or one past the line's last token."""
        spans = [m.span(m.lastindex) for m in _TOKEN.finditer(self.text)]
        col = spans[self.pos][0] if self.pos < len(spans) else spans[-1][1]
        return IRError(msg, self.line, col + 1)

    def peek(self, k: int = 0) -> tuple[str, str, str]:
        return self.toks[self.pos + k] if self.pos + k < self.stop else ("", "", "")

    def at_end(self) -> bool:
        return self.pos >= self.stop

    def ident(self) -> str:
        name = self.peek()[0]
        if not name:
            raise self.error("expected identifier")
        self.pos += 1
        return name

    def integer(self) -> int:
        digits = self.peek()[1]
        if not digits:
            raise self.error("expected integer")
        if len(digits.lstrip("-")) > 4300:  # int()'s default limit, on every Python
            raise self.error("integer literal of more than 4300 digits")
        self.pos += 1
        return to_i32(int(digits))

    def operand(self) -> str | int:
        name, digits, char = self.peek()
        if not (name or digits or char):
            raise self.error("expected operand")
        if digits or char == "-" or char.isdigit():  # a digit of any script starts an integer
            return self.integer()
        return self.ident()

    def accept(self, ch: str) -> bool:
        if self.peek()[2] != ch:
            return False
        self.pos += 1
        return True

    def expect(self, ch: str):
        if not self.accept(ch):
            raise self.error(f"expected '{ch}'")

    def parenthesized(self, take: Callable) -> list:
        """`(item, ...)`, each item read by `take`."""
        self.expect("(")
        out: list = []
        while not self.accept(")"):
            if out:
                self.expect(",")
            out.append(take())
        return out


def parse_program(text: str) -> Program:
    """Parse and validate (validate_ssa) mini-IR source; IRError names the line of a fault."""
    functions: list[Function] = []
    fn: Function | None = None  # the function whose `}` is still to come
    for lineno, raw in enumerate(text.splitlines(), 1):
        raw = raw.partition("#")[0].rstrip()
        if not raw:
            continue
        toks = _Line(raw, lineno)
        if fn is None:
            if toks.ident() != "fn":
                toks.pos -= 1
                raise toks.error("expected 'fn'")
            fn = Function(toks.ident(), toks.parenthesized(toks.ident), [], lineno)
            toks.expect("{")
            functions.append(fn)
        while toks.peek()[2].isspace():  # U+00A0 and the like, which str.strip drops
            toks.pos += 1
        closes = raw.endswith("}")
        if closes:  # the function ends: stop before the `}` and the space ahead of it
            toks.stop = len(_TOKEN.findall(raw[:-1].rstrip()))
        blocks = fn.blocks
        if toks.peek()[0] and toks.peek(1)[2] == ":":
            if blocks and blocks[-1].terminator is None:
                raise IRError(f"block '{blocks[-1].label}' has no terminator", blocks[-1].line)
            blocks.append(Block(toks.ident(), line=lineno))
            toks.pos += 1
        if not toks.at_end():
            if not blocks:
                raise toks.error("instruction outside a block (missing label?)")
            if blocks[-1].terminator is not None:
                raise toks.error(f"instruction after terminator in block '{blocks[-1].label}'")
            ins = _parse_instruction(toks)
            if ins.opcode in TERMINATORS:
                blocks[-1].terminator = ins
            else:
                blocks[-1].instructions.append(ins)
        if closes:
            if not blocks:
                raise IRError(f"function '{fn.name}' has no blocks", fn.line)
            if blocks[-1].terminator is None:
                raise IRError(f"block '{blocks[-1].label}' has no terminator", blocks[-1].line)
            fn = None
    if fn is not None:
        raise IRError(f"unclosed function '{fn.name}'", fn.line)

    program = Program(functions)
    issues = validate_ssa(program).issues
    if issues:
        raise IRError(issues[0].message, issues[0].line)
    return program


def _parse_instruction(toks: _Line) -> Instruction:
    """`v = opcode operands` for an opcode with an output, `opcode operands`
    for one without; a phi, a call and a const have their own operand forms,
    the others read the table's arity, with a label at each label position."""
    first = toks.ident()
    op = OPCODES.get(first)
    if op is not None and not op.output:
        opcode, output = first, None
    else:
        toks.expect("=")
        opcode, output = toks.ident(), first
        op = OPCODES.get(opcode)
        if op is None or not op.output:
            toks.pos -= 1  # point at the opcode
            raise toks.error(f"unknown opcode '{opcode}'" if op is None
                             else f"'{opcode}' produces no output")
    ins = Instruction(opcode, output=output, line=toks.line)

    if opcode == "phi":
        while not ins.operands or toks.accept(","):
            toks.expect("[")
            ins.operands.append(toks.operand())
            toks.expect(",")
            ins.phi_labels.append(toks.ident())
            toks.expect("]")
    elif opcode == "call":
        ins.callee = toks.ident()
        ins.operands = toks.parenthesized(toks.operand)
    elif opcode == "const":
        ins.operands = [toks.integer()]
    else:
        arity, labels = op.arity, op.labels
        if arity < 0:  # ret, whose value is optional
            arity = 0 if toks.at_end() else 1
        for k in range(arity):
            if k:
                toks.expect(",")
            ins.operands.append(toks.ident() if k in labels else toks.operand())
        if opcode == "gep" and not isinstance(ins.operands[2], int):
            toks.pos -= 1  # point at the scale
            raise toks.error("gep scale must be a literal")
    if not toks.at_end():
        raise toks.error("unexpected trailing text")
    return ins


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationIssue:
    kind: str
    message: str
    function: str | None = None
    block: str | None = None
    line: int | None = None


@dataclass
class ValidationReport:
    issues: list[ValidationIssue] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.issues

    def add(self, kind: str, message: str, function=None, block=None, line=None):
        self.issues.append(ValidationIssue(kind, message, function, block, line))


@dataclass
class DomInfo:
    """Dominator tree of the blocks reachable from the entry: order is their
    reverse postorder, idom each one's immediate dominator (the entry's is
    itself) and depths each one's depth in the tree (the entry's is 0).
    Unreachable blocks are dominated by nothing."""
    order: list[str]
    idom: dict[str, str]
    depths: dict[str, int]

    def dom(self, a: str, b: str) -> bool:
        da = self.depths.get(a)
        if da is None or b not in self.depths:
            return False
        while self.depths[b] > da:
            b = self.idom[b]
        return a == b

    def dominated_by(self, a: str) -> set[str]:
        below: set[str] = set()
        for b in self.order:  # a dominator comes before the blocks it dominates
            if b == a or self.idom[b] in below:
                below.add(b)
        return below

    def depth(self, b: str) -> int:
        return self.depths[b]


def dominator_tree(succs: dict[str, list[str]], entry: str) -> DomInfo:
    """Dominator tree of the graph `succs` (block -> successor blocks): one
    depth-first walk from entry, then the iteration of Cooper, Harvey and
    Kennedy ("A Simple, Fast Dominance Algorithm", 2001) over its reverse
    postorder."""
    post: list[str] = []
    seen = {entry}
    stack = [(entry, iter(succs[entry]))]
    while stack:
        b, pending = stack[-1]
        for s in pending:
            if s not in seen:
                seen.add(s)
                stack.append((s, iter(succs[s])))
                break
        else:
            stack.pop()
            post.append(b)
    order = post[::-1]
    rank = {b: i for i, b in enumerate(order)}
    preds: dict[str, list[str]] = {b: [] for b in order}
    for b in order:
        for s in succs[b]:
            preds[s].append(b)

    idom = {entry: entry}
    changed = True
    while changed:
        changed = False
        for b in order[1:]:
            new = None
            for p in preds[b]:
                if p not in idom:
                    continue
                while new is not None and p != new:  # meet the two tree paths
                    while rank[p] > rank[new]:
                        p = idom[p]
                    while rank[new] > rank[p]:
                        new = idom[new]
                new = p
            if idom.get(b) != new:
                idom[b] = new
                changed = True
    depths = {entry: 0}
    for b in order[1:]:
        depths[b] = depths[idom[b]] + 1
    return DomInfo(order, idom, depths)


def callees_first(program: Program) -> tuple[list[str], str | None]:
    """Iterative depth-first walk of the call graph from every function, in
    program order, listing each function after its callees.

    Calls to unknown functions are skipped. Returns the order and, if a cycle
    is reachable, the root whose walk found it (the order is then partial).
    """
    calls: dict[str, list[str]] = {}
    for f in program.functions:
        outs = calls.setdefault(f.name, [])
        for _, ins in f.instructions():
            if ins.opcode == "call" and ins.callee not in outs:
                outs.append(ins.callee)
    order: list[str] = []
    done: set[str] = set()
    for root in calls:
        if root in done:
            continue
        on_path = {root}
        stack = [(root, iter(calls[root]))]
        while stack:
            name, pending = stack[-1]
            for c in pending:
                if c in on_path:
                    return order, root
                if c in calls and c not in done:
                    on_path.add(c)
                    stack.append((c, iter(calls[c])))
                    break
            else:
                stack.pop()
                on_path.discard(name)
                done.add(name)
                order.append(name)
    return order, None


def validate_ssa(program: Program) -> ValidationReport:
    """Check program- and function-level invariants; returns found violations."""
    report = ValidationReport()

    seen_fn: set[str] = set()
    for f in program.functions:
        if f.name in seen_fn:
            report.add("duplicate-function", f"duplicate function '{f.name}'", f.name, line=f.line)
        seen_fn.add(f.name)

    by_name = {f.name: f for f in reversed(program.functions)}  # first wins
    for f in program.functions:
        for _, ins in f.instructions():
            if ins.opcode == "call":
                callee = by_name.get(ins.callee)
                if callee is None:
                    report.add("unknown-callee", f"unknown callee '{ins.callee}'", f.name, line=ins.line)
                elif len(ins.operands) != len(callee.params):
                    report.add("call-arity",
                               f"call to '{ins.callee}' passes {len(ins.operands)} args, "
                               f"expected {len(callee.params)}", f.name, line=ins.line)

    # call graph must be acyclic (no recursion)
    cyclic = callees_first(program)[1]
    if cyclic is not None:
        report.add("recursion", "call graph has a cycle (recursion is rejected)", cyclic)

    for f in program.functions:
        _validate_function(f, report)
    return report


def _validate_function(f: Function, report: ValidationReport):
    labels = [b.label for b in f.blocks]
    label_set = set(labels)
    if len(labels) != len(label_set):
        for i, b in enumerate(f.blocks):
            if b.label in labels[:i]:
                report.add("duplicate-label", f"duplicate block label '{b.label}'", f.name,
                           b.label, b.line)
        return

    block_of_def: dict[str, str | None] = {p: None for p in f.params}
    def_index: dict[str, int] = {}
    for i, p in enumerate(f.params):
        if p in f.params[:i]:
            report.add("duplicate-definition", f"duplicate parameter '{p}'", f.name, line=f.line)
    for b in f.blocks:
        for idx, ins in enumerate(b.instructions):
            if ins.output is None:
                continue
            if ins.output in block_of_def:
                report.add("duplicate-definition", f"duplicate definition of '{ins.output}'",
                           f.name, b.label, ins.line)
            block_of_def[ins.output] = b.label
            def_index[ins.output] = idx

    succs = {b.label: [] for b in f.blocks}
    for b in f.blocks:
        for s in b.successor_labels():
            if s not in label_set:
                report.add("unknown-label", f"unknown label '{s}'", f.name, b.label, b.terminator.line)
            else:
                succs[b.label].append(s)

    preds: dict[str, list[str]] = {l: [] for l in labels}
    for l, ss in succs.items():
        for s in ss:
            preds[s].append(l)

    entry = f.entry_block
    if preds[entry]:
        report.add("entry-has-preds", f"entry block '{entry}' has predecessors {sorted(set(preds[entry]))}",
                   f.name, entry, f.blocks[0].line)

    dom = dominator_tree(succs, entry)

    # phi placement: only as a prefix of the block
    for b in f.blocks:
        seen_non_phi = False
        for ins in b.instructions:
            if ins.opcode == "phi":
                if seen_non_phi:
                    report.add("phi-not-prefix", "phi after non-phi instruction", f.name, b.label, ins.line)
            else:
                seen_non_phi = True

    for b in f.blocks:
        bpreds = sorted(set(preds[b.label]))
        body = b.instructions if b.terminator is None else b.instructions + [b.terminator]
        for pos, ins in enumerate(body):
            if ins.opcode == "phi":
                if sorted(ins.phi_labels) != bpreds:
                    report.add("phi-arity",
                               f"phi incoming labels {sorted(ins.phi_labels)} do not match "
                               f"predecessors {bpreds}", f.name, b.label, ins.line)
                for op, lab in zip(ins.operands, ins.phi_labels):
                    if not isinstance(op, str):
                        continue
                    if op not in block_of_def:
                        report.add("undefined-use", f"use of undefined '{op}'", f.name, b.label, ins.line)
                        continue
                    db = block_of_def[op]
                    if db is not None and lab in dom.depths and not dom.dom(db, lab):
                        report.add("phi-input-not-prior",
                                   f"phi input '{op}' not defined prior to block '{b.label}' "
                                   f"(via predecessor '{lab}')", f.name, b.label, ins.line)
                continue
            for op in ins.var_operands():
                if op not in block_of_def:
                    report.add("undefined-use", f"use of undefined '{op}'", f.name, b.label, ins.line)
                    continue
                db = block_of_def[op]
                if db is None:
                    continue  # parameter: defined at entry
                if db == b.label:
                    if def_index[op] >= pos:
                        report.add("use-not-dominated",
                                   f"use of '{op}' before its definition", f.name, b.label, ins.line)
                elif b.label in dom.depths and not dom.dom(db, b.label):
                    report.add("use-not-dominated",
                               f"use of '{op}' not dominated by its definition", f.name, b.label, ins.line)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _fmt_instruction(ins: Instruction) -> str:
    if ins.opcode == "phi":
        arms = ", ".join(f"[{o}, {l}]" for o, l in zip(ins.operands, ins.phi_labels))
        return f"{ins.output} = phi {arms}"
    if ins.opcode == "call":
        args = ", ".join(map(str, ins.operands))
        return f"{ins.output} = call {ins.callee}({args})"
    if ins.opcode == "specbarr":
        return "specbarr"
    ops = ", ".join(map(str, ins.operands))
    if ins.output is not None:
        return f"{ins.output} = {ins.opcode} {ops}".rstrip()
    return f"{ins.opcode} {ops}".rstrip()


def pretty_print(program: Program) -> str:
    """Canonical text form; parse(pretty_print(p)) is structurally equal to p."""
    out: list[str] = []
    for f in program.functions:
        out.append(f"fn {f.name}({', '.join(f.params)}) {{")
        for b in f.blocks:
            out.append(f"{b.label}:")
            for ins in b.instructions:
                out.append(f"  {_fmt_instruction(ins)}")
            out.append(f"  {_fmt_instruction(b.terminator)}")
        out.append("}")
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# Transmitter model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Transmission:
    """One transmitter occurrence: which operand value escapes, and whether the
    instruction can execute under speculation."""

    block: str
    opcode: str
    operand: "str | int"
    speculative: bool


def transmissions(f: Function, transmit_speculative: bool = True) -> list[Transmission]:
    """All transmitter occurrences in f.

    load leaks its address and may run speculatively; store leaks only the
    address, non-speculatively; br leaks its condition, non-speculatively;
    transmit leaks its operand (speculative unless configured otherwise).
    """
    out: list[Transmission] = []
    for b in f.blocks:
        for ins in b.instructions:
            if ins.opcode == "load":
                out.append(Transmission(b.label, "load", ins.operands[0], True))
            elif ins.opcode == "store":
                out.append(Transmission(b.label, "store", ins.operands[1], False))
            elif ins.opcode == "transmit":
                out.append(Transmission(b.label, "transmit", ins.operands[0], transmit_speculative))
        t = b.terminator
        if t is not None and t.opcode == "br":
            out.append(Transmission(b.label, "br", t.operands[0], False))
    return out
