"""Textual SSA mini-IR: the opcode table, types, parser, validator, printer
and transmitter model, and the dominator tree that the validator and the CFG
share.

The language is line-oriented: one instruction per line, `#` starts a comment.

    fn name(a, b) {
    B1:
      v = const 7
      w = add a, v
      transmit w
      br w, B2, B3
    ...
    }

Operands are either variable names or integer literals. Integers are 32-bit
two's-complement.

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

Operand = "str | int"  # variable name or 32-bit literal


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

    def is_terminator(self) -> bool:
        return self.opcode in TERMINATORS

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

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_INT = re.compile(r"-?[0-9]+")


class _Lexer:
    """Tokenizes one line into identifiers, integers and punctuation."""

    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.pos = 0

    def error(self, msg: str) -> IRError:
        return IRError(msg, self.line, self.pos + 1)

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str | None:
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_ident(self) -> str:
        self._skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            raise self.error("expected identifier")
        self.pos = m.end()
        return m.group()

    def take_int(self) -> int:
        self._skip_ws()
        m = _INT.match(self.text, self.pos)
        if not m:
            raise self.error("expected integer")
        self.pos = m.end()
        return to_i32(int(m.group()))

    def take_operand(self):
        c = self.peek()
        if c is None:
            raise self.error("expected operand")
        if c == "-" or c.isdigit():
            return self.take_int()
        return self.take_ident()

    def expect(self, ch: str):
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def accept(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def at_end(self) -> bool:
        return self.peek() is None


def _strip_comment(line: str) -> str:
    idx = line.find("#")
    return line if idx < 0 else line[:idx]


def parse_program(text: str) -> Program:
    """Parse mini-IR source. Raises IRError with line/column on bad syntax."""
    functions: list[Function] = []
    lines = text.splitlines()
    i = 0
    n = len(lines)

    def next_content(j: int) -> int:
        while j < n and not _strip_comment(lines[j]).strip():
            j += 1
        return j

    while True:
        i = next_content(i)
        if i >= n:
            break
        lex = _Lexer(_strip_comment(lines[i]), i + 1)
        kw = lex.take_ident()
        if kw != "fn":
            raise lex.error("expected 'fn'")
        name = lex.take_ident()
        lex.expect("(")
        params: list[str] = []
        if not lex.accept(")"):
            while True:
                params.append(lex.take_ident())
                if lex.accept(")"):
                    break
                lex.expect(",")
        lex.expect("{")
        fn_line = i + 1
        body_lines: list[tuple[int, str]] = []
        inline = lex.text[lex.pos:].strip()
        i += 1
        closed = False
        if inline:
            if inline.endswith("}"):
                closed = True
                inline = inline[:-1].strip()
            if inline:
                body_lines.append((fn_line, inline))
        while not closed and i < n:
            raw = _strip_comment(lines[i]).strip()
            if raw == "}":
                closed = True
            elif raw.endswith("}"):
                body_lines.append((i + 1, raw[:-1].strip()))
                closed = True
            elif raw:
                body_lines.append((i + 1, raw))
            i += 1

        blocks: list[Block] = []
        current: Block | None = None
        for lineno, raw in body_lines:
            lex = _Lexer(raw, lineno)
            # A new block starts at `LABEL:`.
            save = lex.pos
            try:
                label = lex.take_ident()
                is_label = lex.accept(":")
            except IRError:
                is_label = False
            if is_label:
                if current is not None and current.terminator is None:
                    raise IRError(f"block '{current.label}' has no terminator", current.line)
                current = Block(label, line=lineno)
                blocks.append(current)
                if lex.at_end():
                    continue
                # allow an instruction on the label line
            else:
                lex.pos = save
            if current is None:
                raise lex.error("instruction outside a block (missing label?)")
            if current.terminator is not None:
                raise lex.error(f"instruction after terminator in block '{current.label}'")
            instr = _parse_instruction(lex)
            if instr.is_terminator():
                current.terminator = instr
            else:
                current.instructions.append(instr)
        if not closed:
            raise IRError(f"unclosed function '{name}'", fn_line)
        if not blocks:
            raise IRError(f"function '{name}' has no blocks", fn_line)
        if blocks[-1].terminator is None:
            raise IRError(f"block '{blocks[-1].label}' has no terminator", blocks[-1].line)
        functions.append(Function(name, params, blocks, fn_line))

    program = Program(functions)
    issues = validate_ssa(program).issues
    if issues:
        raise IRError(issues[0].message, issues[0].line)
    return program


def _parse_instruction(lex: _Lexer) -> Instruction:
    """`v = opcode operands` for an opcode with an output, `opcode operands`
    for one without; a phi, a call and a const have their own operand forms,
    the others read the table's arity, with a label at each label position."""
    first = lex.take_ident()
    op = OPCODES.get(first)
    if op is not None and not op.output:
        opcode, output = first, None
    else:
        lex.expect("=")
        opcode, output = lex.take_ident(), first
        op = OPCODES.get(opcode)
        if op is None:
            raise lex.error(f"unknown opcode '{opcode}'")
        if not op.output:
            raise lex.error(f"'{opcode}' produces no output")
    ins = Instruction(opcode, output=output, line=lex.line)

    if opcode == "phi":
        while True:
            lex.expect("[")
            ins.operands.append(lex.take_operand())
            lex.expect(",")
            ins.phi_labels.append(lex.take_ident())
            lex.expect("]")
            if not lex.accept(","):
                break
    elif opcode == "call":
        ins.callee = lex.take_ident()
        lex.expect("(")
        if not lex.accept(")"):
            while True:
                ins.operands.append(lex.take_operand())
                if lex.accept(")"):
                    break
                lex.expect(",")
    elif opcode == "const":
        ins.operands = [lex.take_int()]
    else:
        arity, labels = op.arity, op.labels
        if arity < 0:  # ret, whose value is optional
            arity = 0 if lex.at_end() else 1
        for k in range(arity):
            if k:
                lex.expect(",")
            ins.operands.append(lex.take_ident() if k in labels else lex.take_operand())
        if opcode == "gep" and not isinstance(ins.operands[2], int):
            raise lex.error("gep scale must be a literal")
    if not lex.at_end():
        raise lex.error("unexpected trailing text")
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


def callees_first(program: Program,
                  roots: list[str] | None = None) -> tuple[list[str], str | None]:
    """Iterative depth-first walk of the call graph from `roots` (default: every
    function, in program order), listing each function after its callees.

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
    for root in (calls if roots is None else roots):
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
        dupes = {l for l in labels if labels.count(l) > 1}
        for d in sorted(dupes):
            report.add("duplicate-label", f"duplicate block label '{d}'", f.name, d)
        return

    block_of_def: dict[str, str | None] = {p: None for p in f.params}
    def_index: dict[str, int] = {}
    for p in f.params:
        if f.params.count(p) > 1:
            report.add("duplicate-definition", f"duplicate parameter '{p}'", f.name)
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
                   f.name, entry)

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
                    if db is not None and lab in label_set and not dom.dom(db, lab):
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
                elif not dom.dom(db, b.label):
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
