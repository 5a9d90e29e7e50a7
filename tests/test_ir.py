import itertools
import random
import re

import pytest

from declassiflow.cfg import expand_loops
from declassiflow.cli import main
from declassiflow.ir import (INT32_MAX, INT32_MIN, OPCODES, TERMINATORS, Block, Function,
                             Instruction, IRError, Program, parse_program, pretty_print, to_i32,
                             transmissions, validate_ssa)
from declassiflow.knowledge import AnalysisError, equations
from declassiflow.oracle import OracleError, eval_op, input_slots
from declassiflow.pipeline import call_order

from conftest import FIXTURES, fixture_program, fixture_text
from generators import call_chain, random_acyclic_program, random_loop_program, segments


def structurally_equal(a: Program, b: Program) -> bool:
    return pretty_print(a) == pretty_print(b)


def test_phi_parse():
    p = parse_program("""
fn f() {
B2:
  b1 = input
  jmp B3
B4:
  b2 = input
  jmp B3
B3:
  b3 = phi [b1, B2], [b2, B4]
  ret
}
""".replace("B2:", "B0:\n  c = input\n  br c, B2, B4\nB2:"))
    phi = [i for _, i in p.functions[0].instructions() if i.opcode == "phi"]
    assert len(phi) == 1
    assert len(phi[0].operands) == 2
    assert phi[0].phi_labels == ["B2", "B4"]


def test_empty_function():
    p = parse_program("fn f() { entry: ret }")
    f = p.functions[0]
    assert len(f.blocks) == 1
    assert f.blocks[0].instructions == []
    assert pretty_print(p) == "fn f() {\nentry:\n  ret\n}\n"


def test_use_before_definition_rejected():
    with pytest.raises(IRError, match="before its definition"):
        parse_program("""
fn f() {
entry:
  x = add x, 1
  ret
}
""")


def test_syntax_error_carries_position():
    # 1-based columns in the source line, at the offending token or one past
    # the line's last token
    cases = {
        "fn f(a) {\nB1:\n    x = add a,, 1\n  ret\n}\n": "line 3, col 15: expected identifier",
        "fn f() {\nentry:\n  x = bogus 1\n  ret\n}\n": "line 3, col 7: unknown opcode 'bogus'",
        "fn f(a) {\nB1:\n\tx = add a,, 1\n  ret\n}\n": "line 3, col 12: expected identifier",
        "fn f() { B1: x = bogus 1 }": "line 1, col 18: unknown opcode 'bogus'",
        "fn f(a) {\nB1:\n  x = add a,\n  ret\n}\n": "line 3, col 13: expected operand",
    }
    for text, message in cases.items():
        with pytest.raises(IRError) as err:
            parse_program(text)
        assert str(err.value) == message


def test_unknown_label_and_callee():
    with pytest.raises(IRError, match="unknown label"):
        parse_program("fn f() {\nB1:\n  jmp NOPE\n}\n")
    with pytest.raises(IRError, match="unknown callee"):
        parse_program("fn f() {\nB1:\n  v = call g()\n  ret\n}\n")


def test_recursion_rejected():
    with pytest.raises(IRError, match="cycle"):
        parse_program("""
fn a() {
B1:
  v = call b()
  ret
}
fn b() {
B1:
  w = call a()
  ret
}
""")


FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.mir"))
CORPORA = {
    "segments": lambda: [segments(k) for k in range(1, 9)],
    "call_chain": lambda: [call_chain(6)],
    "acyclic": lambda: [random_acyclic_program(random.Random(s)) for s in range(300)],
    "loop-rich": lambda: [random_loop_program(random.Random(s)) for s in range(100)],
}


def corpus_texts(name: str) -> list[str]:
    return CORPORA[name]() if name in CORPORA else [fixture_text(name)]


@pytest.mark.parametrize("name", FIXTURE_NAMES + list(CORPORA))
def test_roundtrip(name):
    for text in corpus_texts(name):
        p = parse_program(text)
        again = parse_program(pretty_print(p))
        assert structurally_equal(p, again)


def test_specbarr_preserved():
    text = "fn f() {\nB1:\n  specbarr\n  ret\n}\n"
    p = parse_program(text)
    assert "specbarr" in pretty_print(p)
    assert structurally_equal(p, parse_program(pretty_print(p)))


def test_validate_clean_fixture():
    assert validate_ssa(fixture_program("diamond_linked")).ok()


def test_validate_duplicate_definition():
    text = fixture_text("diamond_linked").replace("x2 = mul x1, 3", "x1 = mul x1, 3")
    with pytest.raises(IRError, match="duplicate definition"):
        parse_program(text)


def test_validate_phi_input_in_own_block():
    with pytest.raises(IRError, match="not defined prior"):
        parse_program("""
fn f() {
B1:
  c = input
  br c, B2, B3
B2:
  jmp B3
B3:
  y = phi [c, B1], [z, B2]
  z = add y, 1
  ret
}
""")


@pytest.mark.parametrize("text,error,line", [
    ("fn f() {\nB1:\n  ret\n}\nfn f() {\nB1:\n  ret\n}",
     "line 5: duplicate function 'f'", 5),
    ("fn f() {\nB1:\n  r = call g(1)\n  ret\n}\nfn g(a, b) {\nB1:\n  ret\n}",
     "line 3: call to 'g' passes 1 args, expected 2", 3),
    ("fn f() {\nB1:\n  jmp B2\nB1:\n  ret\nB2:\n  ret\n}",
     "line 4: duplicate block label 'B1'", 4),
    ("fn f() {\nB1:\n  jmp B1\n}", "line 2: entry block 'B1' has predecessors ['B1']", 2),
    ("fn f() {\nB1:\n  jmp B2\nB2:\n  a = const 1\n  x = phi [a, B1]\n  ret\n}",
     "line 6: phi after non-phi instruction", 6),
    ("fn f(a, a) {\nB1:\n  ret\n}", "line 1: duplicate parameter 'a'", 1),
    ("fn f(p, i, s) {\nB1:\n  x = gep p, i, s\n  ret\n}",
     "line 3, col 17: gep scale must be a literal", 3),
], ids=["duplicate-function", "call-arity", "duplicate-label", "entry-has-preds",
        "phi-not-prefix", "duplicate-parameter", "gep-scale"])
def test_validator_issue_kinds(tmp_path, capsys, text, error, line):
    """Each case is the smallest program with one fault: parse_program raises
    it with its line, and the CLI exits 2."""
    with pytest.raises(IRError) as info:
        parse_program(text)
    assert (str(info.value), info.value.line) == (error, line)
    src = tmp_path / "bad.mir"
    src.write_text(text)
    assert main(["analyze", str(src)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_validate_catches_single_mutations():
    # each single invariant-breaking edit is reported
    base = fixture_text("anticorrelated")
    mutations = [
        base.replace("nq = eq q, 0", "q = eq q, 0"),          # duplicate def
        base.replace("transmit x\n  jmp B3", "transmit y\n  jmp B3"),  # undefined use
        base.replace("br q, B2, B3", "br q, B2, B9"),          # unknown label
    ]
    for text in mutations:
        with pytest.raises(IRError):
            parse_program(text)


# Pinned solvability: every opcode here is forward solvable, with these
# operand positions recoverable backward (R3); no other opcode has an equation.
SOLVABLE_BACKWARD = {
    "const": set(), "add": {0, 1}, "sub": {0, 1}, "xor": {0, 1}, "neg": {0},
    "not": {0}, "mul": set(), "and": set(), "or": set(), "shl": set(),
    "eq": set(), "lt": set(), "gep": {0},
}


def test_solvability_table():
    assert {name: set(op.backward) for name, op in OPCODES.items()
            if op.eval is not None} == SOLVABLE_BACKWARD


def test_solvability_total_and_consistent():
    for name, op in OPCODES.items():
        assert list(op.backward) == sorted(set(op.backward)), name
        assert all(0 <= pos < op.arity for pos in op.backward), name
        assert not op.backward or op.eval is not None, name
        # labels come last: var_operands and successor_labels slice them off
        assert op.labels == tuple(range(op.arity - len(op.labels), op.arity)), name
        assert not op.labels or name in TERMINATORS, name
    assert TERMINATORS <= set(OPCODES)


def test_solvability_rejects_non_deterministic():
    for name in ("input", "load", "store", "transmit", "phi", "call", "specbarr",
                 "br", "jmp", "ret"):
        assert OPCODES[name].eval is None
        with pytest.raises(OracleError, match="not a deterministic opcode"):
            eval_op(name, [0])
    f = parse_program("fn f(a) {\nB1:\n  w = load a\n  x = sub w, a\n  ret\n}\n").functions[0]
    named = [("x", ("w", "a"), (("w", ("a",)), ("a", ("w",))))]
    ix = expand_loops(f).index
    assert [(ix.decode(out), ix.decode(need), [(ix.decode(t), ix.decode(o)) for t, o in back])
            for out, need, back in equations(f, ix)] == [
        ({out}, set(need), [({t}, set(o)) for t, o in back]) for out, need, back in named]


def reference_eval(opcode: str, args: list[int]) -> int:
    """Reference semantics, one branch per opcode, kept apart from the table."""
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
    raise AssertionError(f"no reference semantics for {opcode}")


def test_table_semantics_match_reference():
    edges = [INT32_MIN, INT32_MAX, -1, 0, 1, 31, 32, 33]
    rng = random.Random(13)
    deterministic = [name for name, op in OPCODES.items() if op.eval is not None]
    assert set(deterministic) == set(SOLVABLE_BACKWARD)
    for name in deterministic:
        arity = OPCODES[name].arity
        cases = list(itertools.product(edges, repeat=arity))
        cases += [tuple(to_i32(rng.getrandbits(32)) for _ in range(arity))
                  for _ in range(500)]
        for args in cases:
            want = reference_eval(name, list(args))
            assert eval_op(name, list(args)) == want, (name, args)
            assert OPCODES[name].eval(list(args)) == want, (name, args)


@pytest.mark.parametrize("line", ["x = store a, p", "x = br c, B1, B1", "x = specbarr",
                                  "x = ret"])
def test_output_of_opcode_without_one_rejected(line):
    opcode = line.split()[2]
    with pytest.raises(IRError, match=f"line 3, col 7: '{opcode}' produces no output"):
        parse_program(f"fn f(a, p, c) {{\nB1:\n  {line}\n  ret\n}}\n")
    with pytest.raises(IRError, match="unknown opcode 'bogus'"):
        parse_program("fn f(a) {\nB1:\n  x = bogus a\n  ret\n}\n")


def test_transmitter_model():
    p = parse_program("""
fn f(v, a) {
B1:
  w = load a
  store v, a
  transmit v
  br v, B2, B2
B2:
  ret
}
""")
    ts = {(t.opcode, t.operand, t.speculative) for t in transmissions(p.functions[0])}
    assert ("load", "a", True) in ts
    assert ("store", "a", False) in ts  # the address leaks, not the value
    assert ("transmit", "v", True) in ts
    assert ("br", "v", False) in ts
    ts2 = {(t.opcode, t.speculative)
           for t in transmissions(p.functions[0], transmit_speculative=False)}
    assert ("transmit", False) in ts2


def test_deep_call_chain_walks_without_recursion():
    program = parse_program(call_chain(1500))  # validate_ssa checks for cycles
    assert call_order(program) == [f"f{k}" for k in reversed(range(1500))]
    assert input_slots(program) == 2


def test_call_cycle_found_by_every_user_of_the_walk():
    program = parse_program("fn main() {\nB1:\n  r = call f()\n  ret\n}\n"
                            "fn f() {\nB1:\n  r = call g()\n  ret\n}\n"
                            "fn g() {\nB1:\n  r = call h()\n  ret\n}\n"
                            "fn h() {\nB1:\n  ret\n}\n")
    program.function("g").blocks[0].instructions[0].callee = "f"
    issues = validate_ssa(program).issues
    assert [(i.kind, i.function) for i in issues] == [("recursion", "main")]
    with pytest.raises(AnalysisError, match="cycle"):
        call_order(program)
    with pytest.raises(OracleError, match="cycle"):
        input_slots(program)


# ---------------------------------------------------------------------------
# The character-lexer parser the one-pass tokenizer replaced, kept unchanged
# (but for `is_terminator`, now `opcode in TERMINATORS`) as the reference.
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


def reference_parse_program(text: str) -> Program:
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
            if instr.opcode in TERMINATORS:
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


@pytest.fixture(scope="module")
def parser_corpus() -> list[str]:
    return [text for name in FIXTURE_NAMES + list(CORPORA) for text in corpus_texts(name)]


def parse_outcome(parse, text: str):
    """The parsed program, or the IRError's message and line without its column.
    Any other exception propagates: malformed input must end in an IRError."""
    try:
        return parse(text)
    except IRError as exc:
        return re.sub(r", col \d+", "", str(exc), count=1), exc.line


def test_parser_matches_reference_on_valid_programs(parser_corpus):
    for text in parser_corpus:
        assert parse_program(text) == reference_parse_program(text)


EDGE_TEXTS = [
    "fn f() { B1: ret }",
    "fn f() {\u00a0B1: ret\u3000}",
    "fn f(a) {\nB1: transmit a\u00a0}\n",
    "fn f() {\nB1:\n  ret \u00a0 }\n",
    "fn f() {\nB1:\n  ret } }\n",
    "\u00a0fn f() { B1: ret }",
    "fn f() {\nB1:\n  x = const \u00b2\n  ret\n}\n",
    "fn f() {\nB1:\n  x = add \u00e9, 1\n  ret\n}\n",
    "fn f(a, b) {\nB1 : x = add a, b # }\n  ret\n}\n",
    "fn f() { B1:\n  ret }\nfn g() {}\n",
    "fn f() {\nB1:\n  ret\n",
]


def test_parser_matches_reference_on_edge_cases():
    for text in EDGE_TEXTS:
        assert parse_outcome(parse_program, text) == parse_outcome(reference_parse_program, text), text


MUTATION_CHARS = "{}[](),:=#-_ .x01\t\r\f\u00a0\u3000\u00e9\u00b2"


def mutate(rng: random.Random, text: str) -> str:
    """One to three edits: a character deleted, a character of MUTATION_CHARS
    inserted or a line duplicated."""
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3)
        if kind == 0 and text:
            at = rng.randrange(len(text))
            text = text[:at] + text[at + 1:]
        elif kind == 1:
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice(MUTATION_CHARS) + text[at:]
        else:
            lines = text.splitlines(keepends=True)
            if lines:
                at = rng.randrange(len(lines))
                lines.insert(at, lines[at])
            text = "".join(lines)
    return text


def test_parser_matches_reference_on_mutations(parser_corpus):
    rng = random.Random(19)
    for _ in range(5000):
        text = mutate(rng, rng.choice(parser_corpus))
        assert parse_outcome(parse_program, text) == parse_outcome(reference_parse_program, text), text
