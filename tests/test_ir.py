import itertools
import random

import pytest

from declassiflow.ir import (INT32_MAX, INT32_MIN, OPCODES, TERMINATORS, IRError, Program,
                             parse_program, pretty_print, to_i32, transmissions, validate_ssa)
from declassiflow.knowledge import AnalysisError, equations
from declassiflow.oracle import OracleError, eval_op, input_slots
from declassiflow.pipeline import call_order

from conftest import fixture_program, fixture_text
from generators import call_chain


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
    with pytest.raises(IRError) as err:
        parse_program("fn f() {\nentry:\n  x = bogus 1\n  ret\n}\n")
    assert "line 3" in str(err.value)


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


@pytest.mark.parametrize("name", [
    "diamond_linked", "diamond_opaque", "anticorrelated", "aes_analog",
    "djbsort_analog", "chacha_analog", "hoistable_loop", "two_latch",
    "nested_loops", "self_loop_opaque", "self_loop_linked", "chain",
])
def test_roundtrip(name):
    p = fixture_program(name)
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
    assert [(eq.output, eq.var_inputs, eq.backward) for eq in equations(f)] == [
        ("x", ("w", "a"), (("w", ("a",)), ("a", ("w",))))]


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
    with pytest.raises(IRError, match=f"line 3, col .*'{opcode}' produces no output"):
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
