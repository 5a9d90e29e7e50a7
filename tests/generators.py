"""Seeded random program generators for the property suites."""

from __future__ import annotations

import random

from declassiflow.ir import parse_program

BIN_OPS = ["add", "sub", "xor", "mul", "and", "or", "shl", "eq", "lt"]
UN_OPS = ["neg", "not"]


def random_acyclic_program(rng: random.Random, max_blocks: int = 8,
                           max_inputs: int = 3, defs_in_entry_only: bool = False,
                           allow_phis: bool = True, allow_loads: bool = True) -> str:
    """One random acyclic function in textual form.

    Control flow only goes to higher-numbered blocks, so the result is a DAG
    with every block reachable. With defs_in_entry_only the body blocks hold
    only transmitters and branches (the shape where the edge fixpoint is tight
    against the execution oracle).
    """
    n_blocks = rng.randint(2, max_blocks)
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"v{counter}"

    n_inputs = rng.randint(1, max_inputs)
    entry_lines = []
    variables = []
    for _ in range(n_inputs):
        v = fresh()
        entry_lines.append(f"  {v} = input")
        variables.append(v)
    for _ in range(rng.randint(0, 2)):
        v = fresh()
        entry_lines.append(f"  {v} = const {rng.randint(0, 3)}")
        variables.append(v)

    def emit_ops(lines, vars_here, count):
        for _ in range(count):
            v = fresh()
            if rng.random() < 0.25:
                lines.append(f"  {v} = {rng.choice(UN_OPS)} {rng.choice(vars_here)}")
            else:
                a = rng.choice(vars_here)
                b = rng.choice(vars_here + [str(rng.randint(0, 3))])
                lines.append(f"  {v} = {rng.choice(BIN_OPS)} {a}, {b}")
            vars_here.append(v)

    emit_ops(entry_lines, variables, rng.randint(1, 4))
    entry_vars = list(variables)

    # forward-only CFG: block i targets blocks > i, last block returns
    succs: dict[int, list[int]] = {}
    preds: dict[int, set[int]] = {i: set() for i in range(1, n_blocks + 1)}
    for i in range(1, n_blocks):
        a = rng.randint(i + 1, n_blocks)
        b = rng.randint(i + 1, n_blocks)
        targets = [a] if (a == b or rng.random() < 0.4) else [a, b]
        succs[i] = targets
        for t in targets:
            preds[t].add(i)
    # keep only blocks reachable from block 1
    reach = {1}
    work = [1]
    while work:
        cur = work.pop()
        for t in succs.get(cur, []):
            if t not in reach:
                reach.add(t)
                work.append(t)

    blocks: list[str] = []
    for i in sorted(reach):
        lines = [f"B{i}:"]
        body_vars = list(entry_vars)
        if i == 1:
            lines += entry_lines
            body_vars = list(variables)
        else:
            ps = sorted(p for p in preds[i] if p in reach)
            if allow_phis and len(ps) >= 2 and rng.random() < 0.6 and not defs_in_entry_only:
                v = fresh()
                arms = ", ".join(f"[{rng.choice(entry_vars)}, B{p}]" for p in ps)
                lines.append(f"  {v} = phi {arms}")
                body_vars.append(v)
            if not defs_in_entry_only:
                emit_ops(lines, body_vars, rng.randint(0, 2))

        for _ in range(rng.randint(0, 2)):
            kind = rng.random()
            target = rng.choice(body_vars)
            if kind < 0.5:
                lines.append(f"  transmit {target}")
            elif kind < 0.75 and allow_loads and not defs_in_entry_only:
                v = fresh()
                lines.append(f"  {v} = load {target}")
                body_vars.append(v)
            else:
                lines.append(f"  store {rng.choice(body_vars)}, {target}")

        targets = [t for t in succs.get(i, []) if t in reach]
        if not targets:
            lines.append("  ret")
        elif len(targets) == 1:
            lines.append(f"  jmp B{targets[0]}")
        else:
            cond = rng.choice(body_vars + [str(rng.randint(0, 1))])
            lines.append(f"  br {cond}, B{targets[0]}, B{targets[1]}")
        blocks.append("\n".join(lines))

    text = "fn main() {\n" + "\n".join(blocks) + "\n}\n"
    parse_program(text)  # must always be valid
    return text


def random_tight_program(rng: random.Random, max_blocks: int = 5) -> str:
    """Random acyclic program on which the edge fixpoint should equal the
    execution oracle exactly: every definition sits in the entry block and
    every branch tests its own dedicated input, so all paths are realizable.
    """
    n_blocks = rng.randint(2, max_blocks)
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"v{counter}"

    succs: dict[int, list[int]] = {}
    preds: dict[int, set[int]] = {i: set() for i in range(1, n_blocks + 1)}
    for i in range(1, n_blocks):
        a = rng.randint(i + 1, n_blocks)
        b = rng.randint(i + 1, n_blocks)
        targets = [a] if (a == b or rng.random() < 0.4) else [a, b]
        succs[i] = targets
        for t in targets:
            preds[t].add(i)
    reach = {1}
    work = [1]
    while work:
        cur = work.pop()
        for t in succs.get(cur, []):
            if t not in reach:
                reach.add(t)
                work.append(t)

    conds = {i: None for i in sorted(reach) if len(set(succs.get(i, []))) == 2}
    entry_lines = []
    variables = []
    for _ in range(rng.randint(1, 2)):
        v = fresh()
        entry_lines.append(f"  {v} = input")
        variables.append(v)
    for i in conds:
        v = fresh()
        entry_lines.append(f"  {v} = input")
        conds[i] = v
    for _ in range(rng.randint(0, 2)):
        v = fresh()
        entry_lines.append(f"  {v} = const {rng.randint(0, 3)}")
        variables.append(v)
    for _ in range(rng.randint(1, 3)):
        v = fresh()
        a = rng.choice(variables)
        b = rng.choice(variables + [str(rng.randint(0, 3))])
        entry_lines.append(f"  {v} = {rng.choice(BIN_OPS)} {a}, {b}")
        variables.append(v)

    blocks = []
    for i in sorted(reach):
        lines = [f"B{i}:"]
        if i == 1:
            lines += entry_lines
        for _ in range(rng.randint(0, 2)):
            target = rng.choice(variables)
            if rng.random() < 0.7:
                lines.append(f"  transmit {target}")
            else:
                lines.append(f"  store {rng.choice(variables)}, {target}")
        targets = [t for t in succs.get(i, []) if t in reach]
        uniq = sorted(set(targets))
        if not targets:
            lines.append("  ret")
        elif len(uniq) == 1:
            lines.append(f"  jmp B{uniq[0]}")
        else:
            lines.append(f"  br {conds[i]}, B{targets[0]}, B{targets[1]}")
        blocks.append("\n".join(lines))

    text = "fn main() {\n" + "\n".join(blocks) + "\n}\n"
    parse_program(text)
    return text


def call_chain(n: int, distinct_names: bool = False) -> str:
    """n functions, each looping over a buffer and then calling the next.
    With distinct_names, function k names its parameters `buf{k}, n{k}`."""
    lines: list[str] = []
    for k in range(n):
        buf, m = (f"buf{k}", f"n{k}") if distinct_names else ("buf", "n")
        lines += [f"fn f{k}({buf}, {m}) {{", "B1:", "  i0 = const 0", "  jmp B2",
                  "B2:", "  i1 = phi [i0, B1], [i2, B3]", f"  c = lt i1, {m}",
                  "  br c, B3, B4",
                  "B3:", f"  p = gep {buf}, i1, 4", "  w = load p", "  i2 = add i1, 1",
                  "  jmp B2",
                  "B4:",
                  f"  d = call f{k + 1}({buf}, {m})" if k + 1 < n else f"  transmit {m}",
                  "  ret", "}"]
    return "\n".join(lines) + "\n"


REFINED_CALLEE = """fn g(x, y) {
B1:
  q = input
  br q, B2, B3
B2:
  transmit x
  jmp B3
B3:
  nq = eq q, 0
  br nq, B4, B5
B4:
  transmit x
  jmp B5
B5:
  transmit y
  ret
}
"""


def refined_callee_caller(rng: random.Random) -> str:
    """A random acyclic `main(a, b, c)` of 3-6 blocks calling `g(x, y)`, which
    transmits `x` on anticorrelated branches (so only refinement declassifies
    it) and then transmits `y`. Each block holds 0-2 calls, loads or
    transmits of a parameter and ends in a branch on one or a jump."""
    n_blocks = rng.randint(3, 6)
    params = ["a", "b", "c"]
    succs = {i: sorted({rng.randint(i + 1, n_blocks), rng.randint(i + 1, n_blocks)})
             for i in range(1, n_blocks)}
    reach, work = {1}, [1]
    while work:
        for t in succs.get(work.pop(), []):
            if t not in reach:
                reach.add(t)
                work.append(t)
    lines = ["fn main(a, b, c) {"]
    defs = 0
    for i in sorted(reach):
        lines.append(f"B{i}:")
        for _ in range(rng.randint(0, 2)):
            kind = rng.randrange(3)
            if kind == 0:
                defs += 1
                lines.append(f"  d{defs} = call g({rng.choice(params)}, {rng.choice(params)})")
            elif kind == 1:
                defs += 1
                lines.append(f"  d{defs} = load {rng.choice(params)}")
            else:
                lines.append(f"  transmit {rng.choice(params)}")
        targets = succs.get(i)
        if not targets:
            lines.append("  ret")
        elif rng.random() < 0.3:
            lines.append(f"  jmp B{targets[0]}")
        else:
            lines.append(f"  br {rng.choice(params)}, B{targets[0]}, B{targets[-1]}")
    text = "\n".join(lines) + "\n}\n" + REFINED_CALLEE
    parse_program(text)
    return text


def random_call_program(rng: random.Random, distinct_names: bool = False) -> str:
    """2-4 functions `fK(a, b)`, each calling only later ones: an optional
    branch on a parameter against a literal, then a counted loop (bound `b`
    or a literal) whose body loads from `a` and may call a later function,
    then an exit block that may call the same or another later function, run
    an `input` and transmit it. A call that passes the caller's two
    parameters replays the callee's decided exit paths, which refinement
    records as walks, and in a loop under a small loop_cap it caps them; a
    call that passes a literal, the loop counter or one symbol twice steps in.
    With distinct_names, function K names its parameters `aK, bK`; the random
    draws are the same."""
    n = rng.randint(2, 4)
    lines: list[str] = []
    for k in range(n):
        a, b = (f"a{k}", f"b{k}") if distinct_names else ("a", "b")
        later = [f"f{m}" for m in range(k + 1, n)]
        args = [a, b, str(rng.randint(0, 3))]
        lines += [f"fn f{k}({a}, {b}) {{", "B1:"]
        if rng.random() < 0.6:
            lines += [f"  t = lt {rng.choice((a, b))}, {rng.randint(1, 3)}",
                      "  br t, B2, B3", "B2:",
                      f"  transmit {rng.choice((a, b))}" if rng.random() < 0.5
                      else f"  w0 = load {a}",
                      "  jmp B3"]
        else:
            lines.append("  jmp B3")
        bound = rng.choice([b, str(rng.randint(1, 3))])
        lines += ["B3:", "  jmp B4", "B4:", "  i1 = phi [0, B3], [i2, B5]",
                  f"  e = lt i1, {bound}", "  br e, B5, B6",
                  "B5:", f"  p = gep {a}, i1, 4", "  w = load p"]
        loop_callee = rng.choice(later) if later and rng.random() < 0.7 else None
        if loop_callee:
            lines.append(f"  d1 = call {loop_callee}({rng.choice(args + ['i1'])}, "
                         f"{rng.choice(args)})")
        lines += ["  i2 = add i1, 1", "  jmp B4", "B6:"]
        ret = rng.choice(["", " i1", f" {a}"])
        if later and rng.random() < 0.7:
            callee = loop_callee if loop_callee and rng.random() < 0.5 else rng.choice(later)
            lines += [f"  d2 = call {callee}({rng.choice(args + ['i1'])}, {rng.choice(args)})",
                      f"  r = add d2, {a}"]
            ret = rng.choice([ret, " r"])
        if k and rng.random() < 0.3:
            lines += ["  q = input", "  transmit q"]
        lines += [f"  ret{ret}", "}"]
    text = "\n".join(lines) + "\n"
    parse_program(text)
    return text


def segments(k: int) -> str:
    """One function `main(buf, n)` of k chained segments (7k+2 blocks): a
    length check that enters or skips a counted loop over `buf`, then a diamond
    on a fresh input whose one arm transmits, merged by a phi."""
    lines = ["fn main(buf, n) {", "B0:", "  acc0 = const 0", "  z = const 0",
             "  jmp S1c"]
    for s in range(1, k + 1):
        nxt = f"S{s + 1}c" if s < k else "X"
        lines += [
            f"S{s}c:", f"  c{s} = lt acc{s - 1}, n", f"  br c{s}, S{s}h, S{s}d",
            f"S{s}h:", f"  i{s} = phi [z, S{s}c], [j{s}, S{s}b]",
            f"  e{s} = lt i{s}, n", f"  br e{s}, S{s}b, S{s}d",
            f"S{s}b:", f"  p{s} = gep buf, i{s}, 4", f"  w{s} = load p{s}",
            f"  j{s} = add i{s}, 1", f"  jmp S{s}h",
            f"S{s}d:", f"  q{s} = input", f"  br q{s}, S{s}t, S{s}f",
            f"S{s}t:", f"  t{s} = add q{s}, 1", f"  transmit t{s}", f"  jmp S{s}m",
            f"S{s}f:", f"  jmp S{s}m",
            f"S{s}m:", f"  acc{s} = phi [t{s}, S{s}t], [q{s}, S{s}f]", f"  jmp {nxt}",
        ]
    lines += ["X:", "  ret", "}"]
    return "\n".join(lines) + "\n"


def anticorrelated_chain(k: int) -> str:
    """The `anticorrelated` fixture's pattern chained k times in one function
    `main()` (4k+1 blocks, 2k input slots). Segment s reads `q{s}` and `x{s}`,
    transmits `x{s}` on the arm taken when `q{s}` is nonzero and again on the
    arm taken when `eq q{s}, 0` holds: exactly one arm runs on every real
    execution, so `x{s}` is inevitably known at the segment's entry."""
    lines = ["fn main() {"]
    for s in range(1, k + 1):
        nxt = f"A{s + 1}" if s < k else "X"
        lines += [
            f"A{s}:", f"  q{s} = input", f"  x{s} = input", f"  br q{s}, T{s}, M{s}",
            f"T{s}:", f"  transmit x{s}", f"  jmp M{s}",
            f"M{s}:", f"  nq{s} = eq q{s}, 0", f"  br nq{s}, U{s}, {nxt}",
            f"U{s}:", f"  transmit x{s}", f"  jmp {nxt}",
        ]
    lines += ["X:", "  ret", "}"]
    return "\n".join(lines) + "\n"


def random_loop_program(rng: random.Random, max_blocks: int = 10) -> str:
    """One random reducible function rich in loops, in textual form.

    A forward DAG over blocks B1..Bn gets back edges, each to a block other than
    the entry that dominates its source (possibly the source itself), so the graph stays
    reducible and its dominators are the DAG's. This yields nested,
    multi-latch and multi-exit loops. Definitions use only what dominates
    them, every block with several predecessors may start with phis whose
    arms name what is available at the end of each predecessor, and the
    blocks are printed in shuffled order with the entry block first.
    """
    n = rng.randint(4, max_blocks)
    succs: dict[int, list[int]] = {}
    for i in range(1, n):
        a = min(n, i + rng.randint(1, 2))
        b = rng.randint(i + 1, n)
        succs[i] = [a] if (a == b or rng.random() < 0.5) else [a, b]
    succs[n] = []
    reach = [1]
    for i in range(1, n + 1):  # DAG order visits every predecessor first
        if i in reach:
            reach += [t for t in succs[i] if t not in reach]
    reach = sorted(set(reach))
    preds: dict[int, list[int]] = {i: [] for i in reach}
    for i in reach:
        for t in succs[i]:
            preds[t].append(i)
    dom: dict[int, set[int]] = {}
    for i in reach:  # the DAG's dominators, predecessors first
        dom[i] = {i} | (set.intersection(*(dom[p] for p in preds[i])) if preds[i] else set())

    for i in reach:
        if len(succs[i]) == 1 and i > 1 and rng.random() < 0.6:
            h = rng.choice(sorted(dom[i] - {1}))  # the entry takes no edges
            succs[i] = [succs[i][0], h] if rng.random() < 0.5 else [h, succs[i][0]]
            preds[h].append(i)

    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"v{counter}"

    params = [f"p{k}" for k in range(rng.randint(1, 2))]
    phis = {i: [fresh() for _ in range(rng.randint(0, 2))] if len(preds[i]) >= 2 else []
            for i in reach}
    defs: dict[int, list[str]] = {}
    bodies: dict[int, list[str]] = {}
    for i in reach:
        avail = list(params) + [v for d in sorted(dom[i] - {i}) for v in defs[d]] + phis[i]
        lines = []
        for _ in range(rng.randint(1, 3)):
            v = fresh()
            kind = rng.random()
            if kind < 0.2:
                lines.append(f"  {v} = input")
            elif kind < 0.4:
                lines.append(f"  {v} = load {rng.choice(avail)}")
            else:
                a = rng.choice(avail)
                b = rng.choice(avail + [str(rng.randint(0, 3))])
                lines.append(f"  {v} = {rng.choice(BIN_OPS)} {a}, {b}")
            avail.append(v)
        defs[i] = phis[i] + [ln.split(" = ")[0].strip() for ln in lines]
        if len(succs[i]) == 2:
            lines.append(f"  br {rng.choice(avail)}, B{succs[i][0]}, B{succs[i][1]}")
        elif succs[i]:
            lines.append(f"  jmp B{succs[i][0]}")
        else:
            lines.append("  ret")
        bodies[i] = lines

    blocks = []
    for i in reach:
        lines = [f"B{i}:"]
        for v in phis[i]:
            arms = []
            for p in sorted(set(preds[i])):
                avail = list(params) + [w for d in sorted(dom[p]) for w in defs[d]]
                arms.append(f"[{rng.choice(avail)}, B{p}]")
            lines.append(f"  {v} = phi {', '.join(arms)}")
        blocks.append("\n".join(lines + bodies[i]))
    rest = blocks[1:]
    rng.shuffle(rest)
    text = f"fn main({', '.join(params)}) {{\n" + "\n".join(blocks[:1] + rest) + "\n}\n"
    parse_program(text)
    return text
