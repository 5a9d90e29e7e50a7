"""Frozen benchmark workloads: the program texts and the pipeline configuration
of each workload.

Everything a workload feeds the pipeline lives in this directory, so edits to
the test suite cannot silently change what the benchmark measures:

- `segments(k)`: one function `main(buf, n)` of k chained segments, 7k+2
  blocks. Each segment has a length check `lt acc, n` that either enters a
  counted loop (`gep`/`load` over `buf`) or skips it, then a diamond on a
  fresh `q = input` whose one arm transmits `t = add q, 1`, merged by
  `acc = phi [t, T], [q, F]`.
- `call_chain(n)`: n functions, each a counted loop followed by a call to the
  next; the last one transmits its bound.
- `random_acyclic_program`: a frozen copy of the generator in
  `tests/generators.py` (see `frozen_inputs_match`).
- `fixtures/*.mir`: frozen copies of corpus programs from `tests/fixtures`.
"""

from __future__ import annotations

import importlib.util
import os
import random
from dataclasses import dataclass

from declassiflow.ir import parse_program
from declassiflow.pipeline import RunConfig

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

RANDOM_SEED = 20240810
RANDOM_COUNT = 300
ANALOGS = ("aes_analog", "djbsort_analog", "chacha_analog")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the CLI invocation whose configuration the workload mirrors
    config: RunConfig
    programs: tuple[tuple[str, str], ...]  # (program name, source text)
    full_grid: bool  # check the frontier property on every input, not a sample


def segments(k: int) -> str:
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


def call_chain(n: int) -> str:
    lines: list[str] = []
    for k in range(n):
        lines += [f"fn f{k}(buf, n) {{", "B1:", "  i0 = const 0", "  jmp B2",
                  "B2:", "  i1 = phi [i0, B1], [i2, B3]", "  c = lt i1, n",
                  "  br c, B3, B4",
                  "B3:", "  p = gep buf, i1, 4", "  w = load p", "  i2 = add i1, 1",
                  "  jmp B2",
                  "B4:",
                  f"  d = call f{k + 1}(buf, n)" if k + 1 < n else "  transmit n",
                  "  ret", "}"]
    return "\n".join(lines) + "\n"


BIN_OPS = ["add", "sub", "xor", "mul", "and", "or", "shl", "eq", "lt"]
UN_OPS = ["neg", "not"]


def random_acyclic_program(rng: random.Random, max_blocks: int = 8,
                           max_inputs: int = 3, defs_in_entry_only: bool = False,
                           allow_phis: bool = True, allow_loads: bool = True) -> str:
    """Frozen copy of `tests/generators.random_acyclic_program`; keep it
    unchanged so the random corpus stays fixed."""
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


def random_corpus() -> list[str]:
    rng = random.Random(RANDOM_SEED)
    return [random_acyclic_program(rng, max_blocks=8, max_inputs=3)
            for _ in range(RANDOM_COUNT)]


def fixture(name: str) -> str:
    with open(os.path.join(FIXTURES, f"{name}.mir"), encoding="utf-8") as fh:
        return fh.read()


def _fixtures(*names: str) -> list[tuple[str, str]]:
    return [(name, fixture(name)) for name in names]


# RunConfig as `declassiflow.cli.main` builds it for each command.
COMMANDS = {
    "analyze --protect": lambda: RunConfig(refine=False, protect=True, verify=False,
                                           emit_knowledge=True),
    "protect": lambda: RunConfig(refine=True, protect=True, verify=False),
    "verify": lambda: RunConfig(refine=True, protect=True, verify=True,
                                verify_domain=range(0, 4), window=16, depth=1),
}


# Every workload's pass takes a few seconds, so that a run repeats each program
# several times and reports the median: on a shared machine a single timing
# can run up to twice as long as the fastest one. Larger sizes (segments(16) for phase 1,
# segments(4) for refinement) take 6 to 30 s each and are left out for that.

def _dataflow_large():
    return ("analyze --protect",
            [(f"segments-{k}", segments(k)) for k in (4, 6, 8, 10, 12)], False)


def _refine_paths():
    programs = [("segments-2", segments(2))]
    programs += [(f"chain-{n}", call_chain(n)) for n in (4, 6, 8)]
    return "protect", programs + _fixtures("anticorrelated"), False


def _verify_corpus():
    programs = [(f"random-{i:03d}", text) for i, text in enumerate(random_corpus())]
    programs += _fixtures(*ANALOGS, "anticorrelated", "nested_loops",
                          "hoistable_loop", "two_latch")
    return "verify", programs, True


WORKLOADS = {
    "dataflow-large": _dataflow_large,
    "refine-paths": _refine_paths,
    "verify-corpus": _verify_corpus,
}


def frozen_inputs_match(root: str) -> dict[str, str]:
    """Compare the frozen inputs with the test-suite originals they were copied
    from: "match", "differs" or "absent" per source."""
    out: dict[str, str] = {}
    path = os.path.join(root, "tests", "generators.py")
    if os.path.exists(path):
        spec = importlib.util.spec_from_file_location("_test_generators", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        rng = random.Random(RANDOM_SEED)
        theirs = [module.random_acyclic_program(rng, max_blocks=8, max_inputs=3)
                  for _ in range(RANDOM_COUNT)]
        out["generators.py"] = "match" if theirs == random_corpus() else "differs"
    else:
        out["generators.py"] = "absent"
    for name in sorted(os.listdir(FIXTURES)):
        path = os.path.join(root, "tests", "fixtures", name)
        if not os.path.exists(path):
            out[name] = "absent"
            continue
        with open(path, "rb") as a, open(os.path.join(FIXTURES, name), "rb") as b:
            out[name] = "match" if a.read() == b.read() else "differs"
    return out


def build(name: str) -> Workload:
    command, programs, full_grid = WORKLOADS[name]()
    return Workload(name, command, COMMANDS[command](), tuple(programs), full_grid)
