"""Independent checks of the pipeline's output, run untimed after the timed
passes on what the first pass produced.

- `reparse`: the protected text parses again and passes `validate_ssa`.
- `frontier`: the re-parsed protected program has the frontier property
  (full input grid, or a seeded sample of it).
- `golden`: the three analogs get the single-barrier placements of
  acceptance criterion 5.
- `exact`: on the random programs, the fixpoint's edge knowledge is a subset
  of the exact knowledge enumerated by the oracle.

Running the re-parsed protected program without speculation on the same
inputs also counts the speculation barriers it executes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from declassiflow.ir import parse_program, validate_ssa
from declassiflow.oracle import (check_frontier_property, exact_knowledge,
                                 input_grid, input_slots, interpret)
from declassiflow.protect import barrier_count

DOMAIN = range(0, 4)
SAMPLE_SEED = 20240810
SAMPLE_SIZE = 4

# Single-barrier placements of acceptance criterion 5.
ANALOG_BARRIERS = {
    "aes_analog": {"encrypt": ["B1"]},
    "djbsort_analog": {"int32_sort": ["B2"]},
    "chacha_analog": {"chacha20_ct": ["B2.ph"]},
}

# Check failures recorded when the benchmark was defined: program -> checks.
# They stay in the workloads and are counted in check_ok_share; a run is
# correct when its failures are among these.
KNOWN_FAILURES = {
    "verify-corpus": {
        **{f"random-{i:03d}": ["frontier"] for i in (
            17, 26, 29, 49, 57, 59, 85, 122, 131, 156, 170, 172, 198, 214, 224,
            234, 282)},
        **{f"random-{i:03d}": ["reparse:IRError"] for i in (123, 148, 187)},
        "two_latch": ["frontier"],
    },
}


@dataclass
class Captured:
    """What the first timed pass keeps of one program for the checks."""

    name: str
    source: str
    barriers: dict[str, list[str]]
    protected_text: str | None
    frontiers: dict[tuple[str, str], set[str]]
    fixpoint: dict[tuple[str, str], set[str]] | None  # edge -> known, random programs


@dataclass
class Outcome:
    failed: list[str] = field(default_factory=list)
    barriers_dynamic: int = 0
    inputs: int = 0


def check_inputs(name: str, slots: int, full_grid: bool) -> list[list[int]]:
    if full_grid:
        return input_grid(slots, DOMAIN)
    rng = random.Random(f"{SAMPLE_SEED}:{name}")
    return [[rng.choice(DOMAIN) for _ in range(slots)] for _ in range(SAMPLE_SIZE)]


def check(c: Captured, full_grid: bool, window: int, depth: int) -> Outcome:
    out = Outcome()
    if c.protected_text is None:
        out.failed.append("reparse:missing")
        return out
    try:
        protected = parse_program(c.protected_text)
        if validate_ssa(protected).issues:
            out.failed.append("reparse")
            return out
    except Exception as exc:  # any failure to re-read the output is a finding
        out.failed.append(f"reparse:{type(exc).__name__}")
        return out

    inputs = check_inputs(c.name, input_slots(protected), full_grid)
    out.inputs = len(inputs)
    try:
        verdict = check_frontier_property(protected, c.frontiers, inputs,
                                          window=window, depth=depth,
                                          pad_inputs=True)
        if not verdict.passed:
            out.failed.append("frontier")
    except Exception as exc:
        out.failed.append(f"frontier:{type(exc).__name__}")

    if c.name in ANALOG_BARRIERS:
        counts = barrier_count(protected)
        clean = not any(h in counts for h in ("f.p", "g.p", "h.p"))
        if (c.barriers != ANALOG_BARRIERS[c.name]
                or sum(len(v) for v in counts.values()) != 1 or not clean):
            out.failed.append("golden")

    if c.fixpoint is not None:
        try:
            ke = exact_knowledge(parse_program(c.source).functions[0], DOMAIN)
            exact = {e.key: ke.known[e.index] for e in ke.cfg.edges}
            if any(not known <= exact.get(key, set())
                   for key, known in c.fixpoint.items()):
                out.failed.append("exact")
        except Exception as exc:
            out.failed.append(f"exact:{type(exc).__name__}")

    # Re-parsed programs keep phis first, so every barrier in a block runs
    # each time the block is entered.
    per_block = {(f.name, b.label): sum(i.opcode == "specbarr" for i in b.instructions)
                 for f in protected.functions for b in f.blocks}
    try:
        for vals in inputs:
            trace = interpret(protected, vals, pad_inputs=True)
            out.barriers_dynamic += sum(per_block.get(pc, 0) for pc in trace.pc)
    except Exception as exc:
        out.failed.append(f"interpret:{type(exc).__name__}")
    return out
