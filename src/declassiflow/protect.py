"""Speculation-barrier placement along knowledge frontiers.

Every function gets a protected clone (suffix ".p"). A clone carries a
speculation barrier at the entry of each block on the joint frontier of its
locally transmitted variables and of the arguments leaked by the pseudo
transmitters it calls, and its calls are redirected to protected clones.
Pseudo transmitters are caller-enforced: their own entry-block barrier is the
call site's responsibility, so their clones stay barrier-free (unless they are
the program's top level).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import Function, Instruction, Program, Transmission
from .knowledge import AnalysisError, FunctionSummary

PROTECTED_SUFFIX = ".p"


@dataclass
class ProtectionPlan:
    function: str
    barrier_blocks: set[str]
    mode: str  # "caller" or "callee"
    call_redirections: dict[tuple[str, int], str] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "function": self.function,
            "barriers": sorted(self.barrier_blocks),
            "mode": self.mode,
            "redirections": {f"{b}:{i}": tgt
                             for (b, i), tgt in sorted(self.call_redirections.items())},
        }


def plan_protection(f: Function, leaks: list[Transmission],
                    frontiers: dict[str, set[str]], own_summary: FunctionSummary,
                    is_top_level: bool) -> ProtectionPlan:
    """Barrier blocks = joint frontier of the variables at f's speculative
    leak sites (its own transmitters and the arguments leaked by called
    pseudo transmitters, see knowledge.leak_model).

    Variables with an empty frontier fall back to a barrier at each of their
    speculative leak sites. A pseudo transmitter skips its entry-block
    barrier unless it is top level.
    """
    barriers: set[str] = set()
    for t in leaks:
        if t.speculative and isinstance(t.operand, str):
            barriers |= frontiers.get(t.operand) or {t.block}
    if own_summary.is_pseudo_transmitter and not is_top_level:
        barriers.discard(f.entry_block)

    redirections: dict[tuple[str, int], str] = {}
    for b in f.blocks:
        for idx, ins in enumerate(b.instructions):
            if ins.opcode == "call":
                redirections[(b.label, idx)] = ins.callee + PROTECTED_SUFFIX

    mode = "caller" if own_summary.is_pseudo_transmitter else "callee"
    return ProtectionPlan(f.name, barriers, mode, redirections)


def emit_protected(program: Program, plans: dict[str, ProtectionPlan],
                   analyzed: dict[str, Function] | None = None) -> Program:
    """Protected clones first (entry clone leading), then program's own
    functions, shared, not copied.

    Clones are built from the analyzed (loop-simplified) bodies, so frontier
    blocks introduced by simplification exist in the output; simplification
    preserves semantics. A clone name that is already a function's name
    raises AnalysisError.
    """
    analyzed = analyzed or {}
    entry = program.entry_function
    names = set(program.function_names())
    for f in program.functions:
        if f.name + PROTECTED_SUFFIX in names:
            raise AnalysisError(f"protected clone of '{f.name}' would clash with "
                                f"function '{f.name}{PROTECTED_SUFFIX}'")
    clones: list[Function] = []
    for f in program.functions:
        body = analyzed.get(f.name, f)
        clone = body.copy()
        clone.name = f.name + PROTECTED_SUFFIX
        plan = plans.get(f.name)
        for b in clone.blocks:
            for ins in b.instructions:
                if ins.opcode == "call":
                    ins.callee = ins.callee + PROTECTED_SUFFIX
            if plan and b.label in plan.barrier_blocks:
                b.instructions.insert(len(b.phis()), Instruction("specbarr"))
        clones.append(clone)
    clones.sort(key=lambda c: 0 if c.name == (entry or "") + PROTECTED_SUFFIX else 1)
    return Program(clones + program.functions)


def barrier_count(program: Program) -> dict[str, list[str]]:
    """Blocks holding a speculation barrier, per function (non-empty only)."""
    out: dict[str, list[str]] = {}
    for f in program.functions:
        blocks = [b.label for b in f.blocks
                  if any(i.opcode == "specbarr" for i in b.instructions)]
        if blocks:
            out[f.name] = blocks
    return out
