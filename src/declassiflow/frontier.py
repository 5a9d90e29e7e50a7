"""Block-level knowledge and per-variable knowledge frontiers.

A block knows a variable when every out-edge of the block knows it. The
frontier of a variable is the set of knowing blocks having at least one
predecessor that does not know it: every entry-to-knowing-block path must
cross the frontier, and crossing it makes the variable inevitably known.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cfg import ENTRY, Cfg
from .knowledge import KnowledgeMap


@dataclass
class BlockKnowledge:
    """Per-block knowledge, including the virtual entry pseudo-block used as
    the entry block's predecessor in frontier queries."""

    cfg: Cfg
    known: dict[str, set[str]] = field(default_factory=dict)

    def at(self, label: str) -> set[str]:
        return self.known.get(label, set())

    def copy(self) -> "BlockKnowledge":
        return BlockKnowledge(self.cfg, {k: set(v) for k, v in self.known.items()})


def block_knowledge(km: KnowledgeMap) -> BlockKnowledge:
    """Intersect each block's out-edge sets; ret blocks use their dummy edge."""
    cfg = km.cfg
    known: dict[str, set[str]] = {}
    for b in cfg.function.blocks:
        outs = cfg.out_edges[b.label]
        known[b.label] = set.intersection(*(km.known[e.index] for e in outs)) if outs else set()
    known[ENTRY] = set(km.known[cfg.entry_dummy().index])
    return BlockKnowledge(cfg, known)


def compute_frontier(kb: BlockKnowledge, var: str, cfg: Cfg | None = None) -> set[str]:
    """Knowing blocks minus those whose predecessors all know the variable.

    The entry block has no real predecessors and is never removed (so values
    known from the program text alone have the entry block as frontier).
    Removal tests block knowledge, which is fixed, so one sweep reaches the
    fixpoint; the result is order-independent and unique.
    """
    cfg = cfg or kb.cfg
    knowing = {b.label for b in cfg.function.blocks if var in kb.at(b.label)}
    frontier = set()
    for label in knowing:
        preds = [e.src for e in cfg.in_edges[label] if e.src != ENTRY]
        if not preds or not all(var in kb.at(p) for p in preds):
            frontier.add(label)
    return frontier


def all_frontiers(kb: BlockKnowledge, cfg: Cfg | None = None) -> dict[str, set[str]]:
    cfg = cfg or kb.cfg
    return {v: compute_frontier(kb, v, cfg) for v in sorted(cfg.function.defined_vars())}

