"""Block-level knowledge and per-variable knowledge frontiers.

A block knows a variable when every out-edge of the block knows it. The
frontier of a variable is the set of knowing blocks having at least one
predecessor that does not know it: every entry-to-knowing-block path must
cross the frontier, and crossing it makes the variable inevitably known.
All frontiers come from one pass over the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import and_

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
    """Intersect each block's out-edge sets; ret blocks use their dummy edge.
    The masks are ANDed, and each block's result decoded once."""
    cfg, bits, decode = km.cfg, km.bits, km.index.decode
    known: dict[str, set[str]] = {}
    for b in cfg.function.blocks:
        masks = [bits[e.index] for e in cfg.out_edges[b.label]]
        known[b.label] = decode(reduce(and_, masks)) if masks else set()
    known[ENTRY] = decode(bits[cfg.entry_dummy().index])
    return BlockKnowledge(cfg, known)


def all_frontiers(kb: BlockKnowledge) -> dict[str, set[str]]:
    """Frontier of every variable the function defines, in one pass: a block
    is on the frontier of each variable it knows that not all of its
    predecessors know. The entry block has none, so it is on the frontier of
    all it knows (values known from the program text alone included)."""
    cfg = kb.cfg
    frontiers: dict[str, set[str]] = {v: set() for v in sorted(cfg.function.defined_vars())}
    for b in cfg.function.blocks:
        new = kb.at(b.label) & frontiers.keys()
        preds = cfg.preds(b.label)
        if preds:
            new -= set.intersection(*map(kb.at, preds))
        for v in new:
            frontiers[v].add(b.label)
    return frontiers
