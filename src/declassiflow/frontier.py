"""Block-level knowledge and per-variable knowledge frontiers.

A block knows a variable when every out-edge of the block knows it: its mask
over the edge map's index is the AND of its out-edge masks. The frontier of a
variable is the set of knowing blocks having at least one predecessor that
does not know it: every entry-to-knowing-block path must cross the frontier,
and crossing it makes the variable inevitably known. All frontiers come from
one pass: a block is on the frontier of each variable in its own mask AND NOT
the AND of its predecessors' masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_

from .cfg import ENTRY, Cfg, VarIndex
from .knowledge import KnowledgeMap


@dataclass
class BlockKnowledge:
    """Per-block knowledge as masks over index, including the virtual entry
    pseudo-block used as the entry block's predecessor in frontier queries."""

    cfg: Cfg
    index: VarIndex
    bits: dict[str, int]


def block_knowledge(km: KnowledgeMap) -> BlockKnowledge:
    """AND each block's out-edge masks; ret blocks use their dummy edge."""
    cfg, bits = km.cfg, km.bits
    known: dict[str, int] = {}
    for b in cfg.function.blocks:
        masks = [bits[e.index] for e in cfg.out_edges[b.label]]
        known[b.label] = reduce(and_, masks) if masks else 0
    known[ENTRY] = bits[cfg.entry_dummy().index]
    return BlockKnowledge(cfg, km.index, known)


def all_frontiers(kb: BlockKnowledge) -> dict[str, set[str]]:
    """Frontier of every variable the function defines, in one pass: a block
    is on the frontier of each variable it knows that not all of its
    predecessors know. The entry block has none, so it is on the frontier of
    all it knows (values known from the program text alone included)."""
    cfg, bits, names = kb.cfg, kb.bits, kb.index.names
    frontiers: dict[str, set[str]] = {v: set() for v in sorted(cfg.function.defined_vars())}
    defined = kb.index.mask(frontiers)
    for b in cfg.function.blocks:
        new = bits.get(b.label, 0) & defined
        preds = cfg.preds(b.label)
        if preds:
            new &= ~reduce(and_, [bits.get(p, 0) for p in preds])
        while new:
            low = new & -new
            frontiers[names[low.bit_length() - 1]].add(b.label)
            new ^= low
    return frontiers
