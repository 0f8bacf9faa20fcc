"""Collapse a multi-relation structure to a single product relation and back.

A template (A; R1,...,Rn) with arities k1..kn becomes (A; R) where R is
the k-ary product relation, k = k1+...+kn.  Instances translate in both
directions so that homomorphism decisions are preserved: merging pads
each original tuple with fresh elements on the foreign blocks, and
unmerging projects each block back out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ArityMismatch, SignatureMismatch
from .structures import RelStructure, fresh_prefix, make_structure


@dataclass(frozen=True)
class BlockInfo:
    """Arities of the merged blocks and their offsets into [0, k)."""

    arities: tuple[int, ...]

    def __post_init__(self):
        if not self.arities or any(a < 1 for a in self.arities):
            raise ArityMismatch("block arities must be positive")

    @property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for a in self.arities:
            out.append(acc)
            acc += a
        return tuple(out)

    @property
    def total(self) -> int:
        return sum(self.arities)

    def block_range(self, i: int) -> range:
        return range(self.offsets[i], self.offsets[i] + self.arities[i])


def merged_relation_name(names: list[str] | tuple[str, ...]) -> str:
    return "*".join(names)


def split_relation_name(name: str, n: int) -> list[str]:
    parts = name.split("*")
    if len(parts) == n:
        return parts
    return [f"R{i + 1}" for i in range(n)]


def merge_template(a: RelStructure) -> tuple[RelStructure, BlockInfo]:
    """Replace the relations of a template by their product relation.

    Every combination of one tuple per relation yields one merged tuple,
    so the product has prod(|Ri|) tuples.
    """
    blocks = BlockInfo(tuple(r.arity for r in a.relations))
    merged = [
        tuple(itertools.chain.from_iterable(combo))
        for combo in itertools.product(*(r.tuples for r in a.relations))
    ]
    name = merged_relation_name([r.name for r in a.relations])
    out = make_structure(
        a.name,
        a.domain,
        [(name, blocks.total, merged)],
        role="template",
        block_arities=blocks.arities,
    )
    return out, blocks


def merge_instance(x: RelStructure, blocks: BlockInfo) -> RelStructure:
    """Translate an instance into the merged signature.

    Each tuple t of the i-th relation becomes one product tuple with t
    at block i and a fresh pad element at every other position.  Pads
    are never shared between tuples; they are named
    ``<p>pad:<relname>:<tupleindex>:<position>`` with a 0-based tuple index
    and a 1-based absolute position.  The prefix <p> is the fewest ``_``
    such that no element name starts with <p>pad: (see fresh_prefix).
    """
    if tuple(r.arity for r in x.relations) != blocks.arities:
        raise SignatureMismatch(
            f"instance {x.name!r} does not match block arities {blocks.arities}"
        )
    domain = list(x.domain)
    prefix = fresh_prefix(domain, ("pad:",))
    k = blocks.total
    merged: list[tuple[int, ...]] = []
    for i, rel in enumerate(x.relations):
        rng = blocks.block_range(i)
        for tidx, t in enumerate(rel.tuples):
            row: list[int] = []
            for pos in range(k):
                if pos in rng:
                    row.append(t[pos - rng.start])
                else:
                    domain.append(f"{prefix}pad:{rel.name}:{tidx}:{pos + 1}")
                    row.append(len(domain) - 1)
            merged.append(tuple(row))
    name = merged_relation_name([r.name for r in x.relations])
    return make_structure(
        x.name,
        domain,
        [(name, k, merged)],
        role="instance",
        block_arities=blocks.arities,
    )


def unmerge_instance(x: RelStructure, blocks: BlockInfo | None = None) -> RelStructure:
    """Project a single-relation instance back onto the original blocks."""
    if blocks is None:
        if x.block_arities is None:
            raise ArityMismatch("no block info available for unmerge")
        blocks = BlockInfo(x.block_arities)
    if len(x.relations) != 1:
        raise ArityMismatch("unmerge expects a single-relation instance")
    rel = x.relations[0]
    if rel.arity != blocks.total:
        raise ArityMismatch(
            f"relation arity {rel.arity} does not match blocks {blocks.arities}"
        )
    names = split_relation_name(rel.name, len(blocks.arities))
    rels = []
    for i, arity in enumerate(blocks.arities):
        rng = blocks.block_range(i)
        rels.append((names[i], arity, [t[rng.start : rng.stop] for t in rel.tuples]))
    return make_structure(x.name, x.domain, rels, role="instance")
