"""Induced actions on set families, block systems, and quotients.

The family order is always (i, j)-lexicographic over the delta sets, so
block systems diff cleanly across runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import ArrgraphError, FamilyError, ValidationError
from .perms import Permutation, StabilizerChain


@dataclass(frozen=True)
class ActionOnSets:
    """A group acting on a family of vertex subsets: for generator number g,
    movers[g] permutes family indexes the way the vertex permutation moves
    the sets."""

    family: tuple[frozenset[int], ...]
    movers: tuple[Permutation, ...]

    @functools.cached_property
    def image_order(self) -> int:
        """Order of the group the movers generate on the family indexes,
        from a stabilizer chain built the first time it is asked for."""
        return StabilizerChain(self.movers, degree=len(self.family)).order()


@dataclass(frozen=True)
class BlockSystem:
    """A partition of family indexes each of whose blocks is mapped onto a
    block by every mover. Blocks are sorted by least member."""

    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "BlockSystem":
        return cls(tuple(sorted(tuple(sorted(b)) for b in blocks)))

    def block_of(self) -> dict[int, int]:
        out = {}
        for bi, block in enumerate(self.blocks):
            for x in block:
                out[x] = bi
        return out


def induce_action(generators: Sequence[Permutation],
                  family: Sequence[frozenset[int]]) -> ActionOnSets:
    """Movers of each generator on the family, by setwise image lookup.

    A generator whose image of some member falls outside the family is an
    explicit error: the family is not invariant under the group."""
    family = tuple(frozenset(s) for s in family)
    index = {s: i for i, s in enumerate(family)}
    if len(index) != len(family):
        raise ValidationError("family members must be pairwise distinct")
    movers = []
    for g in generators:
        images = []
        for i, s in enumerate(family):
            img = frozenset(g(v) for v in s)
            j = index.get(img)
            if j is None:
                raise FamilyError(
                    f"generator maps family member {i} outside the family")
            images.append(j)
        movers.append(Permutation(images))
    return ActionOnSets(family, tuple(movers))


def kernel_order(group_order: int, action: ActionOnSets) -> int:
    """Order of the kernel of the action of a group G of order group_order
    whose generators map to action.movers: |G| / |G^family|, the order of
    the image G^family taken from the action's stabilizer chain."""
    order, rem = divmod(group_order, action.image_order)
    if rem:
        raise ArrgraphError(
            f"image order {action.image_order} does not divide group order {group_order}")
    return order


def block_violation(action: ActionOnSets, candidate: BlockSystem
                    ) -> Optional[tuple[int, frozenset[int], frozenset[int], frozenset[int]]]:
    """The first (mover index, block, image, overlapping block) where a mover
    maps a candidate block onto a set that is no block: the image meets the
    overlapping block, the first one it meets, without being equal to it.
    None iff every mover permutes the candidate blocks."""
    m = len(action.family)
    flat = sorted(x for b in candidate.blocks for x in b)
    if flat != list(range(m)) or any(len(b) == 0 for b in candidate.blocks):
        raise ValidationError("candidate does not partition the family indexes")
    blocks = [frozenset(b) for b in candidate.blocks]
    block_set = set(blocks)
    for mi, mover in enumerate(action.movers):
        for b in blocks:
            image = frozenset(mover(x) for x in b)
            if image not in block_set:
                return mi, b, image, next(b2 for b2 in blocks if image & b2)
    return None


def verify_block_system(action: ActionOnSets, candidate: BlockSystem) -> bool:
    """True iff every mover permutes the candidate blocks."""
    return block_violation(action, candidate) is None


def quotient_action(action: ActionOnSets, blocks: BlockSystem
                    ) -> tuple[ActionOnSets, int, int]:
    """Action induced on the blocks of a verified block system.

    Returns (quotient action, quotient group order, kernel order); both
    orders come from stabilizer chains, the kernel order as the ratio of the
    acting group's order to the quotient's."""
    if not verify_block_system(action, blocks):
        raise ValidationError("not a block system for this action")
    block_of = blocks.block_of()
    quotient_movers = [Permutation(block_of[mover(block[0])] for block in blocks.blocks)
                       for mover in action.movers]
    family = tuple(frozenset(block) for block in blocks.blocks)
    quotient = ActionOnSets(family, tuple(quotient_movers))
    action_order = action.image_order
    kernel = kernel_order(action_order, quotient)
    return quotient, action_order // kernel, kernel


# --------------------------------------------------------------------------
# Row/column partitions of the delta family


def row_partition(n: int, k: int) -> BlockSystem:
    """Blocks group delta sets with the same banned value i."""
    return BlockSystem.from_blocks(
        [list(range(i * k, (i + 1) * k)) for i in range(n)])


def column_partition(n: int, k: int) -> BlockSystem:
    """Blocks group delta sets with the same pinned position j."""
    return BlockSystem.from_blocks(
        [list(range(j, n * k, k)) for j in range(k)])
