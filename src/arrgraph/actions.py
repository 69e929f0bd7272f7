"""Induced actions on set families, block systems, quotients, and the
candidate group of the fixed-point-count Cayley graphs.

The family order is always (i, j)-lexicographic over the delta sets, so
block systems diff cleanly across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .config import Config, DEFAULT_CONFIG
from .errors import (ArrgraphError, FamilyError, IntransitiveActionError,
                     ValidationError)
from .perms import (Permutation, build_stabilizer_chain, check_tuple_count,
                    symmetric_group_generators)


@dataclass(frozen=True)
class ActionOnSets:
    """A group acting on a family of vertex subsets: for generator number g,
    movers[g] permutes family indexes the way the vertex permutation moves
    the sets."""

    family: tuple[frozenset[int], ...]
    movers: tuple[Permutation, ...]

    def is_transitive(self) -> bool:
        m = len(self.family)
        if m == 0:
            return False
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for mover in self.movers:
                y = mover(x)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen) == m


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
    the image G^family taken from a stabilizer chain."""
    image_order = build_stabilizer_chain(action.movers, degree=len(action.family)).order()
    order, rem = divmod(group_order, image_order)
    if rem:
        raise ArrgraphError(
            f"image order {image_order} does not divide group order {group_order}")
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


def minimal_block_system(action: ActionOnSets,
                         seed: tuple[int, int]) -> BlockSystem:
    """Finest block system in which the two seed indexes share a block
    (union-find closure of the seed pair under all movers). Requires a
    transitive action."""
    if not action.is_transitive():
        raise IntransitiveActionError("block systems require a transitive action")
    m = len(action.family)
    a, b = seed
    if not (0 <= a < m and 0 <= b < m) or a == b:
        raise ValidationError(f"bad seed pair {seed}")
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[max(rx, ry)] = min(rx, ry)
        return True

    queue = [(a, b)]
    union(a, b)
    while queue:
        x, y = queue.pop()
        for mover in action.movers:
            ix, iy = mover(x), mover(y)
            if union(ix, iy):
                queue.append((ix, iy))
    groups: dict[int, list[int]] = {}
    for x in range(m):
        groups.setdefault(find(x), []).append(x)
    return BlockSystem.from_blocks(groups.values())


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
    action_order = build_stabilizer_chain(action.movers, degree=len(action.family)).order()
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


# --------------------------------------------------------------------------
# Candidate automorphism group of Cay(S_n, F_k)


def conjecture_candidate_group(n: int, config: Config = DEFAULT_CONFIG) -> list[Permutation]:
    """Generators, on Cayley-graph vertex indexes, of the group built from
    right multiplications, conjugations, and inversion.

    Vertex indexes follow the one-line lexicographic order used by
    build_cayley_graph; the generated order is computed downstream, never
    assumed. S_n must pass the vertex guard."""
    if n < 3:
        raise ValidationError(f"candidate group needs n >= 3, got {n}")
    check_tuple_count(n, n, config)
    labels = list(itertools.permutations(range(n)))
    index = {lab: i for i, lab in enumerate(labels)}
    perms = [Permutation(lab) for lab in labels]
    out = []
    for g in symmetric_group_generators(n):
        ginv = g.inverse()
        # right regular representation: x -> x * g
        out.append(Permutation(index[x.compose(g).images] for x in perms))
        # inner automorphism: x -> g^-1 * x * g
        out.append(Permutation(index[ginv.compose(x).compose(g).images] for x in perms))
    # inversion: x -> x^-1
    out.append(Permutation(index[x.inverse().images] for x in perms))
    return out
