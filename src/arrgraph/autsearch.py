"""Graph automorphism groups, canonical certificates, and isomorphism.

Individualization-refinement search: refine an ordered partition to its
coarsest equitable refinement, branch on the vertices of the first smallest
non-singleton cell, and prune branches equivalent under automorphisms
discovered so far. Leaves are discrete partitions, i.e. vertex labelings;
two leaves with the same relabeled adjacency matrix differ by an
automorphism, and the lexicographically smallest relabeled matrix over all
leaves is the canonical form.

A leaf's certificate is that matrix, row by row, each row in ceil(V/8)
little-endian bytes (McKay & Piperno, 2014), made from the adjacency rows
by ``graphs._relabel_rows``.

Every cell of the search is a vertex bit mask, from the root partition to
the leaf. ``_refine`` cuts a cell by a splitter's neighbour counts, as
bit-planes (``graphs._count_planes``), with big-int ANDs and no
per-vertex grouping. The search is fully deterministic: target cell =
first cell of smallest ``bit_count()`` above 1, branching on its set bits
in ascending vertex index; a child puts ``1 << v`` before the rest of the
target, and a leaf's labelling is each singleton's ``bit_length() - 1``.
Each node is a generator of its children's nodes, walked on one explicit
stack by ``graphs._depth_first``, so only the node budget bounds the depth.

Two rules prune the tree, and both only skip leaves that have an equal leaf
earlier in that order:

- orbit pruning: a node skips a child in the orbit of an explored sibling
  under the automorphisms found so far that fix its prefix pointwise, since
  such an automorphism maps the sibling's subtree onto the child's. The
  node keeps their orbit labels (``perms.orbits``), made again only when
  one more is found, and skips a child whose label an explored one has;
- return to the first-path ancestor: when a leaf has the first leaf's
  certificate, the automorphism γ between them maps the first path onto
  this leaf's path, so it fixes their common prefix of length d pointwise
  and maps the first path's subtree at depth d + 1 onto the current one.
  Every leaf left below depth d + 1 is then the image of an earlier leaf
  with the same certificate, and the leaf returns d, which backs the walk
  up to the depth-d node at once. γ also joins the orbit pruning there.

The first leaf of the smallest certificate therefore is never skipped, so
the canonical form and labeling are those of the unpruned tree.

The found automorphisms are a strong generating set for the base made of
the vertices individualized on the first path (McKay & Piperno, *Practical
graph isomorphism II*, 2014). At each first-path node, the next first-path
vertex is the first child searched; a later child in its orbit under the
automorphisms that fix the prefix is either pruned, because the found ones
that fix the prefix already map an explored sibling in that orbit to it,
or searched until a leaf matches the first leaf, which finds one that maps
the first-path vertex to it. So the found automorphisms that fix the prefix
reach the whole orbit of the next first-path vertex, which is what a strong
generating set needs at that level. After the whole first path the
partition is discrete, so only the identity fixes every base point, and
the group's order is the product of the orbit lengths.

Each automorphism found is checked once with ``is_automorphism`` and
appended to the list that orbit pruning reads. The search keeps no chain:
after the search, the stabilizer chain is built once from that list and the
first path's base with ``StabilizerChain.from_strong_generators``, from one
breadth-first pass per level that records each orbit point's Schreier
vector entry, with no Schreier generator sifted, and every automorphism
found is a generator.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Generator, Optional, Sequence

from .config import Config, DEFAULT_CONFIG
from .errors import BudgetError, ValidationError
from .graphs import (Graph, _bits, _count_planes, _depth_first, _mask, _relabel_rows,
                     is_automorphism)
from .perms import Permutation, StabilizerChain, orbits

OrderedPartition = list[list[int]]


def _validate_partition(graph: Graph, partition: Sequence[Sequence[int]]) -> list[list[int]]:
    """The cells of partition as lists, each read once, after checking that
    they hold each vertex exactly once, by exact type int: bool, float and
    str are kept out, as for graph document edges, and so is a partition or
    a cell that is not iterable."""
    try:
        cells = [list(c) for c in partition]
    except TypeError:
        raise ValidationError("the partition and each of its cells must be iterable") from None
    flat = [v for c in cells for v in c]
    if set(map(type, flat)) - {int} or sorted(flat) != list(range(graph.vertex_count)):
        raise ValidationError("cells do not partition the vertex set")
    return cells


def equitable_refinement(graph: Graph, partition: Sequence[Sequence[int]]) -> OrderedPartition:
    """Coarsest equitable refinement of an ordered partition.

    Splits every cell by neighbor counts into every (current) cell until
    stable; fragments of a split cell replace it in place, ordered by
    ascending neighbor count. Deterministic given the cell order, and
    idempotent. Empty cells are dropped. The cells are refined as vertex
    bit masks (``_refine``) and returned as sorted lists.
    """
    cells = _refine(graph.adjacency, [_mask(c) for c in _validate_partition(graph, partition) if c])
    return [list(_bits(m)) for m in cells]


def _refine(adj: list[int], cells: list[int],
            queue: Optional[list[int]] = None) -> list[int]:
    """Split cells, each a vertex bit mask, by neighbour counts into
    splitters taken first in, first out (all cells, unless `queue` is
    given) until stable.

    For each splitter the counts of all vertices are added up at once as
    bit-planes (_count_planes), so a cell is stable when every plane masks
    it to nothing or to the whole cell. A cell that splits
    is cut by the planes alone: the fragment of count c is the cell ANDed,
    for every plane j, with plane j or its complement by bit j of c. A split
    cell is replaced in place by its fragments in ascending count, and all
    fragments but the last join the queue: by the time the last would be
    popped, its parent cell and its earlier siblings have been applied, so
    the partition is already equitable with respect to it.
    """
    cells = list(cells)
    if queue is None:
        queue = list(cells)
    # the non-singleton cells as (index, mask), ascending index
    open_cells = [(i, m) for i, m in enumerate(cells) if m & (m - 1)]
    qi = 0
    while qi < len(queue) and open_cells:
        splitter = queue[qi]
        qi += 1
        planes = _count_planes(adj, splitter)
        splits = set()
        for i, m in open_cells:
            for plane in planes:
                part = plane & m
                if part and part != m:
                    splits.add(i)
                    break
        if not splits:
            continue
        reopened = []
        shift = 0
        for i, m in open_cells:
            if i not in splits:
                reopened.append((i + shift, m))
                continue
            frags = [m]
            for plane in reversed(planes):  # highest first: ascending count
                cut = []
                for f in frags:
                    high = f & plane
                    cut += (f ^ high, high) if high and high != f else (f,)
                frags = cut
            queue.extend(frags[:-1])
            cells[i + shift:i + shift + 1] = frags
            for f in frags:
                if f & (f - 1):
                    reopened.append((i + shift, f))
                shift += 1
            shift -= 1
        open_cells = reopened
    return cells


@dataclass(frozen=True)
class SearchStats:
    """Counters of one IR search: tree nodes and leaves visited, and
    automorphisms found (each checked once)."""

    nodes: int
    leaves: int
    found: int


@dataclass
class AutResult:
    """Automorphism generators, exact group order, and a canonical
    certificate (equal certificates iff isomorphic graphs).

    generators are the automorphisms the search found, in the order found;
    chain is the stabilizer chain built once from them, with its base taken
    from the search's first path; stats counts the search's work."""

    generators: list[Permutation]
    chain: StabilizerChain
    order: int
    certificate: bytes
    # canonical_labeling maps original vertex index -> canonical position
    canonical_labeling: Permutation
    stats: SearchStats

    def certificate_hex(self) -> str:
        return self.certificate.hex()


class _IRSearch:
    def __init__(self, graph: Graph, config: Config):
        self.graph = graph
        self.adj = graph.adjacency
        self.n = graph.vertex_count
        self.config = config
        self.nodes = 0
        self.leaves = 0
        # images of every automorphism found, each checked, in the order
        # found: orbit pruning reads them, and result() builds the chain
        # from them; they are a strong generating set for first_prefix
        self.automorphisms: list[tuple[int, ...]] = []
        self.first: Optional[tuple[bytes, list[int]]] = None
        # the vertices individualized on the way to the first leaf
        self.first_prefix: list[int] = []
        self.best: Optional[tuple[bytes, list[int]]] = None

    def run(self) -> None:
        _depth_first(self._node(_refine(self.adj, [(1 << self.n) - 1]), []))

    def result(self) -> AutResult:
        cert_bits, lab = self.best
        pos = [0] * self.n
        for i, v in enumerate(lab):
            pos[v] = i
        generators = [Permutation._trusted(g) for g in self.automorphisms]
        chain = StabilizerChain.from_strong_generators(
            self.first_prefix, generators, self.n)
        return AutResult(
            generators=generators,
            chain=chain,
            order=chain.order(),
            certificate=zlib.compress(cert_bits, 6),
            canonical_labeling=Permutation._trusted(tuple(pos)),
            stats=SearchStats(nodes=self.nodes, leaves=self.leaves,
                              found=len(generators)),
        )

    # -- search tree

    def _node(self, cells: list[int], prefix: list[int]) -> Generator:
        """The node reached by individualizing prefix, for
        graphs._depth_first: it yields its children's nodes, and a leaf
        returns the depth the search backs up to (_leaf)."""
        self.nodes += 1
        if self.nodes > self.config.node_budget:
            raise BudgetError(
                f"IR search exceeded node budget {self.config.node_budget}")
        target = -1
        smallest = self.n + 1
        for i, cell in enumerate(cells):
            if 1 < cell.bit_count() < smallest:
                target = i
                smallest = cell.bit_count()
        if target < 0:
            return self._leaf([c.bit_length() - 1 for c in cells], prefix)
        explored: list[int] = []
        # images of the automorphisms found so far that fix the prefix
        # pointwise (the list of automorphisms only grows, so scan new
        # ones), their orbit labels, and the explored children's labels
        fixing: list[tuple[int, ...]] = []
        scanned = 0
        orbit: Sequence[int] = range(self.n)
        opened: set[int] = set()
        m = cells[target]
        for v in _bits(m):
            if explored:
                new = [g for g in self.automorphisms[scanned:]
                       if [g[p] for p in prefix] == prefix]
                scanned = len(self.automorphisms)
                if new:
                    fixing += new
                    orbit = orbits(fixing, self.n)
                    opened = {orbit[x] for x in explored}
                if orbit[v] in opened:
                    continue
            explored.append(v)
            opened.add(orbit[v])
            child = cells[:target] + [1 << v, m ^ (1 << v)] + cells[target + 1:]
            # cells is equitable, so only the new singleton can split anything
            yield self._node(_refine(self.adj, child, [1 << v]), prefix + [v])

    # -- leaves

    def _leaf_cert(self, lab: list[int]) -> bytes:
        # row i has bit j set iff lab[i] and lab[j] are adjacent
        nbytes = (self.n + 7) // 8
        return b"".join(row.to_bytes(nbytes, "little")
                        for row in _relabel_rows(self.adj, lab))

    def _leaf(self, lab: list[int], prefix: list[int]) -> int:
        self.leaves += 1
        cert = self._leaf_cert(lab)
        if self.first is None:
            self.first = self.best = (cert, lab)
            self.first_prefix = prefix
            return len(prefix)
        if cert == self.first[0]:
            self._record_automorphism(self.first[1], lab)
            # back up to the deepest node shared with the first path; no
            # leaf's path is a prefix of another's, so the two differ
            d = 0
            while prefix[d] == self.first_prefix[d]:
                d += 1
            return d
        if cert < self.best[0]:
            self.best = (cert, lab)
        elif cert == self.best[0] and self.best is not self.first:
            self._record_automorphism(self.best[1], lab)
        return len(prefix)

    def _record_automorphism(self, lab1: list[int], lab2: list[int]) -> None:
        imgs = [0] * self.n
        for a, b in zip(lab1, lab2):
            imgs[a] = b
        images = tuple(imgs)
        if not is_automorphism(self.graph, Permutation._trusted(images)):
            raise AssertionError("IR search produced a non-automorphism")
        self.automorphisms.append(images)


def automorphism_group(graph: Graph, config: Config = DEFAULT_CONFIG) -> AutResult:
    """Full automorphism group plus canonical certificate of a graph."""
    if graph.vertex_count < 1:
        raise ValidationError("automorphism search needs at least one vertex")
    search = _IRSearch(graph, config)
    search.run()
    return search.result()


def are_isomorphic(g1: Graph, g2: Graph,
                   config: Config = DEFAULT_CONFIG
                   ) -> tuple[bool, Optional[Permutation]]:
    """Certificate equality; on success also returns a verified witness
    bijection mapping vertices of g1 to vertices of g2."""
    if g1.vertex_count != g2.vertex_count or g1.edge_count() != g2.edge_count():
        return False, None
    r1 = automorphism_group(g1, config)
    r2 = automorphism_group(g2, config)
    if r1.certificate != r2.certificate:
        return False, None
    witness = r1.canonical_labeling.compose(r2.canonical_labeling.inverse())
    if g1.relabeled(witness).adjacency != g2.adjacency:
        raise AssertionError("isomorphism witness failed the adjacency check")
    return True, witness

