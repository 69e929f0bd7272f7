"""Graph automorphism groups and canonical certificates: two graphs are
isomorphic exactly when their certificates are equal.

A graph is first split until every part is prime (McKay & Piperno 2014;
Junttila & Kaski, bliss, 2007): a disconnected part into its components,
a connected one into the components of its complement (co-components),
each by bitset BFS (``graphs._split``), until a part is connected and
co-connected, or one vertex. ``_split_tree`` walks this on an explicit
stack. Each component or co-component is a module: every vertex outside
it is adjacent to all of it or to none of it. A prime graph is searched
whole. Otherwise each prime part is searched on its own rows, under one
node budget for all parts, and the parts are joined bottom-up
(``_search_parts``):

- the children of a split part are sorted by (vertex count, canonical
  rows), and its canonical labeling is theirs joined in that order. Its
  canonical rows are the children's on the diagonal, with every edge
  between two co-components; they depend only on the children's
  isomorphism classes and the kind of split, so isomorphic graphs get the
  same. The certificate is these rows in the leaf certificate's format:
  the graph relabeled by its canonical labeling, as for a prime graph;
- the generators are the children's, lifted to the graph, and one swap
  of each two neighbouring isomorphic children through their canonical
  labelings, an automorphism since siblings are modules;
- the base is the children's bases in order, and the first vertex of
  each child that has an empty base (it is rigid) and a later isomorphic
  sibling.

These generators are strong for that base. An automorphism that fixes a
base point of a child maps the child onto itself, and then fixes all of
it once it fixes the child's base. So the automorphisms that fix the base
points of the children before a child C, and some of C's, are the
stabilizer of those points of C in Aut(C) times the group of the later
children, and are generated by C's generators that fix those points (by
induction, and by the search for a prime part) and by the later
children's generators and swaps: exactly the generators that fix those
base points. The chain's order must be the product, over each class of m
isomorphic children C, of m!·|Aut(C)|^m, or the search raises.

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

Each automorphism found is appended to the list that orbit pruning
reads. The search keeps no chain: after the search, each generator is
checked once with ``is_automorphism`` on the input graph, and the
stabilizer chain is built once from the generators and the base with
``StabilizerChain.from_strong_generators``, from one breadth-first pass
per level that records each orbit point's Schreier vector entry, with no
Schreier generator sifted.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Generator, Optional, Sequence

from .config import Config, DEFAULT_CONFIG
from .errors import BudgetError, ValidationError
from .graphs import (Graph, _bits, _count_planes, _depth_first, _relabel_rows, _split,
                     is_automorphism)
from .perms import Permutation, StabilizerChain, orbits


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

    generators are the automorphisms the search found, in the order found,
    and for a graph that is not prime those of its parts, lifted, and the
    swaps of isomorphic parts; chain is the stabilizer chain built once from
    them, with its base taken from the search's first path or paths; stats
    counts the search's work, summed over the parts."""

    generators: list[Permutation]
    chain: StabilizerChain
    order: int
    certificate: bytes
    # canonical_labeling maps original vertex index -> canonical position
    canonical_labeling: Permutation
    stats: SearchStats

    def certificate_hex(self) -> str:
        return self.certificate.hex()


def _row_bytes(rows: list[int]) -> bytes:
    """A certificate's bytes: V rows of V bits, each in ceil(V/8)
    little-endian bytes."""
    nbytes = (len(rows) + 7) // 8
    return b"".join(row.to_bytes(nbytes, "little") for row in rows)


class _IRSearch:
    def __init__(self, adj: list[int], config: Config, nodes: int = 0):
        """adj: the searched graph's bit rows; nodes: those already charged to
        config.node_budget by the searches of earlier parts of the graph."""
        self.adj = adj
        self.n = len(adj)
        self.config = config
        self.nodes = nodes
        self.leaves = 0
        # images of every automorphism found, in the order found: orbit
        # pruning reads them, and they are a strong generating set for
        # first_prefix
        self.automorphisms: list[tuple[int, ...]] = []
        self.first: Optional[tuple[bytes, list[int]]] = None
        # the vertices individualized on the way to the first leaf
        self.first_prefix: list[int] = []
        self.best: Optional[tuple[bytes, list[int]]] = None

    def run(self) -> None:
        _depth_first(self._node(_refine(self.adj, [(1 << self.n) - 1]), []))

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
        return _row_bytes(_relabel_rows(self.adj, lab))

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
        self.automorphisms.append(tuple(imgs))


def _split_tree(adj: list[int], n: int) -> list[tuple[int, Optional[bool], int]]:
    """The parts of the vertex set, in preorder, as (mask, co, parent
    index): a part of two or more vertices that is disconnected is split
    into its components (co False), one that is connected but not
    co-connected into its co-components (co True), and a prime part, which
    is neither or one vertex, has co None. Walked on an explicit stack."""
    tree: list[tuple[int, Optional[bool], int]] = []
    stack = [((1 << n) - 1, -1)]
    while stack:
        mask, parent = stack.pop()
        co = None
        if mask & (mask - 1):
            for kind in (False, True):
                pieces = _split(adj, mask, kind)
                if len(pieces) > 1:
                    co = kind
                    stack += [(p, len(tree)) for p in reversed(pieces)]
                    break
        tree.append((mask, co, parent))
    return tree


def _aut_result(graph: Graph, lab: list[int], cert_bits: bytes,
                automorphisms: list[tuple[int, ...]], base: list[int],
                nodes: int, leaves: int) -> AutResult:
    """The result of a search, after checking each automorphism once on the
    graph: lab[i] is the vertex at canonical position i, and the
    automorphisms are a strong generating set for base."""
    generators = [Permutation._trusted(g) for g in automorphisms]
    for g in generators:
        if not is_automorphism(graph, g):
            raise AssertionError("IR search produced a non-automorphism")
    chain = StabilizerChain.from_strong_generators(base, generators, graph.vertex_count)
    return AutResult(
        generators=generators,
        chain=chain,
        order=chain.order(),
        certificate=zlib.compress(cert_bits, 6),
        canonical_labeling=Permutation._trusted(tuple(lab)).inverse(),
        stats=SearchStats(nodes=nodes, leaves=leaves, found=len(generators)),
    )


def _search_parts(graph: Graph, tree: list[tuple[int, Optional[bool], int]],
                  config: Config) -> AutResult:
    """Search each prime part of the split tree, and join the parts' results
    bottom-up (see the module docstring)."""
    n = graph.vertex_count
    order = [v for mask, co, _ in tree if co is None for v in _bits(mask)]
    # the prime parts are consecutive ranges of these rows
    rows = _relabel_rows(graph.adjacency, order)
    # per tree entry, its children's (vertex count, canonical rows, canonical
    # labeling, base, group order), added last child first
    joined: list[list] = [[] for _ in tree]
    automorphisms: list[tuple[int, ...]] = []
    nodes = leaves = 0
    end = n  # the prime parts are met from the last range back
    for index, (mask, co, parent) in reversed(list(enumerate(tree))):
        size = mask.bit_count()
        if co is None:
            end -= size
            verts = order[end:end + size]
            search = _IRSearch([row >> end & ((1 << size) - 1) for row in rows[end:end + size]],
                               config, nodes)
            search.run()
            nodes, leaves = search.nodes, leaves + search.leaves
            lab = search.best[1]
            for g in search.automorphisms:
                images = list(range(n))
                for v, x in zip(verts, g):
                    images[v] = verts[x]
                automorphisms.append(tuple(images))
            group = StabilizerChain.from_strong_generators(
                search.first_prefix, map(Permutation._trusted, search.automorphisms),
                size).order()
            done = (size, _relabel_rows(search.adj, lab), [verts[x] for x in lab],
                    [verts[x] for x in search.first_prefix], group)
        else:
            children = sorted(reversed(joined[index]), key=lambda c: c[:2])
            full = (1 << size) - 1
            canon: list[int] = []
            lab, base, group, offset, run = [], [], 1, 0, 1
            for i, (s, part_rows, part_lab, part_base, part_group) in enumerate(children):
                # in a co-split a vertex is adjacent to every other piece
                out = full ^ ((1 << s) - 1) << offset if co else 0
                canon += [row << offset | out for row in part_rows]
                lab += part_lab
                base += part_base
                group *= part_group
                offset += s
                if i + 1 < len(children) and children[i + 1][:2] == (s, part_rows):
                    # an isomorphic next sibling: swap the two through their
                    # canonical labelings, and fix this one setwise by a
                    # base point of its own
                    images = list(range(n))
                    for v, w in zip(part_lab, children[i + 1][2]):
                        images[v], images[w] = w, v
                    automorphisms.append(tuple(images))
                    base += [] if part_base else part_lab[:1]
                    run += 1
                    group *= run  # m! for a class of m, as 2·3·…·m
                else:
                    run = 1
            done = (size, canon, lab, base, group)
        joined[index] = []
        if parent >= 0:
            joined[parent].append(done)
    _, canon, lab, base, group = done
    result = _aut_result(graph, lab, _row_bytes(canon), automorphisms, base, nodes, leaves)
    if result.order != group:
        raise AssertionError(
            f"the chain's order {result.order} is not the parts' order {group}")
    return result


def automorphism_group(graph: Graph, config: Config = DEFAULT_CONFIG) -> AutResult:
    """Full automorphism group plus canonical certificate of a graph."""
    if graph.vertex_count < 1:
        raise ValidationError("automorphism search needs at least one vertex")
    tree = _split_tree(graph.adjacency, graph.vertex_count)
    if len(tree) > 1:
        return _search_parts(graph, tree, config)
    search = _IRSearch(graph.adjacency, config)
    search.run()
    cert_bits, lab = search.best
    return _aut_result(graph, lab, cert_bits, search.automorphisms, search.first_prefix,
                       search.nodes, search.leaves)
