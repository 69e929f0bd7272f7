"""Arrangement graphs A(n,k,r), Cayley graphs on S_n, and the vertex maps
relating them.

Vertices are indexed 0..V-1 by the lexicographic rank of their k-tuple
label. Cayley graph vertices are ordered by the rank of the one-line form,
which makes the tuple<->permutation bijection the identity on indexes (a
deliberate debugging aid; isomorphism tests elsewhere run on independently
shuffled copies to stay honest). Value relabelings map both families to
themselves, so each builder makes only row 0, that of (0, ..., k-1), and
one engine (_translate_rows) makes every other row as the value translate
of a lex-smaller row one value swap away.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from functools import reduce
from operator import and_, itemgetter, ne, or_
from typing import Generator, Iterable, Iterator, Optional, Sequence

from .config import Config, DEFAULT_CONFIG
from .errors import ValidationError
from .perms import (ConnectionSet, Permutation, _inverse, _require_ints, check_tuple_count,
                    symmetric_group_generators)


class Graph:
    """Immutable undirected graph with packed bit-vector adjacency: bit u of
    adjacency[v] is set when u and v are adjacent. labels[v] is the tuple
    label of vertex v (0-based entries); metadata records the construction
    parameters."""

    __slots__ = ("vertex_count", "labels", "adjacency", "metadata", "__weakref__")

    def __init__(self, labels: Sequence[Sequence[int]], adjacency: Sequence[int],
                 metadata: Optional[dict] = None):
        """Checks, in order: labels are distinct sequences of exact ints;
        metadata is a dict or None; rows are V exact ints, below bit V, loop-free, symmetric."""
        try:
            labels = tuple(map(tuple, labels))
            if not all(type(x) is int for lab in labels for x in lab):
                raise TypeError
        except TypeError:
            raise ValidationError("vertex labels are not sequences of integers") from None
        nv = len(labels)
        if len(set(labels)) != nv:
            raise ValidationError("vertex labels are not pairwise distinct")
        if not (metadata is None or isinstance(metadata, dict)):
            raise ValidationError("graph metadata is not a dict")
        rows = list(adjacency) if isinstance(adjacency, (list, tuple)) else None
        if rows is None or len(rows) != nv or not all(type(row) is int for row in rows):
            raise ValidationError(f"adjacency is not {nv} integer rows, one per label")
        for v, row in enumerate(rows):
            # -1 for a negative row; _transpose cannot see bits at nv or above
            if row >> nv:
                raise ValidationError(f"adjacency row {v} has a bit at {nv} or above")
            if row >> v & 1:
                raise ValidationError(f"adjacency row {v} has a self-loop")
        if _transpose(rows) != rows:
            raise ValidationError("adjacency rows are not symmetric")
        self.vertex_count = nv
        self.labels = labels
        self.adjacency = rows
        self.metadata = dict(metadata or {})

    @classmethod
    def _from_adjacency(cls, labels: Sequence[tuple[int, ...]],
                        adjacency: list[int], metadata: dict) -> "Graph":
        """Wrap labels and rows that are valid by construction (those of the
        builders, relabeled and from_edgelist) unchecked, as
        Permutation._trusted does; outside input goes through Graph()."""
        g = object.__new__(cls)
        g.vertex_count = len(labels)
        g.labels = tuple(labels)
        g.adjacency = adjacency
        g.metadata = dict(metadata)
        return g

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        return _bits(self.adjacency[v])

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.vertex_count)) // 2

    def relabeled(self, perm: Permutation) -> "Graph":
        """The graph with vertex v moved to index perm(v) (labels follow)."""
        if perm.degree != self.vertex_count:
            raise ValidationError("relabeling permutation of wrong degree")
        pre = perm.inverse().images
        return Graph._from_adjacency([self.labels[x] for x in pre],
                                     _relabel_rows(self.adjacency, pre), self.metadata)

    def is_connected(self) -> bool:
        return len(_split(self.adjacency, (1 << self.vertex_count) - 1, False)) < 2


def build_arrangement_graph(n: int, k: int, r: int,
                            config: Config = DEFAULT_CONFIG) -> Graph:
    """A(n,k,r): vertices are k-tuples of distinct values in 0..n-1, edges
    join tuples differing in exactly r coordinates.

    Row 0 holds the tuples that differ from (0, ..., k-1) in exactly r
    coordinates. A value relabeling keeps the number of coordinates in
    which two tuples differ, so _translate_rows makes every other row from
    row 0. No edge list is formed."""
    _require_ints(n=n, k=k, r=r)
    if not 1 <= r <= k <= n:
        raise ValidationError(f"need 1 <= r <= k <= n, got r={r} k={k} n={n}")
    check_tuple_count(n, k, config)
    labels = list(itertools.permutations(range(n), k))  # lexicographic = rank order
    row0 = _mask(v for v, t in enumerate(labels) if sum(map(ne, t, range(k))) == r)
    return Graph._from_adjacency(labels, _translate_rows(n, k, row0),
                                 {"family": "arrangement", "n": n, "k": k, "r": r})


def build_cayley_graph(n: int, cset: ConnectionSet,
                       config: Config = DEFAULT_CONFIG) -> Graph:
    """Cay(S_n, S): vertices are the n! permutations (ordered by one-line
    form), with an edge from g to s*g for every s in S.

    Row 0, the identity's, holds one bit per element of S. The one-line
    form of s*g is that of s with its values relabeled by g, so the row of
    g is row 0 with every bit relabeled by g, and _translate_rows makes
    every other row from row 0: the build costs the same whatever |S| is,
    and is bounded by the vertex guard alone."""
    if cset.degree != n:
        raise ValidationError(f"connection set degree {cset.degree} != n={n}")
    check_tuple_count(n, n, config)
    labels = list(itertools.permutations(range(n)))  # lexicographic = rank order
    # S is inverse-closed and identity-free, so the rows are symmetric and loop-free
    row0 = _mask(bisect_left(labels, s.images) for s in cset.elements)
    return Graph._from_adjacency(labels, _translate_rows(n, n, row0),
                                 {"family": "cayley", "n": n, "kind": cset.label()})


def _translate_rows(n: int, k: int, row0: int) -> list[int]:
    """The rows, in rank order, of a graph on the k-tuples of distinct values
    in 0..n-1 that every value relabeling t -> g(t) maps to itself, from
    row 0, that of (0, ..., k-1): the package's one row construction.

    g carries the row of t to the row of g(t), with every bit moved by g.
    The tuples that start 0, ..., j-1 come first, in n - j blocks of
    perm(n-1-j, k-1-j) by their entry j + q at j, and block q >= 1 is block
    q - 1 with the values j+q-1 and j+q swapped: the entry at j moves one
    value up among those left, and the rest of the tuple keeps its relative
    order (_value_swap_tables). Going through j = k-1, ..., 0 makes each
    row from one made before it, in at most k delta swaps (Warren, *Hacker's
    Delight*, 2nd ed., 2-20) whatever its number of bits; a bit in none of
    the swaps' masks, a tuple without a or a+1, stays where it is."""
    adjacency = [row0]
    tables = _value_swap_tables(n, k)
    for j in range(k - 1, -1, -1):
        width = math.perm(n - 1 - j, k - 1 - j)
        for q in range(1, n - j):
            pairs = tables[j + q - 1]
            for row in adjacency[(q - 1) * width:q * width]:
                for offset, up in pairs:
                    # swap the bits in up with those offset above them
                    t = (row ^ row >> offset) & up
                    row ^= t ^ t << offset
                adjacency.append(row)
    return adjacency


def _value_swap_tables(n: int, k: int) -> list[list[tuple[int, int]]]:
    """tables[a], for each value swap (a a+1) of S_n acting on the k-tuples
    of distinct values in 0..n-1 in rank order: the pairs (offset, mask),
    one per position j < min(k, n-1) (an n-tuple holds a or a+1 before its
    last position), such that swapping the values a and a+1
    of a tuple moves its rank up by offset = perm(n-1-j, k-1-j) for every
    vertex in mask, and down by offset for every vertex in mask << offset.
    The tuples that hold neither a nor a+1 stay where they are; they and
    the masks and their shifts partition the vertices.

    Let j be the first position of a tuple that holds a or a+1. Swapping
    the two values keeps the entries before j and the relative order of the
    values after j, and moves the entry at j one place up (from a) or down
    (from a+1) among the values left, so the rank moves by
    +-perm(n-1-j, k-1-j). The masks over the d-tuples of 0..m-1, d = m -
    (n-k), are made for m = n-k+1..n from those for m - 1, starting from
    the one empty tuple, which holds no value. The tuples with the same
    first entry x form a block of perm(m-1, d-1): for j = 0 the mask is
    block a; for j > 0, a block with x < a holds the mask of (a-1, j-1)
    one level down, as the values over x move down by one, and a block
    with x > a+1 that of (a, j-1). Equal blocks side by side are one
    product with a repunit, so no vertex is visited."""
    masks: list[list[int]] = [[]] * (n - k - 1)  # masks[a][j], over the empty tuple
    for m in range(n - k + 1, n + 1):
        d = m - (n - k)
        width = math.perm(m - 1, d - 1)
        # repunit[x]: bit 0 of each of the blocks 0..x-1
        repunit = [0]
        for x in range(m):
            repunit.append(repunit[-1] | 1 << x * width)
        none = [0] * (d - 1)
        below = masks
        masks = []
        for a in range(m - 1):
            low = below[a - 1] if a > 0 else none
            high = below[a] if a < m - 2 else none
            masks.append([((1 << width) - 1) << a * width]
                         + [x * repunit[a] + y * (repunit[m] - repunit[a + 2])
                            for x, y in zip(low, high)])
    offsets = [math.perm(n - 1 - j, k - 1 - j) for j in range(min(k, n - 1))]
    return [list(zip(offsets, held)) for held in masks]


# --------------------------------------------------------------------------
# The three automorphism families: each map on tuple labels is a chain of the
# three primitives below, lifted by _lift_label_maps alone. A full-length
# tuple t is the one-line form of the permutation i -> t[i].


def _value_map(g: Sequence[int]):
    """t -> g(t): entry j of the image is g[t[j]]."""
    image = g.__getitem__
    return lambda t: tuple(map(image, t))


def _position_map(pre: Sequence[int]):
    """Q(h) for pre = h^-1, the identity for degree <= 1: entry j of the image
    is t[h^-1(j)]; None for a tuple whose length is not h's degree."""
    get = itemgetter(*pre) if len(pre) > 1 else tuple
    return lambda t: get(t) if len(t) == len(pre) else None


def _inversion(t: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """t^-1 when t lists 0..len(t)-1, else None."""
    return _inverse(t) if sorted(t) == list(range(len(t))) else None


def _lift_label_maps(graph: Graph, n: int, maps) -> list[Permutation]:
    """The maps on tuple labels, each a sequence of primitives applied in turn,
    that carry every label of graph to a label, as vertex permutations through
    one label index; a step giving None for some label leaves its map out. The
    maps are injective on their domains. Label entries outside 0..n-1 raise
    ValidationError, unless there is no map."""
    if not maps:
        return []
    if any(not 0 <= x < n for x in set(itertools.chain.from_iterable(graph.labels))):
        raise ValidationError(f"tuple entries outside 0..n-1 for n={n}")
    index = {lab: i for i, lab in enumerate(graph.labels)}
    out = []
    for steps in maps:
        images = graph.labels
        for step in (*steps, index.get):
            images = list(map(step, images))
            if None in images:
                break
        else:
            out.append(Permutation._trusted(tuple(images)))
    return out


def value_relabelings(graph: Graph, n: int,
                      generators: Optional[Sequence[Permutation]] = None
                      ) -> list[Permutation]:
    """The value maps t -> g(t), for g in generators (by default
    symmetric_group_generators(n), whose last map is the n-cycle for n >= 2),
    lifted by _lift_label_maps. A g that maps some label to a tuple that is
    no label is left out. The maps are not checked against the edges."""
    if generators is None:
        generators = symmetric_group_generators(n)
    return _lift_label_maps(graph, n, [(_value_map(g.images),) for g in generators])


def stabilizer_relabelings(graph: Graph, n: int, v: int) -> list[Permutation]:
    """Relabelings that fix the label t1 of vertex v, a k-tuple of distinct
    values in 0..n-1, lifted by _lift_label_maps: the diagonal S_k (the
    position map Q(h), then the value map t1 h t1^-1), S_{n-k} on the
    values missing from t1, and t -> t1 t^-1 t1 when k = n (inversion, then
    Q(t1^-1), then the value map t1). Each symmetric factor is given by
    symmetric_group_generators, so there are at most 5 maps. On A(n,k,r)
    they generate the stabilizer of v in the candidate group, of order
    k!(n-k)!, times 2 when k = n (n >= 3). A map that carries some label to
    a tuple that is no label is left out; the maps are not checked against
    the edges."""
    t1 = graph.labels[v]
    k = len(t1)
    if len(set(t1)) != k:
        return []

    def moving(values: Sequence[int], h: Permutation):
        """values[i] -> values[h(i)] on 0..n-1, the rest fixed; an entry of
        t1 off 0..n-1 is skipped here and rejected by the lift."""
        moved = dict(zip(values, (values[i] for i in h.images)))
        return _value_map([moved.get(x, x) for x in range(n)])

    maps = [(_position_map(h.inverse().images), moving(t1, h))
            for h in symmetric_group_generators(k)]
    missing = [x for x in range(n) if x not in t1]
    maps += [(moving(missing, s),) for s in symmetric_group_generators(len(missing))]
    if k == n:
        maps.append((_inversion, _position_map(t1), _value_map(t1)))
    return _lift_label_maps(graph, n, maps)


def _mask(vertices: Iterable[int]) -> int:
    """The bit row with the given vertices set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _bits(mask: int) -> Iterator[int]:
    """The vertices of a bit row, ascending: the inverse of ``_mask``."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(rows: Sequence[int]) -> list[int]:
    """The transpose of a square bit matrix given as V rows of V bits: bit
    r of row c of the result is bit c of row r.

    The matrix is padded with zero rows to a power of two 2^s and
    transposed in s stages of masked block swaps (Warren, *Hacker's
    Delight*, 2nd ed., 7-3), for j = 1, 2, 4, ..., 2^(s-1). The stage of
    width j swaps, in every pair of rows k and k + j with bit j of k clear,
    the bits of row k at the columns with bit j set with the bits of row
    k + j at the columns j lower; after the last stage every bit (r, c) has
    moved to (c, r). Before the stage of width j, row k holds bits of the
    rows r with r // j = k // j only, so a block of 2j rows that starts at
    row V or later holds zeros and is skipped: each stage makes about V/2
    swaps of a few big-int operations."""
    nv = len(rows)
    size = 1 << (nv - 1).bit_length() if nv > 1 else nv
    a = list(rows)
    a.extend([0] * (size - nv))
    full = (1 << size) - 1
    j = 1
    while j < size:
        # the columns with bit j clear: j ones, then j zeros, repeated
        mask = full // ((1 << 2 * j) - 1) * ((1 << j) - 1)
        for base in range(0, nv, 2 * j):
            for k in range(base, base + j):
                x = a[k]
                y = a[k + j]
                t = ((x >> j) ^ y) & mask
                a[k] = x ^ (t << j)
                a[k + j] = y ^ t
        j <<= 1
    del a[nv:]
    return a


def _relabel_rows(rows: Sequence[int], order: Sequence[int]) -> list[int]:
    """The rows of a symmetric bit matrix relabeled so that vertex order[i]
    sits at i: bit j of row i of the result is bit order[j] of row
    order[i]. The package's one row map.

    The rows are reordered by order and transposed (_transpose); as the
    matrix is symmetric, reordering the rows of the transpose by order
    again reorders the columns. One transposed copy of V^2/8 bytes is held
    beyond the input."""
    cols = _transpose([rows[v] for v in order])
    return [cols[v] for v in order]


def _split(adj: Sequence[int], part: int, co: bool) -> list[int]:
    """The vertex masks of the components of the subgraph induced on the
    mask part, or of its complement if co, each by bitset BFS from the
    lowest vertex not yet reached. The package's one component routine."""
    pieces = []
    rest = part
    while rest:
        seen = frontier = rest & -rest
        while frontier:
            rows = map(adj.__getitem__, _bits(frontier))
            # a complement neighbour of the frontier is not adjacent to all of it
            reach = ~reduce(and_, rows, part) if co else reduce(or_, rows, 0)
            frontier = reach & part & ~seen
            seen |= frontier
        pieces.append(seen)
        rest ^= seen
    return pieces


def _count_planes(rows: Sequence[int], vertices: int) -> list[int]:
    """The bit-sliced column sums of the rows rows[v], for each v in the
    bit mask vertices: bit u of plane j is bit j of the number of those
    rows with bit u set. The package's one bit-plane counter.

    Each row is added with ripple carry: it is XORed into plane 0, and the
    bits it had in common with plane 0 carry into plane 1, and so on. A
    carry past the highest plane becomes a new plane, so the last plane is
    never empty and the planes are as many as the largest sum has bits
    (none for no rows); a lower plane may be empty."""
    planes: list[int] = []
    while vertices:
        v = vertices.bit_length() - 1
        vertices ^= 1 << v
        carry = rows[v]
        j = 0
        while carry:
            if j == len(planes):
                planes.append(carry)
                break
            plane = planes[j]
            planes[j] = plane ^ carry
            carry &= plane
            j += 1
    return planes


def _depth_first(root: Generator) -> None:
    """Walk a search tree depth first on one explicit stack, so that no
    recursion limit bounds its depth: the package's one tree walk.

    A node is a generator that yields its children's generators one at a
    time; each child's subtree is walked before the node is resumed. A node
    that returns an int d backs the walk up to depth d (the root's is 0):
    every open node deeper than d is dropped unfinished, and the node at
    depth d goes on with its next child."""
    stack = [root]
    while stack:
        try:
            stack.append(next(stack[-1]))
        except StopIteration as done:
            stack.pop()
            if done.value is not None:
                del stack[done.value + 1:]


def is_automorphism(graph: Graph, f: Permutation) -> bool:
    """True iff f preserves adjacency and non-adjacency: for all u and v,
    f(u) and f(v) are adjacent exactly when u and v are, that is, iff the
    rows relabeled so that f(v) sits at v are the graph's own. The whole
    map is made before the comparison, so a non-automorphism does not exit
    early."""
    if f.degree != graph.vertex_count:
        raise ValidationError("vertex permutation of wrong degree")
    return _relabel_rows(graph.adjacency, f.images) == graph.adjacency


def candidate_aut_generators(n: int, k: int, graph: Graph) -> list[Permutation]:
    """Vertex permutations of a graph with the labels of A(n,k,r), for any r,
    generating the expected automorphism group: the value maps for the
    generators of S_n, the position maps for those of S_k, and inversion
    when k = n, lifted by _lift_label_maps. A k outside 1..n, a label that
    is no k-tuple, or a map off the labels raises ValidationError.
    Cay(S_n, F_{n-r}) has the labels of A(n,n,r), and there the value maps
    are the right multiplications, the position maps the left.

    Every returned map is verified edge-preserving; a failure means an
    implementation bug, not a property of the graph."""
    _require_ints(n=n, k=k)
    if not 1 <= k <= n:
        raise ValidationError(f"need 1 <= k <= n, got k={k} n={n}")
    maps = [(_value_map(g.images),) for g in symmetric_group_generators(n)]
    maps += [(_position_map(h.inverse().images),) for h in symmetric_group_generators(k)]
    if k == n:
        maps.append((_inversion,))
    out = _lift_label_maps(graph, n, maps)
    if len(out) != len(maps) or any(len(t) != k for t in graph.labels):
        raise ValidationError(f"the graph's labels are not {k}-tuples, or not closed under "
                              f"S_{n} on values, S_{k} on positions"
                              + (" and inversion" if k == n else ""))
    for f in out:
        if not is_automorphism(graph, f):
            raise AssertionError(
                f"candidate generator for n={n}, k={k} is not an automorphism of "
                "the graph; this indicates an implementation bug")
    return out
