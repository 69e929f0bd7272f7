"""Arrangement graphs A(n,k,r), Cayley graphs on S_n, and the vertex maps
relating them.

Vertices are indexed 0..V-1 by the lexicographic rank of their k-tuple
label. Cayley graph vertices are ordered by the rank of the one-line form,
which makes the tuple<->permutation bijection the identity on indexes (a
deliberate debugging aid; isomorphism tests elsewhere run on independently
shuffled copies to stay honest). A(n,k,r) is built from bit-sliced
agreement counts, and Cay(S_n, S) from the identity's row by right
translates, each one value swap from a lex-smaller row.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from functools import reduce
from operator import and_, or_
from typing import Generator, Iterable, Iterator, Optional, Sequence

from .config import Config, DEFAULT_CONFIG
from .errors import ValidationError
from .perms import (ConnectionSet, Permutation, _require_ints, check_tuple_count,
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

    Two tuples differ in r coordinates when they agree in k - r. The
    vertices with value x at position j form the mask at[j][x]. For each
    tuple t the k masks at[j][t[j]] are summed into bit-planes
    (_count_planes), and the row of t is one AND over the planes that
    selects the count k - r. No edge list is formed."""
    _require_ints(n=n, k=k, r=r)
    if not 1 <= r <= k <= n:
        raise ValidationError(f"need 1 <= r <= k <= n, got r={r} k={k} n={n}")
    check_tuple_count(n, k, config)
    labels = list(itertools.permutations(range(n), k))  # lexicographic = rank order
    nv = len(labels)
    full = (1 << nv) - 1
    at = []
    for j in range(k):
        holders: list[list[int]] = [[] for _ in range(n)]
        for v, t in enumerate(labels):
            holders[t[j]].append(v)
        masks = []
        for vertices in holders:
            digits = bytearray(b"0") * nv  # digits[v] is bit v, read reversed
            for v in vertices:
                digits[v] = 49  # "1"
            masks.append(int(digits[::-1], 2))
        at.append(masks)
    positions = (1 << k) - 1
    agree = k - r
    adjacency = []
    for t in labels:
        # planes[p]: bit p of every vertex's agreement count with t. t
        # agrees with itself in k positions, so there are k.bit_length()
        # planes, enough for every bit of k - r
        planes = _count_planes(list(map(list.__getitem__, at, t)), positions)
        row = full
        for p, plane in enumerate(planes):
            row &= plane if agree >> p & 1 else ~plane
        adjacency.append(row)
    return Graph._from_adjacency(
        labels, adjacency, {"family": "arrangement", "n": n, "k": k, "r": r})


def build_cayley_graph(n: int, cset: ConnectionSet,
                       config: Config = DEFAULT_CONFIG) -> Graph:
    """Cay(S_n, S): vertices are the n! permutations (ordered by one-line
    form), with an edge from g to s*g for every s in S.

    Row 0, the identity's, holds one bit per element of S, and every other
    row is a right translate of an earlier one: row(g*t) = {h*t : h in
    row(g)}, and h*t is h with its values relabeled by t. A vertex v > 0
    whose one-line form starts 0, 1, ..., j-1 but not j has a value a+1 > j
    at position j, so a comes later. Swapping a and a+1 gives the vertex p
    = v - (n-1-j)!, and v = p*(a a+1); row v is row p with each bit moved
    by that swap, as _value_swap_tables gives. That is 2(n-1) masked
    shifts per row whatever |S| is, so the build is bounded by the vertex
    guard alone."""
    if cset.degree != n:
        raise ValidationError(f"connection set degree {cset.degree} != n={n}")
    check_tuple_count(n, n, config)
    labels = list(itertools.permutations(range(n)))  # lexicographic = rank order
    # S is inverse-closed and identity-free, so the rows are symmetric and loop-free
    adjacency = [_mask(bisect_left(labels, s.images) for s in cset.elements)]
    tables = _value_swap_tables(n)
    for m in range(1, n):
        # the vertices q*m! .. (q+1)*m! - 1 start 0, ..., j-1, j+q with j =
        # n-1-m; their parents, m! lower, swap the values j+q-1 and j+q
        width = math.factorial(m)
        for q in range(1, m + 1):
            pairs = tables[n - 2 - m + q]
            for row in adjacency[(q - 1) * width:q * width]:
                out = 0
                for offset, up in pairs:
                    out |= (row & up) << offset | (row >> offset) & up
                adjacency.append(out)
    return Graph._from_adjacency(
        labels, adjacency, {"family": "cayley", "n": n, "kind": cset.label()})


def _value_swap_tables(n: int) -> list[list[tuple[int, int]]]:
    """tables[a], for each value swap (a a+1) of S_n: the pairs (offset,
    mask), one per position j = 0..n-2, such that swapping the values a and
    a+1 of a vertex moves its rank up by offset = (n-1-j)! for every vertex
    in mask, and down by offset for every vertex in mask << offset; the
    2(n-1) masks partition the vertices.

    Let j be the first position of h that holds a or a+1. Swapping the two
    values keeps the entries before j and the relative order of the values
    after j, and moves the entry at j one place up (from a) or down (from
    a+1) among the values left, so the rank moves by +-(n-1-j)!. The mask
    of the vertices with a at j is made over S_m for m = 2..n from those
    over S_(m-1), by blocks of the (m-1)! vertices with the same first
    entry x: for j = 0 it is block a; for j > 0, a block with x < a holds
    the mask of (a-1, j-1) over S_(m-1), as the values over x move down by
    one, and a block with x > a+1 that of (a, j-1). Equal blocks side by
    side are one product with a repunit, so no vertex is visited."""
    masks: list[list[int]] = []  # masks[a][j] over S_m, none for S_1
    for m in range(2, n + 1):
        width = math.factorial(m - 1)
        # repunit[x]: bit 0 of each of the blocks 0..x-1
        repunit = [0]
        for x in range(m):
            repunit.append(repunit[-1] | 1 << x * width)
        below = masks
        masks = []
        for a in range(m - 1):
            held = [((1 << width) - 1) << a * width]
            for j in range(1, m - 1):
                mask = 0
                if a > 0:
                    mask += below[a - 1][j - 1] * repunit[a]
                if a < m - 2:
                    mask += below[a][j - 1] * (repunit[m] - repunit[a + 2])
                held.append(mask)
            masks.append(held)
    offsets = [math.factorial(n - 1 - j) for j in range(n - 1)]
    return [list(zip(offsets, held)) for held in masks]


# --------------------------------------------------------------------------
# The three automorphism families. A full-length tuple t is the one-line
# form of the permutation Permutation(t), mapping i to t[i].


def apply_position_permutation(h: Permutation, t: Sequence[int]) -> tuple[int, ...]:
    """Permute positions: entry j of the result is entry h^-1(j). The map Q(h)."""
    if h.degree != len(t):
        raise ValidationError(f"position permutation degree {h.degree} != k={len(t)}")
    hinv = h.inverse()
    return tuple(t[hinv(j)] for j in range(len(t)))


def invert_tuple(t: Sequence[int]) -> tuple[int, ...]:
    """One-line form of the inverse permutation; an involution on full-length
    tuples (the extra vertex map beyond value/position relabelings)."""
    return Permutation(t).inverse().images


def vertex_permutation(graph: Graph, tuple_map) -> Permutation:
    """Lift a map on tuple labels to a permutation of vertex indexes."""
    index = {lab: i for i, lab in enumerate(graph.labels)}
    return Permutation(index[tuple(tuple_map(lab))] for lab in graph.labels)


def value_relabelings(graph: Graph, n: int,
                      generators: Optional[Sequence[Permutation]] = None
                      ) -> list[Permutation]:
    """The value relabelings t -> g(t), for g in generators (by default
    symmetric_group_generators(n), whose last map is the n-cycle for n >= 2),
    lifted to vertex permutations of a graph whose label entries lie in
    0..n-1. A g that maps some label to a tuple that is no label is left
    out. The maps are not checked against the edges."""
    if generators is None:
        generators = symmetric_group_generators(n)
    if generators and max(itertools.chain.from_iterable(graph.labels), default=-1) >= n:
        raise ValidationError("tuple entries exceed permutation degree")
    return _lift_label_maps(graph, [lambda t, image=g.images.__getitem__: tuple(map(image, t))
                                    for g in generators])


def stabilizer_relabelings(graph: Graph, n: int, v: int) -> list[Permutation]:
    """Relabelings that fix the label t1 of vertex v, a k-tuple of distinct
    values in 0..n-1, lifted to vertex permutations of graph as
    value_relabelings lifts its maps: the diagonal S_k (the position map
    Q(h) with the value map t1 h t1^-1), S_{n-k} on the values missing from
    t1, and t -> t1 t^-1 t1 when k = n. Each symmetric factor is given by
    symmetric_group_generators, so there are at most 5 maps. On A(n,k,r)
    they generate the stabilizer of v in the candidate group, of order
    k!(n-k)!, times 2 when k = n (n >= 3). A map that carries some label to
    a tuple that is no label is left out; the maps are not checked against
    the edges."""
    if set(itertools.chain.from_iterable(graph.labels)).difference(range(n)):
        raise ValidationError("tuple entries outside 0..n-1")
    t1 = graph.labels[v]
    k = len(t1)
    if len(set(t1)) != k:
        return []
    maps = []
    for h in symmetric_group_generators(k):
        value = list(range(n))
        for j, x in enumerate(t1):
            value[x] = t1[h(j)]
        # entry j of the image is value[t[h^-1(j)]], and t1 maps onto itself
        maps.append(lambda t, value=value, pre=h.inverse().images:
                    tuple(value[t[i]] for i in pre) if len(t) == k else None)
    missing = [x for x in range(n) if x not in t1]
    for s in symmetric_group_generators(len(missing)):
        value = list(range(n))
        for i, x in enumerate(missing):
            value[x] = missing[s(i)]
        maps.append(lambda t, image=value.__getitem__: tuple(map(image, t)))
    if k == n:
        def conjugated_inverse(t: tuple[int, ...]) -> Optional[tuple[int, ...]]:
            if len(t) != n or len(set(t)) != n:
                return None
            inverse = [0] * n
            for i, x in enumerate(t):
                inverse[x] = i
            return tuple(t1[inverse[x]] for x in t1)
        maps.append(conjugated_inverse)
    return _lift_label_maps(graph, maps)


def _lift_label_maps(graph: Graph, maps) -> list[Permutation]:
    """The maps on tuple labels that carry every label of graph to a label,
    as vertex permutations through one label index; a map may return None
    for a tuple outside its domain, and is then left out. Each map is
    injective on its domain, so distinct labels have distinct images."""
    index = {lab: i for i, lab in enumerate(graph.labels)}
    out = []
    for f in maps:
        images = [index.get(f(lab)) for lab in graph.labels]
        if None not in images:
            out.append(Permutation._trusted(tuple(images)))
    return out


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
    generating the expected automorphism group: value relabelings for the
    generators of S_n, position relabelings for those of S_k, plus tuple
    inversion when k = n. Cay(S_n, F_{n-r}) has the labels of A(n,n,r),
    and there the value relabelings are the right multiplications and the
    position relabelings the left ones.

    Every returned map is verified edge-preserving; a failure means an
    implementation bug, not a property of the graph."""
    out = value_relabelings(graph, n)
    if len(out) != len(symmetric_group_generators(n)):
        raise ValidationError(f"the graph's labels are not closed under S_{n}")
    for h in symmetric_group_generators(k):
        out.append(vertex_permutation(graph, lambda t: apply_position_permutation(h, t)))
    if k == n:
        out.append(vertex_permutation(graph, invert_tuple))
    for f in out:
        if not is_automorphism(graph, f):
            raise AssertionError(
                f"candidate generator for n={n}, k={k} is not an automorphism of "
                "the graph; this indicates an implementation bug")
    return out
