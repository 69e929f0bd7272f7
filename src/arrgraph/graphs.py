"""Arrangement graphs A(n,k,r), Cayley graphs on S_n, and the vertex maps
relating them.

Vertices are indexed 0..V-1 by the lexicographic rank of their k-tuple
label. Cayley graph vertices are ordered by the rank of the one-line form,
which makes the tuple<->permutation bijection the identity on indexes (a
deliberate debugging aid; isomorphism tests elsewhere run on independently
shuffled copies to stay honest).
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .config import Config, DEFAULT_CONFIG
from .errors import BudgetError, ValidationError
from .perms import (ConnectionSet, Permutation, check_tuple_count,
                    symmetric_group_generators)


class Graph:
    """Immutable undirected graph with packed bit-vector adjacency.

    labels[v] is the k-tuple label of vertex v (0-based entries).
    metadata records the construction parameters.
    """

    __slots__ = ("vertex_count", "labels", "adjacency", "metadata", "__weakref__")

    def __init__(self, labels: Sequence[tuple[int, ...]],
                 edges: Iterable[tuple[int, int]],
                 metadata: Optional[dict] = None):
        labels = tuple(tuple(l) for l in labels)
        nv = len(labels)
        if len(set(labels)) != nv:
            raise ValidationError("vertex labels are not pairwise distinct")
        adjacency = [0] * nv
        for u, v in edges:
            if not (0 <= u < nv and 0 <= v < nv):
                raise ValidationError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
        self.vertex_count = nv
        self.labels = labels
        self.adjacency = adjacency
        self.metadata = dict(metadata or {})

    @classmethod
    def _from_adjacency(cls, labels: Sequence[tuple[int, ...]],
                        adjacency: list[int], metadata: dict) -> "Graph":
        """Wrap distinct tuple labels and a bitmask adjacency that is already
        symmetric and loop-free, without checking or listing edges.
        Internal only: outside input goes through the validating constructor."""
        g = object.__new__(cls)
        g.vertex_count = len(labels)
        g.labels = tuple(labels)
        g.adjacency = adjacency
        g.metadata = dict(metadata)
        return g

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        row = self.adjacency[v]
        while row:
            low = row & -row
            yield low.bit_length() - 1
            row ^= low

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.vertex_count)) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.vertex_count):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, v)

    def relabeled(self, perm: Permutation) -> "Graph":
        """The graph with vertex v moved to index perm(v) (labels follow)."""
        if perm.degree != self.vertex_count:
            raise ValidationError("relabeling permutation of wrong degree")
        images = perm.images
        # pulling a row back through perm^-1 moves each of its vertices v to perm(v)
        move = _row_pullback(perm.inverse().images)
        labels = [None] * self.vertex_count
        adjacency = [0] * self.vertex_count
        for u, row in enumerate(self.adjacency):
            labels[images[u]] = self.labels[u]
            adjacency[images[u]] = move(row)
        return Graph._from_adjacency(labels, adjacency, self.metadata)

    def is_connected(self) -> bool:
        if self.vertex_count == 0:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            row = frontier
            while row:
                low = row & -row
                nxt |= self.adjacency[low.bit_length() - 1]
                row ^= low
            frontier = nxt & ~seen
            seen |= nxt
        return seen.bit_count() == self.vertex_count


def build_arrangement_graph(n: int, k: int, r: int,
                            config: Config = DEFAULT_CONFIG) -> Graph:
    """A(n,k,r): vertices are k-tuples of distinct values in 0..n-1, edges
    join tuples differing in exactly r coordinates.

    Two tuples differ in r coordinates when they agree in k - r. The
    vertices with value x at position j form the mask at[j][x]. For each
    tuple t the k masks at[j][t[j]] are summed bit-sliced, with ripple
    carry, and the row of t is one AND over the planes that selects the
    count k - r. No edge list is formed."""
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
    width = k.bit_length()
    agree = k - r
    adjacency = []
    for t in labels:
        # planes[p]: bit p of every vertex's agreement count with t
        planes = [0] * width
        for j, x in enumerate(t):
            carry = at[j][x]
            for p in range(width):
                plane = planes[p]
                planes[p] = plane ^ carry
                carry &= plane
                if not carry:
                    break
        row = full
        for p, plane in enumerate(planes):
            row &= plane if agree >> p & 1 else ~plane
        adjacency.append(row)
    return Graph._from_adjacency(
        labels, adjacency, {"family": "arrangement", "n": n, "k": k, "r": r})


# A Cayley graph build may make this many compositions for each vertex the
# vertex guard admits: 10 M under the default guard.
CAYLEY_COMPOSITIONS_PER_VERTEX = 200


def build_cayley_graph(n: int, cset: ConnectionSet,
                       config: Config = DEFAULT_CONFIG) -> Graph:
    """Cay(S_n, S): vertices are the n! permutations (ordered by one-line
    form), with an edge from g to s*g for every s in S.

    The build composes every vertex with every element of S, so |S|*n!
    compositions over CAYLEY_COMPOSITIONS_PER_VERTEX * config.vertex_guard
    raise BudgetError before any is made (Cay(S_8, D) would need 598 M)."""
    if cset.degree != n:
        raise ValidationError(f"connection set degree {cset.degree} != n={n}")
    check_tuple_count(n, n, config)
    work = len(cset) * math.factorial(n)
    limit = CAYLEY_COMPOSITIONS_PER_VERTEX * config.vertex_guard
    if work > limit:
        raise BudgetError(f"Cay(S_{n}, {cset.label()}) needs {work} compositions, "
                          f"over the {limit} the vertex guard allows")
    labels = list(itertools.permutations(range(n)))
    index = {lab: i for i, lab in enumerate(labels)}
    # s*g in one-line form is i -> g(s(i)), the entries of g at s(0..n-1);
    # S is inverse-closed and identity-free, so the rows are symmetric and
    # loop-free. n >= 2 whenever S is non-empty, so each getter returns a tuple.
    getters = [itemgetter(*s.images) for s in cset.elements]
    adjacency = []
    for lab in labels:
        row = 0
        for image in getters:
            row |= 1 << index[image(lab)]
        adjacency.append(row)
    return Graph._from_adjacency(
        labels, adjacency, {"family": "cayley", "n": n, "kind": cset.label()})


# --------------------------------------------------------------------------
# The three automorphism families. A full-length tuple t is the one-line
# form of the permutation Permutation(t), mapping i to t[i].


def apply_value_permutation(g: Permutation, t: Sequence[int]) -> tuple[int, ...]:
    """Relabel values: entry i becomes g(entry i). The map P(g)."""
    if any(x >= g.degree for x in t):
        raise ValidationError("tuple entries exceed permutation degree")
    return tuple(g(x) for x in t)


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


def value_relabelings(graph: Graph, n: int) -> list[Permutation]:
    """The value relabelings t -> g(t), for g in symmetric_group_generators(n),
    lifted to vertex permutations of a graph whose label entries lie in
    0..n-1. A g that maps some label to a tuple that is no label is left
    out. The maps are not checked against the edges."""
    index = {lab: i for i, lab in enumerate(graph.labels)}
    out = []
    for g in symmetric_group_generators(n):
        images = [index.get(apply_value_permutation(g, lab)) for lab in graph.labels]
        if None not in images:
            # g is a bijection of the values, so distinct labels have distinct images
            out.append(Permutation._trusted(tuple(images)))
    return out


def _row_pullback(images: Sequence[int]):
    """The map from a row (a vertex bitmask) R to {v : f(v) in R}, for the
    vertex map f with the given images. R is read as its binary digits, one
    byte per vertex, at f(0), ..., f(V-1) with one itemgetter: a per-vertex
    cost, but paid in C."""
    nv = len(images)
    if nv <= 1:
        # the one permutation is the identity; and with one index,
        # itemgetter returns a scalar, not a tuple
        return lambda row: row
    top = nv - 1
    # byte p of a row's digits is the bit of vertex top - p, so the read
    # puts the byte of vertex f(top - p) at p
    read = itemgetter(*[top - x for x in reversed(images)])
    digits = f"0{nv}b"
    return lambda row: int(bytes(read(format(row, digits).encode())), 2)


def is_automorphism(graph: Graph, f: Permutation) -> bool:
    """True iff f preserves adjacency and non-adjacency: for every u, the
    row of f(u) pulled back through f is the row of u. Rows are compared
    one at a time, the first that differs ends the check, and no more than
    O(V) memory is held beyond the graph."""
    if f.degree != graph.vertex_count:
        raise ValidationError("vertex permutation of wrong degree")
    pull = _row_pullback(f.images)
    adj = graph.adjacency
    return all(pull(adj[x]) == adj[u] for u, x in enumerate(f.images))


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
