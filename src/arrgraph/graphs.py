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
from typing import Iterable, Iterator, Optional, Sequence

from .config import Config, DEFAULT_CONFIG
from .errors import ValidationError
from .perms import (ConnectionSet, Permutation, check_symmetric_group_size, cycle,
                    transposition)


def validate_tuple(t: Sequence[int], n: int, k: int) -> tuple[int, ...]:
    t = tuple(t)
    if len(t) != k:
        raise ValidationError(f"expected a {k}-tuple, got {t}")
    if len(set(t)) != k or not all(0 <= x < n for x in t):
        raise ValidationError(f"{t} is not a tuple of distinct values in 0..{n - 1}")
    return t


def tuple_count(n: int, k: int) -> int:
    return math.factorial(n) // math.factorial(n - k)


def rank_tuple(t: Sequence[int], n: int, k: int) -> int:
    """Lexicographic rank of a k-tuple of distinct values among all of them."""
    t = validate_tuple(t, n, k)
    rank = 0
    used: list[int] = []
    for pos, x in enumerate(t):
        smaller = x - sum(1 for u in used if u < x)
        rank += smaller * (tuple_count(n - pos - 1, k - pos - 1))
        used.append(x)
    return rank


def unrank_tuple(idx: int, n: int, k: int) -> tuple[int, ...]:
    """Inverse of rank_tuple."""
    total = tuple_count(n, k)
    if not 0 <= idx < total:
        raise ValidationError(f"tuple rank {idx} out of range 0..{total - 1}")
    avail = list(range(n))
    out = []
    for pos in range(k):
        block = tuple_count(n - pos - 1, k - pos - 1)
        q, idx = divmod(idx, block)
        out.append(avail.pop(q))
    return tuple(out)


def differing_coordinates(s: Sequence[int], t: Sequence[int]) -> int:
    if len(s) != len(t):
        raise ValidationError("tuples of different length")
    return sum(1 for a, b in zip(s, t) if a != b)


class Graph:
    """Immutable undirected graph with packed bit-vector adjacency.

    labels[v] is the k-tuple label of vertex v (0-based entries).
    metadata records the construction parameters.
    """

    __slots__ = ("vertex_count", "labels", "adjacency", "metadata")

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

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u] >> v & 1)

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

    def degrees(self) -> list[int]:
        return [self.degree(v) for v in range(self.vertex_count)]

    def is_regular(self) -> bool:
        degs = self.degrees()
        return not degs or min(degs) == max(degs)

    def relabeled(self, perm: Permutation) -> "Graph":
        """The graph with vertex v moved to index perm(v) (labels follow)."""
        if perm.degree != self.vertex_count:
            raise ValidationError("relabeling permutation of wrong degree")
        images = perm.images
        labels = [None] * self.vertex_count
        adjacency = [0] * self.vertex_count
        for u, label in enumerate(self.labels):
            row = 0
            for v in self.neighbors(u):
                row |= 1 << images[v]
            labels[images[u]] = label
            adjacency[images[u]] = row
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
    nv = tuple_count(n, k)
    if nv > config.vertex_guard:
        raise ValidationError(
            f"A({n},{k},{r}) has {nv} vertices, over the guard {config.vertex_guard}")
    labels = list(itertools.permutations(range(n), k))  # lexicographic = rank order
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


def build_cayley_graph(n: int, cset: ConnectionSet,
                       config: Config = DEFAULT_CONFIG) -> Graph:
    """Cay(S_n, S): vertices are the n! permutations (ordered by one-line
    form), with an edge from g to s*g for every s in S."""
    if cset.degree != n:
        raise ValidationError(f"connection set degree {cset.degree} != n={n}")
    check_symmetric_group_size(n, config)
    labels = list(itertools.permutations(range(n)))
    index = {lab: i for i, lab in enumerate(labels)}
    elements = [s.images for s in cset.elements]
    adjacency = []
    for lab in labels:
        # s*g in one-line form: i -> g(s(i)); S is inverse-closed and
        # identity-free, so the rows are symmetric and loop-free
        image = lab.__getitem__
        row = 0
        for s in elements:
            row |= 1 << index[tuple(map(image, s))]
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


def is_automorphism(graph: Graph, f: Permutation) -> bool:
    """True iff f preserves adjacency and non-adjacency."""
    if f.degree != graph.vertex_count:
        raise ValidationError("vertex permutation of wrong degree")
    adj = graph.adjacency
    images = f.images
    for v in range(graph.vertex_count):
        image_row = 0
        row = adj[v]
        while row:
            low = row & -row
            image_row |= 1 << images[low.bit_length() - 1]
            row ^= low
        if image_row != adj[images[v]]:
            return False
    return True


def candidate_aut_generators(n: int, k: int, r: int, graph: Graph) -> list[Permutation]:
    """Vertex permutations of graph = A(n,k,r) generating the expected
    automorphism group: value relabelings for a generating pair of S_n,
    position relabelings for a generating pair of S_k, plus tuple inversion
    when k = n.

    Every returned map is verified edge-preserving; a failure means an
    implementation bug, not a property of the graph."""
    def pair(m: int) -> list[Permutation]:
        # the literal pair {(1 2), (1 2 ... m)}; empty for m = 1
        return [] if m < 2 else [transposition(m, 0, 1), cycle(m)]

    out = []
    for g in pair(n):
        out.append(vertex_permutation(graph, lambda t: apply_value_permutation(g, t)))
    for h in pair(k):
        out.append(vertex_permutation(graph, lambda t: apply_position_permutation(h, t)))
    if k == n:
        out.append(vertex_permutation(graph, invert_tuple))
    for f in out:
        if not is_automorphism(graph, f):
            raise AssertionError(
                f"candidate generator is not an automorphism of A({n},{k},{r}); "
                "this indicates an implementation bug")
    return out
