"""Maximum independent sets of A(n,k,k) and the families that attain them.

The search works on the complement graph: a maximum independent set is a
maximum clique of the complement. One branch and bound with a greedy
coloring bound (Tomita-Kameda) serves both modes: size_only prunes every
branch that cannot beat the best clique so far, enumerate_all keeps the
branches that can tie it and collects every maximum clique. The node budget
bounds both.

Each node colors its candidates one class at a time, each class a bitmask
(San Segundo et al.'s BBMC). Classes whose color cannot reach the bound are
dropped whole; the node branches over the rest from the highest color down
and within a class from the highest vertex down. Open nodes live on an
explicit stack, so the depth of the search (the size of the independent
set) is not limited by Python's recursion limit.

size_only adds one rule at the root: it skips a vertex in the orbit of a
root vertex it has already branched on, under automorphisms of the graph.
The root takes its vertices v1, v2, ... in turn and drops each from its
candidates once taken, so the branch on vi searches the cliques through vi
that avoid v1..vi-1. Once vi is taken, every clique through one of v1..vi
is no larger than the best clique so far: it was searched, or the coloring
bound cut it as unable to beat the best, or it passes through a skipped
vertex. A vertex w = g(vj), for an automorphism g and a branched vj, is such
a skipped vertex, because g^-1 maps a clique through w onto one of the same
size through vj. So w's branch could not beat the best clique, and
size_only, which keeps only a strictly larger one, would leave its result
as it was: skipping the branch changes neither the size nor the clique
returned. enumerate_all keeps ties, which such a branch can hold, so it
never skips.

The automorphisms are the value relabelings of the tuple labels by the
generators of S_n (graphs.value_relabelings), each kept only if
is_automorphism passes. They act transitively on A(n,k,r) and on
Cay(S_n, S), so there the root keeps a single branch. Plain graphs, labelled
(i,), get maps that are almost never automorphisms, and nothing is skipped.
The orbits are computed when the root is about to open its second branch,
so a search that ends after one root branch pays nothing for them.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

from .config import Config, DEFAULT_CONFIG
from .errors import ArrgraphError, BudgetError, ValidationError
from .graphs import Graph, is_automorphism, value_relabelings

SIZE_ONLY = "size_only"
ENUMERATE_ALL = "enumerate_all"


def delta_set(n: int, k: int, i: int, j: int) -> frozenset[int]:
    """Vertex indexes of A(n,k,*) whose tuples have entry j equal to i and
    avoid i in every other position. i and j are 0-based here; 1-based only
    in serialized labels.

    The entries of a tuple are distinct, so entry j being i already keeps i
    out of every other position."""
    if not (0 <= i < n and 0 <= j < k and k <= n):
        raise ValidationError(f"delta set parameters out of range: n={n} k={k} i={i} j={j}")
    return frozenset(v for v, t in enumerate(itertools.permutations(range(n), k))
                     if t[j] == i)


def delta_family(n: int, k: int) -> list[tuple[tuple[int, int], frozenset[int]]]:
    """All delta sets in (i, j)-lexicographic order."""
    return [((i, j), delta_set(n, k, i, j)) for i in range(n) for j in range(k)]


def _complement(graph: Graph) -> list[int]:
    nv = graph.vertex_count
    full = (1 << nv) - 1
    return [(full & ~graph.adjacency[v]) & ~(1 << v) for v in range(nv)]


def _value_symmetries(graph: Graph) -> list[tuple[int, ...]]:
    """Images of the value relabelings of graph's labels that are
    automorphisms of graph, and so of its complement. The values must be
    0..n-1 for some n <= V: labels that use n values and that S_n maps onto
    themselves number at least n, so with more values than vertices (or a
    negative one) nothing is lifted."""
    values = {x for lab in graph.labels for x in lab}
    if not values or min(values) < 0 or max(values) >= graph.vertex_count:
        return []
    return [p.images for p in value_relabelings(graph, max(values) + 1)
            if is_automorphism(graph, p)]


def _orbits(generators: Sequence[Sequence[int]], nv: int) -> list[int]:
    """orbit[v]: the least vertex of v's orbit under the group generated by
    the given vertex permutations (image tuples)."""
    orbit = [-1] * nv
    for v in range(nv):
        if orbit[v] < 0:
            orbit[v] = v
            frontier = [v]
            for x in frontier:  # grows while it is read
                for images in generators:
                    y = images[x]
                    if orbit[y] < 0:
                        orbit[y] = v
                        frontier.append(y)
    return orbit


def _max_cliques(adj: list[int], nv: int, enumerate_all: bool, node_budget: int,
                 symmetries: Optional[Callable[[], list[tuple[int, ...]]]] = None
                 ) -> list[list[int]]:
    """Maximum cliques of the graph with bitmask adjacency adj, by branch and
    bound with a greedy coloring bound (Tomita & Kameda, J. Global Optim.
    2007) kept as bitmask color classes (San Segundo et al., Comput. Oper.
    Res. 2011). Returns one maximum clique, or with enumerate_all every one
    of them; each clique is sorted. More than node_budget search nodes raise
    BudgetError.

    A color class takes the lowest candidates not adjacent to the class so
    far. The color of a vertex bounds the clique it can still reach, so a
    node ends at the first vertex whose color cannot beat the best clique
    (or, with enumerate_all, tie it).

    Without enumerate_all, symmetries may give automorphisms of the graph
    as image tuples; it is called at most once, when the root is about to
    open its second branch, and the root then skips every vertex in the
    orbit of one it branched on (the module docstring has the argument)."""
    best = 0
    found: list[list[int]] = []
    nodes = 0
    keep_ties = 0 if enumerate_all else 1
    # outside[v]: the vertices a color class may still take once it has v
    outside = [~(row | 1 << v) for v, row in enumerate(adj)]
    current: list[int] = []
    # one frame per open node: [candidates not yet branched on, the kept
    # classes below the one in use, the untried vertices of the class in
    # use, its color]
    stack: list[list] = []
    candidates: Optional[int] = (1 << nv) - 1  # a node to open, or None
    prune_root = symmetries is not None and not enumerate_all
    first_root = -1  # the root's first branch vertex
    orbit: Optional[list[int]] = None
    opened: set[int] = set()  # the orbits of the root's branch vertices
    while True:
        if candidates is not None:
            nodes += 1
            if nodes > node_budget:
                raise BudgetError(f"clique search exceeded node budget {node_budget}")
            classes = []
            rest = candidates
            while rest:
                avail = rest
                members = 0
                while avail:
                    low = avail & -avail
                    members |= low
                    avail &= outside[low.bit_length() - 1]
                rest ^= members
                classes.append(members)
            # a vertex of color c extends the clique to at most
            # len(current) + c vertices, so lower classes never pass the bound
            lowest = max(best - len(current) + keep_ties, 1)
            stack.append([candidates, classes[lowest - 1:], 0, len(classes) + 1])
        frame = stack[-1]
        if not frame[2] and frame[1]:
            frame[2] = frame[1].pop()
            frame[3] -= 1
        # best may have grown since the node opened
        if not frame[2] or frame[3] < best - len(current) + keep_ties:
            stack.pop()
            if not stack:
                return found
            current.pop()
            candidates = None
            continue
        v = frame[2].bit_length() - 1
        frame[2] ^= 1 << v
        frame[0] ^= 1 << v
        if prune_root and len(stack) == 1:
            if first_root < 0:
                first_root = v
            else:
                if orbit is None:
                    orbit = _orbits(symmetries(), nv)
                    opened.add(orbit[first_root])
                if orbit[v] in opened:
                    continue
                opened.add(orbit[v])
        current.append(v)
        candidates = frame[0] & adj[v]
        if not candidates:
            if len(current) > best:
                best = len(current)
                found = [sorted(current)]
            elif len(current) == best and enumerate_all:
                found.append(sorted(current))
            current.pop()
            candidates = None


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def is_independent(graph: Graph, vertices) -> bool:
    """No two of the vertices are adjacent."""
    m = _mask(vertices)
    return not any(row & m for v, row in enumerate(graph.adjacency) if m >> v & 1)


def is_maximal_independent(graph: Graph, vertices) -> bool:
    """Independent, and every other vertex has a neighbour among them: a
    vertex's row misses the set exactly when the vertex is in it."""
    m = _mask(vertices)
    return all((row & m == 0) == bool(m >> v & 1) for v, row in enumerate(graph.adjacency))


def max_independent_sets(graph: Graph, mode: str = SIZE_ONLY,
                         config: Config = DEFAULT_CONFIG
                         ) -> tuple[int, Optional[list[list[int]]]]:
    """Exact independence number; in enumerate_all mode also the complete,
    deterministically sorted list of maximum independent sets. Both modes
    run the same search, bounded by config.node_budget; size_only also skips
    the root branches that the graph's value relabelings make redundant."""
    if graph.vertex_count < 1:
        raise ValidationError("need at least one vertex")
    if mode not in (SIZE_ONLY, ENUMERATE_ALL):
        raise ValidationError(f"unknown mode {mode!r}")
    sets = _max_cliques(_complement(graph), graph.vertex_count,
                        mode == ENUMERATE_ALL, config.node_budget,
                        lambda: _value_symmetries(graph))
    for s in sets:
        if not is_maximal_independent(graph, s):
            raise ArrgraphError(f"clique search returned {s}, not a maximal independent set")
    if mode == SIZE_ONLY:
        return len(sets[0]), None
    return len(sets[0]), sorted(sets)
