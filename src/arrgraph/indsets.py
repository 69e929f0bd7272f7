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

A node whose color classes are single vertices, m of them, has a clique
of candidates, and it closes in one step: it records the clique current +
candidates and counts the m nodes, with m, m - 1, ..., 1 candidates, that
the branching would open on the path down to that leaf. A leaf is the case
m = 0 and counts as no node. A vertex of color c has a neighbour in every
lower class, so the branch on it that opens such a node leaves it exactly
c - 1 candidates, as many as the bound that branch passed asks for (at the
root, any clique beats the empty best): the clique beats the best one so
far, or ties it with enumerate_all. Each sibling on the path back up is
one color short of that clique and fails the bound in both modes. So the
node count, the budget at which the search stops, and the cliques found
and their order are those of the node-by-node search; a root whose
candidates are a clique never opens a second branch, either way. On
A(6,6,2) the first descent meets a 300-vertex clique of candidates 60
levels down, and on A(7,7,2) a 2160-vertex one 360 levels down.

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

Both modes search the vertices in the order of the orbits of the lifted
n-cycle c, the value relabeling t -> c(t), when every orbit is a clique of
the graph, and in index order otherwise. A clique of the graph is an
independent set of the complement, so a cover of the V vertices by m
cliques bounds alpha by m: an independent set meets each clique at most
once (the clique-coclique bound, alpha * omega <= V on vertex-transitive
graphs; Godsil & Meagher, Erdos-Ko-Rado Theorems: Algebraic Approaches,
2016, ch. 2). On A(n,k,k) two tuples of one orbit differ in every
position, so the V/n orbits are n-cliques, and V/n = (n-1)!/(n-k)! is alpha
itself. With each orbit contiguous, the greedy coloring takes the orbits as
its classes, so the root's bound is alpha and the first root branch that
reaches alpha closes the search (size_only). The gate checks the cliques,
not the graph's name: it accepts A(n,k,k) and Cay(S_n, D), where
g^-1 c^j g is a derangement, and declines A(n,k,r) with r < k, Cay(S_n,
F_f) with f > 0 and edge lists, whose orbits are not cliques; reordering
those would gain no bound and can slow the search: A(6,5,1) size_only
passed 2 M nodes in 104 s in orbit order, against 0.05 s in index order.
Any order is exact, and the sets found are mapped back to the graph's
indexes.

The automorphisms are the value relabelings of the tuple labels by the
generators of S_n, (0 1) and c (graphs.value_relabelings), each kept only
if is_automorphism passes; a map f that does not carry row 0 onto row
f(0) is rejected before that. The lift of c is the one the order used;
(0 1) is lifted only when the root prunes, and the maps are moved to the
searched order. They act transitively on A(n,k,r) and on Cay(S_n, S), so
there the root keeps a single branch. Plain graphs, labelled (i,), get
maps that are almost never automorphisms, and nothing is skipped. The
orbits are computed when the root is about to open its second branch, so
a search that ends after one root branch pays nothing for them.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

from .config import Config, DEFAULT_CONFIG
from .errors import ArrgraphError, BudgetError, ValidationError
from .graphs import Graph, _mask, _transpose, is_automorphism, value_relabelings
from .perms import Permutation, orbits, symmetric_group_generators

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
    """All delta sets in (i, j)-lexicographic order, from one pass over the
    tuples: vertex v joins the set (i, j) for each entry i at position j of
    its tuple."""
    if not 0 <= k <= n:
        raise ValidationError(f"delta family parameters out of range: n={n} k={k}")
    members: list[list[list[int]]] = [[[] for _ in range(k)] for _ in range(n)]
    for v, t in enumerate(itertools.permutations(range(n), k)):
        for j, i in enumerate(t):
            members[i][j].append(v)
    return [((i, j), frozenset(members[i][j])) for i in range(n) for j in range(k)]


def _complement(adj: Sequence[int]) -> list[int]:
    """The rows of the complement of the graph with bitmask rows adj."""
    full = (1 << len(adj)) - 1
    return [full & ~(row | 1 << v) for v, row in enumerate(adj)]


def _value_degree(graph: Graph) -> int:
    """n when the values of graph's labels are 0..n-1 for some n <= V, so
    that S_n acts on them; else 0. Labels that use n values and that S_n
    maps onto themselves number at least n, so with more values than
    vertices (or a negative one) nothing is lifted."""
    values = set(itertools.chain.from_iterable(graph.labels))
    if not values or min(values) < 0 or max(values) >= graph.vertex_count:
        return 0
    return max(values) + 1


def _value_symmetries(graph: Graph, lift: Sequence[Permutation]) -> list[tuple[int, ...]]:
    """Images of the maps of lift that are automorphisms of graph, and so of
    its complement. A map f that does not carry row 0 onto row f(0) is
    rejected at once; each other map is checked whole by is_automorphism."""
    row0 = list(graph.neighbors(0))
    return [f.images for f in lift
            if _mask(f.images[u] for u in row0) == graph.adjacency[f.images[0]]
            and is_automorphism(graph, f)]


def _clique_cover_order(graph: Graph, lift: Sequence[Permutation]) -> Optional[list[int]]:
    """The vertices orbit by orbit under the last vertex permutation of
    lift, the lifted n-cycle; None if lift is empty or some orbit is not a
    clique of graph. The orbits are taken from the one of the last vertex
    down, each from its largest vertex on: of the orders tried, this one
    made the cheapest descents on A(8,4,4), 17 ms against 24 ms from vertex
    0 up, at the same 210 nodes."""
    if not lift:
        return None
    adj = graph.adjacency
    images = lift[-1].images
    order: list[int] = []
    placed = bytearray(graph.vertex_count)
    for v in range(graph.vertex_count - 1, -1, -1):
        if placed[v]:
            continue
        orbit = [v]
        x = images[v]
        while x != v:
            orbit.append(x)
            x = images[x]
        members = _mask(orbit)
        for x in orbit:
            if (adj[x] | 1 << x) & members != members:
                return None
            placed[x] = 1
        order.extend(orbit)
    return order


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
    (or, with enumerate_all, tie it). A node whose candidates are a clique,
    one vertex per class, closes in one step with the node count and the
    clique of the path below it; a leaf is such a node with no candidates
    (the module docstring has the argument).

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
    candidates: Optional[int] = (1 << nv) - 1  # a node to open (0: a leaf), or None
    prune_root = symmetries is not None and not enumerate_all
    first_root = -1  # the root's first branch vertex
    orbit: Optional[list[int]] = None
    opened: set[int] = set()  # the orbits of the root's branch vertices
    while True:
        if candidates is not None:
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
            m = len(classes)
            closed = m == candidates.bit_count()
            # candidates that are a clique, one vertex per class, stand for
            # the m nodes of the path down to the leaf current + candidates
            # (none at a leaf), which beats the best clique or ties it with
            # enumerate_all (module docstring)
            nodes += m if closed else 1
            if nodes > node_budget:
                raise BudgetError(f"clique search exceeded node budget {node_budget}")
            if closed:
                clique = sorted(current + [c.bit_length() - 1 for c in classes])
                if len(clique) > best:
                    best = len(clique)
                    found = [clique]
                else:
                    found.append(clique)
                if not stack:
                    return found
                current.pop()
                candidates = None
                continue
            # a vertex of color c extends the clique to at most
            # len(current) + c vertices, so lower classes never pass the bound
            lowest = max(best - len(current) + keep_ties, 1)
            stack.append([candidates, classes[lowest - 1:], 0, m + 1])
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
                    orbit = orbits(symmetries(), nv)
                    opened.add(orbit[first_root])
                if orbit[v] in opened:
                    continue
                opened.add(orbit[v])
        current.append(v)
        candidates = frame[0] & adj[v]


def is_independent(graph: Graph, vertices) -> bool:
    """No two of the vertices are adjacent."""
    m = _mask(vertices)
    return not any(row & m for v, row in enumerate(graph.adjacency) if m >> v & 1)


def is_maximal_independent(graph: Graph, vertices) -> bool:
    """Independent, and every other vertex has a neighbour among them: no
    member's row meets the set, and the members' rows, which by symmetry
    hold every vertex with a neighbour in the set, cover the rest."""
    m = _mask(vertices)
    reached = m
    for v in vertices:
        row = graph.adjacency[v]
        if row & m:
            return False
        reached |= row
    return reached == (1 << graph.vertex_count) - 1


def max_independent_sets(graph: Graph, mode: str = SIZE_ONLY,
                         config: Config = DEFAULT_CONFIG
                         ) -> tuple[int, Optional[list[list[int]]]]:
    """Exact independence number; in enumerate_all mode also the complete,
    deterministically sorted list of maximum independent sets. Both modes
    run the same search, bounded by config.node_budget, in the order of the
    lifted n-cycle's orbits when each is a clique (the module docstring has
    the bound); size_only also skips the root branches that the graph's
    value relabelings make redundant."""
    if graph.vertex_count < 1:
        raise ValidationError("need at least one vertex")
    if mode not in (SIZE_ONLY, ENUMERATE_ALL):
        raise ValidationError(f"unknown mode {mode!r}")
    n = _value_degree(graph)
    generators = symmetric_group_generators(n)
    # the lifted n-cycle orders the search; the root lifts the other
    # generator only if it prunes
    lift = value_relabelings(graph, n, generators[-1:])
    order = _clique_cover_order(graph, lift)
    adj = graph.adjacency
    if order is not None:
        # row i of the searched graph is the row of order[i], its vertices
        # moved to their places in order
        cols = _transpose([adj[v] for v in order])
        adj = [cols[v] for v in order]

    def symmetries() -> list[tuple[int, ...]]:
        found = _value_symmetries(graph, value_relabelings(graph, n, generators[:-1]) + lift)
        if order is None:
            return found
        place = [0] * len(order)
        for i, v in enumerate(order):
            place[v] = i
        return [tuple(place[images[v]] for v in order) for images in found]

    sets = _max_cliques(_complement(adj), graph.vertex_count,
                        mode == ENUMERATE_ALL, config.node_budget, symmetries)
    if order is not None:
        sets = [sorted(map(order.__getitem__, s)) for s in sets]
    for s in sets:
        if not is_maximal_independent(graph, s):
            raise ArrgraphError(f"clique search returned {s}, not a maximal independent set")
    if mode == SIZE_ONLY:
        return len(sets[0]), None
    return len(sets[0]), sorted(sets)
