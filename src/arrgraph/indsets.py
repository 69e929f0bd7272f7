"""Maximum independent sets of A(n,k,k) and the families that attain them.

A maximum independent set is a maximum clique of the complement, found by
one branch and bound with a greedy coloring bound (Tomita-Kameda) under the
node budget: size_only prunes every branch that cannot beat the best clique
so far, enumerate_all keeps those that can tie it and collects every
maximum clique. Each node colors its candidates one bitmask class at a time
(San Segundo et al.'s BBMC), drops the classes whose color cannot reach the
bound, and branches over the rest from the highest color and vertex down.
Each node is a generator of its children, walked on one explicit stack by
graphs._depth_first, so the set size is not limited by the recursion limit.

A node whose m color classes are single vertices has a clique of candidates
and closes in one step: it records the clique current + candidates and
counts the m nodes that the branching would open down to that leaf (a leaf,
m = 0, counts as none). A vertex of color c has a neighbour in every lower
class, so the branch on it that opens such a node leaves it exactly the
c - 1 candidates the bound asked for: the clique beats the best (or ties
it with enumerate_all), and each sibling on the path back up is one color
short and fails the bound. The root passed no bound, so its clique closes
it only if it passes one; otherwise the root's own bound ends the search
there. Node counts, budgets and the cliques found, in order, are those of
the node-by-node search.

size_only starts from a seed, the min-degree greedy independent set of the
searched graph (take the lowest vertex of least degree left, drop it and
its neighbours; Halldorsson & Radhakrishnan, Algorithmica 1997), as MCS
starts from a heuristic clique (Batsyn et al., J. Comb. Optim. 2014). It is
the best clique before the root opens, and size_only records only strictly
larger ones; a branch is cut only when it holds no clique larger than the
best, seed or found, so the result is still maximum. When the seed reaches
the root's coloring bound the search ends after one node (A(6,5,1),
A(6,6,2), Cay(S6,T): 360 unseeded), as it does on an edgeless graph, whose
closed root ties the seed. enumerate_all keeps ties, which a seed would
repeat, so it is not seeded.

size_only also skips, at the root, a vertex in the orbit of a root vertex
already branched on, under automorphisms of the graph. Once the root has
taken v1..vi, dropping each from its candidates, every clique through one
of them was searched, or cut as unable to beat the best, or passes through
a skipped vertex w = g(vj), and g^-1 maps it onto a clique of the same size
through vj. So a skipped branch cannot beat the best, and size_only, which
keeps only strictly larger cliques, returns the same one. enumerate_all
keeps ties, which such a branch can hold, so it never skips.

The root's first child, with clique {v1}, skips in the same way, under the
automorphisms that fix v1. Its candidates are all of v1's neighbours in the
complement, as the root has dropped nothing yet, and every automorphism
that fixes v1 maps them onto themselves, so the root's argument holds with
the graph replaced by that neighbourhood. The rule stops there, because
there its group has a form on the labels. The root's later children open
only when the root keeps more than one orbit, which the value relabelings
never leave on A(n,k,r) and Cay(S_n, S). A deeper node would need the
pointwise stabilizer of its clique of two or more vertices, which has no
such form and would need a stabilizer chain with that clique as its base.
(Such a node's candidates lack the vertices its ancestors branched on, but
the argument still holds, by induction over the order in which branches
are searched: g^-1 of a skipped clique passes through an explored sibling,
or through a vertex an ancestor branched on or skipped earlier.)

Both modes take the vertices orbit by orbit under the lifted n-cycle c, the
value relabeling t -> c(t), when every orbit is a clique of the graph, and
in index order otherwise. A cover of the vertices by m cliques bounds alpha
by m, as an independent set meets each clique at most once (Godsil &
Meagher, Erdos-Ko-Rado Theorems: Algebraic Approaches, 2016, ch. 2). On
A(n,k,k) two tuples of one orbit differ in every position, so the orbits
are n-cliques, and their number (n-1)!/(n-k)! is alpha; the greedy coloring
takes the contiguous orbits as its classes, so the root's bound is alpha.
The gate checks the cliques, not the graph's name: it accepts A(n,k,k) and
Cay(S_n, D) and declines A(n,k,r) with r < k, Cay(S_n, F_f) with f > 0 and
edge lists, where reordering gains no bound and can slow the search
(unseeded A(6,5,1): 104 s in orbit order, 0.05 s in index order). The
search runs on the graph relabeled into that order, and the sets found are
mapped back to the graph's indexes.

The automorphisms at the root are the value relabelings f of the searched
graph's tuple labels by (0 1) and c (graphs.value_relabelings); those at
its first child are the relabelings that fix v1's label t1
(graphs.stabilizer_relabelings): the diagonal S_k, each position swap with
the matching value swap of t1, S_{n-k} on the values missing from t1, and
t -> t1 t^-1 t1 when k = n, at most 5 maps. A map is kept when it fixes the
node's clique, carries row 0 onto row f(0) and passes is_automorphism; a
smaller group than the whole stabilizer still skips only redundant
branches. The maps are lifted and the orbits computed only when the node
is about to open a second branch, so a search that the root's bound ends
after the first branch pays for neither. The value relabelings act
transitively on A(n,k,r) and Cay(S_n, S), so the root keeps one branch
there, and on A(n,k,r) the maps at the first child generate the stabilizer
of v1 in the candidate group, of order k!(n-k)!, times 2 when k = n. With
both rules the seeded search of A(5,5,3) opens 640 nodes (2173 with the
root's alone), A(6,3,2) 427 (1745), A(5,4,3) 212 (378), A(5,5,4) 24 (101).
On plain graphs, labelled (i,), the maps are almost never automorphisms.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Generator, Optional, Sequence

from .config import Config, DEFAULT_CONFIG
from .errors import ArrgraphError, BudgetError, ValidationError
from .graphs import (Graph, _bits, _count_planes, _depth_first, _mask, is_automorphism,
                     stabilizer_relabelings, value_relabelings)
from .perms import Permutation, check_tuple_count, orbits, symmetric_group_generators

SIZE_ONLY = "size_only"
ENUMERATE_ALL = "enumerate_all"


def delta_family(n: int, k: int, config: Config = DEFAULT_CONFIG
                 ) -> list[tuple[tuple[int, int], frozenset[int]]]:
    """All delta sets in (i, j)-lexicographic order, from one pass over the
    tuples, once n and k pass check_tuple_count: vertex v joins the set
    (i, j) for each entry i at position j of its tuple."""
    check_tuple_count(n, k, config)
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
    that S_n acts on them (labels closed under S_n number at least n);
    else 0."""
    values = set(itertools.chain.from_iterable(graph.labels))
    if not values or min(values) < 0 or max(values) >= graph.vertex_count:
        return 0
    return max(values) + 1


def _symmetries(graph: Graph, prefix: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Images of automorphisms of graph (and its complement) that fix each
    vertex of prefix, which is () or one vertex: the value relabelings, or
    the relabelings that fix the vertex's label (graphs.stabilizer_relabelings).
    A map is kept if it fixes the prefix, carries row 0 onto row f(0), and
    then passes is_automorphism. Labels whose values are not 0..n-1 give
    none."""
    n = _value_degree(graph)
    if not n:
        return []
    lift = stabilizer_relabelings(graph, n, *prefix) if prefix else value_relabelings(graph, n)
    row0 = list(graph.neighbors(0))
    return [f.images for f in lift
            if all(f.images[v] == v for v in prefix)
            and _mask(f.images[u] for u in row0) == graph.adjacency[f.images[0]]
            and is_automorphism(graph, f)]


def _clique_cover_order(graph: Graph, lift: Sequence[Permutation]) -> Optional[list[int]]:
    """The vertices orbit by orbit under the last vertex permutation of
    lift, the lifted n-cycle; None if lift is empty or some orbit is not a
    clique of graph. The orbits are taken from the last vertex's down, each
    from its largest vertex on: on A(8,4,4), 17 ms against 24 ms from 0 up."""
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
                 symmetries: Optional[Callable[[tuple[int, ...]], list[tuple[int, ...]]]] = None,
                 seed: Sequence[int] = ()) -> list[list[int]]:
    """Maximum cliques of the graph with bitmask adjacency adj, by branch and
    bound with a greedy coloring bound (Tomita & Kameda, J. Global Optim.
    2007) kept as bitmask color classes (San Segundo et al., Comput. Oper.
    Res. 2011): one maximum clique, or with enumerate_all every one, each
    sorted. More than node_budget nodes raise BudgetError. Without
    enumerate_all the search starts from the seed clique, and symmetries(C)
    may give automorphisms that fix each vertex of the clique C, as image
    tuples, whose orbits the node with clique C then skips: the root, with
    C = (), and its first child, with C = (v1,), each call it at most once,
    when about to open a second branch (the module docstring has the
    arguments)."""
    best = len(seed)
    found = [sorted(seed)] if seed else []
    nodes = 0
    keep_ties = 0 if enumerate_all else 1
    # outside[v]: the vertices a color class may still take once it has v
    outside = [~(row | 1 << v) for v, row in enumerate(adj)]
    current: list[int] = []

    def node(candidates: int, prune: bool) -> Generator:
        nonlocal best, found, nodes
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
        # candidates that are a clique, one vertex per class, stand for the
        # m nodes of the path down to the leaf current + candidates, which
        # beats the best clique (or ties it with enumerate_all) unless it is
        # the root's (module docstring)
        closed = m == candidates.bit_count() and len(current) + m >= best + keep_ties
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
            return
        orbit: Optional[list[int]] = None
        opened: set[int] = set()  # the node's branch vertices, then their orbits
        for color in range(m, 0, -1):
            members = classes[color - 1]
            while members:
                # v of color c extends the clique to at most len(current) + c
                # vertices; best may have grown, and lower colors fail too
                if len(current) + color < best + keep_ties:
                    return
                v = members.bit_length() - 1
                members ^= 1 << v
                candidates ^= 1 << v
                if prune:
                    if opened and orbit is None:
                        orbit = orbits(symmetries(tuple(current)), nv)
                        opened = {orbit[u] for u in opened}
                    if orbit is not None and orbit[v] in opened:
                        continue
                    opened.add(v if orbit is None else orbit[v])
                current.append(v)
                # the root's first child prunes too; opened then holds v alone
                yield node(candidates & adj[v], prune and len(current) == 1 and len(opened) == 1)
                current.pop()

    _depth_first(node((1 << nv) - 1, symmetries is not None and not enumerate_all))
    return found


def _min_degree_independent_set(adj: Sequence[int]) -> list[int]:
    """A maximal independent set of the graph with bitmask rows adj, by the
    min-degree greedy. The degrees are bit-planes (_count_planes), and each
    dropped vertex's row is subtracted from them with ripple borrow."""
    left = (1 << len(adj)) - 1
    planes = _count_planes(adj, left)
    chosen = []
    while left:
        least = left
        for plane in reversed(planes):
            least = least & ~plane or least
        v = (least & -least).bit_length() - 1
        chosen.append(v)
        dropped = (adj[v] | 1 << v) & left
        left ^= dropped
        for u in _bits(dropped):
            borrow = adj[u] & left
            for j, plane in enumerate(planes):
                if not borrow:
                    break
                planes[j] = plane ^ borrow
                borrow &= ~plane
    return chosen


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
    lifted n-cycle's orbits when each is a clique; size_only starts from the
    min-degree greedy independent set and skips the root branches that the
    graph's value relabelings make redundant (the module docstring has all
    three)."""
    if graph.vertex_count < 1:
        raise ValidationError("need at least one vertex")
    if mode not in (SIZE_ONLY, ENUMERATE_ALL):
        raise ValidationError(f"unknown mode {mode!r}")
    n = _value_degree(graph)
    # the lifted n-cycle orders the search; (0 1) is lifted only to prune
    cycle = symmetric_group_generators(n)[-1:]
    order = _clique_cover_order(graph, value_relabelings(graph, n, cycle))
    searched = graph
    if order is not None:
        # vertex order[i] of graph is vertex i of the searched graph
        searched = graph.relabeled(Permutation._trusted(tuple(order)).inverse())
    adj = searched.adjacency
    seed = () if mode == ENUMERATE_ALL else _min_degree_independent_set(adj)
    sets = _max_cliques(_complement(adj), graph.vertex_count, mode == ENUMERATE_ALL,
                        config.node_budget, functools.partial(_symmetries, searched), seed)
    if order is not None:
        sets = [sorted(map(order.__getitem__, s)) for s in sets]
    for s in sets:
        if not is_maximal_independent(graph, s):
            raise ArrgraphError(f"clique search returned {s}, not a maximal independent set")
    if mode == SIZE_ONLY:
        return len(sets[0]), None
    return len(sets[0]), sorted(sets)
