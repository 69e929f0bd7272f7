"""Independent oracles the tests check the engines against: closure of a
generating set, stabilizer chains with a transversal element held per
orbit point (incremental Schreier-Sims, and the sift of a strong
generating set), the Schreier vectors of a strong generating set from
every (orbit point, generator) pair, automorphism count by trying every
bijection, independence number by scanning every vertex subset and by
take-or-drop branching, independence pair by pair, the min-degree greedy
with integer degrees, the IR search with orbit pruning only with its
leaf certificates from neighbour lists, equitable refinement vertex by
vertex, tuple ranks, A(n,k,r) from bit-sliced agreement counts, the
candidate group of Cay(S_n, F_f) built from S_n itself, value and
position relabelings and inversion of tuples, lifted one validated
permutation per map, Cay(S_n, S) one composed tuple at a time, minimal
block systems, common neighbourhoods, the bit matrix transpose bit by
bit, the row map edge by edge, the automorphism check by relabeling,
graphs given by their edges, their edge lists, and components by
breadth-first search over neighbour lists."""

import itertools
import math
import zlib
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from arrgraph.actions import ActionOnSets, BlockSystem
from arrgraph.autsearch import AutResult, SearchStats, _IRSearch, _refine
from arrgraph.config import DEFAULT_CONFIG, Config
from arrgraph.errors import BudgetError, ValidationError
from arrgraph.graphs import Graph, _count_planes, is_automorphism
from arrgraph.perms import (ConnectionSet, Permutation, StabilizerChain,
                            check_tuple_count, symmetric_group_generators)


def brute_force_closure(generators: Iterable[Permutation],
                        degree: Optional[int] = None,
                        limit: int = 10**6) -> set[Permutation]:
    """Closure of the generators under composition; independent oracle for
    stabilizer-chain orders."""
    generators = list(generators)
    if degree is None:
        if not generators:
            raise ValidationError("degree required for an empty generator list")
        degree = generators[0].degree
    ident = Permutation.identity(degree)
    elems = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for p in frontier:
            for g in generators:
                q = p.compose(g)
                if q not in elems:
                    elems.add(q)
                    new.append(q)
                    if len(elems) > limit:
                        raise BudgetError(f"closure exceeded {limit} elements")
        frontier = new
    return elems


class TransversalChain:
    """Incremental Schreier-Sims in the pair order of StabilizerChain, with
    each level's transversal element of every orbit point held as a
    Permutation: a point first reached from the orbit point x by the
    generator g gets the element of x followed by g. A chain over Schreier
    vectors must give the same bases, orbits in discovery order, strong
    generators and residues."""

    def __init__(self, generators: Iterable[Permutation], degree: int):
        self.identity = Permutation.identity(degree)
        # per level: [base point, generators, orbit, applied counts, transversal]
        self.levels: list[list] = []
        for g in generators:
            self.add_generator(g)

    def sift(self, p: Permutation, i: int = 0) -> tuple[Permutation, int]:
        while i < len(self.levels):
            point, trans = self.levels[i][0], self.levels[i][4]
            if p(point) not in trans:
                break
            p = p.compose(trans[p(point)].inverse())
            i += 1
        return p, i

    def add_generator(self, p: Permutation) -> bool:
        h, m = self.sift(p)
        if h == self.identity:
            return False
        first = 0
        while True:
            if m == len(self.levels):
                point = next(x for x in range(h.degree) if h(x) != x)
                self.levels.append([point, [], [point], [0], {point: self.identity}])
            for level in self.levels[first:m + 1]:
                level[1].append(h)
            i = m
            while (found := self._next_residue(i)) is None:
                i -= 1
                if i < 0:
                    return True
            (h, m), first = found, i + 1

    def _next_residue(self, i: int) -> Optional[tuple[Permutation, int]]:
        _, gens, orbit, applied, trans = self.levels[i]
        for j, x in enumerate(orbit):  # grows while it is read
            while applied[j] < len(gens):
                g = gens[applied[j]]
                applied[j] += 1
                if g(x) not in trans:
                    trans[g(x)] = trans[x].compose(g)
                    orbit.append(g(x))
                    applied.append(0)
                    continue
                h, m = self.sift(trans[x].compose(g).compose(trans[g(x)].inverse()), i + 1)
                if h != self.identity:
                    return h, m
        return None

    def strong_generators(self) -> list[Permutation]:
        return [g for point, gens, *_ in self.levels for g in gens if g(point) != point]


def transversal_sift(base: Sequence[int], strong: Sequence[Permutation],
                     p: Permutation) -> Permutation:
    """The residue of p through the chain of a strong generating set for
    the base, with every level's transversal element held explicitly:
    level i has the generators fixing base[:i], a point y first reached
    from the orbit point x by the generator g gets the element of x
    followed by g (breadth first, generators in order), and a level whose
    orbit is trivial is skipped."""
    gens = list(strong)
    for point in base:
        trans = {point: Permutation.identity(p.degree)}
        frontier = [point]
        for x in frontier:  # grows while it is read
            for g in gens:
                if g(x) not in trans:
                    trans[g(x)] = trans[x].compose(g)
                    frontier.append(g(x))
        if len(trans) > 1:
            if p(point) not in trans:
                return p
            p = p.compose(trans[p(point)].inverse())
        gens = [g for g in gens if g(point) == point]
    return p


def schreier_levels_by_pairs(base: Sequence[int], strong: Sequence[Permutation],
                             degree: int) -> list[tuple[int, list[int], list[int], list]]:
    """The levels of the chain of a strong generating set for the base, as
    (base point, generator indexes, orbit in discovery order, Schreier
    vector), by a breadth-first pass that tries every (orbit point,
    generator) pair of a level, generators in index order: level i has the
    generators fixing base[:i], the point y first reached from the orbit
    point x by generator i gets i, the base point -1 and a point off the
    orbit None, and a level whose orbit is trivial is skipped."""
    gens = list(range(len(strong)))
    levels = []
    for point in base:
        if not gens:
            break
        reached_by: list = [None] * degree
        reached_by[point] = -1
        orbit = [point]
        for x in orbit:  # grows while it is read
            for i in gens:
                y = strong[i](x)
                if reached_by[y] is None:
                    reached_by[y] = i
                    orbit.append(y)
        if len(orbit) > 1:
            levels.append((point, gens, orbit, reached_by))
        gens = [i for i in gens if strong[i](point) == point]
    return levels


def brute_force_automorphism_count(graph: Graph, limit: int = 8) -> int:
    """Independent oracle: count automorphisms by trying every vertex
    bijection. Only for graphs with at most `limit` vertices."""
    if graph.vertex_count > limit:
        raise ValidationError(f"brute force limited to {limit} vertices")
    pairs = edges(graph)
    edge_set = {frozenset(e) for e in pairs}
    # a bijection that maps every edge to an edge maps the edge set onto
    # itself, so it also maps non-edges to non-edges
    return sum(1 for images in itertools.permutations(range(graph.vertex_count))
               if all(frozenset((images[u], images[v])) in edge_set
                      for u, v in pairs))


def is_independent(graph: Graph, vertices) -> bool:
    """No two of the vertices are adjacent, pair by pair."""
    return not any(graph.adjacency[u] >> v & 1 for u, v in itertools.combinations(vertices, 2))


def min_degree_independent_set(adj: Sequence[int]) -> list[int]:
    """The min-degree greedy with integer degrees: take the lowest vertex of
    least degree among those left, drop it and its neighbours, and lower
    the degree of each vertex left once per dropped neighbour."""
    neighbours = [{u for u in range(len(adj)) if row >> u & 1} for row in adj]
    degree = [len(nb) for nb in neighbours]
    left = set(range(len(adj)))
    chosen = []
    while left:
        v = min(left, key=lambda u: (degree[u], u))
        chosen.append(v)
        dropped = {v} | (neighbours[v] & left)
        left -= dropped
        for u in dropped:
            for w in neighbours[u] & left:
                degree[w] -= 1
    return chosen


def independence_number_oracle(graph: Graph) -> int:
    """Independent oracle: exhaustive subset scan, graphs up to 20 vertices."""
    nv = graph.vertex_count
    if nv > 20:
        raise ValidationError("oracle limited to 20 vertices")
    adj = graph.adjacency
    best = 0
    # DP over subsets: a set is independent iff (set minus its lowest vertex)
    # is independent and that vertex has no neighbor inside
    indep = bytearray(1 << nv)
    indep[0] = 1
    for m in range(1, 1 << nv):
        v = (m & -m).bit_length() - 1
        rest = m & (m - 1)
        if indep[rest] and adj[v] & rest == 0:
            indep[m] = 1
            c = m.bit_count()
            if c > best:
                best = c
    return best


def _in_explored_orbit(v: int, explored: list[int],
                       fixing: list[tuple[int, ...]]) -> bool:
    """Whether v is in the orbit of an explored sibling under the group the
    given automorphisms (image tuples) generate: a walk of the explored
    vertices' orbit that stops once it reaches v."""
    orbit = set(explored)
    frontier = list(explored)
    while frontier:
        x = frontier.pop()
        for g in fixing:
            y = g[x]
            if y == v:
                return True
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return False


def independence_number_by_branching(graph: Graph) -> int:
    """Independent oracle: take or drop one vertex at a time, with no
    coloring, no vertex order by orbits and no symmetry. The branch vertex
    is a remaining vertex with the most remaining neighbours, and once none
    has a neighbour all the remaining vertices are taken. A branch is cut
    only when its set and every remaining vertex together cannot beat the
    best set so far. About 1 s on the 60-vertex A(5,3,1)."""
    adj = graph.adjacency
    best = 0

    def branch(rest: int, size: int) -> None:
        nonlocal best
        if size + rest.bit_count() <= best:
            return
        v, degree = -1, 0
        r = rest
        while r:
            low = r & -r
            r ^= low
            u = low.bit_length() - 1
            d = (adj[u] & rest).bit_count()
            if d > degree:
                v, degree = u, d
        if v < 0:
            best = size + rest.bit_count()
            return
        branch(rest & ~adj[v] & ~(1 << v), size + 1)  # take v
        branch(rest & ~(1 << v), size)  # drop v

    branch((1 << graph.vertex_count) - 1, 0)
    return best


class OrbitPruningSearch(_IRSearch):
    """The IR search without the return to the first-path ancestor: after
    every leaf the search goes on with its remaining siblings, and only
    orbit pruning skips children. Its orders, certificates and canonical
    labelings are the reference for the search's. Its leaf certificates
    come from `leaf_certificate_by_neighbours`, not from the search's
    transpose, and its orbits from a walk per child, `_in_explored_orbit`,
    not from the search's orbit labels. Its cells are vertex bit masks
    refined by the search's `_refine`, which `reference_refine` checks.

    Without the return it finds many repeats and chain members. A repeat
    is skipped, and only the strong generators of the chain of `result()`
    are checked with `is_automorphism`: they generate the group of every
    automorphism found. `result()` builds its chain by full Schreier-Sims,
    so its group does not rest on the search's first path."""

    def __init__(self, graph, config):
        super().__init__(graph.adjacency, config)
        self.graph = graph
        self.seen = set()
        self.neighbours = [list(graph.neighbors(v)) for v in range(self.n)]

    def _leaf_cert(self, lab):
        return leaf_certificate_by_neighbours(self.neighbours, lab)

    def run(self):
        # recursive, so the reference does not rest on the search's tree walk
        self._node(_refine(self.adj, [(1 << self.n) - 1]), [])

    def _node(self, cells, prefix):
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
            self._leaf([c.bit_length() - 1 for c in cells])
            return
        explored = []
        fixing = []
        scanned = 0
        m = cells[target]
        for v in [u for u in range(self.n) if m >> u & 1]:
            if explored:
                for g in self.automorphisms[scanned:]:
                    if [g[p] for p in prefix] == prefix:
                        fixing.append(g)
                scanned = len(self.automorphisms)
                if fixing and _in_explored_orbit(v, explored, fixing):
                    continue
            explored.append(v)
            child = cells[:target] + [1 << v, m ^ (1 << v)] + cells[target + 1:]
            self._node(_refine(self.adj, child, [1 << v]), prefix + [v])

    def _leaf(self, lab):
        cert = self._leaf_cert(lab)
        if self.first is None:
            self.first = self.best = (cert, lab)
            return
        if cert == self.first[0]:
            self._record_automorphism(self.first[1], lab)
        if cert < self.best[0]:
            self.best = (cert, lab)
        elif cert == self.best[0] and self.best is not self.first:
            self._record_automorphism(self.best[1], lab)

    def _record_automorphism(self, lab1, lab2):
        imgs = [0] * self.n
        for a, b in zip(lab1, lab2):
            imgs[a] = b
        images = tuple(imgs)
        if images not in self.seen:
            self.seen.add(images)
            self.automorphisms.append(images)

    def result(self):
        """The chain by Schreier-Sims over the found automorphisms in the
        order found, its strong generators kept as the generators;
        independent of the search's base and of its claim that the found
        automorphisms are a strong generating set."""
        chain = StabilizerChain(map(Permutation._trusted, self.automorphisms),
                                degree=self.n)
        generators = chain.strong_generators()
        if not all(is_automorphism(self.graph, g) for g in generators):
            raise AssertionError("IR search produced a non-automorphism")
        cert_bits, lab = self.best
        return AutResult(generators=generators, chain=chain, order=chain.order(),
                         certificate=zlib.compress(cert_bits, 6),
                         canonical_labeling=Permutation(lab).inverse(),
                         stats=SearchStats(nodes=self.nodes, leaves=self.leaves,
                                           found=len(self.automorphisms)))


def leaf_certificate_by_neighbours(neighbours: Sequence[Sequence[int]],
                                   lab: Sequence[int]) -> bytes:
    """The leaf certificate of a labelling, built from neighbour lists: the
    adjacency matrix with vertex lab[i] at position i, row by row, each row
    the sum of the position bits of its vertex's neighbours, in
    ceil(V/8) little-endian bytes."""
    bit = [0] * len(lab)
    for i, v in enumerate(lab):
        bit[v] = 1 << i
    nbytes = (len(lab) + 7) // 8
    rows = (sum(map(bit.__getitem__, neighbours[v])) for v in lab)
    return b"".join(r.to_bytes(nbytes, "little") for r in rows)


def orbit_pruning_automorphism_group(graph: Graph) -> AutResult:
    """`automorphism_group` as `OrbitPruningSearch` computes it."""
    search = OrbitPruningSearch(graph, Config())
    search.run()
    return search.result()


def reference_refine(adj: Sequence[int], cells: list[list[int]]) -> list[list[int]]:
    """The per-vertex refinement: every splitter regroups every
    non-singleton cell by its neighbour count, fragments in ascending count
    replace the cell in place and join the queue in that order. The cells
    are sorted lists, and every cell starts in the queue."""
    def mask(cell):
        m = 0
        for v in cell:
            m |= 1 << v
        return m

    queue = [mask(c) for c in cells]
    qi = 0
    while qi < len(queue):
        splitter = queue[qi]
        qi += 1
        newcells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                newcells.append(cell)
                continue
            groups = {}
            for v in cell:
                groups.setdefault((adj[v] & splitter).bit_count(), []).append(v)
            if len(groups) == 1:
                newcells.append(cell)
                continue
            changed = True
            for count in sorted(groups):
                newcells.append(groups[count])
                queue.append(mask(groups[count]))
        if changed:
            cells = newcells
    return cells


# --------------------------------------------------------------------------
# k-tuples of distinct values, by rank


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
    """Lift a map on tuple labels to a permutation of vertex indexes, through
    a validating Permutation: the reference for graphs._lift_label_maps."""
    index = {lab: i for i, lab in enumerate(graph.labels)}
    return Permutation(index[tuple(tuple_map(lab))] for lab in graph.labels)


def differing_coordinates(s: Sequence[int], t: Sequence[int]) -> int:
    if len(s) != len(t):
        raise ValidationError("tuples of different length")
    return sum(1 for a, b in zip(s, t) if a != b)


def fixed_point_count(p: Permutation) -> int:
    return sum(1 for i, x in enumerate(p.images) if i == x)


def common_neighborhood(graph: Graph, vertices: Iterable[int]) -> set[int]:
    """Intersection of the open neighborhoods; the whole vertex set for an
    empty input."""
    vertices = list(vertices)
    if any(not 0 <= v < graph.vertex_count for v in vertices):
        raise ValidationError("vertex index out of range")
    acc = (1 << graph.vertex_count) - 1
    for v in vertices:
        acc &= graph.adjacency[v]
    out = set()
    while acc:
        low = acc & -acc
        out.add(low.bit_length() - 1)
        acc ^= low
    return out


# --------------------------------------------------------------------------
# Graphs given by their edges, their edges and connectivity read back,
# adjacency under a vertex map, edge by edge, the row map edge by edge, and
# the transpose bit by bit


def graph_from_edges(labels: Sequence[Sequence[int]], edges: Iterable[tuple[int, int]],
                     metadata: Optional[dict] = None) -> Graph:
    """The graph on the labels whose edges are the given vertex pairs: both
    bits of each edge are set in a row per label, and the rows go through
    the validating constructor."""
    rows = [0] * len(labels)
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(labels, rows, metadata)


def edges(graph: Graph) -> list[tuple[int, int]]:
    """The edges of a graph as vertex pairs u < v, ascending, read from its
    rows bit by bit."""
    return [(u, v) for u, row in enumerate(graph.adjacency)
            for v in range(u + 1, graph.vertex_count) if row >> v & 1]


def components_by_neighbours(graph: Graph) -> list[list[int]]:
    """The vertices of each component, ascending, the components in the
    order of their lowest vertex: a breadth-first search over neighbour
    lists from each vertex not yet reached."""
    neighbours = [list(graph.neighbors(v)) for v in range(graph.vertex_count)]
    seen: set[int] = set()
    components = []
    for start in range(graph.vertex_count):
        if start in seen:
            continue
        seen.add(start)
        frontier = [start]
        for u in frontier:  # grows while it is read
            for v in neighbours[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        components.append(sorted(frontier))
    return components


def transpose_bit_by_bit(rows: Sequence[int]) -> list[int]:
    """The transpose of a square bit matrix held as V rows of V bits: bit r
    of row c of the result is bit c of row r, read and set one at a time."""
    nv = len(rows)
    return [sum((rows[r] >> c & 1) << r for r in range(nv)) for c in range(nv)]


def relabel_rows_by_edges(rows: Sequence[int], order: Sequence[int]) -> list[int]:
    """The rows of a symmetric bit matrix with vertex order[i] moved to i,
    one edge at a time: each bit v of row u is set at bit place[v] of row
    place[u], where order[place[x]] = x."""
    place = {x: i for i, x in enumerate(order)}
    out = [0] * len(rows)
    for u, row in enumerate(rows):
        for v in range(len(rows)):
            if row >> v & 1:
                out[place[u]] |= 1 << place[v]
    return out


def is_automorphism_by_relabeling(graph: Graph, f: Permutation) -> bool:
    """f preserves adjacency: the graph built by the validating constructor
    from the images of the edges under f, one edge at a time, has the
    graph's own adjacency."""
    images = f.images
    image = graph_from_edges(graph.labels, ((images[u], images[v]) for u, v in edges(graph)))
    return image.adjacency == graph.adjacency


# --------------------------------------------------------------------------
# A(n,k,r) from bit-sliced agreement counts


def arrangement_by_agreement_counts(n: int, k: int, r: int) -> Graph:
    """A(n,k,r) with every row made on its own, from no other row.

    Two tuples differ in r coordinates when they agree in k - r. The
    vertices with value x at position j form the mask at[j][x]. For each
    tuple t the k masks at[j][t[j]] are summed into bit-planes
    (graphs._count_planes), and the row of t is one AND over the planes
    that selects the count k - r."""
    labels = list(itertools.permutations(range(n), k))
    nv = len(labels)
    full = (1 << nv) - 1
    at = [[0] * n for _ in range(k)]
    for v, t in enumerate(labels):
        for j, x in enumerate(t):
            at[j][x] |= 1 << v
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


# --------------------------------------------------------------------------
# Cay(S_n, S) one composed tuple at a time


def cayley_by_composition(n: int, cset: ConnectionSet) -> Graph:
    """Cay(S_n, S) with the neighbour s*g of every vertex g formed as a
    tuple by one itemgetter per element of S and looked up in a dict of the
    labels: |S|*n! tuples, hashes and lookups, one row at a time."""
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
# Candidate automorphism group of Cay(S_n, F_k), built from S_n itself


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


# --------------------------------------------------------------------------
# Minimal block systems, by union-find closure of a seed pair


def is_transitive(action: ActionOnSets) -> bool:
    m = len(action.family)
    if m == 0:
        return False
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for mover in action.movers:
            y = mover(x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == m


def minimal_block_system(action: ActionOnSets,
                         seed: tuple[int, int]) -> BlockSystem:
    """Finest block system in which the two seed indexes share a block
    (union-find closure of the seed pair under all movers). Requires a
    transitive action."""
    if not is_transitive(action):
        raise ValidationError("block systems require a transitive action")
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
