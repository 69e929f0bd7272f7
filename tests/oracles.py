"""Independent oracles the tests check the engines against: closure of a
generating set, automorphism count by trying every bijection, independence
number by scanning every vertex subset, and the IR search with orbit
pruning only."""

import itertools
from typing import Iterable, Optional

from arrgraph.autsearch import AutResult, _in_explored_orbit, _IRSearch, _refine
from arrgraph.config import Config
from arrgraph.errors import BudgetError, ValidationError
from arrgraph.graphs import Graph, is_automorphism
from arrgraph.perms import Permutation


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


def brute_force_automorphism_count(graph: Graph, limit: int = 8) -> int:
    """Independent oracle: count automorphisms by trying every vertex
    bijection. Only for graphs with at most `limit` vertices."""
    if graph.vertex_count > limit:
        raise ValidationError(f"brute force limited to {limit} vertices")
    edges = list(graph.edges())
    edge_set = {frozenset(e) for e in edges}
    # a bijection that maps every edge to an edge maps the edge set onto
    # itself, so it also maps non-edges to non-edges
    return sum(1 for images in itertools.permutations(range(graph.vertex_count))
               if all(frozenset((images[u], images[v])) in edge_set
                      for u, v in edges))


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


class OrbitPruningSearch(_IRSearch):
    """The IR search without the return to the first-path ancestor: after
    every leaf the search goes on with its remaining siblings, and only
    orbit pruning skips children. Its orders, certificates and canonical
    labelings are the reference for the search's.

    Without the return it finds many repeats and chain members. A repeat
    is skipped, and only the generators, the non-members the chain of
    `result()` keeps, are checked with `is_automorphism`: a member is a
    product of them."""

    def __init__(self, graph, config):
        super().__init__(graph, config)
        self.seen = set()

    def _node(self, cells, prefix):
        self.nodes += 1
        if self.nodes > self.config.node_budget:
            raise BudgetError(
                f"IR search exceeded node budget {self.config.node_budget}")
        target = -1
        smallest = self.n + 1
        for i, cell in enumerate(cells):
            if 1 < len(cell) < smallest:
                target = i
                smallest = len(cell)
        if target < 0:
            self._leaf([c[0] for c in cells])
            return
        explored = []
        fixing = []
        scanned = 0
        for v in sorted(cells[target]):
            if explored:
                for g in self.automorphisms[scanned:]:
                    if [g[p] for p in prefix] == prefix:
                        fixing.append(g)
                scanned = len(self.automorphisms)
                if fixing and _in_explored_orbit(v, explored, fixing):
                    continue
            explored.append(v)
            child = (cells[:target]
                     + [[v], [u for u in cells[target] if u != v]]
                     + cells[target + 1:])
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
        result = super().result()
        if not all(is_automorphism(self.graph, g) for g in result.generators):
            raise AssertionError("IR search produced a non-automorphism")
        return result


def orbit_pruning_automorphism_group(graph: Graph) -> AutResult:
    """`automorphism_group` as `OrbitPruningSearch` computes it."""
    search = OrbitPruningSearch(graph, Config())
    search.run()
    return search.result()
