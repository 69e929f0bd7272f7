"""Independent oracles the tests check the engines against: closure of a
generating set, automorphism count by trying every bijection, and
independence number by scanning every vertex subset."""

import itertools
from typing import Iterable, Optional

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
    count = 0
    for images in itertools.permutations(range(graph.vertex_count)):
        if is_automorphism(graph, Permutation(images)):
            count += 1
    return count


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
