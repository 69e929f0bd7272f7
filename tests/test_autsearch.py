"""Equitable refinement, the IR search, certificates, and isomorphism by
equal certificates."""

import hashlib
import inspect
import itertools
import math
import random
import sys
import zlib

import pytest

from arrgraph.autsearch import SearchStats, _IRSearch, _refine, automorphism_group
from arrgraph.config import Config
from arrgraph.errors import BudgetError
from arrgraph.graphs import (Graph, _bits, _mask, build_arrangement_graph, build_cayley_graph,
                             candidate_aut_generators, is_automorphism)
from arrgraph.perms import Permutation, StabilizerChain, connection_set
from oracles import (brute_force_automorphism_count, brute_force_closure,
                     common_neighborhood, components_by_neighbours, edges, graph_from_edges,
                     leaf_certificate_by_neighbours,
                     orbit_pruning_automorphism_group, rank_tuple,
                     reference_refine, schreier_levels_by_pairs)

SEED = 20240811


def canonical_certificate(graph):
    return automorphism_group(graph).certificate


def shuffled_permutation(degree, rng):
    images = list(range(degree))
    rng.shuffle(images)
    return Permutation(images)


def shuffled(graph, rng):
    return graph.relabeled(shuffled_permutation(graph.vertex_count, rng))


# -- refinement ---------------------------------------------------------------


def whole(graph):
    """The unit partition, one cell of every vertex, as a mask."""
    return [(1 << graph.vertex_count) - 1]


def test_refinement_regular_graph_unchanged():
    g = build_arrangement_graph(4, 2, 2)
    assert _refine(g.adjacency, whole(g)) == whole(g)


def test_refinement_path_of_three():
    p3 = graph_from_edges([(0,), (1,), (2,)], [(0, 1), (1, 2)])
    cells = _refine(p3.adjacency, whole(p3))
    assert cells == [0b101, 0b010]
    assert _as_lists(cells) == reference_refine(p3.adjacency, [[0, 1, 2]])


def test_refinement_idempotent(corpus):
    for g in corpus.values():
        once = _refine(g.adjacency, whole(g))
        assert _refine(g.adjacency, once) == once


def test_refinement_is_equitable(corpus):
    for g in corpus.values():
        cells = _refine(g.adjacency, whole(g))
        for cell in cells:
            for other in cells:
                counts = {(g.adjacency[v] & other).bit_count() for v in _bits(cell)}
                assert len(counts) == 1


# -- automorphism groups ------------------------------------------------------


def test_aut_k4(corpus):
    assert automorphism_group(corpus["K4"]).order == 24


def test_aut_a422():
    assert automorphism_group(build_arrangement_graph(4, 2, 2)).order == 48


def test_aut_cay_s4_transpositions():
    g = build_cayley_graph(4, connection_set(4, "transpositions"))
    assert automorphism_group(g).order == 1152


def test_aut_order_matches_brute_force(corpus):
    for name, g in corpus.items():
        if g.vertex_count <= 8:
            assert automorphism_group(g).order == brute_force_automorphism_count(g), name


def test_aut_petersen(corpus):
    # |Aut(Petersen)| = 120, a classical value
    assert automorphism_group(corpus["petersen"]).order == 120


def test_aut_generators_are_automorphisms(corpus):
    for g in corpus.values():
        result = automorphism_group(g)
        assert all(is_automorphism(g, f) for f in result.generators)
        assert result.chain.order() == result.order


def test_aut_deterministic(corpus):
    for g in corpus.values():
        r1 = automorphism_group(g)
        r2 = automorphism_group(g)
        assert r1.generators == r2.generators
        assert r1.certificate == r2.certificate
        assert r1.canonical_labeling == r2.canonical_labeling


def test_node_budget_exceeded():
    g = build_arrangement_graph(4, 2, 2)
    with pytest.raises(BudgetError):
        automorphism_group(g, Config(node_budget=3))


# -- certificates and isomorphism ---------------------------------------------


def test_certificate_relabeling_invariance(corpus):
    rng = random.Random(SEED)
    for g in corpus.values():
        cert = canonical_certificate(g)
        for _ in range(5):
            assert canonical_certificate(shuffled(g, rng)) == cert


def test_certificate_distinguishes_k4_from_c4(corpus):
    assert canonical_certificate(corpus["K4"]) != canonical_certificate(corpus["C4"])


def test_cay_s4_derangements_isomorphic_a444():
    cay = build_cayley_graph(4, connection_set(4, "derangements"))
    arr = build_arrangement_graph(4, 4, 4)
    assert canonical_certificate(cay) == canonical_certificate(arr)


def isomorphism(g1, g2):
    """A bijection from the vertices of g1 to those of g2 that maps edges
    onto edges, through the canonical labelings, when the two certificates
    are equal; None when they differ."""
    r1, r2 = automorphism_group(g1), automorphism_group(g2)
    if r1.certificate != r2.certificate:
        return None
    witness = r1.canonical_labeling.compose(r2.canonical_labeling.inverse())
    assert g1.relabeled(witness).adjacency == g2.adjacency
    return witness


def test_are_isomorphic_with_witness():
    g = build_arrangement_graph(4, 2, 2)
    rng = random.Random(SEED + 1)
    h = shuffled(g, rng)
    witness = isomorphism(g, h)
    for u, v in edges(g):
        assert h.adjacency[witness(u)] >> witness(v) & 1


def test_are_isomorphic_cay_f1_a443():
    cay = build_cayley_graph(4, connection_set(4, "fixed", 1))
    arr = build_arrangement_graph(4, 4, 3)
    assert isomorphism(cay, arr) is not None


def test_are_isomorphic_negative():
    assert isomorphism(build_arrangement_graph(4, 2, 1), build_arrangement_graph(4, 2, 2)) is None


# -- common neighborhoods -----------------------------------------------------


def test_common_neighborhood_single_vertex():
    g = build_arrangement_graph(4, 2, 2)
    assert common_neighborhood(g, [0]) == set(g.neighbors(0))


def test_common_neighborhood_triangle(corpus):
    k4 = corpus["K4"]
    assert common_neighborhood(k4, [0, 1]) == {2, 3}


def test_common_neighborhood_empty_set_is_all():
    g = build_arrangement_graph(4, 2, 1)
    assert common_neighborhood(g, []) == set(range(12))


def test_common_neighborhood_a422_brute_force():
    g = build_arrangement_graph(4, 2, 2)
    u = rank_tuple((0, 1), 4, 2)  # [1,2]
    v = rank_tuple((1, 0), 4, 2)  # [2,1]
    expected = set(g.neighbors(u)) & set(g.neighbors(v))
    assert common_neighborhood(g, [u, v]) == expected
    # independent re-derivation straight from the adjacency rule
    direct = {w for w in range(12)
              if all(a != b for a, b in zip(g.labels[w], (0, 1)))
              and all(a != b for a, b in zip(g.labels[w], (1, 0)))}
    assert common_neighborhood(g, [u, v]) == direct


def test_neighborhood_covariance(corpus):
    # N(S)^g = N(S^g) for automorphism generators and random subsets
    rng = random.Random(SEED + 2)
    for g in corpus.values():
        result = automorphism_group(g)
        for f in result.generators:
            for _ in range(20):
                size = rng.randint(0, min(4, g.vertex_count))
                s = rng.sample(range(g.vertex_count), size)
                image = {f(v) for v in common_neighborhood(g, s)}
                assert image == common_neighborhood(g, [f(v) for v in s])


# -- containment of the explicit generators -----------------------------------


@pytest.mark.parametrize("n,k,r", [(4, 2, 2), (4, 3, 3), (4, 4, 4), (4, 4, 2)])
def test_candidate_generators_sift_into_aut(n, k, r):
    g = build_arrangement_graph(n, k, r)
    aut = automorphism_group(g)
    for cand in candidate_aut_generators(n, k, g):
        assert aut.chain.contains(cand)


# -- pinned search behaviour --------------------------------------------------
#
# Certificates as the search produced them before refinement, orbit
# bookkeeping and permutation arithmetic were optimised; node counts as of
# the return to the first-path ancestor; bases and fundamental orbits as of
# the chain built on the first path's base. A(4,4,3) is two components,
# each K_{4,4,4}, whose complement is 3·K4, so it splits down to single
# vertices: one node each, and its certificate is that of the joined parts.
# A change to the search shows here as a diff in review.

_ALL = "all"  # a fundamental orbit that is the whole vertex set

PINNED_SEARCHES = {
    ((4, 4, 3), "plain"): (24, "2a730ed9c662dbe7", None, None),
    ((4, 4, 4), "plain"): (28, "8dddcfe6c632ea11", None, None),
    ((5, 4, 3), "plain"): (21, "a702d45f1f2e08ba", None, None),
    ((4, 4, 3), "shuffled"): (
        24, "2a730ed9c662dbe7",
        [0, 3, 10, 1, 14, 16, 6, 11, 18, 2, 4, 8, 5, 7, 12, 9, 13, 17],
        [_ALL, [3, 10, 19], [10, 19], [1, 6, 11, 14, 16, 18, 21, 22],
         [14, 16, 22], [16, 22], [6, 11, 18, 21], [11, 18, 21], [18, 21],
         [2, 4, 5, 7, 8, 9, 12, 13, 15, 17, 20, 23], [4, 8, 15], [8, 15],
         [5, 7, 9, 12, 13, 17, 20, 23], [7, 12, 20], [12, 20], [9, 13, 17, 23],
         [13, 17, 23], [17, 23]]),
    ((4, 4, 4), "shuffled"): (
        34, "8dddcfe6c632ea11", [0, 3, 2, 10, 13, 14],
        [_ALL, [3, 10, 19], [2, 8], [10, 19], [13, 17], [14, 18]]),
    ((5, 4, 3), "shuffled"): (
        21, "a702d45f1f2e08ba", [0, 60, 70, 48, 1],
        [_ALL, [60, 70, 111], [70, 111], [48, 83], [1, 2]]),
}


@pytest.mark.parametrize("nkr,labelling", sorted(PINNED_SEARCHES),
                         ids=lambda x: "A%d%d%d" % x if isinstance(x, tuple) else x)
def test_search_pinned(nkr, labelling):
    nodes, cert_prefix, base, orbits = PINNED_SEARCHES[(nkr, labelling)]
    g = build_arrangement_graph(*nkr)
    if labelling == "shuffled":
        g = shuffled(g, random.Random(SEED))
    result = automorphism_group(g)
    assert result.stats.nodes == nodes
    assert hashlib.sha256(result.certificate).hexdigest()[:16] == cert_prefix
    if base is not None:
        assert result.chain.base == base
        everything = list(range(g.vertex_count))
        assert result.chain.fundamental_orbits() == [
            everything if o == _ALL else o for o in orbits]


def test_search_stats_pinned():
    stats = automorphism_group(build_arrangement_graph(5, 4, 3)).stats
    assert stats == SearchStats(nodes=21, leaves=6, found=5)


@pytest.mark.parametrize("nkr", [(4, 4, 4), (5, 5, 5), (5, 5, 3), (5, 5, 2)],
                         ids=lambda nkr: "A%d%d%d" % nkr)
def test_shuffled_nodes_within_twice_plain(nkr):
    g = build_arrangement_graph(*nkr)
    plain = automorphism_group(g).stats.nodes
    mixed = automorphism_group(shuffled(g, random.Random(SEED))).stats.nodes
    assert mixed <= 2 * plain


# -- leaf certificates ----------------------------------------------------------


@pytest.mark.parametrize("nkr", [(5, 4, 1), (6, 6, 2), (5, 5, 5), (6, 6, 6)],
                         ids=lambda nkr: "A%d%d%d" % nkr)
def test_leaf_certificate_matches_neighbour_lists(nkr):
    # sparse (A(5,4,1), A(6,6,2)) and dense (A(5,5,5), A(6,6,6)) graphs,
    # in the plain labelling and in seeded ones
    g = build_arrangement_graph(*nkr)
    search = _IRSearch(g.adjacency, Config())
    neighbours = [list(g.neighbors(v)) for v in range(g.vertex_count)]
    rng = random.Random(SEED)
    labellings = [list(range(g.vertex_count))]
    labellings += [rng.sample(range(g.vertex_count), g.vertex_count) for _ in range(3)]
    for lab in labellings:
        assert search._leaf_cert(lab) == leaf_certificate_by_neighbours(neighbours, lab)


# -- the search against the one with orbit pruning only ----------------------


def _complement(g):
    full = (1 << g.vertex_count) - 1
    return Graph(g.labels, [full ^ row ^ 1 << v for v, row in enumerate(g.adjacency)])


def _is_prime(g):
    """One vertex, or connected with a connected complement."""
    return g.vertex_count == 1 or (len(components_by_neighbours(g)) == 1
                                   and len(components_by_neighbours(_complement(g))) == 1)


def _assert_matches_orbit_pruning(g, name):
    """Returns the certificates of the search and of the oracle, for
    _assert_certificates_agree."""
    result = automorphism_group(g)
    reference = orbit_pruning_automorphism_group(g)
    # the same group: equal orders, and each chain holds the other's
    # strong generators
    assert result.order == reference.order, name
    assert all(map(result.chain.contains, reference.chain.strong_generators())), name
    assert all(map(reference.chain.contains, result.chain.strong_generators())), name
    if _is_prime(g):
        assert result.certificate == reference.certificate, name
        assert result.canonical_labeling == reference.canonical_labeling, name
    else:
        # the joined parts' certificate is still the graph relabeled by its
        # canonical labeling
        nbytes = (g.vertex_count + 7) // 8
        rows = g.relabeled(result.canonical_labeling).adjacency
        assert zlib.decompress(result.certificate) == b"".join(
            row.to_bytes(nbytes, "little") for row in rows), name
    if g.vertex_count <= 8:
        assert result.order == brute_force_automorphism_count(g), name
    return result.certificate, reference.certificate


def _assert_certificates_agree(pairs):
    # two graphs have equal certificates exactly when the oracle's are equal
    for (mine1, ref1), (mine2, ref2) in itertools.combinations(pairs, 2):
        assert (mine1 == mine2) == (ref1 == ref2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_search_matches_orbit_pruning_arrangement_graphs(n):
    rng = random.Random(SEED + 5 + n)
    pairs = []
    for k in range(1, n + 1):
        for r in range(1, k + 1):
            g = build_arrangement_graph(n, k, r)
            if g.edge_count() == 0:
                continue
            for i, h in enumerate([g, shuffled(g, rng), shuffled(g, rng)]):
                pairs.append(_assert_matches_orbit_pruning(h, (n, k, r, i)))
    _assert_certificates_agree(pairs)


def test_search_matches_orbit_pruning_corpus(corpus):
    _assert_certificates_agree([_assert_matches_orbit_pruning(g, name)
                                for name, g in corpus.items()])


def test_search_matches_orbit_pruning_random_graphs():
    rng = random.Random(SEED + 5)
    graphs = [_random_graph(rng, max_vertices=12) for _ in range(40)]
    _assert_certificates_agree([_assert_matches_orbit_pruning(g, i)
                                for i, g in enumerate(graphs)])
    assert any(not g.is_connected() and g.edge_count() for g in graphs)


# -- refinement against the per-vertex reference ------------------------------


def _random_graph(rng, max_vertices=40):
    shape = rng.choice(["dense", "sparse", "edgeless", "disconnected", "regular"])
    nv = rng.randint(1, max_vertices)
    if shape == "edgeless":
        edges = []
    elif shape == "disconnected":
        # two random pieces and a few isolated vertices, never joined
        cut = rng.randint(0, nv)
        p = rng.random()
        edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
                 if (u < cut) == (v < cut) and v < nv - 2 and rng.random() < p]
    elif shape == "regular":
        # a circulant: vertex-transitive, so refinement alone splits nothing
        steps = rng.sample(range(1, nv // 2 + 1), min(2, nv // 2))
        edges = {tuple(sorted((u, (u + s) % nv))) for u in range(nv) for s in steps}
        edges = [e for e in edges if e[0] != e[1]]
    else:
        p = rng.uniform(0.3, 0.9) if shape == "dense" else rng.uniform(0.02, 0.2)
        edges = [(u, v) for u in range(nv) for v in range(u + 1, nv) if rng.random() < p]
    order = list(range(nv))
    rng.shuffle(order)
    return graph_from_edges([(i,) for i in range(nv)],
                            [(order[u], order[v]) for u, v in edges])


def _random_ordered_partition(rng, nv):
    vertices = list(range(nv))
    rng.shuffle(vertices)
    cuts = sorted(rng.sample(range(1, nv), rng.randint(0, min(nv - 1, 5)))) if nv > 1 else []
    bounds = [0] + cuts + [nv]
    return [vertices[a:b] for a, b in zip(bounds, bounds[1:])]


def test_refinement_matches_reference_random_graphs(corpus):
    rng = random.Random(SEED + 3)
    graphs = [_random_graph(rng) for _ in range(240)]
    graphs += list(corpus.values()) + [build_arrangement_graph(4, 3, 2),
                                       build_arrangement_graph(5, 3, 3)]
    shapes = set()
    for g in graphs:
        for _ in range(3):
            cells = _random_ordered_partition(rng, g.vertex_count)
            expected = reference_refine(g.adjacency, [sorted(c) for c in cells])
            assert _as_lists(_refine(g.adjacency, [_mask(c) for c in cells])) == expected
        shapes.add((g.edge_count() == 0, g.is_connected()))
    # edgeless, disconnected and connected graphs all took part
    assert {(True, False), (False, False), (False, True)} <= shapes


def _as_lists(masks):
    return [[v for v in range(m.bit_length()) if m >> v & 1] for m in masks]


def test_search_refinement_matches_reference(corpus):
    # the search's own path: an equitable parent, one vertex of a cell
    # individualized, and only that vertex as the first splitter
    rng = random.Random(SEED + 8)
    graphs = [_random_graph(rng) for _ in range(120)]
    graphs += list(corpus.values()) + [build_arrangement_graph(4, 3, 2),
                                       build_arrangement_graph(5, 3, 3)]
    children = 0
    for g in graphs:
        adj = g.adjacency
        parent = reference_refine(
            adj, [sorted(c) for c in _random_ordered_partition(rng, g.vertex_count)])
        while any(len(c) > 1 for c in parent):
            # every vertex of one open cell, then down one of the children
            t = rng.choice([i for i, c in enumerate(parent) if len(c) > 1])
            cell = parent[t]
            masks = [sum(1 << v for v in c) for c in parent]
            results = []
            for v in cell:
                child = parent[:t] + [[v], [u for u in cell if u != v]] + parent[t + 1:]
                expected = reference_refine(adj, child)
                refined = _refine(adj, masks[:t] + [1 << v, masks[t] ^ (1 << v)]
                                  + masks[t + 1:], [1 << v])
                assert _as_lists(refined) == expected
                results.append(expected)
                children += 1
            parent = rng.choice(results)
    assert children > 1000


# -- generators found by the search -------------------------------------------


def _searched_graphs(corpus):
    rng = random.Random(SEED + 4)
    graphs = dict(corpus)
    for nkr in [(4, 4, 3), (4, 3, 2), (5, 3, 3)]:
        g = build_arrangement_graph(*nkr)
        graphs["A%d%d%d" % nkr] = g
        graphs["A%d%d%d shuffled" % nkr] = shuffled(g, rng)
    return graphs


def test_generators_are_chain_non_members(corpus):
    for name, g in _searched_graphs(corpus).items():
        result = automorphism_group(g)
        for i, f in enumerate(result.generators):
            assert is_automorphism(g, f), name
            prefix = StabilizerChain(result.generators[:i], degree=g.vertex_count)
            assert not prefix.contains(f), (name, i)


def test_generators_rebuild_the_chain(corpus):
    # full Schreier-Sims over the generators gives the same group as the
    # chain built on the search's first path
    rng = random.Random(SEED + 6)
    for name, g in _searched_graphs(corpus).items():
        result = automorphism_group(g)
        rebuilt = StabilizerChain(result.generators, degree=g.vertex_count)
        assert rebuilt.order() == result.order == result.chain.order(), name
        assert all(map(rebuilt.contains, result.chain.strong_generators())), name
        assert all(map(result.chain.contains, rebuilt.strong_generators())), name
        if result.order > 20000:
            continue
        closure = brute_force_closure(result.generators, degree=g.vertex_count)
        assert len(closure) == result.order, name
        assert all(map(result.chain.contains, closure)), name
        for _ in range(20):
            p = shuffled_permutation(g.vertex_count, rng)
            assert result.chain.contains(p) == (p in closure), name


# -- edgeless graphs: the chain of the whole symmetric group ------------------


def test_aut_isolated_vertices():
    g = graph_from_edges([(i,) for i in range(60)], [])
    result = automorphism_group(g)
    assert result.order == math.factorial(60)
    assert len(result.chain.base) == 59
    assert result.chain.contains(shuffled_permutation(60, random.Random(SEED + 7)))


def test_aut_deeper_than_recursion_limit():
    # 80 isolated vertices, while the interpreter may nest only 40 more
    # frames than the test's own: each vertex is a part of its own, searched
    # in one node, and the 79 swaps of neighbouring parts generate S_80
    g = graph_from_edges([(i,) for i in range(80)], [])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        result = automorphism_group(g)
    finally:
        sys.setrecursionlimit(limit)
    assert result.order == math.factorial(80)
    assert result.stats == SearchStats(nodes=80, leaves=80, found=79)


def test_aut_edgeless_a441():
    g = build_arrangement_graph(4, 4, 1)
    assert g.edge_count() == 0
    assert automorphism_group(g).order == math.factorial(24)


# -- graphs split into components and co-components ---------------------------


def _joined(a, b, join):
    """The disjoint union of two graphs given as bit rows, a first, with
    every edge between them if join."""
    low, high = (1 << len(a)) - 1, ((1 << len(b)) - 1) << len(a)
    return ([row | high if join else row for row in a]
            + [row << len(a) | (low if join else 0) for row in b])


def _random_split_graph(rng, max_vertices=40):
    """Small random pieces, some of them copied, joined by disjoint unions
    and complete joins until the graph has at least half of max_vertices
    vertices, then shuffled: it is disconnected or co-disconnected."""
    rows = _random_graph(rng, max_vertices=8).adjacency
    while True:
        # a copy of the graph so far makes isomorphic sibling parts
        other = rows if rng.random() < 0.3 else _random_graph(rng, max_vertices=8).adjacency
        rows = _joined(rows, other, rng.random() < 0.5)
        if len(rows) >= max_vertices // 2:
            break
    g = Graph([(i,) for i in range(len(rows))], rows)
    return shuffled(g, rng)


def test_split_search_matches_orbit_pruning():
    rng = random.Random(SEED + 9)
    graphs = {i: _random_split_graph(rng) for i in range(30)}
    for n in range(2, 6):
        graphs["A%d11" % n] = build_arrangement_graph(n, 1, 1)
    for n in range(2, 5):  # A(5,5,1): test_split_search_edgeless_a551
        graphs["A%d%d1" % (n, n)] = build_arrangement_graph(n, n, 1)
    graphs["A443"] = build_arrangement_graph(4, 4, 3)
    graphs["A553"] = build_arrangement_graph(5, 5, 3)
    for n in (4, 5):
        graphs["Cay(S%d,F%d)" % (n, n - 3)] = build_cayley_graph(
            n, connection_set(n, "fixed", n - 3))
    # the six connected graphs on 4 vertices side by side, and the
    # complement: siblings of one size that only their canonical rows order
    connected4 = [[(0, 1), (1, 2), (2, 3)], [(0, 1), (0, 2), (0, 3)],
                  [(0, 1), (1, 2), (2, 3), (3, 0)], [(0, 1), (1, 2), (2, 0), (0, 3)],
                  [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
                  [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]]
    graphs["connected4"] = shuffled(graph_from_edges(
        [(i,) for i in range(24)],
        [(4 * i + u, 4 * i + v) for i, edges in enumerate(connected4) for u, v in edges]), rng)
    graphs["connected4 complement"] = _complement(graphs["connected4"])
    pairs = []
    for name, g in graphs.items():
        assert not _is_prime(g), name
        pairs.append(_assert_matches_orbit_pruning(g, name))
        # a shuffled twin has the same certificate
        assert automorphism_group(shuffled(g, rng)).certificate == pairs[-1][0], name
    _assert_certificates_agree(pairs)
    assert {g.is_connected() for g in graphs.values()} == {True, False}
    assert max(g.vertex_count for k, g in graphs.items() if type(k) is int) <= 40


def test_split_search_edgeless_a551():
    # 120 isolated vertices, which the oracle takes minutes over; the order
    # and the certificate, 120 empty rows, are known
    g = build_arrangement_graph(5, 5, 1)
    result = automorphism_group(g)
    assert result.order == math.factorial(120)
    assert result.stats == SearchStats(nodes=120, leaves=120, found=119)
    assert zlib.decompress(result.certificate) == bytes(120 * 15)
    assert automorphism_group(shuffled(g, random.Random(SEED))).certificate == result.certificate


def test_split_deeper_than_recursion_limit():
    # vertices added alternately isolated and dominating (each even vertex
    # from 2 on is adjacent to all before it): every part but a single
    # vertex splits again, 1100 levels deep, while the interpreter may nest
    # only 40 more frames than the test's own. Only vertices 0 and 1 are twins
    nv = 1100
    dominating = sum(1 << v for v in range(2, nv, 2))
    rows = [dominating & ~((2 << u) - 1) | ((1 << u) - 1 if u % 2 == 0 else 0)
            for u in range(nv)]
    g = Graph([(v,) for v in range(nv)], rows)
    twin = shuffled(g, random.Random(SEED))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        result = automorphism_group(g)
        twin_result = automorphism_group(twin)
    finally:
        sys.setrecursionlimit(limit)
    assert result.order == 2
    assert result.generators == [Permutation([1, 0] + list(range(2, nv)))]
    assert result.stats == SearchStats(nodes=nv, leaves=nv, found=1)
    assert twin_result.certificate == result.certificate


def _assert_chain_matches_pairs(g, name):
    """The search's chain, against the chain of its strong generators and
    base from the pass that tries every (orbit point, generator) pair."""
    result = automorphism_group(g)
    levels = [(level.point, level.gens, level.orbit, level.reached_by)
              for level in result.chain._levels]
    expected = schreier_levels_by_pairs(result.chain.base, result.generators, g.vertex_count)
    assert levels == expected, name


def test_search_chains_match_pairs(corpus):
    for name, g in corpus.items():
        _assert_chain_matches_pairs(g, name)


def test_edgeless_a551_chain_matches_pairs():
    # S_120 from the 119 swaps of neighbouring parts
    _assert_chain_matches_pairs(build_arrangement_graph(5, 5, 1), "A(5,5,1)")


def test_node_budget_shared_by_the_parts():
    # 24 isolated vertices are 24 parts of one node each
    g = graph_from_edges([(i,) for i in range(24)], [])
    with pytest.raises(BudgetError, match="node budget 23$"):
        automorphism_group(g, Config(node_budget=23))
    assert automorphism_group(g, Config(node_budget=24)).order == math.factorial(24)
