"""Delta families and exact maximum-independent-set search."""

import functools
import inspect
import itertools
import math
import random
import sys

import pytest

from arrgraph import graphio, indsets, suite
from arrgraph.autsearch import automorphism_group
from arrgraph.config import Config
from arrgraph.errors import ArrgraphError, BudgetError, ValidationError
from arrgraph.graphs import (build_arrangement_graph, build_cayley_graph, is_automorphism,
                             stabilizer_relabelings)
from arrgraph.indsets import (ENUMERATE_ALL, SIZE_ONLY, delta_family, is_maximal_independent,
                              max_independent_sets)
from arrgraph.perms import (Permutation, StabilizerChain, connection_set, orbits,
                            symmetric_group_generators)
from arrgraph.suite import verify_prop_2_1
from oracles import (differing_coordinates, edges, graph_from_edges,
                     independence_number_by_branching, independence_number_oracle,
                     is_independent, min_degree_independent_set)

SEED = 20240811


# -- delta sets ---------------------------------------------------------------


def test_delta_set_example():
    # Delta_{1,1} of (4,2): tuples with first entry 1 (1-based), avoiding 1 elsewhere
    g = build_arrangement_graph(4, 2, 2)
    labels = {g.labels[v] for v in dict(delta_family(4, 2))[(0, 0)]}
    assert labels == {(0, 1), (0, 2), (0, 3)}


def test_delta_set_size():
    assert len(dict(delta_family(5, 3))[(1, 1)]) == 12  # (n-1)!/(n-k)! = 4*3
    for n, k in [(4, 2), (4, 4), (5, 3)]:
        expect = math.factorial(n - 1) // math.factorial(n - k)
        family = dict(delta_family(n, k))
        for i in range(n):
            for j in range(k):
                assert len(family[(i, j)]) == expect


def test_delta_set_is_independent_in_a_nkk():
    g = build_arrangement_graph(4, 4, 4)
    d = dict(delta_family(4, 4))[(0, 0)]
    for u, v in itertools.combinations(d, 2):
        assert differing_coordinates(g.labels[u], g.labels[v]) < 4
    assert is_independent(g, d)


def test_delta_set_matches_definition():
    g = build_arrangement_graph(4, 3, 3)
    family = dict(delta_family(4, 3))
    for i in range(4):
        for j in range(3):
            expected = {v for v in range(g.vertex_count)
                        if g.labels[v][j] == i and g.labels[v].count(i) == 1}
            assert family[(i, j)] == expected


def test_delta_sets_pass_the_vertex_guard():
    # 8! = 40320 tuples, over a guard of 1000; under the default guard,
    # n = 10^4, k = 3 (10^12 tuples) fails before any tuple is formed
    with pytest.raises(ValidationError, match="over the vertex guard"):
        delta_family(8, 8, Config(vertex_guard=1000))
    assert delta_family(8, 8, Config())
    with pytest.raises(ValidationError, match="over the vertex guard"):
        delta_family(10**4, 3)
    with pytest.raises(ValidationError, match="0 <= k <= n"):
        delta_family(3, 4)


def test_delta_family_order():
    fam = delta_family(3, 2)
    assert [ij for ij, _ in fam] == [(i, j) for i in range(3) for j in range(2)]
    assert len(set(s for _, s in fam)) == 6


# -- search -------------------------------------------------------------------


def test_mis_a422():
    g = build_arrangement_graph(4, 2, 2)
    size, sets = max_independent_sets(g, ENUMERATE_ALL)
    assert size == 3 and len(sets) == 8
    assert sorted(sets) == sorted(sorted(s) for _, s in delta_family(4, 2))


def test_mis_edgeless():
    g = graph_from_edges([(i,) for i in range(5)], [])
    size, sets = max_independent_sets(g, ENUMERATE_ALL)
    assert size == 5 and sets == [list(range(5))]


def test_mis_a444():
    g = build_arrangement_graph(4, 4, 4)
    size, sets = max_independent_sets(g, ENUMERATE_ALL)
    assert size == 6 and len(sets) == 16


def test_mis_size_only():
    g = build_arrangement_graph(4, 2, 2)
    size, sets = max_independent_sets(g, SIZE_ONLY)
    assert size == 3 and sets is None


def test_mis_guard_and_mode_validation():
    # size_only ends A(4,2,2) at its root, whose coloring bound the seed
    # reaches; the seeded search of A(5,5,3) opens 640 nodes
    with pytest.raises(BudgetError):
        max_independent_sets(build_arrangement_graph(5, 5, 3), SIZE_ONLY, Config(node_budget=2))
    g = build_arrangement_graph(4, 2, 2)
    with pytest.raises(BudgetError):
        max_independent_sets(g, ENUMERATE_ALL, Config(node_budget=2))
    with pytest.raises(ValidationError):
        max_independent_sets(g, "approximate")


def test_mis_result_check_raises(monkeypatch):
    # the check that every returned set is maximal independent survives -O
    monkeypatch.setattr(indsets, "is_maximal_independent", lambda graph, s: False)
    g = build_arrangement_graph(4, 2, 2)
    for mode in (SIZE_ONLY, ENUMERATE_ALL):
        with pytest.raises(ArrgraphError):
            max_independent_sets(g, mode)


def test_emitted_sets_independent_and_maximal():
    for n, k in [(4, 2), (4, 3), (3, 3)]:
        g = build_arrangement_graph(n, k, k)
        _, sets = max_independent_sets(g, ENUMERATE_ALL)
        for s in sets:
            assert is_independent(g, s)
            assert is_maximal_independent(g, s)
            for w in range(g.vertex_count):
                if w not in s:
                    assert not is_independent(g, s + [w])


def test_is_maximal_independent_matches_definition():
    rng = random.Random(SEED + 11)
    for _ in range(300):
        nv = rng.randint(1, 9)
        g = graph_from_edges([(i,) for i in range(nv)],
                             [(u, v) for u in range(nv) for v in range(u + 1, nv)
                              if rng.random() < 0.4])
        s = [v for v in range(nv) if rng.random() < 0.4]
        expected = is_independent(g, s) and not any(
            is_independent(g, s + [w]) for w in range(nv) if w not in s)
        assert is_maximal_independent(g, s) == expected


def test_oracle_equivalence_small_corpus(corpus):
    for name, g in corpus.items():
        if g.vertex_count <= 16:
            size, _ = max_independent_sets(g, SIZE_ONLY)
            assert size == independence_number_oracle(g), name


def all_maximum_independent_sets(g):
    """Every maximum independent set, by scanning all vertex subsets."""
    indep = [list(s) for size in range(g.vertex_count + 1)
             for s in itertools.combinations(range(g.vertex_count), size)
             if is_independent(g, s)]
    alpha = max(len(s) for s in indep)
    return sorted(s for s in indep if len(s) == alpha)


def test_oracle_equivalence_random_graphs():
    rng = random.Random(SEED)
    for _ in range(20):
        nv = rng.randint(1, 12)
        edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
                 if rng.random() < 0.4]
        g = graph_from_edges([(i,) for i in range(nv)], edges)
        size, sets = (max_independent_sets(g, ENUMERATE_ALL) if nv <= 10
                      else max_independent_sets(g, SIZE_ONLY))
        assert size == independence_number_oracle(g)
        if sets is not None:
            assert sets == all_maximum_independent_sets(g)


def tuple_colored_cliques(adj, nv, enumerate_all, seed=()):
    """Oracle: the clique search with the coloring as a list of (vertex,
    color) pairs and one recursive call per node, starting from the seed
    clique as the best one (size_only only). Returns the cliques and the
    node count."""
    best = len(seed)
    found = [sorted(seed)] if seed else []
    nodes = 0

    def color_order(p_mask):
        order = []
        color = 0
        rest = p_mask
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append((v, color))
                rest &= ~(1 << v)
                avail &= ~(adj[v] | (1 << v))
        return order

    def expand(current, p_mask):
        nonlocal best, found, nodes
        nodes += 1
        for v, color in reversed(color_order(p_mask)):
            bound = len(current) + color
            if bound < best or (bound == best and not enumerate_all):
                return
            current.append(v)
            nxt = p_mask & adj[v]
            if nxt:
                expand(current, nxt)
            elif len(current) > best:
                best = len(current)
                found = [sorted(current)]
            elif len(current) == best and enumerate_all:
                found.append(sorted(current))
            current.pop()
            p_mask &= ~(1 << v)

    expand([], (1 << nv) - 1)
    return found, nodes


def cliques_within_exact_budget(adj, nv, enumerate_all, nodes, seed=()):
    """The cliques found with a node budget of `nodes`, after checking that
    one node less raises: the search takes exactly `nodes` nodes."""
    result = indsets._max_cliques(adj, nv, enumerate_all, nodes, None, seed)
    with pytest.raises(BudgetError):
        indsets._max_cliques(adj, nv, enumerate_all, nodes - 1, None, seed)
    return result


def clique_rich_graph(rng, nv):
    """A graph whose clique search meets many nodes below the root with a
    clique of candidates, and many ties among their leaves: a disjoint union
    of cliques, with each vertex in a random one of up to 6, or a random
    graph with density 0.95."""
    if rng.random() < 0.5:
        block = [rng.randrange(rng.randint(1, 6)) for _ in range(nv)]
        edges = [(u, v) for u, v in itertools.combinations(range(nv), 2) if block[u] == block[v]]
    else:
        edges = [(u, v) for u, v in itertools.combinations(range(nv), 2) if rng.random() < 0.95]
    return graph_from_edges([(i,) for i in range(nv)], edges).adjacency


def test_clique_search_matches_tuple_coloring():
    # complements of random graphs, then graphs rich in nodes whose
    # candidates are a clique, which the search closes in one step and
    # must count as the nodes the oracle opens one by one
    rng = random.Random(SEED + 2)
    inputs = []
    for _ in range(60):
        nv = rng.randint(1, 40)
        density = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])
        edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
                 if rng.random() < density]
        g = graph_from_edges([(i,) for i in range(nv)], edges)
        inputs.append(indsets._complement(g.adjacency))
    rng = random.Random(SEED + 4)
    inputs += [clique_rich_graph(rng, rng.randint(1, 40)) for _ in range(60)]
    for trial, adj in enumerate(inputs):
        for enumerate_all in (False, True):
            expected, nodes = tuple_colored_cliques(adj, len(adj), enumerate_all)
            assert cliques_within_exact_budget(adj, len(adj), enumerate_all, nodes) == expected, trial
        # size_only from the greedy clique, and from half of it, which is no
        # maximal clique: the search returns the seed unless it beats it
        greedy = min_degree_independent_set(indsets._complement(adj))
        for seed in (greedy, greedy[:len(greedy) // 2]):
            expected, nodes = tuple_colored_cliques(adj, len(adj), False, seed)
            assert cliques_within_exact_budget(adj, len(adj), False, nodes, seed) == expected, trial


def test_greedy_matches_integer_degrees():
    # the bit-plane degrees pick the vertices that integer degrees pick, and
    # the set is a maximal independent set
    rng = random.Random(SEED + 5)
    for _ in range(200):
        nv = rng.randint(1, 40)
        density = rng.choice([0.05, 0.2, 0.5, 0.8, 0.95])
        g = graph_from_edges([(i,) for i in range(nv)], [(u, v) for u, v in itertools.combinations(
            range(nv), 2) if rng.random() < density])
        chosen = indsets._min_degree_independent_set(g.adjacency)
        assert chosen == min_degree_independent_set(g.adjacency)
        assert is_maximal_independent(g, chosen)


# (n, k, r): search nodes without symmetries, then with the root and
# depth-1 rules, then with both rules from the min-degree greedy seed, as
# max_independent_sets searches, and the one maximum independent set that
# the unseeded size_only returns either way; the first count and the set
# were recorded from the search with (vertex, color) tuples. With the root
# rule alone the last two counts were 2210/2173, 1787/1745, 378/378 and
# 121/101
PINNED_SIZE_ONLY = {
    (5, 5, 3): (22623, 677, 640, [0, 1, 6, 7, 26, 27, 36, 37, 52, 53, 66, 67, 82, 83, 92,
                                  93, 112, 113, 118, 119]),
    (6, 3, 2): (27805, 469, 427, [19, 39, 59, 79, 83, 87, 91, 95, 116, 117, 118, 119]),
    (5, 4, 3): (6332, 212, 212, [18, 19, 68, 69, 92, 93, 98, 100, 108, 113, 114, 119]),
    (5, 5, 4): (1569, 44, 24, [9, 21, 22, 24, 36, 43, 58, 72, 75, 87, 113, 114, 117]),
}


@pytest.mark.parametrize("nkr", [(6, 6, 2), (6, 5, 1)], ids=["A(6,6,2)", "A(6,5,1)"])
def test_size_only_clique_descent_pinned(nkr):
    # the first descent reaches a node whose candidates are a clique, with
    # alpha = 360 in reach; the search closes it in one step and counts the
    # nodes the oracle opens one by one
    g = build_arrangement_graph(*nkr)
    adj = indsets._complement(g.adjacency)
    expected, nodes = tuple_colored_cliques(adj, g.vertex_count, False)
    assert nodes == 360 and len(expected[0]) == 360
    assert cliques_within_exact_budget(adj, g.vertex_count, False, nodes) == expected


def lifted_symmetries(g):
    """The value relabelings of g's labels that are automorphisms of g."""
    return indsets._symmetries(g, ())


def label_symmetries(g):
    """The symmetries callable that max_independent_sets passes for g."""
    return functools.partial(indsets._symmetries, g)


@pytest.mark.parametrize("nkr", list(PINNED_SIZE_ONLY), ids=lambda nkr: "A(%d,%d,%d)" % nkr)
def test_size_only_search_pinned(nkr):
    nodes, pruned, seeded, clique = PINNED_SIZE_ONLY[nkr]
    g = build_arrangement_graph(*nkr)
    adj = indsets._complement(g.adjacency)
    assert cliques_within_exact_budget(adj, g.vertex_count, False, nodes) == [clique]
    assert indsets._max_cliques(adj, g.vertex_count, False, pruned,
                                label_symmetries(g)) == [clique]
    with pytest.raises(BudgetError):
        indsets._max_cliques(adj, g.vertex_count, False, pruned - 1, label_symmetries(g))
    assert max_independent_sets(g, SIZE_ONLY, Config(node_budget=seeded)) == (len(clique), None)
    with pytest.raises(BudgetError):
        max_independent_sets(g, SIZE_ONLY, Config(node_budget=seeded - 1))


@pytest.mark.parametrize("params,alpha", [((6, 5, 1), 360), ((6, 6, 2), 360), ((6, 3, 1), 30),
                                          ("transpositions", 360)],
                         ids=["A(6,5,1)", "A(6,6,2)", "A(6,3,1)", "Cay(S6,T)"])
def test_seed_ends_the_search_at_the_root(params, alpha):
    # the greedy set reaches the root's coloring bound: one node, where the
    # unseeded search takes a 360-node descent (2611 nodes on A(6,3,1))
    g = (build_cayley_graph(6, connection_set(6, params)) if isinstance(params, str)
         else build_arrangement_graph(*params))
    assert max_independent_sets(g, SIZE_ONLY, Config(node_budget=1)) == (alpha, None)


# size_only independence numbers of every A(n,k,r) and Cay(S_n, S) with
# n <= 6, as the unseeded search gave them. A(6,4,r) for r = 1, 2, A(6,5,r)
# for r = 2, 3, 4, A(6,6,r) for r = 3, 4 and their twins Cay(S6,F_f) for
# f = 2, 3 finish in neither search within minutes, and are left out
UNSEEDED_ALPHA = {
    **dict(zip([(n, k, r) for n in range(1, 6) for k in range(1, n + 1) for r in range(1, k + 1)],
               [1, 1, 2, 1, 1, 3, 2, 6, 3, 2, 1, 4, 3, 12, 6, 6, 24, 12, 8, 6,
                1, 5, 4, 20, 9, 12, 60, 24, 12, 24, 120, 60, 20, 13, 24])),
    (6, 1, 1): 1, (6, 2, 1): 6, (6, 2, 2): 5, (6, 3, 1): 30, (6, 3, 2): 12, (6, 3, 3): 20,
    (6, 4, 3): 24, (6, 4, 4): 60, (6, 5, 1): 360, (6, 5, 5): 120, (6, 6, 1): 720,
    (6, 6, 2): 360, (6, 6, 5): 48, (6, 6, 6): 120,
    **{(n, "transpositions", None): math.factorial(n) // 2 for n in range(2, 7)},
    # D is F_0, and alpha is (n-1)! for both
    **{(n, kind, fixed): math.factorial(n - 1) for n in range(2, 7)
       for kind, fixed in [("derangements", None), ("fixed", 0)]},
    (3, "fixed", 1): 3, (4, "fixed", 1): 8, (4, "fixed", 2): 12, (5, "fixed", 1): 13,
    (5, "fixed", 2): 20, (5, "fixed", 3): 60, (6, "fixed", 1): 48, (6, "fixed", 4): 360,
}


def test_seed_keeps_every_alpha_up_to_n6():
    found = {}
    for key in UNSEEDED_ALPHA:
        g = (build_cayley_graph(key[0], connection_set(*key)) if isinstance(key[1], str)
             else build_arrangement_graph(*key))
        found[key] = max_independent_sets(g, SIZE_ONLY)[0]
    assert found == UNSEEDED_ALPHA


# -- the root rule of size_only -------------------------------------------------


def assert_root_rule_keeps_answer(g, unpruned=None):
    """size_only with the root rule returns the clique of the unpruned
    search (or the one it was recorded to return), and its size."""
    adj = indsets._complement(g.adjacency)
    if unpruned is None:
        unpruned = indsets._max_cliques(adj, g.vertex_count, False, 10**7)
    assert indsets._max_cliques(adj, g.vertex_count, False, 10**7,
                                label_symmetries(g)) == unpruned
    assert max_independent_sets(g, SIZE_ONLY) == (len(unpruned[0]), None)


# recorded from the unpruned search, which takes about 12 s (2-core Xeon)
A542_UNPRUNED = [[9, 17, 21, 33, 41, 45, 53, 59, 61, 63, 70, 71, 75, 81, 88, 89, 91, 93,
                  101, 107, 109, 111, 118, 119]]


def test_root_rule_every_arrangement_graph_up_to_n5():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                assert_root_rule_keeps_answer(build_arrangement_graph(n, k, r),
                                              A542_UNPRUNED if (n, k, r) == (5, 4, 2) else None)


@pytest.mark.parametrize("kind,fixed", [("transpositions", None), ("derangements", None)]
                         + [("fixed", f) for f in range(4)],
                         ids=["T", "D", "F0", "F1", "F2", "F3"])
def test_root_rule_cayley_s5(kind, fixed):
    g = build_cayley_graph(5, connection_set(5, kind, fixed))
    # right multiplications act transitively on S_5
    assert set(orbits(lifted_symmetries(g), g.vertex_count)) == {0}
    assert_root_rule_keeps_answer(g)


def orbital_graph(n, k, rng, density):
    """A random graph on the k-tuples of distinct values in 0..n-1 that S_n
    maps onto itself: whether t and u are adjacent depends only on where
    each entry of u sits in t. Vertices are shuffled, labels following."""
    labels = list(itertools.permutations(range(n), k))
    rng.shuffle(labels)
    kept = {}
    edges = []
    for a, b in itertools.combinations(range(len(labels)), 2):
        t, u = labels[a], labels[b]
        pattern = min(tuple(t.index(x) if x in t else -1 for x in u),
                      tuple(u.index(x) if x in u else -1 for x in t))
        if kept.setdefault(pattern, rng.random() < density):
            edges.append((a, b))
    return graph_from_edges(labels, edges)


def test_root_rule_random_labelled_graphs():
    rng = random.Random(SEED + 7)
    for trial in range(30):
        n = rng.randint(2, 5)
        k = rng.randint(1, min(n, 3))
        g = orbital_graph(n, k, rng, rng.choice([0.2, 0.5, 0.8]))
        if trial % 3 == 0:
            # a random graph on the same labels: the relabelings are dropped
            # unless they happen to preserve it
            g = graph_from_edges(g.labels, [(u, v) for u, v in itertools.combinations(
                range(g.vertex_count), 2) if rng.random() < 0.4])
        else:
            assert len(lifted_symmetries(g)) == len(symmetric_group_generators(n))
        assert_root_rule_keeps_answer(g)


@pytest.mark.parametrize("nkr", [(5, 5, 3), (6, 3, 2)], ids=["A(5,5,3)", "A(6,3,2)"])
def test_root_rule_drops_relabelings_that_are_not_automorphisms(nkr):
    # the tuple labels are closed under S_n, but with one edge removed no
    # value relabeling is an automorphism, so none may prune
    full = build_arrangement_graph(*nkr)
    g = graph_from_edges(full.labels, edges(full)[1:])  # without the edge at vertex 0
    assert g.edge_count() == full.edge_count() - 1
    assert lifted_symmetries(g) == []
    assert_root_rule_keeps_answer(g)


def test_root_rule_needs_labels_over_0_to_n_minus_1():
    g = build_arrangement_graph(4, 2, 2)
    shifted = graph_from_edges([tuple(x - 1 for x in t) for t in g.labels], edges(g))
    huge = graph_from_edges([tuple(x + 10**12 for x in t) for t in g.labels], edges(g))
    assert lifted_symmetries(shifted) == lifted_symmetries(huge) == []
    assert max_independent_sets(shifted)[0] == max_independent_sets(huge)[0] == 3
    # the search of A(5,5,3) reaches the root's first child's second branch,
    # which asks for the maps that fix its vertex: there are none either
    g = build_arrangement_graph(5, 5, 3)
    shifted = graph_from_edges([tuple(x - 1 for x in t) for t in g.labels], edges(g))
    assert indsets._symmetries(shifted, (0,)) == []
    assert max_independent_sets(shifted) == (20, None)


def test_root_rule_leaves_edge_lists_unpruned():
    # an edge list labels vertex i as (i,); on A(5,5,5) the lifted maps are
    # the index maps (0 1) and (0 1 ... 119), neither an automorphism
    g = graphio.load(graphio.to_edgelist(build_arrangement_graph(5, 5, 5)))
    assert g.labels[7] == (7,)
    assert lifted_symmetries(g) == []
    assert_root_rule_keeps_answer(g)


def test_row_zero_rejects_before_the_whole_check(monkeypatch):
    # on an edge list the lifted index maps fail on row 0 already, so the
    # whole check never runs; a map that passes row 0 is still checked whole
    checked = []

    def counted(graph, f):
        checked.append(f)
        return is_automorphism(graph, f)

    monkeypatch.setattr(indsets, "is_automorphism", counted)
    a555 = build_arrangement_graph(5, 5, 5)
    listed = graphio.load(graphio.to_edgelist(a555))
    assert lifted_symmetries(listed) == [] and checked == []
    assert len(lifted_symmetries(a555)) == 2 and len(checked) == 2
    # A(4,2,2) less the edge (5, 6), which touches neither 0 nor the images
    # 3 and 4 of 0: both maps keep row 0, and only the whole check finds
    # that neither maps {5, 6} onto itself
    full = build_arrangement_graph(4, 2, 2)
    g = graph_from_edges(full.labels, [e for e in edges(full) if e != (5, 6)])
    assert g.edge_count() == full.edge_count() - 1
    checked.clear()
    assert lifted_symmetries(g) == [] and len(checked) == 2


def test_root_rule_computes_orbits_only_for_a_second_root_branch():
    def refuse(prefix):
        raise AssertionError(f"symmetries asked for at {prefix}")

    # A(6,6,2): the root's first branch reaches alpha = 360, and the
    # coloring bound then closes the root
    g = build_arrangement_graph(6, 6, 2)
    [clique] = indsets._max_cliques(indsets._complement(g.adjacency), g.vertex_count, False, 10**6,
                                    refuse)
    assert len(clique) == 360
    # enumerate_all never skips, so it never asks
    g = build_arrangement_graph(4, 4, 4)
    cliques = indsets._max_cliques(indsets._complement(g.adjacency), g.vertex_count, True, 10**6, refuse)
    assert len(cliques) == 16


# -- the depth-1 rule of size_only ----------------------------------------------


def stabilizer_order(n, k):
    """The order of the stabilizer of a vertex of A(n,k,r) in the group of
    value and position relabelings (and tuple inversion when k = n); for
    k = n <= 2 that group acts trivially."""
    if k == n <= 2:
        return 1
    return math.factorial(k) * math.factorial(n - k) * (2 if k == n else 1)


def assert_depth_one_maps(g, n, k):
    """For a few vertices v1 of g: every label relabeling that fixes v1's
    label is kept as an automorphism that fixes v1, and the kept maps
    generate the stabilizer of v1, of order k!(n-k)! (times 2 when k = n)."""
    for v in sorted({0, g.vertex_count // 2, g.vertex_count - 1}):
        maps = indsets._symmetries(g, (v,))
        assert len(maps) == len(stabilizer_relabelings(g, n, v))
        for images in maps:
            assert images[v] == v and is_automorphism(g, Permutation(images))
        group = StabilizerChain([Permutation(images) for images in maps], g.vertex_count)
        assert group.order() == stabilizer_order(n, k)


def test_depth_one_maps_every_arrangement_graph_up_to_n5():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                assert_depth_one_maps(build_arrangement_graph(n, k, r), n, k)


@pytest.mark.parametrize("kind,fixed", [("transpositions", None), ("derangements", None)]
                         + [("fixed", f) for f in range(4)],
                         ids=["T", "D", "F0", "F1", "F2", "F3"])
def test_depth_one_maps_cayley_s5(kind, fixed):
    assert_depth_one_maps(build_cayley_graph(5, connection_set(5, kind, fixed)), 5, 5)


@pytest.mark.parametrize("nkr", [(5, 5, 3), (6, 3, 2)], ids=["A(5,5,3)", "A(6,3,2)"])
def test_depth_one_rule_leaves_edge_lists_unpruned(nkr):
    # the edge list's labels (i,) give S_{V-1} on the other indexes, whose
    # maps fail on row 0; the search, unpruned, finds the same alpha
    g = build_arrangement_graph(*nkr)
    listed = graphio.load(graphio.to_edgelist(g))
    assert [indsets._symmetries(listed, (v,)) for v in range(listed.vertex_count)] == [
        []] * listed.vertex_count
    assert max_independent_sets(listed) == max_independent_sets(g) == (
        UNSEEDED_ALPHA[nkr], None)


def test_depth_one_rule_asks_for_the_first_child_only(monkeypatch):
    # A(5,5,3): the root's first child opens a second branch, and asks for
    # the maps that fix its vertex once; no other node but the root asks
    asked = []
    search = indsets._max_cliques

    def recorded(adj, nv, enumerate_all, node_budget, symmetries, seed):
        def ask(prefix):
            asked.append(prefix)
            return symmetries(prefix)
        return search(adj, nv, enumerate_all, node_budget, ask, seed)

    monkeypatch.setattr(indsets, "_max_cliques", recorded)
    assert max_independent_sets(build_arrangement_graph(5, 5, 3)) == (20, None)
    assert len(asked) == 2 and asked[1] == () and len(asked[0]) == 1


def test_stabilizer_relabelings_fix_the_label():
    g = build_arrangement_graph(5, 3, 3)
    v = g.labels.index((4, 0, 2))
    maps = stabilizer_relabelings(g, 5, v)
    # (0 1) and the 3-cycle of the diagonal S_3, one swap of S_2 on {1, 3}
    assert len(maps) == 3 and all(f(v) == v for f in maps)
    swap = g.labels.index((3, 2, 0))
    assert g.labels[maps[0](swap)] == (2, 3, 4)  # positions 0, 1 and values 4, 0 swapped
    assert g.labels[maps[2](swap)] == (1, 2, 0)  # values 1 and 3 swapped
    # labels with a repeated value, or entries outside 0..n-1
    assert stabilizer_relabelings(graph_from_edges([(0, 0), (0, 1)], []), 2, 0) == []
    with pytest.raises(ValidationError):
        stabilizer_relabelings(g, 4, v)


@pytest.mark.parametrize("n,k,nodes", [(4, 4, 69), (5, 3, 169)])
def test_enumerate_all_search_pinned(n, k, nodes):
    g = build_arrangement_graph(n, k, k)
    adj = indsets._complement(g.adjacency)
    cliques = cliques_within_exact_budget(adj, g.vertex_count, True, nodes)
    assert sorted(cliques) == sorted(sorted(s) for _, s in delta_family(n, k))


def test_deep_clique_needs_no_recursion():
    # 1100 isolated vertices: one clique of the complement, 1100 levels deep;
    # size_only's seed holds all of them, which the closed root only ties,
    # so the root ends the search as one node
    g = graph_from_edges([(i,) for i in range(1100)], [])
    assert max_independent_sets(g, SIZE_ONLY, Config(node_budget=1)) == (1100, None)
    assert max_independent_sets(g, ENUMERATE_ALL) == (1100, [list(range(1100))])


def test_clique_search_deeper_than_recursion_limit():
    # the complement of 60 disjoint edges {2i, 2i+1}: below the root each
    # node's color classes are the pairs left, so the unseeded search
    # descends 60 levels to its one clique, the odd vertices, while the
    # interpreter may nest only 40 more frames than the test's own
    adj = [((1 << 120) - 1) & ~(3 << (v & ~1)) for v in range(120)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        cliques = cliques_within_exact_budget(adj, 120, False, 60)
    finally:
        sys.setrecursionlimit(limit)
    assert cliques == [list(range(1, 120, 2))]


# -- the clique-cover order ----------------------------------------------------


class _Stop(Exception):
    pass


def uses_cover_order(g, monkeypatch):
    """Whether max_independent_sets searches g in the order of the lifted
    n-cycle's orbits. The gate's answer is read, and the call is stopped
    before it searches."""
    gate = indsets._clique_cover_order
    answers = []

    def spy(graph, lift):
        answers.append(gate(graph, lift))
        raise _Stop

    with monkeypatch.context() as m:
        m.setattr(indsets, "_clique_cover_order", spy)
        with pytest.raises(_Stop):
            max_independent_sets(g)
    return answers[0] is not None


def test_cover_order_gate_on_every_arrangement_graph_up_to_n6(monkeypatch):
    # the c-orbits are cliques exactly when r = k: two tuples of one orbit
    # differ in all k positions. A(1,1,1) has one value and no n-cycle
    for n in range(1, 7):
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                g = build_arrangement_graph(n, k, r)
                assert uses_cover_order(g, monkeypatch) == (r == k and n > 1), (n, k, r)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cover_order_gate_on_cayley_graphs_up_to_n6(n, monkeypatch):
    # c^j g and g differ by the derangement g^-1 c^j g, so only D = F_0 has
    # the orbits as cliques; T is F_{n-2}
    for kind, fixed in ([("transpositions", None), ("derangements", None)]
                        + [("fixed", f) for f in range(n - 1)]):
        g = build_cayley_graph(n, connection_set(n, kind, fixed))
        expected = kind == "derangements" or fixed == 0
        assert uses_cover_order(g, monkeypatch) == expected, (n, kind, fixed)


def test_cover_order_gate_declines_edge_lists(monkeypatch):
    # labels (i,) lift the V-cycle of the indexes: one orbit, not a clique
    g = graphio.load(graphio.to_edgelist(build_arrangement_graph(4, 4, 4)))
    assert not uses_cover_order(g, monkeypatch)


def small_graphs():
    """Every A(n,k,r) with n <= 5, and Cay(S_5, S) for each kind of S
    (F_0 is D and F_3 is T)."""
    graphs = {f"A({n},{k},{r})": (n, k, r)
              for n in range(1, 6) for k in range(1, n + 1) for r in range(1, k + 1)}
    for kind, fixed in [("transpositions", None), ("derangements", None),
                        ("fixed", 1), ("fixed", 2)]:
        graphs[f"Cay(S5,{kind}{'' if fixed is None else fixed})"] = (kind, fixed)
    return graphs


SMALL_GRAPHS = small_graphs()


def build_small(name):
    params = SMALL_GRAPHS[name]
    if name.startswith("A"):
        return build_arrangement_graph(*params)
    return build_cayley_graph(5, connection_set(5, *params))


@pytest.mark.parametrize("name", [name for name, params in SMALL_GRAPHS.items()
                                  if name.startswith("A") and math.perm(*params[:2]) <= 20])
def test_cover_order_sizes_match_the_oracle(name):
    # the subset-scan oracle reaches 20 vertices; above that the sizes are
    # checked against the plain-order search below
    g = build_small(name)
    alpha = independence_number_oracle(g)
    assert max_independent_sets(g, SIZE_ONLY) == (alpha, None)
    assert max_independent_sets(g, ENUMERATE_ALL)[0] == alpha


def test_the_two_oracles_agree_on_random_graphs():
    rng = random.Random(SEED + 3)
    for _ in range(30):
        nv = rng.randint(1, 18)
        density = rng.random()
        g = graph_from_edges([(i,) for i in range(nv)],
                             [(u, v) for u in range(nv) for v in range(u + 1, nv)
                              if rng.random() < density])
        assert independence_number_by_branching(g) == independence_number_oracle(g)


BRANCHING_GRAPHS = {
    **{f"A({n},{k},{r})": (n, k, r)
       for n, k_max in [(4, 4), (5, 3)] for k in range(1, k_max + 1) for r in range(1, k + 1)},
    # F_0 is D and F_2 is T
    **{f"Cay(S4,{kind}{'' if fixed is None else fixed})": (kind, fixed)
       for kind, fixed in [("transpositions", None), ("derangements", None), ("fixed", 1)]},
}


@pytest.mark.parametrize("name", BRANCHING_GRAPHS)
def test_sizes_match_the_branching_oracle(name):
    # take-or-drop branching reaches 60 vertices in about 1 s (A(5,3,1));
    # the 120-vertex A(5,4,r), A(5,5,r) and Cay(S5, .) are beyond it
    params = BRANCHING_GRAPHS[name]
    g = (build_arrangement_graph(*params) if name.startswith("A")
         else build_cayley_graph(4, connection_set(4, *params)))
    alpha = independence_number_by_branching(g)
    assert max_independent_sets(g, SIZE_ONLY) == (alpha, None)
    assert max_independent_sets(g, ENUMERATE_ALL)[0] == alpha


# A(5,4,2) holds 9140 maximum independent sets; each enumeration takes about
# 20 s. The gate declines it, so its search is the plain one, and its
# size_only is checked against A542_UNPRUNED above
@pytest.mark.parametrize("name", [name for name in SMALL_GRAPHS if name != "A(5,4,2)"])
def test_cover_order_enumerations_match_the_plain_order(name):
    g = build_small(name)
    plain = sorted(indsets._max_cliques(indsets._complement(g.adjacency), g.vertex_count,
                                        True, 10**7))
    size, sets = max_independent_sets(g, ENUMERATE_ALL)
    assert sets == plain and size == len(plain[0])
    assert max_independent_sets(g, SIZE_ONLY) == (size, None)
    params = SMALL_GRAPHS[name]
    # for n = 2 the delta sets (i, j) and (1 - i, 1 - j) coincide
    if name.startswith("A") and params[1] == params[2] and params[0] > 2:
        assert sets == sorted(sorted(s) for _, s in delta_family(*params[:2]))


def test_cover_order_enumerates_the_delta_family_of_a755():
    # 2520 vertices, 35 sets of 360
    size, sets = max_independent_sets(build_arrangement_graph(7, 5, 5), ENUMERATE_ALL)
    assert size == 360
    assert sets == sorted(sorted(s) for _, s in delta_family(7, 5))


def _mask_image(images, row):
    """The row with its vertices moved by the image tuple."""
    out = 0
    for v, x in enumerate(images):
        if row >> v & 1:
            out |= 1 << x
    return out


def pruning_in_cover_order(n, k, r, monkeypatch):
    """A(n,k,k) with the edges of A(n,k,r) added, searched by size_only in
    the order of the c-orbits, which stay cliques; every map the search is
    given, moved to the searched order, is an automorphism of the searched
    complement that fixes its prefix. Returns the prefixes asked for."""
    nkk, extra = build_arrangement_graph(n, k, k), build_arrangement_graph(n, k, r)
    g = graph_from_edges(nkk.labels, itertools.chain(edges(nkk), edges(extra)))
    assert uses_cover_order(g, monkeypatch)
    asked = []
    search = indsets._max_cliques

    def checked_search(adj, nv, enumerate_all, node_budget, symmetries, seed):
        def moved(prefix):
            images = symmetries(prefix)
            asked.append((prefix, len(images)))
            for f in images:
                assert all(_mask_image(f, adj[v]) == adj[f[v]] for v in range(nv))
                assert all(f[v] == v for v in prefix)
            return images
        return search(adj, nv, enumerate_all, node_budget, moved, seed)

    monkeypatch.setattr(indsets, "_max_cliques", checked_search)
    size, _ = max_independent_sets(g, SIZE_ONLY)
    monkeypatch.undo()
    unpruned = indsets._max_cliques(indsets._complement(g.adjacency), g.vertex_count,
                                    False, 10**7)
    assert size == len(unpruned[0])
    return asked


@pytest.mark.parametrize("n,k", [(4, 3), (4, 4), (5, 3)])
def test_cover_order_with_root_pruning(n, k, monkeypatch):
    # with the edges of A(n,k,k-1) the orbit cover no longer meets alpha, so
    # the root opens a second branch and prunes by the value relabelings
    asked = pruning_in_cover_order(n, k, k - 1, monkeypatch)
    assert asked == [((), len(symmetric_group_generators(n)))]


@pytest.mark.parametrize("n,k,r,kept", [(5, 3, 1, 3), (5, 4, 2, 2), (5, 5, 3, 3)])
def test_cover_order_with_depth_one_pruning(n, k, r, kept, monkeypatch):
    # here the root's first child opens a second branch too, before the root
    # does, and prunes by the relabelings that fix its vertex's label: the
    # diagonal S_k's two, one for S_{n-k} = S_2, or one for t -> t1 t^-1 t1
    [(prefix, count), root] = pruning_in_cover_order(n, k, r, monkeypatch)
    assert len(prefix) == 1 and count == kept
    assert root == ((), len(symmetric_group_generators(n)))


# -- the characterization, as the prop2.1 claim checks it ---------------------

FAMILY_MATCHES = {"sets_match_family": True}


def prop_2_1_fields(n, k):
    r = verify_prop_2_1(n, k)
    return r.passed, r.expected, r.computed, r.details


def test_characterization_4_2():
    assert prop_2_1_fields(4, 2) == (
        True, {"size": 3, "count": 8}, {"size": 3, "count": 8}, FAMILY_MATCHES)


def test_characterization_3_3():
    assert prop_2_1_fields(3, 3) == (
        True, {"size": 2, "count": 9}, {"size": 2, "count": 9}, FAMILY_MATCHES)


def test_characterization_rejects_small_n():
    for n, k in [(2, 1), (4, 0), (4, 5)]:
        with pytest.raises(ValidationError):
            verify_prop_2_1(n, k)


def test_characterization_size_only_path():
    # the 120-vertex instances are checked setwise like the smaller ones
    for k in (4, 5):
        expected = {"size": 24, "count": 5 * k}
        assert prop_2_1_fields(5, k) == (True, expected, expected, FAMILY_MATCHES)


def test_characterization_detects_a_wrong_family(monkeypatch):
    # a family member that is no maximum independent set fails the claim
    # even though the size and the count of the sets found are right
    family = delta_family(4, 2)
    monkeypatch.setattr(suite, "delta_family",
                        lambda n, k, config: family[:-1] + [(family[-1][0], frozenset({0}))])
    expected = {"size": 3, "count": 8}
    assert prop_2_1_fields(4, 2) == (
        False, expected, expected, {"sets_match_family": False})


def test_aut_permutes_delta_family():
    # the image of every delta set under every automorphism generator of
    # A(n,k,k) is again a delta set
    for n, k in [(4, 2), (4, 3), (3, 3)]:
        g = build_arrangement_graph(n, k, k)
        family = {s for _, s in delta_family(n, k)}
        for f in automorphism_group(g).generators:
            for s in family:
                assert frozenset(f(v) for v in s) in family
