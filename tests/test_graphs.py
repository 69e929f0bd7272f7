"""Arrangement/Cayley graph construction and the vertex maps."""

import itertools
import math
import random
from functools import reduce
from operator import or_

import pytest

from arrgraph.config import Config
from arrgraph.errors import ValidationError
from arrgraph.graphs import (Graph, _bits, _count_planes, _depth_first, _mask, _relabel_rows,
                             _split, _transpose, _value_swap_tables,
                             build_arrangement_graph, build_cayley_graph,
                             candidate_aut_generators, is_automorphism,
                             stabilizer_relabelings, value_relabelings)
from arrgraph.perms import (ConnectionSet, Permutation, StabilizerChain, connection_set,
                            cycle, symmetric_group_generators, transposition)
from oracles import (apply_position_permutation, apply_value_permutation,
                     arrangement_by_agreement_counts, cayley_by_composition,
                     components_by_neighbours, differing_coordinates, edges, graph_from_edges,
                     invert_tuple, is_automorphism_by_relabeling, rank_tuple,
                     relabel_rows_by_edges, transpose_bit_by_bit, tuple_count,
                     unrank_tuple, vertex_permutation)

SEED = 20240811


def t1(*one_based):
    """1-based tuple literal -> internal 0-based tuple."""
    return tuple(x - 1 for x in one_based)


def degrees(g):
    return [g.degree(v) for v in range(g.vertex_count)]


def has_edge(g, u, v):
    return bool(g.adjacency[u] >> v & 1)


# -- ranking ------------------------------------------------------------------


def test_rank_unrank_examples():
    assert rank_tuple(t1(1, 2), 4, 2) == 0
    assert unrank_tuple(0, 4, 2) == t1(1, 2)


def test_rank_unrank_round_trip():
    assert tuple_count(5, 3) == 60
    for i in range(60):
        assert rank_tuple(unrank_tuple(i, 5, 3), 5, 3) == i


def test_rank_is_lexicographic():
    tuples = [unrank_tuple(i, 4, 2) for i in range(tuple_count(4, 2))]
    assert tuples == sorted(tuples)
    assert tuples == list(itertools.permutations(range(4), 2))


def test_rank_rejects_bad_tuples():
    with pytest.raises(ValidationError):
        rank_tuple((0, 0), 4, 2)
    with pytest.raises(ValidationError):
        rank_tuple((0, 4), 4, 2)
    with pytest.raises(ValidationError):
        unrank_tuple(12, 4, 2)


def test_builders_label_vertices_by_rank():
    for n in range(1, 6):
        for k in range(1, n + 1):
            labels = build_arrangement_graph(n, k, k).labels
            assert labels == tuple(unrank_tuple(i, n, k) for i in range(tuple_count(n, k)))
        if n >= 2:
            cayley = build_cayley_graph(n, connection_set(n, "transpositions"))
            assert cayley.labels == tuple(unrank_tuple(i, n, n) for i in range(math.factorial(n)))


def test_differing_coordinates():
    assert differing_coordinates(t1(1, 2), t1(1, 3)) == 1
    assert differing_coordinates(t1(1, 2), t1(2, 1)) == 2
    assert differing_coordinates(t1(3, 1), t1(3, 1)) == 0
    with pytest.raises(ValidationError):
        differing_coordinates((0, 1), (0, 1, 2))


# -- construction -------------------------------------------------------------


def test_arrangement_4_2_2():
    g = build_arrangement_graph(4, 2, 2)
    assert g.vertex_count == 12
    assert degrees(g) == [7] * 12
    assert g.edge_count() == 42
    # brute-force oracle for the degree of [1,2]: pairs (a,b), a != 1, b != 2, a != b
    nbrs = [(a, b) for a in range(4) for b in range(4)
            if a != b and (a, b) != (0, 1) and a != 0 and b != 1]
    assert len(nbrs) == 7


def test_arrangement_4_2_1():
    g = build_arrangement_graph(4, 2, 1)
    assert g.vertex_count == 12
    assert degrees(g) == [4] * 12


def test_arrangement_n_n_1_edgeless():
    for n in range(2, 5):
        g = build_arrangement_graph(n, n, 1)
        assert g.edge_count() == 0


def test_arrangement_vertex_count_and_regularity():
    for n in range(2, 6):
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                g = build_arrangement_graph(n, k, r)
                assert g.vertex_count == math.factorial(n) // math.factorial(n - k)
                assert len(set(degrees(g))) == 1


def test_arrangement_edges_match_definition():
    g = build_arrangement_graph(4, 3, 2)
    for u in range(g.vertex_count):
        for v in range(g.vertex_count):
            expect = differing_coordinates(g.labels[u], g.labels[v]) == 2
            assert has_edge(g, u, v) == expect


def test_arrangement_rejects_bad_parameters():
    for n, k, r in [(4, 5, 1), (4, 2, 3), (4, 2, 0), (3, 0, 0)]:
        with pytest.raises(ValidationError):
            build_arrangement_graph(n, k, r)


def test_k_over_n_fails_at_once():
    # n(n-1)...(n-k+1) reaches 0 when k > n and then never passes the guard,
    # so the range is checked before the product is formed
    for k in (10**12 + 1, 10**12 + 3):
        with pytest.raises(ValidationError, match="r <= k <= n"):
            build_arrangement_graph(10**12, k, 1)


def test_vertex_guard(monkeypatch):
    small = Config(vertex_guard=100)
    with pytest.raises(ValidationError):
        build_arrangement_graph(5, 5, 2, small)
    # n!/(n-k)! is never formed past the guard, so huge n and k fail at once
    def factorial_unused(m):
        raise AssertionError("vertex count formed before the vertex guard")
    monkeypatch.setattr(math, "factorial", factorial_unused)
    for n, k in [(10**6, 10**6), (10**6, 1), (2000, 1999)]:
        with pytest.raises(ValidationError, match="more than 50000"):
            build_arrangement_graph(n, k, 1)


def test_candidate_generators_need_labels_closed_under_s_n():
    # half the labels of A(4,2,2): some value relabeling maps a label outside
    g = build_arrangement_graph(4, 2, 2)
    with pytest.raises(ValidationError, match="not closed under S_4"):
        candidate_aut_generators(4, 2, graph_from_edges(g.labels[:6], []))


def test_cayley_s3_transpositions():
    g = build_cayley_graph(3, connection_set(3, "transpositions"))
    assert g.vertex_count == 6
    assert degrees(g) == [3] * 6


def test_cayley_s4_derangements_and_f1():
    d = build_cayley_graph(4, connection_set(4, "derangements"))
    assert d.vertex_count == 24 and degrees(d) == [9] * 24
    f1 = build_cayley_graph(4, connection_set(4, "fixed", 1))
    assert f1.vertex_count == 24 and degrees(f1) == [8] * 24
    # F_1 in S_4 is the eight 3-cycles; they generate A_4 only, so the graph
    # splits into the two cosets of A_4
    assert not f1.is_connected()


def test_cayley_edges_match_definition():
    cset = connection_set(3, "transpositions")
    g = build_cayley_graph(3, cset)
    for u in range(6):
        gu = Permutation(g.labels[u])
        for v in range(6):
            gv = Permutation(g.labels[v])
            expect = gv.compose(gu.inverse()) in cset.elements
            assert has_edge(g, u, v) == expect


def test_cayley_degree_mismatch():
    with pytest.raises(ValidationError):
        build_cayley_graph(4, connection_set(3, "transpositions"))


# -- the builders against direct constructions ----------------------------------


def pair_scan_arrangement(n, k, r):
    """Oracle: A(n,k,r) by comparing every pair of tuples, through the
    validating constructor."""
    labels = list(itertools.permutations(range(n), k))
    nv = len(labels)
    edges = [
        (u, v)
        for u in range(nv)
        for v in range(u + 1, nv)
        if differing_coordinates(labels[u], labels[v]) == r
    ]
    return graph_from_edges(labels, edges, {"family": "arrangement", "n": n, "k": k, "r": r})


def composed_cayley(n, cset):
    """Oracle: Cay(S_n, S) with every neighbour s*g from Permutation.compose,
    through the validating constructor."""
    labels = list(itertools.permutations(range(n)))
    index = {lab: i for i, lab in enumerate(labels)}
    edges = []
    for i, lab in enumerate(labels):
        g = Permutation(lab)
        for s in cset.elements:
            j = index[s.compose(g).images]
            if i < j:
                edges.append((i, j))
    return graph_from_edges(labels, edges, {"family": "cayley", "n": n, "kind": cset.label()})


def assert_same_graph(built, oracle):
    assert built.vertex_count == oracle.vertex_count
    assert built.labels == oracle.labels
    assert built.adjacency == oracle.adjacency
    assert built.metadata == oracle.metadata


def assert_symmetric_loop_free(g):
    for u in range(g.vertex_count):
        assert not has_edge(g, u, u)
        assert all(has_edge(g, v, u) for v in g.neighbors(u))
    assert all(0 <= row < 1 << g.vertex_count for row in g.adjacency)


ARRANGEMENT_ORACLE_CASES = [(n, k, r) for n in range(1, 7) for k in range(1, n + 1)
                            for r in range(1, k + 1)] + [(7, 4, 4), (7, 3, 2)]


@pytest.mark.parametrize("n,k,r", ARRANGEMENT_ORACLE_CASES,
                         ids=[f"A({n},{k},{r})" for n, k, r in ARRANGEMENT_ORACLE_CASES])
def test_arrangement_matches_pair_scan(n, k, r):
    g = build_arrangement_graph(n, k, r)
    assert_same_graph(g, pair_scan_arrangement(n, k, r))
    assert_symmetric_loop_free(g)


CAYLEY_ORACLE_CASES = [(n, kind, None) for n in range(2, 7)
                       for kind in ("transpositions", "derangements")] + [
                      (n, "fixed", f) for n in range(2, 7) for f in range(n - 1)]


@pytest.mark.parametrize("n,kind,fixed", CAYLEY_ORACLE_CASES,
                         ids=[f"S{n}-{kind}{'' if f is None else f}"
                              for n, kind, f in CAYLEY_ORACLE_CASES])
def test_cayley_matches_composition(n, kind, fixed):
    cset = connection_set(n, kind, fixed)
    g = build_cayley_graph(n, cset)
    assert_same_graph(g, cayley_by_composition(n, cset))
    if n <= 5:  # one Permutation.compose per bit adds seconds at n = 6
        assert_same_graph(g, composed_cayley(n, cset))
    assert_symmetric_loop_free(g)


AGREEMENT_ORACLE_CASES = [(7, k, r) for k in range(1, 8) for r in range(1, k + 1)] + [
    (8, k, r) for k in range(1, 5) for r in range(1, k + 1)]


@pytest.mark.parametrize("n,k,r", AGREEMENT_ORACLE_CASES,
                         ids=[f"A({n},{k},{r})" for n, k, r in AGREEMENT_ORACLE_CASES])
def test_arrangement_matches_agreement_counts(n, k, r):
    # every row of the oracle is made on its own, none from another row
    assert_same_graph(build_arrangement_graph(n, k, r), arrangement_by_agreement_counts(n, k, r))


def test_cayley_random_subsets_match_composition():
    # inverse-closed subsets of F_f, made directly: each keeps some elements
    # of F_f with their inverses, so unlike a full F_f it need not be closed
    # under conjugation, and left translates would give the wrong rows
    rng = random.Random(SEED)
    for n in range(2, 7):
        for f in range(n - 1):
            elements = sorted(connection_set(n, "fixed", f).elements, key=lambda p: p.images)
            for _ in range(4):
                chosen = rng.sample(elements, rng.randint(1, len(elements)))
                cset = ConnectionSet(n, "fixed", f,
                                     frozenset(chosen + [p.inverse() for p in chosen]))
                assert_same_graph(build_cayley_graph(n, cset), cayley_by_composition(n, cset))


@pytest.mark.parametrize("n", range(1, 8))
def test_value_swap_tables_move_each_vertex_to_its_swapped_rank(n):
    # for each k and each swap (a a+1), the vertices whose label with a and
    # a+1 swapped has rank v + offset, by offset, read from a dict of the labels
    for k in range(1, n + 1):
        labels = list(itertools.permutations(range(n), k))
        rank = {lab: v for v, lab in enumerate(labels)}
        tables = _value_swap_tables(n, k)
        assert len(tables) == n - 1
        for a, pairs in enumerate(tables):
            swap = list(range(n))
            swap[a], swap[a + 1] = a + 1, a
            moved: dict[int, int] = {}
            for v, lab in enumerate(labels):
                offset = rank[tuple(swap[x] for x in lab)] - v
                moved[offset] = moved.get(offset, 0) | 1 << v
            # a vertex stays exactly when it holds neither a nor a+1
            stay = _mask(v for v, lab in enumerate(labels) if a not in lab and a + 1 not in lab)
            assert moved.pop(0, 0) == stay
            assert [offset for offset, _ in pairs] == [math.perm(n - 1 - j, k - 1 - j)
                                                       for j in range(min(k, n - 1))]
            # each pair's vertices move by +-offset
            signed = pairs + [(-offset, up << offset) for offset, up in pairs]
            assert dict(signed) == moved
            # the 2 min(k, n-1) masks and the vertices that stay partition them
            masks = [up for _, up in signed] + [stay]
            assert sum(up.bit_count() for up in masks) == len(labels)
            assert reduce(or_, masks) == (1 << len(labels)) - 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cayley_empty_set_is_edgeless(n):
    cset = ConnectionSet(n, "transpositions", None, frozenset())
    g = build_cayley_graph(n, cset)
    assert g.vertex_count == math.factorial(n) and g.edge_count() == 0
    assert_same_graph(g, cayley_by_composition(n, cset))


def test_arrangement_7_7_7_is_derangement_regular():
    # A(n,n,n) is Cay(S_n, D): every vertex has the D(7) = 1854 derangements
    # of its tuple as neighbours
    g = build_arrangement_graph(7, 7, 7)
    assert g.vertex_count == 5040
    assert degrees(g) == [1854] * 5040
    assert not any(has_edge(g, u, u) for u in range(g.vertex_count))
    for u in random.Random(SEED).sample(range(g.vertex_count), 12):
        assert list(g.neighbors(u)) == [
            v for v in range(g.vertex_count)
            if differing_coordinates(g.labels[u], g.labels[v]) == 7]


def test_adjacency_constructor_not_exported():
    import arrgraph
    assert all("_from_adjacency" not in name for name in dir(arrgraph))
    assert "_from_adjacency" not in getattr(arrgraph, "__all__", [])


# -- Graph basics -------------------------------------------------------------


_PATH3 = [(0,), (1,), (2,)]  # the path 0 - 1 - 2 has rows 0b010, 0b101, 0b010


def test_graph_from_rows():
    g = Graph(_PATH3, [2, 5, 2], {"family": "plain"})
    assert g.labels == ((0,), (1,), (2,)) and g.adjacency == [2, 5, 2]
    assert edges(g) == [(0, 1), (1, 2)] and g.metadata == {"family": "plain"}
    # any sequences of ints label the vertices, and are stored as tuples
    h = Graph([[0, 1], range(2, 4)], (0, 0))
    assert h.labels == ((0, 1), (2, 3)) and h.adjacency == [0, 0] and h.metadata == {}
    assert Graph([], []).vertex_count == 0


def test_graph_rejects_malformed():
    # in bit rows, an edge to a vertex out of range is a bit at V or above,
    # and a self-loop a bit on the diagonal
    cases = [
        ([(0,), (0,), (2,)], [2, 5, 2], None, "pairwise distinct"),
        ([(0,), 1, (2,)], [2, 5, 2], None, "sequences of integers"),
        ([(0,), ("1",), (2,)], [2, 5, 2], None, "sequences of integers"),
        ([(0,), (True,), (2,)], [2, 5, 2], None, "sequences of integers"),
        (_PATH3, [2, 5, 2], [("family", "plain")], "metadata is not a dict"),
        (_PATH3, [2, 5, 2 | 8], None, "row 2 has a bit at 3"),
        (_PATH3, [2, 5, -6], None, "row 2 has a bit at 3"),  # -6 >> 3 is -1
        (_PATH3, [2, 5, True], None, "3 integer rows"),
        (_PATH3, [2, 5, 2.0], None, "3 integer rows"),
        (_PATH3, [2, 5], None, "3 integer rows"),
        (_PATH3, [2, 5, 2, 0], None, "3 integer rows"),
        (_PATH3, (row for row in [2, 5, 2]), None, "3 integer rows"),
        (_PATH3, [2, 5, 2 | 4], None, "row 2 has a self-loop"),
        (_PATH3, [2, 5, 3], None, "not symmetric"),  # bit 0 of row 2 alone
    ]
    for labels, rows, metadata, message in cases:
        with pytest.raises(ValidationError, match=message):
            Graph(labels, rows, metadata)
    # the checks run in order: labels, metadata, rows
    with pytest.raises(ValidationError, match="pairwise distinct"):
        Graph([(0,), (0,)], [1], [])
    with pytest.raises(ValidationError, match="metadata"):
        Graph(_PATH3, [1], [])


def test_relabeled_preserves_structure():
    g = build_arrangement_graph(4, 2, 2)
    rng = random.Random(SEED)
    imgs = list(range(12))
    rng.shuffle(imgs)
    p = Permutation(imgs)
    h = g.relabeled(p)
    assert sorted(h.labels) == sorted(g.labels)
    for u, v in edges(g):
        assert has_edge(h, p(u), p(v))
    assert h.edge_count() == g.edge_count()
    # labels travel with their vertices
    for v in range(12):
        assert h.labels[p(v)] == g.labels[v]


def test_relabeled_matches_validated_construction():
    # the oracle is built edge by edge, each edge moved by p
    rng = random.Random(SEED + 3)
    for g in [build_arrangement_graph(4, 3, 2), build_arrangement_graph(3, 3, 1),
              build_cayley_graph(4, connection_set(4, "fixed", 1)),
              graph_from_edges([(0,)], []), graph_from_edges([(0,), (1,)], [(0, 1)])]:
        imgs = list(range(g.vertex_count))
        rng.shuffle(imgs)
        p = Permutation(imgs)
        inv = p.inverse()
        oracle = graph_from_edges([g.labels[inv(i)] for i in range(g.vertex_count)],
                                  [(p(u), p(v)) for u, v in edges(g)], g.metadata)
        assert_same_graph(g.relabeled(p), oracle)


def test_is_connected():
    assert build_arrangement_graph(4, 2, 2).is_connected()
    assert not build_arrangement_graph(3, 3, 1).is_connected()


def _sparse_or_dense_graph(rng, nv):
    """A random graph on nv vertices labelled (i,), often disconnected, and
    with a disconnected complement when dense."""
    p = rng.choice([0.02, 0.08, 0.3, 0.9, 0.98])
    return graph_from_edges([(i,) for i in range(nv)],
                            [e for e in itertools.combinations(range(nv), 2) if rng.random() < p])


def test_is_connected_matches_neighbour_bfs():
    rng = random.Random(SEED + 11)
    graphs = [_sparse_or_dense_graph(rng, rng.randint(0, 30)) for _ in range(200)]
    answers = [g.is_connected() for g in graphs]
    assert answers == [len(components_by_neighbours(g)) <= 1 for g in graphs]
    assert {True, False} <= set(answers)


@pytest.mark.parametrize("co", [False, True], ids=["components", "co-components"])
@pytest.mark.parametrize("whole", [True, False], ids=["whole", "part"])
def test_split_matches_neighbour_bfs(co, whole):
    # the pieces of the subgraph on a mask, or of its complement, are its
    # components by BFS over neighbour lists, in the order of their lowest
    # vertex
    rng = random.Random(SEED + 12)
    counts = set()
    for _ in range(150):
        g = _sparse_or_dense_graph(rng, rng.randint(1, 30))
        nv = g.vertex_count
        part = (1 << nv) - 1 if whole else rng.getrandbits(nv)
        verts = list(_bits(part))
        place = {v: i for i, v in enumerate(verts)}
        sub = graph_from_edges([(i,) for i in range(len(verts))],
                               [(place[u], place[v]) for u, v in edges(g)
                                if u in place and v in place and not co]
                               + [(place[u], place[v]) for u, v in itertools.combinations(verts, 2)
                                  if co and not g.adjacency[u] >> v & 1])
        expected = [[verts[i] for i in c] for c in components_by_neighbours(sub)]
        pieces = _split(g.adjacency, part, co)
        assert [list(_bits(m)) for m in pieces] == expected
        counts.add(min(len(pieces), 2))
    # some parts split, and some do not
    assert {1, 2} <= counts


# -- psi and the vertex maps --------------------------------------------------


def test_psi_examples():
    # psi reads a full-length tuple as the one-line form of a permutation
    p = Permutation(t1(2, 3, 1))
    assert p.to_one_based() == [2, 3, 1]
    assert Permutation(tuple(range(4))).is_identity()
    for imgs in itertools.permutations(range(4)):
        assert Permutation(imgs).images == imgs


def test_psi_requires_full_tuples():
    with pytest.raises(ValidationError):
        Permutation((0, 2))  # k < n: not a bijection on 0..1
    with pytest.raises(ValidationError):
        invert_tuple((0, 2))


def test_apply_value_permutation():
    g12 = transposition(4, 0, 1)
    assert apply_value_permutation(g12, t1(1, 3)) == t1(2, 3)
    assert apply_value_permutation(Permutation.identity(4), t1(1, 3)) == t1(1, 3)
    assert apply_value_permutation(cycle(4), t1(4, 1)) == t1(1, 2)


def test_apply_position_permutation():
    h = transposition(2, 0, 1)
    assert apply_position_permutation(h, t1(1, 3)) == t1(3, 1)
    assert apply_position_permutation(Permutation.identity(2), t1(1, 3)) == t1(1, 3)
    with pytest.raises(ValidationError):
        apply_position_permutation(transposition(3, 0, 1), t1(1, 3))


def test_apply_position_permutation_action_law():
    rng = random.Random(SEED + 1)
    for _ in range(100):
        n, k = 5, 3
        v = tuple(rng.sample(range(n), k))
        i1 = rng.sample(range(k), k)
        i2 = rng.sample(range(k), k)
        h1, h2 = Permutation(i1), Permutation(i2)
        assert (apply_position_permutation(h2, apply_position_permutation(h1, v))
                == apply_position_permutation(h1.compose(h2), v))


def test_apply_h_examples():
    assert invert_tuple(t1(2, 3, 1)) == t1(3, 1, 2)
    ident = tuple(range(4))
    assert invert_tuple(ident) == ident
    for imgs in itertools.permutations(range(4)):
        assert invert_tuple(invert_tuple(imgs)) == imgs
        assert Permutation(invert_tuple(imgs)) == Permutation(imgs).inverse()


def test_pq_commute_pointwise():
    # P(g) and Q(h) commute as vertex permutations, exhaustively for (4,2)
    g4 = build_arrangement_graph(4, 2, 2)
    for gi in itertools.permutations(range(4)):
        g = Permutation(gi)
        vp = vertex_permutation(g4, lambda t: apply_value_permutation(g, t))
        for hi in itertools.permutations(range(2)):
            h = Permutation(hi)
            vq = vertex_permutation(g4, lambda t: apply_position_permutation(h, t))
            assert vp.compose(vq) == vq.compose(vp)


@pytest.mark.parametrize("n,exhaustive", [(3, True), (4, True), (5, False)])
def test_h_conjugates_p_to_q(n, exhaustive):
    # for k = n: conjugating P(g) by the inversion map gives Q(g)
    g = build_arrangement_graph(n, n, n)
    vh = vertex_permutation(g, invert_tuple)
    perms = ([Permutation(i) for i in itertools.permutations(range(n))]
             if exhaustive else symmetric_group_generators(n))
    for p in perms:
        vp = vertex_permutation(g, lambda t: apply_value_permutation(p, t))
        vq = vertex_permutation(g, lambda t: apply_position_permutation(p, t))
        assert vh.compose(vp).compose(vh) == vq


@pytest.mark.parametrize("n", [3, 4])
def test_psi_is_isomorphism_witness(n):
    # u ~ v in A(n,n,2) iff psi(u) psi(v)^-1 in T; in A(n,n,n) iff in D
    for r, kind in [(2, "transpositions"), (n, "derangements")]:
        g = build_arrangement_graph(n, n, r)
        elems = connection_set(n, kind).elements
        for u in range(g.vertex_count):
            pu = Permutation(g.labels[u])
            for v in range(g.vertex_count):
                pv = Permutation(g.labels[v])
                assert has_edge(g, u, v) == (pu.compose(pv.inverse()) in elems)


# -- the transpose -------------------------------------------------------------


@pytest.mark.parametrize("nv", list(range(10)) + [31, 32, 33, 100])
def test_transpose_matches_bit_by_bit(nv):
    # sparse, half-full and dense rows, and V around and between powers of two
    rng = random.Random(SEED + nv)
    for density in (0.05, 0.5, 0.95):
        rows = [sum(1 << c for c in range(nv) if rng.random() < density)
                for _ in range(nv)]
        cols = _transpose(rows)
        assert cols == transpose_bit_by_bit(rows)
        assert _transpose(cols) == rows


def test_transpose_leaves_its_input():
    rows = [0b011, 0b100, 0b110]
    assert _transpose(rows) == [0b001, 0b101, 0b110]
    assert rows == [0b011, 0b100, 0b110]


def _random_symmetric_rows(rng, nv):
    """The rows of a random loop-free symmetric bit matrix on nv vertices,
    of a random density."""
    p = rng.random()
    rows = [0] * nv
    for u in range(nv):
        for v in range(u + 1, nv):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


@pytest.mark.parametrize("nv", [0, 1, 2, 3, 7, 8, 9, 17, 32, 40])
def test_count_planes_match_integer_counts(nv):
    rng = random.Random(SEED + nv)
    full = (1 << nv) - 1
    for _ in range(6):
        rows = _random_symmetric_rows(rng, nv)
        for vertices in (0, full, rng.getrandbits(nv) if nv else 0):
            planes = _count_planes(rows, vertices)
            counts = [sum(rows[v] >> u & 1 for v in range(nv) if vertices >> v & 1)
                      for u in range(nv)]
            assert [sum((plane >> u & 1) << j for j, plane in enumerate(planes))
                    for u in range(nv)] == counts
            # as many planes as the largest count has bits, the last nonempty
            assert len(planes) == max(counts, default=0).bit_length()
            assert not planes or planes[-1]


def test_count_planes_sum_any_rows():
    # any rows, not only a symmetric matrix's: the builder sums k masks.
    # Column sums 2, 3, 2, 0, then 1, 2, 2, 0 over rows 0 and 2
    assert _count_planes([0b0110, 0b0011, 0b0111], 0b111) == [0b0010, 0b0111]
    assert _count_planes([0b0110, 0b0011, 0b0111], 0b101) == [0b0001, 0b0110]
    assert _count_planes([0, 0], 0b11) == []


@pytest.mark.parametrize("nv", [0, 1, 2, 3, 7, 8, 9, 17, 32, 40])
def test_relabel_rows_matches_edge_oracle(nv):
    rng = random.Random(SEED + nv)
    for _ in range(6):
        rows = _random_symmetric_rows(rng, nv)
        order = list(range(nv))
        assert _relabel_rows(rows, order) == rows
        rng.shuffle(order)
        before = list(rows)
        assert _relabel_rows(rows, order) == relabel_rows_by_edges(rows, order)
        assert rows == before


# -- the lifted label maps --------------------------------------------------------


def test_value_relabelings_match_vertex_permutation():
    for n, k, r in [(4, 2, 2), (4, 3, 2), (5, 5, 3)]:
        g = build_arrangement_graph(n, k, r)
        expected = [vertex_permutation(g, lambda t, p=p: apply_value_permutation(p, t))
                    for p in symmetric_group_generators(n)]
        assert value_relabelings(g, n) == expected


def test_value_relabelings_leave_out_maps_off_the_labels():
    # the transposition (0 1) maps (1, 2) to (0, 2), which is no label
    g = graph_from_edges([(0, 1), (1, 2), (2, 0)], [])
    got = value_relabelings(g, 3)
    assert got == [Permutation((1, 2, 0))]  # the 3-cycle, rotating the labels
    assert value_relabelings(g, 1) == []  # S_1 has no generators


def reference_candidates(g, n, k):
    """candidate_aut_generators' maps, each lifted by vertex_permutation."""
    maps = [lambda t, p=p: apply_value_permutation(p, t) for p in symmetric_group_generators(n)]
    maps += [lambda t, h=h: apply_position_permutation(h, t) for h in symmetric_group_generators(k)]
    if k == n:
        maps.append(invert_tuple)
    return [vertex_permutation(g, f) for f in maps]


def reference_stabilizer(g, n, v):
    """stabilizer_relabelings' maps, each lifted by vertex_permutation: Q(h)
    then t1 h t1^-1 on values, S_{n-k} on the values missing from t1, and
    t -> t1 t^-1 t1 when k = n."""
    t1 = g.labels[v]
    k = len(t1)
    maps = []
    for h in symmetric_group_generators(k):
        value = list(range(n))
        for j, x in enumerate(t1):
            value[x] = t1[h(j)]
        maps.append(lambda t, h=h, p=Permutation(value):
                    apply_value_permutation(p, apply_position_permutation(h, t)))
    missing = [x for x in range(n) if x not in t1]
    for s in symmetric_group_generators(len(missing)):
        value = list(range(n))
        for i, x in enumerate(missing):
            value[x] = missing[s(i)]
        maps.append(lambda t, p=Permutation(value): apply_value_permutation(p, t))
    if k == n:
        p1 = Permutation(t1)
        maps.append(lambda t: p1.compose(Permutation(invert_tuple(t))).compose(p1).images)
    return [vertex_permutation(g, f) for f in maps]


LIFTED = ([("A", (n, k, k)) for n in range(1, 6) for k in range(1, n + 1)] + [("A", (5, 5, 3))]
          + [("Cay", kind) for kind in ("transpositions", "derangements", "F1")])


@pytest.mark.parametrize("family,params", LIFTED,
                         ids=["A(%d,%d,%d)" % p if f == "A" else "Cay(S5,%s)" % p[0].upper()
                              for f, p in LIFTED])
def test_lifted_maps_match_the_reference_lift(family, params):
    if family == "A":
        n, k, _ = params
        g = build_arrangement_graph(*params)
    else:
        n = k = 5
        cset = (connection_set(5, "fixed", 1) if params == "F1"
                else connection_set(5, params))
        g = build_cayley_graph(5, cset)
    expected = reference_candidates(g, n, k)
    assert candidate_aut_generators(n, k, g) == expected
    assert value_relabelings(g, n) == expected[:len(symmetric_group_generators(n))]
    vertices = range(g.vertex_count)
    if n > 4:
        vertices = sorted({0, g.vertex_count // 2, g.vertex_count - 1}
                          | set(random.Random(SEED + k).sample(vertices, 3)))
    for v in vertices:
        assert stabilizer_relabelings(g, n, v) == reference_stabilizer(g, n, v), v


def test_candidate_generators_reject_labels_off_a_position_map():
    # the six labels (a, a, b) are closed under S_3 on values, but the
    # position 3-cycle carries (1, 1, 0) to (0, 1, 1), which is no label
    labels = [(a, a, b) for a in range(3) for b in range(3) if a != b]
    with pytest.raises(ValidationError, match="not closed"):
        candidate_aut_generators(3, 3, graph_from_edges(labels, []))
    # labels of length 2 have no image under the position maps of S_3, and
    # (2,) lists no 0..len-1, so it has no inverse either
    with pytest.raises(ValidationError, match="not closed"):
        candidate_aut_generators(4, 3, build_arrangement_graph(4, 2, 2))
    with pytest.raises(ValidationError, match="not closed"):
        candidate_aut_generators(3, 3, graph_from_edges([(0, 1, 2), (2,)], []))


@pytest.mark.parametrize("n,k,nkr", [(3, 1, (3, 3, 3)), (3, 0, (3, 3, 3)), (3, -2, (3, 3, 3)),
                                     (4, 1, (4, 2, 2))],
                         ids=["A333-k1", "A333-k0", "A333-k-2", "A422-k1"])
def test_candidate_generators_check_k_against_the_labels(n, k, nkr):
    # S_k has no generators here, so no position map can fail to lift
    with pytest.raises(ValidationError):
        candidate_aut_generators(n, k, build_arrangement_graph(*nkr))


def test_no_map_to_lift_skips_the_range_check():
    from arrgraph import indsets
    g = graph_from_edges([(0,), (7,)], [])
    assert value_relabelings(g, 1) == value_relabelings(g, 0) == []
    with pytest.raises(ValidationError, match="1 <= k <= n"):
        candidate_aut_generators(1, 0, g)
    assert stabilizer_relabelings(g, 2, 0) == []  # S_1 on positions and on the value 1
    # indsets finds no n for these labels, and lifts nothing
    assert indsets._value_degree(g) == 0
    assert indsets._symmetries(g, ()) == indsets._symmetries(g, (0,)) == []
    with pytest.raises(ValidationError, match=r"outside 0\.\.n-1"):
        value_relabelings(g, 2)


def test_value_relabelings_reject_entries_beyond_n():
    g = build_arrangement_graph(4, 2, 2)
    with pytest.raises(ValidationError, match=r"outside 0\.\.n-1"):
        value_relabelings(g, 3)
    # a negative entry too, which would otherwise index from the end
    with pytest.raises(ValidationError, match=r"outside 0\.\.n-1"):
        value_relabelings(graph_from_edges([(0, 1), (1, -1)], []), 2)


# -- automorphism checks ------------------------------------------------------


def test_is_automorphism_identity_and_p():
    g = build_arrangement_graph(4, 2, 2)
    assert is_automorphism(g, Permutation.identity(12))
    g12 = transposition(4, 0, 1)
    vp = vertex_permutation(g, lambda t: apply_value_permutation(g12, t))
    assert is_automorphism(g, vp)


def test_is_automorphism_counterexample():
    g = build_arrangement_graph(4, 2, 2)
    # scan for a vertex transposition that is not an automorphism
    found = None
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            if not is_automorphism(g, transposition(g.vertex_count, u, v)):
                found = (u, v)
                break
        if found:
            break
    assert found is not None


def test_is_automorphism_degree_mismatch():
    g = build_arrangement_graph(4, 2, 2)
    with pytest.raises(ValidationError):
        is_automorphism(g, Permutation.identity(11))
    for nv in (0, 1):  # also where there are no rows to compare
        with pytest.raises(ValidationError):
            is_automorphism(graph_from_edges([(v,) for v in range(nv)], []),
                            Permutation.identity(2))


def test_is_automorphism_tiny_graphs():
    # the transpose pads nothing at V <= 1, and only V = 3 pads here
    assert is_automorphism(graph_from_edges([], []), Permutation._trusted(()))
    assert is_automorphism(graph_from_edges([(0,)], []), Permutation.identity(1))
    for edges in ([], [(0, 1)]):
        g = graph_from_edges([(0,), (1,)], edges)
        for images in ((0, 1), (1, 0)):
            assert is_automorphism(g, Permutation(images))
    path = graph_from_edges([(0,), (1,), (2,)], [(0, 1), (1, 2)])
    assert is_automorphism(path, Permutation((2, 1, 0)))
    assert not is_automorphism(path, Permutation((1, 0, 2)))


def test_is_automorphism_matches_relabeling_oracle():
    # each graph is a union of orbits of vertex pairs under a random sigma,
    # so the powers of sigma are automorphisms; sigma after a transposition
    # and random permutations mostly are not. Sparse and dense graphs both
    # occur.
    rng = random.Random(SEED + 5)
    verdicts = []
    for trial in range(60):
        nv = rng.randint(2, 40)
        p = rng.choice([0.02, 0.1, 0.4])
        sigma = rng.sample(range(nv), nv)
        edges = set()
        for u, v in itertools.combinations(range(nv), 2):
            if rng.random() < p:
                while (min(u, v), max(u, v)) not in edges:
                    edges.add((min(u, v), max(u, v)))
                    u, v = sigma[u], sigma[v]
        g = graph_from_edges([(v,) for v in range(nv)], sorted(edges))
        f = Permutation(sigma)
        maps = [f, f.compose(f), f.compose(transposition(nv, 0, nv - 1)),
                Permutation(rng.sample(range(nv), nv))]
        for p in maps:
            got = is_automorphism(g, p)
            assert got == is_automorphism_by_relabeling(g, p), (trial, p)
            verdicts.append(got)
    assert verdicts[0::4] == [True] * 60 and verdicts.count(False) > 30


def test_candidate_generators_orders():
    # S_2 has one generator, the transposition, so A(4,2,2) gets two value
    # relabelings and one position relabeling
    cases = [((4, 2, 2), 3, 48), ((4, 4, 2), 5, 1152), ((4, 4, 4), 5, 1152)]
    for (n, k, r), count, order in cases:
        g = build_arrangement_graph(n, k, r)
        gens = candidate_aut_generators(n, k, g)
        assert len(gens) == count
        assert all(is_automorphism(g, f) for f in gens)
        assert StabilizerChain(gens, degree=g.vertex_count).order() == order


def _tree_node(visited, name, children=(), back=None):
    visited.append(name)
    for child in children:
        yield _tree_node(visited, *child)
    return back


def test_depth_first_order_and_back_up():
    # c, at depth 3, backs up to depth 1: b is dropped before f, and a goes
    # on with e; g, at depth 2, backs up to the root, which goes on with h
    tree = ("r", [("a", [("b", [("c", [], 1), ("f",)]), ("e",)]),
                  ("d", [("g", [], 0), ("i",)]), ("h",)])
    visited = []
    _depth_first(_tree_node(visited, *tree))
    assert visited == ["r", "a", "b", "c", "e", "d", "g", "h"]
    visited = []
    _depth_first(_tree_node(visited, "r", [("a", [("b",)], 0), ("c",)]))
    assert visited == ["r", "a", "b", "c"]  # a node returning its own depth


def test_depth_first_chain_deeper_than_recursion_limit():
    depths = []

    def chain(depth):
        depths.append(depth)
        if depth < 100_000:
            yield chain(depth + 1)
        return 0

    _depth_first(chain(0))
    assert depths == list(range(100_001))
