"""Permutation arithmetic, connection sets, and stabilizer chains."""

import gc
import itertools
import math
import random
import tracemalloc

import pytest

from arrgraph.errors import BudgetError, ValidationError
from arrgraph.config import Config
from arrgraph.perms import (ConnectionSet, Permutation, StabilizerChain,
                            check_tuple_count, connection_set, cycle, orbits,
                            transposition)
from oracles import (TransversalChain, brute_force_closure, fixed_point_count,
                     schreier_levels_by_pairs, transversal_sift)

SEED = 20240811


def P1(*one_based):
    return Permutation(x - 1 for x in one_based)


def random_perm(rng, degree):
    imgs = list(range(degree))
    rng.shuffle(imgs)
    return Permutation(imgs)


# -- composition and inversion ------------------------------------------------


def test_compose_hand_example():
    assert P1(2, 1, 3).compose(P1(1, 3, 2)) == P1(3, 1, 2)


def test_compose_identity_and_inverse():
    rng = random.Random(SEED)
    for _ in range(50):
        p = random_perm(rng, 6)
        ident = Permutation.identity(6)
        assert p.compose(ident) == p
        assert ident.compose(p) == p
        assert p.compose(p.inverse()) == ident
        assert p.inverse().compose(p) == ident


def test_compose_is_left_to_right():
    p, q = P1(2, 1, 3), P1(1, 3, 2)
    for i in range(3):
        assert p.compose(q)(i) == q(p(i))


def test_compose_matches_the_map_form():
    # compose takes an itemgetter, which for fewer than two points returns a
    # bare item or cannot be made; degree 0 exists only as a trusted tuple
    rng = random.Random(SEED)
    for degree in (0, 1, 2, 50):
        for _ in range(20):
            p, q = (Permutation._trusted(tuple(rng.sample(range(degree), degree)))
                    for _ in range(2))
            composed = p.compose(q).images
            assert type(composed) is tuple
            assert composed == tuple(map(q.images.__getitem__, p.images))


def test_compose_degree_mismatch():
    with pytest.raises(ValidationError):
        P1(2, 1).compose(P1(2, 1, 3))


def test_compose_associativity_random():
    rng = random.Random(SEED + 1)
    for _ in range(200):
        d = rng.randint(1, 8)
        p, q, r = (random_perm(rng, d) for _ in range(3))
        assert p.compose(q).compose(r) == p.compose(q.compose(r))


def test_inverse_examples():
    assert P1(2, 3, 1).inverse() == P1(3, 1, 2)
    assert Permutation.identity(5).inverse() == Permutation.identity(5)
    t = transposition(4, 1, 3)
    assert t.inverse() == t


def test_inverse_is_involution_random():
    rng = random.Random(SEED + 2)
    for _ in range(100):
        p = random_perm(rng, rng.randint(1, 9))
        assert p.inverse().inverse() == p


def test_not_a_permutation_rejected():
    # a bool is an int to isinstance; [True, False] was once accepted
    for bad in ([0, 0, 1], [1, 2, 3], [0, 2], [], [True, False], [1.0, 0], ["0"]):
        with pytest.raises(ValidationError):
            Permutation(bad)


def test_one_based_round_trip():
    p = P1(3, 1, 4, 2)
    assert p.images == (2, 0, 3, 1)
    assert p.to_one_based() == [3, 1, 4, 2]


def test_fixed_point_count():
    assert fixed_point_count(Permutation.identity(4)) == 4
    assert fixed_point_count(P1(2, 1, 3, 4)) == 2
    assert fixed_point_count(P1(2, 3, 1, 4)) == 1


# -- connection sets ----------------------------------------------------------


def derangement_count(m):
    # inclusion-exclusion oracle, D_0 = 1
    return sum((-1) ** i * math.factorial(m) // math.factorial(i) for i in range(m + 1))


def test_connection_set_sizes():
    assert len(connection_set(4, "transpositions")) == 6
    assert len(connection_set(4, "derangements")) == 9
    assert len(connection_set(4, "fixed", 1)) == 8


def test_connection_set_defining_predicates():
    for n in range(2, 7):
        t = connection_set(n, "transpositions")
        assert all(fixed_point_count(p) == n - 2 for p in t.elements)
        d = connection_set(n, "derangements")
        assert all(fixed_point_count(p) == 0 for p in d.elements)
        for f in range(0, n - 1):
            fk = connection_set(n, "fixed", f)
            assert all(fixed_point_count(p) == f for p in fk.elements)
            assert {p.inverse() for p in fk.elements} == set(fk.elements)


def test_fixed_coincides_with_named_kinds():
    for n in range(3, 6):
        assert connection_set(n, "fixed", 0).elements == connection_set(n, "derangements").elements
        assert connection_set(n, "fixed", n - 2).elements == connection_set(n, "transpositions").elements


def test_fixed_count_formula():
    # |F_k| = C(n,k) * D_{n-k}, cross-checked by brute-force enumeration
    for n in range(2, 8):
        for k in range(0, n - 1):
            expected = math.comb(n, k) * derangement_count(n - k)
            assert len(connection_set(n, "fixed", k)) == expected


def test_connection_set_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        connection_set(4, "fixed", 3)  # F_{n-1} is empty
    with pytest.raises(ValidationError):
        connection_set(4, "fixed", 4)  # F_n = {identity}
    with pytest.raises(ValidationError):
        connection_set(4, "fixed", -1)
    with pytest.raises(ValidationError):
        connection_set(1, "transpositions")
    with pytest.raises(ValidationError):
        connection_set(4, "involutions")


def test_symmetric_group_vertex_guard():
    small = Config(vertex_guard=120)
    check_tuple_count(5, 5, small)
    assert len(connection_set(5, "transpositions", None, small)) == 10
    for n in (6, 10**9):  # n! is never formed past the guard
        with pytest.raises(ValidationError, match="over the vertex guard"):
            check_tuple_count(n, n, small)
    for k in (10**12 + 1, -1):  # k out of range is caught before the product
        with pytest.raises(ValidationError, match="0 <= k <= n"):
            check_tuple_count(10**12, k)
    with pytest.raises(ValidationError, match="over the vertex guard"):
        connection_set(6, "fixed", 1, small)


def test_connection_set_invariants_enforced():
    with pytest.raises(ValidationError):
        ConnectionSet(3, "transpositions", None,
                      frozenset([Permutation.identity(3)]))
    with pytest.raises(ValidationError):
        # a lone 3-cycle is not inverse-closed
        ConnectionSet(3, "derangements", None, frozenset([P1(2, 3, 1)]))


@pytest.mark.parametrize("kind,fixed,element", [
    ("derangements", None, transposition(3, 0, 1)),   # one fixed point, not 0
    ("transpositions", None, cycle(4)),                # 0 fixed points, not 2
    ("fixed", 1, transposition(4, 0, 1)),              # 2 fixed points, not 1
    ("fixed", 0, Permutation.identity(3)),             # the identity fixes all 3
], ids=["D", "T", "F1", "F0-identity"])
def test_connection_set_rejects_elements_of_another_kind(kind, fixed, element):
    # each set is inverse-closed, so only the fixed-point count can reject it
    elements = frozenset([element, element.inverse()])
    with pytest.raises(ValidationError, match="fixed points"):
        ConnectionSet(element.degree, kind, fixed, elements)
    # the sets that connection_set makes pass the same check
    for f in range(element.degree - 1):
        cset = connection_set(element.degree, "fixed", f)
        assert ConnectionSet(cset.degree, "fixed", f, cset.elements) == cset


# -- stabilizer chains --------------------------------------------------------


def test_chain_order_s4():
    chain = StabilizerChain([transposition(4, 0, 1), cycle(4)])
    assert chain.order() == 24


def test_chain_empty_generators_is_trivial_group():
    chain = StabilizerChain([], degree=5)
    assert chain.order() == 1
    assert chain.contains(Permutation.identity(5))
    assert not chain.contains(transposition(5, 0, 1))


def test_chain_three_cycles_generate_a4():
    three_cycles = [
        p for p in (Permutation(imgs) for imgs in itertools.permutations(range(4)))
        if sum(1 for i in range(4) if p(i) != i) == 3
    ]
    closure = brute_force_closure(three_cycles)
    assert len(closure) == 12
    chain = StabilizerChain(three_cycles)
    assert chain.order() == 12


def test_chain_invariants():
    groups = [[transposition(5, 0, 1), cycle(5)]]
    groups += [gens for _, gens in _random_groups(random.Random(SEED + 8), 10)]
    for gens in groups:
        chain = StabilizerChain(gens)
        orbits = chain.fundamental_orbits()
        assert math.prod(len(o) for o in orbits) == chain.order()
        base = chain.base
        for i, level in enumerate(chain._levels):
            orbit = set(level.orbit)
            assert level.point == base[i] and sorted(orbit) == orbits[i]
            # a level's generators are indexes into the chain's one list
            for g in map(chain._gens.__getitem__, level.gens):
                assert all(g[b] == b for b in base[:i])
                assert {g[x] for x in orbit} == orbit
    assert StabilizerChain(groups[0]).order() == 120


def test_chain_membership():
    chain = StabilizerChain([transposition(4, 0, 1), cycle(4)])
    rng = random.Random(SEED + 4)
    for _ in range(20):
        assert chain.contains(random_perm(rng, 4))
    a4 = StabilizerChain([P1(2, 3, 1, 4), P1(1, 3, 4, 2)])
    assert a4.order() == 12
    assert not a4.contains(transposition(4, 0, 1))


def _random_groups(rng, count, max_degree=8, max_order=20_000):
    """count (closure, generators) pairs of random groups of degree at most
    max_degree and order at most max_order. Half the generating sets are
    transpositions plus at most one permutation of small support, so long
    bases and deep closures occur."""
    out = []
    while len(out) < count:
        d = rng.randint(3, max_degree)
        if rng.random() < 0.5:
            gens = [transposition(d, *rng.sample(range(d), 2))
                    for _ in range(rng.randint(1, d))]
            support = rng.sample(range(d), rng.randint(2, d))
            images = list(range(d))
            for a, b in zip(support, support[1:] + support[:1]):
                images[a] = b
            gens.append(Permutation(images))
        else:
            gens = [random_perm(rng, d) for _ in range(rng.randint(1, 3))]
        try:
            closure = brute_force_closure(gens, degree=d, limit=max_order)
        except BudgetError:
            continue
        out.append((closure, gens))
    return out


def test_chain_order_matches_brute_force_closure_random():
    rng = random.Random(SEED + 5)
    for closure, gens in _random_groups(rng, 60):
        d = gens[0].degree
        chain = StabilizerChain(gens, degree=d)
        assert chain.order() == len(closure)
        members = rng.sample(sorted(closure, key=lambda p: p.images),
                             min(len(closure), 40))
        for p in members + [random_perm(rng, d) for _ in range(40)]:
            assert chain.contains(p) == (p in closure)


def test_orbits_match_brute_force_closure_random():
    # the label of x is the least image of x under the group's elements,
    # and the generators may be Permutations or image tuples
    rng = random.Random(SEED + 9)
    for closure, gens in _random_groups(rng, 30):
        d = gens[0].degree
        expected = [min(p(x) for p in closure) for x in range(d)]
        assert orbits(gens, d) == expected
        assert orbits([g.images for g in gens], d) == expected
    assert orbits([], 4) == [0, 1, 2, 3]


def test_chain_deterministic():
    gens = [transposition(5, 0, 1), cycle(5)]
    c1 = StabilizerChain(gens)
    c2 = StabilizerChain(gens)
    assert c1.base == c2.base
    assert c1.fundamental_orbits() == c2.fundamental_orbits()
    assert c1.strong_generators() == c2.strong_generators()


def test_chain_rejects_generators_of_mixed_degree():
    with pytest.raises(ValidationError, match="mixed degree"):
        StabilizerChain([cycle(4)], degree=3)
    with pytest.raises(ValidationError, match="mixed degree"):
        StabilizerChain([cycle(3), cycle(4)])


# -- chains from a known base and strong generating set ----------------------


def test_chain_from_strong_generators_random():
    # a Schreier-Sims chain's base and strong generators give the same
    # chain from orbits alone
    rng = random.Random(SEED + 8)
    for closure, gens in _random_groups(rng, 40):
        d = gens[0].degree
        full = StabilizerChain(gens, degree=d)
        chain = StabilizerChain.from_strong_generators(
            full.base, full.strong_generators(), d)
        assert chain.base == full.base
        assert chain.fundamental_orbits() == full.fundamental_orbits()
        assert chain.order() == len(closure)
        members = rng.sample(sorted(closure, key=lambda p: p.images),
                             min(len(closure), 40))
        for p in members + [random_perm(rng, d) for _ in range(20)]:
            assert chain.contains(p) == (p in closure)


def test_chain_sift_matches_explicit_transversals_random():
    # a Schreier vector keeps the first generator that reaches each orbit
    # point, so walking it strips the transversal element a breadth-first
    # pass would store: every residue, member or not, is that of the
    # explicit transversals
    rng = random.Random(SEED + 11)
    for closure, gens in _random_groups(rng, 30):
        d = gens[0].degree
        full = StabilizerChain(gens, degree=d)
        base, strong = full.base, full.strong_generators()
        chain = StabilizerChain.from_strong_generators(base, strong, d)
        for p in [random_perm(rng, d) for _ in range(20)]:
            assert chain.sift(p) == transversal_sift(base, strong, p)


def test_chain_matches_explicit_transversals_random():
    # Schreier-Sims over Schreier vectors traces the transversal elements a
    # chain holding them would store, so it finds the same residues: the
    # same base, orbits in discovery order, strong generators and sifts,
    # for every prefix of a generator list and for the list with two more
    rng = random.Random(SEED + 12)
    for closure, gens in _random_groups(rng, 40):
        d = gens[0].degree
        extra = [random_perm(rng, d) for _ in range(2)]
        for prefix in [gens[:i] for i in range(len(gens) + 1)] + [gens + extra]:
            chain, oracle = StabilizerChain(prefix, degree=d), TransversalChain(prefix, d)
            assert [level.orbit for level in chain._levels] == [
                level[2] for level in oracle.levels]
            assert chain.base == [level[0] for level in oracle.levels]
            assert chain.strong_generators() == oracle.strong_generators()
            for p in [random_perm(rng, d) for _ in range(10)]:
                assert chain.sift(p) == oracle.sift(p)[0]


def _assert_levels_match_pairs(base, strong, degree):
    """The chain from a strong generating set keeps, level by level, the
    base point, generators, orbit in discovery order and Schreier vector
    of the pass that tries every (orbit point, generator) pair."""
    chain = StabilizerChain.from_strong_generators(base, strong, degree)
    levels = [(level.point, level.gens, level.orbit, level.reached_by)
              for level in chain._levels]
    assert levels == schreier_levels_by_pairs(base, strong, degree)
    return chain


@pytest.mark.parametrize("m", [2, 3, 10, 57, 200])
def test_chain_levels_match_pairs_for_neighbour_swaps(m):
    # S_m from its m - 1 neighbour swaps, as given and relabeled by a
    # random permutation with the swaps in random order
    swaps = [transposition(m, i, i + 1) for i in range(m - 1)]
    chain = _assert_levels_match_pairs(range(m - 1), swaps, m)
    assert chain.order() == math.factorial(m)
    rng = random.Random(SEED + m)
    pi = random_perm(rng, m)
    moved = [pi.inverse().compose(g).compose(pi) for g in swaps]
    rng.shuffle(moved)
    chain = _assert_levels_match_pairs([pi(i) for i in range(m - 1)], moved, m)
    assert chain.order() == math.factorial(m)


def test_chain_levels_match_pairs_random():
    rng = random.Random(SEED + 9)
    for _, gens in _random_groups(rng, 40):
        full = StabilizerChain(gens, degree=gens[0].degree)
        _assert_levels_match_pairs(full.base, full.strong_generators(), full.degree)


def test_chain_from_strong_generators_drops_trivial_orbits():
    chain = StabilizerChain.from_strong_generators([2, 0, 1], [transposition(3, 0, 1)], 3)
    assert chain.base == [0]
    assert chain.fundamental_orbits() == [[0, 1]]
    assert chain.strong_generators() == [transposition(3, 0, 1)]
    assert StabilizerChain.from_strong_generators([0, 1, 2], [], 3).order() == 1
    with pytest.raises(ValidationError):
        StabilizerChain.from_strong_generators([0], [cycle(4)], 3)


@pytest.mark.parametrize("point", [-1, 3, 5, True, 1.0, "0"])
def test_chain_from_strong_generators_rejects_bad_base_points(point):
    # -1 made the sift walk loop forever, 5 raised a bare IndexError, and
    # True passed as the point 1
    with pytest.raises(ValidationError, match="base point"):
        StabilizerChain.from_strong_generators([point], [cycle(3)], 3)


def test_chain_from_strong_generators_rejects_a_weak_set():
    # (0 1) and (0 1 2) generate S3, but neither fixes 0, so base point 1
    # gets no level and the 3-cycle sifts to (1 2), not to the identity
    with pytest.raises(AssertionError):
        StabilizerChain.from_strong_generators(
            [0, 1], [transposition(3, 0, 1), cycle(3)], 3)


def test_chain_deep_schreier_tree():
    # one long cycle as the only generator reaches each orbit point from
    # the one before, so the Schreier tree is a path of depth 39 and the
    # sift of c^k walks k steps back to the base point
    c = cycle(40)
    closure = brute_force_closure([c])
    assert len(closure) == 40
    near = [transposition(40, 1, 2) * p for p in closure]
    rng = random.Random(SEED + 10)
    for chain in (StabilizerChain([c]),
                  StabilizerChain.from_strong_generators([0], [c], 40)):
        assert chain.base == [0] and chain.order() == 40
        level, = chain._levels
        assert level.orbit == list(range(40))
        assert level.reached_by[1:] == [0] * 39
        assert chain.strong_generators() == [c]
        for p in closure:
            assert chain.contains(p)
        for p in near + [random_perm(rng, 40) for _ in range(40)]:
            assert chain.contains(p) == (p in closure)
    # a path of depth 6 above the levels of S_7, on 8 points
    gens = [Permutation(cycle(7).images + (7,)), transposition(8, 0, 1)]
    closure = brute_force_closure(gens)
    assert len(closure) == 5040
    full = StabilizerChain(gens)
    assert full._levels[0].reached_by[:7] == [-1] + [0] * 6
    strong = StabilizerChain.from_strong_generators(full.base, full.strong_generators(), 8)
    members = rng.sample(sorted(closure, key=lambda p: p.images), 200)
    for chain in (full, strong):
        assert chain.order() == 5040
        for p in members + [random_perm(rng, 8) for _ in range(200)]:
            assert chain.contains(p) == (p in closure)


def _traced(build):
    """build() with the memory it allocates traced: its result, the peak
    of the traced memory and what stays allocated after gc.collect(),
    both above the memory traced before the call, in bytes."""
    tracing = tracemalloc.is_tracing()
    if tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        gc.collect()
        base_memory = tracemalloc.get_traced_memory()[0]
        result = build()
        peak = tracemalloc.get_traced_memory()[1] - base_memory
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base_memory
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak, retained


def test_chain_from_strong_generators_memory():
    # S_120 from its adjacent transpositions, base 0..118: 119 levels whose
    # orbits sum to 7259 points. A transversal and its inverse per orbit
    # point took 14.4 MB here; Schreier vectors over one list of generator
    # inverses take well under 2 MB
    gens = [transposition(120, i, i + 1) for i in range(119)]
    chain, peak, _ = _traced(
        lambda: StabilizerChain.from_strong_generators(range(119), gens, 120))
    assert chain.base == list(range(119))
    assert chain.order() == math.factorial(120)
    assert peak <= 2 * 2**20


def test_chain_keeps_no_construction_state():
    # S_60 from its adjacent transpositions: Schreier-Sims holds a
    # transversal element and its inverse per orbit point while it builds
    # (a peak near 2.1 MB), and the built chain only its Schreier vectors
    # and generators (near 0.11 MB)
    gens = [transposition(60, i, i + 1) for i in range(59)]
    chain, _, retained = _traced(lambda: StabilizerChain(gens))
    assert chain.order() == math.factorial(60)
    assert retained <= 2**20 // 2


# -- validation at the API boundary -------------------------------------------


def test_public_constructor_still_validates():
    for bad in ([0, 0, 1], [1, 2, 3], [0, 2], [], [0, "1"], [0.0, 1]):
        with pytest.raises(ValidationError):
            Permutation(bad)
    with pytest.raises(ValidationError):
        Permutation.identity(0)
    with pytest.raises(ValidationError):
        cycle(3).compose(cycle(4))


def test_internal_arithmetic_matches_validated_constructor():
    rng = random.Random(SEED + 7)
    for _ in range(50):
        d = rng.randint(1, 9)
        p, q = random_perm(rng, d), random_perm(rng, d)
        composite = p.compose(q)
        assert composite == Permutation([q(p(i)) for i in range(d)])
        assert type(composite.images) is tuple
        assert p.inverse() == Permutation(sorted(range(d), key=p))
        assert Permutation.identity(d) == Permutation(range(d))


def test_second_routes_not_exported():
    # isomorphism is read from certificates, refinement runs in the search,
    # the delta sets come from delta_family, edges from the rows, and label
    # maps are lifted by graphs._lift_label_maps alone
    import arrgraph
    from arrgraph import autsearch, graphs, indsets
    for module, name in [(arrgraph, "are_isomorphic"), (arrgraph, "equitable_refinement"),
                         (arrgraph, "delta_set"), (autsearch, "are_isomorphic"),
                         (autsearch, "equitable_refinement"), (autsearch, "OrderedPartition"),
                         (indsets, "delta_set"), (graphs.Graph, "edges"),
                         (graphs, "vertex_permutation"), (graphs, "apply_position_permutation"),
                         (graphs, "invert_tuple")]:
        assert not hasattr(module, name), name


def test_trusted_constructor_not_exported():
    import arrgraph
    assert not hasattr(arrgraph, "_trusted")
    assert all(not name.startswith("_trusted") for name in dir(arrgraph))
    assert "_trusted" not in getattr(arrgraph, "__all__", [])
