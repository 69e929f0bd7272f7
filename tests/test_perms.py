"""Permutation arithmetic, connection sets, and stabilizer chains."""

import itertools
import math
import random

import pytest

from arrgraph.errors import BudgetError, ValidationError
from arrgraph.config import Config
from arrgraph.perms import (ConnectionSet, Permutation, build_stabilizer_chain,
                            check_symmetric_group_size, connection_set, cycle,
                            transposition)
from oracles import brute_force_closure

SEED = 20240811


def P1(*one_based):
    return Permutation.from_one_based(one_based)


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
    for bad in ([0, 0, 1], [1, 2, 3], [0, 2], []):
        with pytest.raises(ValidationError):
            Permutation(bad)


def test_one_based_round_trip():
    p = P1(3, 1, 4, 2)
    assert p.images == (2, 0, 3, 1)
    assert p.to_one_based() == [3, 1, 4, 2]


def test_fixed_point_count():
    assert Permutation.identity(4).fixed_point_count() == 4
    assert P1(2, 1, 3, 4).fixed_point_count() == 2
    assert P1(2, 3, 1, 4).fixed_point_count() == 1


def test_parity_matches_transposition_decomposition():
    # oracle: parity of a product of t transpositions is t mod 2
    rng = random.Random(SEED + 3)
    for _ in range(100):
        d = rng.randint(2, 7)
        t = rng.randint(0, 6)
        p = Permutation.identity(d)
        for _ in range(t):
            a, b = rng.sample(range(d), 2)
            p = p.compose(transposition(d, a, b))
        assert p.parity() == t % 2


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
        assert all(p.fixed_point_count() == n - 2 for p in t.elements)
        d = connection_set(n, "derangements")
        assert all(p.fixed_point_count() == 0 for p in d.elements)
        for f in range(0, n - 1):
            fk = connection_set(n, "fixed", f)
            assert all(p.fixed_point_count() == f for p in fk.elements)
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
    check_symmetric_group_size(5, small)
    assert len(connection_set(5, "transpositions", None, small)) == 10
    for n in (6, 10**9):  # n! is never formed past the guard
        with pytest.raises(ValidationError, match="over the vertex guard"):
            check_symmetric_group_size(n, small)
    with pytest.raises(ValidationError, match="over the vertex guard"):
        connection_set(6, "fixed", 1, small)


def test_connection_set_invariants_enforced():
    with pytest.raises(ValidationError):
        ConnectionSet(3, "transpositions", None,
                      frozenset([Permutation.identity(3)]))
    with pytest.raises(ValidationError):
        # a lone 3-cycle is not inverse-closed
        ConnectionSet(3, "derangements", None, frozenset([P1(2, 3, 1)]))


# -- stabilizer chains --------------------------------------------------------


def test_chain_order_s4():
    chain = build_stabilizer_chain([transposition(4, 0, 1), cycle(4)])
    assert chain.order() == 24


def test_chain_empty_generators_is_trivial_group():
    chain = build_stabilizer_chain([], degree=5)
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
    chain = build_stabilizer_chain(three_cycles)
    assert chain.order() == 12


def test_chain_invariants():
    groups = [[transposition(5, 0, 1), cycle(5)]]
    groups += [gens for _, gens in _random_groups(random.Random(SEED + 8), 10)]
    for gens in groups:
        chain = build_stabilizer_chain(gens)
        orbits = chain.fundamental_orbits()
        assert math.prod(len(o) for o in orbits) == chain.order()
        base = chain.base
        for i, level in enumerate(chain._levels):
            orbit = set(level.orbit)
            assert level.point == base[i] and sorted(orbit) == orbits[i]
            for g in level.gens:
                assert all(g[b] == b for b in base[:i])
                assert {g[x] for x in orbit} == orbit
    assert build_stabilizer_chain(groups[0]).order() == 120


def test_chain_membership():
    chain = build_stabilizer_chain([transposition(4, 0, 1), cycle(4)])
    rng = random.Random(SEED + 4)
    for _ in range(20):
        assert chain.contains(random_perm(rng, 4))
    a4 = build_stabilizer_chain([P1(2, 3, 1, 4), P1(1, 3, 4, 2)])
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
        chain = build_stabilizer_chain(gens, degree=d)
        assert chain.order() == len(closure)
        members = rng.sample(sorted(closure, key=lambda p: p.images),
                             min(len(closure), 40))
        for p in members + [random_perm(rng, d) for _ in range(40)]:
            assert chain.contains(p) == (p in closure)


def test_chain_deterministic():
    gens = [transposition(5, 0, 1), cycle(5)]
    c1 = build_stabilizer_chain(gens)
    c2 = build_stabilizer_chain(gens)
    assert c1.base == c2.base
    assert c1.fundamental_orbits() == c2.fundamental_orbits()
    assert c1.strong_generators() == c2.strong_generators()


def test_chain_add_generator_is_incremental():
    rng = random.Random(SEED + 6)
    for _ in range(20):
        d = rng.randint(2, 7)
        gens = [random_perm(rng, d) for _ in range(rng.randint(1, 4))]
        batch = build_stabilizer_chain(gens, degree=d)
        chain = build_stabilizer_chain([], degree=d)
        for g in gens:
            was_member = chain.contains(g)
            assert chain.add_generator(g) is not was_member
            assert not chain.add_generator(g)  # now a member: no change
        assert chain.base == batch.base
        assert chain.fundamental_orbits() == batch.fundamental_orbits()
        assert chain.strong_generators() == batch.strong_generators()
    with pytest.raises(ValidationError):
        build_stabilizer_chain([], degree=3).add_generator(cycle(4))


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


def test_trusted_constructor_not_exported():
    import arrgraph
    assert not hasattr(arrgraph, "_trusted")
    assert all(not name.startswith("_trusted") for name in dir(arrgraph))
    assert "_trusted" not in getattr(arrgraph, "__all__", [])
