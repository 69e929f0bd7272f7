"""Induced actions, kernels, block systems, quotients, and the candidate
group on Cayley-graph vertices."""

import math

import pytest

from arrgraph.actions import (BlockSystem, block_violation, column_partition,
                              conjecture_candidate_group, induce_action,
                              kernel_order, minimal_block_system,
                              quotient_action, row_partition,
                              verify_block_system)
from arrgraph.autsearch import automorphism_group
from arrgraph.config import Config
from arrgraph.errors import (ArrgraphError, FamilyError,
                             IntransitiveActionError, ValidationError)
from arrgraph.graphs import (apply_position_permutation, apply_value_permutation,
                             build_arrangement_graph, build_cayley_graph,
                             is_automorphism, vertex_permutation)
from arrgraph.indsets import delta_family
from arrgraph.perms import (Permutation, build_stabilizer_chain, connection_set,
                            symmetric_group_generators, transposition)
from oracles import brute_force_closure


def omega(n, k):
    return [s for _, s in delta_family(n, k)]


def fam_index(n, k, i, j):
    return i * k + j


# -- induced actions ----------------------------------------------------------


def test_induce_action_value_swap():
    # P((1 2)) swaps Delta_{1j} <-> Delta_{2j}, fixes Delta_{3j}, Delta_{4j}
    g = build_arrangement_graph(4, 2, 2)
    swap = transposition(4, 0, 1)
    vp = vertex_permutation(g, lambda t: apply_value_permutation(swap, t))
    action = induce_action([vp], omega(4, 2))
    mover = action.movers[0]
    for j in range(2):
        assert mover(fam_index(4, 2, 0, j)) == fam_index(4, 2, 1, j)
        assert mover(fam_index(4, 2, 1, j)) == fam_index(4, 2, 0, j)
        assert mover(fam_index(4, 2, 2, j)) == fam_index(4, 2, 2, j)
        assert mover(fam_index(4, 2, 3, j)) == fam_index(4, 2, 3, j)


def test_induce_action_position_swap():
    # Q((1 2)) swaps Delta_{i1} <-> Delta_{i2} for every i
    g = build_arrangement_graph(4, 2, 2)
    swap = transposition(2, 0, 1)
    vq = vertex_permutation(g, lambda t: apply_position_permutation(swap, t))
    mover = induce_action([vq], omega(4, 2)).movers[0]
    for i in range(4):
        assert mover(fam_index(4, 2, i, 0)) == fam_index(4, 2, i, 1)
        assert mover(fam_index(4, 2, i, 1)) == fam_index(4, 2, i, 0)


def test_induce_action_identity():
    fam = omega(4, 2)
    action = induce_action([Permutation.identity(12)], fam)
    assert action.movers[0].is_identity()


def test_induce_action_setwise_images_exact():
    g = build_arrangement_graph(4, 3, 3)
    fam = omega(4, 3)
    aut = automorphism_group(g)
    action = induce_action(aut.generators, fam)
    for gen, mover in zip(aut.generators, action.movers):
        for idx, s in enumerate(fam):
            assert frozenset(gen(v) for v in s) == fam[mover(idx)]


def test_induce_action_rejects_non_invariant_family():
    fam = omega(4, 2)
    # a vertex transposition moving part of Delta_{1,1} out of the family
    bad = transposition(12, 0, 4)
    with pytest.raises(FamilyError):
        induce_action([bad], fam)


# -- kernels ------------------------------------------------------------------


def closure_kernel_order(aut, family):
    """Kernel order counted over every element of the group."""
    group = brute_force_closure(aut.generators, degree=aut.chain.degree)
    assert len(group) == aut.order
    return sum(1 for p in group
               if all(frozenset(p(v) for v in s) == s for s in family))


def test_kernel_a422_trivial():
    aut = automorphism_group(build_arrangement_graph(4, 2, 2))
    action = induce_action(aut.generators, omega(4, 2))
    assert kernel_order(aut.order, action) == closure_kernel_order(aut, omega(4, 2)) == 1


def test_kernel_a333_trivial():
    aut = automorphism_group(build_arrangement_graph(3, 3, 3))
    assert aut.order == 72
    action = induce_action(aut.generators, omega(3, 3))
    assert kernel_order(aut.order, action) == closure_kernel_order(aut, omega(3, 3)) == 1


def test_kernel_nontrivial_matches_closure():
    # on the sets "tuples containing value i" the position swap of A(4,2,2)
    # acts trivially, so the kernel has order k! = 2
    g = build_arrangement_graph(4, 2, 2)
    aut = automorphism_group(g)
    family = [frozenset(v for v in range(g.vertex_count) if i in g.labels[v])
              for i in range(4)]
    action = induce_action(aut.generators, family)
    assert kernel_order(aut.order, action) == closure_kernel_order(aut, family) == 2


def test_kernel_trivial_group():
    assert kernel_order(1, induce_action([], omega(4, 2))) == 1


def test_kernel_order_rejects_non_divisor():
    # the image of a group of order 5 cannot have order 2
    action = induce_action([transposition(4, 0, 1)], [frozenset([i]) for i in range(4)])
    with pytest.raises(ArrgraphError):
        kernel_order(5, action)


# -- block systems ------------------------------------------------------------


def full_action(n, k):
    g = build_arrangement_graph(n, k, k)
    aut = automorphism_group(g)
    return induce_action(aut.generators, omega(n, k))


def test_minimal_block_system_sigma():
    action = full_action(4, 2)
    # seed (Delta_11, Delta_12) -> the row system, 4 blocks of size 2
    blocks = minimal_block_system(action, (fam_index(4, 2, 0, 0), fam_index(4, 2, 0, 1)))
    assert blocks == row_partition(4, 2)
    assert len(blocks.blocks) == 4 and all(len(b) == 2 for b in blocks.blocks)


def test_minimal_block_system_sigma_prime():
    action = full_action(4, 2)
    # seed (Delta_11, Delta_21) -> the column system, 2 blocks of size 4
    blocks = minimal_block_system(action, (fam_index(4, 2, 0, 0), fam_index(4, 2, 1, 0)))
    assert blocks == column_partition(4, 2)
    assert len(blocks.blocks) == 2 and all(len(b) == 4 for b in blocks.blocks)


def test_minimal_block_system_primitive_action():
    # the full symmetric group acting on the family gives one block
    m = 6
    fam = [frozenset([i]) for i in range(m)]
    action = induce_action(symmetric_group_generators(m), fam)
    blocks = minimal_block_system(action, (0, 3))
    assert len(blocks.blocks) == 1


def test_minimal_block_system_requires_transitive():
    fam = [frozenset([i]) for i in range(4)]
    action = induce_action([transposition(4, 0, 1)], fam)
    with pytest.raises(IntransitiveActionError):
        minimal_block_system(action, (0, 1))


def test_minimal_block_system_outputs_verify():
    action = full_action(4, 3)
    for seed in [(0, 1), (0, 3), (1, 5)]:
        blocks = minimal_block_system(action, seed)
        assert verify_block_system(action, blocks)


def test_verify_block_system_examples():
    for n, k in [(4, 2), (4, 3), (5, 2)]:
        action = full_action(n, k)
        assert verify_block_system(action, row_partition(n, k))
        assert verify_block_system(action, column_partition(n, k))


def test_verify_block_system_negative():
    action = full_action(4, 2)
    unbalanced = BlockSystem.from_blocks([[0], list(range(1, 8))])
    assert not verify_block_system(action, unbalanced)


def test_verify_block_system_rejects_non_partition():
    action = full_action(4, 2)
    with pytest.raises(ValidationError):
        verify_block_system(action, BlockSystem.from_blocks([[0, 1], [1, 2]]))


# -- quotients ----------------------------------------------------------------


def test_quotient_by_sigma():
    action = full_action(4, 2)
    quotient, qorder, korder = quotient_action(action, row_partition(4, 2))
    assert qorder == 24 and korder == 2
    assert len(quotient.family) == 4


def test_quotient_by_trivial_system():
    action = full_action(4, 2)
    one_block = BlockSystem.from_blocks([list(range(8))])
    _, qorder, korder = quotient_action(action, one_block)
    assert qorder == 1
    assert korder == build_stabilizer_chain(list(action.movers), degree=8).order()


def test_quotient_rejects_non_block_system():
    action = full_action(4, 2)
    bad = BlockSystem.from_blocks([[0], list(range(1, 8))])
    with pytest.raises(ValidationError):
        quotient_action(action, bad)


def test_quotient_orders_match_lemma():
    for n, k in [(4, 2), (4, 3), (5, 2)]:
        action = full_action(n, k)
        _, qorder, korder = quotient_action(action, row_partition(n, k))
        assert qorder == math.factorial(n)
        assert korder == math.factorial(k)


def test_k_equals_n_inversion_violates_blocks():
    # under P x Q both partitions are block systems; the inversion map breaks
    # the block property
    from arrgraph.graphs import candidate_aut_generators
    g = build_arrangement_graph(4, 4, 4)
    gens = candidate_aut_generators(4, 4, 4, g)
    fam = omega(4, 4)
    pq = induce_action(gens[:-1], fam)
    assert verify_block_system(pq, row_partition(4, 4))
    assert verify_block_system(pq, column_partition(4, 4))
    h_action = induce_action([gens[-1]], fam)
    mover = h_action.movers[0]
    blocks = [frozenset(b) for b in row_partition(4, 4).blocks]
    # every (block, image, overlapping block) the inversion gives, in search order
    witnesses = [(0, block, img, other) for block in blocks
                 for img in [frozenset(mover(x) for x in block)]
                 for other in blocks if img & other and img != other]
    assert witnesses
    assert block_violation(h_action, row_partition(4, 4)) == witnesses[0]
    assert block_violation(pq, row_partition(4, 4)) is None


# -- conjecture candidate group -----------------------------------------------


def test_candidate_group_orders():
    for n, expected in [(3, 72), (4, 1152)]:
        gens = conjecture_candidate_group(n)
        order = build_stabilizer_chain(gens, degree=math.factorial(n)).order()
        assert order == expected == 2 * math.factorial(n) ** 2


def test_candidate_group_preserves_cay_s4_t():
    g = build_cayley_graph(4, connection_set(4, "transpositions"))
    for gen in conjecture_candidate_group(4):
        assert is_automorphism(g, gen)


def test_candidate_group_needs_n_at_least_3():
    with pytest.raises(ValidationError):
        conjecture_candidate_group(2)


def test_candidate_group_vertex_guard():
    assert len(conjecture_candidate_group(5, Config(vertex_guard=120))) == 5
    with pytest.raises(ValidationError, match="over the vertex guard"):
        conjecture_candidate_group(5, Config(vertex_guard=119))
