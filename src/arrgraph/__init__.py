"""Arrangement graphs A(n,k,r), Cayley graphs on symmetric groups, their
full automorphism groups, maximum independent sets, block systems, and a
desk-scale verification suite for the structural claims relating them."""

from .actions import (ActionOnSets, BlockSystem, block_violation, induce_action,
                      kernel_order, quotient_action, verify_block_system)
from .autsearch import AutResult, automorphism_group
from .config import Config
from .errors import ArrgraphError, BudgetError, FamilyError, ValidationError
from .graphs import (Graph, build_arrangement_graph, build_cayley_graph,
                     candidate_aut_generators, is_automorphism)
from .indsets import delta_family, max_independent_sets
from .perms import ConnectionSet, Permutation, StabilizerChain, connection_set
from .suite import (ClaimReport, ReportDocument, run_full_suite,
                    test_conjecture, verify_prop_2_6, verify_section3_iso,
                    verify_theorem_1_2)

__version__ = "0.1.0"
