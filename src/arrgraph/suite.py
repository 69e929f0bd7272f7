"""End-to-end verification of every claim at desk scale.

Each claim produces a ClaimReport; expected values are always evaluated at
runtime from the closed-form formulas (n!k!, 2*n!*n!, (n-1)!/(n-k)!, n*k),
never hard-coded from a previous computation. Claims marked exploratory
carry no expectation: their verdict is the experiment's output.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from .actions import (ActionOnSets, block_violation, column_partition, induce_action,
                      kernel_order, quotient_action, row_partition, verify_block_system)
from .autsearch import AutResult, automorphism_group
from .config import Config, DEFAULT_CONFIG
from .errors import ValidationError
from .graphs import (Graph, build_arrangement_graph, build_cayley_graph,
                     candidate_aut_generators, is_automorphism)
from .indsets import ENUMERATE_ALL, delta_family, max_independent_sets
from .perms import Permutation, _require_ints, connection_set

CASE_RKLTN = "r=k<n"
CASE_RKN = "r=k=n"
CASE_R2KN = "r=2,k=n"


@dataclass
class ClaimReport:
    claim_id: str
    expected: Optional[object]
    computed: Optional[object]
    passed: Optional[bool]  # None = exploratory / record-only
    exploratory: bool = False
    wall_time: float = 0.0
    details: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)  # the claim's arguments, set by _claim

    def to_json_obj(self) -> dict:
        return {
            "claim": self.claim_id,
            "params": self.params,
            "expected": self.expected,
            "computed": self.computed,
            "passed": self.passed,
            "exploratory": self.exploratory,
            "wall_time": round(self.wall_time, 3),
            "details": self.details,
        }


@dataclass
class ReportDocument:
    claims: list[ClaimReport]

    def all_expected_pass(self) -> bool:
        return all(c.passed for c in self.claims if not c.exploratory)

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(c.to_json_obj(), sort_keys=True, separators=(",", ":")) + "\n"
            for c in self.claims)

    def summary_text(self) -> str:
        rows = []
        for c in self.claims:
            verdict = ("PASS" if c.passed else "FAIL") if c.passed is not None else "RECORDED"
            rows.append((c.claim_id, str(c.expected), str(c.computed), verdict,
                         f"{c.wall_time:.2f}s"))
        header = ("claim", "expected", "computed", "verdict", "time")
        widths = [max(len(r[i]) for r in rows + [header]) for i in range(5)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)),
                 "  ".join("-" * w for w in widths)]
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        n_fail = sum(1 for c in self.claims if c.passed is False)
        n_pass = sum(1 for c in self.claims if c.passed is True)
        n_rec = sum(1 for c in self.claims if c.passed is None)
        lines.append("")
        lines.append(f"{n_pass} passed, {n_fail} failed, {n_rec} recorded")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _Search:
    """The automorphism search of a copy of a graph whose vertex v sits at
    index shuffle(v); claims speak about the plain labelling."""

    shuffle: Permutation
    aut: AutResult
    unshuffle: Permutation = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "unshuffle", self.shuffle.inverse())

    def contains(self, g: Permutation) -> bool:
        """Whether the plain-labelled vertex permutation g is an automorphism."""
        return self.aut.chain.contains(self.unshuffle * g * self.shuffle)


def _shuffled(graph: Graph, rng: random.Random, config: Config) -> _Search:
    images = list(range(graph.vertex_count))
    rng.shuffle(images)
    shuffle = Permutation(images)
    return _Search(shuffle, automorphism_group(graph.relabeled(shuffle), config))


class Context:
    """The config of a group of claims and the graphs, searches and groups
    they read, each made once. The suite makes one per job, so a job's
    graphs and chains are freed when the job ends; a claim called without
    one gets a fresh one."""

    def __init__(self, config: Config = DEFAULT_CONFIG):
        self.config = config
        self._made: dict = {}

    def _once(self, key, make):
        if key not in self._made:
            self._made[key] = make()
        return self._made[key]

    def arrangement(self, n: int, k: int, r: int) -> Graph:
        return self._once(("arr", n, k, r),
                          lambda: build_arrangement_graph(n, k, r, self.config))

    def cayley(self, n: int, fixed: int) -> Graph:
        return self._once(("cay", n, fixed), lambda: build_cayley_graph(
            n, connection_set(n, "fixed", fixed, self.config), self.config))

    def shuffled_iso(self, n: int, fixed: int) -> tuple[_Search, _Search]:
        """Searches of shuffled copies of A(n,n,n-fixed) and Cay(S_n,F_fixed),
        both drawn from the sec3 claim's stream. They are the only searches
        of these graphs in a context: every claim about either graph reads
        its group from here, whichever claim ran first."""
        def search():
            rng = random.Random(f"{self.config.seed}:sec3/iso/n={n}/fixed={fixed}")
            return (_shuffled(self.arrangement(n, n, n - fixed), rng, self.config),
                    _shuffled(self.cayley(n, fixed), rng, self.config))

        return self._once(("iso", n, fixed), search)

    def group(self, n: int, k: int, r: int) -> _Search:
        """The search standing for Aut(A(n,k,r)): for k = n the shuffled copy
        of the sec3 class fixed = n - r, for k < n a search of the plain graph."""
        if k == n:
            return self.shuffled_iso(n, n - r)[0]

        def search():
            graph = self.arrangement(n, k, r)
            return _Search(Permutation.identity(graph.vertex_count),
                           automorphism_group(graph, self.config))

        return self._once(("aut", n, k, r), search)

    def candidates(self, n: int, k: int, r: int) -> tuple[list[Permutation], ActionOnSets]:
        """The generators of the candidate group of Aut(A(n,k,r)), lifted
        and verified on A(n,k,r), and the group's action on the delta
        family, in family order. They are the same vertex permutations for
        every r, and for k = n on Cay(S_n, F_f) too, whose labels are those
        of A(n,n,n-f); so they are made once per (n, k), on the graph of
        the first r asked for, which the claim asking holds already.

        The action is faithful, so its image_order is the group's order: a
        tuple t is the only vertex in every D_{t[j],j}, so a permutation
        fixing each delta set fixes every vertex. Its chain has degree
        n*k, not the vertex count."""
        def lift():
            generators = candidate_aut_generators(n, k, self.arrangement(n, k, r))
            family = [s for _, s in delta_family(n, k, self.config)]
            return generators, induce_action(generators, family)

        return self._once(("cand", n, k), lift)

    def action(self, n: int, k: int) -> ActionOnSets:
        """The action of Aut(A(n,k,k)) on the delta family as the searched
        copy labels it, in family order."""
        def induce():
            search = self.group(n, k, k)
            family = [frozenset(map(search.shuffle, s))
                      for _, s in delta_family(n, k, self.config)]
            return induce_action(search.aut.generators, family)

        return self._once(("action", n, k), induce)


def clear_cache() -> None:
    """Does nothing: there is no state beyond a context. Kept only for its one
    caller, the `verify` workload of perfbench/workloads.py."""


def _labels(indexes, k: int) -> list[str]:
    """Labels D_i_j (1-based) of delta family indexes, in index order."""
    return [f"D_{x // k + 1}_{x % k + 1}" for x in sorted(indexes)]


# --------------------------------------------------------------------------
# individual claims


def _require(claim: str, n: int, k: int, k_max: int) -> None:
    """The paper's range for a claim about A(n,k,k): n > 2 and 1 <= k <= k_max."""
    if n <= 2 or not 1 <= k <= k_max:
        k_range = "1 <= k <= n" if k_max == n else "1 <= k < n"
        raise ValidationError(f"{claim} requires n > 2 and {k_range}, got n={n} k={k}")


def _claim(check):
    """The claim `check` on exact-int arguments, given by position or by
    name, timed, with a fresh context when called without one, and with
    those arguments as its report's params. Missing, extra or unknown
    arguments raise ValidationError."""
    signature = inspect.signature(check)

    @functools.wraps(check)
    def claim(*args, ctx: Optional[Context] = None, **kwargs) -> ClaimReport:
        try:
            params = signature.bind(*args, ctx=ctx, **kwargs).arguments
        except TypeError as exc:
            raise ValidationError(f"{check.__name__}: {exc}") from None
        del params["ctx"]
        _require_ints(**params)
        t0 = time.perf_counter()
        report = check(**params, ctx=ctx or Context())
        report.wall_time = time.perf_counter() - t0
        report.params = params
        return report

    return claim


@_claim
def verify_theorem_1_2(n: int, k: int, r: int, *, ctx: Context) -> ClaimReport:
    """Exact automorphism group order and explicit-generator containment for
    one of the three solved cases."""
    if n <= 2:
        raise ValidationError("the theorem requires n > 2")
    if r == k < n:
        case, expected = CASE_RKLTN, math.factorial(n) * math.factorial(k)
    elif r == k == n:
        case, expected = CASE_RKN, 2 * math.factorial(n) ** 2
    elif r == 2 and k == n:
        case, expected = CASE_R2KN, 2 * math.factorial(n) ** 2
    else:
        raise ValidationError(f"(n,k,r)=({n},{k},{r}) is outside the solved cases")
    claim_id = f"thm1.2/{case}/n={n}/k={k}"
    search = ctx.group(n, k, r)
    aut = search.aut
    # the chain is generated by verified automorphisms, so a candidate
    # that is none of A(n,k,r)'s is not contained and the claim fails
    candidates, action = ctx.candidates(n, k, r)
    cand_order = action.image_order
    contained = all(search.contains(g) for g in candidates)
    return ClaimReport(
        claim_id=claim_id,
        expected=expected,
        computed=aut.order,
        passed=(aut.order == expected and contained and cand_order == expected),
        details={"candidate_order": cand_order,
                 "candidates_contained": contained,
                 "generator_count": len(aut.generators)},
    )


@_claim
def verify_prop_2_1(n: int, k: int, *, ctx: Context) -> ClaimReport:
    """Maximum independent sets of A(n,k,k) are exactly the delta family:
    independence number (n-1)!/(n-k)!, count n*k, and setwise equality."""
    _require("prop2.1", n, k, n)
    claim_id = f"prop2.1/n={n}/k={k}"
    graph = ctx.arrangement(n, k, k)
    family = sorted(sorted(s) for _, s in delta_family(n, k, ctx.config))
    size, sets = max_independent_sets(graph, ENUMERATE_ALL, ctx.config)
    expected = {"size": math.factorial(n - 1) // math.factorial(n - k), "count": n * k}
    computed = {"size": size, "count": len(sets)}
    return ClaimReport(
        claim_id=claim_id,
        expected=expected,
        computed=computed,
        passed=computed == expected and sets == family,
        details={"sets_match_family": sets == family},
    )


@_claim
def verify_prop_2_2(n: int, k: int, *, ctx: Context) -> ClaimReport:
    """The kernel of the induced action of Aut(A(n,k,k)) on the delta family
    is trivial."""
    _require("prop2.2", n, k, n)
    claim_id = f"prop2.2/n={n}/k={k}"
    search = ctx.group(n, k, k)
    kernel = kernel_order(search.aut.order, ctx.action(n, k))
    return ClaimReport(
        claim_id=claim_id,
        expected=1,
        computed=kernel,
        passed=(kernel == 1),
        details={"group_order": search.aut.order},
    )


@_claim
def verify_blocks(n: int, k: int, *, ctx: Context) -> ClaimReport:
    """Row and column partitions of the delta family are block systems.

    For k < n this is checked under the full automorphism group. For k = n
    it is checked under the value/position relabeling subgroup, and the
    report additionally records an explicit violation of the block property
    under the tuple-inversion map (searched for, not assumed)."""
    _require("blocks", n, k, n)
    claim_id = f"blocks/n={n}/k={k}"
    sigma = row_partition(n, k)
    sigma_prime = column_partition(n, k)
    details: dict = {"sigma": [_labels(b, k) for b in sigma.blocks],
                     "sigma_prime": [_labels(b, k) for b in sigma_prime.blocks]}
    if k < n:
        action = ctx.action(n, k)
        sigma_ok = verify_block_system(action, sigma)
        sigma_prime_ok = verify_block_system(action, sigma_prime)
    else:
        # the candidates end with the inversion, after the relabelings
        action = ctx.candidates(n, n, n)[1]
        pq_action = ActionOnSets(action.family, action.movers[:-1])
        sigma_ok = verify_block_system(pq_action, sigma)
        sigma_prime_ok = verify_block_system(pq_action, sigma_prime)
        witness = block_violation(ActionOnSets(action.family, action.movers[-1:]), sigma)
        details["inversion_violation"] = None
        if witness is not None:
            mover, block, image, overlaps = witness
            details["inversion_violation"] = {
                "mover": mover, "block": _labels(block, k),
                "image": _labels(image, k), "overlaps": _labels(overlaps, k)}
    return ClaimReport(
        claim_id=claim_id,
        expected={"sigma": True, "sigma_prime": True},
        computed={"sigma": sigma_ok, "sigma_prime": sigma_prime_ok},
        passed=sigma_ok and sigma_prime_ok,
        details=details,
    )


@_claim
def verify_lemma_2_5(n: int, k: int, *, ctx: Context) -> ClaimReport:
    """For k < n: the action on the row blocks has order n! and the kernel
    of the quotient map has order k!."""
    _require("lemma2.5", n, k, n - 1)
    claim_id = f"lemma2.5/n={n}/k={k}"
    _, quotient_order, kernel_order = quotient_action(ctx.action(n, k), row_partition(n, k))
    expected = {"quotient": math.factorial(n), "kernel": math.factorial(k)}
    computed = {"quotient": quotient_order, "kernel": kernel_order}
    return ClaimReport(
        claim_id=claim_id,
        expected=expected,
        computed=computed,
        passed=(computed == expected),
        details={},
    )


@_claim
def verify_prop_2_6(n: int, *, ctx: Context) -> ClaimReport:
    """Cay(S_n,T) is isomorphic to A(n,n,2) and Cay(S_n,D) to A(n,n,n),
    checked by certificates on independently shuffled copies plus the
    explicit tuple<->permutation witness. T and D are F_{n-2} and F_0, so
    the shuffled searches are those of the matching sec3 claims."""
    if n <= 2:
        raise ValidationError("requires n > 2")
    claim_id = f"prop2.6/n={n}"
    results = {}
    for kind, fixed in (("transpositions", n - 2), ("derangements", 0)):
        # the one-line vertex order makes the tuple<->permutation bijection
        # the identity on indexes, so it is a witness iff adjacency agrees;
        # both builders share graphs._translate_rows, and the tests compare
        # each with an oracle that makes every row on its own
        witness_ok = (ctx.arrangement(n, n, n - fixed).adjacency
                      == ctx.cayley(n, fixed).adjacency)
        arr, cay = ctx.shuffled_iso(n, fixed)
        results[kind] = {"certificates_equal": arr.aut.certificate == cay.aut.certificate,
                         "psi_witness": witness_ok}
    passed = all(v["certificates_equal"] and v["psi_witness"] for v in results.values())
    return ClaimReport(
        claim_id=claim_id,
        expected={"transpositions": True, "derangements": True},
        computed={kind: v["certificates_equal"] for kind, v in results.items()},
        passed=passed,
        details=results,
    )


@_claim
def verify_section3_iso(n: int, fixed: int, *, ctx: Context) -> ClaimReport:
    """Cay(S_n, F_fixed) is isomorphic to A(n,n,n-fixed), by certificate
    equality on independently shuffled copies."""
    if n <= 2 or not 0 <= fixed <= n - 2:
        raise ValidationError(f"need n > 2 and 0 <= fixed <= n-2, got n={n} fixed={fixed}")
    claim_id = f"sec3/iso/n={n}/fixed={fixed}"
    arr, cay = ctx.shuffled_iso(n, fixed)
    iso = arr.aut.certificate == cay.aut.certificate
    return ClaimReport(
        claim_id=claim_id,
        expected=True,
        computed=iso,
        passed=iso,
        details={},
    )


@_claim
def test_conjecture(n: int, fixed: int, *, ctx: Context) -> ClaimReport:
    """Probe the conjectured automorphism group of Cay(S_n, F_fixed).

    The candidate group [R(S_n) x Inn(S_n)] x Z_2 is generated by the thm1.2
    families of A(n,n,n-fixed) read on the Cayley labels: value relabelings
    are right multiplications, position relabelings left ones, and with
    both they give the conjugations. That its generators preserve the
    Cayley graph, its order and its containment in the computed group are
    always checked; equality is asserted only for the two anchored cases
    fixed = 0 and fixed = n-2 (transpositions and derangements). For
    intermediate values the verdict is recorded, not enforced."""
    if n <= 2 or not 0 <= fixed <= n - 2:
        raise ValidationError(f"need n > 2 and 0 <= fixed <= n-2, got n={n} fixed={fixed}")
    claim_id = f"conj3.1/n={n}/fixed={fixed}"
    anchored = fixed in (0, n - 2)
    graph = ctx.cayley(n, fixed)
    expected_candidate = 2 * math.factorial(n) ** 2
    candidates, action = ctx.candidates(n, n, n - fixed)
    cand_order = action.image_order
    preserves = all(is_automorphism(graph, g) for g in candidates)
    details = {
        "candidate_order": cand_order,
        "candidate_order_expected": expected_candidate,
        "candidate_preserves_graph": preserves,
        "connected": graph.is_connected(),
    }
    search = ctx.shuffled_iso(n, fixed)[1]
    aut = search.aut
    contained = all(search.contains(g) for g in candidates)
    equal = aut.order == cand_order and contained
    details.update({"aut_order": aut.order, "candidates_contained": contained,
                    "conjecture_holds": equal})
    passed: Optional[bool]
    if anchored:
        passed = (preserves and equal and cand_order == expected_candidate)
    else:
        passed = None
    return ClaimReport(
        claim_id=claim_id,
        expected=(expected_candidate if anchored else None),
        computed=aut.order,
        passed=passed,
        exploratory=not anchored,
        details=details,
    )


# --------------------------------------------------------------------------
# the full suite


def _job_claims(job: tuple, config: Config) -> list[ClaimReport]:
    """The claims of one job, in one context. A job holds every claim that
    reads its searches, so each graph is searched once per run whatever the
    worker count, and the job's graphs and searches are freed when it ends."""
    kind, n, arg = job
    ctx = Context(config)
    if kind == "akk":
        return [verify_theorem_1_2(n, arg, arg, ctx=ctx), verify_prop_2_1(n, arg, ctx=ctx),
                verify_prop_2_2(n, arg, ctx=ctx), verify_blocks(n, arg, ctx=ctx),
                verify_lemma_2_5(n, arg, ctx=ctx)]
    out = []
    for fixed in arg:
        out += [verify_section3_iso(n, fixed, ctx=ctx), test_conjecture(n, fixed, ctx=ctx)]
    if kind == "knn":
        # the k = n claims read the searches of fixed = 0 and fixed = n-2
        out += [verify_theorem_1_2(n, n, n, ctx=ctx), verify_theorem_1_2(n, n, 2, ctx=ctx),
                verify_prop_2_1(n, n, ctx=ctx), verify_prop_2_2(n, n, ctx=ctx),
                verify_blocks(n, n, ctx=ctx), verify_prop_2_6(n, ctx=ctx)]
    return out


def suite_jobs(n_max: int) -> list[tuple]:
    if not 3 <= n_max <= 6:
        raise ValidationError(f"n_max must be between 3 and 6, got {n_max}")
    jobs: list[tuple] = []
    for n in range(3, n_max + 1):
        jobs += [("akk", n, k) for k in range(1, n)]
        jobs.append(("knn", n, (0, n - 2)))
        jobs += [("fixed", n, (fixed,)) for fixed in range(1, n - 2)]
    return jobs


def run_full_suite(n_max: int = 5, config: Config = DEFAULT_CONFIG) -> ReportDocument:
    """Run every claim for all admissible parameters up to n_max.

    Individual claim failures are collected, never fatal; the document's
    all_expected_pass() reflects only claims that carry an expectation."""
    jobs = suite_jobs(n_max)
    # a fork pool starts all its workers at once, so never more than can run
    workers = min(config.workers, os.cpu_count() or 1, len(jobs))
    if workers > 1:
        # imported here, as most of the package's import time goes to it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_job_claims, jobs, [config] * len(jobs)))
    else:
        results = [_job_claims(job, config) for job in jobs]
    return ReportDocument(sorted((c for claims in results for c in claims),
                                 key=lambda c: c.claim_id))
