"""End-to-end verification of every claim at desk scale.

Each claim produces a ClaimReport; expected values are always evaluated at
runtime from the closed-form formulas (n!k!, 2*n!*n!, (n-1)!/(n-k)!, n*k),
never hard-coded from a previous computation. Claims marked exploratory
carry no expectation: their verdict is the experiment's output.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from .actions import (block_violation, column_partition, conjecture_candidate_group,
                      induce_action, kernel_order, quotient_action, row_partition,
                      verify_block_system)
from .autsearch import AutResult, automorphism_group
from .config import Config, DEFAULT_CONFIG
from .errors import BudgetError, ValidationError
from .graphs import (Graph, build_arrangement_graph, build_cayley_graph,
                     candidate_aut_generators, is_automorphism)
from .indsets import (ENUMERATE_ALL, delta_family, is_maximal_independent,
                      max_independent_sets)
from .perms import Permutation, build_stabilizer_chain, connection_set

CASE_RKLTN = "r=k<n"
CASE_RKN = "r=k=n"
CASE_R2KN = "r=2,k=n"


@dataclass
class ClaimReport:
    claim_id: str
    params: dict
    expected: Optional[object]
    computed: Optional[object]
    passed: Optional[bool]  # None = exploratory / record-only
    exploratory: bool = False
    wall_time: float = 0.0
    details: dict = field(default_factory=dict)

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
        widths = [max(len(r[i]) for r in rows + [("claim", "expected", "computed", "verdict", "time")])
                  for i in range(5)]
        header = ("claim", "expected", "computed", "verdict", "time")
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


# --------------------------------------------------------------------------
# per-process cache of expensive objects, keyed with the Config they used

_CACHE: dict = {}


def _cached(key, config: Config, builder):
    key = (key, config)
    if key not in _CACHE:
        _CACHE[key] = builder()
    return _CACHE[key]


def clear_cache() -> None:
    _CACHE.clear()


def _arrangement(n: int, k: int, r: int, config: Config) -> Graph:
    return _cached(("arr", n, k, r), config,
                   lambda: build_arrangement_graph(n, k, r, config))


def _cayley(n: int, fixed: int, config: Config) -> Graph:
    return _cached(("cay", n, fixed), config, lambda: build_cayley_graph(
        n, connection_set(n, "fixed", fixed, config), config))


@dataclass(frozen=True)
class _Search:
    """The automorphism search of a copy of a graph whose vertex v sits at
    index shuffle(v); claims speak about the plain labelling."""

    shuffle: Permutation
    aut: AutResult

    def contains(self, g: Permutation) -> bool:
        """Whether the plain-labelled vertex permutation g is an automorphism."""
        return self.aut.chain.contains(self.shuffle.inverse() * g * self.shuffle)


def _shuffled(graph: Graph, rng: random.Random, config: Config) -> _Search:
    images = list(range(graph.vertex_count))
    rng.shuffle(images)
    shuffle = Permutation(images)
    return _Search(shuffle, automorphism_group(graph.relabeled(shuffle), config))


def _shuffled_iso(n: int, fixed: int, config: Config) -> tuple[_Search, _Search]:
    """Searches of shuffled copies of A(n,n,n-fixed) and Cay(S_n,F_fixed),
    both drawn from the sec3 claim's stream. They are the only searches of
    these graphs in a run: every claim about either graph reads its group
    from here, whichever claim ran first."""
    def search():
        rng = random.Random(f"{config.seed}:sec3/iso/n={n}/fixed={fixed}")
        return (_shuffled(_arrangement(n, n, n - fixed, config), rng, config),
                _shuffled(_cayley(n, fixed, config), rng, config))

    return _cached(("iso", n, fixed), config, search)


def _group(n: int, k: int, r: int, config: Config) -> _Search:
    """The search standing for Aut(A(n,k,r)): for k = n the shuffled copy of
    the sec3 class fixed = n - r, for k < n a search of the plain graph."""
    if k == n:
        return _shuffled_iso(n, n - r, config)[0]

    def search():
        graph = _arrangement(n, k, r, config)
        return _Search(Permutation.identity(graph.vertex_count),
                       automorphism_group(graph, config))

    return _cached(("aut", n, k, r), config, search)


def _delta_label(i: int, j: int) -> str:
    return f"D_{i + 1}_{j + 1}"


def _labels(indexes, k: int) -> list[str]:
    """Labels of delta family indexes, in index order."""
    return [_delta_label(*divmod(x, k)) for x in sorted(indexes)]


def _induced_action(search: _Search, n: int, k: int):
    """The action of Aut(A(n,k,k)) on the delta family as the searched copy
    labels it, in family order."""
    return induce_action(search.aut.generators, [frozenset(map(search.shuffle, s))
                                                 for _, s in delta_family(n, k)])


# --------------------------------------------------------------------------
# individual claims


def verify_theorem_1_2(n: int, k: int, r: int,
                       config: Config = DEFAULT_CONFIG) -> ClaimReport:
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
    t0 = time.perf_counter()
    graph = _arrangement(n, k, r, config)
    search = _group(n, k, r, config)
    aut = search.aut
    candidates = candidate_aut_generators(n, k, r, graph)
    contained = all(search.contains(g) for g in candidates)
    cand_order = build_stabilizer_chain(candidates, degree=graph.vertex_count).order()
    return ClaimReport(
        claim_id=claim_id,
        params={"n": n, "k": k, "r": r},
        expected=expected,
        computed=aut.order,
        passed=(aut.order == expected and contained and cand_order == expected),
        wall_time=time.perf_counter() - t0,
        details={"candidate_order": cand_order,
                 "candidates_contained": contained,
                 "generator_count": len(aut.generators)},
    )


def verify_prop_2_1(n: int, k: int, config: Config = DEFAULT_CONFIG) -> ClaimReport:
    """Maximum independent sets of A(n,k,k) are exactly the delta family:
    independence number (n-1)!/(n-k)!, count n*k, and setwise equality."""
    if n <= 2:
        raise ValidationError(f"the characterization requires n > 2, got n={n}")
    if not 1 <= k <= n:
        raise ValidationError(f"need 1 <= k <= n, got k={k} n={n}")
    claim_id = f"prop2.1/n={n}/k={k}"
    t0 = time.perf_counter()
    graph = _arrangement(n, k, k, config)
    family = sorted(sorted(s) for _, s in delta_family(n, k))
    size, sets = max_independent_sets(graph, ENUMERATE_ALL, config)
    expected = {"size": math.factorial(n - 1) // math.factorial(n - k), "count": n * k}
    computed = {"size": size, "count": len(sets)}
    details = {"sets_match_family": sets == family,
               "family_members_maximum": all(
                   len(s) == size and is_maximal_independent(graph, s) for s in family)}
    return ClaimReport(
        claim_id=claim_id,
        params={"n": n, "k": k},
        expected=expected,
        computed=computed,
        passed=computed == expected and all(details.values()),
        wall_time=time.perf_counter() - t0,
        details=details,
    )


def verify_prop_2_2(n: int, k: int, config: Config = DEFAULT_CONFIG) -> ClaimReport:
    """The kernel of the induced action of Aut(A(n,k,k)) on the delta family
    is trivial."""
    claim_id = f"prop2.2/n={n}/k={k}"
    t0 = time.perf_counter()
    search = _group(n, k, k, config)
    action = _induced_action(search, n, k)
    kernel = kernel_order(search.aut.order, action)
    return ClaimReport(
        claim_id=claim_id,
        params={"n": n, "k": k},
        expected=1,
        computed=kernel,
        passed=(kernel == 1),
        wall_time=time.perf_counter() - t0,
        details={"group_order": search.aut.order},
    )


def verify_blocks(n: int, k: int, config: Config = DEFAULT_CONFIG) -> ClaimReport:
    """Row and column partitions of the delta family are block systems.

    For k < n this is checked under the full automorphism group. For k = n
    it is checked under the value/position relabeling subgroup, and the
    report additionally records an explicit violation of the block property
    under the tuple-inversion map (searched for, not assumed)."""
    claim_id = f"blocks/n={n}/k={k}"
    t0 = time.perf_counter()
    sigma = row_partition(n, k)
    sigma_prime = column_partition(n, k)
    details: dict = {"sigma": [_labels(b, k) for b in sigma.blocks],
                     "sigma_prime": [_labels(b, k) for b in sigma_prime.blocks]}
    if k < n:
        action = _induced_action(_group(n, k, k, config), n, k)
        sigma_ok = verify_block_system(action, sigma)
        sigma_prime_ok = verify_block_system(action, sigma_prime)
    else:
        family = [s for _, s in delta_family(n, k)]
        gens = candidate_aut_generators(n, n, n, _arrangement(n, n, n, config))
        pq_action = induce_action(gens[:-1], family)
        sigma_ok = verify_block_system(pq_action, sigma)
        sigma_prime_ok = verify_block_system(pq_action, sigma_prime)
        witness = block_violation(induce_action([gens[-1]], family), sigma)
        details["inversion_violation"] = None
        if witness is not None:
            mover, block, image, overlaps = witness
            details["inversion_violation"] = {
                "mover": mover, "block": _labels(block, k),
                "image": _labels(image, k), "overlaps": _labels(overlaps, k)}
    return ClaimReport(
        claim_id=claim_id,
        params={"n": n, "k": k},
        expected={"sigma": True, "sigma_prime": True},
        computed={"sigma": sigma_ok, "sigma_prime": sigma_prime_ok},
        passed=sigma_ok and sigma_prime_ok,
        wall_time=time.perf_counter() - t0,
        details=details,
    )


def verify_lemma_2_5(n: int, k: int, config: Config = DEFAULT_CONFIG) -> ClaimReport:
    """For k < n: the action on the row blocks has order n! and the kernel
    of the quotient map has order k!."""
    if not k < n:
        raise ValidationError("the quotient check applies to k < n only")
    claim_id = f"lemma2.5/n={n}/k={k}"
    t0 = time.perf_counter()
    action = _induced_action(_group(n, k, k, config), n, k)
    _, quotient_order, kernel_order = quotient_action(action, row_partition(n, k))
    expected = {"quotient": math.factorial(n), "kernel": math.factorial(k)}
    computed = {"quotient": quotient_order, "kernel": kernel_order}
    return ClaimReport(
        claim_id=claim_id,
        params={"n": n, "k": k},
        expected=expected,
        computed=computed,
        passed=(computed == expected),
        wall_time=time.perf_counter() - t0,
        details={},
    )


def verify_prop_2_6(n: int, config: Config = DEFAULT_CONFIG) -> ClaimReport:
    """Cay(S_n,T) is isomorphic to A(n,n,2) and Cay(S_n,D) to A(n,n,n),
    checked by certificates on independently shuffled copies plus the
    explicit tuple<->permutation witness. T and D are F_{n-2} and F_0, so
    the shuffled searches are those of the matching sec3 claims."""
    if n <= 2:
        raise ValidationError("requires n > 2")
    claim_id = f"prop2.6/n={n}"
    t0 = time.perf_counter()
    results = {}
    for kind, fixed in (("transpositions", n - 2), ("derangements", 0)):
        # the one-line vertex order makes the tuple<->permutation bijection
        # the identity on indexes, so it is a witness iff adjacency agrees
        witness_ok = (_arrangement(n, n, n - fixed, config).adjacency
                      == _cayley(n, fixed, config).adjacency)
        arr, cay = _shuffled_iso(n, fixed, config)
        results[kind] = {"certificates_equal": arr.aut.certificate == cay.aut.certificate,
                         "psi_witness": witness_ok}
    passed = all(v["certificates_equal"] and v["psi_witness"] for v in results.values())
    return ClaimReport(
        claim_id=claim_id,
        params={"n": n},
        expected={"transpositions": True, "derangements": True},
        computed={kind: v["certificates_equal"] for kind, v in results.items()},
        passed=passed,
        wall_time=time.perf_counter() - t0,
        details=results,
    )


def verify_section3_iso(n: int, fixed: int, config: Config = DEFAULT_CONFIG) -> ClaimReport:
    """Cay(S_n, F_fixed) is isomorphic to A(n,n,n-fixed), by certificate
    equality on independently shuffled copies."""
    if n <= 2 or not 0 <= fixed <= n - 2:
        raise ValidationError(f"need n > 2 and 0 <= fixed <= n-2, got n={n} fixed={fixed}")
    claim_id = f"sec3/iso/n={n}/fixed={fixed}"
    t0 = time.perf_counter()
    arr, cay = _shuffled_iso(n, fixed, config)
    iso = arr.aut.certificate == cay.aut.certificate
    return ClaimReport(
        claim_id=claim_id,
        params={"n": n, "fixed": fixed},
        expected=True,
        computed=iso,
        passed=iso,
        wall_time=time.perf_counter() - t0,
        details={},
    )


def test_conjecture(n: int, fixed: int, config: Config = DEFAULT_CONFIG) -> ClaimReport:
    """Probe the conjectured automorphism group of Cay(S_n, F_fixed).

    The candidate group order and its containment in the computed group are
    always checked; equality is asserted only for the two anchored cases
    fixed = 0 and fixed = n-2 (transpositions and derangements). For
    intermediate values the verdict is recorded, not enforced."""
    if n <= 2 or not 0 <= fixed <= n - 2:
        raise ValidationError(f"need n > 2 and 0 <= fixed <= n-2, got n={n} fixed={fixed}")
    claim_id = f"conj3.1/n={n}/fixed={fixed}"
    anchored = fixed in (0, n - 2)
    t0 = time.perf_counter()
    graph = _cayley(n, fixed, config)
    expected_candidate = 2 * math.factorial(n) ** 2
    candidates = conjecture_candidate_group(n, config)
    preserve = all(is_automorphism(graph, g) for g in candidates)
    cand_order = build_stabilizer_chain(candidates, degree=graph.vertex_count).order()
    details = {
        "candidate_order": cand_order,
        "candidate_order_expected": expected_candidate,
        "candidate_preserves_graph": preserve,
        "connected": graph.is_connected(),
    }
    try:
        search = _shuffled_iso(n, fixed, config)[1]
        aut = search.aut
        contained = all(search.contains(g) for g in candidates)
        equal = aut.order == cand_order and contained
        details.update({"aut_order": aut.order, "candidates_contained": contained,
                        "conjecture_holds": equal})
        passed: Optional[bool]
        if anchored:
            passed = (equal and preserve and cand_order == expected_candidate)
        else:
            passed = None
    except BudgetError as e:
        details.update({"inconclusive": str(e)})
        passed = False if anchored else None
    return ClaimReport(
        claim_id=claim_id,
        params={"n": n, "fixed": fixed},
        expected=(expected_candidate if anchored else None),
        computed=details.get("aut_order"),
        passed=passed,
        exploratory=not anchored,
        wall_time=time.perf_counter() - t0,
        details=details,
    )


# --------------------------------------------------------------------------
# the full suite


def _job_claims(job: tuple, config: Config) -> list[ClaimReport]:
    """The claims of one job. A job holds every claim that reads its
    searches, so each graph is searched once per run whatever the worker count."""
    kind, n, arg = job
    if kind == "akk":
        return [verify_theorem_1_2(n, arg, arg, config), verify_prop_2_1(n, arg, config),
                verify_prop_2_2(n, arg, config), verify_blocks(n, arg, config),
                verify_lemma_2_5(n, arg, config)]
    out = []
    for fixed in arg:
        out += [verify_section3_iso(n, fixed, config), test_conjecture(n, fixed, config)]
    if kind == "knn":
        # the k = n claims read the searches of fixed = 0 and fixed = n-2
        out += [verify_theorem_1_2(n, n, n, config), verify_theorem_1_2(n, n, 2, config),
                verify_prop_2_1(n, n, config), verify_prop_2_2(n, n, config),
                verify_blocks(n, n, config), verify_prop_2_6(n, config)]
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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_job_claims, jobs, [config] * len(jobs)))
    else:
        results = [_job_claims(job, config) for job in jobs]
    return ReportDocument(sorted((c for claims in results for c in claims),
                                 key=lambda c: c.claim_id))
