"""The claim suite: individual claims and the full run."""

import concurrent.futures
import gc
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from arrgraph import actions, suite
from arrgraph.autsearch import AutResult
from arrgraph.config import Config
from arrgraph.errors import BudgetError, ValidationError
from arrgraph.graphs import (Graph, build_arrangement_graph, build_cayley_graph,
                             candidate_aut_generators, is_automorphism)
from arrgraph.indsets import delta_family
from arrgraph.perms import StabilizerChain, check_tuple_count, connection_set, transposition
from arrgraph.suite import (Context, ReportDocument, run_full_suite, suite_jobs,
                            verify_blocks, verify_lemma_2_5, verify_prop_2_1,
                            verify_prop_2_2, verify_prop_2_6,
                            verify_section3_iso, verify_theorem_1_2)
# aliased so pytest does not collect the library entry point as a test
from arrgraph.suite import test_conjecture as conjecture_probe
from oracles import brute_force_closure


@pytest.mark.parametrize("function, args", [
    (connection_set, (4, "fixed", 1.5)),  # once an empty set labelled fixed:1.5
    (connection_set, (4, "fixed", True)),
    (connection_set, (4.0, "transpositions")),
    (check_tuple_count, ("4", 2)),
    (build_arrangement_graph, (4.0, 2, 2)),
    (build_arrangement_graph, (4, 2, 1.5)),
    (build_arrangement_graph, (4, True, 1)),
    (build_cayley_graph, (4.0, connection_set(4, "derangements"))),
    (delta_family, (4, 2.0)),
    (verify_theorem_1_2, (4.0, 4, 4)),
    (verify_prop_2_6, (True,)),
    (conjecture_probe, (4, 1.0)),
    (candidate_aut_generators, ("3", 3, build_arrangement_graph(3, 3, 3))),
    (candidate_aut_generators, (3, True, build_arrangement_graph(3, 3, 3))),  # once k = 1
], ids=["fixed-float", "fixed-bool", "set-n-float", "tuple-count-str", "arrangement-n-float",
        "arrangement-r-float", "arrangement-k-bool", "cayley-n-float", "delta-family-k-float",
        "theorem-n-float", "prop-2-6-bool", "conjecture-f-float", "candidate-n-str",
        "candidate-k-bool"])
def test_parameters_are_exact_ints(function, args):
    with pytest.raises(ValidationError, match="must be an int"):
        function(*args)


def _record(report):
    """A claim report as the suite writes it, without its wall time."""
    record = report.to_json_obj()
    del record["wall_time"]
    return record


def test_claims_take_arguments_by_name():
    by_position = _record(verify_theorem_1_2(4, 4, 4))
    assert _record(verify_theorem_1_2(n=4, k=4, r=4)) == by_position
    assert _record(verify_theorem_1_2(4, r=4, k=4, ctx=Context())) == by_position


@pytest.mark.parametrize("args, kwargs", [
    ((4, 4), {}), ((4, 4, 4, 4), {}), ((4, 4), {"m": 4}), ((4, 4, 4), {"n": 4}),
    ((), {"n": 4, "k": 4}), ((4, 4), {"r": 4.0}),
], ids=["too-few", "too-many", "unknown-name", "twice", "keyword-too-few", "keyword-float"])
def test_bad_claim_calls_fail_validation(args, kwargs):
    with pytest.raises(ValidationError):
        verify_theorem_1_2(*args, **kwargs)


def test_theorem_1_2_examples():
    assert verify_theorem_1_2(5, 3, 3).passed
    assert verify_theorem_1_2(5, 3, 3).expected == 720
    r = verify_theorem_1_2(4, 4, 4)
    assert r.passed and r.expected == 1152
    assert r.details["candidates_contained"]
    assert r.details["candidate_order"] == 1152


def test_theorem_1_2_rejects_unsolved_cases():
    with pytest.raises(ValidationError):
        verify_theorem_1_2(5, 3, 2)  # 2 = r < k < n is the open question
    with pytest.raises(ValidationError):
        verify_theorem_1_2(2, 2, 2)


def test_prop_2_1_claim():
    r = verify_prop_2_1(4, 2)
    assert r.passed
    assert r.expected == {"size": 3, "count": 8}
    assert r.computed == {"size": 3, "count": 8}


def test_prop_2_2_claim():
    r = verify_prop_2_2(4, 2)
    assert r.passed and r.computed == 1


def test_blocks_claim_k_lt_n():
    r = verify_blocks(4, 2)
    assert r.passed
    assert r.computed == {"sigma": True, "sigma_prime": True}
    assert ["D_1_1", "D_1_2"] in r.details["sigma"]


def test_blocks_claim_k_eq_n_records_violation():
    # the inversion maps the row block of value 1 onto the column block of
    # position 1, which meets that row block in D_1_1 only
    for n in (4, 5):
        r = verify_blocks(n, n)
        assert r.passed
        row = [f"D_1_{j}" for j in range(1, n + 1)]
        assert r.details["inversion_violation"] == {
            "block": row, "image": [f"D_{i}_1" for i in range(1, n + 1)],
            "mover": 0, "overlaps": row}


def test_lemma_2_5_claim():
    r = verify_lemma_2_5(4, 2)
    assert r.passed
    assert r.computed == {"quotient": 24, "kernel": 2}
    with pytest.raises(ValidationError):
        verify_lemma_2_5(4, 4)


@pytest.mark.parametrize("claim,n,k", [
    (verify_prop_2_2, 2, 1), (verify_prop_2_2, 2, 2), (verify_prop_2_2, 3, 0),
    (verify_prop_2_2, 3, 4),
    (verify_blocks, 1, 1), (verify_blocks, 2, 1), (verify_blocks, 2, 2),
    (verify_blocks, 3, 0), (verify_blocks, 3, 5),
    (verify_lemma_2_5, 2, 1), (verify_lemma_2_5, 3, 0), (verify_lemma_2_5, 3, 3),
])
def test_claims_reject_parameters_outside_the_paper(claim, n, k, monkeypatch):
    # the paper's range is n > 2 and 1 <= k <= n (k < n for lemma 2.5);
    # outside it a claim raises before it builds a graph
    def unbuilt(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(suite, "build_arrangement_graph", unbuilt)
    with pytest.raises(ValidationError, match=f"got n={n} k={k}"):
        claim(n, k)


def test_prop_2_6_claim():
    r = verify_prop_2_6(3)
    assert r.passed
    assert r.details["transpositions"]["psi_witness"]
    assert r.details["derangements"]["certificates_equal"]


def test_section3_iso_claim():
    assert verify_section3_iso(4, 1).passed
    assert verify_section3_iso(4, 0).passed
    with pytest.raises(ValidationError):
        verify_section3_iso(4, 3)


def test_section3_iso_independent_of_prop_2_6():
    # prop2.6 reuses the shuffled searches of sec3 fixed = n-2 and fixed = 0,
    # so sec3 sees the same copies whether or not prop2.6 ran first in its
    # context
    def sec3_runs(ctx):
        out = []
        for fixed in range(3):
            record = verify_section3_iso(4, fixed, ctx=ctx).to_json_obj()
            record.pop("wall_time")
            out.append((record, [(search.shuffle, search.aut.generators)
                                 for search in ctx.shuffled_iso(4, fixed)]))
        return out

    alone = sec3_runs(Context())
    ctx = Context()
    assert verify_prop_2_6(4, ctx=ctx).passed
    assert alone == sec3_runs(ctx)


def test_conjecture_anchored_cases():
    for fixed in (0, 2):
        r = conjecture_probe(4, fixed)
        assert not r.exploratory
        assert r.passed
        assert r.details["candidate_order"] == 1152
        assert r.details["conjecture_holds"]


def test_conjecture_checks_candidates_on_the_cayley_graph(monkeypatch):
    # candidates that do not preserve Cay(S_4, D) are reported as such, and
    # the anchored claim fails; so does thm1.2, which reads the same ones
    ctx = Context()
    generators, action = ctx.candidates(4, 4, 4)
    swap = transposition(ctx.cayley(4, 0).vertex_count, 0, 1)
    monkeypatch.setattr(ctx, "candidates", lambda n, k, r: (generators + [swap], action))
    r = conjecture_probe(4, 0, ctx=ctx)
    assert r.details["candidate_preserves_graph"] is False
    assert r.details["candidates_contained"] is False
    assert r.passed is False and not r.exploratory
    assert verify_theorem_1_2(4, 4, 4, ctx=ctx).passed is False


def test_conjecture_intermediate_case_is_exploratory():
    r = conjecture_probe(4, 1)
    assert r.exploratory and r.passed is None
    assert r.details["candidate_order"] == 1152
    assert r.details["candidates_contained"]
    assert not r.details["connected"]
    assert "aut_order" in r.details


def test_suite_jobs_bounds():
    with pytest.raises(ValidationError):
        suite_jobs(2)
    with pytest.raises(ValidationError):
        suite_jobs(7)
    jobs = suite_jobs(6)
    assert jobs[:len(suite_jobs(5))] == suite_jobs(5)
    assert jobs[len(suite_jobs(5)):] == (
        [("akk", 6, k) for k in range(1, 6)] + [("knn", 6, (0, 4))]
        + [("fixed", 6, (fixed,)) for fixed in (1, 2, 3)])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cheap_n6_jobs_pass(k):
    # the rest of the n = 6 suite takes minutes and runs as its own CI job
    claims = suite._job_claims(("akk", 6, k), Config())
    assert [c.claim_id.split("/")[0] for c in claims] == [
        "thm1.2", "prop2.1", "prop2.2", "blocks", "lemma2.5"]
    assert all(c.passed for c in claims)


def test_run_full_suite_n3():
    doc = run_full_suite(3)
    assert doc.all_expected_pass()
    assert all(c.passed for c in doc.claims if not c.exploratory)
    # claims sorted by id
    ids = [c.claim_id for c in doc.claims]
    assert ids == sorted(ids)
    # the reduced-case k=1 probe at n=3 covers (0, n-2) only; both anchored
    assert all(not c.exploratory for c in doc.claims if c.claim_id.startswith("conj3.1/n=3"))


def test_report_document_rendering():
    doc = run_full_suite(3)
    jsonl = doc.to_jsonl()
    records = [json.loads(line) for line in jsonl.splitlines()]
    assert len(records) == len(doc.claims)
    assert all({"claim", "expected", "computed", "passed", "wall_time"} <= set(r)
               for r in records)
    summary = doc.summary_text()
    assert "passed, 0 failed" in summary
    assert all(c.claim_id in summary for c in doc.claims)


def test_suite_deterministic_modulo_wall_time():
    def strip_times(doc: ReportDocument):
        out = []
        for c in doc.claims:
            obj = c.to_json_obj()
            obj.pop("wall_time")
            out.append(json.dumps(obj, sort_keys=True))
        return out

    assert strip_times(run_full_suite(3)) == strip_times(run_full_suite(3))


def test_report_matches_golden_n5():
    # the n <= 5 report, wall times left out, as written by an earlier
    # version of the package; a change to it is a change of verdicts and is
    # made on purpose
    golden = Path(__file__).parent / "data" / "verify_n5.jsonl"
    records = [{k: v for k, v in c.to_json_obj().items() if k != "wall_time"}
               for c in run_full_suite(5, Config()).claims]
    assert records == [json.loads(line) for line in golden.read_text().splitlines()]


def test_suite_parallel_matches_serial():
    # n = 4 has a fixed-point class (fixed = 1) with a job of its own
    serial = run_full_suite(4)
    parallel = run_full_suite(4, Config(workers=2))
    strip = lambda doc: [
        {k: v for k, v in c.to_json_obj().items() if k != "wall_time"}
        for c in doc.claims]
    assert strip(serial) == strip(parallel)


def test_suite_searches_each_graph_copy_once(monkeypatch):
    searched = []  # the adjacency of every graph the suite searches
    search = suite.automorphism_group

    def counting(graph, config):
        searched.append(tuple(graph.adjacency))
        return search(graph, config)

    monkeypatch.setattr(suite, "automorphism_group", counting)
    # a fresh context per job, as in every worker of a pool
    assert run_full_suite(4).all_expected_pass()
    # per n: one plain A(n,k,k) for each k < n, and the shuffled A(n,n,n-f)
    # and Cay(S_n,F_f) for each fixed-point class f
    assert len(searched) == 15
    assert len(set(searched)) == 15

    # one context shared by every job searches no graph fewer times: a job
    # holds every claim reading its searches, so no two jobs share one
    searched.clear()
    shared = Context()
    monkeypatch.setattr(suite, "Context", lambda config: shared)
    assert run_full_suite(4).all_expected_pass()
    assert len(searched) == 15


@pytest.mark.parametrize("job,degrees", [(("akk", 4, 3), [12, 12, 4]),
                                         (("knn", 4, (0, 2)), [16, 16])],
                         ids=["akk", "knn"])
def test_job_makes_each_group_once(job, degrees, monkeypatch):
    # thm1.2, conj3.1 and blocks at k = n read one candidate lift and its
    # action on the delta family; prop2.2, blocks at k < n and lemma2.5 the
    # searched group's action. Each action's order comes from one chain of
    # degree n*k (and lemma2.5's quotient from one of degree n), and no
    # chain is built on the vertices, whose count is 24 here
    calls = {"candidate_aut_generators": [], "induce_action": []}

    def counting(name, make):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return make(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(suite, name, counting(name, getattr(suite, name)))
    built = []

    def counting_chain(generators, degree=None):
        built.append(degree)
        return StabilizerChain(generators, degree)

    monkeypatch.setattr(actions, "StabilizerChain", counting_chain)
    claims = suite._job_claims(job, Config())
    assert all(c.passed is not False for c in claims)
    assert len(calls["candidate_aut_generators"]) == 1
    induced_by = [tuple(generators) for generators, _ in calls["induce_action"]]
    assert len(induced_by) == len(set(induced_by)) == 2
    assert built == degrees
    assert not hasattr(suite, "StabilizerChain")


@pytest.mark.parametrize("job,graphs", [(("knn", 4, (0, 2)), [(4, 4, 4), (4, 4, 2)]),
                                        (("fixed", 5, (1,)), [(5, 5, 4)])],
                         ids=["knn", "fixed"])
def test_job_lifts_the_candidates_on_a_graph_it_searches(job, graphs, monkeypatch):
    # the candidates are the same vertex permutations for every r, so a
    # job lifts them on an A(n,n,r) it already holds and builds no other
    built = []

    def counting(n, k, r, config):
        built.append((n, k, r))
        return build(n, k, r, config)

    build = suite.build_arrangement_graph
    monkeypatch.setattr(suite, "build_arrangement_graph", counting)
    claims = suite._job_claims(job, Config())
    assert all(c.passed is not False for c in claims)
    assert built == graphs
    built.clear()
    conjecture_probe(4, 1)
    assert built == [(4, 4, 3)]


def test_akk_job_builds_one_chain_per_induced_action(monkeypatch):
    # thm1.2 reads the candidate group's order from its action on the delta
    # family; prop2.2's kernel and lemma2.5's quotient read the searched
    # group's action from one chain, and lemma2.5 adds the chain of the
    # action on the row blocks
    built = []

    def counting(generators, degree=None):
        built.append(degree)
        return StabilizerChain(generators, degree)

    monkeypatch.setattr(actions, "StabilizerChain", counting)
    claims = suite._job_claims(("akk", 5, 4), Config())
    assert all(c.passed for c in claims)
    assert built == [20, 20, 5]


def test_no_job_builds_a_chain_on_the_vertices(monkeypatch):
    # every chain a job of run_full_suite(4) builds by sifting acts on the
    # movers of an action on the delta family or on its row blocks; the
    # searches' chains come from strong generators and sift nothing. Where
    # the vertex count V exceeds n*k, no chain has degree V
    chains, movers = [], []
    init = StabilizerChain.__init__

    def recording_init(self, generators, degree=None):
        generators = list(generators)
        if generators:
            chains.append((degree, tuple(generators)))
        init(self, generators, degree)

    def recording(make, action_of):
        def wrapper(*args):
            result = make(*args)
            movers.append(action_of(result).movers)
            return result
        return wrapper

    monkeypatch.setattr(StabilizerChain, "__init__", recording_init)
    monkeypatch.setattr(suite, "induce_action",
                        recording(suite.induce_action, lambda action: action))
    monkeypatch.setattr(suite, "quotient_action",
                        recording(suite.quotient_action, lambda result: result[0]))
    for kind, n, arg in suite_jobs(4):
        chains.clear()
        movers.clear()
        claims = suite._job_claims((kind, n, arg), Config())
        assert all(c.passed is not False for c in claims)
        k = arg if kind == "akk" else n
        vertices = math.perm(n, k)
        assert chains and all(generators in movers for _, generators in chains)
        if vertices > n * k:
            assert all(degree != vertices for degree, _ in chains)


@pytest.mark.parametrize("n,k", [(n, k) for n in (3, 4, 5) for k in range(1, n + 1)])
def test_candidate_order_from_the_delta_family(n, k):
    # the candidate group acts faithfully on the delta family, so the
    # chain of its action gives the order of the chain on the vertices
    generators, action = Context().candidates(n, k, k)
    expected = (2 * math.factorial(n) ** 2 if k == n
                else math.factorial(n) * math.factorial(k))
    vertices = math.perm(n, k)
    assert action.image_order == StabilizerChain(generators, degree=vertices).order()
    assert action.image_order == expected
    assert list(action.family) == [s for _, s in delta_family(n, k)]


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (3, 3), (4, 4)])
def test_candidate_action_is_faithful(n, k):
    # distinct elements of the candidate group move the delta family
    # distinctly: a check of faithfulness that builds no chain
    generators, action = Context().candidates(n, k, k)
    group = list(brute_force_closure(generators, degree=math.perm(n, k)))
    induced = actions.induce_action(group, action.family)
    assert len(set(induced.movers)) == len(group)


def test_package_import_leaves_out_the_process_pool():
    # the pool is imported only when a run uses more than one worker
    code = ("import sys, arrgraph, arrgraph.graphio; "
            "print('concurrent.futures' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(suite.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_suite_keeps_nothing_after_a_run(monkeypatch):
    # every graph and search the suite makes is freed once its job ends
    made = []  # weak references to each Graph and AutResult

    def tracked(make):
        def wrapper(*args):
            result = make(*args)
            made.extend(weakref.ref(x) for x in (*args, result)
                        if isinstance(x, (Graph, AutResult)))
            return result
        return wrapper

    for name in ("automorphism_group", "build_arrangement_graph", "build_cayley_graph"):
        monkeypatch.setattr(suite, name, tracked(getattr(suite, name)))
    doc = run_full_suite(4)
    gc.collect()
    assert doc.all_expected_pass()
    # the 15 searches, the graphs they searched, and the plain graphs built
    assert len(made) > 30
    assert [ref for ref in made if ref() is not None] == []


def test_shuffled_search_answers_for_the_plain_graph():
    # a plain-labelled automorphism is tested in the shuffled copy's chain
    # after conjugation by the shuffle
    ctx = Context()
    plain = ctx.arrangement(4, 4, 4)
    search = ctx.group(4, 4, 4)
    assert not search.shuffle.is_identity()
    assert search.aut.order == 1152
    for g in candidate_aut_generators(4, 4, plain):
        assert search.contains(g)
    swap = transposition(plain.vertex_count, 0, 1)
    assert not is_automorphism(plain, swap) and not search.contains(swap)


def test_cache_keys_include_config():
    # a context searches each graph once under its own config; contexts with
    # different budgets or seeds never share a search
    ctx = Context()
    assert verify_theorem_1_2(4, 4, 4, ctx=ctx).passed
    assert ctx.group(4, 4, 4) is ctx.shuffled_iso(4, 0)[0]
    with pytest.raises(BudgetError):
        verify_theorem_1_2(4, 4, 4, ctx=Context(Config(node_budget=3)))
    one = Context(Config(seed=1)).shuffled_iso(4, 1)
    two = Context(Config(seed=2)).shuffled_iso(4, 1)
    assert one[0].shuffle != two[0].shuffle


@pytest.mark.parametrize("cpus,expected", [(64, [3]), (2, [2]), (1, []), (None, [])])
def test_worker_pool_is_capped(cpus, expected, monkeypatch):
    sizes = []

    class RecordingPool:
        """Records max_workers and maps in this process: no worker starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    # n_max = 3 is three jobs; a requested size of 100000 must never reach
    # the pool, and a cap of 1 runs serially without one
    doc = run_full_suite(3, Config(workers=100_000))
    assert sizes == expected
    assert doc.all_expected_pass() and len(doc.claims) == 20
