"""The claim suite: individual claims and the full run."""

import json

import pytest

from arrgraph import suite
from arrgraph.config import Config
from arrgraph.errors import ValidationError
from arrgraph.suite import (ReportDocument, run_full_suite, suite_jobs,
                            verify_blocks, verify_lemma_2_5, verify_prop_2_1,
                            verify_prop_2_2, verify_prop_2_6,
                            verify_section3_iso, verify_theorem_1_2)
# aliased so pytest does not collect the library entry point as a test
from arrgraph.suite import test_conjecture as conjecture_probe


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
    r = verify_blocks(4, 4)
    assert r.passed
    assert r.details["inversion_violation"] is not None


def test_lemma_2_5_claim():
    r = verify_lemma_2_5(4, 2)
    assert r.passed
    assert r.computed == {"quotient": 24, "kernel": 2}
    with pytest.raises(ValidationError):
        verify_lemma_2_5(4, 4)


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
    # so sec3 sees the same copies whether or not prop2.6 ran first
    def sec3_runs():
        out = []
        for fixed in range(3):
            record = verify_section3_iso(4, fixed).to_json_obj()
            record.pop("wall_time")
            searches = suite._shuffled_iso(4, fixed, Config())
            out.append((record, [aut.generators for aut in searches]))
        return out

    suite.clear_cache()
    alone = sec3_runs()
    suite.clear_cache()
    assert verify_prop_2_6(4).passed
    after_prop_2_6 = sec3_runs()
    suite.clear_cache()
    assert alone == after_prop_2_6


def test_conjecture_anchored_cases():
    for fixed in (0, 2):
        r = conjecture_probe(4, fixed)
        assert not r.exploratory
        assert r.passed
        assert r.details["candidate_order"] == 1152
        assert r.details["conjecture_holds"]


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
        suite_jobs(6)
    jobs = suite_jobs(3, include_n6=True)
    assert ("akk", 6, 1) in jobs and ("akk", 6, 2) in jobs


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


def test_suite_parallel_matches_serial():
    serial = run_full_suite(3)
    parallel = run_full_suite(3, Config(workers=2))
    strip = lambda doc: [
        {k: v for k, v in c.to_json_obj().items() if k != "wall_time"}
        for c in doc.claims]
    assert strip(serial) == strip(parallel)
