#!/usr/bin/env python3
"""Benchmark of the arrgraph package: three closed-loop workloads against the
public API, every answer checked, stdlib only.

Run from the repository root:

    python3 perfbench/run.py --workload verify|aut|mis --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics with no tracing.
With ``--trace 1`` it wraps the public functions of each layer module (see
tracer.py) and reports per-layer numbers instead. Every line before the last
names one metric with its unit, or gives the run's context as JSON; the last
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. The run exits 2 without a result when the package source is
not beside this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 7
# In a traced run, repetitions 0, 3, 6, ... run untraced so that the run can
# report the tracing overhead on the same inputs.
UNTRACED_EVERY = 3

HOST_JITTER = (
    "Tuned on a shared 2-core x86-64 KVM guest (Python 3.11) whose speed drifts "
    "by up to 2x over seconds and minutes, with CPU time tracking wall time: a "
    "fixed 20M-iteration loop took 2.5-3.9 s over 6 runs, five runs of a larger "
    "28-query aut list took 27-34 s, and 5M-iteration loops took 0.25-0.54 s. In "
    "one 5-minute series of verify passes the 40 s window medians of the raw pass "
    "time moved by 0.35 of their median, and those of the pass time over a "
    "reference loop timed beside each pass by 0.05. Each run therefore reports "
    "medians over many passes and scales its times to the reference speed (see "
    "REFERENCE_S).")

# The time of reference_seconds() on the tuning host when it was quiet. Each
# pass and each set-up is scaled by REFERENCE_S / (median reference sample
# taken from just before it to just after it), which turns the seconds it
# took into seconds at that speed, so a drift of the host moves them much
# less than a change to the package.
REFERENCE_S = 0.0075

# The end-to-end metrics BENCHMARK.json bounds. The raw times, op_p50_ms and
# fail_ratio are printed as well but not bounded: the raw times for the host's
# drift, fail_ratio because it is 0 whenever the answers are right, and
# op_p50_ms because on mis the median query falls between A(5,3,3)
# enumerate_all (about 4 ms) and A(5,3,2) size_only (about 5 ms), so its
# run-to-run spread reached 0.3.
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

TRACED_FUNCTIONS = [
    "graphs.build_arrangement_graph", "graphs.build_cayley_graph", "graphs.is_automorphism",
    "graphs.candidate_aut_generators", "graphs.Graph.relabeled",
    "graphio.load",
    "autsearch.automorphism_group",
    "perms.build_stabilizer_chain", "perms.StabilizerChain.contains",
    "indsets.max_independent_sets", "indsets.verify_mis_characterization",
    "indsets.delta_family",
    "actions.action_kernel", "actions.induce_action", "actions.quotient_action",
    "actions.verify_block_system", "actions.conjecture_candidate_group",
]
SUITE_CLAIMS = [
    "suite.verify_theorem_1_2", "suite.verify_prop_2_1", "suite.verify_prop_2_2",
    "suite.verify_blocks", "suite.verify_lemma_2_5", "suite.verify_prop_2_6",
    "suite.verify_section3_iso", "suite.test_conjecture",
]
DETERMINISTIC_COUNTS = [("autsearch.generators", "count"),
                        ("perms.strong_generators", "count"),
                        ("autsearch.distinct_cert_ratio", "ratio")]


def per_layer_metrics() -> list[tuple[str, str]]:
    out = []
    for key in TRACED_FUNCTIONS:
        out += [(f"{key}.calls", "count"), (f"{key}.self_s", "s")]
    for key in SUITE_CLAIMS:
        out += [(f"{key}.calls", "count"), (f"{key}.total_s", "s")]
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.errors", "count")]
    out += [("unattributed_s", "s"), ("trace.overhead_s", "s")]
    return out + DETERMINISTIC_COUNTS


def is_count(unit: str) -> bool:
    return unit in ("count", "ratio")


# --------------------------------------------------------------------------
# context and set-up

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import arrgraph, arrgraph.graphio; "
                 "print(repr(time.perf_counter() - t))")


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def git_revision() -> str | None:
    # without this check git would search the parent directories for a repository
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "arrgraph").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# Fixed inputs of the reference loop: 128 rows of 256 random bits and 32
# random permutations of 120 points.
_REFERENCE_ROWS = [random.Random(i).getrandbits(256) for i in range(128)]
_REFERENCE_PERMS = [tuple(random.Random(i).sample(range(120), 120)) for i in range(32)]


def reference_seconds() -> float:
    """Time one run of a fixed pure-Python loop doing the package's kinds of
    work: scanning the set bits of big integers, composing and inverting
    permutations held as tuples, and filling dicts and sets with tuple keys.
    About 10 ms; its code never changes, so its time tracks the host's
    speed."""
    start = time.perf_counter()
    seen = set()
    for v, row in enumerate(_REFERENCE_ROWS):
        image = 0
        while row:
            low = row & -row
            image |= 1 << ((low.bit_length() * 7 + v) & 255)
            row ^= low
        seen.add((v, image & 0xFFFF))
    p = _REFERENCE_PERMS[0]
    for q in _REFERENCE_PERMS * 6:
        p = tuple([p[x] for x in q])
        inverse = [0] * len(p)  # built for its cost, as Permutation.inverse does
        for i, x in enumerate(p):
            inverse[x] = i
        seen.add(p)
    index = {t: i for i, t in enumerate(itertools.permutations(range(6)))}
    for t in index:
        seen.add(index[(t[1], t[0]) + t[2:]])
    return time.perf_counter() - start


class HostSpeed:
    """Samples the reference loop between operations, at most once per
    ``interval`` seconds, and three times at each boundary between passes or
    set-ups, so the samples follow the host's drift through the run."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0  # time the samples took, left out of what is timed
        self._last = float("-inf")

    def between(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now - self._last >= self.interval:
            self.samples.append(reference_seconds())
            self._last = time.perf_counter()
            self.spent += self._last - now

    def boundary(self) -> int:
        """Take the boundary samples; return the index of the first of them."""
        first = len(self.samples)
        for _ in range(3):
            self.between(force=True)
        return first

    def scale_since(self, first: int) -> float:
        """The factor that turns seconds spent since sample ``first`` into
        seconds at the reference speed."""
        return REFERENCE_S / statistics.median(self.samples[first:])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# --------------------------------------------------------------------------
# the timed phase


def run_repetitions(workload, ag, inputs, seconds: float, tracer: Tracer | None,
                    host: HostSpeed | None):
    """Run passes until the next one would likely end after ``seconds``.

    Untraced, pass i runs input variant i, and ``host`` samples the
    reference loop between operations and passes. Traced, every pass runs
    variant 0, so counts must repeat exactly; every UNTRACED_EVERY-th pass
    runs without the tracer, for the overhead."""
    reps = []
    between = host.between if host is not None else (lambda: None)
    start = time.perf_counter()
    first = host.boundary() if host is not None else 0
    while True:
        i = len(reps)
        traced = tracer is not None and i % UNTRACED_EVERY != 0
        if traced:
            tracer.reset()
            unbound = tracer.install()
        spent = host.spent if host is not None else 0.0
        gc.collect()  # every pass starts from the same heap state
        t0 = time.perf_counter()
        try:
            result = workload.run_pass(ag, inputs, 0 if tracer is not None else i, between)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        rep = {"wall": wall, "result": result, "traced": traced}
        if host is not None:
            rep["wall"] = wall = wall - (host.spent - spent)
            following = host.boundary()
            rep["scaled"] = wall * host.scale_since(first)
            first = following
        if traced:
            rep["unbound"] = unbound
            rep["layers"] = layer_snapshot(tracer, wall)
        reps.append(rep)
        elapsed = time.perf_counter() - start
        longest = max(r["wall"] for r in reps)
        # a traced run needs one untraced and one traced pass at least
        if elapsed + longest > seconds and (tracer is None or len(reps) >= 2):
            return reps


def layer_snapshot(tracer: Tracer, wall: float) -> dict[str, float]:
    out: dict[str, float] = {}
    for key in TRACED_FUNCTIONS + SUITE_CLAIMS:
        stats = tracer.functions.get(key)
        out[f"{key}.calls"] = stats.calls if stats else 0
        time_name = "total_s" if key in SUITE_CLAIMS else "self_s"
        out[f"{key}.{time_name}"] = getattr(stats, time_name) if stats else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.layer_self_s[layer]
        out[f"{layer}.errors"] = tracer.layer_errors[layer]
    out["unattributed_s"] = wall - sum(tracer.layer_self_s.values())
    out["autsearch.generators"] = tracer.generators
    out["perms.strong_generators"] = tracer.strong_generators
    out["autsearch.distinct_cert_ratio"] = (len(tracer.certificates) / tracer.aut_calls
                                            if tracer.aut_calls else 0.0)
    return out


def summarize_layers(reps, failures: list[str]) -> dict[str, float]:
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    metrics = {}
    for name, unit in per_layer_metrics():
        if name == "trace.overhead_s":
            metrics[name] = (statistics.median(r["wall"] for r in traced)
                             - statistics.median(r["wall"] for r in untraced))
            continue
        values = [r["layers"][name] for r in traced]
        if is_count(unit):
            if len(set(values)) != 1:
                failures.append(f"count {name} differs across repetitions of one "
                                f"input: {values} (a harness bug, not noise)")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    for rep in traced:
        failures += [f"tracer left {ref} unwrapped" for ref in rep["unbound"]]
    return metrics


def latency_lines(latencies: list[float]) -> list[str]:
    """The median operation latency, and the highest percentile with at least
    ten samples beyond it, each with the sample count."""
    n = len(latencies)
    ordered = sorted(latencies)
    lines = [f"metric op_p50_ms {statistics.median(ordered)!r} ms ({n} operations)"]
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            lines.append(f"metric op_p{p}_ms {ordered[min(n - 1, n * p // 100)]!r} ms "
                         f"({n} operations)")
            break
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "arrgraph" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'arrgraph'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import arrgraph as ag
    import arrgraph.graphio  # noqa: F401  (not imported by the package itself)
    if Path(ag.__file__).resolve().parent != (SRC / "arrgraph").resolve():
        print(f"perfbench: imported arrgraph from {ag.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    host = None if args.trace else HostSpeed()
    setups, scaled_setups = [], []
    first = host.boundary() if host is not None else 0
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        t0 = time.perf_counter()
        inputs = workload.setup(ag, args.seed)
        setups.append(imported + time.perf_counter() - t0)
        if host is not None:
            following = host.boundary()
            scaled_setups.append(setups[-1] * host.scale_since(first))
            first = following

    tracer = Tracer() if args.trace else None
    reps = run_repetitions(workload, ag, inputs, args.seconds, tracer, host)

    results = [r["result"] for r in reps]
    failures = [f for res in results for f in res.failures]
    failed = len(failures)
    attempted = sum(res.attempted for res in results)
    latencies = [x for res in results for x in res.latencies_ms]
    walls = [r["wall"] for r in reps]

    context = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(),
        "source_sha256": source_digest(), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "passes": len(reps),
        "operations": len(latencies), "why": workload.why,
        "left_out": workload.left_out, "host_jitter": HOST_JITTER,
    }
    print("context " + json.dumps(context, sort_keys=True))

    if tracer is None:
        print(f"metric reference_s {statistics.median(host.samples)!r} s (median of "
              f"{len(host.samples)} reference-loop samples)")
        print(f"metric wall_raw_s {statistics.median(walls)!r} s (median pass wall "
              "time, unscaled)")
        print(f"metric setup_raw_s {statistics.median(setups)!r} s (median set-up "
              "time, unscaled)")
        metrics = {
            "wall_s": statistics.median(r["scaled"] for r in reps),
            "setup_s": statistics.median(scaled_setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = dict(END_TO_END)
    else:
        attempted += 1  # the check that counts repeat and every binding is wrapped
        count_failures: list[str] = []
        metrics = summarize_layers(reps, count_failures)
        failures += count_failures
        failed += bool(count_failures)
        units = dict(per_layer_metrics())
        print(f"note untraced passes {sum(not r['traced'] for r in reps)}, traced passes "
              f"{sum(r['traced'] for r in reps)}; traced run wall_s "
              f"{statistics.median(r['wall'] for r in reps if r['traced']):.6f} s")

    print("note pass walls " + " ".join(f"{w:.3f}" for w in walls))
    for line in latency_lines(latencies):
        print(line)
    print(f"metric fail_ratio {failed / attempted!r} ratio ({failed} of {attempted} operations)")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
