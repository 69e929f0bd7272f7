#!/usr/bin/env python3
"""Self-test of the benchmark at small size, in about 15 seconds.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that BENCHMARK.json declares exactly the metrics run.py prints,
that the shortest run of each mode prints them on its last line, that a
traced pass gives the same answers as an untraced one, that two
traced passes give identical counts, and that the tracer rebinds every
reference to a wrapped function and restores each one afterwards. The
sizes are small: verify with n_max = 3, a 4-query aut list and a 4-query
mis list. It runs every check and exits 1 if any of them fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
from tracer import Tracer
from workloads import Aut, Mis, MisQuery, Verify, delta_alpha

SMALL = [
    Verify(n_max=3),
    Aut(graphs=[(4, 3, 3), (4, 4, 3)]),
    Mis(queries=[
        MisQuery("arrangement", 4, 2, 2, mode="enumerate_all", alpha=delta_alpha(4, 2)),
        MisQuery("arrangement", 4, 4, 4, mode="enumerate_all", alpha=delta_alpha(4, 4)),
        MisQuery("arrangement", 5, 3, 2, alpha=9),
        MisQuery("fixed", 6, fixed=4, alpha=360),
    ]),
]


def check_declared_metrics(problems: list[str]) -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    pairs = {(m["name"], m["unit"]) for m in declared["end_to_end"]}
    if pairs != set(run.END_TO_END):
        problems.append(f"end_to_end metrics {sorted(pairs)} != {sorted(run.END_TO_END)}")
    pairs = {(m["name"], m["unit"]) for m in declared["per_layer"]}
    if pairs != set(run.per_layer_metrics()):
        problems.append("per_layer metrics in BENCHMARK.json differ from run.per_layer_metrics()")
    names = {w["name"] for w in declared["workloads"]}
    if names != set(run.WORKLOADS):
        problems.append(f"workloads {sorted(names)} != {sorted(run.WORKLOADS)}")


def check_result_line(problems: list[str]) -> None:
    """One shortest run of the command per mode: its last line must carry
    exactly the declared metrics."""
    for trace, declared in (("0", run.END_TO_END), ("1", run.per_layer_metrics())):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "verify", "--seed", "1", "--seconds", "0",
                             "--trace", trace])
        result = json.loads(out.getvalue().splitlines()[-1])
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        if code != 0 or units != dict(declared) or result["correct"] is not True:
            problems.append(f"--trace {trace}: exit {code}, correct {result['correct']}, "
                            f"metrics {sorted(units)}")


def traced_pass(tracer: Tracer, workload, ag, inputs):
    tracer.reset()
    unbound = tracer.install()
    try:
        result = workload.run_pass(ag, inputs, 0)
    finally:
        tracer.uninstall()
    return result, unbound, run.layer_snapshot(tracer, 0.0)


def check_workload(workload, ag, tracer: Tracer, problems: list[str]) -> None:
    name = workload.name
    inputs = workload.setup(ag, 7)
    plain = workload.run_pass(ag, inputs, 0)
    if plain.failures or not plain.attempted:
        problems.append(f"{name}: untraced pass failed {plain.failures}")
    first, unbound, counts1 = traced_pass(tracer, workload, ag, inputs)
    second, _, counts2 = traced_pass(tracer, workload, ag, inputs)
    if unbound:
        problems.append(f"{name}: tracer left {unbound} unwrapped")
    if first.answers != plain.answers or second.answers != plain.answers:
        problems.append(f"{name}: traced answers differ from untraced ones")
    for metric, unit in run.per_layer_metrics():
        if run.is_count(unit) and counts1.get(metric) != counts2.get(metric):
            problems.append(f"{name}: {metric} is {counts1.get(metric)} then "
                            f"{counts2.get(metric)} on the same input")
    if not any(counts1[f"{layer}.self_s"] > 0 for layer in run.LAYERS):
        problems.append(f"{name}: the traced pass recorded no time in any layer")


def check_restored(tracer: Tracer, before: list[str], problems: list[str]) -> None:
    after = tracer.unbound_references()
    if after != before:
        problems.append(f"uninstall did not restore the originals: {len(before)} "
                        f"references before install, {len(after)} after")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import arrgraph as ag
    import arrgraph.graphio  # noqa: F401

    problems: list[str] = []
    check_declared_metrics(problems)
    tracer = Tracer()
    before = tracer.unbound_references()
    for workload in SMALL:
        check_workload(workload, ag, tracer, problems)
    check_restored(tracer, before, problems)
    check_result_line(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
