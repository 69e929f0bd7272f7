"""Command-line front end.

Subcommands: gen, aut, mis, blocks, verify, conjecture. verify runs the
claim suite for every n from 3 to --n-max, which is 3 to 6 (default 5).
Exit codes: 0 success, 2 validation error, 3 budget exceeded,
4 an expected claim failed.

Every Config field can be overridden by an ARRGRAPH_* environment variable
(see config.py).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable

from . import graphio
from .autsearch import automorphism_group
from .config import Config, decimal
from .errors import BudgetError, ValidationError
from .graphs import build_arrangement_graph, build_cayley_graph
from .indsets import ENUMERATE_ALL, SIZE_ONLY, max_independent_sets
from .perms import connection_set
from .suite import (Context, ReportDocument, run_full_suite, test_conjecture,
                    verify_blocks, verify_lemma_2_5, verify_prop_2_1)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_CLAIM_FAILED = 4


def _parse_connection_kind(spec: str) -> tuple[str, int | None]:
    if spec in ("transpositions", "derangements"):
        return spec, None
    count = spec.removeprefix("fixed:")
    if count != spec:
        try:
            return "fixed", decimal(count)  # connection_set checks its range
        except ValidationError:
            pass
    raise ValidationError(
        f"bad connection set {spec!r}; use transpositions, derangements or fixed:K")


def _write_output(chunks: Iterable[str], path: str | None) -> None:
    # callers build and check what they write before this opens the file,
    # so that invalid flags never leave partial files
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def cmd_gen(args, config: Config) -> int:
    if args.family == "arrangement":
        graph = build_arrangement_graph(args.n, args.k, args.r, config)
    else:
        kind, f = _parse_connection_kind(args.set)
        graph = build_cayley_graph(args.n, connection_set(args.n, kind, f, config), config)
    _write_output(graphio.dump(graph, args.format), args.output)
    print(f"{graph.vertex_count} vertices, {graph.edge_count()} edges",
          file=sys.stderr if args.output in (None, "-") else sys.stdout)
    return EXIT_OK


def cmd_aut(args, config: Config) -> int:
    graph = graphio.load_file(args.graphfile, config)
    result = automorphism_group(graph, config)
    print(f"order {result.order}")
    print(f"certificate {result.certificate_hex()}")
    if args.generators:
        for g in result.generators:
            print("generator", g)
    if args.stats:
        stats = result.stats
        print(f"nodes {stats.nodes}")
        print(f"leaves {stats.leaves}")
        print(f"automorphisms found {stats.found}")
    return EXIT_OK


def cmd_mis(args, config: Config) -> int:
    graph = graphio.load_file(args.graphfile, config)
    mode = ENUMERATE_ALL if args.all else SIZE_ONLY
    size, sets = max_independent_sets(graph, mode, config)
    print(f"independence number {size}")
    if sets is not None:
        print(f"{len(sets)} maximum independent sets")
        for s in sets:
            print(" ".join(str(v) for v in s))
    return EXIT_OK


def cmd_blocks(args, config: Config) -> int:
    n, k = args.n, args.k
    ctx = Context(config)  # one search of A(n,k,k) for all three claims
    claims = [verify_prop_2_1(n, k, ctx=ctx), verify_blocks(n, k, ctx=ctx)]
    if k < n:
        claims.append(verify_lemma_2_5(n, k, ctx=ctx))
    doc = ReportDocument(claims)
    print(doc.summary_text(), end="")
    if k == n:
        violation = claims[1].details["inversion_violation"]
        print("k = n: Sigma and Sigma' are checked under the value/position "
              f"relabelings; inversion violation: {json.dumps(violation, sort_keys=True)}")
    return EXIT_OK if doc.all_expected_pass() else EXIT_CLAIM_FAILED


def cmd_verify(args, config: Config) -> int:
    doc = run_full_suite(args.n_max, config)
    summary = doc.summary_text()
    _write_output([doc.to_jsonl()], args.report)
    if args.summary:
        _write_output([summary], args.summary)
    print(summary, end="")
    return EXIT_OK if doc.all_expected_pass() else EXIT_CLAIM_FAILED


def cmd_conjecture(args, config: Config) -> int:
    report = test_conjecture(args.n, args.k, ctx=Context(config))
    print(json.dumps(report.to_json_obj(), indent=2, sort_keys=True))
    if report.exploratory:
        return EXIT_OK
    return EXIT_OK if report.passed else EXIT_CLAIM_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrgraph",
        description="Arrangement graphs, Cayley graphs on symmetric groups, "
                    "their automorphism groups, and the desk-scale claim suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="construct a graph and write it to a file")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    p_arr = gen_sub.add_parser("arrangement")
    p_arr.add_argument("--n", type=decimal, required=True)
    p_arr.add_argument("--k", type=decimal, required=True)
    p_arr.add_argument("--r", type=decimal, required=True)
    p_cay = gen_sub.add_parser("cayley")
    p_cay.add_argument("--n", type=decimal, required=True)
    p_cay.add_argument("--set", required=True,
                       help="transpositions | derangements | fixed:K")
    for p in (p_arr, p_cay):
        p.add_argument("--format", choices=graphio.FORMATS,
                       default=graphio.FORMAT_GRAPHDOC)
        p.add_argument("--output", "-o", default=None,
                       help="output path (default: stdout)")

    p_aut = sub.add_parser("aut", help="exact automorphism group order")
    p_aut.add_argument("graphfile")
    p_aut.add_argument("--generators", action="store_true")
    p_aut.add_argument("--stats", action="store_true",
                       help="print the search counters, one per line")

    p_mis = sub.add_parser("mis", help="exact independence number")
    p_mis.add_argument("graphfile")
    p_mis.add_argument("--all", action="store_true",
                       help="enumerate all maximum independent sets")

    p_blocks = sub.add_parser("blocks", help="block systems of A(n,k,k)")
    p_blocks.add_argument("--n", type=decimal, required=True)
    p_blocks.add_argument("--k", type=decimal, required=True)

    p_verify = sub.add_parser("verify", help="run the full claim suite")
    p_verify.add_argument("--n-max", type=decimal, default=5,
                          help="largest n of the suite, 3 to 6 (default 5)")
    p_verify.add_argument("--report", default=None,
                          help="path for the JSONL claim report")
    p_verify.add_argument("--summary", default=None,
                          help="path for the plain-text summary table")

    p_conj = sub.add_parser("conjecture", help="probe the conjectured group")
    p_conj.add_argument("--n", type=decimal, required=True)
    p_conj.add_argument("--k", type=decimal, required=True,
                        help="number of fixed points of the connection set")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = Config.from_env()
        handler = {
            "gen": cmd_gen,
            "aut": cmd_aut,
            "mis": cmd_mis,
            "blocks": cmd_blocks,
            "verify": cmd_verify,
            "conjecture": cmd_conjecture,
        }[args.command]
        return handler(args, config)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as e:  # a missing, unreadable or unwritable file
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
