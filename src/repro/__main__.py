"""Command-line interface: query probabilistic tables from the shell.

Usage::

    python -m repro query TABLE.json "EXISTS x. R(x)" [--epsilon 0.01]
           [--open-world first,ratio] [--sweep E1,E2,...]
           [--strategy auto|worlds|lineage|lifted|bdd|sampled]
           [--stats [human|json]]
    python -m repro marginals TABLE.json "R(x)" [--workers K]
           [--open-world first,ratio] [--epsilon 0.01] [--sweep E1,E2,...]
           [--stats [human|json]]
    python -m repro info TABLE.json
    python -m repro serve [--host H --port P | --stdio] [--snapshot PATH]

``TABLE.json`` is the JSON format of :mod:`repro.io` (kind
``tuple-independent`` or ``block-independent-disjoint``).  With
``--open-world`` the table is first completed (Theorem 5.5) with a
geometric family over its fact space and the query is evaluated by the
Proposition 6.1 truncation algorithm.

``--sweep E1,E2,...`` (open-world only) runs an anytime ε-sweep through
one :class:`repro.core.refine.RefinementSession` — loosest ε first, each
tighter guarantee extending the previous truncation and reusing its
compiled evaluation — and prints one line per ε.

``marginals`` answers a safe query on a tuple-independent table
(``--strategy auto`` or ``lifted``) with one in-process grouped lifted
pass over all candidate answers; ``--workers`` does not apply there.
For compiled fan-outs (``--strategy bdd``, unsafe queries, BID tables)
``marginals --workers K`` (K > 1) fans answer tuples out over a
persistent :class:`repro.parallel.pool.ShardPool` of up to K worker
processes, each started when the fan-out first sends it a chunk;
combined with ``--open-world --sweep`` the same workers stay warm
across all sweep steps and only the truncation *delta* is shipped
between steps.

``--stats`` prints the :class:`repro.obs.EvalReport` attached to the
result — chosen strategy, truncation/α, cache and sampling telemetry,
per-phase wall clock — on **stderr**, so stdout stays the bare answer.
``--stats`` alone renders the human layout; ``--stats json`` emits the
machine-readable schema (see ``repro.obs.REPORT_SCHEMA``).

``serve`` starts the long-lived query service (:mod:`repro.serve`):
named refinement sessions with warm compiled state behind a
newline-delimited JSON protocol, over TCP (default) or stdin/stdout
(``--stdio``).  With ``--snapshot PATH`` the server restores session
state from PATH at startup (when the file exists) and writes a final
snapshot on shutdown.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.completion import complete
from repro.core.fact_distribution import GeometricFactDistribution
from repro.errors import ReproError
from repro.finite.evaluation import (
    marginal_answer_probabilities,
    query_probability,
)
from repro.finite.tuple_independent import TupleIndependentTable
from repro.io import load
from repro.logic.analysis import free_variables
from repro.logic.parser import parse_formula
from repro.logic.queries import BooleanQuery, Query
from repro.universe import FactSpace, Naturals


def _load_table(path: str):
    with open(path) as handle:
        return load(handle)


def _emit_stats(result, mode) -> None:
    """Print the EvalReport attached to ``result`` on stderr."""
    if not mode:
        return
    report = getattr(result, "report", None)
    if report is None:
        print("stats: no evaluation report attached", file=sys.stderr)
        return
    if mode == "json":
        print(report.to_json(indent=2), file=sys.stderr)
    else:
        print(report.render(), file=sys.stderr)


def _add_stats_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--stats", nargs="?", const="human", default=None,
        choices=["human", "json"], metavar="FORMAT",
        help="print evaluation telemetry on stderr "
             "(FORMAT: human [default] or json)")


def _parse_open_world(spec: str):
    try:
        first_text, ratio_text = spec.split(",")
        return float(first_text), float(ratio_text)
    except ValueError:
        raise SystemExit(
            f"--open-world expects 'first,ratio', got {spec!r}")


def _parse_sweep(spec: str):
    """The validated sweep schedule of ``--sweep``: floats routed
    through :func:`repro.core.refine.normalize_epsilons`, so non-positive
    epsilons are rejected here (not deep inside the truncation search)
    and duplicates collapse to one refinement."""
    try:
        epsilons = [float(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(
            f"--sweep expects comma-separated epsilons, got {spec!r}")
    from repro.core.refine import normalize_epsilons
    from repro.errors import EvaluationError

    try:
        return normalize_epsilons(epsilons)
    except EvaluationError as err:
        raise SystemExit(f"--sweep: {err}")


def command_info(args: argparse.Namespace) -> int:
    table = _load_table(args.table)
    kind = type(table).__name__
    print(f"kind          : {kind}")
    print(f"schema        : {table.schema}")
    print(f"facts         : {len(table.facts())}")
    print(f"expected size : {table.expected_size():.6f}")
    for fact in table.facts()[:10]:
        print(f"  {fact} : {table.marginal(fact)}")
    if len(table.facts()) > 10:
        print(f"  … {len(table.facts()) - 10} more")
    return 0


def command_query(args: argparse.Namespace) -> int:
    table = _load_table(args.table)
    formula = parse_formula(args.query, table.schema)
    query = BooleanQuery(formula, table.schema)
    if args.open_world:
        if not isinstance(table, TupleIndependentTable):
            raise SystemExit("--open-world requires a tuple-independent table")
        first, ratio = _parse_open_world(args.open_world)
        completed = complete(
            table,
            GeometricFactDistribution(
                FactSpace(table.schema, Naturals()), first=first, ratio=ratio),
        )
        if args.sweep:
            from repro.core.refine import RefinementSession

            session = RefinementSession(query, completed)
            for epsilon, result in session.sweep(
                    _parse_sweep(args.sweep)).items():
                print(f"P(Q) = {result.value:.6f}  (±{result.epsilon}, "
                      f"truncated at n = {result.truncation} "
                      "open-world facts)")
                _emit_stats(result, args.stats)
        else:
            result = completed.approximate_query_probability(
                query, epsilon=args.epsilon)
            print(f"P(Q) = {result.value:.6f}  (±{result.epsilon}, "
                  f"truncated at n = {result.truncation} open-world facts)")
            _emit_stats(result, args.stats)
    else:
        if args.sweep:
            raise SystemExit("--sweep requires --open-world")
        value = query_probability(query, table, strategy=args.strategy)
        print(f"P(Q) = {value:.6f}  (exact, closed world)")
        _emit_stats(value, args.stats)
    return 0


def command_marginals(args: argparse.Namespace) -> int:
    table = _load_table(args.table)
    formula = parse_formula(args.query, table.schema)
    if not free_variables(formula):
        raise SystemExit("marginals expects a query with free variables; "
                         "use 'query' for Boolean queries")
    query = Query(formula, table.schema)
    workers = args.workers if args.workers and args.workers > 1 else None
    if args.open_world:
        if not isinstance(table, TupleIndependentTable):
            raise SystemExit("--open-world requires a tuple-independent table")
        from repro.core.refine import RefinementSession

        first, ratio = _parse_open_world(args.open_world)
        completed = complete(
            table,
            GeometricFactDistribution(
                FactSpace(table.schema, Naturals()), first=first, ratio=ratio),
        )
        session = RefinementSession(query, completed)
        epsilons = (
            _parse_sweep(args.sweep) if args.sweep else [args.epsilon])
        for epsilon in epsilons:
            results = session.refine_marginals(epsilon, workers=workers)
            for answer, result in results.items():
                print(f"{answer} : {result.value:.6f}  (±{result.epsilon}, "
                      f"truncated at n = {result.truncation} "
                      "open-world facts)")
            if not results:
                print(f"(no answers with positive probability at "
                      f"epsilon = {epsilon})")
            else:
                _emit_stats(next(iter(results.values())), args.stats)
        return 0
    if args.sweep:
        raise SystemExit("--sweep requires --open-world")
    answers = marginal_answer_probabilities(
        query, table, strategy=args.strategy, workers=workers)
    for answer in sorted(answers, key=repr):
        print(f"{answer} : {answers[answer]:.6f}")
    if not answers:
        print("(no answers with positive probability)")
    _emit_stats(answers, args.stats)
    return 0


def command_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from repro.serve import QueryServer, SessionManager, load_snapshot

    if args.snapshot and os.path.exists(args.snapshot):
        manager = load_snapshot(args.snapshot)
        print(f"restored {len(manager)} session(s) from {args.snapshot}",
              file=sys.stderr)
    else:
        manager = SessionManager(max_sessions=args.max_sessions)
    server = QueryServer(
        manager=manager, max_workers=args.workers,
        snapshot_path=args.snapshot, shard_workers=args.workers)
    try:
        if args.stdio:
            asyncio.run(server.serve_stdio())
        else:
            def announce(port: int) -> None:
                print(f"serving on {args.host}:{port}", file=sys.stderr,
                      flush=True)

            asyncio.run(
                server.serve_tcp(args.host, args.port, ready=announce))
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query probabilistic tables (closed or open world).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="describe a table file")
    info.add_argument("table")
    info.set_defaults(handler=command_info)

    query = commands.add_parser("query", help="Boolean query probability")
    query.add_argument("table")
    query.add_argument("query")
    query.add_argument("--strategy", default="auto",
                       choices=["auto", "worlds", "lineage", "lifted", "bdd",
                                "sampled"])
    query.add_argument("--open-world", metavar="FIRST,RATIO", default=None,
                       help="complete with a geometric open-world family "
                            "before querying (Theorem 5.5)")
    query.add_argument("--epsilon", type=float, default=0.01,
                       help="additive guarantee for open-world queries")
    query.add_argument("--sweep", metavar="E1,E2,...", default=None,
                       help="anytime epsilon sweep through one refinement "
                            "session (requires --open-world); prints one "
                            "line per epsilon, loosest first")
    _add_stats_flag(query)
    query.set_defaults(handler=command_query)

    marginals = commands.add_parser(
        "marginals", help="per-answer-tuple probabilities")
    marginals.add_argument("table")
    marginals.add_argument("query")
    marginals.add_argument("--strategy", default="auto",
                           choices=["auto", "worlds", "lineage", "lifted",
                                    "bdd", "sampled"])
    marginals.add_argument("--workers", type=int, default=None,
                           help="fan compiled fan-outs (bdd, unsafe, BID) "
                                "out over the persistent shard pool (k > 1 "
                                "worker processes); safe queries on TI "
                                "tables take one in-process grouped pass")
    marginals.add_argument("--open-world", metavar="FIRST,RATIO",
                           default=None,
                           help="complete with a geometric open-world family "
                                "before querying (Theorem 5.5)")
    marginals.add_argument("--epsilon", type=float, default=0.01,
                           help="additive guarantee for open-world marginals")
    marginals.add_argument("--sweep", metavar="E1,E2,...", default=None,
                           help="anytime epsilon sweep through one "
                                "refinement session (requires --open-world); "
                                "plans and shard pools stay warm across steps")
    _add_stats_flag(marginals)
    marginals.set_defaults(handler=command_marginals)

    serve = commands.add_parser(
        "serve",
        help="long-lived query service (newline-delimited JSON protocol)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7532,
                       help="TCP port (0 picks an ephemeral one)")
    serve.add_argument("--stdio", action="store_true",
                       help="serve one client over stdin/stdout instead "
                            "of TCP")
    serve.add_argument("--snapshot", metavar="PATH", default=None,
                       help="restore session state from PATH at startup "
                            "(if it exists) and snapshot on shutdown")
    serve.add_argument("--max-sessions", type=int, default=16,
                       help="admission-control cap on concurrent sessions")
    serve.add_argument("--workers", type=int, default=4,
                       help="thread-pool size for blocking refinements; "
                            "also sizes the shared shard pool that "
                            "compiled 'marginals' requests fan out on "
                            "(its workers start with the first such "
                            "request that ships)")
    serve.set_defaults(handler=command_serve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
