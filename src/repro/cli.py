"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``make-db``
    Generate a synthetic reference database as FASTA.
``make-query``
    Generate a query with planted homologies over an existing database.
``search``
    Search a FASTA query against a FASTA database with serial BLAST,
    Orion, or the mpiBLAST baseline; tabular or pairwise output.
``serve``
    Run the query set through the always-on service: queries are admitted
    concurrently and their (fragment × shard) tasks interleave on one
    persistent worker pool (``--max-inflight``, ``--queue-depth``,
    ``--breaker-*`` tune overload behaviour).
``overlap``
    Print the Eq.-1 fragment overlap for a query/database size pairing.
``plane``
    Inspect (``plane ls``) the machine's shared database planes — the
    lease-registry ``/dev/shm`` segments sessions and service replicas
    share — or reclaim (``plane reap``) every plane no lock holds
    (``repro.mapreduce.shm``).
``experiment``
    Regenerate one of the paper's tables/figures (fig3, fig8, table3,
    fig9, fig10, fig11, largedb, accuracy).

A SIGTERM (a plain ``kill``, a process manager's stop) makes a command exit
with status 143 the way ``sys.exit`` does, so its ``finally`` blocks and
``atexit`` hooks run and a search releases its plane lease. ``search``
stops between queries, and ``serve`` drains the queries it has admitted
and closes the service. Forked pool workers keep SIGTERM's default action.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import List, Optional, Tuple

from repro.blast.engine import BlastEngine
from repro.blast.formatter import format_tabular
from repro.blast.params import BlastParams
from repro.core.orion import OrionSearch
from repro.core.overlap import overlap_length
from repro.mapreduce.runtime import EXECUTOR_KINDS
from repro.mpiblast.runner import MpiBlastRunner
from repro.sequence.fasta import read_fasta, write_fasta
from repro.sequence.generator import (
    HomologySpec,
    make_database,
    make_query_with_homologies,
)
from repro.sequence.records import Database, SequenceRecord
from repro.util.validation import check_positive


class _InputError(Exception):
    """An unusable input file or option value: one ``error:`` line, exit 2."""


def _load_inputs(
    db_path: str, query_path: Optional[str] = None
) -> Tuple[Database, List[SequenceRecord]]:
    """Read the database and, if a path is given, the query set.

    A missing or unreadable file, malformed FASTA, a database with duplicate
    ids, and a query set that is empty or holds a zero-length record all
    raise :class:`_InputError` before any search starts.
    """
    path = db_path
    try:
        db = Database(read_fasta(db_path), name="db")
        if query_path is None:
            return db, []
        path = query_path
        queries = read_fasta(query_path)
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}") from exc
    if not queries:
        raise _InputError(f"{query_path}: query file contains no sequences")
    for query in queries:
        if len(query) == 0:
            raise _InputError(f"{query_path}: query {query.seq_id!r} is empty (zero bases)")
    return db, queries


def _cmd_make_db(args: argparse.Namespace) -> int:
    db = make_database(
        args.seed,
        num_sequences=args.sequences,
        mean_length=args.mean_length,
        name=args.name,
    )
    write_fasta(db.records, args.out)
    print(f"wrote {db.num_sequences} sequences, {db.total_length:,} bp -> {args.out}")
    return 0


def _cmd_make_query(args: argparse.Namespace) -> int:
    db, _ = _load_inputs(args.db)
    specs = [HomologySpec(length=args.homology_length)] * args.homologies
    query, truth = make_query_with_homologies(
        args.seed, args.length, db, specs, seq_id=args.name
    )
    write_fasta([query], args.out)
    print(f"wrote query {query.seq_id} ({len(query):,} bp) -> {args.out}")
    for t in truth:
        print(
            f"  planted {t.query_interval[0]}-{t.query_interval[1]} ~ "
            f"{t.subject_id}:{t.subject_interval[0]}-{t.subject_interval[1]}"
        )
    return 0


def _prune_threshold_from(args: argparse.Namespace) -> Optional[float]:
    """Resolve --prune-threshold / --no-prune (the latter wins)."""
    if args.no_prune:
        return None
    return args.prune_threshold


def _params_from(args: argparse.Namespace) -> BlastParams:
    """BLAST parameters from the shared options; a bad value raises
    ``ValueError`` (``--evalue 0`` or ``inf``, ``--max-alignments 0``)."""
    if args.max_alignments is not None:
        check_positive("--max-alignments", args.max_alignments)
    overrides = {}
    if args.evalue is not None:
        overrides["evalue_threshold"] = args.evalue
    if args.two_hit:
        overrides["two_hit_window"] = 40
    if args.dust:
        overrides["dust"] = True
    base = BlastParams.megablast() if args.task == "megablast" else BlastParams()
    return base.with_overrides(**overrides) if overrides else base


def _cmd_search(args: argparse.Namespace) -> int:
    db, queries = _load_inputs(args.db, args.query)

    # One OrionSearch serves the whole query set: with a process-backed
    # executor it holds the persistent worker pool and the shared-memory
    # database plane, so per-query warmup is paid once, not per query.
    orion = None
    sanitizer = None
    try:
        params = _params_from(args)
        check_positive("--shards", args.shards)
        if args.mode == "orion":
            executor = args.executor
            if args.sanitize:
                from repro.analysis.sanitizer import SanitizerExecutor

                sanitizer = SanitizerExecutor(on_mutation="record")
                executor = sanitizer
            orion = OrionSearch(
                database=db,
                params=params,
                num_shards=args.shards,
                fragment_length=args.fragment_length,
                strands=args.strands,
                executor=executor,
                num_workers=args.workers,
                retries=args.retries,
                task_timeout=args.task_timeout,
                prune_threshold=_prune_threshold_from(args),
            )
    except ValueError as exc:
        raise _InputError(str(exc)) from exc

    all_alignments = []
    args.sigterm.deferred = True  # stop between queries
    try:
        for query in queries:
            args.sigterm.check()
            if args.mode == "serial":
                res = BlastEngine(params).search(query, db, strands=args.strands)
                alignments = res.alignments
            elif args.mode == "orion":
                alignments = orion.run(query).alignments
                if sanitizer is not None:
                    for mutation in sanitizer.reports:
                        print(f"sanitizer: {mutation}", file=sys.stderr)
                    if sanitizer.reports:
                        return 3
                    print(
                        "sanitizer: no cross-task shared-state mutation detected",
                        file=sys.stderr,
                    )
            else:  # mpiblast
                runner = MpiBlastRunner(params=params)
                out = runner.run([query], db, args.shards)
                alignments = out.alignments[query.seq_id]
            if args.max_alignments:
                alignments = alignments[: args.max_alignments]
            all_alignments.append((query, alignments))
    finally:
        if orion is not None:
            orion.close()
        args.sigterm.deferred = False
    args.sigterm.check()

    for query, alignments in all_alignments:
        if args.outfmt == "tabular":
            print(format_tabular(alignments))
        else:
            from repro.sequence.alphabet import reverse_complement

            def q_frame(aln):
                return (
                    query.codes if aln.strand == 1 else reverse_complement(query.codes)
                )

            for aln in alignments:
                if aln.path is None:
                    continue
                from repro.blast.pairwise import format_pairwise

                print(format_pairwise(aln, q_frame(aln), db[aln.subject_id].codes))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import OrionService, ServiceConfig

    db, queries = _load_inputs(args.db, args.query)
    try:
        config = ServiceConfig(
            max_inflight=args.max_inflight,
            queue_depth=args.queue_depth,
            breaker_failures=args.breaker_failures,
            breaker_reset_seconds=args.breaker_reset_seconds,
            breaker_probes=args.breaker_probes,
        )
        search = OrionSearch(
            database=db,
            params=_params_from(args),
            num_shards=args.shards,
            fragment_length=args.fragment_length,
            strands=args.strands,
            executor=args.executor,
            num_workers=args.workers,
            retries=args.retries,
            prune_threshold=_prune_threshold_from(args),
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from exc

    service = OrionService(search, config)

    async def run_set() -> List:
        # SIGTERM cancels the set at the event loop's next step, so the
        # service drains and closes (and releases the plane) before exit.
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, asyncio.current_task().cancel)
        async with service:
            # Client-side backpressure: at most queue_depth submissions
            # outstanding, so admission never sheds this batch workload.
            gate = asyncio.Semaphore(config.queue_depth)

            async def one(query):
                async with gate:
                    return await service.submit(query)

            return await asyncio.gather(*(one(q) for q in queries))

    try:
        results = asyncio.run(run_set())
    except asyncio.CancelledError:  # the SIGTERM above
        raise SystemExit(128 + signal.SIGTERM) from None
    for query, result in zip(queries, results):
        alignments = result.alignments
        if args.max_alignments:
            alignments = alignments[: args.max_alignments]
        print(format_tabular(alignments))
    stats = service.stats
    print(
        f"served {stats.completed} queries "
        f"(max_inflight={config.max_inflight}, queue_depth={config.queue_depth}); "
        f"latency p50 {stats.p50:.3f}s p99 {stats.p99:.3f}s; "
        f"shed {stats.rejected} (queue {stats.rejected_queue_full}, "
        f"breaker {stats.rejected_circuit_open}); failed {stats.failed}",
        file=sys.stderr,
    )
    if search.prune_threshold is not None:
        total_visits = stats.shards_searched + stats.shards_pruned
        print(
            f"pruning (threshold {search.prune_threshold}): searched "
            f"{stats.shards_searched}/{total_visits} shard visits, skipped "
            f"{stats.pruned_map_tasks} map tasks",
            file=sys.stderr,
        )
    return 0


def _cmd_overlap(args: argparse.Namespace) -> int:
    params = BlastParams()
    engine = BlastEngine(params)
    space = engine.search_space(args.query_length, args.db_length, args.db_sequences)
    L = overlap_length(engine.ka, params, space)
    from repro.core.overlap import shortest_significant_alignment

    s_lb = shortest_significant_alignment(engine.ka, params, space)
    print(f"lambda={engine.ka.lam:.4f} K={engine.ka.K:.4f}")
    print(f"effective m={space.m_eff:,} n={space.n_eff:,}")
    print(f"S_lb={s_lb}  overlap L={L} bp")
    return 0


def _cmd_plane_ls(args: argparse.Namespace) -> int:
    from repro.mapreduce.shm import list_planes

    planes = list_planes()
    if not planes:
        print("no shared database planes on this machine")
        return 0
    for status in planes:
        state = "healthy" if status.healthy else "UNHEALTHY"
        holders = "held" if status.held else "none (reapable)"
        db = status.db_name if status.db_name is not None else "?"
        k = status.k if status.k is not None else "?"
        print(
            f"{status.digest}  {state}  db={db} k={k} "
            f"gen={status.generation}  segments={status.num_segments} "
            f"({status.total_bytes / 1e6:.1f} MB)  holders={holders}"
        )
        if status.detail:
            print(f"  {status.detail}")
    return 0


def _cmd_plane_reap(args: argparse.Namespace) -> int:
    from repro.mapreduce.shm import reap_orphan_planes

    removed = reap_orphan_planes()
    if removed:
        for name in removed:
            print(f"reaped {name}")
    else:
        print("nothing to reap: no orphaned segments")
    return 0


EXPERIMENTS = ("fig3", "fig8", "table3", "fig9", "fig10", "fig11", "largedb", "accuracy")


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.bench import experiments as exp

    name = args.name
    if name == "table3":
        result = exp.run_fig8()
        print(result.report_table3.render())
        return 0
    runner = {
        "fig3": exp.run_fig3,
        "fig8": exp.run_fig8,
        "fig9": exp.run_fig9,
        "fig10": exp.run_fig10,
        "fig11": exp.run_fig11,
        "largedb": exp.run_largedb,
        "accuracy": exp.run_accuracy,
    }[name]
    result = runner()
    print(result.report.render())
    if name == "fig8":
        print()
        print(result.report_table3.render())
    return 0


def _shared_options() -> argparse.ArgumentParser:
    """The options `search` and `serve` share, as an argparse parent.

    Built afresh per command: argparse hands a parent's actions to each
    child by reference, so ``serve``'s ``set_defaults(executor=...)`` would
    otherwise change ``search``'s default too.
    """
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--db", required=True)
    shared.add_argument("--query", required=True, help="FASTA of queries")
    shared.add_argument("--shards", type=int, default=8)
    shared.add_argument("--fragment-length", type=int, default=None)
    shared.add_argument("--strands", choices=("plus", "both"), default="plus")
    shared.add_argument(
        "--executor",
        choices=EXECUTOR_KINDS,
        default="serial",
        help="MapReduce backend for orion mode (serial keeps simulator-safe "
        "timings; processes uses real multi-core parallelism). Default: "
        "serial for search, processes for serve — the service exists to "
        "keep one process pool busy across queries",
    )
    shared.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for --executor processes (default: one process "
        "per core)",
    )
    shared.add_argument(
        "--retries",
        type=int,
        default=3,
        help="attempt budget per map task on --executor processes: "
        "a failed, crashed or hung map task is retried individually (with "
        "backoff, on a respawned pool if a worker crash broke it) instead "
        "of rerunning the whole job serially; 1 disables per-task retries "
        "(default: 3)",
    )
    shared.add_argument(
        "--prune-threshold",
        type=float,
        default=None,
        help="sketch-based shard pruning for orion mode: skip (fragment x "
        "shard) map tasks whose estimated k-mer containment is below this "
        "fraction (try 0.02; E-value statistics stay whole-database, and "
        "0 probes without pruning — byte-identical output; default: off)",
    )
    shared.add_argument(
        "--no-prune",
        action="store_true",
        help="force shard pruning off (overrides --prune-threshold)",
    )
    shared.add_argument("--evalue", type=float, default=None)
    shared.add_argument("--task", choices=("blastn", "megablast"), default="blastn")
    shared.add_argument("--two-hit", action="store_true", help="two-hit seeding (window 40)")
    shared.add_argument("--dust", action="store_true", help="mask low-complexity query regions")
    shared.add_argument(
        "--max-alignments",
        type=int,
        default=None,
        help="print at most this many alignments per query (positive; "
        "default: all)",
    )
    return shared


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Orion (SC 2014) reproduction: fine-grained parallel BLAST.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-db", help="generate a synthetic reference database")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sequences", type=int, default=50)
    p.add_argument("--mean-length", type=int, default=10_000)
    p.add_argument("--name", default="synthdb")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_db)

    p = sub.add_parser("make-query", help="generate a query with planted homologies")
    p.add_argument("--db", required=True)
    p.add_argument("--seed", type=int, default=2)
    p.add_argument("--length", type=int, default=100_000)
    p.add_argument("--homologies", type=int, default=3)
    p.add_argument("--homology-length", type=int, default=800)
    p.add_argument("--name", default="query")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_query)

    p = sub.add_parser(
        "search", parents=[_shared_options()], help="search a query against a database"
    )
    p.add_argument("--mode", choices=("serial", "orion", "mpiblast"), default="orion")
    p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="per-attempt deadline in seconds for --executor processes; a "
        "straggling attempt past it is retried (it may still win if it "
        "finishes first). It counts from submit, so it includes the wait "
        "behind the query's other map tasks: set it above a whole query's "
        "wall, not one task's (default: no deadline)",
    )
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="run the MapReduce job under the race sanitizer instead of the "
        "selected executor: detects cross-task shared-state mutation "
        "(exit 3 if any is found)",
    )
    p.add_argument("--outfmt", choices=("tabular", "pairwise"), default="tabular")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "serve",
        parents=[_shared_options()],
        help="serve a query set through the always-on service "
        "(concurrent admission over one persistent worker pool)",
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        help="queries executing concurrently (threads feeding the shared "
        "pool; default: 4)",
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="bounded admission queue; a full queue sheds new submissions "
        "with a typed error instead of blocking (default: 16)",
    )
    p.add_argument(
        "--breaker-failures",
        type=int,
        default=5,
        help="consecutive failures that open the circuit breaker (default: 5)",
    )
    p.add_argument(
        "--breaker-reset-seconds",
        type=float,
        default=30.0,
        help="seconds an open breaker waits before half-open probes "
        "(default: 30)",
    )
    p.add_argument(
        "--breaker-probes",
        type=int,
        default=1,
        help="concurrent probe queries admitted while half-open (default: 1)",
    )
    p.set_defaults(func=_cmd_serve, executor="processes")

    p = sub.add_parser("overlap", help="print the Eq.-1 fragment overlap")
    p.add_argument("--query-length", type=int, required=True)
    p.add_argument("--db-length", type=int, required=True)
    p.add_argument("--db-sequences", type=int, default=1)
    p.set_defaults(func=_cmd_overlap)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name", choices=EXPERIMENTS)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "plane", help="inspect or reap the machine's shared database planes"
    )
    plane_sub = p.add_subparsers(dest="plane_command", required=True)
    p_ls = plane_sub.add_parser(
        "ls", help="list planes, their holders, and their health"
    )
    p_ls.set_defaults(func=_cmd_plane_ls)
    p_reap = plane_sub.add_parser(
        "reap", help="unlink every plane no lock holds"
    )
    p_reap.set_defaults(func=_cmd_plane_reap)

    return parser


class _Sigterm:
    """SIGTERM in the driver: unwind like ``sys.exit(143)``.

    At once, unless :attr:`deferred` is set: then the signal only records
    itself and :meth:`check` raises at the command's next safe point. A
    ``search`` defers while it runs queries, because an exit raised
    while the worker pool starts would orphan the workers forked so far.
    """

    def __init__(self) -> None:
        self.deferred = False
        self.pending = False

    def __call__(self, signum: int, frame: object) -> None:
        if self.deferred:
            self.pending = True
            return
        raise SystemExit(128 + signum)

    def check(self) -> None:
        """A safe point: exit if a deferred SIGTERM is waiting."""
        if self.pending:
            raise SystemExit(128 + signal.SIGTERM)


def _default_sigterm_in_child() -> None:
    """At-fork hook, child side: a forked pool worker gets SIGTERM's default
    action back, because ``ProcessPoolExecutor`` stops workers with it. The
    driver's handler (a :class:`_Sigterm`, or asyncio's while ``serve``
    runs its event loop) is the driver's alone."""
    if callable(signal.getsignal(signal.SIGTERM)):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_default_sigterm_in_child)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.sigterm = _Sigterm()
    previous = signal.signal(signal.SIGTERM, args.sigterm)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
