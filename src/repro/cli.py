"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the 13 benchmark models and 45 workload pairs.
* ``characterize <bench ...>`` — stand-alone MPMI / band / IPC.
* ``run <pair>`` — one co-run under a chosen policy, with the headline
  metrics.
* ``experiment <id>`` — regenerate one paper table/figure (fig2..fig14,
  table3/5/6) and print its rows.
* ``compare <pair>`` — baseline vs static vs DWS vs DWS++ side by side.
* ``campaign`` — plan + execute many figures at once: jobs are
  deduplicated across figures and against the result cache, then run on
  the work-stealing pool (see ``repro.harness.campaign``).
* ``replay <bundle>`` — re-run the simulation a crash-forensics bundle
  describes; exits 0 when the recorded failure reproduces, 3 when not.
* ``serve`` — long-running capacity-planning query service over the
  result cache: exact/simulated/estimate answer tiers, admission
  control, circuit breaker, checkpointed graceful drain (see
  ``repro.serve``).
* ``cache gc`` — prune quarantined, damaged and orphaned result-cache
  entries, plus over-quota eviction with ``--max-bytes`` (``--dry-run``
  reports without deleting, byte totals included).

All commands accept ``--scale`` (workload length multiplier) and
``--warps`` (warps per SM) to trade fidelity for run time, plus the
integrity flags ``--audit {off,cheap,full}``, ``--watchdog-window`` and
``--forensics-dir`` (see ``repro.integrity``).  ``run`` and ``campaign``
additionally accept ``--shards K`` to execute on the sharded parallel
engine (``repro.engine.parallel_sim``) — byte-identical results, with a
campaign-level guard that keeps ``workers x shards`` within the CPU
count.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.engine.config import BACKEND_ENV, SHARDS_ENV, GpuConfig
from repro.engine.simulator import SimulationError
from repro.harness.experiments import ALL_EXPERIMENTS
from repro.harness.reporting import format_table
from repro.harness.runner import Session
from repro.metrics import (
    fairness,
    interleaving_of,
    steal_fraction,
    total_ipc,
    walk_latency_of,
    weighted_ipc,
)
from repro.workloads.pairs import WORKLOAD_PAIRS, pair_class, split_pair
from repro.workloads.suite import BENCHMARKS, benchmark

POLICIES = ("baseline", "static", "dws", "dwspp", "mask", "mask+dws")


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def _add_shards(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shards", type=_positive_int, default=None,
                        metavar="K",
                        help="partition the simulation across K engine "
                             "shards (published as REPRO_SHARDS; default: "
                             "inherit the environment, else 1 = serial "
                             "kernel; results are byte-identical at any K)")
    parser.add_argument("--shard-backend", default=None,
                        choices=("inline", "threads", "processes"),
                        help="execution backend for the sharded engine "
                             "(published as REPRO_SHARD_BACKEND): inline "
                             "= one thread, threads = thread pool, "
                             "processes = persistent forked workers with "
                             "real wall-clock parallelism; results are "
                             "byte-identical across backends")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.5,
                        help="workload length multiplier (default 0.5)")
    parser.add_argument("--warps", type=int, default=4,
                        help="warps per SM (default 4)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--audit", choices=("off", "cheap", "full"),
                        default="off",
                        help="runtime invariant auditing: 'cheap' sweeps "
                             "every --audit-interval events, 'full' checks "
                             "every event and every walk transition "
                             "(default off: zero overhead)")
    parser.add_argument("--audit-interval", type=int, default=2048,
                        metavar="N",
                        help="events between sweeps under --audit cheap "
                             "(default 2048)")
    parser.add_argument("--watchdog-window", type=int, default=0,
                        metavar="EVENTS",
                        help="raise ProgressStall after this many events "
                             "without forward progress (default 0: "
                             "disabled)")
    parser.add_argument("--forensics-dir", default=None, metavar="DIR",
                        help="write a replayable crash bundle here when a "
                             "simulation fails (default: no capture)")


def _install_integrity(args) -> Optional[str]:
    """Publish the integrity config from CLI flags, when any are set.

    Returns the previous ``REPRO_INTEGRITY`` value so :func:`main` can
    restore it (the CLI must not leak config into a calling process's
    later runs — tests drive ``main()`` in-process).
    """
    import os

    from repro.integrity import INTEGRITY_ENV, IntegrityConfig, install

    if (args.audit == "off" and args.watchdog_window == 0
            and args.forensics_dir is None):
        return os.environ.get(INTEGRITY_ENV)
    previous = os.environ.get(INTEGRITY_ENV)
    install(IntegrityConfig(
        audit=args.audit,
        audit_interval=args.audit_interval,
        watchdog_window=args.watchdog_window,
        forensics_dir=args.forensics_dir,
    ))
    return previous


def _install_shards(args):
    """Publish ``--shards`` / ``--shard-backend`` into the environment.

    Returns the previous ``(REPRO_SHARDS, REPRO_SHARD_BACKEND)`` values
    so :func:`main` can restore them — campaign worker processes inherit
    the variables, but the CLI must not leak them into a calling
    process's later runs (tests drive ``main()`` in-process, same
    contract as :func:`_install_integrity`).
    """
    import os

    previous = (os.environ.get(SHARDS_ENV), os.environ.get(BACKEND_ENV))
    if getattr(args, "shards", None) is not None:
        os.environ[SHARDS_ENV] = str(args.shards)
    if getattr(args, "shard_backend", None) is not None:
        os.environ[BACKEND_ENV] = args.shard_backend
    return previous


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU page-walk-stealing simulator (HPCA'21 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and workload pairs")

    p = sub.add_parser("characterize", help="measure stand-alone MPMI")
    p.add_argument("benchmarks", nargs="*", metavar="BENCH",
                   help="benchmark names (default: all 13)")
    _add_common(p)

    p = sub.add_parser("run", help="run one workload pair")
    p.add_argument("pair", help="e.g. GUPS.JPEG")
    p.add_argument("--policy", choices=POLICIES, default="dws")
    p.add_argument("--profile-breakdown", action="store_true",
                   help="attach the engine profiler and print the top "
                        "callsites by event count, plus the barrier/window "
                        "breakdown when the run is sharded")
    _add_shards(p)
    _add_common(p)

    p = sub.add_parser("compare", help="compare policies on one pair")
    p.add_argument("pair", help="e.g. BLK.3DS")
    _add_common(p)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("id", choices=sorted(ALL_EXPERIMENTS),
                   help="experiment id, e.g. fig5")
    p.add_argument("--pairs", default=None,
                   help="comma-separated pair subset (default: experiment's own)")
    _add_common(p)

    p = sub.add_parser(
        "campaign",
        help="plan + execute many figures with cross-figure job dedup "
             "and a work-stealing worker pool")
    p.add_argument("--figures", default=None,
                   help="comma-separated experiment ids (default: all)")
    p.add_argument("--pairs", default=None,
                   help="comma-separated pair subset for the pair-driven "
                        "figures")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: CPU count)")
    p.add_argument("--cache-dir", default=None,
                   help="on-disk result cache directory (recommended: "
                        "dedups against previous campaigns too)")
    p.add_argument("--plan-only", action="store_true",
                   help="print the deduplicated job plan and exit")
    p.add_argument("--wall-summary", action="store_true",
                   help="print per-job wall times after execution")
    p.add_argument("--max-attempts", type=int, default=3,
                   help="attempts per job before quarantine (default 3; "
                        "1 disables retries)")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-job wall-clock deadline in seconds; an "
                        "attempt past it is presumed hung and killed "
                        "(needs --workers > 1; default: no deadline)")
    p.add_argument("--supervision-report", default=None, metavar="PATH",
                   help="write the retry/requeue/quarantine report as "
                        "JSON to PATH; the literal value 'json' (or '-') "
                        "prints it to stdout for scripts and CI")
    p.add_argument("--max-rss-mb", type=float, default=None,
                   help="per-job peak-RSS budget in MB; a job whose "
                        "sampled peak crosses it is quarantined without "
                        "retry (forensics bundle when --forensics-dir is "
                        "set; default: no budget)")
    p.add_argument("--cache-max-bytes", type=int, default=None,
                   help="byte quota on the result cache; the write path "
                        "evicts least-recently-accessed entries to fit "
                        "(default: no quota)")
    _add_shards(p)
    _add_common(p)

    p = sub.add_parser(
        "replay",
        help="re-run the simulation a crash-forensics bundle describes "
             "and report whether the recorded failure reproduces")
    p.add_argument("bundle", help="path to a *.forensics.json bundle")

    p = sub.add_parser(
        "serve",
        help="run the capacity-planning query service (exact/simulated/"
             "estimate tiers over the result cache)")
    p.add_argument("--cache-dir", required=True,
                   help="result cache directory the service answers from "
                        "(and checkpoints pending work under)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for background simulations "
                        "(default 1: serial in-process)")
    p.add_argument("--max-queue-depth", type=int, default=8,
                   help="pending simulations admitted before load "
                        "shedding downgrades the oldest (default 8)")
    p.add_argument("--deadline", type=float, default=30.0,
                   help="default per-query deadline in seconds; queries "
                        "may override per request (default 30)")
    p.add_argument("--scale", type=float, default=0.5,
                   help="workload length multiplier for background "
                        "simulations (default 0.5)")
    p.add_argument("--warps", type=int, default=4,
                   help="warps per SM for background simulations")
    p.add_argument("--max-events", type=int, default=None,
                   help="event budget per background simulation "
                        "(default: the serve-tuned bound)")
    p.add_argument("--cache-max-bytes", type=int, default=None,
                   help="byte quota on the serve result cache; stores "
                        "evict least-recently-accessed entries to fit "
                        "(default: no quota)")

    p = sub.add_parser(
        "cache",
        help="result-cache maintenance (currently: gc)")
    p.add_argument("action", choices=("gc",),
                   help="gc: prune quarantined, damaged, orphaned and "
                        "(with --max-bytes) over-quota entries")
    p.add_argument("--cache-dir", required=True,
                   help="result cache directory to maintain")
    p.add_argument("--dry-run", action="store_true",
                   help="report what would be removed without deleting")
    p.add_argument("--max-bytes", type=int, default=None,
                   help="evict healthy entries least-recently-accessed-"
                        "first until the cache fits this byte quota "
                        "(default: no quota rung)")

    p = sub.add_parser("report", help="regenerate experiments as Markdown")
    p.add_argument("--experiments", default=None,
                   help="comma-separated experiment ids (default: all)")
    p.add_argument("--pairs", default=None,
                   help="comma-separated pair subset for the pair-driven figures")
    p.add_argument("--output", default=None,
                   help="write to this file instead of stdout")
    _add_common(p)

    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def cmd_list(_args) -> int:
    print("Benchmarks (paper Table II):")
    for name, spec in BENCHMARKS.items():
        print(f"  {name:5s} [{spec.category}]  {spec.description}")
    print(f"\nWorkload pairs ({len(WORKLOAD_PAIRS)}):")
    by_class = {}
    for pair in WORKLOAD_PAIRS:
        by_class.setdefault(pair_class(pair), []).append(pair)
    for cls in ("LL", "ML", "MM", "HL", "HM", "HH"):
        print(f"  {cls}: {', '.join(by_class.get(cls, []))}")
    return 0


def cmd_characterize(args) -> int:
    from repro.workloads.characterize import characterize

    names = args.benchmarks or list(BENCHMARKS)
    print(f"{'bench':<6} {'band':<4} {'MPMI':>10} {'cold MPMI':>10} {'IPC':>8}")
    for name in names:
        if name not in BENCHMARKS:
            print(f"unknown benchmark {name!r}", file=sys.stderr)
            return 2
        c = characterize(benchmark(name, scale=args.scale),
                         warps_per_sm=args.warps, seed=args.seed)
        print(f"{name:<6} {c.band:<4} {c.mpmi:>10.1f} {c.cold_mpmi:>10.1f} "
              f"{c.ipc:>8.3f}")
    return 0


def cmd_run(args) -> int:
    session = Session(scale=args.scale, warps_per_sm=args.warps,
                      seed=args.seed)
    names = split_pair(args.pair)
    config = GpuConfig.baseline().with_policy(args.policy)
    profiler = None
    if args.profile_breakdown:
        result, profiler = session.run_profiled(names, config)
    else:
        result = session.run_pair(args.pair, config)
    standalone = session.standalone_ipcs(names)
    print(f"{args.pair} [{pair_class(args.pair)}] under {args.policy}")
    print(f"  total IPC     : {total_ipc(result):.3f}")
    print(f"  weighted IPC  : {weighted_ipc(result, standalone):.3f}")
    print(f"  fairness      : {fairness(result, standalone):.3f}")
    for t, name in enumerate(names):
        print(f"  tenant {t} ({name:5s}): IPC {result.ipc_of(t):8.3f}  "
              f"walk lat {walk_latency_of(result, t):7.0f} cyc  "
              f"interleave {interleaving_of(result, t):6.2f}  "
              f"stolen {steal_fraction(result, t) * 100:5.1f}%")
    if profiler is not None:
        print("\nengine event breakdown (top callsites):")
        print(profiler.report(top=12))
    return 0


def cmd_compare(args) -> int:
    session = Session(scale=args.scale, warps_per_sm=args.warps,
                      seed=args.seed)
    names = split_pair(args.pair)
    standalone = session.standalone_ipcs(names)
    base_cfg = GpuConfig.baseline()
    base_ipc = total_ipc(session.run_pair(args.pair, base_cfg))
    print(f"{args.pair} [{pair_class(args.pair)}]")
    print(f"{'policy':<10} {'tIPC':>8} {'vs base':>8} {'wIPC':>7} {'fair':>6}")
    for policy in ("baseline", "static", "dws", "dwspp"):
        run = session.run_pair(args.pair, base_cfg.with_policy(policy))
        t = total_ipc(run)
        print(f"{policy:<10} {t:>8.3f} {t / base_ipc:>7.3f}x "
              f"{weighted_ipc(run, standalone):>7.3f} "
              f"{fairness(run, standalone):>6.3f}")
    return 0


def cmd_experiment(args) -> int:
    session = Session(scale=args.scale, warps_per_sm=args.warps,
                      seed=args.seed)
    fn = ALL_EXPERIMENTS[args.id]
    kwargs = {}
    if args.pairs:
        kwargs["pairs"] = [p.strip() for p in args.pairs.split(",")]
    result = fn(session, **kwargs)
    print(format_table(result))
    return 0


def cmd_campaign(args) -> int:
    from repro.harness.campaign import plan_campaign, run_campaign
    from repro.harness.fsutil import atomic_write_json
    from repro.harness.reporting import format_wall_summary
    from repro.harness.supervision import RetryPolicy, SupervisionPolicy

    session = Session(scale=args.scale, warps_per_sm=args.warps,
                      seed=args.seed, cache_dir=args.cache_dir,
                      cache_max_bytes=args.cache_max_bytes)
    figures = (None if args.figures is None
               else [f.strip() for f in args.figures.split(",") if f.strip()])
    pairs = (None if args.pairs is None
             else [p.strip() for p in args.pairs.split(",") if p.strip()])
    policy = SupervisionPolicy(
        retry=RetryPolicy(max_attempts=args.max_attempts),
        job_deadline=args.deadline)
    try:
        if args.plan_only:
            print(plan_campaign(session, figures, pairs).summary())
            return 0
        report = run_campaign(session, figures, pairs, workers=args.workers,
                              supervision=policy,
                              max_rss_mb=args.max_rss_mb)
    except ValueError as exc:  # unknown figure ids
        print(exc, file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("campaign interrupted; finished results are cached and "
              "checkpointed — re-run the same command to resume from "
              "the unfinished jobs", file=sys.stderr)
        return 130
    if args.supervision_report:
        supervision_doc = report.supervision.to_dict()
        if args.supervision_report in ("json", "-"):
            # Machine-readable to stdout: one schema shared with the CI
            # chaos artifact and the serve layer's /healthz document.
            import json

            print(json.dumps(supervision_doc, indent=1, sort_keys=True))
        else:
            atomic_write_json(args.supervision_report, supervision_doc,
                              indent=1, sort_keys=True)
    for figure in report.plan.figures:
        if figure in report.results:
            print(format_table(report.results[figure]))
            print()
    if args.wall_summary:
        print(format_wall_summary(report.job_results, top=20,
                                  supervision=report.supervision))
        print()
    print(report.summary())
    if not report.ok:
        # Degraded campaigns must be visible to scripts and CI: print
        # the digest (the traceback-free version) and exit non-zero.
        print(report.failure_summary(), file=sys.stderr)
        return 1
    return 0


def cmd_replay(args) -> int:
    from repro.integrity import load_bundle, replay_bundle

    try:
        bundle = load_bundle(args.bundle)
    except (OSError, ValueError) as exc:
        print(f"cannot load bundle: {exc}", file=sys.stderr)
        return 2
    error = bundle.get("error", {})
    job = bundle.get("job", {})
    print(f"replaying {'.'.join(job.get('names', []))} "
          f"(seed {job.get('seed')}, scale {job.get('scale')}) — "
          f"recorded failure: {error.get('type')}")
    try:
        outcome = replay_bundle(bundle)
    except ValueError as exc:  # bundle not replayable (custom workloads)
        print(str(exc), file=sys.stderr)
        return 2
    if outcome.reproduced:
        print(f"reproduced: {type(outcome.error).__name__}: {outcome.error}")
        return 0
    if outcome.error is not None:
        print(f"run failed differently: {type(outcome.error).__name__}: "
              f"{outcome.error}", file=sys.stderr)
    else:
        print("run completed cleanly; the recorded failure did not "
              "reproduce (environment drift? check the bundle's "
              "'environment' section)", file=sys.stderr)
    return 3


def cmd_serve(args) -> int:
    from repro.serve.admission import AdmissionPolicy
    from repro.serve.server import (DEFAULT_SERVE_MAX_EVENTS, ReproServer,
                                    serve_forever)

    admission = AdmissionPolicy(max_queue_depth=args.max_queue_depth,
                                default_deadline_s=args.deadline)
    server = ReproServer(
        args.cache_dir, admission=admission, workers=args.workers,
        scale=args.scale, warps_per_sm=args.warps,
        max_events=(args.max_events if args.max_events is not None
                    else DEFAULT_SERVE_MAX_EVENTS),
        cache_max_bytes=args.cache_max_bytes)
    print(f"repro serve on http://{args.host}:{args.port} "
          f"(cache: {args.cache_dir}, queue depth "
          f"{args.max_queue_depth}, deadline {args.deadline:g}s)")
    serve_forever(server, host=args.host, port=args.port)
    print("repro serve drained cleanly")
    return 0


def cmd_cache(args) -> int:
    from repro.harness.result_cache import ResultCache

    report = ResultCache(args.cache_dir).gc(dry_run=args.dry_run,
                                            max_bytes=args.max_bytes)
    print(report.summary())
    return 0


def cmd_report(args) -> int:
    from repro.harness.report import generate_report

    session = Session(scale=args.scale, warps_per_sm=args.warps,
                      seed=args.seed)
    experiments = (None if args.experiments is None
                   else [e.strip() for e in args.experiments.split(",")])
    pairs = (None if args.pairs is None
             else [p.strip() for p in args.pairs.split(",")])
    text = generate_report(session, experiments=experiments, pairs=pairs)
    if args.output:
        from repro.harness.fsutil import atomic_write_text

        # Atomic publish: a crash mid-write must never leave a torn
        # report where a complete one used to be.
        atomic_write_text(args.output, text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


COMMANDS = {
    "list": cmd_list,
    "characterize": cmd_characterize,
    "run": cmd_run,
    "compare": cmd_compare,
    "experiment": cmd_experiment,
    "campaign": cmd_campaign,
    "replay": cmd_replay,
    "serve": cmd_serve,
    "cache": cmd_cache,
    "report": cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    import os

    args = build_parser().parse_args(argv)
    previous = _install_integrity(args) if hasattr(args, "audit") else None
    previous_shards = (_install_shards(args)
                       if hasattr(args, "shards") else None)
    try:
        return COMMANDS[args.command](args)
    except SimulationError as exc:
        # Typed failure with a diagnosis attached: print the digest (and
        # the forensics bundle when one was captured), not a traceback.
        print(f"simulation failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        bundle = getattr(exc, "bundle_path", None)
        if bundle:
            print(f"forensics bundle: {bundle}", file=sys.stderr)
            print(f"reproduce with: PYTHONPATH=src python -m repro replay "
                  f"{bundle}", file=sys.stderr)
        return 1
    finally:
        if hasattr(args, "audit"):
            from repro.integrity import INTEGRITY_ENV
            if previous is None:
                os.environ.pop(INTEGRITY_ENV, None)
            else:
                os.environ[INTEGRITY_ENV] = previous
        if hasattr(args, "shards"):
            for env, value in zip((SHARDS_ENV, BACKEND_ENV),
                                  previous_shards):
                if value is None:
                    os.environ.pop(env, None)
                else:
                    os.environ[env] = value


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
