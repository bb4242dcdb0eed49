"""One benchmark operation, run in a fresh interpreter against a checkout.

``run.py`` starts this file with ``PYTHONPATH=<checkout>/src``, so every
operation imports the program from scratch and shares nothing with the
previous one.  Modes:

* ``corun`` — one co-run the way ``repro run`` builds it: a ``Session``,
  a ``MultiTenantManager`` for the pair under one policy, ``run()``.
* ``cli`` — ``repro.cli.main(argv)`` itself (``campaign``, ``serve``),
  with markers that timestamp where set-up ends.

With ``--trace 1`` the layer tracer (``tracer.py``) is installed before
the program builds anything.  Each mode writes one JSON document to
``--out``; the parent reads it after the process has ended.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import simstats  # noqa: E402  (benchmark-local, next to this file)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _install_tracer(enabled: bool):
    if not enabled:
        return None
    from tracer import Tracer

    return Tracer().install()


def _capture_runs(sink: list) -> None:
    """Record every simulation result this process produces."""
    from repro.tenancy.manager import MultiTenantManager

    original = MultiTenantManager.run

    def run(self):
        start = time.perf_counter()
        result = original(self)
        sink.append(simstats.summarize(result, time.perf_counter() - start,
                                       getattr(self, "gpu", None)))
        return result

    MultiTenantManager.run = run


def corun(args) -> dict:
    tracer = _install_tracer(args.trace)
    from repro.engine.config import GpuConfig
    from repro.harness.runner import Session
    from repro.tenancy.manager import MultiTenantManager
    from repro.workloads.pairs import split_pair

    session = Session(scale=args.scale, warps_per_sm=args.warps,
                      seed=args.seed)
    config = GpuConfig.baseline().with_policy(args.policy)
    manager = MultiTenantManager(
        config, session.tenants_for(split_pair(args.pair)),
        warps_per_sm=session.warps_per_sm, seed=session.seed,
        max_events=session.max_events)
    setup_end = time.monotonic()
    start = time.monotonic()
    result = manager.run()
    end = time.monotonic()
    wall = end - start
    doc = {
        "setup_end": setup_end,
        "run_span": [start, end],
        "wall_s": wall,
        "sim": simstats.summarize(result, wall, manager.gpu),
        "digest": simstats.digest(result),
        "violations": simstats.violations(result),
        "maxrss_mb": _maxrss_mb(),
    }
    if tracer is not None:
        doc["trace"] = tracer.snapshot()
    return doc


def cli(args) -> dict:
    """Run ``repro.cli.main`` with set-up and campaign markers."""
    tracer = _install_tracer(args.trace)
    marks: dict = {}
    runs: list = []
    _capture_runs(runs)
    try:
        import repro.harness.campaign as campaign
    except ImportError:
        campaign = None
    if campaign is not None:
        _mark_campaign(campaign, marks)
    from repro.cli import main

    code = main(args.argv)
    marks["end"] = time.monotonic()
    doc = {"exit": code, "spawn": args.spawn, "marks": marks,
           "maxrss_mb": _maxrss_mb(), "runs": runs}
    if tracer is not None:
        doc["trace"] = tracer.snapshot()
    return doc


def _mark_campaign(campaign, marks: dict) -> None:
    """Timestamp planning and dispatch; keep the campaign's report."""
    plan_campaign = campaign.plan_campaign
    run_jobs = campaign.run_jobs
    run_campaign = campaign.run_campaign

    def planned(*args, **kwargs):
        plan = plan_campaign(*args, **kwargs)
        marks.setdefault("planned", time.monotonic())
        return plan

    def dispatch(*args, **kwargs):
        marks.setdefault("dispatch", time.monotonic())
        start = time.perf_counter()
        try:
            return run_jobs(*args, **kwargs)
        finally:
            marks["dispatch_s"] = time.perf_counter() - start
            marks["workers"] = kwargs.get("workers")

    def campaign_run(*args, **kwargs):
        report = run_campaign(*args, **kwargs)
        marks["report"] = _report_summary(report)
        return report

    campaign.plan_campaign = planned
    campaign.run_jobs = dispatch
    campaign.run_campaign = campaign_run


def _report_summary(report) -> dict:
    plan = report.plan
    results = getattr(report, "job_results", {}) or {}
    return {
        "requested": plan.requested,
        "unique_jobs": plan.unique_jobs,
        "simulated": report.simulated,
        "cache_hits": report.cache_hits,
        "sim_wall_s": report.sim_wall_seconds,
        "elapsed_s": report.elapsed_seconds,
        "ok": bool(getattr(report, "ok", True)),
        "sims": [simstats.summarize(r, r.wall_seconds, None)
                 for r in results.values()],
        "violations": sum(len(simstats.violations(r))
                          for r in results.values()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("corun", "cli"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawn", type=float, required=True,
                        help="parent's time.monotonic() just before the "
                             "spawn")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--pair")
    parser.add_argument("--policy")
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--warps", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.argv = argv[split + 1:]
    doc = corun(args) if args.mode == "corun" else cli(args)
    tmp = args.out + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, args.out)
    return 0 if doc.get("exit", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
