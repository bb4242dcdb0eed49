"""CI perf gate: fail when the engine's measured speedup regresses.

Compares a freshly measured ``BENCH_engine.json`` against the committed
baseline and exits non-zero if any pair's median ``speedup_vs_pr4``
(or ``speedup_vs_seed``) fell more than ``--tolerance`` below the
baseline value.

The gate runs on *speedup ratios*, not raw events/sec: the ratios come
from interleaved same-process runs, so the host's absolute speed —
which varies wildly between CI runners and has nothing to do with the
code — divides out.  Raw rates are still recorded in both files for
eyeballing trends.

The sharded-engine curve is gated the same way (per pair, per shard
count, on the modeled multi-core speedup), plus one absolute floor:
at least one pair must clear ``REQUIRED_SHARD4_SPEEDUP`` modeled
speedup at 4 shards in the fresh run, so the parallel engine cannot
silently regress into pure overhead.

The multi-process backend's *measured* ``wall_speedup`` gets its own
absolute floor (``REQUIRED_WALL_SPEEDUP`` at 4 shards on the best
pair) — but only when the fresh run's recorded host could express the
parallelism: at least ``MIN_WALL_CORES`` cores and a pre-bench load
below ``MAX_WALL_LOAD_FRACTION`` per core.  On an ineligible host the
floor is skipped with a printed reason, or refused outright (exit 2,
like the smoke refusal) under ``--require-wall`` — the flag for
authoritative runs on idle multi-core machines.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --json fresh.json
    python benchmarks/check_perf_gate.py --baseline BENCH_engine.json --fresh fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

GATED_METRICS = ("speedup_vs_pr4", "speedup_vs_seed")

#: The sharded-engine metric gated per pair per shard count.  Only the
#: *modeled* ratio is gated: it is a paired same-process ratio (host
#: speed divides out) of the critical-path model, where the honest wall
#: ratio on a GIL-bound 1-core runner mostly measures scheduler noise.
SHARD_GATED_METRIC = "modeled_speedup"

#: Absolute acceptance floor: at least one pair's modeled speedup at
#: 4 shards must clear this, or the parallel engine has stopped paying
#: for itself.
REQUIRED_SHARD4_SPEEDUP = 1.4

#: Measured-wall acceptance floor for the multi-process backend: the
#: best pair's ``backends.processes.wall_speedup`` at 4 shards must
#: clear this.  Unlike every other gate here this is *not* a paired
#: same-process ratio — real parallel speedup needs real cores — so it
#: is only enforced when the fresh results were recorded on an eligible
#: host (see :func:`wall_ineligibility`); an ineligible host's honest
#: sub-1.0 curves are recorded, printed and skipped (or refused with
#: exit 2 under ``--require-wall``).
REQUIRED_WALL_SPEEDUP = 1.3
WALL_BACKEND = "processes"
WALL_SHARDS = "4"
MIN_WALL_CORES = 4
#: Pre-bench 1-minute load average per core above which the host is
#: considered loaded: foreign work steals the cores the measured
#: speedup needs, so the number says nothing about the code.
MAX_WALL_LOAD_FRACTION = 0.5


def compare(baseline: dict, fresh: dict, tolerance: float) -> list:
    """Return a list of human-readable regression descriptions."""
    failures = []
    base_pairs = baseline.get("pairs", {})
    fresh_pairs = fresh.get("pairs", {})
    missing = set(base_pairs) - set(fresh_pairs)
    if missing:
        failures.append(
            f"fresh results lack baseline pair(s): {sorted(missing)}")
    for key in sorted(set(base_pairs) & set(fresh_pairs)):
        for metric in GATED_METRICS:
            base = base_pairs[key].get(metric)
            got = fresh_pairs[key].get(metric)
            if base is None or got is None:
                continue
            floor = base * (1.0 - tolerance)
            if got < floor:
                failures.append(
                    f"{key}: {metric} {got:.3f} < {floor:.3f} "
                    f"(baseline {base:.3f} - {tolerance:.0%})")
        base_curve = base_pairs[key].get("shards", {})
        fresh_curve = fresh_pairs[key].get("shards", {})
        for k in sorted(set(base_curve) & set(fresh_curve), key=int):
            if k == "1":
                continue
            base = base_curve[k].get(SHARD_GATED_METRIC)
            got = fresh_curve[k].get(SHARD_GATED_METRIC)
            if base is None or got is None:
                continue
            floor = base * (1.0 - tolerance)
            if got < floor:
                failures.append(
                    f"{key} shards x{k}: {SHARD_GATED_METRIC} {got:.3f} "
                    f"< {floor:.3f} (baseline {base:.3f} - {tolerance:.0%})")
    failures.extend(check_shard_floor(fresh))
    return failures


def check_shard_floor(fresh: dict) -> list:
    """The absolute shard-speedup acceptance check on the fresh run."""
    fresh_pairs = fresh.get("pairs", {})
    at_four = {
        key: record["shards"]["4"][SHARD_GATED_METRIC]
        for key, record in fresh_pairs.items()
        if record.get("shards", {}).get("4", {}).get(SHARD_GATED_METRIC)
        is not None
    }
    if not at_four:
        return ["fresh results carry no 4-shard speedup curve — "
                "the shard sweep was dropped from the benchmark"]
    best_key = max(at_four, key=at_four.get)
    if at_four[best_key] < REQUIRED_SHARD4_SPEEDUP:
        return [
            f"no pair reaches {REQUIRED_SHARD4_SPEEDUP:.1f}x modeled "
            f"speedup at 4 shards (best: {best_key} at "
            f"{at_four[best_key]:.2f}x)"]
    return []


def wall_ineligibility(fresh: dict) -> str:
    """Why the fresh host cannot express measured wall speedup ('' = can).

    The wall floor judges parallel hardware utilisation; a host without
    the hardware (fewer cores than :data:`MIN_WALL_CORES`) or without
    the headroom (pre-bench load above :data:`MAX_WALL_LOAD_FRACTION`
    per core) records honest numbers the gate must not fail on.
    """
    host = fresh.get("host") or {}
    cores = host.get("cpu_count")
    if cores is None:
        return "fresh results carry no host record (pre-backend baseline?)"
    if cores < MIN_WALL_CORES:
        return (f"host has {cores} core(s); measured {MIN_WALL_CORES}-shard "
                "parallelism needs at least "
                f"{MIN_WALL_CORES}")
    load = host.get("load_avg_1m")
    if load is not None and load > cores * MAX_WALL_LOAD_FRACTION:
        return (f"host was loaded at bench time (load {load:.2f} on "
                f"{cores} cores > {MAX_WALL_LOAD_FRACTION:.0%}/core)")
    return ""


def _wall_at(fresh: dict, key: str):
    return (fresh.get("pairs", {}).get(key, {}).get("shards", {})
            .get(WALL_SHARDS, {}).get("backends", {})
            .get(WALL_BACKEND, {}).get("wall_speedup"))


def check_wall_floor(fresh: dict) -> list:
    """The measured processes-backend wall floor (eligible hosts only)."""
    walls = {key: _wall_at(fresh, key) for key in fresh.get("pairs", {})}
    walls = {key: v for key, v in walls.items() if v is not None}
    if not walls:
        return [f"fresh results carry no backends.{WALL_BACKEND} wall "
                f"curve at {WALL_SHARDS} shards — the backend sweep was "
                "dropped from the benchmark"]
    best_key = max(walls, key=walls.get)
    if walls[best_key] < REQUIRED_WALL_SPEEDUP:
        return [
            f"no pair reaches {REQUIRED_WALL_SPEEDUP:.1f}x measured "
            f"wall speedup at {WALL_SHARDS} shards on the "
            f"{WALL_BACKEND} backend (best: {best_key} at "
            f"{walls[best_key]:.2f}x)"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_engine.json",
                        help="committed baseline JSON")
    parser.add_argument("--fresh", required=True,
                        help="freshly measured JSON to gate")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional regression (default 0.10)")
    parser.add_argument("--require-wall", action="store_true",
                        help="refuse (exit 2) instead of skipping the "
                             "measured wall_speedup floor when the fresh "
                             "host cannot express parallelism (fewer than "
                             f"{MIN_WALL_CORES} cores, or loaded) — for "
                             "authoritative runs on idle multi-core hosts")
    args = parser.parse_args(argv)

    baseline = json.loads(Path(args.baseline).read_text())
    fresh = json.loads(Path(args.fresh).read_text())
    if baseline.get("smoke") or fresh.get("smoke"):
        print("perf gate: refusing to gate on smoke-mode results "
              "(single repeat, tiny workloads)", file=sys.stderr)
        return 2

    failures = compare(baseline, fresh, args.tolerance)
    wall_skip = wall_ineligibility(fresh)
    if not wall_skip:
        failures.extend(check_wall_floor(fresh))
    elif args.require_wall:
        print(f"perf gate: refusing to judge measured wall_speedup — "
              f"{wall_skip}", file=sys.stderr)
        return 2
    if failures:
        print("perf gate FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    for key, record in sorted(fresh.get("pairs", {}).items()):
        base = baseline["pairs"].get(key, {})
        print(f"  {key}: speedup_vs_pr4 {record.get('speedup_vs_pr4', 0):.3f} "
              f"(baseline {base.get('speedup_vs_pr4', 0):.3f}) ok")
        curve = record.get("shards", {})
        if curve:
            print("    shards: " + "  ".join(
                f"x{k} {curve[k].get(SHARD_GATED_METRIC, 0):.2f}"
                for k in sorted(curve, key=int) if k != "1") + " modeled ok")
            wall = _wall_at(fresh, key)
            if wall is not None:
                print(f"    {WALL_BACKEND} wall x{WALL_SHARDS}: {wall:.2f} "
                      "measured")
    if wall_skip:
        print(f"perf gate: measured wall_speedup floor skipped — {wall_skip}")
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
