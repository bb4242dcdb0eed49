"""Simulated counters, stats digests and validation for one RunResult.

Simulated counts repeat exactly for a given input, so they attribute
work to layers without host noise.  The digest covers every model
counter that the seed commit already reported, so one golden value
holds for every commit whose model output is unchanged, including
commits that add new counters.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import defaultdict
from typing import Dict, Optional

#: Stat names (SM and tenant indices normalized) covered by the digest.
DIGEST_KEYS = frozenset([
    "dram.accesses", "dram.queue_delay.count", "dram.queue_delay.mean",
    "dram.queue_delay.total", "gpu.instructions.tenantN",
    "gpu.l2tlb_misses.tenantN", "l1c.smN.hits", "l1c.smN.misses",
    "l1c.smN.mshr_merges", "l1c.smN.mshr_stalls", "l1c.smN.writebacks",
    "l1tlb.smN.evictions", "l1tlb.smN.hits", "l1tlb.smN.misses",
    "l2c.hits", "l2c.misses", "l2c.mshr_merges", "l2c.mshr_stalls",
    "l2c.writebacks", "l2tlb.evictions", "l2tlb.hits", "l2tlb.misses",
    "l2tlb.tlb_share.tenantN", "noc.queue_delay.count",
    "noc.queue_delay.mean", "noc.queue_delay.total", "noc.transfers",
    "pws.completed.tenantN", "pws.interleave.tenantN.count",
    "pws.interleave.tenantN.mean", "pws.interleave.tenantN.total",
    "pws.mem_accesses.count", "pws.mem_accesses.mean",
    "pws.mem_accesses.total", "pws.overflow", "pws.pwc.hits",
    "pws.pwc.levels_skipped", "pws.pwc.misses",
    "pws.queue_latency.tenantN.count", "pws.queue_latency.tenantN.mean",
    "pws.queue_latency.tenantN.total", "pws.stolen.tenantN",
    "pws.walk_latency.tenantN.count", "pws.walk_latency.tenantN.mean",
    "pws.walk_latency.tenantN.total", "pws.walker_share.tenantN",
    "pws.walks.tenantN",
])

_SM = re.compile(r"sm\d+")
_TENANT = re.compile(r"tenant\d+")


def _normalized(key: str) -> str:
    return _TENANT.sub("tenantN", _SM.sub("smN", key))


def digest(result) -> str:
    """sha256 over cycles, per-tenant progress and the digest counters."""
    stats = {k: v for k, v in result.stats.items()
             if _normalized(k) in DIGEST_KEYS}
    tenants = {str(t): [s.instructions, s.cycles, s.completed_executions]
               for t, s in sorted(result.tenants.items())}
    blob = json.dumps({"cycles": result.total_cycles, "tenants": tenants,
                       "stats": stats}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def violations(result) -> list:
    """``validate_result`` violations, or [] where the checkout has none."""
    try:
        from repro.harness.validate import validate_result
    except ImportError:
        return []
    return list(validate_result(result).violations)


def _total(stats: Dict[str, float], prefix: str, part: str = "",
           suffix: str = "") -> float:
    """Sum of the stats of components named ``prefix*`` (``l2tlb``,
    ``pws0``, ...) whose name contains ``part`` and ends in ``suffix``."""
    return float(sum(v for k, v in stats.items()
                     if k.split(".", 1)[0].startswith(prefix)
                     and part in k and k.endswith(suffix)))


def summarize(result, wall: float, gpu: Optional[object]) -> dict:
    """Raw simulated counters of one run (summable across runs)."""
    s = result.stats
    fold = {}
    if gpu is not None and hasattr(gpu, "fastpath_stats"):
        fold = gpu.fastpath_stats()
    return {
        "wall_s": wall,
        "events": result.events_fired,
        "instructions": _total(s, "gpu", ".instructions."),
        "folded": fold.get("folded_accesses", 0),
        "unfolded": fold.get("unfolded_accesses", 0),
        "l1tlb_hits": _total(s, "l1tlb", suffix=".hits"),
        "l1tlb_misses": _total(s, "l1tlb", suffix=".misses"),
        "l2tlb_hits": _total(s, "l2tlb", suffix=".hits"),
        "l2tlb_misses": _total(s, "l2tlb", suffix=".misses"),
        "walks": _total(s, "pws", ".walks."),
        "overflow": _total(s, "pws", suffix=".overflow"),
        "queue_cycles": _total(s, "pws", ".queue_latency.", ".total"),
        "pwc_hits": _total(s, "pws", suffix=".pwc.hits"),
        "pwc_misses": _total(s, "pws", suffix=".pwc.misses"),
        "stolen": _total(s, "pws", ".stolen."),
        "completed": _total(s, "pws", ".completed."),
        "l1c_hits": _total(s, "l1c", suffix=".hits"),
        "l1c_misses": _total(s, "l1c", suffix=".misses"),
        "l2c_hits": _total(s, "l2c", suffix=".hits"),
        "l2c_misses": _total(s, "l2c", suffix=".misses"),
        "dram_accesses": _total(s, "dram", suffix=".accesses"),
        "dram_queue_cycles": _total(s, "dram", suffix=".queue_delay.total"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counters(sims: list) -> dict:
    """Per-layer simulated metrics over a list of :func:`summarize` dicts."""
    tot: Dict[str, float] = defaultdict(float)
    for sim in sims:
        for key, value in sim.items():
            tot[key] += value

    def hit_ratio(name: str) -> float:
        hits = tot[f"{name}_hits"]
        return _ratio(hits, hits + tot[f"{name}_misses"])

    return {
        "engine.events": tot["events"],
        "engine.us_per_event": _ratio(tot["wall_s"] * 1e6, tot["events"]),
        "engine.kinst_per_s": _ratio(tot["instructions"] / 1e3,
                                     tot["wall_s"]),
        "gpu.fold_ratio": _ratio(tot["folded"],
                                 tot["folded"] + tot["unfolded"]),
        "vm.l1tlb.hit_ratio": hit_ratio("l1tlb"),
        "vm.l2tlb.hit_ratio": hit_ratio("l2tlb"),
        "vm.walks": tot["walks"],
        "vm.walk.overflow": tot["overflow"],
        "vm.walk.queue_cycles": tot["queue_cycles"],
        "vm.pwc.hit_ratio": hit_ratio("pwc"),
        "core.steal_fraction": _ratio(tot["stolen"], tot["completed"]),
        "mem.l1c.hit_ratio": hit_ratio("l1c"),
        "mem.l2c.hit_ratio": hit_ratio("l2c"),
        "mem.dram.accesses": tot["dram_accesses"],
        "mem.dram.queue_cycles": tot["dram_queue_cycles"],
    }
