"""Simulation session with run caching and stand-alone measurements.

A :class:`Session` fixes the experiment scale (workload length multiplier,
warps per SM, seed) and memoizes:

* multi-tenant runs, keyed by (workload names, config identity), and
* stand-alone runs — each tenant alone on the *baseline policy* version
  of a configuration with the full GPU, which is how the paper defines
  IPC_SA and the stand-alone walk latency.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.engine.config import GpuConfig, config_key
from repro.tenancy.manager import MultiTenantManager, RunResult
from repro.tenancy.tenant import Tenant
from repro.workloads.base import Workload
from repro.workloads.pairs import split_pair
from repro.workloads.suite import benchmark

if TYPE_CHECKING:
    from repro.harness.parallel import Job


@dataclass(frozen=True)
class StandaloneMeasurement:
    """Stand-alone IPC and walk latency of one workload on one config."""

    workload: str
    ipc: float
    walk_latency: float  # mean cycles, enqueue to completion


class Session:
    """Caching runner for all experiments at one fidelity setting."""

    def __init__(
        self,
        scale: float = 1.0,
        warps_per_sm: int = 4,
        seed: int = 0,
        max_events: int = 200_000_000,
        cache_dir: Optional[str] = None,
        cache_max_bytes: Optional[int] = None,
    ) -> None:
        self.scale = scale
        self.warps_per_sm = warps_per_sm
        self.seed = seed
        self.max_events = max_events
        #: on-disk result cache; None keeps the session memory-only.
        #: ``cache_max_bytes`` puts it under a byte quota with
        #: LRU-by-access evict-before-store (see result_cache.py).
        self.disk_cache = None
        if cache_dir:
            # Imported only when a session persists: a memory-only
            # co-run never loads the cache or its fault hooks.
            from repro.harness.result_cache import ResultCache
            self.disk_cache = ResultCache(cache_dir,
                                          max_bytes=cache_max_bytes)
        #: simulations actually executed (disk/memory cache hits excluded)
        self.simulations_executed = 0
        self._run_cache: Dict[Tuple, RunResult] = {}
        self._standalone_cache: Dict[Tuple, StandaloneMeasurement] = {}

    # ------------------------------------------------------------------
    # Workload construction
    # ------------------------------------------------------------------
    def workload(self, name: str) -> Workload:
        return benchmark(name, scale=self.scale)

    def tenants_for(self, names: Sequence[str]) -> list:
        return [Tenant(i, self.workload(n)) for i, n in enumerate(names)]

    # ------------------------------------------------------------------
    # Cached runs
    # ------------------------------------------------------------------
    def job_for(self, names: Sequence[str], config: GpuConfig) -> Job:
        """The :class:`Job` describing ``run_names(names, config)``.

        The campaign planner uses this so planned jobs hash to exactly
        the cache keys the session itself would look up.
        """
        from repro.harness.parallel import Job

        return Job(
            label="/".join(names), names=tuple(names), config=config,
            scale=self.scale, warps_per_sm=self.warps_per_sm,
            seed=self.seed, max_events=self.max_events,
        )

    def prime(self, names: Sequence[str], config: GpuConfig,
              result: RunResult) -> None:
        """Install an externally computed result for ``(names, config)``.

        The campaign executor simulates planned jobs in worker processes
        and primes the session with them, so the subsequent experiment
        pass replays entirely from memory.  The caller is responsible
        for the result actually matching the job description (the
        campaign guarantees it by construction: both sides hash the same
        :meth:`job_for` output).
        """
        self._run_cache[(tuple(names), config_key(config))] = result

    def run_names(self, names: Sequence[str], config: GpuConfig) -> RunResult:
        """Run the named workloads as co-tenants under ``config``.

        Results memoize in memory; with a ``cache_dir`` they also
        persist on disk, content-addressed by the job description, so a
        warm re-run of any experiment simulates nothing.
        """
        key = (tuple(names), config_key(config))
        cached = self._run_cache.get(key)
        if cached is not None:
            return cached
        disk_key = None
        job = None
        if self.disk_cache is not None:
            from repro.harness.result_cache import cost_key, job_key
            job = self.job_for(names, config)
            disk_key = job_key(job)
            cached = self.disk_cache.get(disk_key)
            if cached is not None:
                self._run_cache[key] = cached
                return cached
        manager = MultiTenantManager(
            config, self.tenants_for(names),
            warps_per_sm=self.warps_per_sm, seed=self.seed,
            max_events=self.max_events,
        )
        cached = manager.run()
        self.simulations_executed += 1
        self._run_cache[key] = cached
        if self.disk_cache is not None:
            self.disk_cache.put(disk_key, cached)
            if cached.wall_seconds > 0:
                self.disk_cache.record_cost(cost_key(job),
                                            cached.wall_seconds)
                self.disk_cache.flush_costs()
        return cached

    def run_pair(self, pair: str, config: GpuConfig) -> RunResult:
        """Run a paper-style pair like ``"BLK.3DS"`` under ``config``."""
        return self.run_names(split_pair(pair), config)

    def run_profiled(self, names: Sequence[str], config: GpuConfig,
                     profiler=None):
        """Run with an :class:`EngineProfiler` attached; never cached.

        Returns ``(result, profiler)``.  The result is byte-identical to
        :meth:`run_names` (profiling only instruments the run loop), so
        it primes the session caches on the way out — a profiled run
        costs no extra simulation later.
        """
        from repro.engine.profile import EngineProfiler

        if profiler is None:
            profiler = EngineProfiler()
        manager = MultiTenantManager(
            config, self.tenants_for(names),
            warps_per_sm=self.warps_per_sm, seed=self.seed,
            max_events=self.max_events,
        )
        with profiler.attach(manager.sim):
            result = manager.run()
        self.simulations_executed += 1
        self.prime(names, config, result)
        return result, profiler

    def run_custom(self, label: str, workloads: Sequence[Workload],
                   config: GpuConfig) -> RunResult:
        """Run ad-hoc workload objects (e.g. footprint-enhanced variants).

        ``label`` must uniquely identify the workload set; it keys the
        cache together with the config identity.
        """
        # Ad-hoc workload objects have no content-stable description, so
        # custom runs stay memory-only — never on disk.
        key = (("custom", label), config_key(config))
        cached = self._run_cache.get(key)
        if cached is None:
            tenants = [Tenant(i, wl) for i, wl in enumerate(workloads)]
            manager = MultiTenantManager(
                config, tenants, warps_per_sm=self.warps_per_sm,
                seed=self.seed, max_events=self.max_events,
            )
            cached = manager.run()
            self.simulations_executed += 1
            self._run_cache[key] = cached
        return cached

    def standalone(self, name: str,
                   config: Optional[GpuConfig] = None) -> StandaloneMeasurement:
        """Stand-alone measurement: the workload alone, baseline policy.

        ``config`` defaults to Table I; for sensitivity studies pass the
        resource-adjusted config — the policy and the separate-TLB/PTW
        flags are always reset to the plain shared baseline.
        """
        cfg = (config or GpuConfig.baseline()).with_policy("baseline")
        if cfg.separate_l2_tlb or cfg.separate_walkers:
            cfg = dataclasses.replace(cfg, separate_l2_tlb=False,
                                      separate_walkers=False)
        key = (name, config_key(cfg))
        cached = self._standalone_cache.get(key)
        if cached is None:
            result = self.run_names([name], cfg)
            cached = StandaloneMeasurement(
                workload=name,
                ipc=result.ipc_of(0),
                walk_latency=result.stat("pws.walk_latency.tenant0.mean"),
            )
            self._standalone_cache[key] = cached
        return cached

    def standalone_ipcs(self, names: Sequence[str],
                        config: Optional[GpuConfig] = None) -> Dict[int, float]:
        """Stand-alone IPC keyed by tenant index, for weighted IPC/fairness."""
        return {i: self.standalone(n, config).ipc for i, n in enumerate(names)}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cached_runs(self) -> int:
        return len(self._run_cache)
