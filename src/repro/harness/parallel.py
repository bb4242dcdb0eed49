"""Multi-core execution of independent simulation jobs.

A full 45-pair, multi-policy sweep is hundreds of independent
simulations; they parallelize perfectly.  :func:`run_jobs` distributes
:class:`Job` descriptions over a process pool and returns their
:class:`~repro.tenancy.manager.RunResult` objects keyed by job label.

The scheduler echoes the paper's Dynamic Walk Stealing at the
orchestration layer: instead of a static ``pool.map`` chunk assignment
(where a worker that drew a chunk of Heavy pairs serializes the tail
while its siblings idle), jobs are submitted individually to a
``ProcessPoolExecutor`` and idle workers pull the next queued job the
moment they free up.  Three layers keep sweeps cheap:

* **Longest-expected-first ordering** — pending jobs are sorted by
  expected wall time before submission, so the heaviest simulations
  start first and cannot become the tail.  Expectations come from the
  :class:`~repro.harness.result_cache.ResultCache` cost model (an EMA of
  measured ``wall_seconds`` per :func:`~repro.harness.result_cache.cost_key`);
  on a cold cache a footprint heuristic stands in — total workload
  footprint tracks TLB-miss intensity, which tracks event count.
* **Result caching** — pass a
  :class:`~repro.harness.result_cache.ResultCache` and completed jobs
  are looked up by content hash before anything executes; only the
  misses are simulated.  Each fresh result is stored *as its future
  completes*, so a crash mid-sweep keeps every finished simulation.
* **Worker trace memoization** — each worker process keeps a
  :class:`~repro.workloads.base.TraceMemo`, so the N config variants of
  one pair regenerate their (config-independent) warp op streams once
  per worker instead of N times.

Determinism is preserved: each job is seeded independently of worker
scheduling and results are returned in caller order, so the output is
identical to a serial run (a test asserts this, cache on and off).
``workers=1`` bypasses multiprocessing entirely, which is also the safe
choice inside environments that restrict process creation.

With a :class:`~repro.harness.supervision.SupervisionPolicy`, dispatch
becomes fault-tolerant: failed attempts retry with exponential backoff,
a dead worker process (``BrokenProcessPool``) tears the pool down,
respawns it and re-enqueues the in-flight jobs, an attempt that
overruns its wall-clock deadline is presumed hung and killed, poison
jobs are quarantined after a bounded number of attempts, and repeated
pool failures degrade execution to supervised in-process serial mode.
The failure modes themselves are exercised deterministically by
:mod:`repro.harness.faults` and ``tests/harness/test_chaos.py``.

:func:`run_jobs_chunked` keeps the previous static ``pool.map``
implementation verbatim — it is the reference side of
``benchmarks/bench_sweep_throughput.py`` and of the differential tests,
exactly as ``_seed_reference`` preserves the seed event kernel.
"""

from __future__ import annotations

import heapq
import os
import signal
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Executor, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_ready
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.config import SHARDS_ENV, GpuConfig
from repro.harness import faults, resources
from repro.harness.resources import ResourceBudgetExceeded, RssSampler
from repro.harness.result_cache import ResultCache, cost_key, job_key
from repro.harness.supervision import (
    DOMAIN_JOB,
    DOMAIN_RESOURCE,
    DOMAIN_TIMEOUT,
    DOMAIN_VALIDATE,
    DOMAIN_WORKER,
    SupervisionPolicy,
    SupervisionStats,
)
from repro.harness.validate import ResultValidationError, validate_result
from repro.integrity.config import INTEGRITY_ENV
from repro.tenancy.manager import MultiTenantManager, RunResult
from repro.tenancy.tenant import Tenant
from repro.workloads.base import MemoizedWorkload, TraceMemo
from repro.workloads.suite import BENCHMARKS, benchmark

#: Default event budget for harness-built jobs (matches Session's).
DEFAULT_MAX_EVENTS = 200_000_000

#: Pseudo-seconds per footprint byte for the cold-cache cost heuristic.
#: The absolute value is irrelevant (only the ordering matters); it is
#: sized so unknown Heavy pairs sort ahead of measured Light ones, which
#: is the conservative choice for tail latency.
_FOOTPRINT_COST_PER_BYTE = 1e-8


@dataclass(frozen=True)
class Job:
    """One independent simulation: named workloads under one config."""

    label: str
    names: Tuple[str, ...]
    config: GpuConfig
    scale: float = 1.0
    warps_per_sm: int = 4
    seed: int = 0
    max_events: int = DEFAULT_MAX_EVENTS
    #: Peak-RSS budget in MB; ``None`` disables enforcement.  An
    #: execution constraint, not a result-determining input — it is
    #: deliberately excluded from :func:`~repro.harness.result_cache.job_key`
    #: so budgeted and unbudgeted runs share cache entries.
    max_rss_mb: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("job needs at least one workload name")
        if self.max_events <= 0:
            raise ValueError("max_events must be positive")
        if self.max_rss_mb is not None and self.max_rss_mb <= 0:
            raise ValueError("max_rss_mb must be positive")


def pair_jobs(pairs: Sequence[str], configs: Dict[str, GpuConfig],
              scale: float = 1.0, warps_per_sm: int = 4,
              seed: int = 0, max_events: int = DEFAULT_MAX_EVENTS,
              max_rss_mb: Optional[float] = None) -> list:
    """The common grid: every pair under every labeled config."""
    jobs = []
    for pair in pairs:
        names = tuple(pair.split("."))
        for config_label, config in configs.items():
            jobs.append(Job(
                label=f"{pair}/{config_label}", names=names, config=config,
                scale=scale, warps_per_sm=warps_per_sm, seed=seed,
                max_events=max_events, max_rss_mb=max_rss_mb,
            ))
    return jobs


#: One memo per process: in a worker it lives for the pool's lifetime,
#: so every job the worker steals shares generated traces; in the parent
#: (``workers=1``) it serves the serial path the same way.
_TRACE_MEMO = TraceMemo(max_entries=32)


def _tenant_for(index: int, name: str, scale: float) -> Tenant:
    workload = benchmark(name, scale=scale)
    return Tenant(index, MemoizedWorkload(workload, _TRACE_MEMO))


def _execute(job: Job, validate: bool = False) -> Tuple[str, RunResult]:
    tenants = [_tenant_for(i, name, job.scale)
               for i, name in enumerate(job.names)]
    manager = MultiTenantManager(job.config, tenants,
                                 warps_per_sm=job.warps_per_sm,
                                 seed=job.seed, max_events=job.max_events,
                                 label=job.label)
    if job.max_rss_mb is None:
        result = manager.run()
    else:
        result = _run_with_rss_budget(job, manager)
    if validate:
        report = validate_result(result)
        if not report.ok:
            error = ResultValidationError(report.violations)
            _capture_validation_forensics(job, error, result)
            raise error
    return job.label, result


def _run_with_rss_budget(job: Job, manager: MultiTenantManager) -> RunResult:
    """Run one budgeted job under an :class:`RssSampler`.

    The budget is checked before the simulation starts (a worker already
    over budget must not take on more work), periodically by the
    sampler's background thread folding into the post-run check, and
    after the run completes.  A breach captures forensics in-process —
    the bundle path rides back on the picklable exception — and raises.
    """
    sampler = RssSampler(job.label)
    result: Optional[RunResult] = None
    try:
        with sampler:
            resources.check_rss_budget(job.label, job.max_rss_mb, sampler)
            result = manager.run()
        resources.check_rss_budget(job.label, job.max_rss_mb, sampler)
    except ResourceBudgetExceeded as exc:
        _capture_resource_forensics(job, exc, sampler, result)
        raise
    return result


def _capture_resource_forensics(job: Job, error: ResourceBudgetExceeded,
                                sampler: RssSampler,
                                result: Optional[RunResult]) -> None:
    """Bundle a budget breach when forensics are configured.

    Mirrors :func:`_capture_validation_forensics`: runs in whichever
    process executed the job, never masks the breach itself.
    """
    from repro.integrity import active_config, capture_job_failure
    config = active_config()
    if config is None or config.forensics_dir is None:
        return
    try:
        capture_job_failure(job, error, config.forensics_dir,
                            stats=result.stats if result is not None else None,
                            integrity=config, resources=sampler.snapshot())
    except OSError:
        pass  # forensics must never mask the budget breach


def _capture_validation_forensics(job: Job, error: ResultValidationError,
                                  result: RunResult) -> None:
    """Bundle a validation failure when forensics are configured.

    Runs in whichever process executed the job; the bundle path rides
    back to the supervisor on the (picklable) exception itself.
    """
    from repro.integrity import active_config, capture_job_failure
    config = active_config()
    if config is None or config.forensics_dir is None:
        return
    try:
        capture_job_failure(job, error, config.forensics_dir,
                            stats=result.stats, integrity=config)
    except OSError:
        pass  # forensics must never mask the validation failure


def _execute_attempt(job: Job, attempt: int,
                     validate: bool = False) -> Tuple[str, RunResult]:
    """Supervised worker entry point: attempt number ``attempt`` (1-based).

    The fault hook sees the 0-based count of *prior* failures, so a
    ``fail_attempts=1`` fault fires on the first try and lets the retry
    succeed.  With no faults installed this is one env lookup.
    """
    faults.maybe_inject(job.label, attempt - 1)
    return _execute(job, validate)


def _execute_batch(jobs: Sequence[Job],
                   validate: bool = False) -> List[Tuple[str, RunResult]]:
    """Worker entry point for an explicit ``chunksize`` batch."""
    return [_execute(job, validate) for job in jobs]


def _describe(exc: BaseException) -> str:
    """Quarantine-message form of a failure, with its forensics bundle."""
    message = f"{type(exc).__name__}: {exc}"
    bundle = getattr(exc, "bundle_path", None)
    if bundle:
        message += f" [bundle: {bundle}]"
    return message


#: Failures that are deterministic properties of the job itself — the
#: same inputs fail the same way on retry, so supervision skips the
#: retry budget and quarantines immediately.
_NO_RETRY = (ResultValidationError, ResourceBudgetExceeded)


def _failure_domain(exc: BaseException) -> str:
    """Crash-domain label for one attempt's failure."""
    if isinstance(exc, ResultValidationError):
        return DOMAIN_VALIDATE
    if isinstance(exc, ResourceBudgetExceeded):
        return DOMAIN_RESOURCE
    if isinstance(exc, faults.InjectedWorkerCrash):
        return DOMAIN_WORKER
    return DOMAIN_JOB


def _execute_unmemoized(job: Job) -> Tuple[str, RunResult]:
    """The PR-1 worker body: fresh trace generation for every job.

    Only :func:`run_jobs_chunked` (the benchmark/differential reference)
    uses this; memoization is bit-exact, so the results are identical
    either way — this exists so the reference side does not silently
    inherit the optimization it is measured against.
    """
    tenants = [Tenant(i, benchmark(name, scale=job.scale))
               for i, name in enumerate(job.names)]
    manager = MultiTenantManager(job.config, tenants,
                                 warps_per_sm=job.warps_per_sm,
                                 seed=job.seed, max_events=job.max_events)
    return job.label, manager.run()


def expected_cost(job: Job, cache: Optional[ResultCache] = None) -> float:
    """Expected wall seconds of ``job`` for longest-first ordering.

    Prefers the cache's measured EMA; degrades to the footprint
    heuristic when the cost model has never seen this (names, scale,
    warps) combination.  Heuristic values are pseudo-seconds — they only
    need to *order* correctly against each other, and the per-byte scale
    deliberately over-estimates so unmeasured Heavy jobs launch early.
    """
    if cache is not None:
        measured = cache.expected_cost(cost_key(job))
        if measured is not None:
            return measured
    footprint = sum(BENCHMARKS[name].footprint_bytes
                    for name in job.names if name in BENCHMARKS)
    return footprint * job.scale * _FOOTPRINT_COST_PER_BYTE


def _reset_worker_signals() -> None:
    """Pool-worker initializer: default SIGTERM/SIGINT dispositions.

    A forked worker inherits whatever handlers the parent had installed
    at fork time — ``repro serve``'s drain handler, for one, does not
    exit — so a supervisor's ``terminate()`` could be swallowed.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _load_worker_modules() -> None:
    """Import what forked workers will run, before they fork.

    Workers inherit the environment: with ``REPRO_SHARDS`` set a job may
    build the shard engine, with ``REPRO_INTEGRITY`` set it attaches the
    integrity harness (and its forensics).  Loading them in the parent
    means no job pays the import; without either variable neither loads.
    """
    if os.environ.get(SHARDS_ENV):
        import repro.engine.parallel_sim  # noqa: F401
    if os.environ.get(INTEGRITY_ENV):
        import repro.integrity.harness  # noqa: F401


def _new_executor(workers: int) -> ProcessPoolExecutor:
    _load_worker_modules()
    return ProcessPoolExecutor(max_workers=workers,
                               initializer=_reset_worker_signals)


class WorkerPool:
    """A persistent process pool reused across :func:`run_jobs` calls.

    A campaign issues several waves of jobs; recreating the pool per
    wave would throw away warm worker processes — and with them every
    worker's :class:`~repro.workloads.base.TraceMemo`.  Create one
    ``WorkerPool`` (it is a context manager), pass it as ``pool=``, and
    the executor spins up lazily on first use and survives until
    :meth:`shutdown`.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self._executor: Optional[ProcessPoolExecutor] = None

    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = _new_executor(self.workers)
        return self._executor

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def kill(self) -> None:
        """Tear the pool down *now*: terminate workers, drop the executor.

        This is the supervisor's hammer for hung or crashed crash
        domains — a hung simulation never returns, so a graceful
        ``shutdown()`` would block forever.  The next ``executor``
        access respawns a fresh pool (with cold
        :class:`~repro.workloads.base.TraceMemo`\\ s — correctness is
        unaffected, the memo is a pure optimization).
        """
        if self._executor is None:
            return
        executor, self._executor = self._executor, None
        # shutdown() drops the executor's reference to this thread.
        manager = getattr(executor, "_executor_manager_thread", None)
        # ProcessPoolExecutor has no public "terminate the workers" API;
        # reaching into ``_processes`` is the accepted escape hatch.
        processes = list(getattr(executor, "_processes", {}).values())
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass
        # Reap what we killed: an unjoined terminated child stays a
        # zombie until the parent waits on it, and a chaos run respawns
        # pools repeatedly — leaking one zombie per respawn.  Workers run
        # with default SIGTERM, but one signalled before its initializer
        # ran may still hold an inherited handler, so whatever survives
        # a bounded join is SIGKILLed and joined again.  Only a process
        # stuck in an uninterruptible state outlives that; it is logged
        # and abandoned.
        stragglers = _join_all(processes, 2.0)
        for process in stragglers:
            try:
                process.kill()
            except Exception:
                pass
        stragglers = _join_all(stragglers, 5.0)
        if stragglers:
            warnings.warn(
                f"WorkerPool.kill: {len(stragglers)} worker process(es) "
                "survived SIGKILL + bounded join; abandoning them",
                RuntimeWarning, stacklevel=2)
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        # The executor's management thread joins the same workers, and
        # whichever thread's waitpid loses the race leaves exitcode unset
        # until the winner publishes it: wait for that thread to finish,
        # so every reaped worker reports its exit code on return.
        if manager is not None:
            manager.join(5.0)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()


def _join_all(processes, timeout: float) -> list:
    """Join ``processes`` against one shared deadline; return those still
    running.

    A worker whose sentinel is ready has exited even when ``is_alive()``
    says otherwise: the executor's management thread may have reaped it
    first, and then this thread's waitpid fails with ECHILD.
    """
    deadline = time.monotonic() + timeout
    running = []
    for process in processes:
        try:
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive() and not wait_ready([process.sentinel], 0):
                running.append(process)
        except Exception:
            pass
    return running


def _drain_dynamic(executor: Executor, pending: Sequence[Job],
                   on_result: Callable[[str, RunResult, Job], None],
                   validate: bool = False) -> None:
    """Submit every job individually and consume completions as they
    land — the work-stealing dispatch loop."""
    futures = {executor.submit(_execute, job, validate): job
               for job in pending}
    not_done = set(futures)
    while not_done:
        done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
        for future in done:
            label, result = future.result()
            on_result(label, result, futures[future])


def _drain_batched(executor: Executor, pending: Sequence[Job],
                   chunksize: int,
                   on_result: Callable[[str, RunResult, Job], None],
                   validate: bool = False) -> None:
    """Batched submission for callers that want fewer pool round trips
    (chunking is an IPC knob; results are identical to per-job dispatch)."""
    batches = [pending[i:i + chunksize]
               for i in range(0, len(pending), chunksize)]
    futures = {executor.submit(_execute_batch, batch, validate): batch
               for batch in batches}
    not_done = set(futures)
    while not_done:
        done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
        for future in done:
            by_label = {job.label: job for job in futures[future]}
            for label, result in future.result():
                on_result(label, result, by_label[label])


class _DegradeToSerial(Exception):
    """Internal signal: the pool broke too often; finish in-process."""

    def __init__(self, work: List[Tuple[Job, int]]) -> None:
        super().__init__("worker pool respawn limit exceeded")
        self.work = work


def _finish(stats: SupervisionStats, job: Job, attempt: int,
            result: RunResult,
            on_result: Callable[[str, RunResult, Job], None]) -> None:
    stats.attempts[job.label] = attempt
    result.retries = attempt - 1
    on_result(job.label, result, job)


def _run_supervised_serial(work: Sequence[Tuple[Job, int]],
                           policy: SupervisionPolicy,
                           stats: SupervisionStats,
                           on_result: Callable[[str, RunResult, Job], None],
                           validate: bool = False,
                           ) -> None:
    """In-process supervised execution: retry with backoff, quarantine.

    Both the ``workers=1`` path and the graceful-degradation fallback
    land here.  Deadlines are not enforced — a single process cannot
    preempt its own hung simulation — which is exactly why degradation
    is a last resort, not the default.  ``work`` entries carry the
    attempt number to start from (the fallback inherits attempts already
    burned under the pool).
    """
    retry = policy.retry
    for job, attempt in work:
        while True:
            if attempt > retry.max_attempts:
                # Attempts exhausted under the pool before degradation.
                stats.quarantined.setdefault(
                    job.label, "retry budget exhausted before fallback")
                break
            try:
                _label, result = _execute_attempt(job, attempt, validate)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                fatal = isinstance(exc, _NO_RETRY)
                stats.record_failure(_failure_domain(exc))
                stats.attempts[job.label] = attempt
                bundle = getattr(exc, "bundle_path", None)
                if bundle:
                    stats.forensics[job.label] = bundle
                # Validation failures and budget breaches are
                # deterministic — the same run fails the same way on
                # retry — so they skip the retry budget and quarantine
                # immediately.
                if fatal or attempt >= retry.max_attempts:
                    stats.quarantined[job.label] = _describe(exc)
                    break
                stats.retries += 1
                time.sleep(retry.delay_for(attempt, key=job.label))
                attempt += 1
            else:
                _finish(stats, job, attempt, result, on_result)
                break


def _drain_supervised(pool: WorkerPool, pending: Sequence[Job],
                      policy: SupervisionPolicy, stats: SupervisionStats,
                      on_result: Callable[[str, RunResult, Job], None],
                      validate: bool = False,
                      ) -> None:
    """The supervised work-stealing dispatch loop.

    Same longest-expected-first, submit-individually shape as
    :func:`_drain_dynamic`, plus the fault handling:

    * an attempt that raises an ordinary exception retries with backoff
      until its budget runs out, then quarantines;
    * a dead worker (``BrokenProcessPool``) charges every in-flight job
      one attempt (the executor cannot attribute the crash), tears the
      pool down and respawns it;
    * an attempt past ``job_deadline`` is presumed hung: the watchdog
      kills the pool, charges the overdue job, and *requeues* the
      innocent in-flight siblings without touching their budgets;
    * more than ``max_pool_respawns`` teardowns degrades the remainder
      to supervised serial execution via :class:`_DegradeToSerial`.

    With ``policy.pressure`` set, a :class:`~repro.harness.resources.
    HostPressureMonitor` is consulted between dispatch waves: under
    memory or load pressure the number of in-flight futures is capped
    below the configured worker count (floored at one), and deferred
    submissions are retried once the next sample clears.  Shrinking the
    *submission* rate rather than killing workers keeps every in-flight
    simulation's determinism intact — pressure changes only when work
    starts, never what it computes.
    """
    retry = policy.retry
    monitor = (resources.HostPressureMonitor(policy.pressure)
               if policy.pressure is not None else None)
    live_cap = pool.workers
    ready: deque = deque((job, 1) for job in pending)
    backoff: List[Tuple[float, int, Job, int]] = []  # (due, seq, job, att)
    seq = 0
    inflight: Dict[object, Tuple[Job, int, Optional[float]]] = {}

    def fail(job: Job, attempt: int, domain: str, error: str,
             exc: Optional[BaseException] = None) -> None:
        nonlocal seq
        stats.record_failure(domain)
        stats.attempts[job.label] = attempt
        bundle = getattr(exc, "bundle_path", None) if exc is not None else None
        if bundle:
            stats.forensics[job.label] = bundle
        # A validation failure or budget breach is deterministic (same
        # inputs, same stats, same violation on retry); burning the
        # retry budget on it would just repeat the simulation —
        # quarantine straight away.
        fatal = isinstance(exc, _NO_RETRY)
        if fatal or attempt >= retry.max_attempts:
            stats.quarantined[job.label] = error
            return
        stats.retries += 1
        seq += 1
        due = time.perf_counter() + retry.delay_for(attempt, key=job.label)
        heapq.heappush(backoff, (due, seq, job, attempt + 1))

    def break_pool(culprits: Dict[str, str], domain: str) -> None:
        """Tear down + respawn; ``culprits`` (label -> error) are charged
        an attempt, innocent in-flight jobs are requeued for free."""
        stats.pool_respawns += 1
        victims = list(inflight.values())
        inflight.clear()
        pool.kill()
        for job, attempt, _deadline in victims:
            if job.label in culprits:
                fail(job, attempt, domain, culprits[job.label])
            else:
                stats.requeues += 1
                ready.append((job, attempt))
        if stats.pool_respawns > policy.max_pool_respawns:
            stats.degraded_serial = True
            remainder = list(ready)
            remainder.extend((job, att) for _due, _s, job, att in
                             sorted(backoff))
            raise _DegradeToSerial(remainder)

    while ready or backoff or inflight:
        now = time.perf_counter()
        while backoff and backoff[0][0] <= now:
            _due, _s, job, attempt = heapq.heappop(backoff)
            ready.append((job, attempt))
        if monitor is not None and ready:
            allowed = monitor.allowed_workers(pool.workers)
            if allowed < live_cap:
                stats.pressure_shrinks += 1
            live_cap = allowed
        try:
            while ready and (monitor is None or len(inflight) < live_cap):
                job, attempt = ready[0]
                deadline = (now + policy.job_deadline
                            if policy.job_deadline else None)
                future = pool.executor.submit(
                    _execute_attempt, job, attempt, validate)
                ready.popleft()
                inflight[future] = (job, attempt, deadline)
        except BrokenProcessPool as exc:
            break_pool({job.label: str(exc) or "worker process died"
                        for job, _a, _d in inflight.values()}, DOMAIN_WORKER)
            continue

        if not inflight:
            if backoff:  # waiting out a backoff window, nothing running
                time.sleep(max(0.0, backoff[0][0] - time.perf_counter()))
            continue

        timeouts = [policy.watchdog_interval] if policy.job_deadline else []
        if monitor is not None and ready:
            # Submissions deferred by the pressure cap must re-check the
            # host even if nothing in flight completes meanwhile.
            timeouts.append(max(monitor.policy.min_interval_s,
                                policy.watchdog_interval))
        if backoff:
            timeouts.append(backoff[0][0] - now)
        wait_timeout = max(0.0, min(timeouts)) if timeouts else None
        done, _not_done = wait(set(inflight), timeout=wait_timeout,
                               return_when=FIRST_COMPLETED)

        pool_broken: Optional[str] = None
        for future in done:
            job, attempt, _deadline = inflight.pop(future)
            try:
                _label, result = future.result()
            except BrokenProcessPool as exc:
                pool_broken = str(exc) or "worker process died"
                fail(job, attempt, DOMAIN_WORKER, pool_broken)
            except Exception as exc:
                fail(job, attempt, _failure_domain(exc), _describe(exc),
                     exc=exc)
            else:
                _finish(stats, job, attempt, result, on_result)
        if pool_broken is not None:
            # Whatever was still in flight shares the dead pool's fate:
            # charge everyone (the crash cannot be attributed).
            break_pool({job.label: pool_broken
                        for job, _a, _d in inflight.values()}, DOMAIN_WORKER)
            continue

        if policy.job_deadline:
            now = time.perf_counter()
            overdue = {job.label: (f"exceeded {policy.job_deadline:g}s "
                                   "job deadline (presumed hung)")
                       for job, _a, deadline in inflight.values()
                       if deadline is not None and now >= deadline}
            if overdue:
                stats.timeouts += len(overdue)
                break_pool(overdue, DOMAIN_TIMEOUT)


def _run_supervised(pending: Sequence[Job], workers: int,
                    pool: Optional[WorkerPool], policy: SupervisionPolicy,
                    stats: SupervisionStats,
                    on_result: Callable[[str, RunResult, Job], None],
                    validate: bool = False) -> None:
    """Entry for supervised execution: pool dispatch with serial fallback."""
    if workers <= 1 or len(pending) <= 1:
        _run_supervised_serial([(job, 1) for job in pending],
                               policy, stats, on_result, validate)
        return
    own_pool = pool is None
    pool = pool if pool is not None else WorkerPool(workers)
    try:
        _drain_supervised(pool, pending, policy, stats, on_result, validate)
    except _DegradeToSerial as degrade:
        _run_supervised_serial(degrade.work, policy, stats, on_result,
                               validate)
    finally:
        if own_pool:
            pool.shutdown()


def run_jobs(jobs: Sequence[Job],
             workers: Optional[int] = None,
             cache: Optional[ResultCache] = None,
             chunksize: Optional[int] = None,
             pool: Optional[WorkerPool] = None,
             supervision: Optional[SupervisionPolicy] = None,
             stats: Optional[SupervisionStats] = None,
             progress: Optional[Callable[[Job, RunResult], None]] = None,
             validate: bool = False,
             ) -> Dict[str, RunResult]:
    """Run every job; returns results keyed by job label.

    ``workers`` defaults to the CPU count; 1 runs serially in-process.
    ``cache`` short-circuits jobs whose results are already on disk;
    fresh results (and their wall-time cost observations) are stored as
    each one completes.  ``chunksize`` batches several jobs per pool
    round trip (default 1: pure dynamic dispatch; batches are only worth
    it when jobs are tiny relative to IPC).  ``pool`` reuses a
    :class:`WorkerPool` across calls instead of spinning up a fresh
    executor.  Duplicate labels are rejected up front (silent overwrites
    would make missing-result bugs invisible).

    ``supervision`` switches execution to the fault-tolerant dispatcher:
    failed attempts retry with backoff, dead workers respawn the pool,
    hung attempts are killed at the deadline, and jobs that exhaust
    their budget are *quarantined* — recorded in ``stats`` (a
    :class:`~repro.harness.supervision.SupervisionStats`, created fresh
    unless the caller passes one to inspect) and **omitted from the
    returned dict** instead of raising mid-sweep.  Without
    ``supervision`` the first failure propagates, exactly as before.
    ``progress`` is invoked after each fresh result lands (and is safely
    persisted if a cache is present) — the campaign checkpoint hook.

    ``validate`` runs :func:`~repro.harness.validate.validate_result` on
    every fresh result in the process that produced it; a violation
    raises :class:`~repro.harness.validate.ResultValidationError`, which
    supervision treats as non-retryable (deterministic failures repeat)
    and quarantines with a forensics bundle when one is configured.
    Cache hits were validated when first computed and are not re-checked.
    """
    labels = [job.label for job in jobs]
    if len(set(labels)) != len(labels):
        raise ValueError("job labels must be unique")
    if supervision is not None and chunksize is not None and chunksize > 1:
        raise ValueError("chunksize batching is not supported under "
                         "supervision (batches hide which job failed)")
    if workers is None:
        workers = pool.workers if pool is not None else (os.cpu_count() or 1)
    if supervision is not None and stats is None:
        stats = SupervisionStats()

    results: Dict[str, RunResult] = {}
    pending: List[Job] = list(jobs)
    keys: Dict[str, str] = {}
    if cache is not None:
        corrupt_before = cache.corrupt
        pending = []
        for job in jobs:
            key = keys[job.label] = job_key(job)
            cached = cache.get(key)
            if cached is None:
                pending.append(job)
            else:
                results[job.label] = cached
        if stats is not None:
            # Quarantined cache entries recompute below; account for
            # them so degraded storage is visible in the summary.
            stats.merge_cache_corruption(cache.corrupt - corrupt_before)

    if pending:
        # Longest-expected-first: the heaviest simulations must start
        # first, or whichever worker draws one last serializes the tail.
        pending.sort(key=lambda job: expected_cost(job, cache), reverse=True)

        def on_result(label: str, result: RunResult, job: Job) -> None:
            results[label] = result
            if cache is not None:
                # Stored immediately — a crash mid-sweep keeps every
                # finished simulation — along with its cost observation.
                cache.put(keys[label], result)
                if result.wall_seconds > 0:
                    cache.record_cost(cost_key(job), result.wall_seconds)
            if progress is not None:
                progress(job, result)
            # Chaos hook: may raise an injected KeyboardInterrupt, the
            # deterministic stand-in for a mid-sweep kill -9 — strictly
            # after the result was recorded and persisted.
            faults.note_result()

        try:
            if supervision is not None:
                _run_supervised(pending, workers, pool, supervision,
                                stats, on_result, validate)
            elif workers <= 1 or len(pending) <= 1:
                for job in pending:
                    label, result = _execute(job, validate)
                    on_result(label, result, job)
            else:
                executor = (pool.executor if pool is not None
                            else _new_executor(workers))
                try:
                    if chunksize is not None and chunksize > 1:
                        _drain_batched(executor, pending, chunksize,
                                       on_result, validate)
                    else:
                        _drain_dynamic(executor, pending, on_result, validate)
                finally:
                    if pool is None:
                        executor.shutdown()
        finally:
            if cache is not None:
                cache.flush_costs()

    # Return in the caller's job order, cache hits and fresh runs alike.
    # Under supervision, quarantined jobs are absent (see ``stats``).
    return {label: results[label] for label in labels if label in results}


def run_jobs_chunked(jobs: Sequence[Job],
                     workers: Optional[int] = None,
                     cache: Optional[ResultCache] = None,
                     chunksize: Optional[int] = None) -> Dict[str, RunResult]:
    """The previous static scheduler, kept verbatim as a reference.

    ``pool.map`` with chunked assignment, unsorted submission order,
    per-job trace regeneration, and cache writes deferred until every
    job has finished — the work-stealing scheduler in :func:`run_jobs`
    is benchmarked against this in
    ``benchmarks/bench_sweep_throughput.py`` and differentially tested
    to produce identical results.
    """
    labels = [job.label for job in jobs]
    if len(set(labels)) != len(labels):
        raise ValueError("job labels must be unique")
    if workers is None:
        workers = os.cpu_count() or 1

    results: Dict[str, RunResult] = {}
    pending: List[Job] = list(jobs)
    keys: Dict[str, str] = {}
    if cache is not None:
        pending = []
        for job in jobs:
            key = keys[job.label] = job_key(job)
            cached = cache.get(key)
            if cached is None:
                pending.append(job)
            else:
                results[job.label] = cached

    if pending:
        if workers <= 1 or len(pending) <= 1:
            executed = [_execute_unmemoized(job) for job in pending]
        else:
            if chunksize is None:
                chunksize = max(1, len(pending) // (workers * 4))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                executed = list(pool.map(_execute_unmemoized, pending,
                                         chunksize=chunksize))
        for label, result in executed:
            results[label] = result
            if cache is not None:
                cache.put(keys[label], result)

    return {label: results[label] for label in labels}
