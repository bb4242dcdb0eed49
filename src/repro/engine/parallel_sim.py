"""The sharded parallel engine's conductor (DESIGN.md §13).

:class:`ParallelSimulator` runs one simulation as K shards — contiguous
SM blocks with their private L1 TLBs, L1 caches, warp schedulers and
event streams — plus a shared boundary (page tables, L2 TLB, walker
pool, NoC/L2/DRAM).  Execution alternates two regimes:

* **serial steps** — the globally earliest entry across the boundary
  queue and every shard queue fires with the serial engine's exact
  ordering (time, then :class:`~repro.engine.shard.OrderKey`).  Pushes
  made during a serial step mint keys from one shared context, so the
  interleaving of new entries is byte-for-byte the serial schedule.
* **conservative windows** — when the next global entry is shard-local,
  every shard advances its own queue up to the horizon ``H``, parking
  boundary touches as keyed intents.  At the barrier the intents enter
  the boundary queue *as entries* carrying their execution's own key,
  so the main loop replays them in exact serial order against any
  not-yet-executed shard work at the same cycles.

The horizon is the minimum of: the window span, the boundary queue's
front (every in-flight boundary chain keeps an entry queued until its
delivery, so nothing can reach a shard before that front), and the
completion floor — the earliest cycle any warp could possibly retire
(``now + remaining ops``, since consecutive op issues are at least one
cycle apart).  The floor guarantees no tenant's active-warp count can
cross zero inside a window, which is what makes relaunch/stop handling
and the parked completion deltas safe.  Each shard additionally respects
a dynamic cap: once it parks an intent whose response could re-enter the
shard (an L1 TLB miss or a data miss), it must not advance past the
earliest possible delivery of that response.

Identity contract: for any K, ``REPRO_SHARDS=K`` produces
byte-identical stats snapshots, cycle counts and per-tenant tables to
the single-core oracle.  ``events_fired`` and wall-clock are the only
permitted deltas.  ``max_events`` remains a hard
budget but is enforced per window rather than per event, so the exact
count fired on the over-budget *error* path may differ.

An installed audit hook, ``stop_when`` or ``until`` disables windows
entirely: the conductor then runs pure serial steps, firing the hook
after every event with globally ordered state — which is also what
keeps the integrity watchdog's progress accounting global (it counts
every event on every shard, and cannot stall on an idle shard).
"""

from __future__ import annotations

import os
import sys
import warnings
from heapq import heappop
from time import perf_counter_ns
from typing import Any, Dict, List, Optional

from repro.engine.config import BACKEND_ENV
from repro.engine.shard import (ENSURE, LOOKUP, NOC, WARP_DONE,
                                CountingStream, Ctx, KeyedQueue, OrderKey,
                                Shard, ShardGpuPort, ShardNocPort,
                                stream_min_cycles)
from repro.engine.shard_ipc import (DELIVER_ADD_WARP, DELIVER_FINISH_XLAT,
                                    I_SPAN, TIME_INF, pack_pickle)
from repro.engine.simulator import SimulationError, Simulator

#: Maximum window span in cycles.  The horizon is usually bound by the
#: boundary-queue front or the completion floor long before this; the
#: span only caps how far a fully decoupled shard may run ahead.
DEFAULT_WINDOW = 4096

_BACKENDS = ("inline", "threads", "processes")


def _recording_add_warp(orig, shard_streams: List[CountingStream]):
    """Wrap ``Sm.add_warp`` to note the warp's stream in its shard's list."""
    def add_warp(warp, _orig=orig, _list=shard_streams):
        _list.append(warp._stream)
        _orig(warp)
    return add_warp


class ParallelSimulator(Simulator):
    """Sharded discrete-event kernel, byte-identical to :class:`Simulator`.

    Construct, build the :class:`~repro.gpu.gpu.Gpu` against it, then
    call :meth:`attach_gpu` *before* any warp launch so the per-SM
    components are rebound to their shard facades from the first push.
    """

    def __init__(self, num_shards: int, window: Optional[int] = None,
                 backend: Optional[str] = None) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        super().__init__()
        self.events = KeyedQueue()  # the shared boundary queue
        self.num_shards = num_shards
        if window is None:
            window = int(os.environ.get("REPRO_SHARD_WINDOW", DEFAULT_WINDOW))
        self.window = window
        backend = backend or os.environ.get(BACKEND_ENV, "inline")
        if backend not in _BACKENDS:
            raise ValueError(f"unknown shard backend {backend!r}; "
                             f"expected one of {_BACKENDS}")
        self.backend = backend
        self.in_window = False
        self.shards: List[Shard] = []
        self.gpu = None
        self._noc = None
        self._queues: List[KeyedQueue] = [self.events]
        self._streams: List[CountingStream] = []
        self._floor = float("inf")
        self._xlat_response_min = 0
        self._data_response_min = 0
        self._pool = None
        # --- processes backend (engaged lazily at the first run()) ----
        self._procs = None
        self._shard_streams: List[List[CountingStream]] = []
        self._sm_remote: Dict[int, Any] = {}
        self._pending_warp_done = 0
        #: (t, key, sub) of the boundary entry currently firing, and the
        #: running sub offset for continuation deliveries it emits.
        self._cur_pos = (0, None, 0)
        self._emit_sub = 1
        self._degrade_warned: set = set()
        # --- telemetry (engine/profile.py barrier/window breakdown) ---
        self.windows_opened = 0
        self.window_events = 0
        self.serial_events = 0
        self.intents_flushed = 0
        self.window_ns = 0    # wall time inside shard advances
        self.critical_ns = 0  # sum over windows of the slowest shard slice
        self.barrier_ns = 0   # wall time merging deltas + flushing intents
        self.run_wall_ns = 0

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def attach_gpu(self, gpu) -> None:
        """Partition the GPU's per-SM state into shards and rebind it.

        SMs are split into ``num_shards`` contiguous blocks.  Each SM,
        its L1 data cache and its L1 TLB are rebound to the shard's
        facade sim (own clock + keyed queue); the SM's GPU reference and
        the L1's lower port become the window-aware proxies.
        """
        if self.shards:
            raise SimulationError("attach_gpu called twice")
        num_sms = len(gpu.sms)
        if self.num_shards > num_sms:
            raise SimulationError(
                f"cannot shard {num_sms} SMs {self.num_shards} ways")
        self.gpu = gpu
        self._noc = gpu.memory.noc
        # Earliest possible response deliveries for the dynamic caps:
        # a parked L1 TLB miss cannot re-enter its shard before the L2
        # TLB hit path returns; a parked data miss cannot before the
        # NoC hop lands it at the L2 (an L2 MSHR merge may fire the
        # waiting fill callback that same cycle, so nothing longer is
        # safe to assume).
        self._xlat_response_min = gpu._l2_hit_latency
        self._data_response_min = self._noc.latency
        root_ctx = self.events.ctx
        base, extra = divmod(num_sms, self.num_shards)
        next_sm = 0
        for shard_id in range(self.num_shards):
            size = base + (1 if shard_id < extra else 0)
            sm_ids = list(range(next_sm, next_sm + size))
            next_sm += size
            shard = Shard(self, shard_id, sm_ids)
            shard.sim.events.ctx = root_ctx
            port = ShardGpuPort(gpu, self, shard)
            shard_streams: List[CountingStream] = []
            self._shard_streams.append(shard_streams)
            for sm_id in sm_ids:
                sm = gpu.sms[sm_id]
                sm.sim = shard.sim
                sm.gpu = port
                l1 = gpu.memory.l1s[sm_id]
                l1.sim = shard.sim
                l1.lower = ShardNocPort(self._noc, self, shard)
                gpu.l1_tlbs[sm_id].sim = shard.sim
                # Record which shard each counted stream lands in: the
                # processes backend forks per-shard workers that report
                # their own completion floors, so floor ownership has to
                # follow the launch scheduler's SM assignment.
                sm.add_warp = _recording_add_warp(sm.add_warp, shard_streams)
            self.shards.append(shard)
            self._queues.append(shard.sim.events)
        launch = gpu.launch_warps

        def launch_counted(tenant_id, streams, _launch=launch,
                           _register=self._register_streams):
            counted = [s if type(s) is CountingStream else CountingStream(s)
                       for s in streams]
            _register(counted)
            _launch(tenant_id, counted)

        gpu.launch_warps = launch_counted

    def _register_streams(self, streams: List[CountingStream]) -> None:
        self._streams.extend(streams)
        now = self.now
        floor = self._floor
        for stream in streams:
            cand = now + stream.min_remaining_cycles()
            if cand < floor:
                floor = cand
        self._floor = floor

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until=None, stop_when=None, max_events=None) -> int:
        budget = sys.maxsize if max_events is None else max_events
        profiler = self.profiler
        audit = self.audit_hook
        if self.backend == "processes" and self.shards:
            blockers = self._process_blockers(stop_when)
            if not blockers:
                return self._run_processes(until, budget)
            if self._procs is not None:
                raise SimulationError(
                    "cannot continue a processes-backend run in degraded "
                    "mode: " + "; ".join(blockers))
            self._warn_degraded("inline execution", blockers)
        fired = 0
        self._running = True
        self._stop = False
        # Windows require the pure manager-driven mode: a per-event
        # audit hook, stop predicate or time bound must observe every
        # event in global order, which only serial steps provide.  The
        # profiler keeps windows but forces the in-process backend so
        # its per-callsite counts stay exact.
        windows_ok = (self.shards and audit is None and stop_when is None
                      and until is None and self.window > 0)
        backend = "inline" if profiler is not None else self.backend
        if backend == "processes":
            backend = "inline"
        if self.backend == "threads" and self.num_shards > 1:
            reasons = []
            if profiler is not None:
                reasons.append("profiler attached (exact per-callsite "
                               "counts require in-process execution)")
            if self.shards and not windows_ok:
                if audit is not None:
                    reasons.append("audit hook installed (per-event global "
                                   "ordering requires serial steps)")
                if stop_when is not None:
                    reasons.append("stop_when predicate installed")
                if until is not None:
                    reasons.append("until bound supplied")
            if reasons:
                self._warn_degraded("serial in-process execution", reasons)
        parent = self.events
        queues = self._queues
        shards = self.shards
        t_run = perf_counter_ns()
        try:
            while fired < budget and not self._stop:
                # -- global minimum across boundary + shard queues -----
                best = None
                best_q = None
                for q in queues:
                    heap = q.heap
                    if heap:
                        front = heap[0]
                        if (best is None or front[0] < best[0]
                                or (front[0] == best[0]
                                    and front[1] < best[1])):
                            best = front
                            best_q = q
                if best is None:
                    if until is not None and until > self.now:
                        self.now = until
                    break
                t = best[0]
                if until is not None and t > until:
                    self.now = until
                    break
                if windows_ok and best_q is not parent:
                    horizon = t + self.window
                    p_heap = parent.heap
                    if p_heap and p_heap[0][0] < horizon:
                        horizon = p_heap[0][0]
                    floor = self._floor
                    if floor < horizon:
                        floor = self._completion_floor(t)
                        if floor < horizon:
                            horizon = floor
                    if horizon > t:
                        fired += self._run_window(horizon, budget - fired,
                                                  backend)
                        continue
                # -- serial step ---------------------------------------
                entry = heappop(best_q.heap)
                best_q._live -= 1
                self.now = t
                for shard in shards:
                    ssim = shard.sim
                    if ssim.now < t:
                        ssim.now = t
                ctx = Ctx(entry[1], 0)
                for q in queues:
                    q.ctx = ctx
                if profiler is not None:
                    profiler.record_fn(entry[3])
                entry[3](*entry[4])
                fired += 1
                self.serial_events += 1
                if audit is not None:
                    audit()
                if stop_when is not None and stop_when():
                    break
        finally:
            self._running = False
            self.run_wall_ns += perf_counter_ns() - t_run
        return fired

    def step(self) -> bool:
        """Fire the globally next entry (serial semantics)."""
        if self._procs is not None:
            raise SimulationError(
                "step() is unavailable once the processes backend has "
                "engaged: shard state lives in the worker processes; "
                "use run()")
        best_q = None
        best = None
        for q in self._queues:
            heap = q.heap
            if heap:
                front = heap[0]
                if (best is None or front[0] < best[0]
                        or (front[0] == best[0] and front[1] < best[1])):
                    best = front
                    best_q = q
        if best_q is None:
            return False
        entry = heappop(best_q.heap)
        best_q._live -= 1
        t = entry[0]
        self.now = t
        for shard in self.shards:
            if shard.sim.now < t:
                shard.sim.now = t
        ctx = Ctx(entry[1], 0)
        for q in self._queues:
            q.ctx = ctx
        entry[3](*entry[4])
        return True

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------
    def _completion_floor(self, t: int) -> float:
        """Earliest cycle any live warp could retire, recomputed from
        the counted streams.  ``now + remaining`` per stream is
        monotone non-decreasing (issues are >= 1 cycle apart), so the
        cached value stays a valid lower bound between recomputes."""
        best = float("inf")
        live = []
        append = live.append
        for stream in self._streams:
            if stream.done:
                continue
            append(stream)
            cand = t + stream.min_remaining_cycles()
            if cand < best:
                best = cand
        self._streams = live
        self._floor = best
        return best

    def _run_window(self, horizon: int, budget: int, backend: str) -> int:
        self.windows_opened += 1
        self.in_window = True
        shards = self.shards
        total = 0
        t0 = perf_counter_ns()
        if backend == "threads" and len(shards) > 1:
            pool = self._ensure_pool()
            futures = [pool.submit(self._advance_shard_timed, shard,
                                   horizon, budget)
                       for shard in shards]
            worst = 0
            for future in futures:
                fired, elapsed = future.result()
                total += fired
                if elapsed > worst:
                    worst = elapsed
            self.critical_ns += worst
        else:
            worst = 0
            for shard in shards:
                fired, elapsed = self._advance_shard_timed(
                    shard, horizon, budget - total)
                total += fired
                if elapsed > worst:
                    worst = elapsed
            self.critical_ns += worst
        self.window_ns += perf_counter_ns() - t0
        self.in_window = False
        b0 = perf_counter_ns()
        self._flush_barrier()
        self.barrier_ns += perf_counter_ns() - b0
        self.window_events += total
        return total

    def _advance_shard_timed(self, shard: Shard, horizon: int, budget: int):
        s0 = perf_counter_ns()
        fired = self._advance_shard(shard, horizon, budget)
        elapsed = perf_counter_ns() - s0
        shard.work_ns += elapsed
        return fired, elapsed

    def _advance_shard(self, shard: Shard, horizon: int, budget: int) -> int:
        """Advance one shard to min(horizon, its dynamic cap).

        The cap is re-read every iteration: a parked intent tightens it
        mid-advance, and the shard must not run past the earliest cycle
        that intent's response could re-enter it.
        """
        sim = shard.sim
        q = sim.events
        heap = q.heap
        profiler = self.profiler
        fired = 0
        while heap:
            top = heap[0]
            t = top[0]
            if t >= horizon or t >= shard.cap or fired >= budget:
                break
            heappop(heap)
            q._live -= 1
            sim.now = t
            q.ctx = Ctx(top[1], 0)
            if profiler is not None:
                profiler.record_fn(top[3])
            top[3](*top[4])
            fired += 1
        shard.events_fired += fired
        return fired

    def _flush_barrier(self) -> None:
        """Deterministic merge at a window boundary.

        Accounting deltas are summed (commutative — the floor proof
        guarantees no zero-crossing happened inside the window), and
        parked intents re-enter the boundary queue as entries carrying
        their execution's own key, so the main loop replays each one in
        exact serial position against all remaining work.
        """
        gpu = self.gpu
        parent = self.events
        fire = self._fire_intent
        for shard in self.shards:
            deltas = shard.instr_delta
            if deltas:
                count = gpu.count_instructions
                for tenant_id in sorted(deltas):
                    count(tenant_id, deltas[tenant_id])
                deltas.clear()
            done = shard.warp_done_delta
            if done:
                for tenant_id in sorted(done):
                    context = gpu.tenants[tenant_id]
                    context.active_warps -= done[tenant_id]
                    if context.active_warps <= 0:
                        raise SimulationError(
                            "tenant's active-warp count crossed zero inside "
                            "a parallel window; the completion floor is "
                            "supposed to make this impossible",
                            tenant_id=tenant_id, sim_time=self.now)
                done.clear()
            intents = shard.intents
            if intents:
                self.intents_flushed += len(intents)
                for t, key, seq, code, payload in intents:
                    parent.push_keyed(t, key, seq, fire, (code, payload))
                intents.clear()
            shard.cap = float("inf")

    def _fire_intent(self, code: int, payload: tuple) -> None:
        """Replay one parked boundary intent at its serial position.

        Fired as an ordinary boundary-queue entry: the clock already
        stands at the intent's time and the conductor has raised every
        shard clock to it, so the replayed call observes exactly the
        state the serial engine would have.
        """
        gpu = self.gpu
        if code == NOC:
            exec_key, i_snap, addr, is_write, on_done, tenant_id = payload
            # Restore the parking execution's minting context so the
            # interconnect's push lands with its serial key.
            ctx = Ctx(exec_key, i_snap)
            for q in self._queues:
                q.ctx = ctx
            self._noc.access(addr, is_write, on_done, tenant_id)
        elif code == LOOKUP:
            tenant_id, vpn, sm_id, sched, key = payload
            gpu.tenants[tenant_id].page_table.ensure_mapped(vpn)
            self.events.push_keyed(sched, key, 0, gpu._l2_tlb_lookup,
                                   (sm_id, tenant_id, vpn))
        else:  # ENSURE
            tenant_id, vpn = payload
            gpu.tenants[tenant_id].page_table.ensure_mapped(vpn)

    # ------------------------------------------------------------------
    # Processes backend (DESIGN.md §13: worker-resident shard state)
    # ------------------------------------------------------------------
    def _process_blockers(self, stop_when) -> List[str]:
        """Why the processes backend cannot (or can no longer) engage."""
        blockers = []
        if self.audit_hook is not None:
            blockers.append("audit hook installed (per-event global "
                            "ordering requires serial steps)")
        if stop_when is not None:
            blockers.append("stop_when predicate installed")
        if self.profiler is not None:
            blockers.append("profiler attached (worker-side events cannot "
                            "be attributed in the parent)")
        if self.window <= 0:
            blockers.append("window span <= 0")
        if self._procs is None and (self.serial_events or self.window_events):
            blockers.append("events already fired in-process before "
                            "worker engagement")
        return blockers

    def _warn_degraded(self, mode: str, reasons: List[str]) -> None:
        message = (f"shard backend {self.backend!r} degraded to {mode}: "
                   + "; ".join(reasons))
        if message in self._degrade_warned:
            return
        self._degrade_warned.add(message)
        warnings.warn(message, RuntimeWarning, stacklevel=3)

    def _engage_processes(self) -> None:
        """Fork the worker pool and install the parent-side reroutes.

        Must happen before any event fires (enforced by
        :meth:`_process_blockers`): the fork splits ownership exactly at
        the launch-complete snapshot, so neither side ever holds a
        half-executed chain belonging to the other.

        Parent reroutes (instance attributes, invisible to the already-
        forked workers): each shard SM's ``add_warp`` becomes an
        ``ADD_WARP`` delivery emitter, and ``gpu._finish_translation``
        keeps only its boundary half (the masked L2 fill) and forwards
        the shard half as a ``FINISH_XLAT`` continuation.  Both methods
        are resolved at call time by their callers, so the reroute
        catches every post-engagement execution.
        """
        from repro.engine.shard_proc import ProcPool

        pool = ProcPool(self)
        pool.spawn()
        self._procs = pool
        gpu = self.gpu
        for shard, remote in zip(self.shards, pool.remotes):
            for sm_id in shard.sm_ids:
                self._sm_remote[sm_id] = remote
                gpu.sms[sm_id].add_warp = self._add_warp_emitter(
                    remote, sm_id)
        def finish_translation(sm_id, tenant_id, vpn, frame, from_walk,
                               _gpu=gpu, _self=self):
            # Boundary half of Gpu._finish_translation (the policy-gated
            # L2 fill; gpu.mask is read live — set_mask may run later);
            # the shard half continues inside the owning worker.
            if from_walk:
                if _gpu.mask is None or _gpu.mask.allow_l2_fill(tenant_id):
                    _gpu._l2_tlbs[tenant_id].insert(tenant_id, vpn, frame)
            remote = _self._sm_remote[sm_id]
            remote.outstanding -= 1
            _self._emit_continuation(remote, DELIVER_FINISH_XLAT,
                                     (sm_id, tenant_id, vpn, frame))

        gpu._finish_translation = finish_translation

    def _add_warp_emitter(self, remote, sm_id: int):
        def add_warp(warp, _remote=remote, _sm_id=sm_id, _self=self):
            # Serial add_warp is a push_raw of Sm._advance_warp at +0:
            # mint the identical key from the current execution context
            # and ship the materialized stream; the worker replays the
            # push-time side effects when the entry fires.
            stream = warp._stream
            ops = stream.ops
            t = _self.now
            ctx = _self.events.ctx
            key = OrderKey(t, ctx.i, ctx.key)
            ctx.i += 1
            _remote.deliveries.append(
                (DELIVER_ADD_WARP, t, key, 0, 0,
                 (_sm_id, warp.warp_id, warp.tenant_id, pack_pickle(ops))))
            pos = (t, key, 0)
            if _remote.front is None or pos < _remote.front:
                _remote.front = pos
            _remote.qlen += 1
            bound = t + stream_min_cycles(ops)
            if bound < _remote.floor:
                _remote.floor = bound
        return add_warp

    def _emit_continuation(self, remote, kind: int, payload) -> None:
        """Buffer a continuation delivery at the current execution point.

        The record carries the firing boundary entry's own ``(t, key)``
        plus a running sub offset (two emissions from one execution stay
        ordered), and reserves an ``I_SPAN`` block of the execution's
        push indices so the worker-side remainder minting from
        ``Ctx(key, base_i)`` interleaves exactly like the serial inline
        call would.
        """
        t, key, sub0 = self._cur_pos
        sub = sub0 + self._emit_sub
        self._emit_sub += 1
        ctx = self.events.ctx
        base_i = ctx.i
        ctx.i += I_SPAN
        remote.deliveries.append((kind, t, key, sub, base_i, payload))
        pos = (t, key, sub)
        if remote.front is None or pos < remote.front:
            remote.front = pos
        remote.qlen += 1

    def _run_processes(self, until, budget: int) -> int:
        if self._procs is not None and self._procs._closed:
            raise SimulationError(
                "the shard worker pool is closed; construct a fresh "
                "simulation to run again")
        fired = 0
        self._running = True
        self._stop = False
        t_run = perf_counter_ns()
        try:
            if self._procs is None:
                self._engage_processes()
            pool = self._procs
            remotes = pool.remotes
            parent = self.events
            p_heap = parent.heap
            window = self.window
            while fired < budget and not self._stop:
                # -- global minimum: boundary front vs tracked remote
                # fronts (tuple compare on (t, OrderKey, sub) reproduces
                # the serial order; key equality is identity) ----------
                best_pos = p_heap[0][:3] if p_heap else None
                best_remote = None
                for r in remotes:
                    f = r.front
                    if f is not None and (best_pos is None or f < best_pos):
                        best_pos = f
                        best_remote = r
                if best_pos is None:
                    if until is not None and until > self.now:
                        self.now = until
                    break
                t = best_pos[0]
                if until is not None and t > until:
                    self.now = until
                    break
                if best_remote is None:
                    # -- serial boundary step --------------------------
                    entry = heappop(p_heap)
                    parent._live -= 1
                    self.now = t
                    parent.ctx = Ctx(entry[1], 0)
                    self._cur_pos = (t, entry[1], entry[2])
                    self._emit_sub = 1
                    entry[3](*entry[4])
                    fired += 1
                    self.serial_events += 1
                    continue
                # -- shard-local front: open a batch window ------------
                bound = t + window
                if until is not None and until + 1 < bound:
                    bound = until + 1
                floor = TIME_INF
                for r in remotes:
                    if r.floor < floor:
                        floor = r.floor
                if floor < bound:
                    bound = floor
                b_front = p_heap[0][0] if p_heap else None
                clamp_all = self._pending_warp_done > 0
                targets = []
                for r in remotes:
                    f = r.front
                    if f is None:
                        continue
                    h = bound
                    if ((clamp_all or r.outstanding)
                            and b_front is not None and b_front < h):
                        # An in-flight boundary response (or a pending
                        # completion replay, which can relaunch into any
                        # shard) could deliver into this shard: it must
                        # not outrun the boundary queue's front.
                        h = b_front
                    if f[0] < h:
                        targets.append((r, h))
                if targets:
                    self.windows_opened += 1
                    budget_left = budget - fired
                    t0 = perf_counter_ns()
                    for r, h in targets:
                        pool.send_advance(r, h, budget_left, False)
                    worst = 0
                    replies = []
                    for r, _h in targets:
                        reply = pool.recv_reply(r)
                        replies.append((r, reply))
                        if reply["work_ns"] > worst:
                            worst = reply["work_ns"]
                    self.critical_ns += worst
                    self.window_ns += perf_counter_ns() - t0
                    b0 = perf_counter_ns()
                    wfired = 0
                    for r, reply in replies:
                        wfired += self._apply_reply(r, reply)
                    self.barrier_ns += perf_counter_ns() - b0
                    self.window_events += wfired
                    fired += wfired
                    if wfired:
                        continue
                # -- forced single step: the global minimum is a shard
                # entry at its horizon; fire exactly it ----------------
                pool.send_advance(best_remote, t, budget - fired, True)
                reply = pool.recv_reply(best_remote)
                sfired = self._apply_reply(best_remote, reply)
                if sfired == 0:
                    raise SimulationError(
                        "processes backend made no progress on a forced "
                        "single step; shard front tracking is inconsistent",
                        sim_time=self.now, shard_id=best_remote.shard_id)
                if self.now < t:
                    self.now = t
                fired += sfired
                self.serial_events += sfired
            self._procs.finalize(self.now)
        finally:
            self._running = False
            self.run_wall_ns += perf_counter_ns() - t_run
        return fired

    def _apply_reply(self, remote, reply: dict) -> int:
        """Fold one worker reply into conductor state.

        Fronts/floors are replaced (the worker is quiescent, so its
        report is exact), accounting deltas merge exactly as the
        in-process barrier does, and parked intents enter the boundary
        queue as replay entries with their execution's own key.
        """
        gpu = self.gpu
        remote.front = reply["front"]
        remote.qlen = reply["qlen"]
        remote.floor = reply["floor_off"]
        shard = self.shards[remote.shard_id]
        shard.events_fired += reply["fired"]
        shard.work_ns += reply["work_ns"]
        for tenant_id, count in reply["instr"]:
            gpu.count_instructions(tenant_id, count)
        intents = reply["intents"]
        if intents:
            self.intents_flushed += len(intents)
            parent = self.events
            fire = self._fire_intent_proc
            for t, key, seq, code, payload in intents:
                if code == LOOKUP:
                    remote.outstanding += 1
                elif code == NOC:
                    if payload[3] != -1:  # token; -1 is the writeback noop
                        remote.outstanding += 1
                elif code == WARP_DONE:
                    self._pending_warp_done += 1
                parent.push_keyed(t, key, seq, fire,
                                  (remote, code, payload, key))
        return reply["fired"]

    def _fire_intent_proc(self, remote, code: int, payload: tuple,
                          key) -> None:
        """Replay one worker-parked intent at its serial position."""
        gpu = self.gpu
        if code == NOC:
            i_snap, addr, is_write, token, tenant_id = payload
            self.events.ctx = Ctx(key, i_snap)
            if token == -1:
                from repro.engine.shard import _writeback_noop
                on_done = _writeback_noop
            else:
                from repro.engine.shard_proc import RemoteSink
                on_done = RemoteSink(self, remote, token)
            self._noc.access(addr, is_write, on_done, tenant_id)
        elif code == LOOKUP:
            tenant_id, vpn, sm_id, sched, minted = payload
            gpu.tenants[tenant_id].page_table.ensure_mapped(vpn)
            self.events.push_keyed(sched, minted, 0, gpu._l2_tlb_lookup,
                                   (sm_id, tenant_id, vpn))
        elif code == ENSURE:
            tenant_id, vpn = payload
            gpu.tenants[tenant_id].page_table.ensure_mapped(vpn)
        else:  # WARP_DONE
            tenant_id, i_snap = payload
            self._pending_warp_done -= 1
            context = gpu.tenants[tenant_id]
            context.active_warps -= 1
            if context.active_warps < 0:
                raise SimulationError(
                    "tenant's active-warp count crossed zero in the "
                    "processes backend; the completion floor is supposed "
                    "to make this impossible",
                    tenant_id=tenant_id, sim_time=self.now)
            if context.active_warps == 0 and context.on_complete is not None:
                # Restore the completing execution's minting context so
                # a relaunch emits byte-identical ADD_WARP keys.
                self.events.ctx = Ctx(key, i_snap)
                callback, context.on_complete = context.on_complete, None
                callback()

    # ------------------------------------------------------------------
    # Stop / drain
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request the run loop to stop at the next deterministic point.

        During a serial step this is the exact serial semantics: the
        loop exits before the next entry fires.  If a callback inside a
        window requests a stop, the window runs to its horizon and the
        barrier flushes first — the conductor only reads the flag
        between globally ordered steps, so the queues are always left
        in the same state regardless of shard interleaving, and a
        subsequent :meth:`run` resumes byte-identically.  (Manager-driven
        completion can only happen at serial steps anyway: the window
        horizon never crosses a tenant's completion time.)
        """
        self._stop = True

    def drain(self, max_events: int = 10_000_000) -> int:
        """Run until *every* queue is empty (bounded as a bug backstop).

        The serial kernel's check reads ``len(self.events)``, which here
        is only the boundary queue; a budget exhaustion mid-window could
        leave work parked in shard queues with the boundary empty, so
        the backstop counts :attr:`pending_events` across all of them.
        """
        fired = self.run(max_events=max_events)
        if self.pending_events and fired >= max_events:
            raise SimulationError(
                "drain() exceeded max_events; runaway event loop?")
        return fired

    # ------------------------------------------------------------------
    # Backends / reporting
    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor
            self._pool = ThreadPoolExecutor(
                max_workers=len(self.shards), thread_name_prefix="shard")
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (threads or processes backend)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._procs is not None:
            self._procs.close()

    @property
    def pending_events(self) -> int:
        """Live entries across the boundary and every shard queue.

        Once the processes backend has engaged, the parent's copies of
        the shard queues are stale; the workers' tracked queue lengths
        (which already count buffered deliveries) stand in for them.
        """
        if self._procs is not None:
            return len(self.events) + sum(r.qlen
                                          for r in self._procs.remotes)
        return sum(len(q) for q in self._queues)

    def parallel_stats(self) -> Dict[str, Any]:
        """Telemetry for the profiler breakdown and the benchmark.

        ``modeled_wall_ns`` replaces the measured (possibly serialized)
        shard-advance time with the per-window critical path — the wall
        time a machine with one core per shard would see.  On a
        free-threaded build with enough cores, ``run_wall_ns`` itself
        approaches this number under the threads backend.
        """
        total = self.run_wall_ns
        modeled = total - self.window_ns + self.critical_ns
        return {
            "num_shards": self.num_shards,
            "backend": self.backend,
            "window_span": self.window,
            "windows": self.windows_opened,
            "window_events": self.window_events,
            "serial_events": self.serial_events,
            "intents_flushed": self.intents_flushed,
            "window_ns": self.window_ns,
            "critical_ns": self.critical_ns,
            "barrier_ns": self.barrier_ns,
            "run_wall_ns": total,
            "modeled_wall_ns": modeled,
            "per_shard_events": [s.events_fired for s in self.shards],
            "per_shard_work_ns": [s.work_ns for s in self.shards],
        }
