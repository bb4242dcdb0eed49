"""A faithful in-process reconstruction of the seed engine, for benchmarks.

``bench_engine_throughput.py`` reports speedup "over the seed heap-based
kernel".  The seed engine differs from the shipping one in two layers:

* the **kernel**: a binary-heap event queue, a fresh ``Event`` allocation
  per push (with ``*args`` repacking in ``at``/``after``), and a run loop
  that peeks *and* pops the heap for every event while polling a
  ``stop_when`` predicate; and
* the **hot component paths**: per-call f-string stat-name formatting and
  registry lookups, attribute chains into config dataclasses, property
  descriptors, and per-walk geometry recomputation — all replaced by
  bit-exact cached forms in this tree.

Comparing the shipping engine against the shipping components with only
the queue swapped would credit none of the second layer, understating the
real seed-to-now ratio.  This module therefore carries the seed
implementations **verbatim** (from the v0 growth seed commit) and
:func:`seed_engine` patches them onto the live classes for the duration
of a reference run.  Every patched method is behaviourally identical to
its optimised replacement — the benchmark asserts both engines fire the
exact same number of events — so the ratio isolates cost, not behaviour.

Benchmark-internal; nothing in ``src/`` imports this.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, List, Optional, Tuple

import repro.tenancy.manager as manager_module
from repro.core.partitioned import PartitionedWalkPolicy
from repro.core.structures import TenantWalkerMap
from repro.engine.event import Event
from repro.engine.simulator import SimulationError
from repro.engine.stats import StatsRegistry
from repro.gpu.gpu import Gpu
from repro.gpu.sm import Sm
from repro.mem.cache import Cache, _MshrEntry
from repro.mem.dram import Dram
from repro.vm.address import LEVEL_BITS, PTE_BYTES, AddressLayout
from repro.vm.page_table import PageTable
from repro.vm.pwc import PageWalkCache
from repro.vm.subsystem import PageWalkSubsystem
from repro.vm.tlb import Tlb
from repro.vm.walk import WalkRequest
from repro.vm.walker import Walker


class HeapEventQueue:
    """The seed binary-heap kernel, kept verbatim as a reference.

    One :class:`Event` per push, ordered by ``Event.__lt__`` (a
    Python-level comparison per sift step).  ``recycle`` is a no-op so
    a pop/fire/recycle run loop can drive it unchanged.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time``; returns the event."""
        event = Event(time, next(self._seq), fn, args)
        heapq.heappush(self._heap, event)
        return event

    def push_packed(self, time: int, fn: Callable[..., Any],
                    args: Tuple[Any, ...]) -> Event:
        event = Event(time, next(self._seq), fn, args)
        heapq.heappush(self._heap, event)
        return event

    def push_raw(self, time: int, fn: Callable[..., Any],
                 args: Tuple[Any, ...]) -> None:
        """Handle-free scheduling, Event-backed here: the reference
        kernel keeps one representation and the canonical
        ``(time, seq)`` FIFO order."""
        self.push_packed(time, fn, args)

    def run_fast(self, sim, budget: int) -> int:
        """Plain pop/fire loop (no inlining — this kernel is never timed
        through it)."""
        fired = 0
        while fired < budget and not sim._stop:
            event = self.pop()
            if event is None:
                break
            sim.now = event.time
            event.fn(*event.args)
            fired += 1
        return fired

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or ``None``."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[int]:
        """Time of the earliest pending event without removing it."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def recycle(self, event: Event) -> None:
        """No-op: the reference kernel allocates a fresh Event per push."""


class SeedSimulator:
    """The seed ``Simulator`` verbatim: per-event peek + step + poll.

    ``HeapEventQueue.push`` already has the seed's ``*args`` signature
    (a fresh :class:`Event` allocation per call), so the queue is used
    as-is; ``recycle`` on it is a no-op, as in the seed.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self.events = HeapEventQueue()
        self.stats = StatsRegistry()
        self.profiler = None
        self._running = False

    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now={self.now}"
            )
        return self.events.push(time, fn, *args)

    def after(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.events.push(self.now + delay, fn, *args)

    # The shipping handle-free API, for components not patched back to
    # seed bodies.  HeapEventQueue.push_raw wraps a full Event, so the
    # seed side keeps per-event allocation cost and canonical ordering.
    def post_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now={self.now}"
            )
        self.events.push_raw(time, fn, args)

    def post_after(self, delay: int, fn: Callable[..., Any],
                   *args: Any) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.events.push_raw(self.now + delay, fn, args)

    def stop(self) -> None:
        """API compatibility: the seed loop stops via ``stop_when``."""

    def step(self) -> bool:
        event = self.events.pop()
        if event is None:
            return False
        if event.time < self.now:  # pragma: no cover - defensive
            raise SimulationError("event queue returned a past event")
        self.now = event.time
        event.fn(*event.args)
        return True

    def run(
        self,
        until: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
        max_events: Optional[int] = None,
    ) -> int:
        fired = 0
        self._running = True
        try:
            while True:
                if stop_when is not None and stop_when():
                    break
                if max_events is not None and fired >= max_events:
                    break
                next_time = self.events.peek_time()
                if next_time is None:
                    if until is not None and until > self.now:
                        self.now = until
                    break
                if until is not None and next_time > until:
                    self.now = until
                    break
                if not self.step():  # pragma: no cover - race with peek
                    break
                fired += 1
        finally:
            self._running = False
        return fired


# ----------------------------------------------------------------------
# Seed component methods, verbatim
# ----------------------------------------------------------------------
def _walker_init(self, walker_id: int, subsystem) -> None:
    self.id = walker_id
    self.subsystem = subsystem
    self.sim = subsystem.sim
    self.current = None
    self.reserved = False


def _walker_busy(self) -> bool:
    return self.current is not None


def _walker_start(self, request: WalkRequest) -> None:
    if self.busy:
        raise RuntimeError(f"walker {self.id} is already busy")
    self.current = request
    request.walker_id = self.id
    request.service_start = self.sim.now
    self.subsystem.note_service_start(self, request)
    pwc = self.subsystem.pwc
    skip = pwc.probe(request.tenant_id, request.vpn)
    addrs = self.subsystem.walk_addresses(request)
    remaining = addrs[skip:]
    if not remaining:  # pragma: no cover - probe() caps below depth
        raise RuntimeError("PWC cannot skip the leaf level")
    request.memory_accesses = len(remaining)
    self.sim.after(self.subsystem.pwc_latency,
                   self._issue_level, request, remaining, 0)


def _walker_finish(self, request: WalkRequest) -> None:
    request.completion_time = self.sim.now
    self.current = None
    self.subsystem.pwc.fill(request.tenant_id, request.vpn)
    self.subsystem.note_completion(self, request)


def _walker_issue_level(self, request: WalkRequest, addrs, index: int) -> None:
    if request is not self.current:  # pragma: no cover - defensive
        raise RuntimeError("walker state corrupted")
    if index >= len(addrs):
        self._finish(request)
        return
    self.subsystem.memory.walker_access(
        addrs[index],
        lambda: self._issue_level(request, addrs, index + 1),
        request.tenant_id,
    )


def _pt_walk_addresses(self, vpn):
    # Seed body: the radix addresses are recomputed on every walk — the
    # shipping per-VPN memo landed with the fold rungs and must not
    # leak into the reference's walk cost.
    if vpn not in self._translations:
        raise KeyError(f"vpn {vpn:#x} not mapped for tenant {self.tenant_id}")
    addrs = []
    node = self._root
    for level in range(self.layout.depth):
        idx = self.layout.level_index(vpn, level)
        base = self.frames.frame_to_addr(node.frame)
        addrs.append(base + (idx * PTE_BYTES) % self.frames.frame_bytes)
        if level < self.layout.depth - 1:
            node = node.children[idx]
    return addrs


def _pwc_probe(self, tenant_id, vpn):
    for depth in range(self.max_depth, 0, -1):
        key = (tenant_id, depth, self.layout.prefix(vpn, depth))
        if key in self._lru:
            self._lru.move_to_end(key)
            self._hits.inc()
            self._skipped.inc(depth)
            return depth
    self._misses.inc()
    return 0


def _pwc_fill(self, tenant_id, vpn):
    for depth in range(1, self.max_depth + 1):
        self._insert((tenant_id, depth, self.layout.prefix(vpn, depth)))


_shipping_pws_init = PageWalkSubsystem.__init__


def _pws_init(self, *args, **kwargs):
    _shipping_pws_init(self, *args, **kwargs)
    # The seed request_walk/note_completion keep every refused walk in
    # one flat deque and re-offer all of it on each completion.
    self._overflow = deque()


def _pws_request_walk(self, tenant_id, vpn, on_done):
    key = (tenant_id, vpn)
    inflight = self._inflight.get(key)
    stats = self.sim.stats
    if inflight is not None:
        stats.counter(f"{self.name}.merged").inc()
        inflight.callbacks.append(on_done)
        return inflight
    request = WalkRequest(tenant_id, vpn, self.sim.now)
    request.callbacks.append(on_done)
    request._candidate_walkers = tuple(self.policy.candidate_walkers(tenant_id))
    request._other_service_snapshot = self._other_starts_on(
        request._candidate_walkers, tenant_id
    )
    self._inflight[key] = request
    stats.counter(f"{self.name}.walks.tenant{tenant_id}").inc()
    stats.histogram(
        f"{self.name}.queue_depth", edges=(0, 1, 2, 4, 8, 16, 32, 64, 128)
    ).add(self.policy.pending_total())
    if self.tracer is not None:
        self.tracer.emit(self.sim.now, "walk.enqueue",
                         walk=request.id, tenant=tenant_id, vpn=vpn)
    if self.policy.on_arrival(request):
        self._dispatch_idle_walkers()
    else:
        stats.counter(f"{self.name}.overflow").inc()
        self._overflow.append(request)
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, "walk.overflow",
                             walk=request.id, tenant=tenant_id)
    return request


def _pws_other_starts_on(self, walkers, tenant_id):
    return sum(
        self._starts_total[w] - self._starts_by_tenant[w].get(tenant_id, 0)
        for w in walkers
    )


def _pws_dispatch_idle_walkers(self):
    for walker in self.walkers:
        if not walker.busy and not getattr(walker, "reserved", False):
            self._try_dispatch(walker)


# ----------------------------------------------------------------------
# Seed walk-policy hot path, verbatim: the shipping bodies were later
# rewritten (bitmap-decode memo, manual argmax loops) for the always-on
# policy-cost cut; the reference must keep paying the original cost or
# the speedup ratio silently divides it out.
# ----------------------------------------------------------------------
def _twm_owned_walkers(self, tenant_id):
    bitmap = self._bitmap.get(tenant_id, 0)
    return [w for w in range(self.num_walkers) if bitmap & (1 << w)]


def _policy_on_arrival(self, request):
    tenant = request.tenant_id
    owned = self.twm.owned_walkers(tenant)
    if not owned:
        raise ValueError(f"tenant {tenant} owns no walkers; not registered?")
    best = max(owned, key=lambda w: (self.fwa.free_slots(w), -w))
    if self.fwa.free_slots(best) == 0:
        return False
    self._queues[best].append(request)
    self.fwa.consume_slot(best)
    self.twm.inc_pend(tenant)
    self._note_arrival(request)
    return True


def _policy_dequeue_for_tenant(self, tenant_id):
    owned = self.twm.owned_walkers(tenant_id)
    candidates = [w for w in owned if self._queues[w]]
    if not candidates:
        return None
    source = max(candidates, key=lambda w: (len(self._queues[w]), -w))
    return self._pop_queue(source)


def _policy_queued_for(self, tenant_id):
    return sum(len(self._queues[w]) for w in self.twm.owned_walkers(tenant_id))


def _policy_pending_total(self):
    return sum(len(q) for q in self._queues)


def _policy_pop_queue(self, walker_id):
    request = self._queues[walker_id].popleft()
    self.fwa.release_slot(walker_id)
    return request


def _pws_note_service_start(self, walker, request):
    tenant = request.tenant_id
    stats = self.sim.stats
    interleaved = (
        self._other_starts_on(request._candidate_walkers, tenant)
        - request._other_service_snapshot
    )
    stats.accumulator(f"{self.name}.interleave.tenant{tenant}").add(interleaved)
    self._starts_total[walker.id] += 1
    by_tenant = self._starts_by_tenant[walker.id]
    by_tenant[tenant] = by_tenant.get(tenant, 0) + 1
    if self.tracer is not None:
        kind = "walk.steal" if request.stolen else "walk.start"
        self.tracer.emit(self.sim.now, kind, walk=request.id,
                         tenant=tenant, walker=walker.id,
                         waited=request.queueing_latency,
                         interleaved=interleaved)
    stats.accumulator(f"{self.name}.queue_latency.tenant{tenant}").add(
        request.queueing_latency
    )
    if request.stolen:
        stats.counter(f"{self.name}.stolen.tenant{tenant}").inc()
    self._update_busy(tenant, +1)


def _pws_note_completion(self, walker, request):
    tenant = request.tenant_id
    stats = self.sim.stats
    stats.counter(f"{self.name}.completed.tenant{tenant}").inc()
    stats.accumulator(f"{self.name}.walk_latency.tenant{tenant}").add(
        request.total_latency
    )
    stats.accumulator(f"{self.name}.mem_accesses").add(request.memory_accesses)
    self._update_busy(tenant, -1)
    self._inflight.pop((tenant, request.vpn), None)
    if self.tracer is not None:
        self.tracer.emit(self.sim.now, "walk.complete", walk=request.id,
                         tenant=tenant, walker=walker.id,
                         latency=request.total_latency,
                         accesses=request.memory_accesses)
    self.policy.on_complete(walker.id, request)
    if self._overflow:
        still_held = deque()
        for pending in self._overflow:
            if not self.policy.on_arrival(pending):
                still_held.append(pending)
        self._overflow = still_held
    for callback in request.callbacks:
        callback(request)
    self._dispatch_idle_walkers()


def _pws_update_busy(self, tenant_id, delta):
    level = self._busy_by_tenant.get(tenant_id, 0) + delta
    self._busy_by_tenant[tenant_id] = level
    self.sim.stats.occupancy(
        f"{self.name}.busy.tenant{tenant_id}", start_time=0
    ).update(self.sim.now, level / max(1, len(self.walkers)))


def _cache_bank_of(self, line):
    return line % self.config.banks


def _cache_bank_latency(self, line):
    """Hit latency plus bank serialization delay."""
    bank = self._bank_of(line)
    now = self.sim.now
    start = max(now, self._bank_free[bank])
    self._bank_free[bank] = start + self.bank_cycles
    return (start - now) + self.config.hit_latency


def _cache_access(self, addr, is_write, on_done, tenant_id=0):
    line = self.line_of(addr)
    latency = self._bank_latency(line)
    cache_set = self._sets[self._set_index(line)]
    if line in cache_set:
        self._hits.inc()
        cache_set.move_to_end(line)
        if is_write:
            cache_set[line] = True
        self.sim.after(latency, on_done)
        return
    pending = self._mshrs.get(line)
    if pending is not None:
        self._merges.inc()
        pending.waiters.append(on_done)
        pending.any_write = pending.any_write or is_write
        return
    if len(self._mshrs) >= self.config.mshr_entries:
        self._stalls.inc()
        self._overflow.append((addr, is_write, on_done, tenant_id))
        return
    self._misses.inc()
    entry = _MshrEntry(line)
    entry.waiters.append(on_done)
    entry.any_write = is_write
    self._mshrs[line] = entry
    self.sim.after(
        latency,
        self.lower.access,
        line * self.config.line_bytes,
        False,
        lambda: self._on_fill(line, tenant_id),
        tenant_id,
    )


def _cache_drain_overflow(self):
    while self._overflow and len(self._mshrs) < self.config.mshr_entries:
        addr, is_write, on_done, tenant_id = self._overflow.popleft()
        self.access(addr, is_write, on_done, tenant_id)


def _dram_access(self, addr, is_write, on_done, tenant_id=0):
    self._accesses.inc()
    channel = self.channel_of(addr)
    now = self.sim.now
    start = max(now, self._channel_free[channel])
    self._queue_delay.add(start - now)
    self._channel_free[channel] = start + self.config.cycles_per_access
    finish = start + self.config.access_latency
    self.sim.at(finish, on_done)


def _tlb_set_for(self, vpn):
    return self._sets[vpn % self.config.num_sets]


def _tlb_lookup(self, tenant_id, vpn):
    key = (tenant_id, vpn)
    tlb_set = self._set_for(vpn)
    if key in tlb_set:
        tlb_set.move_to_end(key)
        self._hits.inc()
        return True
    self._misses.inc()
    return False


def _tlb_insert(self, tenant_id, vpn, frame):
    key = (tenant_id, vpn)
    tlb_set = self._set_for(vpn)
    if key in tlb_set:
        tlb_set.move_to_end(key)
        tlb_set[key] = frame
        return
    if len(tlb_set) >= self.config.associativity:
        (victim_tenant, _victim_vpn), _ = tlb_set.popitem(last=False)
        self._evictions.inc()
        self._adjust_residency(victim_tenant, -1)
    tlb_set[key] = frame
    self._adjust_residency(tenant_id, +1)


def _tlb_adjust_residency(self, tenant_id, delta):
    level = self._resident_by_tenant.get(tenant_id, 0) + delta
    self._resident_by_tenant[tenant_id] = level
    sampler = self.sim.stats.occupancy(
        f"{self.name}.share.tenant{tenant_id}", start_time=0
    )
    sampler.update(self.sim.now, level / self.config.entries)


def _gpu_access_memory(self, sm_id, tenant_id, vaddr, is_write, on_done):
    vpn = self.layout.vpn(vaddr)
    self.tenants[tenant_id].page_table.ensure_mapped(vpn)
    offset = self.layout.page_offset(vaddr)

    def translated(frame):
        paddr = self.memory.frames.frame_to_addr(frame) + offset
        self.memory.data_access(sm_id, paddr, is_write, on_done, tenant_id)

    self._translate(sm_id, tenant_id, vpn, translated)


def _gpu_translate(self, sm_id, tenant_id, vpn, on_translated):
    l1 = self.l1_tlbs[sm_id]
    if l1.lookup(tenant_id, vpn):
        frame = self.tenants[tenant_id].page_table.translate(vpn)
        self.sim.after(l1.config.hit_latency, on_translated, frame)
        return
    mshrs = self._xlat_mshrs[sm_id]
    key = (tenant_id, vpn)
    if key in mshrs:
        mshrs[key].append(on_translated)
        return
    if len(mshrs) >= self.config.sm.l1_tlb.mshr_entries:
        self._xlat_overflow[sm_id].append((tenant_id, vpn, on_translated))
        self.sim.stats.counter(f"l1tlb.sm{sm_id}.mshr_stalls").inc()
        return
    mshrs[key] = [on_translated]
    self.sim.after(l1.config.hit_latency + self.config.interconnect_latency,
                   self._l2_tlb_lookup, sm_id, tenant_id, vpn)


def _gpu_l2_tlb_lookup(self, sm_id, tenant_id, vpn):
    l2 = self._l2_tlbs[tenant_id]
    hit = l2.lookup(tenant_id, vpn)
    if self.mask is not None:
        self.mask.note_l2_tlb_lookup(tenant_id, hit)
    if hit:
        frame = self.tenants[tenant_id].page_table.translate(vpn)
        self.sim.after(l2.config.hit_latency, self._finish_translation,
                       sm_id, tenant_id, vpn, frame, False)
        return
    self.sim.stats.counter(f"gpu.l2tlb_misses.tenant{tenant_id}").inc()
    self.sim.after(
        l2.config.hit_latency,
        lambda: self._pws[tenant_id].request_walk(
            tenant_id, vpn,
            lambda req: self._walk_done(sm_id, tenant_id, vpn, req),
        ),
    )


def _gpu_count_instructions(self, tenant_id, count):
    context = self.tenants[tenant_id]
    context.instructions += count
    self.sim.stats.counter(f"gpu.instructions.tenant{tenant_id}").inc(count)


def _sm_after_issue(self, warp, op):
    if not op.addrs:
        self._advance_warp(warp)
        return
    if self._outstanding >= self.config.max_outstanding_mem:
        self._mem_wait.append((warp, op))
        return
    self._issue_mem(warp, op)


def _layout_level_widths(self) -> Tuple[int, ...]:
    widths: List[int] = []
    remaining = self.vpn_bits
    for _ in range(self.depth - 1):
        widths.append(LEVEL_BITS)
        remaining -= LEVEL_BITS
    if remaining <= 0:
        raise ValueError("page size leaves no bits for the root level")
    widths.append(remaining)
    return tuple(reversed(widths))


def _layout_level_index(self, vpn, level):
    widths = self.level_widths
    shift = sum(widths[level + 1:])
    return (vpn >> shift) & ((1 << widths[level]) - 1)


def _layout_prefix(self, vpn, levels):
    if not 0 <= levels <= self.depth:
        raise ValueError(f"prefix depth {levels} out of range")
    widths = self.level_widths
    shift = sum(widths[levels:])
    return vpn >> shift


_PATCHES = [
    (Walker, "__init__", _walker_init),
    (Walker, "busy", property(_walker_busy)),
    (Walker, "start", _walker_start),
    (Walker, "_finish", _walker_finish),
    (Walker, "_issue_level", _walker_issue_level),
    (PageTable, "walk_addresses", _pt_walk_addresses),
    (PageWalkCache, "probe", _pwc_probe),
    (PageWalkCache, "fill", _pwc_fill),
    (PageWalkSubsystem, "__init__", _pws_init),
    (PageWalkSubsystem, "request_walk", _pws_request_walk),
    (PageWalkSubsystem, "_other_starts_on", _pws_other_starts_on),
    (PageWalkSubsystem, "_dispatch_idle_walkers", _pws_dispatch_idle_walkers),
    (TenantWalkerMap, "owned_walkers", _twm_owned_walkers),
    (PartitionedWalkPolicy, "on_arrival", _policy_on_arrival),
    (PartitionedWalkPolicy, "_dequeue_for_tenant", _policy_dequeue_for_tenant),
    (PartitionedWalkPolicy, "queued_for", _policy_queued_for),
    (PartitionedWalkPolicy, "pending_total", _policy_pending_total),
    (PartitionedWalkPolicy, "_pop_queue", _policy_pop_queue),
    (PageWalkSubsystem, "note_service_start", _pws_note_service_start),
    (PageWalkSubsystem, "note_completion", _pws_note_completion),
    (PageWalkSubsystem, "_update_busy", _pws_update_busy),
    (Cache, "_bank_of", _cache_bank_of),
    (Cache, "_bank_latency", _cache_bank_latency),
    (Cache, "access", _cache_access),
    (Cache, "_drain_overflow", _cache_drain_overflow),
    (Dram, "access", _dram_access),
    (Tlb, "_set_for", _tlb_set_for),
    (Tlb, "lookup", _tlb_lookup),
    (Tlb, "insert", _tlb_insert),
    (Tlb, "_adjust_residency", _tlb_adjust_residency),
    (Gpu, "access_memory", _gpu_access_memory),
    (Gpu, "_translate", _gpu_translate),
    (Gpu, "_l2_tlb_lookup", _gpu_l2_tlb_lookup),
    (Gpu, "count_instructions", _gpu_count_instructions),
    (Sm, "_after_issue", _sm_after_issue),
    (AddressLayout, "level_widths", property(_layout_level_widths)),
    (AddressLayout, "level_index", _layout_level_index),
    (AddressLayout, "prefix", _layout_prefix),
    (manager_module, "Simulator", SeedSimulator),
]


_ABSENT = object()  # e.g. Walker.busy: an instance attribute, no class slot


@contextmanager
def seed_engine():
    """Swap the seed implementations in; restore the optimised ones after.

    Only objects *constructed inside* the context run seed code end to
    end (construction caches nothing seed methods would miss, but the
    benchmark builds a fresh manager per run anyway).
    """
    saved = [(target, name, target.__dict__.get(name, _ABSENT))
             for target, name, _ in _PATCHES]
    try:
        for target, name, replacement in _PATCHES:
            setattr(target, name, replacement)
        yield
    finally:
        for target, name, original in saved:
            if original is _ABSENT:
                delattr(target, name)
            else:
                setattr(target, name, original)
