"""Shard-side machinery for the parallel engine (DESIGN.md §13).

A shard owns a contiguous block of SMs and everything private to them:
the SMs' warp schedulers, their L1 TLBs and L1 data caches, the per-SM
translation MSHRs and the per-SM event streams.  Inside a conservative
time window a shard advances alone; every touch of shared (boundary)
state — the page tables and frame allocator, the L2 TLB, the walker
pool, the NoC/L2/DRAM — is *parked* as a keyed intent and replayed in
exact serial order by the conductor (:mod:`repro.engine.parallel_sim`).

Determinism rests on :class:`OrderKey`: every scheduled entry carries a
small linked node recording *when it was pushed* — (fire time, intra-
execution push index, parent execution's key).  Comparing two keys
reproduces the serial engine's ``(time, seq)`` FIFO order without a
global sequence counter, which no shard could mint concurrently: ties
on fire time resolve by the push moment, recursively, bottoming out at
the pre-run launch phase.  A parked intent reuses its execution's own
key (plus a per-shard park sequence for intra-execution ties), which
places the replayed mutation exactly where the serial engine performed
it: immediately after that execution, before any later same-cycle event.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.event import Event
from repro.mem.cache import _noop as _writeback_noop

# Intent codes (kept as ints: intents are parked on the datapath hot path).
ENSURE = 0     # page_table.ensure_mapped(vpn) — the deferred half of a miss
LOOKUP = 1     # ensure_mapped + schedule gpu._l2_tlb_lookup (L1 TLB miss)
NOC = 2        # replay interconnect.access(...) (L1 data miss / writeback)
WARP_DONE = 3  # replay gpu.note_warp_done (processes backend only; the
               # in-process backends batch these as per-shard deltas)


class OrderKey:
    """Linked scheduling-order node: fire time, push index, parent key.

    ``a < b`` iff entry ``a`` fires before ``b`` in the serial engine.
    Earlier fire time wins; at equal times the FIFO push order decides,
    which is the firing order of the pushing executions (recurse on the
    parents) or, within one execution, the intra-push index.  A ``None``
    parent marks a pre-run launch push, which precedes every push made
    from inside an event at the same fire time.  The walk only recurses
    along same-time ancestor chains, which the simulator keeps short
    (components never schedule at +0 outside the launch path).
    """

    __slots__ = ("t", "i", "p")

    def __init__(self, t: int, i: int, p: "Optional[OrderKey]") -> None:
        self.t = t
        self.i = i
        self.p = p

    def __lt__(self, other: "OrderKey") -> bool:
        a, b = self, other
        while a is not b:
            if a.t != b.t:
                return a.t < b.t
            pa, pb = a.p, b.p
            if pa is pb:
                return a.i < b.i
            if pa is None:
                return True
            if pb is None:
                return False
            a, b = pa, pb
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        depth = 0
        node = self
        while node.p is not None:
            node = node.p
            depth += 1
        return f"<OrderKey t={self.t} i={self.i} depth={depth}>"


class Ctx:
    """The current execution context keys are minted from: the fired
    entry's key plus a running intra-execution push counter."""

    __slots__ = ("key", "i")

    def __init__(self, key: Optional[OrderKey], i: int = 0) -> None:
        self.key = key
        self.i = i


class KeyedQueue:
    """A ``(time, key, sub)``-ordered heap with the EventQueue surface.

    Heap entries are ``(time, OrderKey, sub, fn, args)`` tuples; ``sub``
    is 0 for ordinary pushes (keys are unique, so it never decides) and
    the park sequence for replayed intents, which reuse their
    execution's key.  Tuple comparison therefore reproduces the serial
    ``(time, seq)`` order exactly (see :class:`OrderKey`).

    One class serves both the conductor's boundary queue (which needs
    the full :class:`~repro.engine.event.EventQueue` surface — handles
    and cancellation) and the per-shard queues (which only ever see
    ``push_raw``).
    """

    __slots__ = ("heap", "ctx", "_live")

    def __init__(self) -> None:
        self.heap: List[tuple] = []
        self.ctx = Ctx(None)
        self._live = 0

    def __len__(self) -> int:
        return self._live

    # -- scheduling ----------------------------------------------------
    def push_raw(self, time: int, fn: Callable[..., Any],
                 args: Tuple[Any, ...]) -> None:
        ctx = self.ctx
        heappush(self.heap, (time, OrderKey(time, ctx.i, ctx.key), 0, fn, args))
        ctx.i += 1
        self._live += 1

    def push_keyed(self, time: int, key: OrderKey, sub: int,
                   fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        """Schedule with a pre-minted key (intent replay)."""
        heappush(self.heap, (time, key, sub, fn, args))
        self._live += 1

    def push_packed(self, time: int, fn: Callable[..., Any],
                    args: Tuple[Any, ...]) -> Event:
        """Handle-returning push (``Simulator.at``/``after``)."""
        ctx = self.ctx
        event = Event(time, 0, fn, args, None)
        heappush(self.heap,
                 (time, OrderKey(time, ctx.i, ctx.key), 0, _fire_event, (event,)))
        ctx.i += 1
        self._live += 1
        return event

    def push(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        return self.push_packed(time, fn, args)

    # -- extraction ----------------------------------------------------
    def front_time(self) -> int:
        """Earliest pending time, or -1 when empty."""
        heap = self.heap
        return heap[0][0] if heap else -1

    def front_key(self):
        """(time, key, sub) of the earliest entry, or None when empty."""
        heap = self.heap
        return heap[0][:3] if heap else None

    def take(self) -> Optional[tuple]:
        if not self.heap:
            return None
        self._live -= 1
        return heappop(self.heap)

    def peek_time(self) -> Optional[int]:
        return self.heap[0][0] if self.heap else None

    def pop(self) -> Optional[Event]:
        """EventQueue-compatible pop (used by ``Simulator.step``)."""
        entry = self.take()
        if entry is None:
            return None
        time, _key, _sub, fn, args = entry
        if fn is _fire_event:
            event = args[0]
            event.time = time
            return None if event.cancelled else event
        return Event(time, 0, fn, args)


def _fire_event(event: Event) -> None:
    """Trampoline honouring a held handle's ``cancel()``."""
    if not event.cancelled:
        event.fn(*event.args)


def stream_min_cycles(ops) -> int:
    """Lower bound on the cycles a warp needs to retire ``ops``.

    Each op reserves ``max(1, op.instructions)`` issue-port cycles
    before the warp can pull the next one (``Sm._advance_warp``), so a
    whole stream cannot complete faster than the sum of those bursts.
    Memory latency only adds to this, never subtracts.
    """
    total = 0
    for op in ops:
        c = op.compute + (1 if op.addrs else 0)
        total += c if c > 1 else 1
    return total


class CountingStream:
    """A materialized warp op stream that exposes its remaining cost.

    Materializing is bit-exact (each warp's pattern generator is the
    sole consumer of its named random stream — the :class:`TraceMemo`
    argument), and the suffix cost is what lets the conductor bound the
    earliest possible warp completion: the op pulled at cycle ``T``
    holds the issue port for ``max(1, instructions)`` cycles before the
    next pull (see :func:`stream_min_cycles`), so a warp whose unpulled
    suffix costs ``C`` cycles cannot finish before ``now + C``.  The
    bound is monotone along the event sequence — pulls advance the
    clock by at least the cost they remove from the suffix — so a
    cached value stays valid between recomputes.
    """

    __slots__ = ("ops", "idx", "done", "_cost_suffix")

    def __init__(self, stream) -> None:
        self.ops = stream if type(stream) is list else list(stream)
        self.idx = 0
        self.done = False
        self._cost_suffix = None

    def __iter__(self) -> "CountingStream":
        return self

    def __next__(self):
        i = self.idx
        if i >= len(self.ops):
            self.done = True
            raise StopIteration
        self.idx = i + 1
        return self.ops[i]

    @property
    def remaining(self) -> int:
        return len(self.ops) - self.idx

    def min_remaining_cycles(self) -> int:
        """Cycles before the earliest possible retirement of this warp
        (0 once every op has been pulled)."""
        suffix = self._cost_suffix
        if suffix is None:
            ops = self.ops
            suffix = [0] * (len(ops) + 1)
            acc = 0
            for j in range(len(ops) - 1, -1, -1):
                op = ops[j]
                c = op.compute + (1 if op.addrs else 0)
                acc += c if c > 1 else 1
                suffix[j] = acc
            self._cost_suffix = suffix
        return suffix[self.idx]


class ShardSim:
    """Per-shard simulator facade: own clock, own keyed queue, shared
    stats registry.  Shard-resident components (SMs, L1 caches, L1
    TLBs) are rebound to it at partition time, so their scheduling and
    ``now`` reads stay shard-local without any component code change."""

    __slots__ = ("engine", "shard_id", "now", "events", "stats",
                 "profiler", "audit_hook")

    def __init__(self, engine, shard_id: int) -> None:
        self.engine = engine
        self.shard_id = shard_id
        self.now = 0
        self.events = KeyedQueue()
        self.stats = engine.stats
        self.profiler = None
        self.audit_hook = None

    def post_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        self.events.push_raw(time, fn, args)

    def post_after(self, delay: int, fn: Callable[..., Any],
                   *args: Any) -> None:
        self.events.push_raw(self.now + delay, fn, args)


class Shard:
    """One shard: its SM ids, facade sim, parked intents and deltas."""

    __slots__ = ("engine", "shard_id", "sm_ids", "sim", "intents",
                 "park_seq", "cap", "instr_delta", "warp_done_delta",
                 "events_fired", "work_ns")

    def __init__(self, engine, shard_id: int, sm_ids: List[int]) -> None:
        self.engine = engine
        self.shard_id = shard_id
        self.sm_ids = sm_ids
        self.sim = ShardSim(engine, shard_id)
        #: parked boundary intents: (t, exec_key, seq, code, payload)
        self.intents: List[tuple] = []
        self.park_seq = 1
        #: absolute cycle this shard must not reach in the current
        #: window (earliest possible boundary *response* to its own
        #: outstanding intents); +inf when it has none.
        self.cap = float("inf")
        self.instr_delta: Dict[int, int] = {}
        self.warp_done_delta: Dict[int, int] = {}
        self.events_fired = 0
        self.work_ns = 0

    # -- parking (window mode only) ------------------------------------
    def park(self, code: int, payload: tuple, cap: float) -> None:
        sim = self.sim
        ctx = sim.events.ctx
        self.intents.append((sim.now, ctx.key, self.park_seq, code, payload))
        self.park_seq += 1
        if cap < self.cap:
            self.cap = cap


class ShardGpuPort:
    """The per-shard GPU datapath proxy installed as ``sm.gpu``.

    Outside a window it passes straight through to the real
    :class:`~repro.gpu.gpu.Gpu` (serial steps are exact-order, so the
    serial code runs unchanged).  Inside a window it mirrors the
    ``access_memory`` path — shard-local side effects applied
    immediately and in order (L1 TLB probe counters and LRU, per-SM
    translation MSHRs/overflow, stall counters), boundary side effects
    parked:

    * the L1 TLB **hit** path skips ``ensure_mapped`` outright — a hit
      proves the page is already mapped, so the call is a no-op and the
      page-table read in ``translate`` is safe against the frozen
      boundary;
    * an L1 TLB **miss** parks ``ensure_mapped`` plus the scheduling of
      ``_l2_tlb_lookup`` as one keyed intent (the entry's key is minted
      here, so it lands in the boundary queue exactly where the serial
      engine would have pushed it);
    * ``count_instructions`` and non-final ``note_warp_done`` become
      per-shard deltas, summed at the barrier — safe because the window
      horizon provably precedes any zero-crossing of a tenant's active
      warp count (see the completion floor in parallel_sim).
    """

    __slots__ = ("gpu", "engine", "shard")

    def __init__(self, gpu, engine, shard: Shard) -> None:
        self.gpu = gpu
        self.engine = engine
        self.shard = shard

    def __getattr__(self, name):
        return getattr(self.gpu, name)

    # -- datapath ------------------------------------------------------
    def access_memory(self, sm_id: int, tenant_id: int, vaddr: int,
                      is_write: bool, on_done: Callable[[], None]) -> None:
        gpu = self.gpu
        if not self.engine.in_window:
            gpu.access_memory(sm_id, tenant_id, vaddr, is_write, on_done)
            return
        vpn = vaddr >> gpu._page_bits
        offset = vaddr & gpu._page_mask
        tlat = gpu.l1_tlbs[sm_id].probe_fast(tenant_id, vpn)
        if tlat >= 0:
            page_table = gpu.tenants[tenant_id].page_table
            paddr = page_table.translate(vpn) * gpu._frame_bytes + offset
            sim = self.shard.sim
            sim.events.push_raw(
                sim.now + tlat, gpu.memory.data_access,
                (sm_id, paddr, is_write, on_done, tenant_id),
            )
            return
        frame_bytes = gpu._frame_bytes
        memory = gpu.memory

        def translated(frame: int) -> None:
            paddr = frame * frame_bytes + offset
            memory.data_access(sm_id, paddr, is_write, on_done, tenant_id)

        self._translate_miss(sm_id, tenant_id, vpn, translated)

    def access_burst(self, sm_id: int, tenant_id: int, accesses,
                     is_write: bool, on_done: Callable[[], None]) -> None:
        access = self.access_memory
        for _page, addr in accesses:
            access(sm_id, tenant_id, addr, is_write, on_done)

    def _translate_miss(self, sm_id: int, tenant_id: int, vpn: int,
                        on_translated: Callable[[int], None]) -> None:
        # Window-mode mirror of Gpu._translate_miss: MSHR state is
        # shard-local and mutates now; the boundary half (ensure_mapped,
        # the L2 lookup scheduling) parks.  The serial engine calls
        # ensure_mapped before every access, but on the merge path the
        # leading miss's (earlier-keyed) intent already covers the page,
        # so only new-MSHR and overflow entries park one.
        gpu = self.gpu
        shard = self.shard
        mshrs = gpu._xlat_mshrs[sm_id]
        key = (tenant_id, vpn)
        if key in mshrs:
            mshrs[key].append(on_translated)
            return
        if len(mshrs) >= gpu._mshr_entries:
            gpu._xlat_overflow[sm_id].append((tenant_id, vpn, on_translated))
            gpu._mshr_stall_c[sm_id].value += 1
            shard.park(ENSURE, (tenant_id, vpn), float("inf"))
            return
        mshrs[key] = [on_translated]
        sim = shard.sim
        sched = sim.now + gpu._l1_miss_step
        # Consume this execution's next intra-push index exactly where
        # the serial engine would push _l2_tlb_lookup.
        ctx = sim.events.ctx
        minted = OrderKey(sched, ctx.i, ctx.key)
        ctx.i += 1
        shard.park(LOOKUP, (tenant_id, vpn, sm_id, sched, minted),
                   sched + self.engine._xlat_response_min)

    # -- accounting ----------------------------------------------------
    def count_instructions(self, tenant_id: int, count: int) -> None:
        if not self.engine.in_window:
            self.gpu.count_instructions(tenant_id, count)
            return
        delta = self.shard.instr_delta
        delta[tenant_id] = delta.get(tenant_id, 0) + count

    def note_warp_done(self, sm_id: int, warp) -> None:
        if not self.engine.in_window:
            self.gpu.note_warp_done(sm_id, warp)
            return
        delta = self.shard.warp_done_delta
        delta[warp.tenant_id] = delta.get(warp.tenant_id, 0) + 1


class ProcShardGpuPort(ShardGpuPort):
    """The GPU port as seen from inside a forked shard worker.

    A worker's replica of the boundary (page tables, frame allocator,
    L2 TLB, walkers, NoC/L2/DRAM) is frozen at fork — the parent owns
    the live copies — so the two paths that read the page table in the
    in-process window proxy must change:

    * the L1 TLB hit path takes the frame from the TLB entry itself
      (:meth:`~repro.vm.tlb.Tlb.probe_fast_frame`) — equal to the page
      table's mapping by construction, since fills carry the frame the
      parent translated;
    * ``note_warp_done`` parks as a ``WARP_DONE`` intent instead of a
      delta: the conductor replays it at its exact serial position with
      the execution context restored, so a tenant-completion relaunch
      mints byte-identical keys.

    Installed by flipping the port instance's ``__class__`` in the
    worker right after fork (``__slots__ = ()`` keeps the layouts
    identical); the parent's copy keeps the in-process behaviour.
    """

    __slots__ = ()

    def access_memory(self, sm_id: int, tenant_id: int, vaddr: int,
                      is_write: bool, on_done: Callable[[], None]) -> None:
        gpu = self.gpu
        vpn = vaddr >> gpu._page_bits
        offset = vaddr & gpu._page_mask
        tlb = gpu.l1_tlbs[sm_id]
        frame = tlb.probe_fast_frame(tenant_id, vpn)
        if frame is not None:
            paddr = frame * gpu._frame_bytes + offset
            sim = self.shard.sim
            sim.events.push_raw(
                sim.now + tlb._hit_latency, gpu.memory.data_access,
                (sm_id, paddr, is_write, on_done, tenant_id),
            )
            return
        frame_bytes = gpu._frame_bytes
        memory = gpu.memory

        def translated(frame: int) -> None:
            paddr = frame * frame_bytes + offset
            memory.data_access(sm_id, paddr, is_write, on_done, tenant_id)

        self._translate_miss(sm_id, tenant_id, vpn, translated)

    def note_warp_done(self, sm_id: int, warp) -> None:
        # Tail call of Sm._advance_warp: the SM already decremented its
        # own active_warps; the tenant-level decrement (and a possible
        # completion callback) is boundary work.  The ctx.i snapshot
        # lets the conductor resume the execution's minting context so
        # relaunch pushes get their serial keys.
        shard = self.shard
        ctx = shard.sim.events.ctx
        shard.park(WARP_DONE, (warp.tenant_id, ctx.i), float("inf"))


class ShardNocPort:
    """Boundary trap installed as an L1 cache's ``lower`` port.

    The L1 schedules ``lower.access`` as an event in its (shard) queue;
    when that event fires inside a window the whole interconnect call —
    transfer counters, port occupancy arithmetic, and the push of the
    L2 access — is boundary work, so it parks as one intent carrying
    the event's own key and the shard ctx snapshot.  Replaying it runs
    the *real* ``Interconnect.access`` with the boundary clock set to
    the event's time and the minting context restored, so the L2 access
    entry gets byte-for-byte the key the serial engine would have
    produced.  Fire-and-forget writebacks take the same path (they park
    without tightening the shard cap: nothing ever comes back).
    """

    __slots__ = ("noc", "engine", "shard")

    def __init__(self, noc, engine, shard: Shard) -> None:
        self.noc = noc
        self.engine = engine
        self.shard = shard

    def access(self, addr: int, is_write: bool, on_done: Callable[[], None],
               tenant_id: int = 0) -> None:
        if not self.engine.in_window:
            self.noc.access(addr, is_write, on_done, tenant_id)
            return
        shard = self.shard
        sim = shard.sim
        ctx = sim.events.ctx
        payload = (ctx.key, ctx.i, addr, is_write, on_done, tenant_id)
        ctx.i += 1  # the serial interconnect pushes exactly once
        if on_done is _writeback_noop:
            cap = float("inf")  # fire-and-forget: nothing ever comes back
        else:
            cap = sim.now + self.engine._data_response_min
        shard.park(NOC, payload, cap)
