"""Runtime invariant auditor for the MMU core.

The auditor holds a registry of *probes* — cheap closures over live
simulator components that re-derive a conservation law or bounds
constraint from ground truth and return an error string when it does
not hold.  The registered invariants mirror the paper's accounting:

* **walk conservation** — per tenant, walks enqueued equals walks
  completed plus walks in flight (queued, overflowed or in service);
* **walker occupancy** — per-tenant busy counts are non-negative, sum
  to the number of busy walkers, and never exceed the pool; each
  walker's ``busy`` flag mirrors ``current``; a walker is never both
  busy and reserved for a pending dispatch;
* **soft-partition reservations** — under Static/DWS/DWS++ the FWA
  free-slot counters must mirror the per-walker queues and each
  tenant's PEND_WALKS counter must cover its queued walks
  (``PartitionedWalkPolicy.check_invariants``);
* **walk-path bookkeeping** — every interleave tally equals the
  per-walker sweep over its candidate set, and every held (refused)
  walk sits in its own tenant's FIFO in ascending id order;
* **PWC / TLB bounds** — resident entries never exceed capacity, and
  per-tenant TLB residency is non-negative and sums to the total;
* **monotonic time / counters** — ``sim.now`` never moves backwards,
  per-tenant instruction counts never decrease, active warp counts
  stay non-negative.

Sampling is driven from :class:`~repro.integrity.harness
.IntegrityHarness`'s per-event hook: every ``interval`` events in
``cheap`` mode, every event in ``full`` mode.  ``full`` additionally
re-checks a subsystem's probes on each walk service start/completion
(the subsystem's ``auditor`` attribute), catching a violation at the
transition that introduced it rather than events later.

The auditor only *reads* component state and raises
:class:`~repro.integrity.errors.InvariantViolation`; it never creates
stats or schedules events, which is what keeps audited runs
byte-identical to unaudited ones (a differential test asserts this).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.integrity.config import AUDIT_CHEAP, AUDIT_FULL, IntegrityConfig
from repro.integrity.errors import InvariantViolation

#: A probe re-derives one invariant; None means it holds.
Probe = Callable[[], Optional[str]]


class Auditor:
    """Registry of invariant probes with off/cheap/full sampling."""

    def __init__(self, level: str = AUDIT_CHEAP, interval: int = 2048) -> None:
        self.level = level
        self.interval = 1 if level == AUDIT_FULL else max(1, interval)
        self._probes: List[Tuple[str, Probe]] = []
        self._by_component: Dict[int, List[Tuple[str, Probe]]] = {}
        self._sim = None
        #: total probe evaluations / full sweeps, for tests and reports
        self.checks_run = 0
        self.sweeps = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, probe: Probe, component=None) -> None:
        """Add ``probe`` under ``name``; ``component`` (any object)
        additionally enrolls it for per-transition checks in full mode."""
        self._probes.append((name, probe))
        if component is not None:
            self._by_component.setdefault(id(component), []).append(
                (name, probe))

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _run(self, probes: List[Tuple[str, Probe]]) -> None:
        sim_time = self._sim.now if self._sim is not None else None
        for name, probe in probes:
            self.checks_run += 1
            message = probe()
            if message is not None:
                raise InvariantViolation(f"{name}: {message}", probe=name,
                                         sim_time=sim_time)

    def sweep(self) -> None:
        """Evaluate every registered probe; raise on the first failure."""
        self.sweeps += 1
        self._run(self._probes)

    def check_component(self, component) -> None:
        """Evaluate only ``component``'s probes (full-mode transitions)."""
        probes = self._by_component.get(id(component))
        if probes:
            self._run(probes)


# ----------------------------------------------------------------------
# Probe construction over a live MultiTenantManager
# ----------------------------------------------------------------------
def _subsystem_probes(auditor: Auditor, pws) -> None:
    stats = pws.sim.stats
    name = pws.name

    def walk_accounting() -> Optional[str]:
        inflight = pws.inflight_by_tenant()
        tenants = set(pws.page_tables) | set(inflight)
        for t in sorted(tenants):
            walks_c = stats.get(f"{name}.walks.tenant{t}")
            completed_c = stats.get(f"{name}.completed.tenant{t}")
            walks = walks_c.value if walks_c is not None else 0
            completed = completed_c.value if completed_c is not None else 0
            in_flight = inflight.get(t, 0)
            if walks != completed + in_flight:
                return (f"tenant {t}: {walks} walks enqueued != "
                        f"{completed} completed + {in_flight} in flight")
        return None

    def occupancy() -> Optional[str]:
        busy_flags = 0
        for walker in pws.walkers:
            if walker.busy != (walker.current is not None):
                return (f"walker {walker.id}: busy flag "
                        f"{walker.busy} does not mirror current request")
            if walker.busy and walker.reserved:
                return f"walker {walker.id} is both busy and reserved"
            if walker.busy:
                busy_flags += 1
        total = 0
        for t, level in pws._busy_by_tenant.items():
            if level < 0:
                return f"tenant {t} busy-walker count is negative ({level})"
            total += level
        if total != busy_flags:
            return (f"per-tenant busy counts sum to {total} but "
                    f"{busy_flags} walkers are busy")
        if busy_flags > len(pws.walkers):
            return (f"{busy_flags} busy walkers exceed pool size "
                    f"{len(pws.walkers)}")
        return None

    def policy_invariants() -> Optional[str]:
        check = getattr(pws.policy, "check_invariants", None)
        if check is not None:
            try:
                check()
            except AssertionError as exc:
                return str(exc)
        if pws.policy.pending_total() < 0:  # pragma: no cover - paranoid
            return "policy pending_total is negative"
        return None

    def interleave_tallies() -> Optional[str]:
        for walkers, tally in pws._tallies.items():
            total = 0
            by_tenant: Dict[int, int] = {}
            for w in walkers:
                total += pws._starts_total[w]
                for t, n in pws._starts_by_tenant[w].items():
                    by_tenant[t] = by_tenant.get(t, 0) + n
            if tally != [total, by_tenant]:
                return (f"interleave tally {walkers} is {tally}, the "
                        f"per-walker sweep gives {[total, by_tenant]}")
        return None

    def held_queues() -> Optional[str]:
        for t, held in pws._held.items():
            previous = -1
            for request in held:
                if request.tenant_id != t:
                    return (f"held queue of tenant {t} holds walk "
                            f"#{request.id} of tenant {request.tenant_id}")
                if request.id <= previous:
                    return (f"held queue of tenant {t} is out of id order "
                            f"at walk #{request.id}")
                previous = request.id
        return None

    def pwc_bounds() -> Optional[str]:
        resident = len(pws.pwc)
        if resident > pws.pwc.entries:
            return (f"PWC holds {resident} entries, capacity "
                    f"{pws.pwc.entries}")
        return None

    auditor.register(f"{name}.walk_accounting", walk_accounting,
                     component=pws)
    auditor.register(f"{name}.occupancy", occupancy, component=pws)
    auditor.register(f"{name}.policy", policy_invariants, component=pws)
    auditor.register(f"{name}.interleave", interleave_tallies,
                     component=pws)
    auditor.register(f"{name}.held", held_queues, component=pws)
    auditor.register(f"{name}.pwc", pwc_bounds, component=pws)


def _tlb_probes(auditor: Auditor, tlb) -> None:
    def residency() -> Optional[str]:
        by_tenant = tlb.residency_by_tenant()
        total = tlb.resident_total()
        acc = 0
        for t, count in by_tenant.items():
            if count < 0:
                return f"tenant {t} resident count is negative ({count})"
            acc += count
        if acc != total:
            return (f"per-tenant residency sums to {acc} but "
                    f"{total} entries are resident")
        if total > tlb.config.entries:
            return (f"{total} resident entries exceed capacity "
                    f"{tlb.config.entries}")
        return None

    auditor.register(f"{tlb.name}.residency", residency, component=tlb)


def _simulator_probes(auditor: Auditor, sim) -> None:
    last = [sim.now]

    def monotonic_time() -> Optional[str]:
        if sim.now < last[0]:
            return f"sim time moved backwards: {sim.now} < {last[0]}"
        last[0] = sim.now
        return None

    auditor.register("sim.monotonic_time", monotonic_time, component=sim)


def _tenancy_probes(auditor: Auditor, manager) -> None:
    floors: Dict[int, int] = {}

    def tenant_accounting() -> Optional[str]:
        for tid, context in manager.gpu.tenants.items():
            if context.active_warps < 0:
                return (f"tenant {tid} active warp count is negative "
                        f"({context.active_warps})")
            floor = floors.get(tid, 0)
            if context.instructions < floor:
                return (f"tenant {tid} instruction count decreased: "
                        f"{context.instructions} < {floor}")
            floors[tid] = context.instructions
        return None

    auditor.register("tenancy.accounting", tenant_accounting,
                     component=manager)


def build_auditor(manager, config: IntegrityConfig) -> Auditor:
    """Wire an :class:`Auditor` over every component of ``manager``."""
    auditor = Auditor(level=config.audit, interval=config.audit_interval)
    auditor._sim = manager.sim
    _simulator_probes(auditor, manager.sim)
    gpu = manager.gpu
    for pws in gpu.walk_subsystems():
        _subsystem_probes(auditor, pws)
    for tlb in gpu.l1_tlbs:
        _tlb_probes(auditor, tlb)
    for tlb in gpu.l2_tlbs():
        _tlb_probes(auditor, tlb)
    _tenancy_probes(auditor, manager)
    return auditor
