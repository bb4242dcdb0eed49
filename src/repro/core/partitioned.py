"""Shared mechanics of all partitioned-queue policies (Static, DWS, DWS++).

Section VI-A: the monolithic page walk queue is split equally into
per-walker queues (total entries unchanged), walkers are partitioned
among tenants, and the FWA/TWM/WTM structures track free slots, ownership
and pending counts.  What differs between Static, DWS and DWS++ is only
*when a free walker may take a walk that is not its owner's* — subclasses
express exactly that decision.

Arrival routing (Section VI-B): a new walk indexes the TWM with its
tenant id, finds the owned walkers, and joins the queue of the owned
walker with the most free slots (the least loaded).  If every owned queue
is full the arrival is refused and the subsystem holds it upstream —
per-tenant back-pressure, exactly what a partitioned design produces.

Completion (Section VI-B): a walker first serves its own queue; if empty
it serves the queue of a sibling walker owned by the same tenant; if the
owner has nothing queued the subclass decides whether to steal.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from repro.core.structures import (
    FreeWalkerArray,
    TenantWalkerMap,
    WalkerTenantMap,
    partition_walkers,
)
from repro.vm.walk import WalkRequest, WalkSchedulingPolicy


class PartitionedWalkPolicy(WalkSchedulingPolicy):
    """Base class: per-walker queues + walker ownership + FWA/TWM/WTM."""

    def __init__(
        self,
        num_walkers: int,
        queue_entries: int,
        tenant_ids: Sequence[int],
        max_tenants: int = 8,
    ) -> None:
        if num_walkers <= 0:
            raise ValueError("need at least one walker")
        self.num_walkers = num_walkers
        self.queue_entries = queue_entries
        self.per_walker_queue = max(1, queue_entries // num_walkers)
        self.max_tenants = max_tenants
        self.fwa = FreeWalkerArray(num_walkers, self.per_walker_queue)
        self.twm = TenantWalkerMap(max_tenants, num_walkers, queue_entries)
        self.wtm = WalkerTenantMap(num_walkers, max_tenants)
        self._queues: List[Deque[WalkRequest]] = [deque() for _ in range(num_walkers)]
        #: running total of len(q) over ``_queues``, so pending_total()
        #: is O(1) on the per-walk paths that poll it
        self._pending = 0
        self._tenants: List[int] = []
        if tenant_ids:
            self.on_tenant_set_changed(tenant_ids)

    # ------------------------------------------------------------------
    # (Re)partitioning — also handles dynamic tenant arrival/departure
    # ------------------------------------------------------------------
    def on_tenant_set_changed(self, tenant_ids: Sequence[int]) -> None:
        """Recompute the walker partition for the new tenant set.

        Walk requests already queued stay in their queues; walkers simply
        observe the updated TWM/WTM from now on (Section VI-C: "there
        will be no disruption in servicing page walks").
        """
        new_tenants = sorted(tenant_ids)
        if len(new_tenants) > self.max_tenants:
            raise ValueError(
                f"{len(new_tenants)} tenants exceeds design maximum "
                f"{self.max_tenants}"
            )
        for gone in set(self._tenants) - set(new_tenants):
            self.twm.clear_tenant(gone)
        self._tenants = new_tenants
        assignment = partition_walkers(self.num_walkers, new_tenants)
        for tenant, walkers in assignment.items():
            self.twm.set_owners(tenant, walkers)
            for w in walkers:
                self.wtm.set_owner(w, tenant)

    # ------------------------------------------------------------------
    # Arrival: route to the least-loaded owned walker
    # ------------------------------------------------------------------
    def on_arrival(self, request: WalkRequest) -> bool:
        tenant = request.tenant_id
        owned = self.twm.owned_walkers(tenant)
        if not owned:
            raise ValueError(f"tenant {tenant} owns no walkers; not registered?")
        # Most-free owned walker, ties to the lowest id: owned is
        # ascending, so a strict > keeps the first maximal entry —
        # identical to max(owned, key=lambda w: (free_slots(w), -w))
        # without the per-arrival lambda and tuple churn.
        free = self.fwa._free
        best, best_free = -1, -1
        for w in owned:
            slots = free[w]
            if slots > best_free:
                best, best_free = w, slots
        if best_free == 0:
            return False  # all owned queues full: per-tenant back-pressure
        self._queues[best].append(request)
        self._pending += 1
        self.fwa.consume_slot(best)
        self.twm.inc_pend(tenant)
        self._note_arrival(request)
        return True

    def _note_arrival(self, request: WalkRequest) -> None:
        """Hook for DWS++ epoch accounting."""

    # ------------------------------------------------------------------
    # Selection: own queue, then sibling queues, then maybe steal
    # ------------------------------------------------------------------
    def select(self, walker_id: int) -> Optional[WalkRequest]:
        owner = self.wtm.owner_of(walker_id)
        if self._allow_steal_despite_pending(walker_id, owner):
            stolen = self._steal(walker_id, owner)
            if stolen is not None:
                return stolen
        request = self._dequeue_for_tenant(owner)
        if request is not None:
            self.fwa.set_stolen(walker_id, False)
            return request
        # Owner has nothing queued anywhere: subclass decides on stealing.
        if self._allow_steal_when_owner_idle(walker_id, owner):
            return self._steal(walker_id, owner)
        return None

    def _dequeue_for_tenant(self, tenant_id: int) -> Optional[WalkRequest]:
        """Pop the head of the tenant's most-loaded owned queue.

        The walker's own queue is naturally preferred: it is among the
        owned queues and ties break toward lower occupancy differences,
        matching the paper's "looks up its walk queue ... otherwise
        consults the FWA entries of those walkers to select one with
        requests in its queue".
        """
        # Most-loaded owned queue, ties to the lowest walker id (owned
        # is ascending; strict > keeps the first maximal entry).
        queues = self._queues
        source, source_len = -1, 0
        for w in self.twm.owned_walkers(tenant_id):
            depth = len(queues[w])
            if depth > source_len:
                source, source_len = w, depth
        if source < 0:
            return None
        return self._pop_queue(source)

    def _pop_queue(self, walker_id: int) -> WalkRequest:
        request = self._queues[walker_id].popleft()
        self._pending -= 1
        self.fwa.release_slot(walker_id)
        return request

    # ------------------------------------------------------------------
    # Stealing — the subclasses' whole difference
    # ------------------------------------------------------------------
    def _allow_steal_when_owner_idle(self, walker_id: int, owner: int) -> bool:
        raise NotImplementedError

    def _allow_steal_despite_pending(self, walker_id: int, owner: int) -> bool:
        """DWS++ only; Static and DWS never steal past a pending owner walk."""
        return False

    def _steal(self, walker_id: int, owner: int) -> Optional[WalkRequest]:
        """Take the head of the most-pending other tenant's fullest queue."""
        victim = self._choose_victim(owner)
        if victim is None:
            return None
        request = self._dequeue_for_tenant(victim)
        if request is None:
            return None
        request.stolen = True
        self.fwa.set_stolen(walker_id, True)
        return request

    def _choose_victim(self, owner: int) -> Optional[int]:
        """The other tenant with the most queued walks (Section VI-C)."""
        best, best_queued = None, 0
        for tenant in self._tenants:
            if tenant == owner:
                continue
            queued = self.queued_for(tenant)
            if queued > best_queued:
                best, best_queued = tenant, queued
        return best

    # ------------------------------------------------------------------
    # Completion bookkeeping
    # ------------------------------------------------------------------
    def on_complete(self, walker_id: int, request: WalkRequest) -> None:
        # "In all cases, the PEND_WALKS counter corresponding to the
        # tenant whose walk just finished is decremented."
        self.twm.dec_pend(request.tenant_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def candidate_walkers(self, tenant_id: int):
        """A tenant's walks may only be delayed by its owned walkers."""
        return self.twm.owned_walkers(tenant_id)

    def queued_for(self, tenant_id: int) -> int:
        """Walks currently sitting in the tenant's owned queues.

        Note stolen-but-queued walks always sit in their own tenant's
        queues; stealing moves a walk at dequeue time only.
        """
        queues = self._queues
        total = 0
        for w in self.twm.owned_walkers(tenant_id):
            total += len(queues[w])
        return total

    def pending_for(self, tenant_id: int) -> int:
        return self.queued_for(tenant_id)

    def pending_total(self) -> int:
        return self._pending

    def queue_occupancy(self, walker_id: int) -> float:
        return len(self._queues[walker_id]) / self.per_walker_queue

    def state_bits(self) -> int:
        """Total added hardware state (paper Section VI-A)."""
        return self.fwa.state_bits() + self.twm.state_bits() + self.wtm.state_bits()

    def check_invariants(self) -> None:
        """Assert FWA/TWM counters mirror the ground-truth queues.

        Used by the policy tests and by the runtime integrity auditor
        (``repro.integrity``): FWA free-slot counts must mirror the
        per-walker queues, and each tenant's PEND_WALKS counter must be
        non-negative and cover at least its queued walks, in whichever
        queues they sit — after a repartition a tenant's walks can wait
        in queues another tenant now owns (pend also counts walks in
        dispatch or in service, so it may exceed the queue depth but
        never undercut it).  The running pending counter
        behind :meth:`pending_total` must equal the queued walks.
        """
        for w in range(self.num_walkers):
            expected_free = self.per_walker_queue - len(self._queues[w])
            if self.fwa.free_slots(w) != expected_free:
                raise AssertionError(
                    f"FWA[{w}]={self.fwa.free_slots(w)} != {expected_free}"
                )
        queued_by_tenant: Dict[int, int] = {}
        for q in self._queues:
            for request in q:
                t = request.tenant_id
                queued_by_tenant[t] = queued_by_tenant.get(t, 0) + 1
        queued_total = sum(queued_by_tenant.values())
        if self._pending != queued_total:
            raise AssertionError(f"pending counter {self._pending} != "
                                 f"queued walks {queued_total}")
        for tenant in self._tenants:
            pend = self.twm.pend_walks(tenant)
            queued = queued_by_tenant.get(tenant, 0)
            if pend < 0:
                raise AssertionError(
                    f"PEND_WALKS[{tenant}]={pend} is negative")
            if pend < queued:
                raise AssertionError(
                    f"PEND_WALKS[{tenant}]={pend} < queued walks {queued}")
