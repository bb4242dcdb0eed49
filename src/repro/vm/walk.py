"""Walk requests and the walker-scheduling policy protocol.

A :class:`WalkRequest` represents one outstanding page table walk from
the moment an L2 TLB miss reaches the page walk subsystem until its
translation is returned.  Requests carry the bookkeeping the paper's
metrics need: enqueue/service/completion timestamps, the id of the walker
that served them, and whether they were *stolen* (served by a walker
owned by a different tenant).

:class:`WalkSchedulingPolicy` is the seam between the mechanism
(:mod:`repro.vm.subsystem`) and the paper's contribution
(:mod:`repro.core`): the subsystem owns walkers and timing; the policy
owns the queues and decides which request a free walker services next.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Sequence

_walk_ids = itertools.count()


class WalkRequest:
    """One page table walk, from L2-TLB miss to translation return."""

    __slots__ = (
        "id",
        "tenant_id",
        "vpn",
        "enqueue_time",
        "service_start",
        "completion_time",
        "walker_id",
        "stolen",
        "memory_accesses",
        "callbacks",
        "_other_service_snapshot",
        "_candidate_walkers",
    )

    def __init__(self, tenant_id: int, vpn: int, enqueue_time: int) -> None:
        self.id = next(_walk_ids)
        self.tenant_id = tenant_id
        self.vpn = vpn
        self.enqueue_time = enqueue_time
        self.service_start: Optional[int] = None
        self.completion_time: Optional[int] = None
        self.walker_id: Optional[int] = None
        self.stolen = False
        self.memory_accesses = 0
        # L2-TLB-MSHR-style merging: every coalesced requester gets its
        # callback when the single walk completes.
        self.callbacks: List[Callable[["WalkRequest"], None]] = []
        self._other_service_snapshot = 0
        self._candidate_walkers: tuple = ()

    @property
    def queueing_latency(self) -> int:
        if self.service_start is None:
            raise ValueError("walk not yet serviced")
        return self.service_start - self.enqueue_time

    @property
    def total_latency(self) -> int:
        if self.completion_time is None:
            raise ValueError("walk not yet complete")
        return self.completion_time - self.enqueue_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Walk#{self.id} tenant={self.tenant_id} vpn={self.vpn:#x} "
            f"enq={self.enqueue_time} stolen={self.stolen}>"
        )


class WalkSchedulingPolicy:
    """Protocol implemented by every walker-scheduling policy.

    The subsystem calls, in order of events:

    * :meth:`on_arrival` when a new walk request reaches the subsystem —
      the policy queues it (returning ``True``) or refuses it because its
      queue space is exhausted (``False``; the subsystem then holds it in
      its tenant's FIFO and retries on the next completion).  A refusal
      must have no side effects, and an acceptance must never free
      queue space for any tenant: the subsystem's replay stops offering
      a tenant's held walks at that tenant's first refusal.
    * :meth:`select` when walker ``walker_id`` is free — the policy
      dequeues and returns the request that walker should service next,
      or ``None`` if it must idle.
    * :meth:`on_complete` when a walk finishes, before ``select`` is
      called again for that walker.
    """

    #: number of walkers the policy was built for
    num_walkers: int = 0

    def attach(self, subsystem) -> None:
        """Called once by the subsystem after construction."""

    def on_arrival(self, request: WalkRequest) -> bool:
        raise NotImplementedError

    def select(self, walker_id: int) -> Optional[WalkRequest]:
        raise NotImplementedError

    def on_complete(self, walker_id: int, request: WalkRequest) -> None:
        raise NotImplementedError

    def pending_for(self, tenant_id: int) -> int:
        """Number of queued (not yet serviced) walks for a tenant."""
        raise NotImplementedError

    def pending_total(self) -> int:
        raise NotImplementedError

    def candidate_walkers(self, tenant_id: int) -> Sequence[int]:
        """Walkers whose capacity a tenant's queued walk is entitled to.

        This scopes the interleaving metric: a walk "waits for" exactly
        the other-tenant walks serviced on these walkers while it is
        queued.  A shared queue exposes every walker; partitioned
        policies expose the tenant's owned walkers.
        """
        return range(self.num_walkers)

    def on_tenant_set_changed(self, tenant_ids: Sequence[int]) -> None:
        """Re-partition for a new tenant set (Section VI-C); optional."""
