"""Forward-progress watchdog: livelock and starvation detection.

A wedged simulation — a reservation cycle that never dispatches, a
callback chain that re-schedules itself forever, a tenant whose walks
sit queued while its walker share stays pinned at zero — does not
crash; it spins until the event budget burns out, hours later, with no
diagnosis.  The watchdog converts that into a prompt, typed
:class:`~repro.integrity.errors.ProgressStall`.

Progress is measured in *events fired*, not cycles: a livelocked
simulation happily advances its clock on heartbeat events, but a
healthy one must complete walks and retire instructions.  Two
detectors run over the same snapshots:

* **global livelock** — pending work exists (in-flight walks or active
  warps) yet no walk completed, no instruction retired and no warp
  finished anywhere for ``window`` events;
* **per-tenant starvation** — one tenant has walks in flight, zero
  walkers serving it and zero completions for ``window`` events while
  the rest of the machine moves.  This is exactly the failure mode a
  broken DWS reservation would produce.

Snapshots are taken every ``window // 4`` events (at least every
1024), so a stall is raised within 1.25 windows of beginning.  The
watchdog only reads counters that already exist — it never creates
stats — preserving byte-identical output.

Sharded runs (``REPRO_SHARDS > 1``) need no special handling here, by
construction: installing the per-event hook makes the
:class:`~repro.engine.parallel_sim.ParallelSimulator` conductor disable
windows and fire every event as a globally ordered serial step, so
``events_seen`` counts events *across all shards* in one stream.  The
watchdog therefore cannot stall on an idle shard — there is no
per-shard event count to starve on, and the progress counters it reads
are the same shared registry the serial kernel writes.
"""

from __future__ import annotations

from typing import Dict

from repro.integrity.errors import ProgressStall


class ProgressWatchdog:
    """Raises :class:`ProgressStall` after ``window`` event of no progress."""

    def __init__(self, manager, window: int) -> None:
        if window < 1:
            raise ValueError("watchdog window must be positive")
        self.window = window
        self.check_every = max(1, min(window // 4, 1024))
        self.sim = manager.sim
        self.subsystems = manager.gpu.walk_subsystems()
        self.contexts = manager.gpu.tenants
        self.checks = 0
        self._global_mark = 0
        self._signature = None
        self._tenant_marks: Dict[int, int] = {}
        self._tenant_completed: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _completed_by_tenant(self) -> Dict[int, int]:
        done: Dict[int, int] = {}
        for pws in self.subsystems:
            stats = pws.sim.stats
            for t in pws.page_tables:
                counter = stats.get(f"{pws.name}.completed.tenant{t}")
                done[t] = done.get(t, 0) + (
                    counter.value if counter is not None else 0)
        return done

    def _inflight_by_tenant(self) -> Dict[int, int]:
        inflight: Dict[int, int] = {}
        for pws in self.subsystems:
            for t, count in pws.inflight_by_tenant().items():
                inflight[t] = inflight.get(t, 0) + count
        return inflight

    def _busy_by_tenant(self) -> Dict[int, int]:
        busy: Dict[int, int] = {}
        for pws in self.subsystems:
            for t in pws.page_tables:
                busy[t] = busy.get(t, 0) + pws.busy_for(t)
        return busy

    def _queue_depths(self) -> Dict[int, int]:
        depths: Dict[int, int] = {}
        for pws in self.subsystems:
            for t in pws.page_tables:
                depths[t] = (depths.get(t, 0) + pws.policy.pending_for(t)
                             + pws.held_for(t))
        return depths

    # ------------------------------------------------------------------
    # The check (driven by the integrity harness's per-event hook)
    # ------------------------------------------------------------------
    def check(self, events_seen: int) -> None:
        self.checks += 1
        completed = self._completed_by_tenant()
        inflight = self._inflight_by_tenant()
        active_warps = sum(c.active_warps for c in self.contexts.values())
        signature = (
            tuple(sorted(completed.items())),
            tuple((t, c.instructions, c.active_warps)
                  for t, c in sorted(self.contexts.items())),
        )
        if signature != self._signature or not (inflight or active_warps):
            # Something moved — or there is nothing pending, and an idle
            # simulation is not a stalled one.
            self._signature = signature
            self._global_mark = events_seen
        for t in set(completed) | set(inflight):
            previous = self._tenant_completed.get(t)
            if (previous is None or completed.get(t, 0) != previous
                    or not inflight.get(t, 0)):
                self._tenant_marks[t] = events_seen
            self._tenant_completed[t] = completed.get(t, 0)

        if events_seen - self._global_mark >= self.window:
            raise self._stall(
                "no walk completed, no instruction retired and no warp "
                f"finished for {self.window} events with work pending",
                stalled=sorted(t for t, n in inflight.items() if n),
                inflight=inflight, active_warps=active_warps)

        busy = self._busy_by_tenant()
        for t, mark in self._tenant_marks.items():
            if (inflight.get(t, 0) and not busy.get(t, 0)
                    and events_seen - mark >= self.window):
                raise self._stall(
                    f"tenant {t} has {inflight[t]} walks in flight but "
                    f"zero walkers serving it and zero completions for "
                    f"{self.window} events (starvation)",
                    stalled=[t], inflight=inflight,
                    active_warps=active_warps, tenant_id=t)

    def _stall(self, message: str, stalled, inflight: Dict[int, int],
               active_warps: int, tenant_id=None) -> ProgressStall:
        return ProgressStall(
            message,
            stalled_tenants=stalled,
            queue_depths=self._queue_depths(),
            busy_walkers=self._busy_by_tenant(),
            window=self.window,
            inflight_walks=sum(inflight.values()),
            active_warps=active_warps,
            sim_time=self.sim.now,
            tenant_id=tenant_id,
        )
