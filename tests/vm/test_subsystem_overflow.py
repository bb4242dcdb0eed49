"""Tests for the subsystem's held-walk replay under every policy.

Arrivals the policy refuses for lack of queue space are held in one FIFO
per tenant.  A completion replays them as a merge of the tenant heads in
request-id order, and a tenant leaves the merge at its first refusal.
Under partitioned queues one tenant's full queues must not block another
tenant's held walks, and FIFO order holds within a tenant.

The differential tests pin the replay, and the per-candidate-set
interleave tallies, to an in-test copy of the previous mechanism: one
flat buffer re-offered in full on every completion, and interleave
snapshots swept walker by walker.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dws import DwsPolicy
from repro.core.dwspp import DwsPlusParams, DwsPlusPolicy
from repro.core.shared import SharedQueuePolicy
from repro.core.static_partition import StaticPartitionPolicy
from repro.engine.simulator import Simulator
from repro.integrity.auditor import Auditor, _subsystem_probes
from repro.integrity.errors import InvariantViolation
from repro.mem.frames import FrameAllocator
from repro.vm.address import AddressLayout
from repro.vm.page_table import PageTable
from repro.vm.subsystem import PageWalkSubsystem


class SlowMemory:
    def __init__(self, sim, latency=200):
        self.sim = sim
        self.latency = latency

    def walker_access(self, paddr, on_done, tenant_id=0):
        self.sim.after(self.latency, on_done)


def make(num_walkers=2, queue_entries=2):
    sim = Simulator()
    layout = AddressLayout(page_size_bits=12)
    policy = DwsPolicy(num_walkers, queue_entries, [0, 1])
    pws = PageWalkSubsystem(
        sim, SlowMemory(sim), policy, num_walkers=num_walkers,
        pwc_entries=8, pwc_latency=0, dispatch_latency=0, layout=layout,
    )
    frames = FrameAllocator(total_frames=1 << 18, frame_bytes=4096)
    for t in (0, 1):
        pt = PageTable(t, layout, frames)
        pws.register_tenant(t, pt)
    return sim, pws


def submit(pws, tenant, vpn, done):
    pws.page_tables[tenant].ensure_mapped(vpn)
    pws.request_walk(tenant, vpn,
                     lambda r: done.append((r.tenant_id, r.vpn)))


def test_overflow_replays_across_tenants_without_hol_blocking():
    sim, pws = make(num_walkers=2, queue_entries=2)
    done = []
    # tenant 0 owns walker 0 (queue cap 1): 1 in service + 1 queued,
    # further tenant-0 arrivals overflow
    for i in range(5):
        submit(pws, 0, (i + 1) << 18, done)
    # tenant 1's arrival comes AFTER tenant 0's overflow entries
    submit(pws, 1, 7 << 18, done)
    assert pws.overflowed_walks >= 2
    sim.drain()
    # everything completed despite the overflow mixture
    assert len(done) == 6
    assert (1, 7 << 18) in done


def test_overflow_preserves_fifo_within_a_tenant():
    sim, pws = make(num_walkers=2, queue_entries=2)
    done = []
    for i in range(6):
        submit(pws, 0, (i + 1) << 18, done)
    sim.drain()
    vpns = [vpn for t, vpn in done if t == 0]
    assert vpns == sorted(vpns, key=lambda v: vpns.index(v))  # stable
    # service order follows arrival order
    assert vpns == [(i + 1) << 18 for i in range(6)]


def test_overflow_counter_and_drain():
    sim, pws = make(num_walkers=2, queue_entries=2)
    done = []
    for i in range(4):
        submit(pws, 0, (i + 1) << 18, done)
    assert sim.stats.counter("pws.overflow").value >= 1
    sim.drain()
    assert pws.overflowed_walks == 0


def test_held_for_counts_each_tenants_held_walks():
    sim, pws = make(num_walkers=2, queue_entries=2)
    done = []
    for i in range(5):
        submit(pws, 0, (i + 1) << 18, done)
    # one in service on walker 0, one stolen by idle walker 1, one
    # queued on walker 0 (capacity 1): the other two are held
    assert pws.held_for(0) == 2
    assert pws.held_for(1) == 0
    assert pws.held_for(9) == 0  # never seen: no FIFO, no error
    assert pws.overflowed_walks == 2
    sim.drain()
    assert pws.held_for(0) == 0


# ----------------------------------------------------------------------
# Differential: per-tenant merge replay and tallies vs the full scan
# ----------------------------------------------------------------------
class ScanAllSubsystem(PageWalkSubsystem):
    """The previous mechanism: one flat held buffer, re-offered in full
    (FIFO order kept among the remainder) on every completion, and
    interleave snapshots swept over the candidate walkers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._overflow = deque()

    def _hold(self, request):
        self._overflow.append(request)

    def _replay_held(self):
        if self._overflow:
            still_held = deque()
            for pending in self._overflow:
                if not self.policy.on_arrival(pending):
                    still_held.append(pending)
            self._overflow = still_held

    def _other_starts_on(self, walkers, tenant_id):
        return sum(
            self._starts_total[w] - self._starts_by_tenant[w].get(tenant_id, 0)
            for w in walkers
        )

    @property
    def overflowed_walks(self):
        return len(self._overflow)


POLICIES = {
    "shared": lambda n, q, tenants: SharedQueuePolicy(n, q),
    "static": StaticPartitionPolicy,
    "dws": DwsPolicy,
    # a 3-arrival epoch ends epochs in the middle of replays
    "dwspp": lambda n, q, tenants: DwsPlusPolicy(
        n, q, tenants, params=DwsPlusParams(epoch_length=3)),
}


class ScriptedMemory:
    """Walker memory whose per-access latency cycles through a script."""

    def __init__(self, sim, latencies):
        self.sim = sim
        self.latencies = latencies
        self.calls = 0

    def walker_access(self, paddr, on_done, tenant_id=0):
        latency = self.latencies[self.calls % len(self.latencies)]
        self.calls += 1
        self.sim.after(latency, on_done)


class Recorder:
    """Tracer stand-in: walk ids renumbered by first appearance, so two
    runs (which draw ids from one global counter) compare equal."""

    def __init__(self):
        self.records = []
        self.ids = {}

    def walk(self, walk_id):
        return self.ids.setdefault(walk_id, len(self.ids))

    def emit(self, time, kind, **fields):
        fields["walk"] = self.walk(fields["walk"])
        self.records.append((time, kind, sorted(fields.items())))


def run_script(subsystem_cls, policy_name, scenario, audit=False):
    """Drive one scripted arrival sequence; return what it observed."""
    num_walkers, queue_entries, dispatch, latencies, arrivals, late = scenario
    sim = Simulator()
    layout = AddressLayout(page_size_bits=12)
    policy = POLICIES[policy_name](num_walkers, queue_entries, [0, 1])
    pws = subsystem_cls(
        sim, ScriptedMemory(sim, latencies), policy,
        num_walkers=num_walkers, pwc_entries=4, pwc_latency=1,
        dispatch_latency=dispatch, layout=layout,
    )
    recorder = pws.tracer = Recorder()
    accepted = []
    offer = policy.on_arrival

    def recording_offer(request):
        ok = offer(request)
        if ok:
            accepted.append(recorder.walk(request.id))
        return ok

    policy.on_arrival = recording_offer
    if audit:
        auditor = Auditor(level="full")
        _subsystem_probes(auditor, pws)
        pws.auditor = auditor
    frames = FrameAllocator(total_frames=1 << 18, frame_bytes=4096)
    tables = {t: PageTable(t, layout, frames) for t in (0, 1, 2)}
    pws.register_tenant(0, tables[0])
    pws.register_tenant(1, tables[1])
    if late is not None:
        sim.at(late, pws.register_tenant, 2, tables[2])
    done = []
    now = 0
    for gap, tenant, page in arrivals:
        now += gap
        if tenant == 2 and (late is None or now <= late):
            tenant = page % 2  # tenant 2 exists only after it registers
        vpn = (page * 977 + 1) << 3
        tables[tenant].ensure_mapped(vpn)
        sim.at(now, pws.request_walk, tenant, vpn,
               lambda r: done.append(r.tenant_id))
    sim.drain()
    assert pws.overflowed_walks == 0 and pws.inflight_walks == 0
    extra = (policy.epochs_completed, policy.diff_thres) \
        if policy_name == "dwspp" else None
    return {
        "accepted": accepted,
        "trace": recorder.records,
        "done": done,
        "stats": sim.stats.snapshot(),
        "extra": extra,
    }


scenarios = st.tuples(
    st.integers(3, 4),                               # walkers
    st.integers(1, 2),                               # queue slots per walker
    st.integers(0, 2),                               # dispatch latency
    st.lists(st.integers(1, 60), min_size=1, max_size=6),
    st.lists(st.tuples(st.integers(0, 25), st.integers(0, 2),
                       st.integers(0, 40)), min_size=1, max_size=60),
    st.one_of(st.none(), st.integers(0, 400)),       # late tenant 2
).map(lambda s: (s[0], s[0] * s[1]) + s[2:])


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@settings(max_examples=40, deadline=None)
@given(scenario=scenarios)
def test_replay_matches_full_scan(policy_name, scenario):
    new = run_script(PageWalkSubsystem, policy_name, scenario, audit=True)
    old = run_script(ScanAllSubsystem, policy_name, scenario)
    assert new["accepted"] == old["accepted"]
    # walk.start/walk.steal records carry each walk's interleave value
    assert new["trace"] == old["trace"]
    assert new["done"] == old["done"]
    assert new["stats"] == old["stats"]
    assert new["extra"] == old["extra"]


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_tally_registered_after_a_mid_run_tenant_arrival(policy_name):
    # Tenants 0 and 1 contend for 40 cycles; tenant 2 registers at 200,
    # after service starts exist, and its arrivals (and, under the
    # partitioned policies, everyone's new candidate sets) need tallies
    # seeded from the per-walker counts.
    arrivals = [(1, i % 2, i) for i in range(40)]
    arrivals += [(170 if i == 0 else 1, 2 - i % 3, 100 + i)
                 for i in range(30)]
    scenario = (4, 8, 1, [7, 31, 13], arrivals, 200)
    new = run_script(PageWalkSubsystem, policy_name, scenario, audit=True)
    old = run_script(ScanAllSubsystem, policy_name, scenario)
    assert new == old
    starts = [dict(fields) for _t, kind, fields in new["trace"]
              if kind in ("walk.start", "walk.steal")]
    assert any(s["tenant"] == 2 for s in starts)
    assert any(s["interleaved"] > 0 for s in starts)


def test_late_tally_is_seeded_from_per_walker_counts():
    sim, pws = make(num_walkers=2, queue_entries=2)
    done = []
    for i in range(4):
        submit(pws, i % 2, (i + 1) << 18, done)
    sim.drain()
    walkers = (0, 1)  # under DWS each tenant's set is one walker
    assert walkers not in pws._tallies
    expected = sum(pws._starts_total) - sum(
        counts.get(0, 0) for counts in pws._starts_by_tenant)
    assert expected > 0
    assert pws._other_starts_on(walkers, 0) == expected
    assert pws._tallies[walkers][0] == sum(pws._starts_total)


# ----------------------------------------------------------------------
# The auditor catches drift in the new bookkeeping
# ----------------------------------------------------------------------
def _probes(pws):
    auditor = Auditor(level="full")
    _subsystem_probes(auditor, pws)
    return auditor


def test_auditor_catches_tally_drift():
    sim, pws = make(num_walkers=2, queue_entries=2)
    done = []
    for i in range(6):
        submit(pws, i % 2, (i + 1) << 18, done)
    sim.drain()
    auditor = _probes(pws)
    auditor.sweep()
    tally = next(iter(pws._tallies.values()))
    tally[1][0] = tally[1].get(0, 0) + 1
    with pytest.raises(InvariantViolation, match="interleave tally"):
        auditor.sweep()


def test_auditor_catches_misfiled_held_walk():
    sim, pws = make(num_walkers=2, queue_entries=2)
    done = []
    for i in range(5):
        submit(pws, 0, (i + 1) << 18, done)
    auditor = _probes(pws)
    auditor.sweep()
    pws._held[1] = deque([pws._held[0].popleft()])
    with pytest.raises(InvariantViolation, match="held queue of tenant 1"):
        auditor.sweep()
    pws._held[0].appendleft(pws._held.pop(1)[0])
    pws._held[0].reverse()
    with pytest.raises(InvariantViolation, match="out of id order"):
        auditor.sweep()


def test_auditor_catches_pending_counter_drift():
    sim, pws = make(num_walkers=2, queue_entries=2)
    done = []
    for i in range(5):
        submit(pws, 0, (i + 1) << 18, done)
    auditor = _probes(pws)
    auditor.sweep()
    pws.policy._pending += 1
    with pytest.raises(InvariantViolation, match="pending counter"):
        auditor.sweep()
