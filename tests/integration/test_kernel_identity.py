"""Pinned observable output of the event kernel.

Every suite archetype, paired with HS, runs under every policy family
at a tiny scale, and the test compares a digest of everything a run
reports (total cycles, the full stats snapshot, the per-tenant tables)
plus the number of events fired against values recorded with the
calendar-queue kernel and its latency-folding fast path, before both
were replaced by the plain heap kernel.  The event counts were recorded
with folding disabled: folding completed some accesses without queue
events, and the heap kernel fires exactly the unfolded event stream.

One more run is cut short by ``max_events`` in the middle of the
simulation, so the digest also pins the state at an arbitrary event
boundary, not only at the completion stop.

To re-record after an intended model change, run this file as a script
and paste its output over ``EXPECTED``.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.engine.config import GpuConfig
from repro.engine.simulator import EventBudgetExceeded
from repro.tenancy.manager import MultiTenantManager
from repro.tenancy.tenant import Tenant
from repro.workloads.suite import BENCHMARKS, benchmark

SCALE = 0.5
POLICIES = ("baseline", "static", "dws", "dwspp")
#: The cut run: a contended pair stopped long before either tenant
#: completes, with walks, fills and DRAM returns in flight.
CUT_PAIR = ("GUPS", "SAD")
CUT_POLICY = "dwspp"
CUT_EVENTS = 1_500


def _manager(names, policy, max_events=100_000_000):
    cfg = GpuConfig.baseline(num_sms=4).with_policy(policy)
    tenants = [Tenant(i, benchmark(name, scale=SCALE))
               for i, name in enumerate(names)]
    return MultiTenantManager(cfg, tenants, warps_per_sm=2, seed=3,
                              max_events=max_events)


def _digest(cycles, stats, tenants) -> str:
    blob = json.dumps({"cycles": cycles, "stats": stats, "tenants": tenants},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def observe(archetype, policy):
    """(digest, events fired) of ``archetype`` + HS under ``policy``."""
    result = _manager((archetype, "HS"), policy).run()
    tenants = {str(t): dataclasses.asdict(s)
               for t, s in sorted(result.tenants.items())}
    return (_digest(result.total_cycles, result.stats, tenants),
            result.events_fired)


def observe_cut():
    """(digest, clock) of the run stopped after ``CUT_EVENTS`` events."""
    manager = _manager(CUT_PAIR, CUT_POLICY, max_events=CUT_EVENTS)
    with pytest.raises(EventBudgetExceeded):
        manager.run()
    sim = manager.sim
    return _digest(sim.now, sim.stats.snapshot(), {}), sim.now


#: (archetype, policy) -> (digest, events fired)
EXPECTED = {
    ('3DS', 'baseline'): ('1ead4db3034c174d', 8343),
    ('3DS', 'dws'): ('aa57119a80334d5b', 8343),
    ('3DS', 'dwspp'): ('aa57119a80334d5b', 8343),
    ('3DS', 'static'): ('b2bf9a9e19021215', 8343),
    ('BLK', 'baseline'): ('eda62a9e9fae0f9a', 6581),
    ('BLK', 'dws'): ('30ac2ea15b474358', 6581),
    ('BLK', 'dwspp'): ('30ac2ea15b474358', 6581),
    ('BLK', 'static'): ('eda62a9e9fae0f9a', 6581),
    ('FFT', 'baseline'): ('7d849988d2e381c6', 12636),
    ('FFT', 'dws'): ('8a63a070ff310102', 12636),
    ('FFT', 'dwspp'): ('8a63a070ff310102', 12636),
    ('FFT', 'static'): ('de69e910dab8093d', 12636),
    ('GUPS', 'baseline'): ('9bb6acf9e8ef3735', 14238),
    ('GUPS', 'dws'): ('f83bd3ca80e36f72', 14238),
    ('GUPS', 'dwspp'): ('f83bd3ca80e36f72', 14238),
    ('GUPS', 'static'): ('08e965928f2702cb', 14044),
    ('HS', 'baseline'): ('d5a73ea4d5df6e28', 11129),
    ('HS', 'dws'): ('c355351db9450d80', 11129),
    ('HS', 'dwspp'): ('c355351db9450d80', 11129),
    ('HS', 'static'): ('51b7ae239a3afeb6', 11129),
    ('JPEG', 'baseline'): ('89639e1e564fc470', 8004),
    ('JPEG', 'dws'): ('74baed98be274f8f', 8004),
    ('JPEG', 'dwspp'): ('74baed98be274f8f', 8004),
    ('JPEG', 'static'): ('f0188e4890e734e7', 8004),
    ('LIB', 'baseline'): ('682d6d2ba925196f', 8233),
    ('LIB', 'dws'): ('34983db6ddff2f23', 8233),
    ('LIB', 'dwspp'): ('34983db6ddff2f23', 8233),
    ('LIB', 'static'): ('329fe7ed6a374bee', 8233),
    ('LPS', 'baseline'): ('c280ae708c59d3c8', 11220),
    ('LPS', 'dws'): ('91beb148cb348209', 11220),
    ('LPS', 'dwspp'): ('91beb148cb348209', 11220),
    ('LPS', 'static'): ('c280ae708c59d3c8', 11220),
    ('MM', 'baseline'): ('e3cc280c360cbe6c', 9413),
    ('MM', 'dws'): ('92249816df83f180', 9413),
    ('MM', 'dwspp'): ('92249816df83f180', 9413),
    ('MM', 'static'): ('153476473dcf0e4d', 9413),
    ('QTC', 'baseline'): ('d6679181abd6ad6a', 8634),
    ('QTC', 'dws'): ('ea41361beeb3be53', 8634),
    ('QTC', 'dwspp'): ('ea41361beeb3be53', 8634),
    ('QTC', 'static'): ('90b315710a24ee63', 8634),
    ('RAY', 'baseline'): ('2715785c72ef1f9e', 8626),
    ('RAY', 'dws'): ('6940ed2fbfec879e', 8626),
    ('RAY', 'dwspp'): ('6940ed2fbfec879e', 8626),
    ('RAY', 'static'): ('f56f13a03065db6e', 8626),
    ('SAD', 'baseline'): ('289a6fa1c2708cd9', 9243),
    ('SAD', 'dws'): ('d1efba7149aabc5b', 9243),
    ('SAD', 'dwspp'): ('d1efba7149aabc5b', 9243),
    ('SAD', 'static'): ('289a6fa1c2708cd9', 9243),
    ('SRAD', 'baseline'): ('3f9ca110afb6d229', 9693),
    ('SRAD', 'dws'): ('1ff6df3152638219', 9693),
    ('SRAD', 'dwspp'): ('1ff6df3152638219', 9693),
    ('SRAD', 'static'): ('3f9ca110afb6d229', 9693),
}

#: (digest, clock) of the cut run
EXPECTED_CUT = ('ada9902edda2861c', 4570)


@pytest.mark.parametrize("archetype", sorted(BENCHMARKS))
def test_kernel_identity_all_policies(archetype):
    for policy in POLICIES:
        assert observe(archetype, policy) == EXPECTED[archetype, policy], (
            f"{archetype}.HS under {policy}: observable output changed")


def test_kernel_identity_cut_by_max_events():
    assert observe_cut() == EXPECTED_CUT


if __name__ == "__main__":  # re-record: paste the output over EXPECTED
    print("EXPECTED = {")
    for name in sorted(BENCHMARKS):
        for policy in POLICIES:
            print(f"    ({name!r}, {policy!r}): {observe(name, policy)!r},")
    print("}")
    print(f"EXPECTED_CUT = {observe_cut()!r}")
