"""Byte-identity of the shipping engine against in-process references.

The file keeps the name of the latency-folding differential it grew
from.  Folding is gone: every access now takes the event path the
fold-off runs took, on a plain heap kernel.  What these tests hold is
that nothing observable moved, against two references (see
``tests/reference_engines.py``):

* the ``fold_*`` tests swap only the kernel, for the seed heap kernel
  (:class:`HeapEventQueue`); everything else is the shipping code;
* the ``walk_fold_*`` tests swap in the whole engine as it stood before
  folding was added (calendar-queue kernel and the walk, cache, NoC and
  DRAM hot paths of that time), so they diff the walk path too.

Every suite archetype runs under every policy; the hit-dominated and
walk-dominated regimes, audited runs and runs stopped with work still
queued get their own cases.  The full observable state (stats snapshot,
per-tenant run stats, total cycles) and the number of events fired must
match exactly.
"""

import contextlib
import dataclasses

import pytest

import repro.engine.simulator as simulator_module
from repro.engine.config import GpuConfig
from repro.integrity import IntegrityConfig
from repro.tenancy.manager import MultiTenantManager
from repro.tenancy.tenant import Tenant
from repro.workloads.base import Workload
from repro.workloads.suite import BENCHMARKS, benchmark
from tests.reference_engines import HeapEventQueue, pr4_engine

SCALE = 0.05
#: The resident pair needs a longer trace: its accesses only turn into
#: L1 hits once the 4 KiB footprint's cold misses are behind it.
RESIDENT_SCALE = 0.5
POLICIES = ("baseline", "static", "dws", "dwspp")

#: An L1-resident variant of HS: almost every post-warm-up access is an
#: L1 TLB + L1 data hit, so many completions share each cycle.
RESIDENT_SPEC = dataclasses.replace(BENCHMARKS["HS"], name="HSR",
                                    footprint_bytes=4096)


def run_once(workloads, policy, reference=None, warps=2, integrity=None,
             sms=4):
    """One co-run; ``reference`` is None, ``"kernel"`` or ``"engine"``."""
    previous = simulator_module.EventQueue
    context = pr4_engine if reference == "engine" else contextlib.nullcontext
    if reference == "kernel":
        simulator_module.EventQueue = HeapEventQueue
    try:
        with context():
            cfg = GpuConfig.baseline(num_sms=sms).with_policy(policy)
            tenants = [Tenant(i, wl) for i, wl in enumerate(workloads)]
            manager = MultiTenantManager(cfg, tenants, warps_per_sm=warps,
                                         seed=3, integrity=integrity)
            result = manager.run()
    finally:
        simulator_module.EventQueue = previous
    return result, manager


def observable(result):
    """Everything the kernel and the hot paths are forbidden to change."""
    return (
        result.total_cycles,
        result.events_fired,
        result.stats,
        {t: dataclasses.asdict(s) for t, s in result.tenants.items()},
    )


def total(stats, component, counter):
    """Sum ``<component>.*.<counter>`` over every instance."""
    return sum(value for key, value in stats.items()
               if key.startswith(component + ".")
               and key.endswith("." + counter))


def resident_pair():
    return [Workload(RESIDENT_SPEC, RESIDENT_SCALE),
            Workload(RESIDENT_SPEC, RESIDENT_SCALE)]


def walk_pair(scale):
    return [benchmark("JPEG", scale=scale), benchmark("LIB", scale=scale)]


@pytest.mark.parametrize("archetype", sorted(BENCHMARKS))
def test_fold_identity_all_policies(archetype):
    """Heap kernel == seed heap kernel for every archetype and policy."""
    for policy in POLICIES:
        pair = [benchmark(archetype, scale=SCALE), benchmark("HS", scale=SCALE)]
        shipping, _ = run_once(pair, policy)
        pair = [benchmark(archetype, scale=SCALE), benchmark("HS", scale=SCALE)]
        reference, _ = run_once(pair, policy, reference="kernel")
        assert observable(shipping) == observable(reference), (
            f"{archetype} under {policy}: the kernel changed observable state")


@pytest.mark.parametrize("policy", POLICIES)
def test_fold_identity_resident_pair(policy):
    """The hit-dominated regime, where the old hit fold fired en masse."""
    shipping, _ = run_once(resident_pair(), policy, warps=1)
    reference, _ = run_once(resident_pair(), policy, reference="kernel",
                            warps=1)
    assert observable(shipping) == observable(reference)
    hits = total(shipping.stats, "l1c", "hits")
    misses = total(shipping.stats, "l1c", "misses")
    assert hits > 0.5 * (hits + misses), "resident pair must be hit-dominated"


@pytest.mark.parametrize("audit", ["cheap", "full"])
def test_fold_disabled_under_audit(audit):
    """An audited run takes the peeking run loop: it must match the
    reference kernel under the same audit, and the unaudited run."""
    integrity = IntegrityConfig(audit=audit, audit_interval=64)
    audited, _ = run_once(resident_pair(), "dws", warps=1,
                          integrity=integrity)
    reference, _ = run_once(resident_pair(), "dws", reference="kernel",
                            warps=1, integrity=integrity)
    plain, _ = run_once(resident_pair(), "dws", warps=1)
    assert observable(audited) == observable(reference) == observable(plain)


def test_fold_identity_across_stop_boundary():
    """Nothing queued may leak past ``sim.stop()``.

    At 8 SMs this seed stops the run with data-cache work still queued;
    the heap kernel must stop at the same event as the reference.
    """
    shipping, manager = run_once(resident_pair(), "dws", warps=1, sms=8)
    reference, _ = run_once(resident_pair(), "dws", reference="kernel",
                            warps=1, sms=8)
    assert observable(shipping) == observable(reference)
    assert len(manager.sim.events) > 0, "the run must stop with work queued"


@pytest.mark.parametrize("archetype", sorted(BENCHMARKS))
def test_walk_fold_identity_all_policies(archetype):
    """Shipping engine == pre-folding engine for every archetype under
    every policy, walk path included."""
    for policy in POLICIES:
        pair = [benchmark(archetype, scale=SCALE), benchmark("HS", scale=SCALE)]
        shipping, _ = run_once(pair, policy)
        pair = [benchmark(archetype, scale=SCALE), benchmark("HS", scale=SCALE)]
        reference, _ = run_once(pair, policy, reference="engine")
        assert observable(shipping) == observable(reference), (
            f"{archetype} under {policy}: the engine changed observable "
            "state")


@pytest.mark.parametrize("policy", POLICIES)
def test_walk_fold_engagement(policy):
    """The miss-dominated regime, where the old walk rungs fired.

    JPEG.LIB at this scale warms the L2 TLB and the PWC, so walks, L2
    TLB hits and PWC hits all occur; a walk-path differential on a
    config where they never happen would be vacuous.
    """
    shipping, _ = run_once(walk_pair(0.2), policy, warps=1)
    reference, _ = run_once(walk_pair(0.2), policy, reference="engine",
                            warps=1)
    assert observable(shipping) == observable(reference)
    stats = shipping.stats
    assert total(stats, "l2tlb", "misses") > 0, "walks must occur"
    assert total(stats, "l2tlb", "hits") > 0
    assert total(stats, "pws", "hits") > 0, "PWC hits must occur"


def test_walk_fold_identity_across_stop_boundary():
    """At 8 SMs this trace stops with walks and DRAM returns still
    queued; both engines must stop at the same event."""
    shipping, manager = run_once(walk_pair(0.5), "dws", warps=1, sms=8)
    reference, _ = run_once(walk_pair(0.5), "dws", reference="engine",
                            warps=1, sms=8)
    assert observable(shipping) == observable(reference)
    assert len(manager.sim.events) > 0, "the run must stop with work queued"
