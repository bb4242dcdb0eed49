"""Byte-identity of the sharded parallel engine (DESIGN.md §13).

Sharding is a pure scheduling optimisation: per-SM state advances in
conservative time windows on independent shards, synchronising only at
the shared boundary (L2 TLB, walker pool, DRAM) — but nothing
observable may change.  These tests run every suite archetype under
every policy with ``shards=K`` and require the full observable state
(stats snapshot, per-tenant run stats, total cycles) to match the
serial oracle exactly.

The integrity layer gets the same treatment: an installed audit hook
makes the sharded conductor disable windows and fire every event as a
globally ordered serial step (the auditor and watchdog must observe
each event in order), so a sharded run under audit must be
byte-identical to the serial run *including* ``events_fired``.
"""

import dataclasses
import os

import pytest

from repro.engine.config import SHARDS_ENV, GpuConfig
from repro.engine.parallel_sim import ParallelSimulator
from repro.engine.simulator import Simulator
from repro.integrity import IntegrityConfig
from repro.tenancy.manager import MultiTenantManager
from repro.tenancy.tenant import Tenant
from repro.workloads.base import Workload
from repro.workloads.suite import BENCHMARKS, benchmark

SCALE = 0.05
#: The resident pair needs a longer trace: windows only open wide once
#: the 4 KiB footprint's cold misses are behind it.
RESIDENT_SCALE = 0.5
POLICIES = ("baseline", "static", "dws", "dwspp")

#: An L1-resident variant of HS: the sharded engine's home regime
#: (shard-local hit traffic with rare boundary crossings, so windows
#: span thousands of cycles).  The standard-footprint archetypes are
#: miss-heavy and mostly exercise the serial boundary path instead.
RESIDENT_SPEC = dataclasses.replace(BENCHMARKS["HS"], name="HSR",
                                    footprint_bytes=4096)


def run_once(workloads, policy, shards, warps=2, integrity=None, sms=4):
    cfg = GpuConfig.baseline(num_sms=sms).with_policy(policy)
    tenants = [Tenant(i, wl) for i, wl in enumerate(workloads)]
    manager = MultiTenantManager(cfg, tenants, warps_per_sm=warps,
                                 seed=3, integrity=integrity, shards=shards)
    result = manager.run()
    return result, manager


def observable(result):
    """Everything sharding is forbidden to change.

    ``events_fired`` and ``wall_seconds`` are deliberately excluded:
    the window path replays parked boundary intents as extra queue
    entries, so firing a different *number* of events is the one
    permitted difference (the fired callbacks and their order are
    identical).
    """
    return (
        result.total_cycles,
        result.stats,
        {t: dataclasses.asdict(s) for t, s in result.tenants.items()},
    )


@pytest.mark.parametrize("archetype", sorted(BENCHMARKS))
def test_shard_identity_all_policies(archetype):
    """shards=2 == serial oracle for every archetype under every policy."""
    for policy in POLICIES:
        pair = [benchmark(archetype, scale=SCALE), benchmark("HS", scale=SCALE)]
        serial, _ = run_once(pair, policy, shards=1)
        pair = [benchmark(archetype, scale=SCALE), benchmark("HS", scale=SCALE)]
        sharded, _ = run_once(pair, policy, shards=2)
        assert observable(sharded) == observable(serial), (
            f"{archetype} under {policy}: sharding changed observable state")


@pytest.mark.parametrize("shards", [2, 4, 8])
def test_shard_identity_resident_pair(shards):
    """The window-dominated regime, at every shard count the 8-SM
    machine supports.  Windows must actually open — a sharded run that
    never leaves the serial path proves nothing."""
    def pair():
        return [Workload(RESIDENT_SPEC, RESIDENT_SCALE),
                Workload(RESIDENT_SPEC, RESIDENT_SCALE)]

    serial, _ = run_once(pair(), "dws", shards=1, warps=1, sms=8)
    sharded, manager = run_once(pair(), "dws", shards=shards, warps=1, sms=8)
    assert observable(sharded) == observable(serial)
    stats = manager.sim.parallel_stats()
    assert stats["windows"] > 0, "resident pair must open windows"
    assert stats["window_events"] > 0


@pytest.mark.parametrize("policy", POLICIES)
def test_shard_identity_resident_all_policies(policy):
    def pair():
        return [Workload(RESIDENT_SPEC, RESIDENT_SCALE),
                Workload(RESIDENT_SPEC, RESIDENT_SCALE)]

    serial, _ = run_once(pair(), policy, shards=1, warps=1)
    sharded, _ = run_once(pair(), policy, shards=4, warps=1)
    assert observable(sharded) == observable(serial)


@pytest.mark.parametrize("audit", ["cheap", "full"])
def test_shard_identity_under_audit(audit):
    """Audit installs a per-event hook; the conductor must fall back to
    globally ordered serial steps, making even ``events_fired`` equal."""
    integrity = IntegrityConfig(audit=audit, audit_interval=64)

    def pair():
        return [Workload(RESIDENT_SPEC, RESIDENT_SCALE),
                Workload(RESIDENT_SPEC, RESIDENT_SCALE)]

    serial, _ = run_once(pair(), "dws", shards=1, warps=1,
                         integrity=integrity)
    sharded, manager = run_once(pair(), "dws", shards=4, warps=1,
                                integrity=integrity)
    assert observable(sharded) == observable(serial)
    assert sharded.events_fired == serial.events_fired
    assert manager.sim.parallel_stats()["windows"] == 0, (
        "windows must not open while a per-event hook is installed")


def test_shard_identity_with_watchdog():
    """A watchdog window smaller than the run must not trip on a healthy
    sharded simulation: events are counted globally, never per shard."""
    integrity = IntegrityConfig(watchdog_window=5_000)

    def pair():
        return [Workload(RESIDENT_SPEC, RESIDENT_SCALE),
                Workload(RESIDENT_SPEC, RESIDENT_SCALE)]

    serial, _ = run_once(pair(), "dws", shards=1, warps=1,
                         integrity=integrity)
    sharded, _ = run_once(pair(), "dws", shards=4, warps=1,
                          integrity=integrity)
    assert observable(sharded) == observable(serial)


def test_threads_backend_identity():
    """The threads backend must match the serial oracle bit for bit."""
    os.environ["REPRO_SHARD_BACKEND"] = "threads"
    try:
        def pair():
            return [Workload(RESIDENT_SPEC, RESIDENT_SCALE),
                    Workload(RESIDENT_SPEC, RESIDENT_SCALE)]

        sharded, manager = run_once(pair(), "dws", shards=4, warps=1)
    finally:
        os.environ.pop("REPRO_SHARD_BACKEND", None)
    serial, _ = run_once(pair(), "dws", shards=1, warps=1)
    assert observable(sharded) == observable(serial)
    assert manager.sim.backend == "threads"
    manager.sim.close()


def test_kill_switch_selects_serial_kernel():
    """shards=1, REPRO_SHARDS=1 and unset must all yield the plain
    serial kernel — the oracle every differential above compares to."""
    wl = [Workload(RESIDENT_SPEC, RESIDENT_SCALE)]
    _, manager = run_once(wl, "baseline", shards=1, warps=1)
    assert type(manager.sim) is Simulator
    assert manager.shards == 1

    os.environ[SHARDS_ENV] = "1"
    try:
        _, manager = run_once(wl, "baseline", shards=None, warps=1)
    finally:
        os.environ.pop(SHARDS_ENV, None)
    assert type(manager.sim) is Simulator

    _, manager = run_once(wl, "baseline", shards=None, warps=1)
    assert type(manager.sim) is Simulator


def test_env_selects_parallel_kernel():
    """REPRO_SHARDS=K activates the sharded engine without code changes,
    and an explicit ``shards=`` argument wins over the environment."""
    wl = [Workload(RESIDENT_SPEC, RESIDENT_SCALE)]
    os.environ[SHARDS_ENV] = "2"
    try:
        _, manager = run_once(wl, "baseline", shards=None, warps=1)
        assert isinstance(manager.sim, ParallelSimulator)
        assert manager.shards == 2
        _, manager = run_once(wl, "baseline", shards=1, warps=1)
        assert type(manager.sim) is Simulator
    finally:
        os.environ.pop(SHARDS_ENV, None)


def test_shards_clamped_to_sm_count():
    """A shard must own at least one SM: K > num_sms clamps to num_sms."""
    wl = [Workload(RESIDENT_SPEC, RESIDENT_SCALE)]
    _, manager = run_once(wl, "baseline", shards=64, warps=1, sms=4)
    assert manager.shards == 4
    assert manager.sim.num_shards == 4


def _run_processes_backend(workloads, policy, shards, warps=2, sms=4):
    """run_once with the worker-pool backend selected via environment."""
    os.environ["REPRO_SHARD_BACKEND"] = "processes"
    try:
        result, manager = run_once(workloads, policy, shards,
                                   warps=warps, sms=sms)
    finally:
        os.environ.pop("REPRO_SHARD_BACKEND", None)
    manager.sim.close()
    return result, manager


@pytest.mark.parametrize("archetype", sorted(BENCHMARKS))
def test_processes_identity_all_policies(archetype):
    """The multi-process backend must match the serial oracle bit for
    bit across the full archetype x policy grid at shards=2: same stats
    snapshot, same per-tenant tables, same total cycles."""
    for policy in POLICIES:
        pair = [benchmark(archetype, scale=SCALE), benchmark("HS", scale=SCALE)]
        serial, _ = run_once(pair, policy, shards=1)
        pair = [benchmark(archetype, scale=SCALE), benchmark("HS", scale=SCALE)]
        procs, manager = _run_processes_backend(pair, policy, shards=2)
        assert manager.sim.backend == "processes"
        assert observable(procs) == observable(serial), (
            f"{archetype} under {policy}: processes backend diverged "
            "from the serial schedule")


@pytest.mark.parametrize("shards", [2, 4])
def test_processes_identity_resident_pair(shards):
    """The window-dominated regime on real worker processes, at the two
    shard counts the perf gate measures.  Windows must open and real
    events must fire inside workers — a degraded run proves nothing."""
    def pair():
        return [Workload(RESIDENT_SPEC, RESIDENT_SCALE),
                Workload(RESIDENT_SPEC, RESIDENT_SCALE)]

    serial, _ = run_once(pair(), "dws", shards=1, warps=1, sms=8)
    procs, manager = _run_processes_backend(pair(), "dws", shards=shards,
                                            warps=1, sms=8)
    assert observable(procs) == observable(serial)
    stats = manager.sim.parallel_stats()
    assert stats["windows"] > 0, "resident pair must open windows"
    assert stats["window_events"] > 0
    assert manager.sim._procs is not None, "worker pool never engaged"
