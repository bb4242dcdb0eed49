"""Unit and chaos tests for the multi-process shard backend.

The integration suite proves whole-run byte-identity on ``processes``;
these tests pin the pieces underneath it — the versioned wire format and
its key-interning codec, the framed pipe transport, worker-death
forensics (SIGKILL mid-run must surface as a typed error and leave no
zombies), degradation warnings, and the PR-9 RSS budget honoured inside
workers.
"""

import dataclasses
import os
import signal

import pytest

from repro.engine import shard_ipc
from repro.engine.config import GpuConfig
from repro.engine.parallel_sim import BACKEND_ENV
from repro.engine.shard import ENSURE, LOOKUP, NOC, OrderKey, WARP_DONE
from repro.engine.shard_ipc import (
    Channel,
    ChannelClosed,
    DELIVER_ADD_WARP,
    DELIVER_CALL_TOKEN,
    DELIVER_FINISH_XLAT,
    KeyCodec,
    WIRE_VERSION,
    WireError,
    decode_advance,
    decode_deliveries,
    decode_reply,
    encode_advance,
    encode_deliveries,
    encode_reply,
)
from repro.engine.shard_proc import SHARD_RSS_ENV, ShardWorkerError
from repro.engine.simulator import SimulationError
from repro.harness.resources import ResourceBudgetExceeded
from repro.tenancy.manager import MultiTenantManager
from repro.tenancy.tenant import Tenant
from repro.workloads.base import Workload
from repro.workloads.suite import BENCHMARKS

#: L1-resident pair (same shape as the differential suite's HSR): the
#: window-dominated regime where the processes backend actually engages.
RESIDENT_SPEC = dataclasses.replace(
    BENCHMARKS["HS"], name="HSR", footprint_bytes=4096)
RESIDENT_SCALE = 0.2


def _mirror_codecs():
    """A parent/worker codec pair sharing a seed table, as after fork."""
    seed = KeyCodec(1)
    return seed.clone(1), seed.clone(-1)


def _proc_manager(warps=1, sms=8, shards=4, integrity=None):
    cfg = GpuConfig.baseline(num_sms=sms).with_policy("dws")
    pair = [Workload(RESIDENT_SPEC, RESIDENT_SCALE),
            Workload(RESIDENT_SPEC, RESIDENT_SCALE)]
    tenants = [Tenant(i, wl) for i, wl in enumerate(pair)]
    return MultiTenantManager(cfg, tenants, warps_per_sm=warps, seed=3,
                              integrity=integrity, shards=shards)


# ----------------------------------------------------------------------
# KeyCodec: identity-preserving OrderKey interning
# ----------------------------------------------------------------------
class TestKeyCodec:
    def test_roundtrip_preserves_chain_order(self):
        enc, dec = _mirror_codecs()
        root = OrderKey(3, 0, None)
        a = OrderKey(7, 1, root)
        b = OrderKey(7, 2, root)
        w = shard_ipc.Writer()
        enc.encode(w, a)
        enc.encode(w, b)
        r = shard_ipc.Reader(bytes(w.buf))
        da, db = dec.decode(r), dec.decode(r)
        assert (da.t, da.i) == (7, 1) and (db.t, db.i) == (7, 2)
        assert da.p is db.p  # shared parent decodes to one object
        assert da < db and not (db < da)

    def test_retransmission_returns_original_object(self):
        enc, dec = _mirror_codecs()
        key = OrderKey(5, 0, OrderKey(1, 0, None))
        w = shard_ipc.Writer()
        enc.encode(w, key)
        enc.encode(w, key)  # second send: known key, id only
        r = shard_ipc.Reader(bytes(w.buf))
        first, second = dec.decode(r), dec.decode(r)
        assert first is second  # identity, not mere equality

    def test_none_key(self):
        enc, dec = _mirror_codecs()
        w = shard_ipc.Writer()
        enc.encode(w, None)
        assert dec.decode(shard_ipc.Reader(bytes(w.buf))) is None

    def test_seeded_keys_transmit_as_bare_ids(self):
        seed = KeyCodec(1)
        key = OrderKey(2, 0, OrderKey(0, 0, None))
        seed.seed([key])
        enc, dec = seed.clone(1), seed.clone(-1)
        w = shard_ipc.Writer()
        enc.encode(w, key)
        # chain length 0 (u32) + leaf id (i64): nothing re-described.
        assert len(w.buf) == 4 + 8
        assert dec.decode(shard_ipc.Reader(bytes(w.buf))) is key

    def test_disjoint_id_ranges(self):
        parent, worker = _mirror_codecs()
        pk, wk = OrderKey(1, 0, None), OrderKey(1, 1, None)
        assert parent.intern(pk) > 0
        assert worker.intern(wk) < 0


# ----------------------------------------------------------------------
# Record codecs
# ----------------------------------------------------------------------
class TestRecordCodecs:
    def test_advance_roundtrip(self):
        enc, dec = _mirror_codecs()
        key = OrderKey(9, 0, None)
        body = encode_advance(enc, 1234, 99, (9, key, 2), True)
        time_limit, budget, limit_pos, single_ok = decode_advance(dec, body)
        assert (time_limit, budget, single_ok) == (1234, 99, True)
        t, dkey, sub = limit_pos
        assert (t, sub) == (9, 2) and (dkey.t, dkey.i) == (9, 0)

    def test_advance_without_limit_pos(self):
        enc, dec = _mirror_codecs()
        body = encode_advance(enc, shard_ipc.TIME_INF, 7, None, False)
        assert decode_advance(dec, body) == (
            shard_ipc.TIME_INF, 7, None, False)

    def test_reply_roundtrip_all_intent_codes(self):
        enc, dec = _mirror_codecs()
        key = OrderKey(40, 0, None)
        minted = OrderKey(40, 3, key)
        intents = [
            (40, key, 0, ENSURE, (1, 0x44)),
            (40, key, 1, LOOKUP, (0, 0x55, 3, 41, minted)),
            (41, key, 2, NOC, (7, 0xF000, True, 12, 1)),
            (42, key, 3, WARP_DONE, (0, 9)),
        ]
        body = encode_reply(enc, 17, (40, key, 0), 5, 1000, 31415,
                            [(0, 10), (1, 20)], intents)
        reply = decode_reply(dec, body)
        assert reply["fired"] == 17
        assert reply["qlen"] == 5
        assert reply["floor_off"] == 1000
        assert reply["work_ns"] == 31415
        assert reply["instr"] == [(0, 10), (1, 20)]
        codes = [rec[3] for rec in reply["intents"]]
        assert codes == [ENSURE, LOOKUP, NOC, WARP_DONE]
        lookup = reply["intents"][1]
        assert lookup[4][:4] == (0, 0x55, 3, 41)
        assert (lookup[4][4].t, lookup[4][4].i) == (40, 3)
        noc = reply["intents"][2]
        assert noc[4] == (7, 0xF000, True, 12, 1)

    def test_deliveries_roundtrip_all_kinds(self):
        enc, dec = _mirror_codecs()
        key = OrderKey(8, 0, None)
        records = [
            (DELIVER_FINISH_XLAT, 8, key, 1, 100, (2, 0, 0x33, 0x77)),
            (DELIVER_CALL_TOKEN, 8, key, 2, 200, 5),
            (DELIVER_ADD_WARP, 9, key, 0, 0, (1, 4, 0, b"ops-pickle")),
        ]
        body = encode_deliveries(enc, records)
        out = decode_deliveries(dec, body)
        assert [rec[0] for rec in out] == [
            DELIVER_FINISH_XLAT, DELIVER_CALL_TOKEN, DELIVER_ADD_WARP]
        assert out[0][5] == (2, 0, 0x33, 0x77)
        assert out[1][5] == 5
        assert out[2][5] == (1, 4, 0, b"ops-pickle")
        # every record decodes to the same interned key object
        assert out[0][2] is out[1][2] is out[2][2]

    def test_unknown_intent_code_rejected(self):
        enc, _ = _mirror_codecs()
        with pytest.raises(WireError):
            encode_reply(enc, 0, None, 0, 0, 0, [],
                         [(0, None, 0, 250, ())])


# ----------------------------------------------------------------------
# Channel framing
# ----------------------------------------------------------------------
class TestChannel:
    def _pipe_pair(self):
        a_r, b_w = os.pipe()
        b_r, a_w = os.pipe()
        return Channel(a_r, a_w), Channel(b_r, b_w)

    def test_send_recv_roundtrip(self):
        a, b = self._pipe_pair()
        try:
            a.send(shard_ipc.MSG_ADVANCE, b"payload")
            mtype, body = b.recv()
            assert (mtype, body) == (shard_ipc.MSG_ADVANCE, b"payload")
            b.send(shard_ipc.MSG_REPLY, b"")
            assert a.recv() == (shard_ipc.MSG_REPLY, b"")
        finally:
            a.close()
            b.close()

    def test_version_mismatch_raises_wire_error(self):
        a, b = self._pipe_pair()
        try:
            bad = shard_ipc._HDR.pack(0, WIRE_VERSION + 1, shard_ipc.MSG_REPLY)
            os.write(a.wfd, bad)
            with pytest.raises(WireError):
                b.recv()
        finally:
            a.close()
            b.close()

    def test_peer_close_raises_channel_closed(self):
        a, b = self._pipe_pair()
        a.close()
        with pytest.raises(ChannelClosed):
            b.recv()
        with pytest.raises(ChannelClosed):
            b.send(shard_ipc.MSG_REPLY, b"x")
        b.close()


# ----------------------------------------------------------------------
# Chaos: worker death mid-run
# ----------------------------------------------------------------------
class TestWorkerDeath:
    def test_sigkill_mid_window_raises_typed_error_no_zombies(
            self, monkeypatch):
        """SIGKILL a shard worker between windows: the run must fail with
        a typed, attributed error and the pool must reap every worker —
        no hang, no zombies."""
        from repro.engine import shard_proc

        monkeypatch.setenv(BACKEND_ENV, "processes")
        manager = _proc_manager()
        state = {"advances": 0, "pids": None}
        real_send = shard_proc.ProcPool.send_advance

        def killing_send(pool, remote, time_limit, budget, single_ok):
            state["advances"] += 1
            if state["pids"] is None:
                state["pids"] = [r.pid for r in pool.remotes]
            if state["advances"] == 5:
                os.kill(remote.pid, signal.SIGKILL)
            return real_send(pool, remote, time_limit, budget, single_ok)

        monkeypatch.setattr(shard_proc.ProcPool, "send_advance",
                            killing_send)
        with pytest.raises(ShardWorkerError) as info:
            manager.run()
        err = info.value
        assert isinstance(err, SimulationError)
        assert err.context.get("shard_id") is not None
        assert err.context.get("pid") in state["pids"]
        # every worker was SIGKILLed and reaped: waitpid finds no child
        assert state["pids"]
        for pid in state["pids"]:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        pool = manager.sim._procs
        assert pool is not None and pool._closed
        manager.sim.close()  # idempotent after the failure teardown

    def test_closed_pool_refuses_reuse(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "processes")
        manager = _proc_manager()
        manager.run()
        manager.sim.close()
        with pytest.raises(SimulationError, match="closed"):
            manager.sim.run()


# ----------------------------------------------------------------------
# Degradation warnings
# ----------------------------------------------------------------------
class TestDegradation:
    def test_audit_hook_degrades_with_named_reason(self, monkeypatch):
        from repro.integrity import IntegrityConfig

        monkeypatch.setenv(BACKEND_ENV, "processes")
        manager = _proc_manager(
            integrity=IntegrityConfig(audit="cheap", audit_interval=64))
        with pytest.warns(RuntimeWarning, match="degraded to inline"):
            result = manager.run()
        assert result.total_cycles > 0
        assert manager.sim._procs is None  # never forked

    def test_degradation_result_matches_oracle(self, monkeypatch):
        serial = _proc_manager(shards=1).run()
        monkeypatch.setenv(BACKEND_ENV, "processes")
        manager = _proc_manager()
        sim = manager.sim
        # A stop_when predicate needs per-event polling: the processes
        # conductor cannot satisfy it, so the run degrades to inline.
        real_run = sim.run

        def run_with_predicate(until=None, stop_when=None, max_events=None):
            return real_run(until, stop_when or (lambda: False), max_events)

        monkeypatch.setattr(sim, "run", run_with_predicate)
        with pytest.warns(RuntimeWarning, match="stop_when"):
            degraded = manager.run()
        assert degraded.total_cycles == serial.total_cycles
        assert degraded.stats == serial.stats


# ----------------------------------------------------------------------
# RSS budget (PR-9 resource governance) inside workers
# ----------------------------------------------------------------------
class TestWorkerRssBudget:
    def test_worker_over_budget_raises_typed_error(self, monkeypatch):
        from repro.engine import shard_proc

        monkeypatch.setenv(BACKEND_ENV, "processes")
        monkeypatch.setenv(SHARD_RSS_ENV, "1")  # 1 MB: any worker exceeds
        monkeypatch.setattr(shard_proc, "_RSS_CHECK_PERIOD", 1)
        manager = _proc_manager()
        with pytest.raises(ResourceBudgetExceeded) as info:
            manager.run()
        assert "RSS" in str(info.value)
        assert info.value.context.get("shard_id") is not None
        assert manager.sim._procs._closed
        manager.sim.close()

    def test_invalid_budget_rejected(self, monkeypatch):
        from repro.engine.shard_proc import _rss_budget_from_env

        monkeypatch.setenv(SHARD_RSS_ENV, "lots")
        with pytest.raises(ValueError):
            _rss_budget_from_env()
        monkeypatch.setenv(SHARD_RSS_ENV, "-4")
        with pytest.raises(ValueError):
            _rss_budget_from_env()
        monkeypatch.setenv(SHARD_RSS_ENV, "512")
        assert _rss_budget_from_env() == 512.0
