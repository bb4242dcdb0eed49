"""Multi-process shard backend: forked workers + the conductor's pool.

The ``processes`` backend of :class:`~repro.engine.parallel_sim.
ParallelSimulator` forks one worker per shard at the first ``run()``
(after the launch phase, before any event has fired).  ``os.fork`` gives
every worker a perfect replica of the whole simulation; ownership is
then split once and never migrates:

* the **worker** owns its shard — the SMs, their warp schedulers, L1
  data caches, L1 TLBs, translation MSHRs and the shard event queue —
  and advances them in place for the lifetime of the run;
* the **parent** owns the boundary — page tables and frame allocator,
  L2 TLBs, walker pools, NoC/L2/DRAM, tenant contexts and the manager
  callbacks — and conducts the global schedule.

Only commands, parked boundary intents and boundary *deliveries* cross
process lines (see :mod:`repro.engine.shard_ipc`); per-window state
pickling never happens.  A worker only executes while servicing a
command, so the parent always observes quiescent workers between
messages — which is what makes the completion-floor and stats-diff
protocols exact.

Worker death (OOM kill, SIGKILL, crash) surfaces as a typed
:class:`ShardWorkerError` carrying the shard id, pid and the worker's
traceback when one was transmitted; the pool SIGKILLs and reaps every
remaining worker before raising, so no zombies survive the failure.
Workers set ``PR_SET_PDEATHSIG`` so a dying parent reaps them by
construction, and they sample their own RSS against the
``REPRO_SHARD_RSS_MB`` budget (PR-9 resource governance) between
advances.
"""

from __future__ import annotations

import os
import signal
import time as _time
import warnings
from heapq import heappop
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.shard import (NOC, CountingStream, Ctx, ProcShardGpuPort,
                                Shard, _writeback_noop)
from repro.engine.shard_ipc import (DELIVER_ADD_WARP, DELIVER_CALL_TOKEN,
                                    DELIVER_FINISH_XLAT, MSG_ADVANCE,
                                    MSG_DELIVER, MSG_ERROR, MSG_FINALIZE,
                                    MSG_REPLY, MSG_SHUTDOWN, MSG_STATS,
                                    TIME_INF, Channel, ChannelClosed,
                                    KeyCodec, Reader, Writer, decode_advance,
                                    decode_deliveries, decode_reply,
                                    encode_advance, encode_deliveries,
                                    encode_reply, pack_pickle, unpack_pickle)
from repro.engine.simulator import SimulationError
from repro.gpu.warp import Warp

#: Environment variable bounding each shard worker's resident set (MB).
SHARD_RSS_ENV = "REPRO_SHARD_RSS_MB"

#: How many advance commands between worker RSS self-checks.
_RSS_CHECK_PERIOD = 64

#: Bounded reap patience, mirroring harness.parallel.WorkerPool.kill().
_REAP_TIMEOUT_S = 2.0


class ShardWorkerError(SimulationError):
    """A shard worker process died or failed mid-protocol."""


def _stats_values(registry) -> Dict[str, tuple]:
    """Raw (replayable) values of every counter/accumulator in ``registry``.

    Only the kinds that appear in ``snapshot()`` — samplers and
    histograms on shard-private components are never read on the parent
    side, and the boundary-side ones only ever mutate in the parent.
    """
    from repro.engine.stats import Accumulator, Counter

    out: Dict[str, tuple] = {}
    for name, stat in registry._stats.items():
        if type(stat) is Counter:
            out[name] = ("c", stat.value)
        elif type(stat) is Accumulator:
            out[name] = ("a", stat.total, stat.count, stat.min, stat.max)
    return out


class RemoteShard:
    """The conductor's view of one forked shard worker."""

    __slots__ = ("shard_id", "pid", "chan", "codec", "front", "qlen",
                 "floor", "outstanding", "deliveries", "work_ns")

    def __init__(self, shard_id: int, pid: int, chan: Channel,
                 codec: KeyCodec) -> None:
        self.shard_id = shard_id
        self.pid = pid
        self.chan = chan
        self.codec = codec
        #: (t, key, sub) of the worker's earliest entry, or None.
        self.front: Optional[tuple] = None
        self.qlen = 0
        #: absolute lower bound on the earliest warp completion in this
        #: shard (TIME_INF when it has no live streams).
        self.floor: float = TIME_INF
        #: in-flight boundary responses addressed to this shard: parked
        #: lookups awaiting their translation fill, parked data misses
        #: awaiting their interconnect callback.  While zero, nothing in
        #: the boundary queue can deliver into this shard, so its
        #: horizon ignores the boundary front entirely.
        self.outstanding = 0
        #: delivery records buffered until the next message to the worker.
        self.deliveries: List[tuple] = []
        self.work_ns = 0


class RemoteSink:
    """Parent-side stand-in for a worker callback parked with a data miss.

    The interconnect/L2/DRAM chain calls it exactly where the serial
    engine would have called the worker's ``on_done``; it forwards the
    call as a ``CALL_TOKEN`` delivery carrying the current execution
    position, so the worker resumes the callback at the same point of
    the schedule with the same minting context.
    """

    __slots__ = ("engine", "remote", "token")

    def __init__(self, engine, remote: RemoteShard, token: int) -> None:
        self.engine = engine
        self.remote = remote
        self.token = token

    def __call__(self) -> None:
        remote = self.remote
        remote.outstanding -= 1
        self.engine._emit_continuation(remote, DELIVER_CALL_TOKEN, self.token)


class ProcPool:
    """Forks, feeds and reaps the per-shard worker processes."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.remotes: List[RemoteShard] = []
        self.parent_baseline: Dict[str, tuple] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def spawn(self) -> None:
        """Fork one worker per shard and collect their hello replies.

        Must run after every launch and before any event fires: the
        fork point is the identity anchor — both sides inherit the same
        object graph, so the pre-seeded key codec's identity tables stay
        valid in the children.
        """
        engine = self.engine
        seed = KeyCodec(1)
        seed.seed(entry[1] for q in engine._queues for entry in q.heap)
        rss_budget = _rss_budget_from_env()
        parent_fds: List[int] = []
        lock = engine.stats._create_lock
        for shard in engine.shards:
            cmd_r, cmd_w = os.pipe()
            rsp_r, rsp_w = os.pipe()
            with lock:
                pid = os.fork()
            if pid == 0:
                # -- child ------------------------------------------------
                for fd in parent_fds:
                    try:
                        os.close(fd)
                    except OSError:
                        pass
                os.close(cmd_w)
                os.close(rsp_r)
                _set_pdeathsig()
                chan = Channel(cmd_r, rsp_w)
                runtime = _WorkerRuntime(engine, shard, chan,
                                         seed.clone(-1), rss_budget)
                runtime.serve()  # never returns
                os._exit(0)  # pragma: no cover - serve always exits
            # -- parent ---------------------------------------------------
            os.close(cmd_r)
            os.close(rsp_w)
            parent_fds.extend((cmd_w, rsp_r))
            remote = RemoteShard(shard.shard_id, pid,
                                 Channel(rsp_r, cmd_w), seed.clone(1))
            self.remotes.append(remote)
        self.parent_baseline = _stats_values(engine.stats)
        for remote in self.remotes:
            reply = self.recv_reply(remote)
            self._absorb_front(remote, reply)

    def _absorb_front(self, remote: RemoteShard, reply: dict) -> None:
        remote.front = reply["front"]
        remote.qlen = reply["qlen"]
        remote.floor = reply["floor_off"]

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def flush_deliveries(self, remote: RemoteShard) -> None:
        if not remote.deliveries:
            return
        body = encode_deliveries(remote.codec, remote.deliveries)
        remote.deliveries.clear()
        self._send(remote, MSG_DELIVER, body)

    def send_advance(self, remote: RemoteShard, time_limit: int,
                     budget: int, single_ok: bool) -> None:
        self.flush_deliveries(remote)
        body = encode_advance(remote.codec, time_limit, budget, None,
                              single_ok)
        self._send(remote, MSG_ADVANCE, body)

    def _send(self, remote: RemoteShard, mtype: int, body: bytes) -> None:
        try:
            remote.chan.send(mtype, body)
        except ChannelClosed:
            self._worker_died(remote, "while sending a command")

    def recv_reply(self, remote: RemoteShard) -> dict:
        try:
            mtype, body = remote.chan.recv()
        except ChannelClosed:
            self._worker_died(remote, "while awaiting its reply")
        if mtype == MSG_ERROR:
            self._raise_worker_error(remote, body)
        if mtype != MSG_REPLY:
            self.kill()
            raise ShardWorkerError(
                f"shard worker {remote.shard_id} sent unexpected message "
                f"type {mtype}", shard_id=remote.shard_id, pid=remote.pid)
        return decode_reply(remote.codec, body)

    def _worker_died(self, remote: RemoteShard, phase: str) -> None:
        self.kill()
        raise ShardWorkerError(
            f"shard worker {remote.shard_id} (pid {remote.pid}) died "
            f"{phase}; the pool has been torn down",
            shard_id=remote.shard_id, pid=remote.pid)

    def _raise_worker_error(self, remote: RemoteShard, body: bytes) -> None:
        exc: Optional[BaseException] = None
        trace = ""
        try:
            exc, trace = unpack_pickle(body)
        except Exception:
            pass
        self.kill()
        if isinstance(exc, SimulationError):
            exc.context.setdefault("shard_id", remote.shard_id)
            exc.context.setdefault("worker_traceback", trace)
            raise exc
        detail = f": {exc!r}" if exc is not None else ""
        raise ShardWorkerError(
            f"shard worker {remote.shard_id} (pid {remote.pid}) "
            f"failed{detail}", shard_id=remote.shard_id, pid=remote.pid,
            worker_traceback=trace)

    # ------------------------------------------------------------------
    # Finalize / teardown
    # ------------------------------------------------------------------
    def finalize(self, now: int) -> None:
        """Settle worker clocks and fold their stats diffs into the parent.

        Workers report only the counters/accumulators that changed since
        the fork (or the previous finalize); the parent *replaces* its
        values with the worker's — sharding partitions stat ownership,
        and the assertion below catches any stat both sides touched.
        """
        registry = self.engine.stats
        baseline = self.parent_baseline
        w = Writer()
        w.i64(now)
        body = bytes(w.buf)
        for remote in self.remotes:
            self.flush_deliveries(remote)
            self._send(remote, MSG_FINALIZE, body)
        for remote in self.remotes:
            try:
                mtype, payload = remote.chan.recv()
            except ChannelClosed:
                self._worker_died(remote, "during finalize")
            if mtype == MSG_ERROR:
                self._raise_worker_error(remote, payload)
            if mtype != MSG_STATS:
                self.kill()
                raise ShardWorkerError(
                    f"shard worker {remote.shard_id} sent message type "
                    f"{mtype} during finalize",
                    shard_id=remote.shard_id, pid=remote.pid)
            diff = unpack_pickle(payload)
            for name in sorted(diff):
                value = diff[name]
                current = _stat_value(registry, name)
                before = baseline.get(name)
                if (current is not None and before is not None
                        and current != before):
                    self.kill()
                    raise ShardWorkerError(
                        f"stat {name!r} was modified on both sides of the "
                        "shard fork; ownership must be exclusive",
                        shard_id=remote.shard_id, stat=name)
                _apply_stat(registry, name, value)
                baseline[name] = value

    def close(self) -> None:
        """Orderly shutdown: SHUTDOWN message, bounded reap, SIGKILL rest."""
        if self._closed:
            return
        self._closed = True
        for remote in self.remotes:
            try:
                remote.chan.send(MSG_SHUTDOWN, b"")
            except ChannelClosed:
                pass
        self._reap()
        for remote in self.remotes:
            remote.chan.close()

    def kill(self) -> None:
        """SIGKILL every worker and reap; used on the failure path."""
        if self._closed:
            return
        self._closed = True
        for remote in self.remotes:
            try:
                os.kill(remote.pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):
                pass
        self._reap(force_first=False)
        for remote in self.remotes:
            remote.chan.close()

    def _reap(self, force_first: bool = True) -> None:
        pending = {remote.pid for remote in self.remotes}
        deadline = _time.monotonic() + _REAP_TIMEOUT_S
        while pending and _time.monotonic() < deadline:
            for pid in list(pending):
                try:
                    done, _status = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done = pid
                if done:
                    pending.discard(pid)
            if pending:
                _time.sleep(0.01)
        if pending and force_first:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, OSError):
                    pass
            deadline = _time.monotonic() + _REAP_TIMEOUT_S
            while pending and _time.monotonic() < deadline:
                for pid in list(pending):
                    try:
                        done, _status = os.waitpid(pid, os.WNOHANG)
                    except ChildProcessError:
                        done = pid
                    if done:
                        pending.discard(pid)
                if pending:
                    _time.sleep(0.01)
        if pending:  # pragma: no cover - kernel refusing SIGKILL
            warnings.warn(
                f"shard workers {sorted(pending)} survived SIGKILL + "
                "bounded reap; abandoning them", RuntimeWarning,
                stacklevel=2)


def _stat_value(registry, name: str) -> Optional[tuple]:
    from repro.engine.stats import Accumulator, Counter

    stat = registry._stats.get(name)
    if type(stat) is Counter:
        return ("c", stat.value)
    if type(stat) is Accumulator:
        return ("a", stat.total, stat.count, stat.min, stat.max)
    return None


def _apply_stat(registry, name: str, value: tuple) -> None:
    if value[0] == "c":
        registry.counter(name).value = value[1]
    else:
        acc = registry.accumulator(name)
        acc.total, acc.count, acc.min, acc.max = value[1:]


def _rss_budget_from_env() -> Optional[float]:
    raw = os.environ.get(SHARD_RSS_ENV)
    if raw is None or raw == "":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{SHARD_RSS_ENV} must be a number, got {raw!r}")
    if value <= 0:
        raise ValueError(f"{SHARD_RSS_ENV} must be positive, got {value}")
    return value


def _set_pdeathsig() -> None:
    """Ask the kernel to SIGKILL this worker when the parent dies."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL, 0, 0, 0)  # PR_SET_PDEATHSIG
    except Exception:  # pragma: no cover - non-Linux fallback
        pass


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

class _WorkerRuntime:
    """The forked child: owns one shard, serves conductor commands."""

    def __init__(self, engine, shard: Shard, chan: Channel,
                 codec: KeyCodec, rss_budget: Optional[float]) -> None:
        self.engine = engine
        self.shard = shard
        self.gpu = engine.gpu
        self.chan = chan
        self.codec = codec
        self.rss_budget = rss_budget
        self.tokens: Dict[int, Callable[[], None]] = {}
        self.next_token = 0
        self.streams: List[CountingStream] = \
            engine._shard_streams[shard.shard_id]
        self.baseline = _stats_values(engine.stats)
        self._advances = 0
        self._rebind()

    def _rebind(self) -> None:
        """Flip the shard into worker mode.

        The GPU port becomes :class:`ProcShardGpuPort` (frame-from-TLB
        hit path, WARP_DONE parking) and ``gpu._translate`` — reached
        from the overflow drain inside delivered translation fills — is
        shadowed with a variant that reads frames from the L1 TLB and
        schedules on the shard queue, because the worker's replica page
        table and boundary queue are frozen at fork.
        """
        engine = self.engine
        engine.in_window = True
        gpu = self.gpu
        shard = self.shard
        port = gpu.sms[shard.sm_ids[0]].gpu
        port.__class__ = ProcShardGpuPort
        ssim = shard.sim

        def translate(sm_id: int, tenant_id: int, vpn: int,
                      on_translated: Callable[[int], None],
                      _gpu=gpu, _port=port, _ssim=ssim) -> None:
            frame = _gpu.l1_tlbs[sm_id].probe_fast_frame(tenant_id, vpn)
            if frame is not None:
                _ssim.post_after(_gpu._l1_hit_latency, on_translated, frame)
                return
            _port._translate_miss(sm_id, tenant_id, vpn, on_translated)

        gpu._translate = translate

    # ------------------------------------------------------------------
    def serve(self) -> None:
        chan = self.chan
        try:
            self._send_reply(fired=0, work_ns=0)
            while True:
                mtype, body = chan.recv()
                if mtype == MSG_ADVANCE:
                    limits = decode_advance(self.codec, body)
                    time_limit, budget, _limit_pos, single_ok = limits
                    t0 = perf_counter_ns()
                    fired = self._advance(time_limit, budget, single_ok)
                    self._send_reply(fired, perf_counter_ns() - t0)
                elif mtype == MSG_DELIVER:
                    for record in decode_deliveries(self.codec, body):
                        self._apply_delivery(record)
                elif mtype == MSG_FINALIZE:
                    now = Reader(body).i64()
                    sim = self.shard.sim
                    if sim.now < now:
                        sim.now = now
                    diff = self._stats_diff()
                    chan.send(MSG_STATS, pack_pickle(diff))
                elif mtype == MSG_SHUTDOWN:
                    chan.close()
                    os._exit(0)
                else:
                    raise ShardWorkerError(
                        f"unknown message type {mtype} in shard worker",
                        shard_id=self.shard.shard_id)
        except ChannelClosed:
            # Parent vanished: nothing to report to, just die quietly.
            os._exit(1)
        except BaseException as exc:  # noqa: BLE001 - forwarded verbatim
            import traceback

            trace = traceback.format_exc()
            try:
                chan.send(MSG_ERROR, pack_pickle((exc, trace)))
            except Exception:
                try:
                    chan.send(MSG_ERROR, pack_pickle(
                        (SimulationError(f"{type(exc).__name__}: {exc}"),
                         trace)))
                except Exception:
                    pass
            os._exit(1)

    # ------------------------------------------------------------------
    def _advance(self, time_limit: int, budget: int,
                 single_ok: bool) -> int:
        """Fire shard entries below the limits (one forced fire allowed).

        Mirrors the in-process ``_advance_shard`` loop; ``single_ok``
        marks a command whose front entry is the *global* minimum, so
        firing exactly it — even at the time limit — reproduces the
        conductor's serial step.  The dynamic cap (earliest possible
        response to an intent parked during this very advance) is
        re-read every iteration, exactly as in-process windows do.
        """
        self._check_rss()
        shard = self.shard
        sim = shard.sim
        q = sim.events
        heap = q.heap
        shard.cap = float("inf")
        fired = 0
        while heap and fired < budget:
            top = heap[0]
            t = top[0]
            if t >= shard.cap:
                break
            forced = t >= time_limit
            if forced and (fired or not single_ok):
                break
            heappop(heap)
            q._live -= 1
            sim.now = t
            q.ctx = Ctx(top[1], 0)
            top[3](*top[4])
            fired += 1
            if forced:
                break
        shard.events_fired += fired
        return fired

    def _check_rss(self) -> None:
        budget = self.rss_budget
        if budget is None:
            return
        self._advances += 1
        if self._advances % _RSS_CHECK_PERIOD:
            return
        from repro.harness.resources import (ResourceBudgetExceeded,
                                             current_rss_mb)

        rss = current_rss_mb()
        if rss > budget:
            raise ResourceBudgetExceeded(
                f"shard worker {self.shard.shard_id} RSS {rss:.0f} MB "
                f"exceeds {SHARD_RSS_ENV}={budget:.0f} MB",
                resource="memory", shard_id=self.shard.shard_id)

    # ------------------------------------------------------------------
    def _send_reply(self, fired: int, work_ns: int) -> None:
        shard = self.shard
        q = shard.sim.events
        wire_intents = []
        for t, key, seq, code, payload in shard.intents:
            if code == NOC:
                _exec_key, i_snap, addr, is_write, on_done, tenant_id = \
                    payload
                if on_done is _writeback_noop:
                    token = -1
                else:
                    token = self.next_token
                    self.next_token += 1
                    self.tokens[token] = on_done
                payload = (i_snap, addr, is_write, token, tenant_id)
            wire_intents.append((t, key, seq, code, payload))
        shard.intents.clear()
        instr = sorted(shard.instr_delta.items())
        shard.instr_delta.clear()
        body = encode_reply(
            self.codec, fired, q.front_key(), len(q), self._floor(),
            work_ns, instr, wire_intents)
        self.chan.send(MSG_REPLY, body)

    def _floor(self) -> int:
        """Absolute earliest possible warp completion in this shard.

        ``now + min_remaining_cycles()`` is monotone non-decreasing per
        stream (each pull holds the issue port for at least the cost it
        removes from the suffix — see ``CountingStream``), so the value
        reported at one quiescent point stays a valid lower bound until
        the next reply refreshes it.
        """
        now = self.shard.sim.now
        best = TIME_INF
        live = []
        for stream in self.streams:
            if stream.done:
                continue
            live.append(stream)
            cand = now + stream.min_remaining_cycles()
            if cand < best:
                best = cand
        self.streams[:] = live
        return best

    # ------------------------------------------------------------------
    def _apply_delivery(self, record: tuple) -> None:
        kind, t, key, sub, base_i, payload = record
        q = self.shard.sim.events
        if kind == DELIVER_FINISH_XLAT:
            sm_id, tenant_id, vpn, frame = payload
            q.push_keyed(t, key, sub, self._fire_finish,
                         (key, base_i, sm_id, tenant_id, vpn, frame))
        elif kind == DELIVER_CALL_TOKEN:
            q.push_keyed(t, key, sub, self._fire_token,
                         (key, base_i, payload))
        elif kind == DELIVER_ADD_WARP:
            sm_id, warp_id, tenant_id, ops_blob = payload
            # Register the stream *now*, not at fire time: the floor
            # reported by the next reply must already bound this warp's
            # completion (>= apply-time now + the stream's minimum
            # cycles, since the entry fires no earlier than now).
            stream = CountingStream(unpack_pickle(ops_blob))
            self.streams.append(stream)
            q.push_keyed(t, key, sub, self._fire_add_warp,
                         (sm_id, warp_id, tenant_id, stream))
        else:  # pragma: no cover - decode already validated
            raise ShardWorkerError(f"unknown delivery kind {kind}")

    def _fire_finish(self, key, base_i: int, sm_id: int, tenant_id: int,
                     vpn: int, frame: int) -> None:
        # The parent ran the boundary half of _finish_translation (the
        # L2 fill under the mask policy); this is the shard half — L1
        # fill, MSHR waiter drain, overflow drain — continuing the
        # parent execution's minting context at its reserved i-offset.
        self.shard.sim.events.ctx = Ctx(key, base_i)
        self.gpu._finish_translation(sm_id, tenant_id, vpn, frame, False)

    def _fire_token(self, key, base_i: int, token: int) -> None:
        callback = self.tokens.pop(token)
        self.shard.sim.events.ctx = Ctx(key, base_i)
        callback()

    def _fire_add_warp(self, sm_id: int, warp_id: int, tenant_id: int,
                       stream: CountingStream) -> None:
        # The entry *is* Sm._advance_warp's first firing; add_warp's
        # push-time side effects (warp construction, the SM's active
        # count) replay here — an unobservable shift, the serial engine
        # reads none of them between the push and the fire.
        warp = Warp(warp_id, tenant_id, stream)
        sm = self.gpu.sms[sm_id]
        sm.active_warps += 1
        sm._advance_warp(warp)

    # ------------------------------------------------------------------
    def _stats_diff(self) -> Dict[str, tuple]:
        current = _stats_values(self.engine.stats)
        baseline = self.baseline
        diff = {name: value for name, value in current.items()
                if baseline.get(name) != value}
        self.baseline = current
        return diff
