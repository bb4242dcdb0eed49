"""Wire protocol for the multi-process shard backend.

The ``processes`` backend keeps each shard's full simulator state resident
in a forked worker for the lifetime of the run.  Only two kinds of traffic
cross process lines, both tiny:

* **down** — per-window commands (advance limits, budget) and boundary
  *deliveries* (translation completions, interconnect callbacks, warp
  launches) addressed to a specific shard;
* **up** — compact replies carrying the shard's new queue front, its
  completion-floor offset, and the boundary intents it parked during the
  advance.

Everything here is deliberately dependency-free (stdlib ``struct`` +
``pickle`` for the cold paths) and synchronous: a worker only runs while
servicing a command, so the conductor always observes quiescent state
between messages.

Framing
-------
Every message is ``<u32 length><u8 version><u8 type>`` followed by
``length`` body bytes.  Hot records (advance commands, replies, intent and
delivery records) are packed with ``struct``; cold payloads (warp op
streams, stats diffs, exceptions) ride as embedded pickles.

Key interning
-------------
``OrderKey`` ordering compares node *identity* (``a.p is b.p``), so keys
cannot be value-reconstructed on the far side — two structurally equal
chains would diverge from the serial schedule.  Instead both endpoints of
a channel share a :class:`KeyCodec`: an interning table seeded with every
key reachable from the pre-fork event queues (``os.fork`` preserves object
addresses, so the child inherits a valid table), after which each side
mints wire ids from a disjoint range (parent positive, worker negative).
A key is transmitted as the chain of not-yet-interned ancestors
(root-first) followed by the leaf's id; retransmission of a known key is a
single integer and decodes to the *original object*, preserving identity.
"""

from __future__ import annotations

import os
import pickle
import struct
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.engine.shard import OrderKey

WIRE_VERSION = 1

# Message types (parent -> worker unless noted).
MSG_ADVANCE = 1    # run the shard until the encoded limits
MSG_DELIVER = 2    # boundary completions / warp launches
MSG_FINALIZE = 3   # settle the shard clock, reply with a stats diff
MSG_SHUTDOWN = 4   # exit cleanly
MSG_REPLY = 5      # worker -> parent: advance results + parked intents
MSG_STATS = 6      # worker -> parent: finalize stats diff
MSG_ERROR = 7      # worker -> parent: pickled exception, then exit

# Delivery record kinds.
DELIVER_FINISH_XLAT = 0   # translation completion for a parked lookup
DELIVER_CALL_TOKEN = 1    # interconnect completion for a parked access
DELIVER_ADD_WARP = 2      # warp (re)launch into one of the shard's SMs

#: i-index span reserved per parent-side execution that continues inside a
#: worker.  Continuation deliveries carry ``base_i``; the worker runs the
#: remainder of the execution with ``Ctx(key, base_i)`` so its pushes sort
#: after the parent half's without ever colliding (each execution runs on
#: exactly one side at a time, and only relative order is observable).
I_SPAN = 1 << 20

#: Sentinel for "no time limit" in advance commands.
TIME_INF = 1 << 62

_HDR = struct.Struct("<IBB")
_I64 = struct.Struct("<q")
_U32 = struct.Struct("<I")
_KEY_NODE = struct.Struct("<qqqq")  # wire id, t, i, parent wire id


class WireError(Exception):
    """Malformed or version-mismatched message."""


class ChannelClosed(Exception):
    """The peer's end of the pipe closed (worker death or parent exit)."""


class Writer:
    """Append-only little-endian record builder."""

    __slots__ = ("buf",)

    def __init__(self) -> None:
        self.buf = bytearray()

    def u8(self, value: int) -> None:
        self.buf.append(value & 0xFF)

    def u32(self, value: int) -> None:
        self.buf += _U32.pack(value)

    def i64(self, value: int) -> None:
        self.buf += _I64.pack(value)

    def blob(self, data: bytes) -> None:
        self.buf += _U32.pack(len(data))
        self.buf += data


class Reader:
    """Cursor over a received message body."""

    __slots__ = ("view", "pos")

    def __init__(self, data: bytes) -> None:
        self.view = data
        self.pos = 0

    def u8(self) -> int:
        value = self.view[self.pos]
        self.pos += 1
        return value

    def u32(self) -> int:
        (value,) = _U32.unpack_from(self.view, self.pos)
        self.pos += 4
        return value

    def i64(self) -> int:
        (value,) = _I64.unpack_from(self.view, self.pos)
        self.pos += 8
        return value

    def blob(self) -> bytes:
        n = self.u32()
        data = bytes(self.view[self.pos:self.pos + n])
        self.pos += n
        return data


class KeyCodec:
    """Bidirectional interning table for :class:`OrderKey` chains.

    Both endpoints hold mirror tables mapping wire ids to key objects.
    ``_by_obj`` is keyed by ``id(key)``; ``_by_id`` holds a strong
    reference to every interned key, so an interned object can never be
    collected and its ``id`` never reused.  Wire id 0 is ``None``; the
    parent mints positive ids, the worker negative ones, so concurrent
    minting on the two ends can never collide.
    """

    __slots__ = ("_by_obj", "_by_id", "_next", "_step")

    def __init__(self, step: int = 1) -> None:
        self._by_obj: Dict[int, int] = {}
        self._by_id: Dict[int, OrderKey] = {}
        self._next = step
        self._step = step

    def intern(self, key: OrderKey) -> int:
        wid = self._next
        self._next += self._step
        self._by_obj[id(key)] = wid
        self._by_id[wid] = key
        return wid

    def seed(self, keys: Iterable[Optional[OrderKey]]) -> None:
        """Intern every key chain in ``keys`` (root-first), pre-fork."""
        by_obj = self._by_obj
        for key in keys:
            chain: List[OrderKey] = []
            node = key
            while node is not None and id(node) not in by_obj:
                chain.append(node)
                node = node.p
            for item in reversed(chain):
                self.intern(item)

    def clone(self, step: int) -> "KeyCodec":
        """A codec sharing this one's table but minting from ``step``'s range."""
        other = KeyCodec(step)
        other._by_obj = dict(self._by_obj)
        other._by_id = dict(self._by_id)
        if step > 0:
            other._next = self._next
        return other

    def encode(self, w: Writer, key: Optional[OrderKey]) -> None:
        by_obj = self._by_obj
        chain: List[OrderKey] = []
        node = key
        while node is not None and id(node) not in by_obj:
            chain.append(node)
            node = node.p
        w.u32(len(chain))
        for item in reversed(chain):
            parent_id = 0 if item.p is None else by_obj[id(item.p)]
            wid = self.intern(item)
            w.buf += _KEY_NODE.pack(wid, item.t, item.i, parent_id)
        w.i64(0 if key is None else by_obj[id(key)])

    def decode(self, r: Reader) -> Optional[OrderKey]:
        by_id = self._by_id
        for _ in range(r.u32()):
            wid, t, i, parent_id = _KEY_NODE.unpack_from(r.view, r.pos)
            r.pos += _KEY_NODE.size
            parent = None if parent_id == 0 else by_id[parent_id]
            key = OrderKey(t, i, parent)
            self._by_obj[id(key)] = wid
            by_id[wid] = key
        wid = r.i64()
        return None if wid == 0 else by_id[wid]


class Channel:
    """Framed, blocking message transport over a pair of pipe fds."""

    __slots__ = ("rfd", "wfd", "closed")

    def __init__(self, rfd: int, wfd: int) -> None:
        self.rfd = rfd
        self.wfd = wfd
        self.closed = False

    def send(self, mtype: int, body: bytes) -> None:
        data = _HDR.pack(len(body), WIRE_VERSION, mtype) + body
        try:
            view = memoryview(data)
            while view:
                written = os.write(self.wfd, view)
                view = view[written:]
        except (BrokenPipeError, OSError) as exc:
            raise ChannelClosed(str(exc)) from exc

    def recv(self) -> Tuple[int, bytes]:
        header = self._read_exact(_HDR.size)
        length, version, mtype = _HDR.unpack(header)
        if version != WIRE_VERSION:
            raise WireError(
                f"wire version mismatch: got {version}, expected {WIRE_VERSION}"
            )
        body = self._read_exact(length) if length else b""
        return mtype, body

    def _read_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            try:
                chunk = os.read(self.rfd, remaining)
            except OSError as exc:
                raise ChannelClosed(str(exc)) from exc
            if not chunk:
                raise ChannelClosed("peer closed the pipe")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks) if len(chunks) != 1 else chunks[0]

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for fd in (self.rfd, self.wfd):
            try:
                os.close(fd)
            except OSError:
                pass


# ---------------------------------------------------------------------------
# Command / reply codecs.  Intent payload layouts mirror the park formats in
# engine/shard.py; the NOC callback is tokenized worker-side (token -1 means
# the writeback no-op, which the parent replays locally).
# ---------------------------------------------------------------------------

def encode_advance(
    codec: KeyCodec,
    time_limit: int,
    budget: int,
    limit_pos: Optional[Tuple[int, Optional[OrderKey], int]],
    single_ok: bool,
) -> bytes:
    w = Writer()
    w.i64(time_limit)
    w.i64(budget)
    w.u8((1 if limit_pos is not None else 0) | (2 if single_ok else 0))
    if limit_pos is not None:
        t, key, sub = limit_pos
        w.i64(t)
        codec.encode(w, key)
        w.i64(sub)
    return bytes(w.buf)


def decode_advance(codec: KeyCodec, body: bytes):
    r = Reader(body)
    time_limit = r.i64()
    budget = r.i64()
    flags = r.u8()
    limit_pos = None
    if flags & 1:
        t = r.i64()
        key = codec.decode(r)
        sub = r.i64()
        limit_pos = (t, key, sub)
    return time_limit, budget, limit_pos, bool(flags & 2)


def encode_reply(
    codec: KeyCodec,
    fired: int,
    front: Optional[Tuple[int, Optional[OrderKey], int]],
    qlen: int,
    floor_off: int,
    work_ns: int,
    instr: List[Tuple[int, int]],
    intents: List[tuple],
) -> bytes:
    from repro.engine.shard import ENSURE, LOOKUP, NOC, WARP_DONE

    w = Writer()
    w.i64(fired)
    w.u8(1 if front is not None else 0)
    if front is not None:
        t, key, sub = front
        w.i64(t)
        codec.encode(w, key)
        w.i64(sub)
    w.i64(qlen)
    w.i64(floor_off)
    w.i64(work_ns)
    w.u32(len(instr))
    for tenant_id, count in instr:
        w.i64(tenant_id)
        w.i64(count)
    w.u32(len(intents))
    for t, key, seq, code, payload in intents:
        w.u8(code)
        w.i64(t)
        codec.encode(w, key)
        w.i64(seq)
        if code == ENSURE:
            tenant_id, vpn = payload
            w.i64(tenant_id)
            w.i64(vpn)
        elif code == LOOKUP:
            tenant_id, vpn, sm_id, sched, minted = payload
            w.i64(tenant_id)
            w.i64(vpn)
            w.i64(sm_id)
            w.i64(sched)
            codec.encode(w, minted)
        elif code == NOC:
            i_snap, addr, is_write, token, tenant_id = payload
            w.i64(i_snap)
            w.i64(addr)
            w.u8(1 if is_write else 0)
            w.i64(token)
            w.i64(tenant_id)
        elif code == WARP_DONE:
            tenant_id, i_snap = payload
            w.i64(tenant_id)
            w.i64(i_snap)
        else:  # pragma: no cover - park() is the only producer
            raise WireError(f"unknown intent code {code}")
    return bytes(w.buf)


def decode_reply(codec: KeyCodec, body: bytes) -> dict:
    from repro.engine.shard import ENSURE, LOOKUP, NOC, WARP_DONE

    r = Reader(body)
    fired = r.i64()
    front = None
    if r.u8():
        t = r.i64()
        key = codec.decode(r)
        sub = r.i64()
        front = (t, key, sub)
    qlen = r.i64()
    floor_off = r.i64()
    work_ns = r.i64()
    instr = [(r.i64(), r.i64()) for _ in range(r.u32())]
    intents = []
    for _ in range(r.u32()):
        code = r.u8()
        t = r.i64()
        key = codec.decode(r)
        seq = r.i64()
        if code == ENSURE:
            payload = (r.i64(), r.i64())
        elif code == LOOKUP:
            payload = (r.i64(), r.i64(), r.i64(), r.i64(), codec.decode(r))
        elif code == NOC:
            payload = (r.i64(), r.i64(), bool(r.u8()), r.i64(), r.i64())
        elif code == WARP_DONE:
            payload = (r.i64(), r.i64())
        else:
            raise WireError(f"unknown intent code {code}")
        intents.append((t, key, seq, code, payload))
    return {
        "fired": fired,
        "front": front,
        "qlen": qlen,
        "floor_off": floor_off,
        "work_ns": work_ns,
        "instr": instr,
        "intents": intents,
    }


def encode_deliveries(codec: KeyCodec, records: List[tuple]) -> bytes:
    w = Writer()
    w.u32(len(records))
    for kind, t, key, sub, base_i, payload in records:
        w.u8(kind)
        w.i64(t)
        codec.encode(w, key)
        w.i64(sub)
        w.i64(base_i)
        if kind == DELIVER_FINISH_XLAT:
            sm_id, tenant_id, vpn, frame = payload
            w.i64(sm_id)
            w.i64(tenant_id)
            w.i64(vpn)
            w.i64(frame)
        elif kind == DELIVER_CALL_TOKEN:
            w.i64(payload)
        elif kind == DELIVER_ADD_WARP:
            sm_id, warp_id, tenant_id, ops_blob = payload
            w.i64(sm_id)
            w.i64(warp_id)
            w.i64(tenant_id)
            w.blob(ops_blob)
        else:  # pragma: no cover - emitters are the only producers
            raise WireError(f"unknown delivery kind {kind}")
    return bytes(w.buf)


def decode_deliveries(codec: KeyCodec, body: bytes) -> List[tuple]:
    r = Reader(body)
    records = []
    for _ in range(r.u32()):
        kind = r.u8()
        t = r.i64()
        key = codec.decode(r)
        sub = r.i64()
        base_i = r.i64()
        if kind == DELIVER_FINISH_XLAT:
            payload = (r.i64(), r.i64(), r.i64(), r.i64())
        elif kind == DELIVER_CALL_TOKEN:
            payload = r.i64()
        elif kind == DELIVER_ADD_WARP:
            payload = (r.i64(), r.i64(), r.i64(), r.blob())
        else:
            raise WireError(f"unknown delivery kind {kind}")
        records.append((kind, t, key, sub, base_i, payload))
    return records


def pack_pickle(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def unpack_pickle(body: bytes):
    return pickle.loads(body)
