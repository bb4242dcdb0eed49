"""Event primitives and the event queue of the simulator.

The queue is a plain binary heap (:mod:`heapq`) of
``(time, seq, fn, args)`` tuples.  ``seq`` is one global push counter,
so tuple comparison never reaches ``fn`` and events scheduled for the
same cycle fire in FIFO order — this determinism matters for
reproducibility of queueing behaviour at the page walkers.

Most entries are handle-free: components schedule with
:meth:`EventQueue.push_raw` and never cancel.  Pushes that need a
cancellation handle (:meth:`EventQueue.push`) store an :class:`Event`
in the entry instead, marked by ``fn is None``; a cancelled one stays in
the heap as a tombstone and is skipped when popped.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Optional, Tuple


class Event:
    """A scheduled callback.

    Holding a reference to the :class:`Event` allows cancellation: a
    cancelled event stays in the queue but is skipped when popped.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_queue")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any],
                 args: Tuple[Any, ...], queue: "Optional[EventQueue]" = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the simulator discards it instead of firing it."""
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._dead += 1

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} seq={self.seq} {self.fn!r}{state}>"


class EventQueue:
    """Heap-backed priority queue of ``(time, seq, fn, args)`` entries.

    ``len()`` counts *live* (non-cancelled, not yet popped) entries
    only, so callers like :meth:`Simulator.drain`'s runaway check never
    mistake a backlog of cancelled tombstones for pending work.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._next_seq = itertools.count().__next__
        #: cancelled entries still in the heap
        self._dead = 0

    def __len__(self) -> int:
        return len(self._heap) - self._dead

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time``; returns the event."""
        return self.push_packed(time, fn, args)

    def push_packed(self, time: int, fn: Callable[..., Any],
                    args: Tuple[Any, ...]) -> Event:
        """Like :meth:`push` with ``args`` already packed."""
        seq = self._next_seq()
        event = Event(time, seq, fn, args, self)
        heappush(self._heap, (time, seq, None, event))
        return event

    def push_raw(self, time: int, fn: Callable[..., Any],
                 args: Tuple[Any, ...]) -> None:
        """Handle-free scheduling: the production hot path.

        No :class:`Event` is created and the entry cannot be cancelled;
        it shares the ``seq`` counter with :meth:`push`, so same-cycle
        FIFO order holds across both kinds.
        """
        heappush(self._heap, (time, self._next_seq(), fn, args))

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live entry as an Event.

        Raw entries are wrapped into a fresh Event on the way out so
        ``step()``, the peeking run loop and tests see one uniform type;
        the fused loop (:meth:`run_fast`) never pays for this.
        """
        heap = self._heap
        while heap:
            time, seq, fn, args = heappop(heap)
            if fn is not None:
                return Event(time, seq, fn, args)
            if args.cancelled:
                self._dead -= 1
                continue
            # Once delivered, a late cancel() is a no-op for accounting.
            args._queue = None
            return args
        return None

    def peek_time(self) -> Optional[int]:
        """Time of the earliest live entry without removing it."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2] is None and head[3].cancelled:
                heappop(heap)
                self._dead -= 1
                continue
            return head[0]
        return None

    def run_fast(self, sim, budget: int) -> int:
        """The fused hot loop: pop and fire without peeking.

        Equivalent to repeatedly calling :meth:`pop` and firing.
        ``sim.now`` is advanced before each callback; the loop honours
        ``budget`` and ``sim._stop`` after every delivery.  Returns the
        number of entries fired.
        """
        heap = self._heap
        pop = heappop
        fired = 0
        while fired < budget and not sim._stop and heap:
            time, _, fn, args = pop(heap)
            if fn is None:
                if args.cancelled:
                    self._dead -= 1
                    continue
                args._queue = None
                fn = args.fn
                args = args.args
            sim.now = time
            fired += 1
            fn(*args)
        return fired
