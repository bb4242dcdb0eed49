"""Event-queue ordering contract: differential equivalence, cancellation,
handles, and stop() among same-cycle events.

The file keeps the name of the calendar queue the heap kernel replaced;
the contract is unchanged.  The queue must be observationally identical
to the seed heap kernel (:class:`HeapEventQueue`) for every
push/push_raw/pop/cancel interleaving — same events, same order, bit for
bit — and must pop exactly the ``(time, seq)`` order of its live
entries.
"""

import random

import pytest

from repro.engine.event import EventQueue
from repro.engine.simulator import SimulationError, Simulator
from tests.reference_engines import HeapEventQueue


def _noop():
    pass


def drain_labels(queue):
    """Pop everything, returning the (time, seq) identity sequence."""
    out = []
    while True:
        event = queue.pop()
        if event is None:
            return out
        out.append((event.time, event.seq))


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_schedule_matches_heap(self, seed):
        rng = random.Random(seed)
        queue, heap = EventQueue(), HeapEventQueue()
        live = {}  # seq -> (time, handle or None); seq counts every push
        pushes = 0
        now = 0
        for _ in range(2000):
            action = rng.random()
            if action < 0.55:
                # Same-cycle (FIFO tie-break), near and far pushes.
                time = now + rng.choice((0, 1, rng.randrange(64),
                                         rng.randrange(20_000)))
                if rng.random() < 0.5:
                    handle = (queue.push(time, _noop),
                              heap.push(time, _noop))
                    assert handle[0].seq == pushes
                else:
                    handle = None
                    queue.push_raw(time, _noop, ())
                    heap.push_raw(time, _noop, ())
                live[pushes] = (time, handle)
                pushes += 1
            elif action < 0.75:
                cancellable = [seq for seq, (_, h) in live.items() if h]
                if cancellable:
                    seq = rng.choice(cancellable)
                    for handle in live.pop(seq)[1]:
                        handle.cancel()
            else:
                a, b = queue.pop(), heap.pop()
                if live:
                    seq = min(live, key=lambda k: (live[k][0], k))
                    assert (a.time, a.seq) == (b.time, b.seq) == (
                        live.pop(seq)[0], seq)
                    now = a.time
                else:
                    assert a is None and b is None
            assert len(queue) == len(live)
        expected = sorted((time, seq) for seq, (time, _) in live.items())
        assert drain_labels(queue) == drain_labels(heap) == expected

    def test_same_cycle_fifo_order(self):
        queue = EventQueue()
        events = [queue.push(7, _noop) for _ in range(100)]
        order = [queue.pop() for _ in range(100)]
        assert [e.seq for e in order] == [e.seq for e in events]

    def test_overflow_migration_preserves_fifo(self):
        # Far-future events pushed before the clock advances and
        # events pushed to the same cycle afterwards fire in push
        # order (lower seq first).
        queue = EventQueue()
        far = 3 * 4096
        early_batch = [queue.push(far, _noop) for _ in range(8)]
        stepper = queue.push(4096 + 1, _noop)
        assert queue.pop() is stepper
        late_batch = [queue.push(far, _noop) for _ in range(8)]
        fired = [queue.pop() for _ in range(16)]
        assert fired == early_batch + late_batch


class TestRegions:
    def test_past_time_raw_push_still_sorts(self):
        # The raw queue API (no Simulator) accepts pushes behind the
        # last popped time; they sort before everything else.
        queue = EventQueue()
        queue.push(100, _noop)
        assert queue.pop().time == 100
        behind = queue.push(10, _noop)
        ahead = queue.push(150, _noop)
        assert queue.pop() is behind
        assert queue.pop() is ahead

    @pytest.mark.parametrize("delay", [0, 3, 8192])
    def test_cancellation_in_each_region(self, delay):
        queue = EventQueue()
        doomed = queue.push(delay, _noop)
        survivor = queue.push(delay, _noop)
        doomed.cancel()
        assert queue.pop() is survivor
        assert queue.pop() is None

    def test_cancelled_event_behind_front_cache(self):
        # peek_time() must not report a head that was cancelled after
        # it was peeked.
        queue = EventQueue()
        first = queue.push(5, _noop)
        assert queue.peek_time() == 5
        first.cancel()
        second = queue.push(9, _noop)
        assert queue.peek_time() == 9
        assert queue.pop() is second


class TestLiveCount:
    def test_len_excludes_cancelled(self):
        queue = EventQueue()
        events = [queue.push(i, _noop) for i in range(10)]
        assert len(queue) == 10
        for event in events[:4]:
            event.cancel()
        assert len(queue) == 6
        events[0].cancel()  # double-cancel must not double-count
        assert len(queue) == 6

    def test_popped_event_late_cancel_is_noop(self):
        queue = EventQueue()
        event = queue.push(1, _noop)
        queue.push(2, _noop)
        assert queue.pop() is event
        event.cancel()  # already delivered: no accounting change
        assert len(queue) == 1

    def test_drain_ignores_cancelled_backlog(self):
        # drain()'s runaway check must not misfire when the heap still
        # holds cancelled tombstones after exactly max_events real events.
        sim = Simulator()
        for i in range(10):
            sim.at(i, _noop)
        for i in range(5):
            sim.at(20 + i, _noop).cancel()
        assert sim.drain(max_events=10) == 10


class TestRecycling:
    def test_held_handle_is_never_recycled(self):
        # A handle stays the object it was after delivery: later pushes
        # never reuse it, so a late cancel() can only touch itself.
        queue = EventQueue()
        held = queue.push(1, _noop)
        assert queue.pop() is held
        later = queue.push(2, _noop)
        assert later is not held
        held.cancel()
        assert (held.time, held.seq) == (1, 0)
        assert not later.cancelled
        assert queue.pop() is later


class TestSimulatorIntegration:
    def test_stop_flag_halts_at_event_boundary(self):
        sim = Simulator()
        fired = []
        sim.at(1, fired.append, 1)
        sim.at(2, sim.stop)
        sim.at(3, fired.append, 3)
        assert sim.run() == 2
        assert fired == [1]
        assert len(sim.events) == 1  # the t=3 event is still pending

    def test_past_schedule_rejected(self):
        sim = Simulator()
        sim.at(5, _noop)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(4, _noop)

    def test_tombstones_neither_count_nor_move_the_clock(self):
        sim = Simulator()
        sim.at(5, _noop)
        sim.at(9, _noop).cancel()
        assert sim.run() == 1
        assert sim.now == 5
        assert len(sim.events) == 0


class TestCompletionBatchHalt:
    """stop() called among same-cycle completions halts at that callback.

    Memory completions landing in one cycle are separate raw entries
    (they once shared one batch carrier); a callback that calls
    ``stop()`` must leave the rest of its cycle undelivered — on the
    fused loop and on the peeking loop alike — and the next ``run()``
    must deliver them first.
    """

    @staticmethod
    def _stop_among_three(sim, fired, time=5, raw=True):
        def stopper():
            fired.append("b")
            sim.stop()

        schedule = sim.post_at if raw else sim.at
        schedule(time, fired.append, "a")
        schedule(time, stopper)
        schedule(time, fired.append, "c")

    def test_stop_mid_batch_freezes_tail(self):
        sim = Simulator()
        fired = []
        self._stop_among_three(sim, fired)
        assert sim.run() == 2
        assert fired == ["a", "b"]
        assert len(sim.events) == 1

    def test_resume_delivers_frozen_tail(self):
        sim = Simulator()
        fired = []
        self._stop_among_three(sim, fired)
        sim.post_at(9, fired.append, "d")
        sim.run()
        assert fired == ["a", "b"]
        sim.run()  # resume: the same-cycle tail first, then later work
        assert fired == ["a", "b", "c", "d"]
        assert sim.now == 9

    def test_halt_matches_unbatched_schedule(self):
        # Differential: handle events and raw entries halt identically.
        plain, fired_plain = Simulator(), []
        self._stop_among_three(plain, fired_plain, raw=False)
        plain.run()
        raw, fired_raw = Simulator(), []
        self._stop_among_three(raw, fired_raw)
        raw.run()
        assert fired_raw == fired_plain == ["a", "b"]
        assert plain.now == raw.now == 5

    def test_halt_respected_under_delivery_observer(self):
        # A stop_when predicate routes run() through the peeking loop,
        # which must honour stop() between same-cycle entries too.
        sim = Simulator()
        fired = []
        polls = []
        self._stop_among_three(sim, fired, time=3)
        sim.run(stop_when=lambda: polls.append(sim.now) or False)
        assert fired == ["a", "b"]
        # Polled before "a" and before "b"; stop() ends the loop before
        # a third poll could let "c" through.
        assert polls == [0, 3]

    def test_next_run_clears_stale_halt(self):
        sim = Simulator()
        sim.stop()  # set the flag with nothing in flight
        fired = []
        sim.post_at(2, fired.append, "x")
        sim.run()
        assert fired == ["x"]
