"""Unit tests for the sharded engine's primitives (DESIGN.md §13).

The integration suite (``tests/integration/test_shard_differential.py``)
proves whole-run byte-identity; these tests pin the pieces that identity
rests on — the :class:`OrderKey` total order, the keyed queue's pop
order, the counting streams behind the completion floor, and the
engine/shard-count selection plumbing.
"""

import os

import pytest

from repro.engine.config import SHARDS_ENV, shards_from_env
from repro.engine.parallel_sim import DEFAULT_WINDOW, ParallelSimulator
from repro.engine.shard import Ctx, CountingStream, KeyedQueue, OrderKey


# ----------------------------------------------------------------------
# OrderKey: the serial (time, seq) order without a global counter
# ----------------------------------------------------------------------
class TestOrderKey:
    def test_time_dominates(self):
        root = OrderKey(0, 0, None)
        assert OrderKey(5, 9, root) < OrderKey(6, 0, root)
        assert not OrderKey(6, 0, root) < OrderKey(5, 9, root)

    def test_same_parent_ties_on_push_index(self):
        parent = OrderKey(3, 0, None)
        a = OrderKey(7, 0, parent)
        b = OrderKey(7, 1, parent)
        assert a < b
        assert not b < a

    def test_launch_push_precedes_event_push(self):
        # A None parent is a pre-run launch push: at equal fire times it
        # precedes anything pushed from inside an event.
        launch = OrderKey(4, 2, None)
        from_event = OrderKey(4, 0, OrderKey(2, 0, None))
        assert launch < from_event
        assert not from_event < launch

    def test_equal_time_resolves_by_pushing_execution(self):
        # Two entries for cycle 10, pushed by executions that fired at
        # cycle 10 in a known order: the earlier execution's push wins
        # regardless of intra-execution indices.
        early = OrderKey(10, 0, OrderKey(10, 0, None))
        late = OrderKey(10, 5, OrderKey(10, 1, None))
        assert OrderKey(10, 9, early) < OrderKey(10, 0, late)

    def test_not_less_than_self(self):
        k = OrderKey(1, 1, OrderKey(0, 0, None))
        assert not k < k

    def test_deep_chain_terminates(self):
        # Same-time ancestor chains walk iteratively, not recursively.
        a = OrderKey(0, 0, None)
        b = OrderKey(0, 1, None)
        for _ in range(5000):
            a = OrderKey(0, 0, a)
            b = OrderKey(0, 0, b)
        assert a < b
        assert not b < a


# ----------------------------------------------------------------------
# KeyedQueue
# ----------------------------------------------------------------------
class TestKeyedQueue:
    def test_pushes_from_one_ctx_pop_fifo_at_equal_time(self):
        q = KeyedQueue()
        fired = []
        for tag in ("a", "b", "c"):
            q.push_raw(5, fired.append, (tag,))
        while True:
            entry = q.take()
            if entry is None:
                break
            entry[3](*entry[4])
        assert fired == ["a", "b", "c"]
        assert len(q) == 0

    def test_intent_replay_sorts_by_park_sequence(self):
        # Intents reuse their execution's key; the sub field (the park
        # sequence) must decide the tie without ever comparing fn.
        q = KeyedQueue()
        key = OrderKey(3, 0, None)
        fired = []
        q.push_keyed(3, key, 2, fired.append, ("second",))
        q.push_keyed(3, key, 1, fired.append, ("first",))
        for _ in range(2):
            entry = q.take()
            entry[3](*entry[4])
        assert fired == ["first", "second"]

    def test_handle_push_supports_cancellation(self):
        q = KeyedQueue()
        fired = []
        handle = q.push(4, fired.append, "x")
        handle.cancel()
        entry = q.take()
        entry[3](*entry[4])
        assert fired == []

    def test_cross_queue_pushes_interleave_serially(self):
        # Two queues sharing one ctx (the serial-step arrangement) mint
        # globally ordered keys: merging the fronts reproduces the push
        # order even though the entries live in different heaps.
        a, b = KeyedQueue(), KeyedQueue()
        ctx = Ctx(None)
        a.ctx = ctx
        b.ctx = ctx
        a.push_raw(2, lambda: None, ())
        b.push_raw(2, lambda: None, ())
        a.push_raw(2, lambda: None, ())
        (_, ka, _), (_, kb, _) = a.front_key(), b.front_key()
        assert ka < kb  # a's first push precedes b's
        a.take()
        (_, ka2, _) = a.front_key()
        assert kb < ka2  # b's push precedes a's second push


# ----------------------------------------------------------------------
# CountingStream: the completion floor's measuring stick
# ----------------------------------------------------------------------
class TestCountingStream:
    def test_materializes_and_counts_down(self):
        s = CountingStream(iter([10, 20, 30]))
        assert s.remaining == 3
        assert next(s) == 10
        assert s.remaining == 2
        assert list(s) == [20, 30]
        assert s.remaining == 0

    def test_done_flag_set_on_exhaustion(self):
        s = CountingStream([1])
        assert not s.done
        next(s)
        assert not s.done  # not done until a pull *fails*
        with pytest.raises(StopIteration):
            next(s)
        assert s.done

    def test_empty_stream(self):
        s = CountingStream([])
        assert s.remaining == 0
        with pytest.raises(StopIteration):
            next(s)
        assert s.done


# ----------------------------------------------------------------------
# Selection plumbing
# ----------------------------------------------------------------------
class TestShardsFromEnv:
    def setup_method(self):
        os.environ.pop(SHARDS_ENV, None)

    teardown_method = setup_method

    def test_default_when_unset(self):
        assert shards_from_env(1) == 1
        assert shards_from_env(7) == 7

    def test_reads_value(self):
        os.environ[SHARDS_ENV] = "4"
        assert shards_from_env(1) == 4

    def test_rejects_garbage(self):
        os.environ[SHARDS_ENV] = "many"
        with pytest.raises(ValueError):
            shards_from_env()

    def test_rejects_nonpositive(self):
        os.environ[SHARDS_ENV] = "0"
        with pytest.raises(ValueError):
            shards_from_env()


class TestParallelSimulatorConstruction:
    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            ParallelSimulator(0)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            ParallelSimulator(2, backend="fibers")

    def test_window_env_override(self):
        os.environ["REPRO_SHARD_WINDOW"] = "128"
        try:
            assert ParallelSimulator(2).window == 128
        finally:
            del os.environ["REPRO_SHARD_WINDOW"]
        assert ParallelSimulator(2).window == DEFAULT_WINDOW


class TestCampaignShardGuard:
    def test_clamp_math(self):
        from repro.harness.campaign import clamp_workers_for_shards

        # no sharding: pass through untouched, including None
        assert clamp_workers_for_shards(None, 1) == (None, None)
        assert clamp_workers_for_shards(8, 1) == (8, None)
        # inline backend: one core per simulation, nothing to clamp
        assert clamp_workers_for_shards(
            8, 4, cpu_count=8, backend="inline") == (8, None)
        # default worker count becomes the shard-aware budget silently
        assert clamp_workers_for_shards(
            None, 4, cpu_count=8, backend="threads") == (2, None)
        # explicit fit passes through
        assert clamp_workers_for_shards(
            2, 4, cpu_count=8, backend="processes") == (2, None)
        # explicit oversubscription clamps with a warning message
        workers, warning = clamp_workers_for_shards(
            8, 4, cpu_count=8, backend="processes")
        assert workers == 2
        assert "oversubscribes" in warning
        assert "processes" in warning
        # never below one worker
        workers, _ = clamp_workers_for_shards(
            4, 16, cpu_count=4, backend="threads")
        assert workers == 1

    def test_clamp_reads_backend_from_env(self, monkeypatch):
        from repro.harness.campaign import clamp_workers_for_shards

        monkeypatch.delenv("REPRO_SHARD_BACKEND", raising=False)
        # unset environment means the inline default: no clamp
        assert clamp_workers_for_shards(8, 4, cpu_count=8) == (8, None)
        monkeypatch.setenv("REPRO_SHARD_BACKEND", "processes")
        workers, warning = clamp_workers_for_shards(8, 4, cpu_count=8)
        assert workers == 2 and "oversubscribes" in warning
