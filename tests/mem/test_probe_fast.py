"""``Tlb.probe_fast`` equivalence: the per-access L1-TLB probe must
leave the TLB in exactly the state :meth:`Tlb.lookup` would, and report
the hit latency on a hit."""

from repro.engine.config import TlbConfig
from repro.engine.simulator import Simulator
from repro.vm.tlb import Tlb


class TestTlbProbeFast:
    @staticmethod
    def make_tlb():
        sim = Simulator()
        tlb = Tlb(sim, TlbConfig(entries=8, associativity=2, hit_latency=2,
                                 mshr_entries=8), name="t")
        return sim, tlb

    def test_hit_returns_latency_with_lookup_side_effects(self):
        sim, tlb = self.make_tlb()
        tlb.insert(0, 7, 42)
        assert tlb.probe_fast(0, 7) == 2
        assert sim.stats.counter("t.lookups").value == 1
        assert sim.stats.counter("t.hits").value == 1
        assert sim.stats.counter("t.misses").value == 0

    def test_miss_counts_like_lookup(self):
        sim, tlb = self.make_tlb()
        assert tlb.probe_fast(0, 7) == -1
        assert sim.stats.counter("t.lookups").value == 1
        assert sim.stats.counter("t.misses").value == 1

    def test_probe_and_lookup_agree_on_state(self):
        """Interleaving probe_fast and lookup must leave identical LRU
        state to lookups alone — probe_fast *is* a lookup."""
        sim_a, fast = self.make_tlb()
        sim_b, slow = self.make_tlb()
        for tlb in (fast, slow):
            tlb.insert(0, 1, 11)
            tlb.insert(0, 3, 33)
        fast.probe_fast(0, 1)
        slow.lookup(0, 1)
        # next insert into the same set evicts the same victim
        fast.insert(0, 5, 55)
        slow.insert(0, 5, 55)
        assert [dict(s) for s in fast._sets] == [dict(s) for s in slow._sets]
