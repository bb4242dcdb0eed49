"""The page walk cache (PWC): partial translations for skipping levels.

Before a walker starts a walk it probes the PWC for the longest prefix
match on the virtual page number (paper Section II, citing Barr et al.'s
translation caching).  A match of depth *k* means the first *k* levels of
the radix walk can be skipped, reducing the walk's memory accesses from
``depth`` to ``depth - k`` (a hit can never skip the leaf PTE access, so
usable depths are 1 .. depth-1).

The PWC is fully associative with global LRU and is shared across all
walkers — and across tenants, so entries are tenant-tagged.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from repro.engine.simulator import Simulator
from repro.vm.address import AddressLayout


class PageWalkCache:
    """Fully-associative, LRU cache of (tenant, prefix-depth, prefix) tags."""

    def __init__(
        self,
        sim: Simulator,
        layout: AddressLayout,
        entries: int,
        name: str = "pwc",
    ) -> None:
        if entries <= 0:
            raise ValueError("PWC needs at least one entry")
        self.sim = sim
        self.layout = layout
        self.entries = entries
        self.name = name
        self._lru: "OrderedDict[Tuple[int, int, int], None]" = OrderedDict()
        # Hot-path scalars: probe() runs per walk and fill() per
        # completion, so the layout's prefix arithmetic is inlined via
        # its per-depth shift table and the depth bound cached.
        self._max_depth = layout.depth - 1
        self._prefix_shifts = layout._prefix_shifts
        stats = sim.stats
        self._hits = sim.stats.counter(f"{name}.hits")
        self._misses = stats.counter(f"{name}.misses")
        self._skipped = stats.counter(f"{name}.levels_skipped")

    @property
    def max_depth(self) -> int:
        """Deepest useful prefix: everything but the leaf level."""
        return self.layout.depth - 1

    # ------------------------------------------------------------------
    # Probe / fill
    # ------------------------------------------------------------------
    def probe(self, tenant_id: int, vpn: int) -> int:
        """Longest-prefix match; returns the number of levels to skip.

        0 means a PWC miss (full walk required).
        """
        lru = self._lru
        shifts = self._prefix_shifts
        for depth in range(self._max_depth, 0, -1):
            key = (tenant_id, depth, vpn >> shifts[depth])
            if key in lru:
                lru.move_to_end(key)
                self._hits.value += 1
                self._skipped.value += depth
                return depth
        self._misses.value += 1
        return 0

    def fill(self, tenant_id: int, vpn: int) -> None:
        """Install the partial translations a completed walk produced."""
        shifts = self._prefix_shifts
        for depth in range(1, self._max_depth + 1):
            self._insert((tenant_id, depth, vpn >> shifts[depth]))

    def _insert(self, key: Tuple[int, int, int]) -> None:
        if key in self._lru:
            self._lru.move_to_end(key)
            return
        if len(self._lru) >= self.entries:
            self._lru.popitem(last=False)
        self._lru[key] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._lru)

    def resident(self, tenant_id: int) -> int:
        return sum(1 for (t, _, _) in self._lru if t == tenant_id)
