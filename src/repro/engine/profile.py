"""Engine throughput instrumentation: events/sec and per-component counts.

The profiler answers two questions about a simulation:

* **How fast is the kernel?** — wall-clock events/sec over the profiled
  span, the headline number tracked by
  ``benchmarks/bench_engine_throughput.py`` in ``BENCH_engine.json``.
* **Where do the events go?** — a per-component breakdown keyed by the
  callback's ``module.qualname``, so a regression in, say, the page-walk
  FSM shows up as an event-count shift at ``repro.vm.walker``.

Attach to a simulator around any ``run`` call::

    from repro.engine.profile import EngineProfiler

    profiler = EngineProfiler()
    with profiler.attach(sim):
        sim.run(max_events=...)
    print(profiler.report())

While attached, the kernel takes its instrumented loop (one extra call
per event); a detached simulator pays nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Tuple


class EngineProfiler:
    """Accumulates event counts and wall time across attached runs."""

    def __init__(self) -> None:
        self.events = 0
        self.wall_seconds = 0.0
        self.component_counts: Dict[str, int] = {}
        #: sharded-engine telemetry (``ParallelSimulator.parallel_stats``),
        #: captured at detach when the attached kernel was sharded.
        self.parallel: Dict = {}

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    @staticmethod
    def _key(fn) -> str:
        # Callable instances (e.g. ``_Fill``) have no __qualname__ of
        # their own; key them by type so runs aggregate and the label
        # carries no id() address.
        qualname = getattr(fn, "__qualname__", None)
        if qualname is None:
            fn = type(fn)
            qualname = getattr(fn, "__qualname__", None) or repr(fn)
        return (getattr(fn, "__module__", None) or "?") + "." + qualname

    def record(self, event) -> None:
        """Count one fired event (called by the simulator's run loop)."""
        self.events += 1
        key = self._key(event.fn)
        counts = self.component_counts
        counts[key] = counts.get(key, 0) + 1

    def record_fn(self, fn) -> None:
        """Count one fired entry given its bare callback.

        The sharded kernel's queues store raw ``(fn, args)`` entries
        with no Event wrapper, so its conductor reports callbacks
        directly instead of building a throwaway Event for
        :meth:`record`.
        """
        self.events += 1
        key = self._key(fn)
        counts = self.component_counts
        counts[key] = counts.get(key, 0) + 1

    @contextmanager
    def attach(self, sim) -> Iterator["EngineProfiler"]:
        """Install on ``sim`` and time everything run while attached."""
        previous = sim.profiler
        sim.profiler = self
        start = perf_counter()
        try:
            yield self
        finally:
            self.wall_seconds += perf_counter() - start
            sim.profiler = previous
            parallel_stats = getattr(sim, "parallel_stats", None)
            if parallel_stats is not None:
                self.parallel = parallel_stats()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events / self.wall_seconds

    def top_components(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` busiest callbacks, descending by event count."""
        ranked = sorted(self.component_counts.items(),
                        key=lambda item: (-item[1], item[0]))
        return ranked[:n]

    def summary(self, top: int = 10) -> Dict:
        """JSON-portable view, as written into ``BENCH_engine.json``."""
        summary = {
            "events": self.events,
            "wall_seconds": self.wall_seconds,
            "events_per_sec": self.events_per_sec,
            "components": dict(self.top_components(top)),
        }
        if self.parallel:
            summary["parallel"] = dict(self.parallel)
        return summary

    def report(self, top: int = 10) -> str:
        """Human-readable top-N table of where the events went."""
        total = self.events
        lines = [
            f"{self.events} events in {self.wall_seconds:.3f}s "
            f"({self.events_per_sec:,.0f} events/sec)"
        ]
        for name, count in self.top_components(top):
            share = count / total if total else 0.0
            lines.append(f"  {count:>10}  {share:6.1%}  {name}")
        parallel = self.parallel
        if parallel:
            lines.append(self._parallel_report(parallel))
        return "\n".join(lines)

    @staticmethod
    def _parallel_report(stats: Dict) -> str:
        """Barrier/window breakdown of a sharded run: where the wall
        time went (shard-local advance vs boundary sync vs merge) and
        what the per-window critical path models as the multi-core
        wall time."""
        wall = stats.get("run_wall_ns", 0) or 1
        window = stats.get("window_ns", 0)
        barrier = stats.get("barrier_ns", 0)
        serial = max(wall - window - barrier, 0)
        events = stats.get("window_events", 0) + stats.get("serial_events", 0)
        in_window = (stats.get("window_events", 0) / events) if events else 0.0
        lines = [
            f"sharded x{stats.get('num_shards')} "
            f"({stats.get('backend')}, window={stats.get('window_span')}): "
            f"{stats.get('windows')} windows, "
            f"{stats.get('window_events')} window events "
            f"({in_window:.1%}), {stats.get('serial_events')} serial events, "
            f"{stats.get('intents_flushed')} intents",
            f"  shard advance {window / wall:6.1%}   "
            f"boundary sync {serial / wall:6.1%}   "
            f"merge {barrier / wall:6.1%}   of {wall / 1e6:,.1f} ms",
            f"  critical path {stats.get('critical_ns', 0) / 1e6:,.1f} ms -> "
            f"modeled multi-core wall "
            f"{stats.get('modeled_wall_ns', 0) / 1e6:,.1f} ms",
        ]
        return "\n".join(lines)
