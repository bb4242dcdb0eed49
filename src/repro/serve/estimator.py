"""Estimate tier: MPMI-band nearest-neighbor over cached configurations.

When a placement query misses the exact tier and the backend cannot (or
should not) simulate, the service still owes a typed answer.  This
module interpolates one from what has already been simulated: a sidecar
index (``serve_index.json`` beside the result cache's ``costs.json``,
keyed the same flat-string way) records the headline metrics of every
result the server has seen — exact-tier hits and fresh background
simulations alike — and :meth:`ServeIndex.estimate` answers a miss from
its nearest neighbors.

"Nearest" is dominated by the paper's own workload taxonomy: each
benchmark has a static Light/Medium/Heavy MPMI band (Table II), and the
band signature of a mix predicts its contention behaviour far better
than any single config knob.  Distance is therefore band distance first
(sum of per-tenant band-rank deltas, tenants matched in sorted order),
then log-footprint distance as the intra-band refinement, then
log-ratio distance on the swept hardware knobs (L2 TLB entries, walker
count).  The top ``k`` neighbors contribute inverse-distance-weighted
means of each numeric metric.

Estimates are advisory by construction: losing or corrupting the index
only costs estimate coverage, never correctness — exactly the
``costs.json`` contract.  Every estimate payload carries its ``basis``
(the neighbor keys and distances), and the server labels the response
``estimate=True``; degraded answers are never silently exact-shaped.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.fsutil import atomic_write_json
from repro.workloads.suite import BENCHMARKS

#: Index file name, beside ``costs.json`` under the cache root.
INDEX_FILE = "serve_index.json"

#: Band ranks for the paper's Light/Medium/Heavy taxonomy.
_BAND_RANK = {"L": 0, "M": 1, "H": 2}

#: A whole band step dwarfs any intra-band footprint difference.
_BAND_WEIGHT = 10.0

#: Neighbors that contribute to one estimate.
DEFAULT_NEIGHBORS = 3


def band_rank(name: str) -> int:
    """Static band rank of one benchmark (0=Light, 1=Medium, 2=Heavy)."""
    return _BAND_RANK[BENCHMARKS[name].category]


def band_signature(names: Sequence[str]) -> Tuple[int, ...]:
    """Sorted band ranks of a mix — its contention fingerprint."""
    return tuple(sorted(band_rank(n) for n in names))


def _log_footprints(names: Sequence[str]) -> Tuple[float, ...]:
    return tuple(sorted(
        math.log2(BENCHMARKS[n].footprint_bytes + 1) for n in names))


def _knob_distance(a: Optional[int], b: Optional[int],
                   default: int) -> float:
    """Log-ratio distance on one hardware knob (None = baseline)."""
    va = a if a is not None else default
    vb = b if b is not None else default
    return abs(math.log2(va) - math.log2(vb))


def index_key(names: Sequence[str], policy: str,
              l2_tlb_entries: Optional[int],
              walker_count: Optional[int]) -> str:
    """Flat string key, ``costs.json`` style: human-greppable, stable."""
    return (f"{'.'.join(names)}|{policy}"
            f"|tlb{l2_tlb_entries if l2_tlb_entries is not None else 'base'}"
            f"|ptw{walker_count if walker_count is not None else 'base'}")


class ServeIndex:
    """Persisted metric index feeding the estimate tier."""

    FORMAT = 1

    def __init__(self, root, neighbors: int = DEFAULT_NEIGHBORS) -> None:
        self.path = Path(root) / INDEX_FILE
        self.neighbors = neighbors
        self._lock = threading.Lock()
        self._entries: Dict[str, dict] = {}
        self._load()

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text())
            if raw.get("format") == self.FORMAT:
                entries = raw.get("entries", {})
                if isinstance(entries, dict):
                    self._entries = {str(k): dict(v)
                                     for k, v in entries.items()
                                     if isinstance(v, dict)}
        except (OSError, ValueError, TypeError):
            self._entries = {}  # advisory data: start empty, never raise

    def _save_locked(self) -> None:
        try:
            atomic_write_json(self.path, {"format": self.FORMAT,
                                          "entries": self._entries},
                              sort_keys=True)
        except OSError:
            pass  # a full disk must not fail a query

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def record(self, names: Sequence[str], policy: str,
               l2_tlb_entries: Optional[int], walker_count: Optional[int],
               metrics: dict) -> None:
        """Fold one simulated result's metrics into the index.

        The sidecar is rewritten only when the entry is new or its
        content changed, so a repeated exact answer writes nothing.
        """
        entry = {
            "names": list(names), "policy": policy,
            "l2_tlb_entries": l2_tlb_entries, "walker_count": walker_count,
            "total_ipc": float(metrics.get("total_ipc", 0.0)),
            "walk_latency_worst": float(
                metrics.get("walk_latency_worst", 0.0)),
            "walk_latency_mean": _mean_walk(metrics),
        }
        key = index_key(names, policy, l2_tlb_entries, walker_count)
        with self._lock:
            if self._entries.get(key) == entry:
                return
            self._entries[key] = entry
            self._save_locked()

    # ------------------------------------------------------------------
    def estimate(self, names: Sequence[str], policy: str,
                 l2_tlb_entries: Optional[int] = None,
                 walker_count: Optional[int] = None) -> Optional[dict]:
        """Interpolated metrics payload for a miss, or ``None``.

        Only same-policy, same-tenant-count entries are eligible (a DWS
        number says nothing about baseline queueing, and band matching
        is positional).  Returns the inverse-distance-weighted metric
        means plus the ``basis`` that produced them.
        """
        target_sig = band_signature(names)
        target_fp = _log_footprints(names)
        baseline_tlb, baseline_ptw = 1024, 16
        with self._lock:
            candidates = [
                (key, entry) for key, entry in self._entries.items()
                if entry.get("policy") == policy
                and len(entry.get("names", ())) == len(names)
            ]
        scored: List[Tuple[float, str, dict]] = []
        for key, entry in candidates:
            try:
                sig = band_signature(entry["names"])
                fp = _log_footprints(entry["names"])
            except KeyError:
                continue  # index references a benchmark we no longer ship
            band_dist = sum(abs(a - b) for a, b in zip(target_sig, sig))
            fp_dist = sum(abs(a - b) for a, b in zip(target_fp, fp))
            knob_dist = (
                _knob_distance(l2_tlb_entries, entry.get("l2_tlb_entries"),
                               baseline_tlb)
                + _knob_distance(walker_count, entry.get("walker_count"),
                                 baseline_ptw))
            distance = band_dist * _BAND_WEIGHT + fp_dist + knob_dist
            scored.append((distance, key, entry))
        if not scored:
            return None
        scored.sort(key=lambda item: (item[0], item[1]))
        nearest = scored[:self.neighbors]
        weights = [1.0 / (1.0 + distance) for distance, _k, _e in nearest]
        total_weight = sum(weights)

        def blend(field: str) -> float:
            return sum(w * float(e.get(field, 0.0))
                       for w, (_d, _k, e) in zip(weights, nearest)
                       ) / total_weight

        return {
            "total_ipc": blend("total_ipc"),
            "walk_latency_worst": blend("walk_latency_worst"),
            "walk_latency_mean": blend("walk_latency_mean"),
            "basis": [{"key": key, "distance": distance}
                      for distance, key, _e in nearest],
        }


def _mean_walk(metrics: dict) -> float:
    tenants = metrics.get("tenants") or []
    walks = [float(t.get("walk_latency_mean", 0.0)) for t in tenants]
    if walks:
        return sum(walks) / len(walks)
    return float(metrics.get("walk_latency_mean", 0.0))
