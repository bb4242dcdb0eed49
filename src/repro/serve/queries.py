"""Typed queries and responses for the capacity-planning service.

The service's headline robustness property — *no admitted query is ever
dropped without a typed answer* — starts with the vocabulary: every
answer is a :class:`QueryResponse` whose ``status`` names exactly how it
was produced (or why it was not), and whose ``estimate`` flag is the
honesty bit: ``True`` whenever the payload was interpolated rather than
simulated, no matter which degraded path produced it.

Two query kinds cover the placement questions the examples ask:

* ``metrics`` — "what does mix M look like under policy P / config C?"
  Answered with total IPC, per-tenant IPC and walk latency.
* ``best_policy`` — "which policy should run pair P under config C?"
  Resolved as one ``metrics`` sub-query per candidate policy and ranked
  by the requested objective; the aggregate's tier is the *worst* tier
  any candidate needed (exact < simulated < estimate < timeout < ...),
  so a half-estimated verdict is labeled an estimate.

Exact-tier payloads are pure functions of the simulation result's stats
(no wall clocks, no attempt counts), so two servers answering the same
query from the same cache produce byte-identical payload JSON — the
chaos suite diffs exactly that.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.engine.config import GpuConfig
from repro.metrics import total_ipc, walk_latency_of
from repro.workloads.suite import BENCHMARKS

#: Candidate set best_policy ranks when the query does not narrow it.
DEFAULT_CANDIDATES = ("baseline", "static", "dws", "dwspp")

#: Every policy a query may name (mirrors the CLI's POLICIES tuple).
KNOWN_POLICIES = ("baseline", "static", "dws", "dwspp", "mask", "mask+dws")

#: Ranking objectives: metric name -> (payload key, maximize?).
OBJECTIVES = {
    "total_ipc": ("total_ipc", True),
    "walk_latency": ("walk_latency_worst", False),
}

# ----------------------------------------------------------------------
# Response statuses, ordered by degradation: aggregating a multi-part
# query takes the max, so one timed-out candidate marks the verdict.
# ----------------------------------------------------------------------
STATUS_EXACT = "exact"          # content-addressed cache hit
STATUS_SIMULATED = "simulated"  # fresh simulation finished in deadline
STATUS_ESTIMATE = "estimate"    # interpolated (breaker open / shed / ...)
STATUS_TIMEOUT = "timeout"      # deadline expired; sim continues behind
STATUS_REJECTED = "rejected"    # not admitted (draining / no capacity)
STATUS_ERROR = "error"          # backend quarantined the simulation

STATUS_ORDER = (STATUS_EXACT, STATUS_SIMULATED, STATUS_ESTIMATE,
                STATUS_TIMEOUT, STATUS_REJECTED, STATUS_ERROR)
_RANK = {status: rank for rank, status in enumerate(STATUS_ORDER)}


def worst_status(statuses: Sequence[str]) -> str:
    """The most degraded status in ``statuses`` (see ``STATUS_ORDER``)."""
    if not statuses:
        return STATUS_REJECTED
    return max(statuses, key=lambda s: _RANK[s])


@dataclass(frozen=True)
class PlacementQuery:
    """One operator question about a tenant mix.

    ``workloads`` is the mix — one name per tenant, any length the
    simulator supports; a single name measures the workload stand-alone
    (how the paper defines IPC_SA).  ``l2_tlb_entries`` and
    ``walker_count`` override the Table I baseline, so capacity sweeps
    are expressible without shipping whole configs over the wire.
    """

    kind: str                       # "metrics" | "best_policy"
    workloads: Tuple[str, ...]
    policy: str = "baseline"        # metrics: the policy to measure
    candidates: Tuple[str, ...] = DEFAULT_CANDIDATES  # best_policy
    objective: str = "total_ipc"    # best_policy ranking metric
    l2_tlb_entries: Optional[int] = None
    walker_count: Optional[int] = None
    #: per-query deadline in seconds; None inherits the server default,
    #: 0 means "do not wait" (schedule and return a typed timeout).
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("metrics", "best_policy"):
            raise ValueError(f"unknown query kind {self.kind!r}")
        if not self.workloads:
            raise ValueError("query needs at least one workload")
        unknown = [n for n in self.workloads if n not in BENCHMARKS]
        if unknown:
            raise ValueError(f"unknown workload(s): {', '.join(unknown)}")
        if self.policy not in KNOWN_POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        bad = [p for p in self.candidates if p not in KNOWN_POLICIES]
        if bad:
            raise ValueError(f"unknown candidate policy(s): {', '.join(bad)}")
        if self.kind == "best_policy" and not self.candidates:
            raise ValueError("best_policy needs at least one candidate")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}; "
                             f"known: {', '.join(sorted(OBJECTIVES))}")
        for knob in ("l2_tlb_entries", "walker_count"):
            value = getattr(self, knob)
            # bool is an int subclass; 1024.0 would hash like 1024 in
            # the server's job memo yet address a different cache entry.
            if value is not None and (type(value) is not int or value <= 0):
                raise ValueError(f"{knob} must be a positive integer")
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValueError("deadline_s must be non-negative")

    # ------------------------------------------------------------------
    def config(self) -> GpuConfig:
        """The baseline config with this query's overrides applied
        (policy excluded — the server applies per-candidate policies)."""
        cfg = GpuConfig.baseline()
        if self.l2_tlb_entries is not None:
            cfg = cfg.with_l2_tlb_entries(self.l2_tlb_entries)
        if self.walker_count is not None:
            cfg = cfg.with_walker_count(self.walker_count)
        return cfg

    def policies(self) -> Tuple[str, ...]:
        """The policies this query needs results for."""
        if self.kind == "best_policy":
            return tuple(dict.fromkeys(self.candidates))
        return (self.policy,)

    def key(self) -> str:
        """Stable content hash identifying this query (coalescing,
        logs, and the chaos suite's byte-identity bookkeeping)."""
        payload = {
            "kind": self.kind, "workloads": list(self.workloads),
            "policy": self.policy, "candidates": list(self.candidates),
            "objective": self.objective,
            "l2_tlb_entries": self.l2_tlb_entries,
            "walker_count": self.walker_count,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PlacementQuery":
        """Build from wire JSON; raises ``ValueError`` on bad shapes."""
        if not isinstance(data, dict):
            raise ValueError("query body must be a JSON object")
        known = {f: data[f] for f in (
            "kind", "workloads", "policy", "candidates", "objective",
            "l2_tlb_entries", "walker_count", "deadline_s") if f in data}
        for tup in ("workloads", "candidates"):
            if tup in known:
                if not isinstance(known[tup], (list, tuple)):
                    raise ValueError(f"{tup} must be a list")
                known[tup] = tuple(str(n) for n in known[tup])
        try:
            return cls(**known)
        except TypeError as exc:
            raise ValueError(str(exc))


@dataclass
class QueryResponse:
    """The typed answer every admitted query receives."""

    status: str                     # one of STATUS_ORDER
    #: the honesty label: True whenever ``payload`` is interpolated or
    #: otherwise degraded rather than read from a simulation
    estimate: bool
    payload: Dict = field(default_factory=dict)
    query_key: str = ""
    #: service latency of this query, milliseconds (wall, this process)
    wall_ms: float = 0.0
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in STATUS_ORDER:
            raise ValueError(f"unknown response status {self.status!r}")

    def to_dict(self) -> dict:
        return {"status": self.status, "estimate": self.estimate,
                "payload": self.payload, "query_key": self.query_key,
                "wall_ms": self.wall_ms, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: dict) -> "QueryResponse":
        return cls(status=str(data["status"]),
                   estimate=bool(data.get("estimate", False)),
                   payload=dict(data.get("payload", {})),
                   query_key=str(data.get("query_key", "")),
                   wall_ms=float(data.get("wall_ms", 0.0)),
                   detail=str(data.get("detail", "")))


# ----------------------------------------------------------------------
# Payload construction
# ----------------------------------------------------------------------
def metrics_from_result(names: Sequence[str], result) -> Dict:
    """The ``metrics`` payload for one simulation result.

    Deliberately excludes execution metadata (``wall_seconds``,
    ``retries``, ``events_fired``) — those may legitimately differ
    between two runs of the same job, and the chaos suite asserts that
    exact-tier payloads are byte-identical to a fault-free run.
    """
    tenants = []
    walk_means = []
    for t, name in enumerate(names):
        walk = walk_latency_of(result, t)
        walk_means.append(walk)
        tenants.append({"name": name, "ipc": result.ipc_of(t),
                        "walk_latency_mean": walk})
    return {
        "total_ipc": total_ipc(result),
        "total_cycles": result.total_cycles,
        "walk_latency_worst": max(walk_means) if walk_means else 0.0,
        "tenants": tenants,
    }


def rank_candidates(table: Dict[str, Dict], objective: str) -> Optional[str]:
    """The winning policy among candidates that produced a payload.

    ``table`` maps policy -> metrics payload (possibly estimated); ties
    break toward the earlier candidate, which ``dict`` ordering
    preserves — deterministic for the chaos diff.
    """
    key, maximize = OBJECTIVES[objective]
    best: Optional[str] = None
    best_value: Optional[float] = None
    for policy, metrics in table.items():
        if metrics is None or key not in metrics:
            continue
        value = float(metrics[key])
        if (best_value is None
                or (value > best_value if maximize else value < best_value)):
            best, best_value = policy, value
    return best
