"""Regenerate golden.json: the reference outputs the benchmark checks.

    PYTHONPATH=src python3 perfbench/make_golden.py

Run from the root of a checkout whose model output is the reference.
It records, at seed 0, the stats digest of every pair co-run and the
payload digest of every serve-mix query, computed through the same
library paths the benchmark's subprocesses use.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import servemix  # noqa: E402
import simstats  # noqa: E402
from run import PAIR_POLICIES, PAIR_SCALE, PAIR_WARPS, PAIRS  # noqa: E402


def pair_digests() -> dict:
    from repro.engine.config import GpuConfig
    from repro.harness.runner import Session
    from repro.tenancy.manager import MultiTenantManager
    from repro.workloads.pairs import split_pair

    out = {}
    for pair in PAIRS.values():
        for policy in PAIR_POLICIES:
            session = Session(scale=PAIR_SCALE, warps_per_sm=PAIR_WARPS,
                              seed=0)
            manager = MultiTenantManager(
                GpuConfig.baseline().with_policy(policy),
                session.tenants_for(split_pair(pair)),
                warps_per_sm=PAIR_WARPS, seed=0,
                max_events=session.max_events)
            result = manager.run()
            problems = simstats.violations(result)
            if problems:
                raise SystemExit(f"{pair}/{policy}: {problems}")
            out[f"{pair}/{policy}"] = simstats.digest(result)
    return out


def serve_digests() -> dict:
    from repro.serve.queries import PlacementQuery
    from repro.serve.server import ReproServer

    queries = {**servemix.HOT, **servemix.novel_queries()}
    out = {}
    with tempfile.TemporaryDirectory() as cache:
        with ReproServer(cache, scale=servemix.SERVE_SCALE) as server:
            for qid, body in sorted(queries.items()):
                answer = server.query(PlacementQuery.from_dict(body))
                if answer.status != "simulated":
                    raise SystemExit(f"{qid}: {answer.status} "
                                     f"{answer.detail}")
                out[qid] = servemix.payload_digest(answer.payload)
    return out


def main() -> int:
    golden = {"pairs": pair_digests(), "serve": serve_digests()}
    path = HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}: {len(golden['pairs'])} pair digests, "
          f"{len(golden['serve'])} serve digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
