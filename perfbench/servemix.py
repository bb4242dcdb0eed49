"""The serve-mix traffic: hot-set queries, novel capacity queries, schedule.

Shared by ``run.py`` (which drives a ``repro serve`` process with it) and
``make_golden.py`` (which records the golden payload digests), so both
describe the same query universe.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Tuple

#: ``repro serve --scale``: a novel query simulates for about 0.1 s,
#: holding the server's GIL while hot-set answers wait for it.
SERVE_SCALE = 0.05

#: Open-loop arrival rate of novel queries (per second).  Their
#: simulations keep the executor busy a few percent of the phase:
#: enough to show in the exact tier's tail, too little to move its
#: median.  Hot-set queries go back to back (closed loop), so the
#: server's CPU never idles between them.
NOVEL_RATE = 0.25

#: Hot-set queries drawn per second of phase; more than one client can
#: send, and the draw repeats from the start if it runs out.
HOT_DRAWS_PER_S = 1000

#: Latency limits, timed from each query's due time.
EXACT_LIMIT_MS = 1000.0
SIMULATED_LIMIT_MS = 15000.0

#: Hot set: primed during set-up, then answered from the exact tier.
HOT: Dict[str, dict] = {
    "hot-gups-sad-dws": {"kind": "metrics", "workloads": ["GUPS", "SAD"],
                         "policy": "dws"},
    "hot-hs-mm-baseline": {"kind": "metrics", "workloads": ["HS", "MM"],
                           "policy": "baseline"},
    "hot-gups-jpeg-dwspp": {"kind": "metrics", "workloads": ["GUPS", "JPEG"],
                            "policy": "dwspp"},
    "hot-blk-3ds-best": {"kind": "best_policy", "workloads": ["BLK", "3DS"]},
    "hot-gups-alone": {"kind": "metrics", "workloads": ["GUPS"],
                       "policy": "baseline"},
}

NOVEL_MIXES = (["GUPS", "SAD"], ["HS", "MM"], ["GUPS", "JPEG"])
NOVEL_TLB_ENTRIES = (256, 512, 768, 1536, 2048, 4096)
NOVEL_WALKERS = (4, 8, 12, 24, 32, 48)


def novel_queries() -> Dict[str, dict]:
    """Capacity variants of the baseline config; each simulates once."""
    out = {}
    for mix in NOVEL_MIXES:
        for entries in NOVEL_TLB_ENTRIES:
            for walkers in NOVEL_WALKERS:
                qid = f"novel-{'.'.join(mix)}-tlb{entries}-w{walkers}"
                out[qid] = {"kind": "metrics", "workloads": list(mix),
                            "policy": "dws", "l2_tlb_entries": entries,
                            "walker_count": walkers}
    return out


def payload_digest(payload: dict) -> str:
    """Digest of an answer's payload, without per-candidate tiers.

    A ``best_policy`` payload names the tier of each candidate, which
    differs between the priming answer (simulated) and later ones
    (exact); the tier is checked separately.
    """
    payload = json.loads(json.dumps(payload))
    for entry in payload.get("candidates", {}).values():
        entry.pop("status", None)
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def schedule(seed: int, seconds: float
             ) -> Tuple[List[str], List[Tuple[float, str, dict]]]:
    """Hot-set query ids in send order, and ``(due offset, query id,
    body)`` of the novel queries, sorted by due time.

    Hot queries are uniform over the hot set.  Novel queries are drawn
    without replacement (36 per mix, enough for 400 s at the novel
    rate).
    """
    rng = random.Random(seed)
    hot_ids = sorted(HOT)
    hot = [rng.choice(hot_ids)
           for _ in range(max(1, int(seconds * HOT_DRAWS_PER_S)))]
    # Novel queries rotate through the mixes, so every run simulates (and
    # keeps traces of) the same workloads; the seed picks the variants.
    pools = [[qid for qid in sorted(novel_queries())
              if qid.startswith(f"novel-{'.'.join(mix)}-")]
             for mix in NOVEL_MIXES]
    for pool in pools:
        rng.shuffle(pool)
    # One novel query at a random point of each 1/NOVEL_RATE slot: a
    # fixed count per run keeps the executor's share of the run steady.
    novel = novel_queries()
    items = []
    for count in range(int(seconds * NOVEL_RATE)):
        pool = pools[count % len(pools)]
        if not pool:
            break
        qid = pool.pop()
        items.append(((count + rng.random()) / NOVEL_RATE, qid, novel[qid]))
    items.sort(key=lambda item: item[0])
    return hot, items
