"""Start-up footprint: a serial co-run loads only the layers it runs.

Every ``repro run`` pays its imports before it simulates anything, so a
co-run must not drag in the campaign planner, the supervised process
pool, fault injection, resource governance, the shard engine, the
integrity harness or the serve stack.  Each check runs in a fresh
interpreter: in-process, earlier tests have already imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Modules a serial co-run must never load.
FORBIDDEN = (
    "multiprocessing",
    "concurrent.futures",
    "http.server",
    "repro.harness.parallel",
    "repro.harness.campaign",
    "repro.harness.supervision",
    "repro.harness.resources",
    "repro.harness.faults",
    "repro.engine.parallel_sim",
    "repro.engine.shard",
    "repro.engine.shard_ipc",
    "repro.engine.shard_proc",
    "repro.integrity.harness",
)

CORUN = """
import json, sys
import repro.cli
from repro.harness.runner import Session
from repro.tenancy.manager import MultiTenantManager
import repro.workloads.pairs
code = repro.cli.main(["run", "HS.MM", "--scale", "0.05", "--warps", "2"])
print(json.dumps({"exit": code, "modules": sorted(sys.modules)}))
"""


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter; its last stdout line."""
    env = dict(os.environ, PYTHONPATH=SRC)
    for name in ("REPRO_SHARDS", "REPRO_SHARD_BACKEND", "REPRO_INTEGRITY",
                 "REPRO_FAULTS"):
        env.pop(name, None)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


def test_serial_corun_loads_no_harness_machinery():
    doc = json.loads(_fresh(CORUN))
    assert doc["exit"] == 0
    loaded = set(doc["modules"])
    assert "repro.engine.simulator" in loaded  # it did simulate
    leaked = sorted(name for name in loaded
                    if name in FORBIDDEN or name.startswith("repro.serve"))
    assert leaked == []


def test_sharded_run_still_loads_the_shard_engine():
    code = """
import json, sys
from repro import GpuConfig, MultiTenantManager, Tenant, benchmark
config = GpuConfig.baseline(num_sms=4)
tenants = [Tenant(0, benchmark("MM", scale=0.05))]
manager = MultiTenantManager(config, tenants, warps_per_sm=2, shards=2)
print(json.dumps(type(manager.sim).__module__))
"""
    assert json.loads(_fresh(code)) == "repro.engine.parallel_sim"


def test_pool_parent_loads_what_forked_workers_run():
    # Workers fork from the process that builds the pool and inherit its
    # environment; what a job may execute under that environment must
    # already be loaded there, and nothing more.
    code = """
import json, os, sys
from repro.harness import parallel
from repro.integrity import IntegrityConfig, install
WORKER_ONLY = ("repro.engine.parallel_sim", "repro.integrity.harness")
loaded = lambda: [m for m in WORKER_ONLY if m in sys.modules]
parallel._new_executor(1).shutdown()
plain = loaded()
os.environ["REPRO_SHARDS"] = "2"
install(IntegrityConfig(audit="cheap"))
parallel._new_executor(1).shutdown()
print(json.dumps([plain, loaded()]))
"""
    plain, configured = json.loads(_fresh(code))
    assert plain == []
    assert configured == ["repro.engine.parallel_sim",
                          "repro.integrity.harness"]
