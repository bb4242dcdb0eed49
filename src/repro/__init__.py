"""repro — a trace-driven GPU MMU simulator reproducing
"Improving GPU Multi-tenancy with Page Walk Stealing" (HPCA 2021).

Public API tour:

* :class:`~repro.engine.config.GpuConfig` — the simulated GPU
  (``GpuConfig.baseline()`` is the paper's Table I; ``with_*`` helpers
  derive every evaluated variant).
* :func:`~repro.workloads.suite.benchmark` — the 13 synthetic Table II
  workload models, and :data:`~repro.workloads.pairs.WORKLOAD_PAIRS` —
  the 45 evaluated two-tenant pairs.
* :class:`~repro.tenancy.manager.MultiTenantManager` — runs co-tenants
  with the paper's relaunch methodology and returns a
  :class:`~repro.tenancy.manager.RunResult`.
* :mod:`repro.metrics` — total/weighted IPC, fairness, interleaving,
  walk latency and resource shares.
* :class:`~repro.harness.runner.Session` and
  :mod:`repro.harness.experiments` — one entry point per paper table
  and figure.

Quickstart::

    from repro import GpuConfig, MultiTenantManager, Tenant, benchmark
    from repro.metrics import total_ipc

    config = GpuConfig.baseline().with_policy("dws")
    tenants = [Tenant(0, benchmark("GUPS")), Tenant(1, benchmark("JPEG"))]
    result = MultiTenantManager(config, tenants).run()
    print(total_ipc(result))
"""

from repro._lazy import lazy_exports as _lazy_exports

__version__ = "1.0.0"

#: Public name -> defining module, imported on first attribute access so
#: ``import repro`` (and every ``repro.*`` import under it) loads only
#: the layers the caller actually uses.
_EXPORTS = {
    "DwsPlusParams": "repro.core.dwspp",
    "GpuConfig": "repro.engine.config",
    "MultiTenantManager": "repro.tenancy.manager",
    "PolicySpec": "repro.engine.config",
    "RunResult": "repro.tenancy.manager",
    "Session": "repro.harness.runner",
    "Tenant": "repro.tenancy.tenant",
    "WORKLOAD_PAIRS": "repro.workloads.pairs",
    "benchmark": "repro.workloads.suite",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
