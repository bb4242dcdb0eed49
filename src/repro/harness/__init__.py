"""The experiment harness: one entry point per paper table and figure.

Typical use::

    from repro.harness import Session, experiments, reporting

    session = Session(scale=1.0, warps_per_sm=4)
    result = experiments.fig5_throughput(session)
    print(reporting.format_table(result))

The :class:`~repro.harness.runner.Session` caches every (pair, config)
simulation and every stand-alone run, so experiments that share
configurations (e.g. Figures 5, 6 and 7 all need Baseline/DWS/DWS++
runs) reuse each other's work.
"""

from repro._lazy import lazy_exports as _lazy_exports

#: Public name -> defining module, imported on first attribute access:
#: a co-run that only needs :class:`Session` never loads the campaign
#: planner, the supervised process pool or fault injection.
_EXPORTS = {
    "CACHE_FORMAT": "repro.harness.result_cache",
    "CampaignExecutionError": "repro.harness.supervision",
    "CampaignManifest": "repro.harness.campaign",
    "CampaignPlan": "repro.harness.campaign",
    "CampaignReport": "repro.harness.campaign",
    "ExperimentResult": "repro.harness.reporting",
    "FaultSpec": "repro.harness.faults",
    "HostPressureMonitor": "repro.harness.resources",
    "Job": "repro.harness.parallel",
    "PlanningSession": "repro.harness.campaign",
    "PressurePolicy": "repro.harness.resources",
    "ResourceBudgetExceeded": "repro.harness.resources",
    "ResultCache": "repro.harness.result_cache",
    "RetryPolicy": "repro.harness.supervision",
    "RssSampler": "repro.harness.resources",
    "Session": "repro.harness.runner",
    "StandaloneMeasurement": "repro.harness.runner",
    "SupervisionPolicy": "repro.harness.supervision",
    "SupervisionStats": "repro.harness.supervision",
    "Sweep": "repro.harness.sweep",
    "WorkerPool": "repro.harness.parallel",
    "atomic_write_bytes": "repro.harness.fsutil",
    "atomic_write_json": "repro.harness.fsutil",
    "atomic_write_text": "repro.harness.fsutil",
    "axis": "repro.harness.sweep",
    "campaign_key": "repro.harness.campaign",
    "clear_faults": "repro.harness.faults",
    "compare_policies": "repro.harness.seeds",
    "cost_key": "repro.harness.result_cache",
    "export_results": "repro.harness.results_io",
    "format_bars": "repro.harness.reporting",
    "format_table": "repro.harness.reporting",
    "format_wall_summary": "repro.harness.reporting",
    "generate_report": "repro.harness.report",
    "geomean": "repro.harness.reporting",
    "install_faults": "repro.harness.faults",
    "job_key": "repro.harness.result_cache",
    "load_results": "repro.harness.results_io",
    "pair_jobs": "repro.harness.parallel",
    "plan_campaign": "repro.harness.campaign",
    "run_campaign": "repro.harness.campaign",
    "run_jobs": "repro.harness.parallel",
    "run_jobs_chunked": "repro.harness.parallel",
    "seed_study": "repro.harness.seeds",
    "validate_result": "repro.harness.validate",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
