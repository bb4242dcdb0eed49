"""The lazily resolved packages keep their public API.

``repro``, ``repro.harness`` and ``repro.integrity`` resolve their
re-exported names on first attribute access (PEP 562).  Their
``__all__`` lists are pinned literally below; every name must resolve
by attribute and by ``import *``, and show in ``dir()``.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PINNED = {
    "repro": [
        "DwsPlusParams", "GpuConfig", "MultiTenantManager", "PolicySpec",
        "RunResult", "Session", "Tenant", "WORKLOAD_PAIRS", "benchmark",
        "__version__",
    ],
    "repro.harness": [
        "CACHE_FORMAT", "CampaignExecutionError", "CampaignManifest",
        "CampaignPlan", "CampaignReport", "ExperimentResult", "FaultSpec",
        "HostPressureMonitor", "Job", "PlanningSession", "PressurePolicy",
        "ResourceBudgetExceeded", "ResultCache", "RetryPolicy", "RssSampler",
        "Session", "StandaloneMeasurement", "SupervisionPolicy",
        "SupervisionStats", "Sweep", "WorkerPool", "atomic_write_bytes",
        "atomic_write_json", "atomic_write_text", "axis", "campaign_key",
        "clear_faults", "compare_policies", "cost_key", "export_results",
        "format_bars", "format_table", "format_wall_summary",
        "generate_report", "geomean", "install_faults", "job_key",
        "load_results", "pair_jobs", "plan_campaign", "run_campaign",
        "run_jobs", "run_jobs_chunked", "seed_study", "validate_result",
    ],
    "repro.integrity": [
        "AUDIT_CHEAP", "AUDIT_FULL", "AUDIT_LEVELS", "AUDIT_OFF", "Auditor",
        "BUNDLE_FORMAT", "INTEGRITY_ENV", "IntegrityConfig",
        "IntegrityHarness", "InvariantViolation", "ProgressStall",
        "ProgressWatchdog", "ReplayOutcome", "active_config",
        "build_auditor", "capture_job_failure", "clear_install", "install",
        "load_bundle", "replay_bundle", "write_bundle",
    ],
}

PACKAGES = sorted(PINNED)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_pinned(package):
    assert importlib.import_module(package).__all__ == PINNED[package]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_name_resolves_by_attribute_and_star(package):
    module = importlib.import_module(package)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    for name in PINNED[package]:
        value = getattr(module, name)
        assert value is not None, name
        assert namespace[name] is value, name


@pytest.mark.parametrize("package", PACKAGES)
def test_every_name_is_listed_by_dir(package):
    assert set(PINNED[package]) <= set(dir(importlib.import_module(package)))


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


def test_reexports_are_the_defining_objects():
    from repro.harness.parallel import Job
    from repro.harness.runner import Session
    from repro.integrity.harness import IntegrityHarness
    import repro.harness
    import repro.integrity

    assert repro.Session is Session
    assert repro.harness.Session is Session
    assert repro.harness.Job is Job
    assert repro.integrity.IntegrityHarness is IntegrityHarness


def test_docstring_imports_work_in_a_fresh_interpreter():
    # In-process the submodules are already loaded by earlier tests; a
    # fresh interpreter checks the lazy path itself.
    code = """
import json
from repro.harness import Session, experiments, reporting
from repro.harness import run_jobs
from repro import GpuConfig, MultiTenantManager, Tenant, benchmark
import repro.harness
print(json.dumps([Session.__module__, experiments.__name__,
                  reporting.__name__, run_jobs.__module__,
                  repro.harness.experiments is experiments]))
"""
    src = str(Path(repro.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [
        "repro.harness.runner", "repro.harness.experiments",
        "repro.harness.reporting", "repro.harness.parallel", True]
