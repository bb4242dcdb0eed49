"""Simulation integrity layer: auditor, watchdog, crash forensics.

Three guarantees, layered over the MMU core without touching its hot
path when disabled:

* :class:`Auditor` — runtime re-derivation of the simulator's
  conservation laws (walk accounting, walker occupancy, soft-partition
  reservations, TLB/PWC bounds, monotonic time) at ``off``/``cheap``/
  ``full`` intensity;
* :class:`ProgressWatchdog` — livelock and per-tenant starvation
  detection in units of events fired, raising a typed
  :class:`ProgressStall` naming the stuck tenants;
* crash forensics — every :class:`SimulationError` captured as a
  replayable JSON bundle (:func:`write_bundle` / :func:`replay_bundle`)
  with the exact ``python -m repro replay`` command inside.

Everything is driven by one frozen :class:`IntegrityConfig`, passed
explicitly to ``MultiTenantManager`` or installed ambiently via the
``REPRO_INTEGRITY`` environment variable (:func:`install`) so campaign
workers inherit it.
"""

from repro._lazy import lazy_exports as _lazy_exports

#: Public name -> defining module, imported on first attribute access:
#: the simulator reads :func:`active_config` on every run, but the
#: auditor, watchdog and forensics load only when integrity is enabled.
_EXPORTS = {
    "AUDIT_CHEAP": "repro.integrity.config",
    "AUDIT_FULL": "repro.integrity.config",
    "AUDIT_LEVELS": "repro.integrity.config",
    "AUDIT_OFF": "repro.integrity.config",
    "Auditor": "repro.integrity.auditor",
    "BUNDLE_FORMAT": "repro.integrity.forensics",
    "INTEGRITY_ENV": "repro.integrity.config",
    "IntegrityConfig": "repro.integrity.config",
    "IntegrityHarness": "repro.integrity.harness",
    "InvariantViolation": "repro.integrity.errors",
    "ProgressStall": "repro.integrity.errors",
    "ProgressWatchdog": "repro.integrity.watchdog",
    "ReplayOutcome": "repro.integrity.forensics",
    "active_config": "repro.integrity.config",
    "build_auditor": "repro.integrity.auditor",
    "capture_job_failure": "repro.integrity.forensics",
    "clear_install": "repro.integrity.config",
    "install": "repro.integrity.config",
    "load_bundle": "repro.integrity.forensics",
    "replay_bundle": "repro.integrity.forensics",
    "write_bundle": "repro.integrity.forensics",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
