"""Integrity-layer configuration and cross-process activation.

One frozen :class:`IntegrityConfig` describes everything the layer can
do — audit level, sampling interval, watchdog window, forensics
directory, event-ring capacity.  It reaches a simulation two ways:

* explicitly, as ``MultiTenantManager(..., integrity=cfg)``;
* ambiently, via :func:`install`, which publishes the config in the
  ``REPRO_INTEGRITY`` environment variable exactly as the fault plan
  travels in ``REPRO_FAULTS`` — worker processes inherit the parent's
  environment, so ``python -m repro campaign --audit full`` audits
  every job in every worker without threading a parameter through five
  layers of harness.

With nothing installed the cost is one ``os.environ.get`` per
*simulation run* (not per event): the manager checks once before
launching and attaches nothing.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Optional

#: Environment variable carrying the JSON-encoded integrity config.
INTEGRITY_ENV = "REPRO_INTEGRITY"

AUDIT_OFF = "off"
AUDIT_CHEAP = "cheap"
AUDIT_FULL = "full"

AUDIT_LEVELS = (AUDIT_OFF, AUDIT_CHEAP, AUDIT_FULL)


@dataclass(frozen=True)
class IntegrityConfig:
    """What the integrity layer should do during a simulation run."""

    #: ``off`` — no invariant checks (and, with no watchdog or
    #: forensics either, the engine keeps its no-hook fast path);
    #: ``cheap`` — a full probe sweep every ``audit_interval`` events;
    #: ``full`` — a sweep after *every* event plus per-transition
    #: subsystem checks on each walk service start/completion.
    audit: str = AUDIT_OFF
    #: Events between sweeps in ``cheap`` mode.
    audit_interval: int = 2048
    #: Events without forward progress before the watchdog raises
    #: :class:`~repro.integrity.errors.ProgressStall`.  0 disables it.
    watchdog_window: int = 0
    #: Directory for crash-forensics bundles; None disables capture.
    forensics_dir: Optional[str] = None
    #: Bounded ring of recent walk events kept for the bundle.
    ring_capacity: int = 512

    def __post_init__(self) -> None:
        if self.audit not in AUDIT_LEVELS:
            raise ValueError(
                f"unknown audit level {self.audit!r}; expected one of "
                f"{AUDIT_LEVELS}")
        if self.audit_interval < 1:
            raise ValueError("audit_interval must be at least 1")
        if self.watchdog_window < 0:
            raise ValueError("watchdog_window must be non-negative")
        if self.ring_capacity < 1:
            raise ValueError("ring_capacity must be at least 1")

    @property
    def audit_enabled(self) -> bool:
        return self.audit != AUDIT_OFF

    @property
    def watchdog_enabled(self) -> bool:
        return self.watchdog_window > 0

    @property
    def enabled(self) -> bool:
        """True when a run must attach *anything* (hook or tracers)."""
        return (self.audit_enabled or self.watchdog_enabled
                or self.forensics_dir is not None)


def install(config: IntegrityConfig) -> None:
    """Activate ``config`` for this process and future workers.

    Like :func:`repro.harness.faults.install_faults`: call before the
    worker pool spawns, since workers snapshot the environment.
    """
    import json

    os.environ[INTEGRITY_ENV] = json.dumps(asdict(config))


def clear_install() -> None:
    """Remove the ambient integrity config (idempotent)."""
    os.environ.pop(INTEGRITY_ENV, None)


def active_config() -> Optional[IntegrityConfig]:
    """The ambient config, parsed fresh from the environment."""
    raw = os.environ.get(INTEGRITY_ENV)
    if not raw:
        return None
    # json loads only when a config is installed: the default run
    # pays one environment lookup and nothing else.
    import json

    try:
        return IntegrityConfig(**json.loads(raw))
    except (ValueError, TypeError):
        return None  # a malformed config must never break production runs
