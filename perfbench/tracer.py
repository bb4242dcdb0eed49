"""Per-layer span tracing installed from outside the program.

The tracer replaces public methods of the simulator's classes with thin
wrappers that time each call.  A layer's *self time* is the time its
spans cover minus the part covered by nested spans of any layer, so the
``engine`` layer (``Simulator.run``) keeps the event loop and every
private handler body the other layers' public methods do not cover.

Install it before the program builds any object: several components
cache bound methods at construction.  A function that the checkout
under test does not define is recorded as absent, not as an error, so
the same table measures commits before and after code is deleted.
Forked children (campaign pool workers) get the original functions
back, so they run untraced and unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from typing import Dict, List, Tuple

# (layer, module, class or None for a module function, attribute names)
LAYER_TABLE: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("engine", "repro.engine.simulator", "Simulator", ("run",)),
    ("workloads", "repro.workloads.base", "Workload", ("build_streams",)),
    ("gpu", "repro.gpu.gpu", "Gpu",
     ("access_memory", "access_burst", "launch_warps")),
    ("gpu", "repro.gpu.sm", "Sm", ("add_warp",)),
    ("gpu", "repro.gpu.coalescer", "Coalescer", ("coalesce_op",)),
    ("vm.tlb", "repro.vm.tlb", "Tlb", ("lookup", "probe_fast", "insert")),
    ("vm.walk", "repro.vm.subsystem", "PageWalkSubsystem",
     ("request_walk", "note_service_start", "note_completion")),
    ("vm.walk", "repro.vm.walker", "Walker", ("start",)),
    ("vm.walk", "repro.vm.pwc", "PageWalkCache", ("probe", "fill")),
    ("mem", "repro.mem.hierarchy", "MemoryHierarchy",
     ("data_access", "walker_access")),
    ("mem", "repro.mem.cache", "Cache", ("access",)),
    ("mem", "repro.mem.interconnect", "Interconnect", ("access",)),
    ("mem", "repro.mem.dram", "Dram", ("access",)),
    ("tenancy", "repro.tenancy.manager", "MultiTenantManager",
     ("__init__",)),
    ("harness", "repro.harness.campaign", None,
     ("run_campaign", "plan_campaign", "run_jobs")),
    ("harness", "repro.harness.result_cache", "ResultCache",
     ("get", "put")),
    ("serve", "repro.serve.server", "ReproServer", ("query",)),
]

#: Walk-scheduling policies: every class under this base that defines
#: one of these methods itself is wrapped (the "core" layer).
POLICY_BASE = ("repro.vm.walk", "WalkSchedulingPolicy")
POLICY_MODULES = ("repro.core.shared", "repro.core.partitioned",
                  "repro.core.static_partition", "repro.core.dws",
                  "repro.core.dwspp", "repro.core.mask")
POLICY_METHODS = ("on_arrival", "select", "on_complete")

LAYERS = ("engine", "workloads", "gpu", "vm.tlb", "vm.walk", "core", "mem",
          "tenancy", "harness", "serve")


class Tracer:
    """Span recorder: per-function calls, total and self seconds."""

    def __init__(self) -> None:
        #: "Class.method" -> [calls, total_s, self_s, truthy returns]
        self.functions: Dict[str, List[float]] = {}
        self.layer_of: Dict[str, str] = {}
        self.absent: List[str] = []
        self.active = True
        self._local = threading.local()
        self._originals: List[tuple] = []
        os.register_at_fork(after_in_child=self._uninstall)

    def _uninstall(self) -> None:
        self.active = False
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, owner, attr: str, name: str) -> None:
        fn = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if fn is None:
            self.absent.append(name)
            return
        record = self.functions.setdefault(name, [0, 0.0, 0.0, 0])
        self.layer_of[name] = layer
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - child
            if result:
                record[3] += 1
            return result

        self._originals.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap every function of :data:`LAYER_TABLE` and the policies."""
        for layer, module_name, class_name, attrs in LAYER_TABLE:
            owner = _resolve(module_name, class_name)
            for attr in attrs:
                name = f"{class_name or module_name}.{attr}"
                if owner is None:
                    self.absent.append(name)
                else:
                    self.wrap(layer, owner, attr, name)
        for module_name in POLICY_MODULES:
            _resolve(module_name, None)
        base = _resolve(*POLICY_BASE)
        if base is None:
            self.absent.append(POLICY_BASE[1])
            return self
        for cls in [base] + _subclasses(base):
            for attr in POLICY_METHODS:
                if attr in cls.__dict__:
                    self.wrap("core", cls, attr, f"{cls.__name__}.{attr}")
        return self

    def snapshot(self) -> dict:
        """JSON-ready totals: per function and per layer."""
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for name, (calls, _total, self_s, _truthy) in self.functions.items():
            entry = layers[self.layer_of[name]]
            entry["self_s"] += self_s
            entry["calls"] += calls
        return {
            "layers": layers,
            "functions": {name: {"calls": rec[0], "total_s": rec[1],
                                 "self_s": rec[2], "truthy": rec[3]}
                          for name, rec in self.functions.items()},
            "absent": sorted(set(self.absent)),
        }


def _resolve(module_name: str, class_name):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    if class_name is None:
        return module
    return getattr(module, class_name, None)


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
