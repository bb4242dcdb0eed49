"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package that re-exports names from its submodules would otherwise
import every submodule the moment anything under it is imported: one
``repro run`` co-run would load the campaign planner, the process pool
and the shard engine it never uses.  :func:`lazy_exports` builds the
module-level ``__getattr__`` / ``__dir__`` pair that resolves each
public name from its defining module on first access instead, and
caches it in the package namespace so later lookups are plain attribute
reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, exports: Dict[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` over ``name -> module``."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
