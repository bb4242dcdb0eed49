"""In-process reference engines for differential tests.

The benchmark directory carries verbatim reconstructions of earlier
engine generations, used by ``bench_engine_throughput.py`` to time the
shipping engine against them:

* ``benchmarks/_seed_reference.py`` — the seed binary-heap kernel
  (:class:`HeapEventQueue`: one :class:`Event` per push, ordered by
  ``Event.__lt__``);
* ``benchmarks/_pr4_reference.py`` — the engine as it stood before
  latency folding was added: calendar-queue kernel and the component
  hot paths of that time, patched in by :func:`pr4_engine`.

Both are observably identical to the shipping engine by contract, so
tests load them here and diff full simulations against them.
"""

import importlib.util
import sys
from pathlib import Path

_BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(
            name, _BENCHMARKS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


HeapEventQueue = _load("_seed_reference").HeapEventQueue
pr4_engine = _load("_pr4_reference").pr4_engine
