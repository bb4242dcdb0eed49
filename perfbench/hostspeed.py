"""Host speed probe: a fixed pure-Python kernel timed in CPU time.

The benchmark host is a shared VM whose cores slow down by tens of
percent for seconds at a time (other tenants on the same physical
cores).  The program's CPU time moves with the slowdown, so neither its
wall nor its CPU time repeats from one run to the next.  This module
measures the slowdown directly.  One probe process per CPU, pinned to
that CPU, runs a fixed kernel of this directory's own code every
``PERIOD_S`` and records how much CPU time it took.  ``run.py`` pins
each measured operation to known CPUs and divides its time by those
CPUs' slowdown over the same window (median kernel time over
``REFERENCE_S``): the time the operation would take at the reference
speed.  The kernel is not program code, so a change to the program
moves the measured times and leaves the probe alone.

    python3 perfbench/hostspeed.py --cpu 0    # "<monotonic> <cpu_s>" lines

Run as a process it samples until it gets SIGTERM or its stdin closes.
"""

from __future__ import annotations

import argparse
import bisect
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional

#: Time between the starts of two samples, and the CPU time one kernel
#: call takes at the reference speed (about its median on an unloaded
#: core of a 2-vCPU Sapphire Rapids VM, Python 3.11).  The probe takes
#: 4-6% of each CPU.
PERIOD_S = 0.05
REFERENCE_S = 0.002


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def step(self, delta: int) -> int:
        self.value = (self.value * 1103515245 + delta) & 0xFFFFFFFF
        return self.value & 1


def kernel(steps: int = 8000) -> int:
    """Interpreter-bound work: calls, attribute and integer operations.

    Its footprint fits in L1, so it measures how fast this core runs
    Python right now, not how much cache the program around it uses.
    """
    cells = [_Cell(i) for i in range(32)]
    acc = 0
    for i in range(steps):
        acc += cells[i & 31].step(i)
    return acc


def sample() -> float:
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


def _serve(cpu: int) -> int:
    """Sample on ``cpu`` until SIGTERM or EOF on stdin; one line each."""
    os.sched_setaffinity(0, {cpu})
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())

    def watch_stdin() -> None:
        sys.stdin.read()
        stop.set()

    threading.Thread(target=watch_stdin, daemon=True).start()
    sample()  # warm-up: the first call allocates
    out = sys.stdout
    next_due = time.monotonic()
    while not stop.is_set():
        cpu_s = sample()
        out.write(f"{time.monotonic():.6f} {cpu_s:.9f}\n")
        out.flush()
        next_due += PERIOD_S
        stop.wait(max(0.0, next_due - time.monotonic()))
    return 0


class _Probe:
    """One probe process pinned to one CPU, and the samples it sent."""

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--cpu", str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.stamps: List[float] = []
        self.cpu_s: List[float] = []
        self.lock = threading.Lock()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            try:
                stamp, cpu_s = map(float, line.split())
            except ValueError:
                continue
            with self.lock:
                self.stamps.append(stamp)
                self.cpu_s.append(cpu_s)

    def window(self, start: float, end: float) -> List[float]:
        """Samples taken in ``[start, end]`` plus one on either side."""
        with self.lock:
            lo = bisect.bisect_left(self.stamps, start)
            hi = bisect.bisect_right(self.stamps, end)
            return self.cpu_s[max(0, lo - 1):hi + 1]

    def all(self) -> List[float]:
        with self.lock:
            return list(self.cpu_s)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.join(timeout=10)
        self.proc.stdout.close()


class HostSpeed:
    """One probe per CPU this process may use; slowdowns over windows.

    Windows are ``time.monotonic()`` values, which every process on the
    host shares.  Use it as a context manager, so the probes stop on
    every way out.
    """

    def __init__(self, cpus: Optional[Iterable[int]] = None) -> None:
        self.cpus = sorted(cpus if cpus is not None
                           else os.sched_getaffinity(0))
        self._probes: Dict[int, _Probe] = {}
        try:
            for cpu in self.cpus:
                self._probes[cpu] = _Probe(cpu)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        for probe in self._probes.values():
            probe.close()

    def wait_ready(self, timeout: float = 10.0) -> None:
        """Block until every probe has sent a sample."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(probe.all() for probe in self._probes.values()):
                return
            time.sleep(PERIOD_S)
        raise RuntimeError("host speed probe sent no samples")

    def slowdown(self, start: float, end: float,
                 cpus: Optional[Iterable[int]] = None) -> float:
        """Mean over ``cpus`` of median kernel time in the window, over
        ``REFERENCE_S``: above 1 the host ran slower than the reference."""
        cpus = self.cpus if cpus is None else list(cpus)
        per_cpu = [statistics.median(window) for window in
                   (self._probes[cpu].window(start, end) for cpu in cpus)
                   if window]
        if not per_cpu:
            raise RuntimeError("host speed probe sent no samples")
        return statistics.mean(per_cpu) / REFERENCE_S

    def median_slowdown(self) -> float:
        """Slowdown over every sample so far, all CPUs."""
        samples = [s for probe in self._probes.values() for s in probe.all()]
        return statistics.median(samples) / REFERENCE_S if samples else 1.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    return _serve(parser.parse_args().cpu)


if __name__ == "__main__":
    sys.exit(main())
