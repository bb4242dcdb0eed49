"""Outside-in benchmark of the entry points users run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; ``--source DIR`` measures the source
tree at DIR instead (for example a ``git archive`` of an older commit),
with the same benchmark code.  Every operation runs in a fresh
subprocess (``child.py``) with fresh temporary cache directories under
``.perfbench_run/``, which is removed at the end.

Workloads (see README.md for why each exists):

* ``pair-heavy`` / ``pair-light`` — ``repro run``-style co-runs of
  GUPS.SAD (HH) / HS.MM (LL) under baseline, dws and dwspp.
* ``campaign-fig5-7`` — a cold ``repro campaign --figures fig5,fig6,fig7``
  at scale 0.4 on 2 workers, tables diffed against benchmarks/results.
* ``serve-mix`` — a ``repro serve`` process answering hot-set queries
  back to back beside seed-scheduled novel ones.

``--trace 0`` prints the end-to-end metrics, timed at a reference host
speed that ``hostspeed.py`` measures during the run; ``--trace 1``
re-runs the work untraced and traced and prints the per-layer metrics.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import http.client
import json
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import servemix  # noqa: E402
import simstats  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

CHILD = HERE / "child.py"
NULL_HTTP = HERE / "nullhttp.py"
GOLDEN = json.loads((HERE / "golden.json").read_text())

PAIR_POLICIES = ("baseline", "dws", "dwspp")
PAIR_SCALE = 0.5            # `repro run` default
PAIR_WARPS = 4
PAIRS = {"pair-heavy": "GUPS.SAD", "pair-light": "HS.MM"}

CAMPAIGN_FIGURES = ("fig5", "fig6", "fig7")
#: REPRESENTATIVE_PAIRS in the order benchmarks/conftest.py passes them.
CAMPAIGN_PAIRS = ("FFT.HS", "HS.MM", "3DS.FFT", "LIB.MM", "3DS.SRAD",
                  "LIB.JPEG", "BLK.HS", "GUPS.MM", "BLK.3DS", "GUPS.JPEG",
                  "GUPS.SAD", "QTC.BLK")
CAMPAIGN_SCALE = 0.4        # the scale benchmarks/results was made at
CAMPAIGN_WORKERS = 2
PLAN_SETUPS = 3             # extra `campaign --plan-only` set-ups per run
SERVE_SETUPS = 3            # server start + hot-set priming, per run
#: One null-server exchange (nullhttp.py) after every NULL_EVERY-th hot
#: query, and the time one takes at the reference host speed.
NULL_EVERY = 8
NULL_REFERENCE_MS = 1.0

CHILD_TIMEOUT_S = 150.0

WORKLOADS = ("pair-heavy", "pair-light", "campaign-fig5-7", "serve-mix")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "latency_p50_ms": "ms"}

_LAYER_UNITS = {"self_s": "s", "calls": "count"}
PER_LAYER = {
    **{f"{layer}.{kind}": unit
       for layer in ("engine", "workloads", "gpu", "vm.tlb", "vm.walk",
                     "core", "mem", "tenancy", "harness", "serve")
       for kind, unit in _LAYER_UNITS.items()},
    "engine.events": "count", "engine.us_per_event": "us",
    "engine.kinst_per_s": "kinst/s", "gpu.fold_ratio": "ratio",
    "vm.l1tlb.hit_ratio": "ratio", "vm.l2tlb.hit_ratio": "ratio",
    "vm.walks": "count", "vm.walk.overflow": "count",
    "vm.walk.queue_cycles": "cycles", "vm.pwc.hit_ratio": "ratio",
    "core.arrival_accept_ratio": "ratio", "core.steal_fraction": "ratio",
    "mem.l1c.hit_ratio": "ratio", "mem.l2c.hit_ratio": "ratio",
    "mem.dram.accesses": "count", "mem.dram.queue_cycles": "cycles",
    "harness.plan_s": "s", "harness.campaign_s": "s",
    "harness.jobs_executed": "count", "harness.dedup_ratio": "ratio",
    "harness.worker_busy_ratio": "ratio", "harness.cache.get_s": "s",
    "harness.cache.put_s": "s", "harness.cache.calls": "count",
    "serve.query_s": "s", "serve.http_ms": "ms", "serve.sim_s": "s",
    "serve.executor_busy_ratio": "ratio",
    **{f"serve.tier.{status}": "count"
       for status in ("exact", "simulated", "estimate", "timeout",
                      "rejected", "error")},
    "serve.generator_lag_ms": "ms", "serve.backlog_end": "count",
    "serve.exact_p50_ms": "ms", "serve.exact_p98_ms": "ms",
    "serve.simulated_p50_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "host.slowdown": "ratio",
}


class Unsupported(Exception):
    """The checkout under test lacks this workload's entry point."""


# ----------------------------------------------------------------------
# Statistics and host record
# ----------------------------------------------------------------------
def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def describe(values: List[float], unit: str) -> str:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.4g} {unit}"
    for pct in (99, 98, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            text += f", p{pct:g} {percentile(values, pct):.4g} {unit}"
            break
    return f"{text} (n={n})"


def source_digest(src: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        sha.update(str(path.relative_to(src)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def commit_of(source: Path) -> str:
    if not (source / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(source), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


# ----------------------------------------------------------------------
# Process tree RSS
# ----------------------------------------------------------------------
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


def _tree_rss_mb(root: int) -> float:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    total, todo = 0.0, [root]
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/statm") as fh:
                total += int(fh.read().split()[1]) * _PAGE_MB
        except OSError:
            pass
    return total


class TreeRss:
    """Samples the summed RSS of a process and its descendants."""

    def __init__(self, pid: int, interval: float = 0.2) -> None:
        self.pid = pid
        self.interval = interval
        self.peak = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, _tree_rss_mb(self.pid))
            self._stop.wait(self.interval)

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return self.peak


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
class Context:
    def __init__(self, args, root: Path, source: Path,
                 speed: HostSpeed) -> None:
        self.args = args
        self.source = source
        self.speed = speed
        #: CPUs the measured operations run on (``pin``); their probes
        #: give the slowdown that ``at_reference`` divides by.
        self.cpus = speed.cpus
        self.rundir = root / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
        self.rundir.mkdir(parents=True, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(source / "src")
        self.env["TMPDIR"] = str(self.rundir)
        self.failures: List[str] = []
        self.digests: Dict[str, str] = {}
        self.attempted = 0
        self.notes: List[str] = []
        self._n = 0

    def pin(self, cpus) -> None:
        """Run this process and every child it starts on ``cpus``."""
        self.cpus = sorted(cpus)
        os.sched_setaffinity(0, self.cpus)

    def at_reference(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over ``[start, end]`` (monotonic), at the
        reference host speed of ``hostspeed.REFERENCE_S``."""
        return seconds / self.speed.slowdown(start, end, self.cpus)

    def fresh(self, stem: str) -> Path:
        self._n += 1
        return self.rundir / f"{stem}-{self._n}"

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAIL: {message}", flush=True)

    def spawn(self, mode: str, out: Path, trace: bool, extra: List[str],
              argv: Optional[List[str]] = None, stdout=subprocess.DEVNULL):
        spawn = time.monotonic()
        cmd = [sys.executable, str(CHILD), mode, "--out", str(out),
               "--spawn", repr(spawn), "--trace", "1" if trace else "0"]
        cmd += extra
        if argv is not None:
            cmd += ["--"] + argv
        proc = subprocess.Popen(cmd, env=self.env, cwd=str(self.rundir),
                                stdout=stdout, stderr=subprocess.PIPE,
                                text=True)
        return proc, spawn


def finish(proc, timeout: float = CHILD_TIMEOUT_S):
    """Wait for a child; kill it past the timeout, or if this process is
    interrupted while it waits.  Returns (out, err)."""
    try:
        return proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return out, (err or "") + "\n[killed: timeout]"
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def read_doc(out: Path) -> Optional[dict]:
    try:
        return json.loads(out.read_text())
    except (OSError, ValueError):
        return None


def _tail(err: Optional[str]) -> str:
    lines = (err or "").strip().splitlines()
    return lines[-1] if lines else "no output"


# ----------------------------------------------------------------------
# Pair workloads
# ----------------------------------------------------------------------
def corun(ctx: Context, pair: str, policy: str, trace: bool) -> Optional[dict]:
    out = ctx.fresh("corun")
    proc, spawn = ctx.spawn("corun", out, trace, [
        "--pair", pair, "--policy", policy, "--scale", str(PAIR_SCALE),
        "--warps", str(PAIR_WARPS), "--seed", str(ctx.args.seed)])
    _, err = finish(proc)
    exited = time.monotonic()
    ctx.attempted += 1
    doc = read_doc(out)
    if proc.returncode != 0 or doc is None:
        ctx.fail(f"{pair}/{policy}: exit {proc.returncode}: {_tail(err)}")
        return None
    doc["raw_wall_s"] = doc["wall_s"]
    doc["wall_s"] = ctx.at_reference(doc["wall_s"], *doc["run_span"])
    doc["setup_s"] = ctx.at_reference(doc["setup_end"] - spawn, spawn,
                                      doc["setup_end"])
    doc["latency_s"] = ctx.at_reference(exited - spawn, spawn, exited)
    doc["policy"] = policy
    key = f"{pair}/{policy}"
    # Seed 0 has golden digests, made from runs that passed
    # validate_result; other seeds validate and must repeat their digest.
    if ctx.args.seed == 0:
        expected, reference = GOLDEN["pairs"].get(key), "golden"
    else:
        expected, reference = ctx.digests.get(key, doc["digest"]), "round 1"
        if doc["violations"]:
            ctx.fail(f"{key}: validate_result: "
                     f"{'; '.join(doc['violations'][:3])}")
    if doc["digest"] != expected:
        ctx.fail(f"{key}: stats digest {doc['digest'][:16]} != {reference} "
                 f"{str(expected)[:16]}")
    ctx.digests.setdefault(key, doc["digest"])
    return doc


def pair_round(ctx: Context, pair: str, trace: bool) -> Optional[List[dict]]:
    docs = [corun(ctx, pair, policy, trace) for policy in PAIR_POLICIES]
    return None if any(d is None for d in docs) else docs


def pair_workload(ctx: Context, pair: str) -> dict:
    # One co-run is one busy thread: pin it, so one probe times its core.
    ctx.pin({ctx.cpus[-1]})
    seconds = ctx.args.seconds
    start = time.perf_counter()
    if not ctx.args.trace:
        rounds = []
        while not rounds or time.perf_counter() - start < seconds:
            docs = pair_round(ctx, pair, False)
            if docs is None:
                break
            rounds.append(docs)
        for key, value in sorted(ctx.digests.items()):
            ctx.notes.append(f"digest {key} seed {ctx.args.seed}: {value}")
        if not rounds:
            return {}
        docs = [d for r in rounds for d in r]
        setups = [d["setup_s"] for d in docs]
        wall = latency = 0.0
        for policy in PAIR_POLICIES:
            mine = [d for d in docs if d["policy"] == policy]
            walls = [d["wall_s"] for d in mine]
            lats = [d["latency_s"] * 1e3 for d in mine]
            wall += statistics.median(walls)
            latency += statistics.median(lats)
            ctx.notes.append(f"{policy}: wall_s " + describe(walls, "s")
                             + "; spawn-to-exit " + describe(lats, "ms")
                             + "; unscaled wall_s " + describe(
                                 [d["raw_wall_s"] for d in mine], "s"))
        ctx.notes.append("setup_s per co-run: " + describe(setups, "s"))
        return {"setup_s": statistics.median(setups),
                "wall_s": wall,
                "peak_rss_mb": max(d["maxrss_mb"] for d in docs),
                "latency_p50_ms": latency}

    plain, traced = [], []
    while not traced or time.perf_counter() - start < seconds:
        for trace, sink in ((False, plain), (True, traced)):
            docs = pair_round(ctx, pair, trace)
            if docs is None:
                return {}
            sink.append(docs)
    plain_walls = [sum(d["wall_s"] for d in r) for r in plain]
    traced_walls = [sum(d["wall_s"] for d in r) for r in traced]
    # Simulated counts repeat in every round; host rates use the median.
    median_round = sorted(plain, key=lambda r: sum(d["wall_s"] for d in r))[
        (len(plain) - 1) // 2]
    metrics = simstats.layer_counters([d["sim"] for d in median_round])
    per_round = [merge_traces([d["trace"] for d in r]) for r in traced]
    metrics.update(trace_metrics(per_round))
    metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                       / statistics.median(plain_walls))
    ctx.notes.append(f"layer times are per round of {len(PAIR_POLICIES)} "
                     f"co-runs, median of {len(traced)} traced round(s)")
    ctx.notes.append("absent functions: "
                     + (", ".join(per_round[0]["absent"]) or "none"))
    return metrics


# ----------------------------------------------------------------------
# Trace aggregation
# ----------------------------------------------------------------------
def merge_traces(traces: List[dict]) -> dict:
    merged = {"layers": {}, "functions": {}, "absent": set()}
    for trace in traces:
        for layer, entry in trace["layers"].items():
            slot = merged["layers"].setdefault(layer,
                                               {"self_s": 0.0, "calls": 0})
            slot["self_s"] += entry["self_s"]
            slot["calls"] += entry["calls"]
        for name, entry in trace["functions"].items():
            slot = merged["functions"].setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                       "truthy": 0})
            for key in slot:
                slot[key] += entry[key]
        merged["absent"].update(trace["absent"])
    merged["absent"] = sorted(merged["absent"])
    return merged


def layer_medians(traces: List[dict]) -> dict:
    out = {}
    for layer in traces[0]["layers"]:
        out[f"{layer}.self_s"] = statistics.median(
            t["layers"][layer]["self_s"] for t in traces)
        out[f"{layer}.calls"] = statistics.median(
            t["layers"][layer]["calls"] for t in traces)
    return out


def accept_ratio(trace: dict) -> float:
    offered = accepted = 0
    for name, entry in trace["functions"].items():
        if name.endswith(".on_arrival"):
            offered += entry["calls"]
            accepted += entry["truthy"]
    return accepted / offered if offered else 0.0


def function_total(trace: dict, suffix: str, key: str = "total_s") -> float:
    return sum(entry[key] for name, entry in trace["functions"].items()
               if name.endswith(suffix))


def trace_metrics(traces: List[dict]) -> dict:
    """Layer self times and calls (median over ``traces``) plus the
    per-function totals the layer metrics name, from the first trace."""
    trace = traces[0]
    metrics = layer_medians(traces)
    metrics.update({
        "core.arrival_accept_ratio": accept_ratio(trace),
        "harness.plan_s": function_total(trace, ".plan_campaign"),
        "harness.campaign_s": function_total(trace, ".run_campaign"),
        "harness.cache.get_s": function_total(trace, "ResultCache.get"),
        "harness.cache.put_s": function_total(trace, "ResultCache.put"),
        "harness.cache.calls": (
            function_total(trace, "ResultCache.get", "calls")
            + function_total(trace, "ResultCache.put", "calls")),
        "serve.query_s": function_total(trace, "ReproServer.query"),
    })
    return metrics


def shares(metrics: dict) -> str:
    layers = [k[:-len(".self_s")] for k in metrics if k.endswith(".self_s")]
    total = sum(metrics[f"{layer}.self_s"] for layer in layers) or 1.0
    return ", ".join(f"{layer} {metrics[f'{layer}.self_s'] / total:.1%}"
                     for layer in layers)


# ----------------------------------------------------------------------
# Campaign workload
# ----------------------------------------------------------------------
def parse_tables(stdout: str) -> Dict[str, str]:
    """Figure id -> rendered table text, as benchmarks/results stores it."""
    tables, current = {}, None
    for line in stdout.splitlines():
        if current is None and line.startswith("== ") and ":" in line:
            current = [line]
        elif current is not None:
            if line.strip():
                current.append(line)
            else:
                figure = current[0][3:].split(":", 1)[0]
                tables[figure] = "\n".join(current) + "\n"
                current = None
    return tables


def campaign_argv(figures, cache: Optional[Path], plan_only: bool) -> list:
    argv = ["campaign", "--figures", ",".join(figures),
            "--pairs", ",".join(CAMPAIGN_PAIRS),
            "--scale", str(CAMPAIGN_SCALE),
            "--workers", str(CAMPAIGN_WORKERS)]
    if cache is not None:
        argv += ["--cache-dir", str(cache)]
    return argv + (["--plan-only"] if plan_only else [])


def run_campaign(ctx: Context, figures, trace: bool) -> Optional[dict]:
    out = ctx.fresh("campaign")
    proc, spawn = ctx.spawn("cli", out, trace, [],
                            campaign_argv(figures, ctx.fresh("cache"), False),
                            stdout=subprocess.PIPE)
    rss = TreeRss(proc.pid)
    stdout, err = finish(proc)
    exited = time.monotonic()
    peak = rss.stop()
    ctx.attempted += len(figures)
    doc = read_doc(out)
    if proc.returncode != 0 or doc is None or "report" not in doc["marks"]:
        for figure in figures:
            ctx.fail(f"campaign {figure}: exit {proc.returncode}: "
                     f"{_tail(err)}")
        return None
    report = doc["marks"]["report"]
    tables = parse_tables(stdout or "")
    for figure in figures:
        ref = ctx.source / "benchmarks" / "results" / f"{figure}.txt"
        expected = ref.read_text() if ref.exists() else None
        if tables.get(figure) != expected:
            ctx.fail(f"campaign {figure}: table differs from {ref.name}")
    if not report["ok"] or report["violations"]:
        ctx.fail(f"campaign: report ok={report['ok']} "
                 f"violations={report['violations']}")
    marks = doc["marks"]
    doc.update(
        latency_s=ctx.at_reference(exited - spawn, spawn, exited),
        peak_rss_mb=max(peak, doc["maxrss_mb"]),
        setup_s=ctx.at_reference(marks["dispatch"] - spawn, spawn,
                                 marks["dispatch"]),
        raw_wall_s=marks["end"] - marks["dispatch"],
        wall_s=ctx.at_reference(marks["end"] - marks["dispatch"],
                                marks["dispatch"], marks["end"]))
    return doc


def plan_setup(ctx: Context, figures) -> Optional[float]:
    out = ctx.fresh("plan")
    proc, spawn = ctx.spawn("cli", out, False, [],
                            campaign_argv(figures, None, True))
    _, err = finish(proc)
    ctx.attempted += 1
    doc = read_doc(out)
    if proc.returncode != 0 or doc is None or "planned" not in doc["marks"]:
        ctx.fail(f"campaign --plan-only: exit {proc.returncode}: "
                 f"{_tail(err)}")
        return None
    planned = doc["marks"]["planned"]
    return ctx.at_reference(planned - spawn, spawn, planned)


def campaign_workload(ctx: Context) -> dict:
    if not (ctx.source / "src" / "repro" / "harness" / "campaign.py").exists():
        raise Unsupported("no repro.harness.campaign (repro campaign)")
    # The seed orders the figures; the simulations and tables are fixed
    # because the tables are checked against the committed results.
    figures = list(CAMPAIGN_FIGURES)
    random.Random(ctx.args.seed).shuffle(figures)
    ctx.notes.append(f"figure order: {','.join(figures)}")
    seconds = ctx.args.seconds
    if ctx.args.trace:
        plain = run_campaign(ctx, figures, False)
        traced = run_campaign(ctx, figures, True)
        if plain is None or traced is None:
            return {}
        return campaign_layers(ctx, plain, traced)

    setups = [s for s in (plan_setup(ctx, figures)
                          for _ in range(PLAN_SETUPS)) if s is not None]
    # At least two cold campaigns, so one burst of host noise moves the
    # median by half; more while another fits in ``seconds``.
    start = time.perf_counter()
    docs = []
    while len(docs) < 2 or (time.perf_counter() - start
                            + docs[-1]["latency_s"] < seconds):
        doc = run_campaign(ctx, figures, False)
        if doc is None:
            break
        docs.append(doc)
    if not docs:
        return {}
    setups += [d["setup_s"] for d in docs]
    walls = [d["wall_s"] for d in docs]
    report = docs[0]["marks"]["report"]
    ctx.notes.append(f"campaign: {report['requested']} requests -> "
                     f"{report['unique_jobs']} unique jobs, "
                     f"{report['simulated']} simulated")
    ctx.notes.append("wall_s per campaign: " + describe(walls, "s")
                     + "; unscaled " + describe([d["raw_wall_s"] for d in docs],
                                                "s"))
    ctx.notes.append("setup_s (plan-only runs and campaigns): "
                     + describe(setups, "s"))
    return {"setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": max(d["peak_rss_mb"] for d in docs),
            "latency_p50_ms": statistics.median(
                d["latency_s"] * 1e3 for d in docs)}


def campaign_layers(ctx: Context, plain: dict, traced: dict) -> dict:
    report = traced["marks"]["report"]
    trace = traced["trace"]
    metrics = simstats.layer_counters(report["sims"])
    metrics.update(trace_metrics([trace]))
    workers = traced["marks"].get("workers") or CAMPAIGN_WORKERS
    metrics.update({
        "harness.jobs_executed": report["simulated"],
        "harness.dedup_ratio": (1 - report["unique_jobs"]
                                / report["requested"]
                                if report["requested"] else 0.0),
        "harness.worker_busy_ratio": (report["sim_wall_s"]
                                      / (workers
                                         * traced["marks"]["dispatch_s"])),
        "trace.overhead_ratio": traced["wall_s"] / plain["wall_s"],
    })
    ctx.notes.append("campaign workers run untraced: engine..mem layer "
                     "times are 0 here; their breakdown comes from the pair "
                     "workloads (simulated counters are summed over jobs)")
    ctx.notes.append("absent functions: "
                     + (", ".join(trace["absent"]) or "none"))
    return metrics


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def post(port: int, body: dict) -> dict:
    """One query on its own connection, as the repo's ServeClient sends it."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", "/query", body=json.dumps(body).encode(),
                     headers={"Content-Type": "application/json",
                              "Connection": "close"})
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    if response.status != 200:
        raise RuntimeError(f"HTTP {response.status}: {data[:200]!r}")
    return json.loads(data)


def wait_ready(port: int, proc, timeout: float = 60.0,
               path: str = "/readyz", method: str = "GET") -> bool:
    deadline = time.time() + timeout
    while time.time() < deadline and proc.poll() is None:
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            conn.request(method, path, body=b"{}" if method == "POST"
                         else None)
            ok = conn.getresponse().status == 200
            conn.close()
            if ok:
                return True
        except (OSError, http.client.HTTPException):
            pass
        time.sleep(0.02)
    return False


def check_answer(ctx: Context, qid: str, answer: dict, expect: str,
                 latency_ms: float) -> bool:
    status = answer.get("status")
    limit = (servemix.EXACT_LIMIT_MS if expect == "exact"
             else servemix.SIMULATED_LIMIT_MS)
    golden = GOLDEN["serve"].get(qid)
    digest = servemix.payload_digest(answer.get("payload") or {})
    if status != expect:
        ctx.fail(f"serve {qid}: status {status} (expected {expect}): "
                 f"{answer.get('detail', '')}")
    elif latency_ms > limit:
        ctx.fail(f"serve {qid}: {latency_ms:.0f} ms over the {limit:.0f} ms "
                 f"limit")
    elif digest != golden:
        ctx.fail(f"serve {qid}: payload digest {digest[:16]} != golden "
                 f"{str(golden)[:16]}")
    else:
        return True
    return False


def serve_session(ctx: Context, trace: bool, items) -> Optional[dict]:
    """Start a server, prime the hot set, optionally drive ``items``."""
    port = free_port()
    out = ctx.fresh("serve")
    argv = ["serve", "--cache-dir", str(ctx.fresh("serve-cache")),
            "--port", str(port), "--scale", str(servemix.SERVE_SCALE)]
    proc, spawn = ctx.spawn("cli", out, trace, [], argv)
    session: Dict = {"records": []}
    try:
        if not wait_ready(port, proc):
            ctx.attempted += 1
            ctx.fail(f"serve: not ready: exit {proc.poll()}")
            return None
        for qid in sorted(servemix.HOT):
            start = time.time()
            ctx.attempted += 1
            try:
                answer = post(port, servemix.HOT[qid])
            except (OSError, http.client.HTTPException, RuntimeError,
                    ValueError) as exc:
                ctx.fail(f"serve prime {qid}: {exc}")
                return None
            check_answer(ctx, qid, answer, "simulated",
                         (time.time() - start) * 1e3)
        primed = time.monotonic()
        session["setup_s"] = ctx.at_reference(primed - spawn, spawn, primed)
        if items is not None:
            null_port = free_port()
            null = subprocess.Popen([sys.executable, str(NULL_HTTP),
                                     "--port", str(null_port)],
                                    env=ctx.env, cwd=str(ctx.rundir))
            try:
                if not wait_ready(null_port, null, path="/query",
                                  method="POST"):
                    ctx.attempted += 1
                    ctx.fail(f"null server: not ready: exit {null.poll()}")
                    return None
                drive(ctx, port, null_port, items, session)
            finally:
                null.terminate()
                finish(null, 30)
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        _, err = finish(proc, 60)
    doc = read_doc(out)
    if proc.returncode != 0 or doc is None:
        ctx.attempted += 1
        ctx.fail(f"serve: exit {proc.returncode}: {_tail(err)}")
        return None
    session["doc"] = doc
    return session


def drive(ctx: Context, port: int, null_port: int, items,
          session: dict) -> None:
    """Hot-set queries back to back from one client thread for the
    phase, with an exchange with the null server after every
    ``NULL_EVERY``-th; novel queries at their due times from a second
    thread."""
    hot_ids, novel = items
    t0 = time.monotonic() + 0.05
    end = t0 + ctx.args.seconds
    hot_records: List[dict] = []
    novel_records: List[dict] = []
    null_ms: List[float] = []

    def ask(body: dict) -> dict:
        try:
            return post(port, body)
        except (OSError, http.client.HTTPException, RuntimeError,
                ValueError) as exc:
            return {"status": "error", "detail": str(exc)}

    def hot_client() -> None:
        time.sleep(max(0.0, t0 - time.monotonic()))
        index = 0
        while True:
            sent = time.monotonic()
            if sent >= end:
                break
            qid = hot_ids[index % len(hot_ids)]
            index += 1
            answer = ask(servemix.HOT[qid])
            hot_records.append({"qid": qid, "due": sent, "sent": sent,
                                "done": time.monotonic(), "answer": answer})
            if index % NULL_EVERY == 0:
                start = time.monotonic()
                try:
                    post(null_port, servemix.HOT[qid])
                except (OSError, http.client.HTTPException, RuntimeError,
                        ValueError) as exc:
                    ctx.fail(f"null server: {exc}")
                    return
                null_ms.append((time.monotonic() - start) * 1e3)

    def novel_client() -> None:
        for due, qid, body in novel:
            delay = t0 + due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            answer = ask(body)
            novel_records.append({"qid": qid, "due": t0 + due, "sent": sent,
                                  "done": time.monotonic(),
                                  "answer": answer})

    workers = [threading.Thread(target=hot_client),
               threading.Thread(target=novel_client)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    session["t0"] = t0
    session["phase_end"] = end
    session["records"] = hot_records + novel_records
    session["novel_records"] = novel_records
    session["null_ms"] = null_ms


def serve_metrics(ctx: Context, session: dict) -> dict:
    """Check every answer; end-to-end and client-side layer numbers."""
    exact, simulated, http_ms, tiers = [], [], [], {}
    records = session["records"]
    for rec in records:
        ctx.attempted += 1
        answer = rec["answer"]
        latency = (rec["done"] - rec["due"]) * 1e3
        status = answer.get("status", "error")
        tiers[status] = tiers.get(status, 0) + 1
        expect = "exact" if rec["qid"] in servemix.HOT else "simulated"
        check_answer(ctx, rec["qid"], answer, expect, latency)
        if status == "exact":
            exact.append(latency)
            http_ms.append((rec["done"] - rec["sent"]) * 1e3
                           - float(answer.get("wall_ms", 0.0)))
        elif status == "simulated":
            simulated.append(latency)
    novel = session["novel_records"]
    lags = [max(0.0, r["sent"] - r["due"]) * 1e3 for r in novel] or [0.0]
    end = session["phase_end"]
    backlog = sum(1 for r in novel if r["due"] <= end and r["done"] > end)
    runs = session["doc"].get("runs", [])
    phase = max(r["done"] for r in records) - session["t0"]
    sim_s = sum(r["wall_s"] for r in runs)
    return {
        "exact": exact, "simulated": simulated,
        "lags": lags, "phase_s": phase,
        "serve.http_ms": statistics.median(http_ms) if http_ms else 0.0,
        "serve.sim_s": sim_s,
        "serve.executor_busy_ratio": sim_s / phase,
        **{f"serve.tier.{s}": tiers.get(s, 0)
           for s in ("exact", "simulated", "estimate", "timeout",
                     "rejected", "error")},
        "serve.generator_lag_ms": max(lags),
        "serve.backlog_end": backlog,
        "serve.exact_p50_ms": statistics.median(exact) if exact else 0.0,
        "serve.exact_p98_ms": percentile(exact, 98) if exact else 0.0,
        "serve.simulated_p50_ms": (statistics.median(simulated)
                                   if simulated else 0.0),
    }


def serve_workload(ctx: Context) -> dict:
    if not (ctx.source / "src" / "repro" / "serve" / "server.py").exists():
        raise Unsupported("no repro.serve.server (repro serve)")
    # Client and server share one CPU, so an answer is handed over
    # without waking an idle vCPU, whose wake-up time (and the caches
    # other tenants left cold meanwhile) depends on the host.
    ctx.pin({ctx.cpus[-1]})
    items = servemix.schedule(ctx.args.seed, ctx.args.seconds)
    ctx.notes.append(f"schedule: hot set back to back for "
                     f"{ctx.args.seconds:g} s from one client thread, "
                     f"{len(items[1])} novel queries open-loop from another")
    if ctx.args.trace:
        plain = serve_session(ctx, False, items)
        traced = serve_session(ctx, True, items)
        if plain is None or traced is None:
            return {}
        client = serve_metrics(ctx, plain)
        trace = traced["doc"]["trace"]
        metrics = simstats.layer_counters(plain["doc"]["runs"])
        metrics.update(trace_metrics([trace]))
        metrics.update({k: v for k, v in client.items() if "." in k})
        traced_client = serve_metrics(ctx, traced)
        metrics["trace.overhead_ratio"] = (traced_client["serve.exact_p50_ms"]
                                           / client["serve.exact_p50_ms"])
        ctx.notes.append("serve layer times cover the whole traced server "
                         "(priming and phase); overhead is the median "
                         "exact-tier latency, traced over untraced")
        ctx.notes.append("absent functions: "
                         + (", ".join(trace["absent"]) or "none"))
        return metrics

    measured = serve_session(ctx, False, items)
    if measured is None or not measured["null_ms"]:
        return {}
    setups = [measured["setup_s"]]
    for _ in range(SERVE_SETUPS - 1):
        extra = serve_session(ctx, False, None)
        if extra is not None:
            setups.append(extra["setup_s"])
    client = serve_metrics(ctx, measured)
    # An answer is about half interpreter work (the probe kernel's kind)
    # and half connection, thread and HTTP handling (the null exchange's
    # kind, same stack, same CPU); scale by the geometric mean of the two.
    null_ms = measured["null_ms"]
    interp = ctx.speed.slowdown(measured["t0"], measured["phase_end"],
                                ctx.cpus)
    exchange = statistics.median(null_ms) / NULL_REFERENCE_MS
    slowdown = (interp * exchange) ** 0.5
    ctx.notes.append("exact-tier latency: " + describe(client["exact"], "ms")
                     + "; null-server exchange: " + describe(null_ms, "ms")
                     + f"; slowdown: probe {interp:.4f}, exchange "
                     f"{exchange:.4f}")
    if client["simulated"]:
        ctx.notes.append("simulated-tier latency from due time: "
                         + describe(client["simulated"], "ms"))
    ctx.notes.append("novel-query lateness: " + describe(client["lags"], "ms")
                     + f"; backlog at phase end {client['serve.backlog_end']}")
    ctx.notes.append("setup_s (server ready + hot-set priming): "
                     + describe(setups, "s"))
    return {"setup_s": statistics.median(setups),
            "wall_s": client["phase_s"],
            "peak_rss_mb": measured["doc"]["maxrss_mb"],
            "latency_p50_ms": statistics.median(client["exact"]) / slowdown}


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--source", default=None,
                        help="source tree to measure (default: the "
                             "current directory)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    source = Path(args.source).resolve() if args.source else root
    if not (source / "src" / "repro" / "__init__.py").exists():
        print(f"perfbench: no src/repro under {source}; run from the root "
              "of a checkout or pass --source", file=sys.stderr)
        return 2
    # Build step: byte-compile once, so no timed import compiles.
    compileall.compile_dir(str(source / "src"), quiet=1)
    # SIGTERM unwinds like an exception, so every child gets stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    load_start = os.getloadavg()
    with HostSpeed() as speed:
        speed.wait_ready()
        ctx = Context(args, root, source, speed)
        try:
            if args.workload in PAIRS:
                metrics = pair_workload(ctx, PAIRS[args.workload])
            elif args.workload == "campaign-fig5-7":
                metrics = campaign_workload(ctx)
            else:
                metrics = serve_workload(ctx)
        except Unsupported as exc:
            print(f"perfbench: workload {args.workload} unsupported by this "
                  f"checkout: {exc}", file=sys.stderr)
            return 3
        finally:
            shutil.rmtree(ctx.rundir, ignore_errors=True)
            try:
                ctx.rundir.parent.rmdir()
            except OSError:
                pass
        slowdown = speed.median_slowdown()
    load_end = os.getloadavg()
    print(f"host: nproc={os.cpu_count()} "
          f"load1={load_start[0]:.2f}->{load_end[0]:.2f} "
          f"python={platform.python_version()} "
          f"commit={commit_of(source)} "
          f"src_sha256={source_digest(source / 'src')} "
          f"slowdown={slowdown:.3f}")
    for note in ctx.notes:
        print(note)
    wanted = PER_LAYER if args.trace else END_TO_END
    if args.trace and metrics:
        metrics["host.slowdown"] = slowdown
        print("self-time shares: " + shares(metrics))
        idle = [name for name in PER_LAYER if name not in metrics]
        print("not exercised by this workload (reported as 0): "
              + (", ".join(idle) or "none"))
        for name in idle:
            metrics[name] = 0.0
    failed = len(ctx.failures)
    print(f"fail_ratio: {failed}/{ctx.attempted}")
    missing = [name for name in wanted if name not in metrics]
    if missing:
        if not ctx.failures:
            print(f"perfbench: no value for {', '.join(missing)}",
                  file=sys.stderr)
        return 1
    for name, unit in wanted.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, ctx.attempted),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
