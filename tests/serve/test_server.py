"""ReproServer behaviour: tiers, deadlines, health, HTTP front-end."""

import json
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection

import pytest

from repro.engine.config import GpuConfig
from repro.harness.parallel import Job, run_jobs
from repro.harness.result_cache import job_key
from repro.serve import server as server_module
from repro.serve.client import ServeClient, ServeUnavailable
from repro.serve.estimator import INDEX_FILE, ServeIndex
from repro.serve.health import health_snapshot, ready_snapshot
from repro.serve.queries import (
    STATUS_EXACT,
    STATUS_REJECTED,
    STATUS_SIMULATED,
    STATUS_TIMEOUT,
    PlacementQuery,
)
from repro.serve.server import ServeHTTPServer

from .conftest import DEADLINE, MAX_EVENTS, SCALE, make_server


def wait_until(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def metrics_query(names=("GUPS",), **overrides):
    kwargs = dict(kind="metrics", workloads=tuple(names),
                  deadline_s=DEADLINE)
    kwargs.update(overrides)
    return PlacementQuery(**kwargs)


class TestTiers:
    def test_miss_simulates_then_hits_exact(self, server):
        first = server.query(metrics_query())
        assert first.status == STATUS_SIMULATED
        assert not first.estimate
        assert first.payload["total_ipc"] > 0
        second = server.query(metrics_query())
        assert second.status == STATUS_EXACT
        # Byte-identical payloads: the exact tier replays the cached
        # simulation, not a new one.
        assert json.dumps(second.payload, sort_keys=True) \
            == json.dumps(first.payload, sort_keys=True)
        tiers = server.tier_counters()
        assert tiers[STATUS_SIMULATED] == 1 and tiers[STATUS_EXACT] == 1

    def test_zero_deadline_times_out_then_background_completes(self, server):
        response = server.query(metrics_query(deadline_s=0.0))
        assert response.status == STATUS_TIMEOUT
        assert response.estimate
        assert "background" in response.detail
        # The simulation keeps running and lands in the cache.
        assert wait_until(lambda: server.queue.depth() == 0
                          and server.queue.inflight() == 0)
        final = server.query(metrics_query())
        assert final.status == STATUS_EXACT

    def test_best_policy_ranks_candidates(self, server):
        response = server.query(PlacementQuery(
            kind="best_policy", workloads=("GUPS", "SRAD"),
            candidates=("baseline", "dws"), deadline_s=DEADLINE))
        assert response.status == STATUS_SIMULATED
        payload = response.payload
        assert payload["best_policy"] in ("baseline", "dws")
        assert set(payload["candidates"]) == {"baseline", "dws"}
        ipcs = {p: c["metrics"]["total_ipc"]
                for p, c in payload["candidates"].items()}
        assert payload["best_policy"] == max(ipcs, key=ipcs.get)

    def test_unbuildable_config_is_a_typed_rejection(self, server):
        # 100 entries do not divide into the L2 TLB's 16 ways.
        response = server.query(metrics_query(l2_tlb_entries=100))
        assert response.status == STATUS_REJECTED
        assert "not divisible" in response.detail

    def test_rejected_before_start_and_while_draining(self, tmp_path):
        srv = make_server(tmp_path / "c")
        response = srv.query(metrics_query())
        assert response.status == STATUS_REJECTED
        srv.start()
        srv.drain(timeout=1.0)
        response = srv.query(metrics_query())
        assert response.status == STATUS_REJECTED
        assert "draining" in response.detail


class TestHealth:
    def test_snapshot_schema_and_ok_status(self, server):
        server.query(metrics_query())
        doc = health_snapshot(server)
        assert doc["status"] == "ok"
        assert doc["ready"] is True
        assert doc["queries"][STATUS_SIMULATED] == 1
        assert doc["queue"]["capacity"] == 8
        assert doc["breaker"]["state"] == "closed"
        assert doc["cache"]["stores"] >= 1
        assert doc["estimator_entries"] >= 1
        assert "retries" in doc["supervision"]
        json.dumps(doc)  # the whole document must be JSON-portable

    def test_draining_flips_ready(self, server):
        assert ready_snapshot(server)["ready"] is True
        server.drain(timeout=1.0)
        snapshot = ready_snapshot(server)
        assert snapshot["ready"] is False and snapshot["draining"] is True
        assert health_snapshot(server)["status"] == "draining"


class TestHTTP:
    @pytest.fixture
    def http(self, server):
        httpd = ServeHTTPServer(("127.0.0.1", 0), server)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
        httpd.shutdown()
        httpd.server_close()

    def test_query_roundtrip(self, http):
        client = ServeClient(http)
        response = client.query(metrics_query())
        assert response.status == STATUS_SIMULATED
        assert client.query(metrics_query()).status == STATUS_EXACT

    def test_health_and_ready_endpoints(self, http):
        client = ServeClient(http)
        assert client.ready() is True
        assert client.health()["status"] == "ok"

    def test_ready_returns_503_when_draining(self, http, server):
        server.draining = True
        try:
            request = urllib.request.Request(f"{http}/readyz")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 503
        finally:
            server.draining = False

    def test_malformed_query_is_http_400(self, http):
        client = ServeClient(http)
        with pytest.raises(ServeUnavailable) as err:
            client._request("/query", body={"kind": "metrics",
                                            "workloads": ["NOPE"]})
        assert "400" in str(err.value)

    def test_unknown_path_is_404(self, http):
        client = ServeClient(http)
        with pytest.raises(ServeUnavailable) as err:
            client._request("/nope")
        assert "404" in str(err.value)

    def test_keep_alive_answers_do_not_stall(self, http):
        # Headers and body go out in two sends; without TCP_NODELAY,
        # Nagle waits on the client's delayed ACK (~40 ms per answer).
        assert ServeClient(http).query(metrics_query()).status \
            == STATUS_SIMULATED
        host, port = http.rsplit("/", 1)[-1].split(":")
        conn = HTTPConnection(host, int(port), timeout=30)
        body = json.dumps(metrics_query().to_dict())
        latencies = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                conn.request("POST", "/query", body=body,
                             headers={"Content-Type": "application/json"})
                reply = json.loads(conn.getresponse().read())
                latencies.append(time.perf_counter() - start)
                assert reply["status"] == STATUS_EXACT
        finally:
            conn.close()
        assert statistics.median(latencies) < 0.020, latencies

    def test_client_unreachable_server(self):
        client = ServeClient("http://127.0.0.1:9", timeout_s=0.5)
        with pytest.raises(ServeUnavailable):
            client.query(metrics_query())
        assert client.ready() is False


class TestCoalescing:
    def test_concurrent_identical_queries_share_one_simulation(self, server):
        results = []

        def ask():
            results.append(server.query(metrics_query(("HS",))))

        threads = [threading.Thread(target=ask) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r.status in (STATUS_SIMULATED, STATUS_EXACT)
                   for r in results)
        # At most one simulation ran: everything else coalesced or hit
        # the cache that simulation populated.
        assert server.cache.stores == 1


def cache_files(root):
    """``(st_ino, st_mtime_ns, st_size)`` of every file under ``root``."""
    return {path: (st.st_ino, st.st_mtime_ns, st.st_size)
            for path in root.rglob("*") if path.is_file()
            for st in [path.stat()]}


def campaign_job(names, policy):
    """The job a campaign would run for this component, built without
    the server, so a hit proves both address the same cache entry."""
    return Job(label=f"campaign:{'.'.join(names)}/{policy}",
               names=tuple(names),
               config=GpuConfig.baseline().with_policy(policy),
               scale=SCALE, warps_per_sm=2, max_events=MAX_EVENTS)


class TestJobMemo:
    def test_memo_is_bounded_and_exact_under_threads(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(server_module, "JOB_MEMO_MAX", 8)
        srv = make_server(tmp_path / "cache")
        queries = [metrics_query(l2_tlb_entries=16 * (i + 1))
                   for i in range(24)]
        sizes, errors = [], []

        def hammer(offset):
            try:
                for i in range(200):
                    query = queries[(offset + i) % len(queries)]
                    job, key = srv._job_and_key(query, "dws")
                    assert key == job_key(job)
                    assert job.config.l2_tlb.entries == query.l2_tlb_entries
                    sizes.append(len(srv._jobs))
            except AssertionError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(k * 5,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]
        assert max(sizes) <= 8

    def test_memoized_job_matches_a_campaign_job(self, server):
        job, key = server._job_and_key(metrics_query(), "dws")
        assert server._job_for(metrics_query(), "dws") is job
        assert key == job_key(campaign_job(("GUPS",), "dws"))


class TestExactTierWritesNothing:
    BEST = dict(kind="best_policy", candidates=("baseline", "dws"))

    def test_repeated_exact_answers_touch_no_file(self, server):
        run_jobs([campaign_job(("GUPS",), p) for p in ("baseline", "dws")],
                 workers=1, cache=server.cache)
        queries = [metrics_query(), metrics_query(**self.BEST)]
        for query in queries:  # first hits record the index entries
            assert server.query(query).status == STATUS_EXACT
        root = server.cache.root
        before = cache_files(root)
        assert root / INDEX_FILE in before
        for i in range(50):
            assert server.query(queries[i % 2]).status == STATUS_EXACT
        assert cache_files(root) == before
        assert server.tier_counters()[STATUS_EXACT] == 52

    def test_campaign_warmed_entry_is_indexed_on_first_hit(self, server):
        run_jobs([campaign_job(("GUPS",), "baseline")], workers=1,
                 cache=server.cache)
        assert len(ServeIndex(server.cache.root)) == 0
        exact = server.query(metrics_query())
        assert exact.status == STATUS_EXACT
        # Persisted, and the estimate tier can now answer a neighbor.
        reloaded = ServeIndex(server.cache.root)
        assert len(reloaded) == 1
        estimate = reloaded.estimate(("HS",), "baseline")
        assert estimate is not None
        assert estimate["basis"][0]["key"] == "GUPS|baseline|tlbbase|ptwbase"
        assert estimate["total_ipc"] == exact.payload["total_ipc"]
