"""The on-disk result cache: key scheme, storage, and harness wiring."""

import pickle

import pytest

import repro.harness.parallel as parallel_module
from repro.engine.config import GpuConfig
from repro.harness import Session, faults
from repro.harness.parallel import Job, run_jobs
from repro.harness.result_cache import (
    CACHE_FORMAT,
    COST_EMA_ALPHA,
    CacheIntegrityError,
    ResultCache,
    cost_key,
    decode_entry,
    encode_entry,
    job_key,
)

SCALE = 0.05


def tiny_job(label="job", pair="HS.MM", policy="baseline", seed=0,
             scale=SCALE, max_events=None):
    kwargs = {} if max_events is None else {"max_events": max_events}
    return Job(label=label, names=tuple(pair.split(".")),
               config=GpuConfig.baseline(num_sms=2).with_policy(policy),
               scale=scale, warps_per_sm=2, seed=seed, **kwargs)


class TestJobKey:
    def test_stable_across_equal_jobs(self):
        assert job_key(tiny_job("a")) == job_key(tiny_job("b"))
        # The label is presentation, not content.

    @pytest.mark.parametrize("variant", [
        tiny_job(pair="FFT.HS"),
        tiny_job(policy="dws"),
        tiny_job(seed=1),
        tiny_job(scale=SCALE * 2),
        tiny_job(max_events=1000),
    ])
    def test_any_content_change_changes_key(self, variant):
        assert job_key(variant) != job_key(tiny_job())

    def test_nested_config_field_changes_key(self):
        base = tiny_job()
        bigger_tlb = tiny_job()
        object.__setattr__(
            bigger_tlb, "config",
            base.config.with_l2_tlb_entries(base.config.l2_tlb.entries * 2))
        assert job_key(bigger_tlb) != job_key(base)


#: job_key digests recorded before the serve exact tier started
#: memoizing keys.  A change here orphans every user's cache silently,
#: so a mismatch means the key scheme moved, not that the pin is stale.
PINNED_KEYS = {
    "baseline":
        "a9b512e21e26bf9496e0b052eaa9075b5de035dd37b677dac16a16998bcf04e6",
    "dws":
        "82c4e48781899d62568a6967c2f0381c69600c13bad3fde0c8e20daf57b4e732",
    "dwspp":
        "097c27150469e2cdaf7fcdaa1729fea3b178d234d3558bd49df724c0a4df7b3f",
    "S-TLB":
        "a89f6cc3d40a923833cbba699d492f620ed8d07fbc6290b6a58cc50389cf3074",
    "S-(TLB+PTW)":
        "081489f56648b95502ca4e45ef8b28dd3edfebc5859acbb022f6f3ffda73646d",
    "64KB pages":
        "77f6dc7e93d32c58ecc19ec27838a4c9b7477547c5e3b9abf5b7a0bf7217a9b0",
    "tlb512 ptw8":
        "89dcb3e42d9800e137ffe517d429c280762e0940513d9d42c9d387a7e9f44673",
}


def pinned_config(name):
    base = GpuConfig.baseline()
    return {
        "baseline": lambda: base.with_policy("baseline"),
        "dws": lambda: base.with_policy("dws"),
        "dwspp": lambda: base.with_policy("dwspp"),
        "S-TLB": base.with_separate_tlb,
        "S-(TLB+PTW)": base.with_separate_tlb_and_walkers,
        "64KB pages": lambda: base.with_page_size_bits(16),
        "tlb512 ptw8":
            lambda: base.with_l2_tlb_entries(512).with_walker_count(8),
    }[name]()


class TestPinnedKeys:
    def test_cache_format_is_pinned(self):
        assert CACHE_FORMAT == 4

    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_job_key_digest_is_pinned(self, name):
        job = Job(label=f"pin:{name}", names=("GUPS", "SAD"),
                  config=pinned_config(name), scale=0.05, warps_per_sm=2)
        assert job_key(job) == PINNED_KEYS[name]


class TestResultCacheStorage:
    def test_roundtrip_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ab" + "0" * 62) is None
        cache.put("ab" + "0" * 62, {"x": 1})
        assert cache.get("ab" + "0" * 62) == {"x": 1}
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["stores"] == 1 and stats["corrupt"] == 0
        assert stats["entries"] == 1 and stats["evictions"] == 0
        assert stats["max_bytes"] is None
        assert stats["bytes"] == cache._path("ab" + "0" * 62).stat().st_size

    def test_corrupted_entry_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        cache.put(key, [1, 2, 3])
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert not path.exists()  # poisoned entry removed for good

    def test_unwritable_root_degrades_silently(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("in the way")
        cache = ResultCache(blocker / "cache")  # mkdir will fail
        cache.put("ef" + "0" * 62, {"x": 1})
        assert cache.stores == 0
        assert cache.get("ef" + "0" * 62) is None

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(f"{i:02d}" + "0" * 62, i)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0


class TestEntryEnvelope:
    def test_round_trip(self):
        payload = b"some pickled bytes"
        assert decode_entry(encode_entry(payload)) == payload

    def test_rejects_truncation(self):
        blob = encode_entry(b"x" * 100)
        with pytest.raises(CacheIntegrityError):
            decode_entry(blob[:len(blob) // 2])

    def test_rejects_bitflip(self):
        blob = bytearray(encode_entry(b"x" * 100))
        blob[-1] ^= 0x40
        with pytest.raises(CacheIntegrityError):
            decode_entry(bytes(blob))

    def test_rejects_wrong_format_version(self):
        blob = encode_entry(b"payload", fmt=CACHE_FORMAT + 1)
        with pytest.raises(CacheIntegrityError):
            decode_entry(blob)

    def test_rejects_foreign_bytes(self):
        with pytest.raises(CacheIntegrityError):
            decode_entry(b"not an envelope at all")


class TestCacheCorruption:
    KEY = "ab" + "0" * 62

    def corrupted_cache(self, tmp_path, mutate):
        cache = ResultCache(tmp_path)
        cache.put(self.KEY, {"x": 1})
        mutate(cache._path(self.KEY))
        return cache

    @pytest.mark.parametrize("mutate", [
        lambda p: p.write_bytes(p.read_bytes()[:15]),              # torn write
        lambda p: p.write_bytes(p.read_bytes()[:-3] + b"zzz"),     # bad digest
        lambda p: p.write_bytes(
            encode_entry(pickle.dumps({"x": 1}), fmt=CACHE_FORMAT + 1)),
        lambda p: p.write_bytes(pickle.dumps({"x": 1})),           # legacy raw
    ], ids=["truncated", "bad-checksum", "wrong-version", "legacy-pickle"])
    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path, mutate):
        cache = self.corrupted_cache(tmp_path, mutate)
        assert cache.get(self.KEY) is None
        assert cache.corrupt == 1
        # ... and a recompute can be stored and read back afterwards.
        cache.put(self.KEY, {"x": 2})
        assert cache.get(self.KEY) == {"x": 2}

    def test_corrupt_entry_lands_in_quarantine(self, tmp_path):
        cache = self.corrupted_cache(
            tmp_path, lambda p: p.write_bytes(b"garbage"))
        assert cache.quarantined_entries() == 0
        cache.get(self.KEY)
        assert cache.quarantined_entries() == 1
        assert not cache._path(self.KEY).exists()
        # Quarantined files are outside the entry namespace: they never
        # count as live entries and clear() leaves them for inspection.
        assert len(cache) == 0

    def test_stats_surface_corruption(self, tmp_path):
        cache = self.corrupted_cache(
            tmp_path, lambda p: p.write_bytes(b"garbage"))
        cache.get(self.KEY)
        assert cache.stats()["corrupt"] == 1


class TestRunJobsCache:
    def test_warm_run_simulates_nothing(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        jobs = [tiny_job("a"), tiny_job("b", pair="FFT.HS")]
        cold = run_jobs(jobs, workers=1, cache=cache)
        assert cache.stores == 2

        def boom(job):
            raise AssertionError(f"simulated on a warm cache: {job.label}")

        monkeypatch.setattr(parallel_module, "_execute", boom)
        warm = run_jobs(jobs, workers=1, cache=cache)
        assert set(warm) == set(cold)
        for label in cold:
            assert warm[label].total_cycles == cold[label].total_cycles

    def test_partial_hit_runs_only_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_jobs([tiny_job("a")], workers=1, cache=cache)
        executed_before = cache.stores
        run_jobs([tiny_job("a"), tiny_job("b", seed=1)],
                 workers=1, cache=cache)
        assert cache.stores == executed_before + 1

    def test_parallel_with_cache_matches_serial(self, tmp_path):
        jobs = [tiny_job("a"), tiny_job("b", pair="FFT.HS")]
        serial = run_jobs(jobs, workers=1)
        cache = ResultCache(tmp_path)
        try:
            parallel = run_jobs(jobs, workers=2, cache=cache,
                                chunksize=1)
        except (OSError, PermissionError):
            pytest.skip("process creation not permitted in this environment")
        for label in serial:
            assert (serial[label].total_cycles
                    == parallel[label].total_cycles)
        # The pool's results were stored from the parent...
        assert cache.stores == 2
        # ... so a warm serial pass hits for every job.
        warm = run_jobs(jobs, workers=1, cache=cache)
        assert cache.hits == 2
        for label in serial:
            assert warm[label].total_cycles == serial[label].total_cycles


class TestCostModel:
    def test_record_and_read_back(self, tmp_path):
        cache = ResultCache(tmp_path)
        ckey = cost_key(tiny_job())
        assert cache.expected_cost(ckey) is None
        cache.record_cost(ckey, 4.0)
        assert cache.expected_cost(ckey) == pytest.approx(4.0)

    def test_ema_smoothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        ckey = cost_key(tiny_job())
        cache.record_cost(ckey, 4.0)
        cache.record_cost(ckey, 8.0)
        expected = COST_EMA_ALPHA * 8.0 + (1 - COST_EMA_ALPHA) * 4.0
        assert cache.expected_cost(ckey) == pytest.approx(expected)

    def test_costs_persist_across_instances(self, tmp_path):
        ckey = cost_key(tiny_job())
        first = ResultCache(tmp_path)
        first.record_cost(ckey, 2.5)
        first.flush_costs()
        second = ResultCache(tmp_path)
        assert second.expected_cost(ckey) == pytest.approx(2.5)

    def test_corrupt_costs_file_degrades_to_empty(self, tmp_path):
        (tmp_path / ResultCache.COSTS_FILE).write_text("not json{")
        cache = ResultCache(tmp_path)
        assert cache.expected_cost(cost_key(tiny_job())) is None
        cache.record_cost(cost_key(tiny_job()), 1.0)  # still writable
        cache.flush_costs()
        assert (ResultCache(tmp_path)
                .expected_cost(cost_key(tiny_job()))) == pytest.approx(1.0)

    def test_policy_variants_share_cost_key(self):
        assert cost_key(tiny_job()) == cost_key(tiny_job(policy="dwspp"))

    @pytest.mark.parametrize("variant", [
        tiny_job(pair="FFT.HS"),
        tiny_job(scale=SCALE * 2),
    ])
    def test_workload_identity_changes_cost_key(self, variant):
        assert cost_key(variant) != cost_key(tiny_job())


class TestWallSeconds:
    def test_fresh_result_measures_wall_time(self):
        result = run_jobs([tiny_job("a")], workers=1)["a"]
        assert result.wall_seconds > 0

    def test_cached_result_keeps_original_wall_time(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_jobs([tiny_job("a")], workers=1, cache=cache)["a"]
        warm = run_jobs([tiny_job("a")], workers=1, cache=cache)["a"]
        assert warm.wall_seconds == cold.wall_seconds


class TestSessionDiskCache:
    def test_warm_session_executes_zero_simulations(self, tmp_path):
        cold = Session(scale=SCALE, warps_per_sm=2,
                       cache_dir=str(tmp_path))
        config = GpuConfig.baseline(num_sms=2)
        result = cold.run_pair("HS.MM", config)
        assert cold.simulations_executed == 1

        warm = Session(scale=SCALE, warps_per_sm=2,
                       cache_dir=str(tmp_path))
        replay = warm.run_pair("HS.MM", config)
        assert warm.simulations_executed == 0
        assert replay.total_cycles == result.total_cycles

    def test_scale_change_misses(self, tmp_path):
        Session(scale=SCALE, warps_per_sm=2, cache_dir=str(tmp_path)) \
            .run_pair("HS.MM", GpuConfig.baseline(num_sms=2))
        other = Session(scale=SCALE * 2, warps_per_sm=2,
                        cache_dir=str(tmp_path))
        other.run_pair("HS.MM", GpuConfig.baseline(num_sms=2))
        assert other.simulations_executed == 1

    def test_no_cache_dir_stays_memory_only(self):
        session = Session(scale=SCALE, warps_per_sm=2)
        assert session.disk_cache is None
        config = GpuConfig.baseline(num_sms=2)
        session.run_pair("HS.MM", config)
        session.run_pair("HS.MM", config)  # memory memoization
        assert session.simulations_executed == 1


class TestCorruptCacheEntryHelper:
    def test_bitflip_and_truncate_break_the_entry(self, tmp_path):
        from repro.harness.faults import corrupt_cache_entry

        for mode in ("bitflip", "truncate"):
            cache = ResultCache(tmp_path / mode)
            key = "cc" + "2" * 62
            cache.put(key, {"ok": True})
            assert corrupt_cache_entry(cache, key, mode=mode)
            assert cache.get(key) is None
            assert cache.corrupt == 1

    def test_missing_entry_is_a_noop(self, tmp_path):
        from repro.harness.faults import corrupt_cache_entry

        cache = ResultCache(tmp_path)
        assert not corrupt_cache_entry(cache, "dd" + "3" * 62)

    def test_unknown_mode_rejected(self, tmp_path):
        from repro.harness.faults import corrupt_cache_entry

        with pytest.raises(ValueError):
            corrupt_cache_entry(ResultCache(tmp_path), "k", mode="meteor")


class TestGc:
    def seeded_cache(self, tmp_path):
        from repro.harness.faults import corrupt_cache_entry

        cache = ResultCache(tmp_path)
        good, bad = "aa" + "0" * 62, "bb" + "1" * 62
        cache.put(good, {"keep": True})
        cache.put(bad, {"doomed": True})
        corrupt_cache_entry(cache, bad, mode="truncate")
        assert cache.get(bad) is None  # -> quarantine/*.bad
        return cache, good

    def test_dry_run_reports_without_deleting(self, tmp_path):
        cache, good = self.seeded_cache(tmp_path)
        report = cache.gc(dry_run=True)
        assert report.dry_run
        assert report.quarantined == 1 and report.kept == 1
        assert report.removed == 1 and report.bytes_freed > 0
        assert "would remove" in report.summary()
        assert cache.quarantined_entries() == 1

    def test_gc_removes_quarantine_and_keeps_healthy(self, tmp_path):
        cache, good = self.seeded_cache(tmp_path)
        report = cache.gc()
        assert report.quarantined == 1 and report.kept == 1
        assert cache.quarantined_entries() == 0
        assert cache.get(good) is not None

    def test_gc_removes_corrupt_live_entries(self, tmp_path):
        from repro.harness.faults import corrupt_cache_entry

        cache = ResultCache(tmp_path)
        key = "cc" + "2" * 62
        cache.put(key, {"doomed": True})
        corrupt_cache_entry(cache, key, mode="bitflip")
        # Not read back (so not quarantined): gc must catch it live.
        report = cache.gc()
        assert report.corrupt == 1 and report.kept == 0

    def test_gc_removes_stale_format_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "dd" + "3" * 62
        payload = pickle.dumps({"old": True})
        blob = encode_entry(payload, fmt=CACHE_FORMAT - 1)
        path = cache.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
        report = cache.gc()
        assert report.stale_format == 1

    def test_gc_removes_orphans_and_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = "aa" + "0" * 62
        cache.put(good, {"keep": True})
        misfiled = tmp_path / "zz" / (good + ".pkl")
        misfiled.parent.mkdir()
        misfiled.write_bytes(b"misfiled")
        leftover = tmp_path / "aa" / "whatever.pkl.tmp"
        leftover.write_bytes(b"torn")
        report = cache.gc()
        assert report.orphaned == 2
        assert report.kept == 1
        assert not misfiled.exists() and not leftover.exists()
        assert not misfiled.parent.exists()  # emptied fan-out dir pruned

    def test_gc_on_missing_root_is_empty(self, tmp_path):
        report = ResultCache(tmp_path / "never").gc()
        assert report.removed == 0 and report.kept == 0

    def test_summary_reports_bytes_per_category(self, tmp_path):
        cache, _good = self.seeded_cache(tmp_path)
        report = cache.gc(dry_run=True)
        summary = report.summary()
        assert report.quarantined_bytes > 0
        assert f"[{report.quarantined_bytes} B]" in summary
        assert f"scanned {report.bytes_scanned} bytes" in summary
        assert report.bytes_scanned == report.kept_bytes + report.bytes_freed


class TestDiskGovernance:
    """Byte quota: evict-before-store, the gc quota rung, and the
    deterministic LRU-by-access order both share."""

    @pytest.fixture(autouse=True)
    def _clean_faults(self):
        faults.clear_faults()
        yield
        faults.clear_faults()

    KEYS = ["aa" + "0" * 62, "bb" + "1" * 62,
            "cc" + "2" * 62, "dd" + "3" * 62]

    def seeded(self, tmp_path, n=3):
        """``n`` same-sized entries; returns (ungoverned cache, entry size)."""
        cache = ResultCache(tmp_path)
        for key in self.KEYS[:n]:
            cache.put(key, {"v": "x" * 64})
        size = cache.entry_path(self.KEYS[0]).stat().st_size
        assert all(cache.entry_path(k).stat().st_size == size
                   for k in self.KEYS[:n])
        return cache, size

    def test_constructor_rejects_negative_quota(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_bytes=-1)

    def test_evict_before_store_drops_least_recently_accessed(self, tmp_path):
        _, size = self.seeded(tmp_path, n=2)
        cache = ResultCache(tmp_path, max_bytes=2 * size)
        assert cache.get(self.KEYS[0]) is not None  # refresh aa's recency
        cache.put(self.KEYS[2], {"v": "x" * 64})
        # bb (least recently accessed) was evicted to make room; the
        # refreshed aa and the new cc remain.
        assert not cache.entry_path(self.KEYS[1]).exists()
        assert cache.get(self.KEYS[0]) is not None
        assert cache.get(self.KEYS[2]) is not None
        assert cache.evictions == 1
        assert cache.bytes_evicted == size

    def test_overwrite_never_evicts_its_own_key(self, tmp_path):
        _, size = self.seeded(tmp_path, n=1)
        cache = ResultCache(tmp_path, max_bytes=size)
        cache.put(self.KEYS[0], {"v": "x" * 64})
        assert cache.evictions == 0
        assert cache.get(self.KEYS[0]) is not None

    def test_entry_larger_than_quota_still_stores(self, tmp_path):
        _, size = self.seeded(tmp_path, n=2)
        cache = ResultCache(tmp_path, max_bytes=size // 2)
        cache.put(self.KEYS[2], {"v": "y" * 4096})
        # Everything else was sacrificed, but the freshly paid-for
        # result landed anyway — the quota floor.
        assert cache.get(self.KEYS[2]) is not None
        assert not cache.entry_path(self.KEYS[0]).exists()
        assert not cache.entry_path(self.KEYS[1]).exists()
        assert cache.evictions == 2

    def test_gc_quota_rung_evicts_lru_after_integrity(self, tmp_path):
        cache, size = self.seeded(tmp_path, n=3)
        assert cache.get(self.KEYS[0]) is not None  # aa newest by access
        report = cache.gc(max_bytes=2 * size)
        assert report.evicted == 1
        assert report.evicted_bytes == size
        assert report.kept == 2
        # bb was the least recently accessed (aa was refreshed).
        assert not cache.entry_path(self.KEYS[1]).exists()
        assert cache.get(self.KEYS[0]) is not None
        assert cache.get(self.KEYS[2]) is not None

    def test_gc_dry_run_totals_match_actual_reclaim(self, tmp_path):
        cache, size = self.seeded(tmp_path, n=3)
        quota = 2 * size
        dry = cache.gc(dry_run=True, max_bytes=quota)
        assert dry.evicted == 1 and len(cache) == 3  # nothing deleted
        real = cache.gc(max_bytes=quota)
        assert (dry.evicted, dry.evicted_bytes, dry.bytes_freed) \
            == (real.evicted, real.evicted_bytes, real.bytes_freed)
        assert len(cache) == 2

    def test_disk_full_phantom_bytes_force_eviction(self, tmp_path):
        _, size = self.seeded(tmp_path, n=1)
        faults.install_faults([faults.FaultSpec(kind=faults.KIND_DISK_FULL,
                                                disk_bytes=10 ** 9)])
        cache = ResultCache(tmp_path, max_bytes=10 ** 6)
        assert cache.total_bytes() >= 10 ** 9
        cache.put(self.KEYS[1], {"v": "x" * 64})
        # Phantom usage dwarfs the quota: aa is evicted, yet the new
        # store still lands (the floor again).
        assert not cache.entry_path(self.KEYS[0]).exists()
        assert cache.get(self.KEYS[1]) is not None
        assert cache.evictions == 1

    def test_lost_usage_sidecar_degrades_to_key_order(self, tmp_path):
        cache, size = self.seeded(tmp_path, n=3)
        (tmp_path / ResultCache.USAGE_FILE).write_text("not json{")
        governed = ResultCache(tmp_path, max_bytes=2 * size)
        report = governed.gc(max_bytes=2 * size)
        # Unknown entries evict first with the key tiebreak: aa goes.
        assert report.evicted == 1
        assert not governed.entry_path(self.KEYS[0]).exists()

    def test_usage_survives_across_instances(self, tmp_path):
        cache, size = self.seeded(tmp_path, n=3)
        assert cache.get(self.KEYS[0]) is not None
        cache.flush_usage()
        fresh = ResultCache(tmp_path, max_bytes=2 * size)
        fresh.gc(max_bytes=2 * size)
        # The recency recorded by the first instance drove eviction in
        # the second: refreshed aa survived, oldest-access bb did not.
        assert fresh.entry_path(self.KEYS[0]).exists()
        assert not fresh.entry_path(self.KEYS[1]).exists()

    def test_gc_drops_stale_usage_accounting(self, tmp_path):
        import json as json_module

        cache, _size = self.seeded(tmp_path, n=2)
        cache.entry_path(self.KEYS[1]).unlink()  # deleted externally
        cache.gc()
        raw = json_module.loads(
            (tmp_path / ResultCache.USAGE_FILE).read_text())
        assert self.KEYS[0] in raw["entries"]
        assert self.KEYS[1] not in raw["entries"]

    def test_stats_surface_governance_counters(self, tmp_path):
        _, size = self.seeded(tmp_path, n=2)
        cache = ResultCache(tmp_path, max_bytes=2 * size)
        cache.put(self.KEYS[2], {"v": "x" * 64})
        stats = cache.stats()
        assert stats["max_bytes"] == 2 * size
        assert stats["evictions"] == 1
        assert stats["bytes_evicted"] == size
        assert stats["bytes"] <= 2 * size
