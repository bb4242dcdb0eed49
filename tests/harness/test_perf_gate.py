"""Unit tests for the CI perf gate's comparison logic.

The gate compares a fresh ``BENCH_engine.json`` against the committed
baseline.  Baselines evolve: the gate must skip — not crash on, not
fail on — metrics one side does not have, while still holding the line
on every gated metric both carry.
"""

import importlib.util
import json
from pathlib import Path

_GATE_PATH = (Path(__file__).resolve().parents[2]
              / "benchmarks" / "check_perf_gate.py")
_spec = importlib.util.spec_from_file_location("check_perf_gate", _GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _pair(speedup=1.5, fastpath=None, shard4=1.6):
    record = {
        "speedup_vs_pr4": speedup,
        "speedup_vs_seed": speedup * 2,
        "shards": {"1": {"modeled_speedup": 1.0},
                   "4": {"modeled_speedup": shard4}},
    }
    if fastpath is not None:
        record["fastpath"] = fastpath
    return record


def _payload(**pairs):
    return {"pairs": pairs}


class TestSpeedupMetrics:
    def test_missing_speedup_key_is_skipped(self):
        baseline = _payload(heavy=_pair())
        del baseline["pairs"]["heavy"]["speedup_vs_seed"]
        fresh = _payload(heavy=_pair())
        assert gate.compare(baseline, fresh, tolerance=0.10) == []

    def test_regressed_speedup_fails(self):
        baseline = _payload(heavy=_pair(speedup=1.5))
        fresh = _payload(heavy=_pair(speedup=1.0))
        failures = gate.compare(baseline, fresh, tolerance=0.10)
        assert any("speedup_vs_pr4" in f for f in failures)


class TestMain:
    def test_smoke_results_are_refused(self, tmp_path):
        base = tmp_path / "base.json"
        fresh = tmp_path / "fresh.json"
        base.write_text(json.dumps(_payload(heavy=_pair())))
        fresh.write_text(json.dumps(
            dict(_payload(heavy=_pair()), smoke=True)))
        assert gate.main(["--baseline", str(base),
                          "--fresh", str(fresh)]) == 2

    def test_old_baseline_new_fresh_passes_end_to_end(self, tmp_path):
        """An old baseline still carrying the retired per-pair fold
        fractions gates cleanly against a fresh run without them."""
        base = tmp_path / "base.json"
        fresh = tmp_path / "fresh.json"
        base.write_text(json.dumps(_payload(heavy=_pair(
            fastpath={"hit_path_fraction": 0.5,
                      "l2_fold_fraction": 0.1,
                      "walk_fold_fraction": 0.3,
                      "dram_batch_fraction": 0.9}))))
        fresh.write_text(json.dumps(_payload(heavy=_pair())))
        assert gate.main(["--baseline", str(base),
                          "--fresh", str(fresh)]) == 0


def _wall_pair(wall=1.5, shard4=1.6):
    record = _pair(shard4=shard4)
    record["shards"]["4"]["backends"] = {
        "threads": {"wall_speedup": 0.9},
        "processes": {"wall_speedup": wall},
    }
    return record


class TestMeasuredWallGate:
    def test_no_host_record_is_skipped(self):
        assert "no host record" in gate.wall_ineligibility(_payload())

    def test_small_host_is_ineligible(self):
        fresh = dict(_payload(), host={"cpu_count": 1, "load_avg_1m": 0.0})
        assert "core" in gate.wall_ineligibility(fresh)

    def test_loaded_host_is_ineligible(self):
        fresh = dict(_payload(), host={"cpu_count": 8, "load_avg_1m": 7.5})
        assert "loaded" in gate.wall_ineligibility(fresh)

    def test_idle_multicore_host_is_eligible(self):
        fresh = dict(_payload(), host={"cpu_count": 8, "load_avg_1m": 0.2})
        assert gate.wall_ineligibility(fresh) == ""

    def test_floor_passes_on_fast_pair(self):
        fresh = _payload(light_resident=_wall_pair(wall=1.45))
        assert gate.check_wall_floor(fresh) == []

    def test_floor_fails_below_requirement(self):
        fresh = _payload(light_resident=_wall_pair(wall=1.1),
                         heavy=_wall_pair(wall=0.4))
        failures = gate.check_wall_floor(fresh)
        assert len(failures) == 1
        assert "1.3x measured wall" in failures[0]
        assert "light_resident" in failures[0]  # names the best pair

    def test_missing_backend_sweep_fails(self):
        fresh = _payload(heavy=_pair())
        failures = gate.check_wall_floor(fresh)
        assert len(failures) == 1
        assert "backend sweep was dropped" in failures[0]

    def test_main_skips_wall_on_ineligible_host(self, tmp_path):
        base = tmp_path / "base.json"
        fresh_path = tmp_path / "fresh.json"
        base.write_text(json.dumps(_payload(heavy=_pair())))
        fresh_path.write_text(json.dumps(dict(
            _payload(heavy=_wall_pair(wall=0.5)),
            host={"cpu_count": 1, "load_avg_1m": 0.0})))
        assert gate.main(["--baseline", str(base),
                          "--fresh", str(fresh_path)]) == 0

    def test_main_require_wall_refuses_ineligible_host(self, tmp_path):
        base = tmp_path / "base.json"
        fresh_path = tmp_path / "fresh.json"
        base.write_text(json.dumps(_payload(heavy=_pair())))
        fresh_path.write_text(json.dumps(dict(
            _payload(heavy=_wall_pair(wall=0.5)),
            host={"cpu_count": 1, "load_avg_1m": 0.0})))
        assert gate.main(["--baseline", str(base),
                          "--fresh", str(fresh_path),
                          "--require-wall"]) == 2

    def test_main_enforces_wall_on_eligible_host(self, tmp_path):
        base = tmp_path / "base.json"
        fresh_path = tmp_path / "fresh.json"
        base.write_text(json.dumps(_payload(heavy=_pair())))
        fresh_path.write_text(json.dumps(dict(
            _payload(heavy=_wall_pair(wall=0.5)),
            host={"cpu_count": 8, "load_avg_1m": 0.1})))
        assert gate.main(["--baseline", str(base),
                          "--fresh", str(fresh_path)]) == 1

    def test_main_passes_wall_on_eligible_host(self, tmp_path):
        base = tmp_path / "base.json"
        fresh_path = tmp_path / "fresh.json"
        base.write_text(json.dumps(_payload(heavy=_pair())))
        fresh_path.write_text(json.dumps(dict(
            _payload(heavy=_wall_pair(wall=1.6)),
            host={"cpu_count": 8, "load_avg_1m": 0.1})))
        assert gate.main(["--baseline", str(base),
                          "--fresh", str(fresh_path)]) == 0
