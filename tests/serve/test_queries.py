"""Query/response vocabulary: validation, keys, ranking, status order."""

import pytest

from repro.serve.queries import (
    DEFAULT_CANDIDATES,
    OBJECTIVES,
    STATUS_ESTIMATE,
    STATUS_EXACT,
    STATUS_ORDER,
    STATUS_REJECTED,
    STATUS_SIMULATED,
    STATUS_TIMEOUT,
    PlacementQuery,
    QueryResponse,
    rank_candidates,
    worst_status,
)


def q(**overrides):
    kwargs = dict(kind="metrics", workloads=("GUPS",))
    kwargs.update(overrides)
    return PlacementQuery(**kwargs)


class TestValidation:
    def test_minimal_metrics_query(self):
        query = q()
        assert query.policies() == ("baseline",)

    def test_best_policy_uses_candidates(self):
        query = q(kind="best_policy", candidates=("dws", "baseline", "dws"))
        assert query.policies() == ("dws", "baseline")  # deduped, ordered

    @pytest.mark.parametrize("bad", [
        dict(kind="nope"),
        dict(workloads=()),
        dict(workloads=("NOPE",)),
        dict(policy="nope"),
        dict(kind="best_policy", candidates=("nope",)),
        dict(objective="nope"),
        dict(deadline_s=-1.0),
        dict(l2_tlb_entries=1024.0),
        dict(l2_tlb_entries=0),
        dict(walker_count=True),
        dict(walker_count="8"),
    ])
    def test_rejects_bad_fields(self, bad):
        with pytest.raises(ValueError):
            q(**bad)

    def test_from_dict_roundtrip(self):
        query = q(kind="best_policy", workloads=("GUPS", "SRAD"),
                  l2_tlb_entries=512, deadline_s=5.0)
        assert PlacementQuery.from_dict(query.to_dict()) == query

    @pytest.mark.parametrize("body", [
        "not a dict", {"kind": "metrics"}, {"kind": "metrics",
                                            "workloads": "GUPS"},
        {"kind": "metrics", "workloads": ["GUPS"], "bogus_extra": 1,
         "deadline_s": "soon"},
    ])
    def test_from_dict_rejects_garbage(self, body):
        with pytest.raises((ValueError, TypeError)):
            PlacementQuery.from_dict(body)


class TestKey:
    def test_stable_and_deadline_free(self):
        # The deadline is delivery QoS, not content: two clients asking
        # the same question with different patience must coalesce.
        assert q(deadline_s=1.0).key() == q(deadline_s=60.0).key()

    def test_content_changes_key(self):
        base = q().key()
        assert q(workloads=("SRAD",)).key() != base
        assert q(policy="dws").key() != base
        assert q(l2_tlb_entries=512).key() != base
        assert q(walker_count=8).key() != base


class TestStatusOrder:
    def test_worst_status_takes_most_degraded(self):
        assert worst_status([STATUS_EXACT, STATUS_SIMULATED]) \
            == STATUS_SIMULATED
        assert worst_status([STATUS_EXACT, STATUS_TIMEOUT,
                             STATUS_ESTIMATE]) == STATUS_TIMEOUT
        assert worst_status([]) == STATUS_REJECTED

    def test_response_requires_known_status(self):
        with pytest.raises(ValueError):
            QueryResponse(status="nope", estimate=False)
        for status in STATUS_ORDER:
            QueryResponse(status=status, estimate=False)

    def test_response_roundtrip(self):
        response = QueryResponse(status=STATUS_ESTIMATE, estimate=True,
                                 payload={"total_ipc": 1.5},
                                 query_key="abc", wall_ms=2.5, detail="d")
        assert QueryResponse.from_dict(response.to_dict()) == response


class TestRanking:
    def test_maximizes_total_ipc(self):
        table = {"baseline": {"total_ipc": 1.0},
                 "dws": {"total_ipc": 2.0}}
        assert rank_candidates(table, "total_ipc") == "dws"

    def test_minimizes_walk_latency(self):
        table = {"baseline": {"walk_latency_worst": 900.0},
                 "dws": {"walk_latency_worst": 300.0}}
        assert rank_candidates(table, "walk_latency") == "dws"

    def test_skips_missing_payloads_and_breaks_ties_first(self):
        table = {"static": None,
                 "baseline": {"total_ipc": 2.0},
                 "dws": {"total_ipc": 2.0}}
        assert rank_candidates(table, "total_ipc") == "baseline"
        assert rank_candidates({"static": None}, "total_ipc") is None

    def test_default_candidates_are_known_objectives_exist(self):
        assert "baseline" in DEFAULT_CANDIDATES
        assert set(OBJECTIVES) == {"total_ipc", "walk_latency"}
