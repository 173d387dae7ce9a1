"""Unit tests for the deterministic fault-injection harness (``tests/faults.py``)."""

from __future__ import annotations

import pytest

from repro.errors import ServeError
from repro.serve.backends import MemoryBackend
from repro.serve.store import ArtifactStore
from tests.faults import (
    FAULT_PLAN_ENV,
    FaultInjectingBackend,
    FaultRule,
    parse_fault_plan,
    resolve_fault_plan,
)

KEY = "a" * 8


class TestPlanParsing:
    def test_single_rule(self):
        plan = parse_fault_plan("read:3:oserror")
        rule = plan.rules[0]
        assert (rule.op, rule.start, rule.stop, rule.action) == ("read", 3, 3, "oserror")

    def test_aliases_get_and_put(self):
        plan = parse_fault_plan("get:1:oserror;put:2:oserror")
        assert [rule.op for rule in plan.rules] == ["read", "write"]

    def test_range_open_range_period_and_star(self):
        plan = parse_fault_plan(
            "read:2-4:oserror;write:5+:oserror;delete:%3:oserror;any:*:latency:0.1"
        )
        first, second, third, fourth = plan.rules
        assert (first.start, first.stop) == (2, 4)
        assert (second.start, second.stop) == (5, None)
        assert third.every == 3
        assert (fourth.op, fourth.delay) == ("any", 0.1)

    def test_round_trips_through_describe(self):
        spec = "read:2-4:oserror;write:5+:oserror;delete:%3:oserror;any:*:latency:0.1"
        assert parse_fault_plan(spec).describe() == spec

    def test_oserror_message_argument(self):
        rule = parse_fault_plan("read:1:oserror:disk full").rules[0]
        assert rule.message == "disk full"

    def test_empty_spec_is_falsy(self):
        assert not parse_fault_plan("")
        assert parse_fault_plan("read:1:oserror")

    @pytest.mark.parametrize(
        "spec",
        [
            "read:1",  # missing action
            "flush:1:oserror",  # unknown op
            "read:0:oserror",  # calls are 1-based
            "read:3-2:oserror",  # empty range
            "read:%0:oserror",  # bad period
            "read:1:explode",  # unknown action
            "read:1:latency",  # latency needs seconds
            "read:1:locked:arg",  # locked is gone: no backend raises it
            "read:1:torn:arg",  # torn takes no argument
            "keys:1:torn",  # torn only applies to read/write
            "claim:1:torn",  # lease ops are all-or-nothing, torn is meaningless
            "renew:1:torn",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ServeError):
            parse_fault_plan(spec)

    def test_lease_ops_parse_and_round_trip(self):
        spec = "claim:%5:oserror;renew:%7:oserror;release:1:oserror;lease:2+:oserror"
        plan = parse_fault_plan(spec)
        assert [rule.op for rule in plan.rules] == [
            "claim",
            "renew",
            "release",
            "lease",
        ]
        assert plan.describe() == spec

    def test_resolve_falls_back_to_environment(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "read:1:oserror")
        assert resolve_fault_plan(None).describe() == "read:1:oserror"
        assert resolve_fault_plan("write:1:oserror").describe() == "write:1:oserror"
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert not resolve_fault_plan(None)

    def test_first_matching_rule_wins(self):
        plan = parse_fault_plan("read:1:oserror;read:*:latency:0.5")
        assert plan.rule_for("read", 1).action == "oserror"
        assert plan.rule_for("read", 2).action == "latency"


class TestRuleMatching:
    def test_any_op_matches_everything(self):
        rule = FaultRule(op="any", action="oserror")
        assert rule.matches("read", 1)
        assert rule.matches("keys", 7)

    def test_period_fires_on_multiples_only(self):
        rule = FaultRule(op="read", action="oserror", every=3)
        fired = [call for call in range(1, 10) if rule.matches("read", call)]
        assert fired == [3, 6, 9]


class TestFaultInjectingBackend:
    def test_nth_read_fails_once(self, any_backend):
        faulty = FaultInjectingBackend(any_backend, "read:2:oserror")
        faulty.write("analysis", KEY, "{}")
        assert faulty.read("analysis", KEY) == "{}"
        with pytest.raises(OSError):
            faulty.read("analysis", KEY)
        assert faulty.read("analysis", KEY) == "{}"
        assert faulty.calls("read") == 3
        assert len(faulty.injected) == 1

    def test_latency_sleeps_then_succeeds(self):
        naps: list[float] = []
        faulty = FaultInjectingBackend(
            MemoryBackend(), "read:%2:latency:0.25", sleep=naps.append
        )
        faulty.write("analysis", KEY, "{}")
        assert faulty.read("analysis", KEY) == "{}"
        assert faulty.read("analysis", KEY) == "{}"
        assert naps == [0.25]

    def test_torn_write_lands_half_the_payload(self):
        inner = MemoryBackend()
        faulty = FaultInjectingBackend(inner, "write:1:torn")
        payload = '{"value": 12345678}'
        faulty.write("analysis", KEY, payload)
        stored = inner.read("analysis", KEY)
        assert stored == payload[: len(payload) // 2]

    def test_torn_write_is_quarantined_by_the_store(self, chaos_backend):
        faulty = FaultInjectingBackend(chaos_backend, "write:1:torn")
        store = ArtifactStore(backend=faulty)
        store.put("analysis", KEY, {"value": 12345678})
        assert store.get("analysis", KEY) is None
        assert store.stats.corrupt_recovered == 1
        store.put("analysis", KEY, {"value": 9})  # slot is rewritable
        assert store.get("analysis", KEY) == {"value": 9}

    def test_identity_and_passthrough(self, any_backend):
        faulty = FaultInjectingBackend(any_backend, "")
        assert faulty.name == any_backend.name
        assert faulty.root == any_backend.root
        assert any_backend.describe() in faulty.describe()

    def test_same_plan_same_sequence(self):
        logs = []
        for _run in range(2):
            faulty = FaultInjectingBackend(MemoryBackend(), "read:%2:oserror")
            faulty.write("analysis", KEY, "{}")
            outcomes = []
            for _call in range(6):
                try:
                    faulty.read("analysis", KEY)
                    outcomes.append("ok")
                except OSError:
                    outcomes.append("fault")
            logs.append(outcomes)
        assert logs[0] == logs[1] == ["ok", "fault"] * 3

    def test_lease_ops_are_faultable(self, any_backend):
        faulty = FaultInjectingBackend(
            any_backend, "claim:1:oserror;renew:1:oserror;release:1:oserror"
        )
        with pytest.raises(OSError):
            faulty.claim("analysis", KEY, "owner-a", 30.0)
        # The fault consumed call 1; call 2 reaches the real backend.
        lease = faulty.claim("analysis", KEY, "owner-a", 30.0, now=100.0)
        assert lease is not None and lease.owner == "owner-a"
        with pytest.raises(OSError):
            faulty.renew("analysis", KEY, "owner-a", 30.0, now=101.0)
        renewed = faulty.renew("analysis", KEY, "owner-a", 30.0, now=102.0)
        assert renewed is not None and renewed.expires_at == 132.0
        with pytest.raises(OSError):
            faulty.release("analysis", KEY, "owner-a")
        assert faulty.release("analysis", KEY, "owner-a")
        assert faulty.calls("claim") == 2
        assert len(faulty.injected) == 3

    def test_lease_query_is_faultable(self):
        faulty = FaultInjectingBackend(MemoryBackend(), "lease:1:oserror")
        with pytest.raises(OSError):
            faulty.lease("analysis", KEY)
        assert faulty.lease("analysis", KEY) is None

    def test_quarantine_is_never_faulted(self):
        inner = MemoryBackend()
        faulty = FaultInjectingBackend(inner, "any:*:oserror")
        inner.write("analysis", KEY, "not json")
        faulty.quarantine("analysis", KEY)  # must not raise
        assert inner.read("analysis", KEY) is None
