"""Tests for the benchmark's own code: inputs, statistics, verdicts, smoke passes."""

from __future__ import annotations

import collections
import io
import json
import statistics
from contextlib import redirect_stdout

import pytest

from perfbench import harness, mix, oracle, record, run, spread


# -- the seeded inputs -----------------------------------------------------------------


def test_read_trace_is_deterministic_per_seed():
    pool = mix.read_pool()
    assert mix.read_trace(3, pool, 2000) == mix.read_trace(3, pool, 2000)
    assert mix.read_trace(3, pool, 2000) != mix.read_trace(4, pool, 2000)


def test_read_trace_matches_stated_shares():
    pool = mix.read_pool()
    trace = mix.read_trace(11, pool)
    categories = collections.Counter(pool.entries[index].category for index in trace)
    for category, share in mix.READ_SHARES:
        assert categories[category] / len(trace) == pytest.approx(share, abs=0.01)
    configs = collections.Counter(
        pool.entries[index].id.split(".", 1)[0]
        for index in trace
        if pool.entries[index].category in ("query", "classify", "analyze")
    )
    total = sum(configs.values())
    weights = sum(mix.ZIPF_WEIGHTS)
    for index, weight in enumerate(mix.ZIPF_WEIGHTS):
        assert configs[f"c{index}"] / total == pytest.approx(weight / weights, abs=0.01)
    ops = collections.Counter(
        pool.entries[index].id.split(".")[1] for index in trace if pool.entries[index].category == "query"
    )
    queries = sum(ops.values())
    assert len(ops) == len(mix.QUERY_OPS)
    assert all(count / queries == pytest.approx(1 / len(ops), abs=0.01) for count in ops.values())
    probes = collections.Counter(pool.entries[index].id for index in trace if pool.entries[index].category == "probe")
    assert probes["healthz"] / probes["stats"] == pytest.approx(1.0, rel=0.1)
    assert [len(batch) for batch in mix.BATCHES] == list(range(1, 65))
    sizes = [
        len(mix.BATCHES[int(pool.entries[index].id.rsplit(".", 1)[1])])
        for index in trace
        if pool.entries[index].category == "classify"
    ]
    assert statistics.mean(sizes) == pytest.approx(32.5, abs=0.5)


def test_cold_plan_is_a_seeded_permutation():
    plan = mix.cold_plan(9)
    assert plan == mix.cold_plan(9) != mix.cold_plan(10)
    assert sorted(plan) == list(mix.COLD_SEEDS)


def test_every_pool_answer_has_a_reference():
    references = oracle.load_references()
    responses = references["responses"]
    pool = mix.read_pool()
    assert all(entry.id in responses for entry in pool.entries if entry.status == 200)
    assert set(references["cold-analyze"]["keys"]) == {str(seed) for seed in mix.COLD_SEEDS}
    assert all(f"cold.{seed}" in responses for seed in mix.COLD_SEEDS)


# -- statistics ------------------------------------------------------------------------


def test_median_on_fixed_samples():
    assert harness.median([3, 1, 2]) == 2
    assert harness.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        harness.median([])


def test_quartile_spread_matches_statistics_quantiles():
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert (q1, q3) == (2.5, 7.5)
    assert harness.quartile_spread(values) == pytest.approx((q3 - q1) / q2)
    assert spread.parse_seeds("1-3,7") == [1, 2, 3, 7]


# -- verdicts --------------------------------------------------------------------------


class _Stub:
    """A connection that answers from a script: (status, body) or an exception."""

    def __init__(self, *answers):
        self.answers = list(answers)

    def request(self, raw):
        answer = self.answers.pop(0)
        if isinstance(answer, Exception):
            raise answer
        return answer


@pytest.fixture
def context(tmp_path):
    return run.Context("read-mix", 1, 1.0, False, tmp_path)


def _query_entry():
    pool = mix.read_pool()
    return next(entry for entry in pool.entries if entry.id == "c0.top.Japanese")


def test_right_answer_is_no_failure(context):
    entry = _query_entry()
    body = b'{"op": "top-patterns"}'
    context.checker.references = {entry.id: oracle.body_digest("exact", body)}
    ok, _, sample = context.send(_Stub((200, body)), entry)
    assert ok and sample.ok
    assert (context.outcome.attempted, context.outcome.failed) == (1, 0)


@pytest.mark.parametrize(
    "answer",
    [(500, b'{"error": "boom"}'), (200, b'{"op": "wrong"}'), ConnectionError("dropped")],
    ids=["wrong-status", "wrong-digest", "dropped-connection"],
)
def test_each_bad_answer_is_exactly_one_failure(context, answer):
    entry = _query_entry()
    context.checker.references = {entry.id: oracle.body_digest("exact", b'{"op": "top-patterns"}')}
    ok, _, sample = context.send(_Stub(answer), entry)
    assert not ok and sample.latency == run.FAILED_LATENCY
    assert (context.outcome.attempted, context.outcome.failed) == (1, 1)


def test_volatile_fields_are_not_compared():
    body = {"served": {"key": "k", "elapsed_seconds": 0.1, "coalesced": False}, "summary": {"n": 1}}
    other = {"served": {"key": "k", "elapsed_seconds": 9.9, "coalesced": True}, "summary": {"n": 1}}
    assert oracle.body_digest("analyze", json.dumps(body).encode()) == oracle.body_digest(
        "analyze", json.dumps(other).encode()
    )
    health = {"status": "ok", "inflight": 1, "refreshing": 0}
    assert oracle.body_digest("healthz", json.dumps(health).encode()) == oracle.body_digest(
        "healthz", json.dumps({**health, "inflight": 0}).encode()
    )


# -- tiny-scale smoke passes -----------------------------------------------------------


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Shrink every pool to scale 0.01 and record its references once."""
    root = tmp_path_factory.mktemp("tiny")
    base = {"seed": 2020, "scale": 0.01}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "WORK_ROOT", root / "work")
        patch.setattr(oracle, "REFERENCE_PATH", root / "reference.json")
        patch.setattr(run, "SETUP_REPEATS", 2)
        patch.setattr(mix, "COLD_SCALE", 0.01)
        patch.setattr(mix, "COLD_SEEDS", (1001, 1002, 1003))
        patch.setattr(mix, "WARMUP_CONFIG", {"seed": 7, "scale": 0.01})
        patch.setattr(
            mix,
            "READ_CONFIGS",
            (base, {**base, "linkage_method": "complete"}, {**base, "min_support": 0.25}),
        )
        record.main([])
        yield root


def _run(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_pass_runs_to_the_end(tiny, workload):
    result = _run("--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.declared_units("end_to_end"))
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_tiny_traced_pass_reports_every_layer_metric(tiny):
    result = _run("--workload", "read-mix", "--seed", "3", "--seconds", "0.3", "--trace", "1")
    assert result["correct"]
    metrics = result["metrics"]
    assert metrics["layer.serve.aio.calls"]["value"] > 0
    assert metrics["queries.engine_builds"]["unit"] == "count"
    assert set(metrics) == set(run.declared_units("per_layer"))
