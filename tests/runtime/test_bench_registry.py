"""The benchmark registry: history records and the noise-aware diff."""

import json

import pytest

from repro import bench_registry
from repro.bench_registry import (
    BenchSample,
    append_record,
    baseline_samples,
    build_record,
    diff_latest,
    diff_samples,
    latest_record,
    load_history,
    previous_record,
    record_samples,
)


def _record(suite="kernels", values=(1.0, 2.0), env_key=None,
            generated_at="2026-01-01T00:00:00Z"):
    record = build_record(
        suite, node="90nm", quick=True,
        config={"node": "90nm", "quick": True},
        samples=[BenchSample(name=f"s{index}", value=value, se=0.01,
                             n=100)
                 for index, value in enumerate(values)],
        generated_at=generated_at)
    if env_key is not None:
        record["env_key"] = env_key
    return record


class TestHistory:
    def test_round_trip(self, tmp_path):
        history = tmp_path / "history.jsonl"
        path = append_record(_record(), history)
        append_record(_record(values=(1.1, 2.1)), history)
        assert path == history
        records = load_history(history)
        assert len(records) == 2
        assert records[0]["schema"] == bench_registry.REGISTRY_SCHEMA
        assert records[0]["env_key"]
        assert records[0]["config_hash"]
        samples = record_samples(records[0])
        assert samples[0] == BenchSample("s0", 1.0, 0.01, 100)

    def test_missing_file_is_empty(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_garbage_line_names_its_number(self, tmp_path):
        history = tmp_path / "history.jsonl"
        append_record(_record(), history)
        with open(history, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        with pytest.raises(ValueError, match=":2:"):
            load_history(history)

    def test_latest_and_previous(self, tmp_path):
        history = tmp_path / "history.jsonl"
        append_record(_record(values=(1.0,)), history)
        append_record(_record(suite="yield", values=(9.0,)), history)
        append_record(_record(values=(2.0,)), history)
        records = load_history(history)
        latest = latest_record(records, "kernels")
        assert record_samples(latest)[0].value == 2.0
        previous = previous_record(records, "kernels")
        assert record_samples(previous)[0].value == 1.0

    def test_previous_skips_other_environments(self, tmp_path):
        history = tmp_path / "history.jsonl"
        append_record(_record(values=(1.0,), env_key="other"),
                      history)
        append_record(_record(values=(2.0,)), history)
        records = load_history(history)
        assert previous_record(records, "kernels") is None


class TestDiffSamples:
    def test_unchanged_is_ok(self):
        current = [BenchSample("a", 1.0, 0.0, 10)]
        (entry,) = diff_samples(current, current)
        assert entry.verdict == "ok"

    def test_injected_slowdown_regresses(self):
        base = [BenchSample("a", 1.0, 0.001, 10)]
        slow = [BenchSample("a", 1.3, 0.001, 10)]
        (entry,) = diff_samples(slow, base)
        assert entry.verdict == "regression"
        assert entry.ratio == pytest.approx(1.3)

    def test_noisy_slowdown_is_not_signal(self):
        """A 30% slowdown inside 3 combined SEs stays ok."""
        base = [BenchSample("a", 1.0, 0.2, 10)]
        slow = [BenchSample("a", 1.3, 0.2, 10)]
        (entry,) = diff_samples(slow, base)
        assert entry.verdict == "ok"

    def test_improvement(self):
        base = [BenchSample("a", 1.0, 0.0, 10)]
        fast = [BenchSample("a", 0.5, 0.0, 10)]
        (entry,) = diff_samples(fast, base)
        assert entry.verdict == "improved"

    def test_workload_size_mismatch_skipped(self):
        base = [BenchSample("a", 1.0, 0.0, 10_000)]
        quick = [BenchSample("a", 9.9, 0.0, 2_000)]
        (entry,) = diff_samples(quick, base)
        assert entry.verdict == "skipped"
        assert "workload size" in entry.detail

    def test_missing_reference_skipped(self):
        (entry,) = diff_samples([BenchSample("new", 1.0)], [])
        assert entry.verdict == "skipped"

    def test_custom_threshold(self):
        base = [BenchSample("a", 1.0, 0.0, 10)]
        slow = [BenchSample("a", 1.1, 0.0, 10)]
        (entry,) = diff_samples(slow, base, rel_threshold=0.05)
        assert entry.verdict == "regression"


class TestBaselineSamples:
    def test_kernels_schema(self):
        report = {"results": [{
            "op": "monte_carlo", "n": 2000,
            "wall_s": {"scalar": 0.5, "kernel": 0.01},
            "wall_se": {"scalar": 0.02},
        }]}
        samples = {sample.name: sample
                   for sample in baseline_samples(report)}
        assert samples["monte_carlo.scalar"].value == 0.5
        assert samples["monte_carlo.scalar"].se == 0.02
        assert samples["monte_carlo.kernel"].se == 0.0
        assert samples["monte_carlo.kernel"].n == 2000

    def test_yield_schema(self):
        report = {"results": [{
            "estimator": "importance", "wall_s": 3.5, "draws": 64,
        }]}
        (sample,) = baseline_samples(report)
        assert sample.name == "importance.wall"
        assert sample.value == 3.5
        assert sample.n == 64


    def test_serve_schema(self):
        report = {"load": {"latency_p50_s": 0.009, "latency_p99_s": 0.02,
                           "expected_requests": 256}}
        samples = {sample.name: sample
                   for sample in baseline_samples(report)}
        assert samples["latency_p50"] == BenchSample(
            "latency_p50", 0.009, 0.0, 256)
        assert samples["latency_p99"].value == 0.02


class TestDiffLatest:
    def test_against_baseline(self, tmp_path):
        history = tmp_path / "history.jsonl"
        record = build_record(
            "kernels", node="90nm", quick=True,
            config={},
            samples=[BenchSample("monte_carlo.scalar", 0.9, 0.0,
                                 2000)])
        append_record(record, history)
        baseline = tmp_path / "BENCH_kernels.json"
        baseline.write_text(json.dumps({"results": [{
            "op": "monte_carlo", "n": 2000,
            "wall_s": {"scalar": 0.5},
        }]}))
        report = diff_latest("kernels", history=history,
                             baseline=baseline)
        assert report is not None
        assert len(report.regressions) == 1
        assert "BENCH_kernels.json" in report.reference_label
        assert "regression" in report.format()

    def test_against_previous(self, tmp_path):
        history = tmp_path / "history.jsonl"
        append_record(_record(values=(1.0,)), history)
        append_record(_record(values=(1.0,)), history)
        report = diff_latest("kernels", history=history,
                             against="previous")
        assert report is not None
        assert report.regressions == []
        assert "previous record" in report.reference_label

    def test_missing_sides_return_none(self, tmp_path):
        history = tmp_path / "history.jsonl"
        assert diff_latest("kernels", history=history) is None
        append_record(_record(), history)
        assert diff_latest("kernels", history=history,
                           against="previous") is None
        assert diff_latest(
            "kernels", history=history,
            baseline=tmp_path / "absent.json") is None

    def test_serve_diff_compares_both_latencies(self, tmp_path):
        history = tmp_path / "history.jsonl"
        append_record(build_record(
            "serve", node="90nm", quick=False, config={},
            samples=[BenchSample("latency_p50", 0.0095, n=256),
                     BenchSample("latency_p99", 0.0201, n=256)]),
            history)
        baseline = tmp_path / "BENCH_serve.json"
        baseline.write_text(json.dumps({"load": {
            "latency_p50_s": 0.0094, "latency_p99_s": 0.0200,
            "expected_requests": 256, "requests": 256}}))
        report = diff_latest("serve", history=history,
                             baseline=baseline)
        assert report is not None
        assert report.compared == 2
        assert report.regressions == []
