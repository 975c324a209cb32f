"""The shared bench harness: one result type for the kernels and LUT
suites, with each suite's committed payload keys."""

from repro.bench import BenchResult, max_rel_diff, time_pair
from repro.runtime.metrics import METRICS


def _result(**gate):
    return BenchResult(op="monte_carlo", n=100, scalar_wall_s=2.0,
                       kernel_wall_s=0.25, max_rel_diff=0.0, **gate)


class TestBenchResult:
    def test_kernels_payload_keys(self):
        payload = _result().to_payload()
        assert sorted(payload) == [
            "equivalent", "max_rel_diff", "n", "op", "reps", "speedup",
            "wall_s", "wall_se"]
        assert payload["equivalent"] is True
        assert payload["speedup"] == 8.0

    def test_lut_payload_keys(self):
        payload = _result(gate_ok=True, speedup_floor=5.0).to_payload()
        assert sorted(payload) == [
            "gate_ok", "max_rel_diff", "n", "op", "passed", "reps",
            "speedup", "speedup_floor", "wall_s", "wall_se"]
        assert payload["passed"] is True

    def test_lut_gate_needs_the_speedup_floor(self):
        assert not _result(gate_ok=True, speedup_floor=10.0).passed
        assert not _result(gate_ok=False, speedup_floor=5.0).passed

    def test_samples_name_both_paths(self):
        names = [sample.name for sample in _result().samples()]
        assert names == ["monte_carlo.scalar", "monte_carlo.kernel"]


class TestTimePair:
    def test_returns_last_outputs_and_rep_count(self, monkeypatch):
        monkeypatch.setattr(METRICS, "histograms", {})
        calls = []
        scalar, kernel, timing = time_pair(
            "test_pair", lambda: calls.append("s") or "s",
            lambda: calls.append("k") or "k", reps=3)
        assert (scalar, kernel) == ("s", "k")
        assert calls == ["s", "k"] * 3
        assert timing["reps"] == 3
        assert timing["scalar_wall_s"] >= 0.0
        assert METRICS.histograms["bench.test_pair.kernel_seconds"].count \
            == 3


def test_max_rel_diff():
    assert max_rel_diff([1.0, 2.0], [1.0, 2.2]) == abs(2.2 - 2.0) / 2.0
