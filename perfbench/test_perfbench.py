"""Tests of the benchmark's own helpers.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import harness  # noqa: E402
import layers  # noqa: E402
import loadclient  # noqa: E402
import serve_workload  # noqa: E402
import synth_workload  # noqa: E402
from tracing import ROOT as ROOT_LAYER, Recorder, check_additivity  # noqa: E402


# -- percentile selection ---------------------------------------------------

@pytest.mark.parametrize("count, rank", [
    (1000, 990),   # p99 leaves exactly ten beyond
    (400, 390),    # p97.5: the cap would leave only four beyond
    (5000, 4950),  # capped at p99, fifty beyond
    (20, 10),      # the median is the highest with ten beyond
])
def test_tail_rank_known_counts(count, rank):
    assert harness.tail_rank(count) == rank


def test_tail_rank_is_the_highest_percentile_with_ten_beyond():
    for count in range(20, 3001):
        rank = harness.tail_rank(count)
        assert count - rank >= 10
        assert rank * 100 <= 99 * count or rank == -(-99 * count // 100)
        # One rank higher would break either the cap or the ten beyond.
        assert count - (rank + 1) < 10 or (rank + 1) * 100 > 99 * count


def test_tail_rank_refuses_below_the_median():
    assert harness.tail_rank(15) is None
    assert harness.tail_rank(0) is None


def test_tail_returns_percentile_value_and_count():
    values = list(range(1000, 0, -1))
    assert harness.tail(values) == (99.0, 990, 1000)


# -- seeded inputs ----------------------------------------------------------

def test_serve_documents_are_a_function_of_the_seed():
    first = serve_workload.make_documents(7, "low", 300)
    assert first == serve_workload.make_documents(7, "low", 300)
    assert first != serve_workload.make_documents(8, "low", 300)
    assert first != serve_workload.make_documents(7, "high", 300)
    assert {doc["op"] for doc in first} == {op for op, _ in
                                            serve_workload.MIX}


def test_cold_lengths_miss_the_memo_and_do_not_depend_on_the_seed():
    def lengths(documents):
        return sorted((d["node"], length) for d in documents
                      for length in d["lengths_mm"])

    def keys(documents, node):
        return {round(length / serve_workload.COLD_QUANTUM_MM)
                for d in documents if d["node"] == node
                for length in d["lengths_mm"]}

    flush, cold = serve_workload.cold_plan(3)
    for node, _ in serve_workload.CONTEXTS:
        cold_keys = keys(cold, node)
        assert len(cold_keys) == sum(
            len(d["lengths_mm"]) for d in cold if d["node"] == node)
        assert not cold_keys & keys(flush, node)
        assert len(keys(flush, node)) > serve_workload.MEMO_ENTRIES
    again_flush, again_cold = serve_workload.cold_plan(3)
    assert (flush, cold) == (again_flush, again_cold)
    other_flush, other_cold = serve_workload.cold_plan(4)
    assert other_flush == flush and other_cold != cold
    assert lengths(other_cold) == lengths(cold)


def test_cpu_clocks_count_work_not_sleep():
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import time\nend = time.process_time() + 0.2\n"
         "while time.process_time() < end: pass\ntime.sleep(30)"],
        start_new_session=True)
    try:
        time.sleep(1.0)
        first = harness.group_cpu_s(child.pid)
        assert 0.2 <= first == harness.process_cpu_s(child.pid) < 0.9
        time.sleep(0.3)
        assert harness.group_cpu_s(child.pid) == first
    finally:
        child.kill()
        child.wait()


def _coordinates(specs):
    return [[(c.name, c.x, c.y) for c in spec.cores.values()]
            for spec in specs]


def test_synth_specs_are_a_function_of_the_seed():
    from repro.noc.testcases import dual_vopd, vproc
    from repro.tech.nodes import get_technology

    tech = get_technology(synth_workload.NODE)
    paper = _coordinates([vproc(tech), dual_vopd(tech)])
    assert _coordinates(synth_workload.build_specs(0, tech)) == paper
    again = _coordinates(synth_workload.build_specs(5, tech))
    assert again == _coordinates(synth_workload.build_specs(5, tech))
    assert again != paper
    assert again != _coordinates(synth_workload.build_specs(6, tech))


# -- metric names -----------------------------------------------------------

def test_benchmark_metric_names_are_legal_and_unique():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [entry["name"] for kind in ("end_to_end", "per_layer")
             for entry in spec[kind]]
    assert len(names) == len(set(names))
    for name in names:
        assert harness.check_metric_name(name) == name


def test_layer_table_covers_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    recorder = Recorder()
    with recorder.span(ROOT_LAYER):
        pass
    table = layers.layer_table(recorder, layers.counter_metrics({}, {}))
    table.update(traced_wall_s=0.0, trace_overhead_s=0.0)
    assert {entry["name"] for entry in spec["per_layer"]} == set(table)


@pytest.mark.parametrize("name", ["", "a b", "p99/low", "x" * 65])
def test_illegal_metric_names_are_refused(name):
    with pytest.raises(ValueError):
        harness.check_metric_name(name)


# -- open-loop due-time accounting ------------------------------------------

def _phase(service: float, rate: float, count: int, fail_every: int = 0):
    documents = [{"i": i} for i in range(count)]

    async def roundtrip(document):
        await asyncio.sleep(service)
        if fail_every and document["i"] % fail_every == fail_every - 1:
            raise ConnectionError("dropped")
        return {"ok": True}

    schedule = loadclient.even_schedule(rate, count / rate, documents)
    return asyncio.run(loadclient.run_phase(schedule, [roundtrip], rate,
                                            count / rate))


def test_latency_counts_from_due_time_under_overload():
    # One connection, 20 ms per request, one request due every 5 ms:
    # the queue grows by 15 ms per request.
    phase = _phase(service=0.020, rate=200.0, count=30)
    assert phase.sent == phase.succeeded == 30
    for exchange in phase.exchanges:
        assert exchange.lag >= 0
        assert math.isclose(exchange.latency,
                            exchange.send_wait + exchange.server_time,
                            abs_tol=1e-9)
        assert exchange.server_time >= 0.019
    last = max(phase.exchanges, key=lambda e: e.due)
    assert last.send_wait > 0.3  # ~29 * 15 ms of queueing
    assert loadclient.backlog_grew(phase.exchanges)


def test_no_backlog_when_capacity_suffices():
    phase = _phase(service=0.001, rate=100.0, count=30)
    assert not loadclient.backlog_grew(phase.exchanges)
    assert all(e.send_wait < 0.05 for e in phase.exchanges)


def test_failed_requests_miss_any_latency_limit():
    phase = _phase(service=0.001, rate=100.0, count=20, fail_every=5)
    assert phase.failed == 4
    failed = [e for e in phase.exchanges if not e.ok]
    assert all(math.isinf(e.latency) for e in failed)
    assert serve_workload.phase_summary(phase)["passed"] is False


def test_even_schedule_spacing_and_length():
    schedule = loadclient.even_schedule(4.0, 2.0, [{}] * 10)
    assert [offset for offset, _ in schedule] == [i / 4.0 for i in range(8)]
    with pytest.raises(ValueError):
        loadclient.even_schedule(4.0, 3.0, [{}] * 10)


# -- spans, self time, server metrics ---------------------------------------

class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_times_add_up_to_the_root_span():
    recorder = Recorder(clock=_Clock())
    with recorder.span(ROOT_LAYER):          # opens at 1
        with recorder.span("link"):          # 2
            with recorder.span("buffering"):  # 3 .. 4
                pass
        with recorder.span("link"):          # 6 .. 7 (link closed at 5)
            pass
    times = recorder.self_times()            # root closes at 8
    assert times == {ROOT_LAYER: 3.0, "link": 3.0, "buffering": 1.0}
    check_additivity(times, recorder.root_wall())
    with pytest.raises(RuntimeError):
        check_additivity(times, recorder.root_wall() + 1.0)


def test_patch_wraps_where_the_caller_looks_and_restores():
    class Owner:
        def work(self, x):
            return x + 1

    original = Owner.__dict__["work"]
    recorder = Recorder()
    with recorder.patched([(Owner, "work", "link")]):
        assert Owner().work(1) == 2
        assert Owner.__dict__["work"] is not original
    assert Owner.__dict__["work"] is original
    assert [span[2] for span in recorder.spans] == ["link"]


def test_server_metrics_parsing_and_histogram_median():
    text = "\n".join([
        "# TYPE repro_serve_batches counter",
        "repro_serve_batches_total 12",
        'repro_serve_batch_size_bucket{le="1.0"} 8',
        'repro_serve_batch_size_bucket{le="2.0"} 11',
        'repro_serve_batch_size_bucket{le="+Inf"} 12',
        "# EOF"])
    after = serve_workload.parse_openmetrics(text)
    assert after["repro_serve_batches_total"] == 12.0
    before = {'repro_serve_batch_size_bucket{le="1.0"}': 2.0,
              'repro_serve_batch_size_bucket{le="2.0"}': 2.0,
              'repro_serve_batch_size_bucket{le="+Inf"}': 2.0}
    # Growth: 6 at <=1, 9 at <=2, 10 in total -> median bucket 1.0.
    assert serve_workload.histogram_median(
        before, after, "repro_serve_batch_size") == 1.0


def test_busy_union_merges_overlapping_requests():
    def exchange(sent, reply):
        e = loadclient.Exchange(document={}, due=sent)
        e.sent, e.reply, e.ok = sent, reply, True
        return e

    spans = [exchange(0.0, 2.0), exchange(1.0, 3.0), exchange(5.0, 6.0)]
    assert serve_workload._busy_union(spans) == 4.0
