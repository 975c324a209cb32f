"""`serve`: open-loop traffic against a ``repro serve`` subprocess.

The server runs as ``python -m repro.cli serve`` with one shard
worker, the disk cache off and a link memo of ``MEMO_ENTRIES``
entries per context.  Traffic comes from this process over at most
two keep-alive connections (:mod:`loadclient`), on a fixed schedule:
mostly ``design`` queries on a grid of lengths over three contexts,
which hit the warm memo after warm-up, plus a small share of
``design_batch`` on fresh lengths, ``max_feasible_length`` and
kernel-engine ``mc``.  The small memo keeps the fresh lengths cold
through the whole run while the grid stays warm, so every phase sees
the same mix of memo hits and computes.

Why: here the link layer is a read cache behind HTTP, the coalescer
window, shard IPC and JSON.  The workload shows per-request overhead
and whether a search change that speeds cold computes slows warm hits.

Phases: a low and a high fixed rate, then a rate ladder that finds the
highest rate meeting ``LIMIT_MS`` at the tail percentile with no
growing backlog, then a closed-loop cold phase (``cold_plan``):
``design_batch`` queries whose lengths are all memo misses, one at a
time, charged the CPU time the server's process group spent meanwhile.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import loadclient
from harness import Outcome, child_pids, digest, group_cpu_s, median, \
    process_peak_rss_mb, tail

#: (node, bus width) of each serving context.
CONTEXTS = (("90nm", 32), ("65nm", 64), ("45nm", 128))

#: Lengths (mm) the ``design`` traffic draws from.
GRID_MM = tuple(0.5 + 0.25 * step for step in range(16))

#: Range (mm) of fresh ``design_batch`` lengths, and lengths per
#: query.  4.4 mm is 0.9 of the 45 nm context's longest feasible
#: link, so every fresh length is designed, not rejected.
FRESH_MM = (0.3, 4.4)
FRESH_PER_BATCH = 3

#: Per-context link memo bound given to the server.
MEMO_ENTRIES = 32

#: Share of each op in the traffic (cumulative thresholds).
MIX = (("design", 0.90), ("design_batch", 0.93),
       ("max_feasible_length", 0.97), ("mc", 1.0))

#: The two fixed rates, requests per second.  On a 2-core Xeon the
#: ladder found the mix's capacity between 130 and 330 requests/s,
#: depending on host load; both rates stay below the low end.
LOW_RPS = 100.0
HIGH_RPS = 120.0

#: Shares of ``--seconds`` for the low phase, the high phase and the
#: ladder.  At 30 s both fixed phases send over 1000 requests, so
#: their tail is a true p99 with ten requests beyond it.
LOW_SHARE, HIGH_SHARE, LADDER_SHARE = 0.35, 0.30, 0.35

#: Latency limit at the tail percentile for a ladder step to pass.
LIMIT_MS = 200.0

#: Ladder: multiply the rate by this until a step fails, then bisect
#: geometrically until passing and failing rates are this close.
LADDER_GROWTH = 1.25
LADDER_RESOLUTION = 1.06

#: Server start-ups timed for ``setup_s`` (the last one is kept).
STARTS = 3

#: Exchanges replayed in process for the bit-equality check.
REPLAY = 40

#: Rounds of the closed-loop cold phase, and the link memo's key
#: quantum (``repro.noc.link``) its lengths are placed on.
COLD_ROUNDS = 3
COLD_QUANTUM_MM = 0.05


@dataclass
class State:
    root: str
    env: Dict[str, str]
    seed: int
    log_path: str
    connections: int


def server_env(env: Dict[str, str], root: str) -> Dict[str, str]:
    """The child environment: ``src`` importable, no serve overrides."""
    child = {key: value for key, value in env.items()
             if not key.startswith("REPRO_SERVE_")}
    child["PYTHONPATH"] = os.path.join(root, "src")
    return child


def make_documents(seed: int, phase: str, count: int
                   ) -> List[Dict[str, Any]]:
    """``count`` seeded query documents for one phase."""
    rng = random.Random(f"serve-{seed}-{phase}")
    documents = []
    for _ in range(count):
        node, width = CONTEXTS[rng.randrange(len(CONTEXTS))]
        base = {"node": node, "bus_width": width}
        draw = rng.random()
        op = next(name for name, edge in MIX if draw < edge)
        if op == "design":
            base["length_mm"] = GRID_MM[rng.randrange(len(GRID_MM))]
        elif op == "design_batch":
            base["lengths_mm"] = [round(rng.uniform(*FRESH_MM), 3)
                                  for _ in range(FRESH_PER_BATCH)]
        elif op == "mc":
            base.update(samples=rng.choice((64, 128, 256)),
                        seed=rng.randrange(1 << 20), engine="kernel",
                        length_mm=round(rng.uniform(1.0, 3.0), 3))
        base["op"] = op
        documents.append(base)
    return documents


class Server:
    """One ``repro serve`` child in its own process group."""

    def __init__(self, state: State) -> None:
        self.state = state
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> Tuple[float, float]:
        """Start and wait until every context answered once.

        Returns (CPU seconds the server's process group used by then,
        wall seconds).
        """
        started = time.perf_counter()
        with open(self.state.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--host", "127.0.0.1", "--port", "0", "--shards", "1",
                 "--memo-entries", str(MEMO_ENTRIES), "--no-cache"],
                cwd=self.state.root, env=server_env(self.state.env,
                                                    self.state.root),
                stdout=subprocess.PIPE, stderr=log, text=True,
                start_new_session=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))
        asyncio.run(self._first_answers())
        wall = time.perf_counter() - started
        return group_cpu_s(self.proc.pid), wall

    async def _first_answers(self) -> None:
        connection = loadclient.HttpConnection("127.0.0.1", self.port)
        try:
            for node, width in CONTEXTS:
                response = await connection.query(
                    {"op": "design", "node": node, "bus_width": width,
                     "length_mm": GRID_MM[0]})
                if not response.get("ok"):
                    raise RuntimeError(f"first answer failed: {response}")
        finally:
            await connection.close()

    def peak_rss_mb(self) -> float:
        """Summed peak resident sets of the server and its workers."""
        pids = [self.proc.pid] + child_pids(self.proc.pid)
        return sum(process_peak_rss_mb(pid) for pid in pids)

    def stop(self, timeout: float = 20.0) -> None:
        """Interrupt the server, wait for it and its whole group."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=timeout)
        if proc.stdout is not None:
            proc.stdout.close()
        deadline = time.monotonic() + timeout
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                deadline = time.monotonic() + timeout
            time.sleep(0.05)


def parse_openmetrics(text: str) -> Dict[str, float]:
    """Sample name (with labels) → value, from ``GET /metrics``."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
    return samples


def histogram_median(before: Dict[str, float], after: Dict[str, float],
                     metric: str) -> float:
    """Bucket edge holding the median of a histogram's growth."""
    prefix = f'{metric}_bucket{{le="'
    edges = []
    for name, value in after.items():
        if name.startswith(prefix):
            edge = name[len(prefix):-2]
            grown = value - before.get(name, 0.0)
            edges.append((math.inf if edge == "+Inf" else float(edge),
                          grown))
    edges.sort()
    total = edges[-1][1] if edges else 0.0
    for edge, cumulative in edges:
        if total and cumulative >= total / 2:
            return edge
    return 0.0


def phase_summary(phase: loadclient.PhaseResult) -> Dict[str, Any]:
    """Per-step report: counts, latency, lateness, verdict."""
    latencies = [e.latency for e in phase.exchanges]
    tail_stat = tail(latencies)
    if tail_stat is None:
        tail_stat = (100.0, max(latencies), len(latencies))
    lags = [e.lag for e in phase.exchanges]
    replies = [e.reply for e in phase.exchanges if e.ok]
    span = (max(replies) - min(e.due for e in phase.exchanges)
            if replies else math.inf)
    grew = loadclient.backlog_grew(phase.exchanges)
    return {
        "rate_rps": phase.rate,
        "duration_s": phase.duration,
        "sent": phase.sent,
        "succeeded": phase.succeeded,
        "failed": phase.failed,
        "p50_ms": median(latencies) * 1e3,
        "tail_pct": tail_stat[0],
        "tail_ms": tail_stat[1] * 1e3,
        "lag_p50_ms": median(lags) * 1e3,
        "lag_max_ms": max(lags) * 1e3,
        "backlog_grew": grew,
        "achieved_rps": phase.succeeded / span,
        "passed": (tail_stat[1] * 1e3 <= LIMIT_MS and not grew
                   and phase.failed == 0),
    }


def cold_plan(seed: int) -> Tuple[List[Dict[str, Any]],
                                   List[Dict[str, Any]]]:
    """(flush queries, cold queries) of one cold round.

    Lengths sit on the centres of the link memo's 0.05 mm key quanta
    from ``FRESH_MM[0]`` to ``FRESH_MM[1]``.  Per context, the cold
    queries use every other quantum, each once, and the flush queries
    all the rest: more than ``MEMO_ENTRIES``, so after the flush the
    memo holds only flush quanta and every cold length is computed.
    The set of cold lengths is the same for every seed, so a round
    always does the same work; the seed only groups them into queries.
    """
    first = round(FRESH_MM[0] / COLD_QUANTUM_MM)
    last = round(FRESH_MM[1] / COLD_QUANTUM_MM)
    quanta = list(range(first, last + 1))
    cold_quanta, flush_quanta = quanta[0::2], quanta[1::2]
    assert len(flush_quanta) > MEMO_ENTRIES
    flush: List[Dict[str, Any]] = []
    per_context = []
    for node, width in CONTEXTS:
        base = {"op": "design_batch", "node": node, "bus_width": width}
        lengths = [round(q * COLD_QUANTUM_MM, 3) for q in flush_quanta]
        flush.extend(dict(base, lengths_mm=lengths[i:i + 8])
                     for i in range(0, len(lengths), 8))
        lengths = [round(q * COLD_QUANTUM_MM, 3) for q in cold_quanta]
        random.Random(f"serve-{seed}-cold-{node}").shuffle(lengths)
        per_context.append([
            dict(base, lengths_mm=lengths[i:i + FRESH_PER_BATCH])
            for i in range(0, len(lengths), FRESH_PER_BATCH)])
    cold = [document for group in zip(*per_context) for document in group]
    return flush, cold


async def _cold_phase(connection: loadclient.HttpConnection, seed: int,
                      pgid: int) -> List[Dict[str, Any]]:
    """``COLD_ROUNDS`` rounds of flush, then cold queries one at a time.

    A round is charged the CPU time the server's process group spent
    from just before its first cold query to just after its last
    reply, and the memo hits counted meanwhile (which must be none).
    """
    flush, cold = cold_plan(seed)
    rounds = []
    for _ in range(COLD_ROUNDS):
        answers = []
        for document in flush:
            answers.append(await _query_or_fail(connection, document))
        hits = _program_counters(await _metrics(connection))
        t0, before = time.perf_counter(), group_cpu_s(pgid)
        for document in cold:
            answers.append(await _query_or_fail(connection, document))
        after, wall = group_cpu_s(pgid), time.perf_counter() - t0
        hits_after = _program_counters(await _metrics(connection))
        rounds.append({
            "queries": len(cold), "cpu_s": after - before, "wall_s": wall,
            "memo_hits": (hits_after["link.memo_hit"]
                          - hits["link.memo_hit"]),
            "answered": sum(1 for a in answers if a.get("ok")),
            "sent": len(answers)})
    return rounds


async def _query_or_fail(connection: loadclient.HttpConnection,
                         document: Dict[str, Any]) -> Dict[str, Any]:
    try:
        return await connection.query(document)
    except (ConnectionError, asyncio.IncompleteReadError, OSError,
            ValueError):
        return {"ok": False}


async def _drive(state: State, port: int, seconds: float,
                 traced: bool, pgid: int) -> Dict[str, Any]:
    connections = [loadclient.HttpConnection("127.0.0.1", port)
                   for _ in range(state.connections)]
    roundtrips = [c.query for c in connections]
    out: Dict[str, Any] = {"steps": [], "exchanges": []}
    try:
        # Warm-up, not timed: every grid design enters the memo and
        # each op runs once per context, so lazy set-up is done.
        warm = []
        for node, width in CONTEXTS:
            for document in (
                    {"op": "design_batch", "node": node,
                     "bus_width": width, "lengths_mm": list(GRID_MM)},
                    {"op": "max_feasible_length", "node": node,
                     "bus_width": width},
                    {"op": "mc", "node": node, "bus_width": width,
                     "samples": 64, "seed": 1, "engine": "kernel"}):
                response = await connections[0].query(document)
                warm.append((document, response))
        out["warm"] = warm

        metrics_cost = 0.0
        if traced:
            t0 = time.perf_counter()
            out["metrics_before"] = await _metrics(connections[0])
            metrics_cost += time.perf_counter() - t0

        async def step(name: str, rate: float, duration: float):
            count = max(1, int(round(rate * duration)))
            documents = make_documents(state.seed, name, count)
            schedule = loadclient.even_schedule(rate, duration, documents)
            phase = await loadclient.run_phase(schedule, roundtrips, rate,
                                               duration)
            summary = phase_summary(phase)
            summary["name"] = name
            out["steps"].append(summary)
            out["exchanges"].extend(phase.exchanges)
            return summary

        low = await step("low", LOW_RPS, LOW_SHARE * seconds)
        high = await step("high", HIGH_RPS, HIGH_SHARE * seconds)
        out["low"], out["high"] = low, high
        out["measured_exchanges"] = len(out["exchanges"])
        out["cold_p50_ms"] = median([
            e.latency for e in out["exchanges"]
            if e.document["op"] == "design_batch"]) * 1e3
        out["ladder"] = await _ladder(step, [low, high], seconds)

        if traced:
            t0 = time.perf_counter()
            out["metrics_after"] = await _metrics(connections[0])
            metrics_cost += time.perf_counter() - t0
        out["metrics_cost_s"] = metrics_cost
        out["cold"] = await _cold_phase(connections[0], state.seed, pgid)
    finally:
        for connection in connections:
            await connection.close()
    return out


async def _metrics(connection: loadclient.HttpConnection
                   ) -> Dict[str, float]:
    status, payload = await connection.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    return parse_openmetrics(payload.decode("utf-8"))


async def _ladder(step, fixed: Sequence[Dict[str, Any]],
                  seconds: float) -> Dict[str, Any]:
    """Highest passing rate: grow geometrically, then bisect."""
    duration = seconds / 15.0
    budget = int(round(LADDER_SHARE * seconds / duration))
    passing = [s for s in fixed if s["passed"]]
    failing = [s for s in fixed if not s["passed"]]
    best = max(passing, key=lambda s: s["rate_rps"]) if passing else None
    fail_rate = min((s["rate_rps"] for s in failing), default=None)
    if fail_rate is not None and best is not None \
            and fail_rate < best["rate_rps"]:
        fail_rate = None
    for index in range(budget):
        if best is None:
            rate = (fail_rate or LOW_RPS) / 1.5
        elif fail_rate is None:
            rate = best["rate_rps"] * LADDER_GROWTH
        elif fail_rate / best["rate_rps"] <= LADDER_RESOLUTION:
            break
        else:
            rate = math.sqrt(best["rate_rps"] * fail_rate)
        summary = await step(f"ladder{index}", rate, duration)
        if summary["passed"]:
            if best is None or rate > best["rate_rps"]:
                best = summary
        else:
            fail_rate = rate if fail_rate is None else min(fail_rate, rate)
    if best is None:
        best = min(fixed, key=lambda s: s["rate_rps"])
    return best


def replay(exchanges: Sequence[loadclient.Exchange], seed: int,
           outcome: Outcome) -> None:
    """Served answers must equal in-process ``execute_query`` bits."""
    from repro.serve import execute_query, parse_query

    ok = [e for e in exchanges if e.ok]
    rng = random.Random(f"serve-replay-{seed}")
    chosen: List[loadclient.Exchange] = []
    for op, _ in MIX:  # at least one of every op that was served
        of_op = [e for e in ok if e.document["op"] == op]
        if of_op:
            chosen.append(rng.choice(of_op))
    rest = [e for e in ok if all(e is not c for c in chosen)]
    chosen.extend(rng.sample(rest, min(len(rest), REPLAY - len(chosen))))
    mismatched = 0
    for exchange in chosen:
        local = json.loads(json.dumps(
            execute_query(parse_query(exchange.document))))
        if local != exchange.response["result"]:
            mismatched += 1
    outcome.check("served answers equal execute_query",
                  mismatched == 0 and bool(chosen),
                  f"{len(chosen) - mismatched}/{len(chosen)} identical")


def _busy_union(exchanges: Sequence[loadclient.Exchange]) -> float:
    """Seconds during which at least one request was on the wire."""
    intervals = sorted((e.sent, e.reply) for e in exchanges
                       if not math.isnan(e.sent))
    total, cursor = 0.0, -math.inf
    for start, end in intervals:
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def run(state: State, seconds: float, traced: bool,
        outcome: Outcome, setup_times: List[float]) -> Dict[str, float]:
    """Start the server ``STARTS`` times, then drive the phases."""
    server = Server(state)
    try:
        for attempt in range(STARTS):
            setup_times.append(server.start())
            if attempt < STARTS - 1:
                server.stop()
        data = asyncio.run(_drive(state, server.port, seconds, traced,
                                  server.proc.pid))
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    warm_ok = all(response.get("ok") for _, response in data["warm"])
    outcome.check("warm-up answered", warm_ok)
    outcome.digest = digest([response for _, response in data["warm"]])
    exchanges: List[loadclient.Exchange] = data["exchanges"]
    outcome.attempted += len(exchanges) + len(data["warm"])
    outcome.failed += sum(1 for e in exchanges if not e.ok)
    outcome.failed += sum(1 for _, r in data["warm"] if not r.get("ok"))
    cold = data["cold"]
    sent = sum(r["sent"] for r in cold)
    answered = sum(r["answered"] for r in cold)
    outcome.attempted += sent
    outcome.failed += sent - answered
    outcome.check("cold phase answered and missed the memo",
                  answered == sent and all(r["memo_hits"] == 0
                                           for r in cold),
                  f"{answered}/{sent} answered, memo hits "
                  f"{[r['memo_hits'] for r in cold]}")
    # Server CPU per cold query: median over rounds of the round mean.
    # A round with a failed query counts as infinitely expensive.
    cold_cpu_ms = median([
        r["cpu_s"] / r["queries"] * 1e3 if r["answered"] == r["sent"]
        else math.inf for r in cold])
    replay(exchanges, state.seed, outcome)

    low, high, best = data["low"], data["high"], data["ladder"]
    outcome.named.update({
        "serve.p50_ms.low": (low["p50_ms"], "ms"),
        "serve.p99_ms.low": (low["tail_ms"], "ms"),
        "serve.p50_ms.high": (high["p50_ms"], "ms"),
        "serve.p99_ms.high": (high["tail_ms"], "ms"),
        "serve.max_rate_rps": (best["achieved_rps"], "1/s"),
        "serve.cold_p50_ms": (data["cold_p50_ms"], "ms"),
        "serve.cold_cpu_ms": (cold_cpu_ms, "ms"),
        "serve.cold_wall_ms": (median([r["wall_s"] / r["queries"]
                                       for r in cold]) * 1e3, "ms"),
    })
    outcome.details["steps"] = data["steps"]
    outcome.details["cold"] = cold
    outcome.details["peak_rss_mb"] = rss
    values = {
        "peak_rss_mb": rss,
        "primary_ms": low["p50_ms"],
        "secondary_ms": high["p50_ms"],
        "tertiary_ms": cold_cpu_ms,
    }
    if traced:
        values.update(_layer_table(data))
    return values


#: Program counters the per-layer table reads from ``GET /metrics``.
SERVER_COUNTERS = ("kernels.batches", "kernels.batch_size",
                   "link.memo_hit", "link.design_attempts",
                   "serve.batches", "serve.worker_restart")


def _program_counters(samples: Dict[str, float]) -> Dict[str, float]:
    """The server's counters under the program's own names."""
    return {name: samples.get(
        "repro_" + name.replace(".", "_") + "_total", 0.0)
        for name in SERVER_COUNTERS}


def _layer_table(data: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics: server counters plus the client's timeline.

    The server's layers run in other processes, so only their counts
    are known here; their self times stay 0.
    """
    from layers import counter_metrics, layer_table
    from tracing import Recorder

    before = _program_counters(data["metrics_before"])
    after = _program_counters(data["metrics_after"])
    table = layer_table(Recorder(), counter_metrics(before, after))
    measured = data["exchanges"]
    fixed = measured[:data["measured_exchanges"]]
    wall = max(e.reply for e in measured) - min(e.due for e in measured)
    busy = _busy_union(measured)
    lag = tail([e.lag for e in fixed]) or (0, max(e.lag for e in fixed))
    table.update({
        "serve.send_wait_ms": median([e.send_wait for e in fixed]) * 1e3,
        "serve.server_ms": median([e.server_time for e in fixed
                                   if e.ok]) * 1e3,
        "serve.batches": after["serve.batches"] - before["serve.batches"],
        "serve.batch_size_p50": histogram_median(
            data["metrics_before"], data["metrics_after"],
            "repro_serve_batch_size"),
        "serve.worker_restarts": (after["serve.worker_restart"]
                                  - before["serve.worker_restart"]),
        "serve.generator_lag_ms": lag[1] * 1e3,
        "serve.busy_s": busy,
        "unattributed_s": wall - busy,
        "traced_wall_s": wall,
        "trace_overhead_s": data["metrics_cost_s"],
    })
    return table
