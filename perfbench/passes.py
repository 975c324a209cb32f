"""Repeat an in-process pass for a time budget, traced or not."""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Tuple

from harness import Outcome, digest, median
from layers import counter_metrics, layer_table, program_counters
from tracing import ROOT, Recorder, check_additivity

#: One pass: takes a span factory, returns (timings, outputs).
Pass = Callable[[Callable[[str], Any]], Tuple[Dict[str, float], Any]]


def span_factory(recorder: Optional[Recorder]) -> Callable[[str], Any]:
    """``recorder.span``, or a no-op context for untraced passes."""
    if recorder is None:
        return lambda layer: nullcontext()
    return recorder.span


def repeat(run_pass: Pass, plan: Callable[[], List[tuple]],
           seconds: float, traced: bool, outcome: Outcome,
           wall_key: str) -> Tuple[List[Dict[str, float]],
                                   Dict[str, float]]:
    """Run passes until ``seconds`` are spent.

    A new pass starts while at least half of the last pass's
    ``wall_key`` time remains, so a run overshoots ``seconds`` by at
    most half a pass.  Every pass must produce the same
    outputs.  Traced: passes alternate untraced and traced, starting
    untraced; the traced ones patch ``plan()`` and yield the per-layer
    table (median over traced passes) with ``trace_overhead_s``, the
    median traced wall minus the median untraced one.  Returns the
    untraced timings and the table (empty when untraced).
    """
    untraced: List[Dict[str, float]] = []
    tables: List[Dict[str, float]] = []
    reference = None
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        recorder = Recorder() if traced and index % 2 == 1 else None
        before = program_counters()
        if recorder is None:
            timings, outputs = run_pass(span_factory(None))
        else:
            with recorder.patched(plan()), recorder.span(ROOT):
                timings, outputs = run_pass(recorder.span)
        after = program_counters()
        current = digest(outputs)
        reference = reference or current
        outcome.check("passes agree", current == reference,
                      f"pass {index} digest {current[:12]}")
        if recorder is None:
            untraced.append(timings)
        else:
            wall = recorder.root_wall()
            check_additivity(recorder.self_times(), wall)
            table = layer_table(recorder, counter_metrics(before, after))
            table["traced_wall_s"] = wall
            tables.append(table)
            outcome.spans = recorder
        index += 1
        enough = bool(untraced) and (bool(tables) or not traced)
        if enough and deadline - time.perf_counter() \
                < 0.5 * timings[wall_key]:
            break
    outcome.digest = reference
    if not traced:
        return untraced, {}
    layer = {key: median([t[key] for t in tables]) for key in tables[0]}
    layer["trace_overhead_s"] = layer["traced_wall_s"] - median(
        [t[wall_key] for t in untraced])
    return untraced, layer
