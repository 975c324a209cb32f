"""Which entry points belong to which layer, and the per-layer table.

Each plan entry is ``(owner, name, layer[, on_exit])`` for
:meth:`tracing.Recorder.patch`.  The owner is where the *caller*
looks the name up: ``repro.noc.link`` imported
``minimize_power_under_delay`` into its own namespace, so the search
is patched there, not in ``repro.buffering.optimizer``; the optimizer
imports the kernel searches from ``repro.kernels.search`` at call
time, so those are patched on that module.

Counts come from two places: the recorder's own counters (filled by
the ``on_exit`` hooks below) and the program's ``METRICS`` counters,
read before and after the traced region.
"""

from __future__ import annotations

from typing import Dict, List

from tracing import ROOT, Recorder

#: Layers in table order; each gets a ``<layer>.self_s`` metric.
LAYERS = ("spice", "golden", "variation", "characterization",
          "calibration", "kernels", "buffering", "link", "synthesis",
          "evaluation")

#: Client- and server-side numbers only the `serve` workload has.
SERVE_METRICS = ("serve.send_wait_ms", "serve.server_ms", "serve.batches",
                 "serve.batch_size_p50", "serve.worker_restarts",
                 "serve.generator_lag_ms", "serve.busy_s")


def _count(name: str):
    def on_exit(recorder: Recorder, span_id, args, kwargs, result):
        recorder.counts[name] += 1
    return on_exit


def _transient_exit(recorder: Recorder, span_id, args, kwargs, result):
    recorder.counts["spice.transient_calls"] += 1
    recorder.counts["spice.steps"] += len(result.times) - 1


def _stage_exit(recorder: Recorder, span_id, args, kwargs, result):
    recorder.counts["golden.stage_sims"] += 1
    # simulate_stage re-runs the transient with a doubled stop time
    # until the output settles; every run after the first is a retry.
    runs = recorder.child_count(span_id, "spice")
    recorder.counts["golden.stage_retries"] += max(0, runs - 1)


def _cell_exit(recorder: Recorder, span_id, args, kwargs, result):
    # One point per (output edge, input slew, load) of the grid.
    grid = args[3] if len(args) > 3 else kwargs["grid"]
    recorder.counts["characterization.points"] += (
        2 * len(grid.input_slews) * len(grid.load_factors))


def search_plan() -> List[tuple]:
    """Link design, buffering search and the kernel searches."""
    import repro.experiments.table2 as table2
    import repro.kernels.search as ksearch
    import repro.noc.evaluation as evaluation
    import repro.noc.link as link

    searches = _count("buffering.searches")
    return [
        (link.LinkDesigner, "design", "link"),
        (link.LinkDesigner, "design_batch", "link"),
        (link.LinkDesigner, "max_length", "link"),
        (link, "design_link", "link"),
        (link, "minimize_power_under_delay", "buffering", searches),
        (link, "max_feasible_length", "buffering", searches),
        (evaluation, "optimize_buffering", "buffering", searches),
        (table2, "optimize_buffering", "buffering", searches),
        (ksearch, "minimize_power_under_delay_batch", "kernels"),
        (ksearch, "optimize_buffering_batch", "kernels"),
    ]


def golden_plan() -> List[tuple]:
    """Transient simulation, golden stages, variation and
    characterization."""
    import repro.characterization.harness as harness
    import repro.experiments.table2 as table2
    import repro.signoff.golden as golden
    import repro.signoff.variation as variation

    return [
        (golden, "simulate_transient", "spice", _transient_exit),
        (harness, "simulate_transient", "spice", _transient_exit),
        (harness, "supply_current", "spice"),
        (golden, "simulate_stage", "golden", _stage_exit),
        (variation, "simulate_stage", "golden", _stage_exit),
        (table2, "evaluate_buffered_line", "golden"),
        (variation, "sample_line_delay", "variation",
         _count("variation.draws")),
        (harness, "characterize_cell", "characterization", _cell_exit),
    ]


def program_counters() -> Dict[str, float]:
    """A snapshot of the program's own ``METRICS`` counters."""
    from repro.runtime import METRICS
    return dict(METRICS.counters)


def counter_metrics(before: Dict[str, float],
                    after: Dict[str, float]) -> Dict[str, float]:
    """Per-layer counts derived from program counters.

    ``link.memo_hit_ratio`` is memo hits over memo hits plus designs
    computed: the share of link lookups the memo answered.
    """
    def counter_delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    calls = counter_delta("kernels.batches")
    lanes = counter_delta("kernels.batch_size")
    hits = counter_delta("link.memo_hit")
    computed = counter_delta("link.design_attempts")
    return {
        "kernels.calls": calls,
        "kernels.lanes_per_call": lanes / calls if calls else 0.0,
        "link.designs_computed": computed,
        "link.memo_hit_ratio": (hits / (hits + computed)
                                if hits + computed else 0.0),
        "synthesis.edges_evaluated": counter_delta(
            "synth.edges_evaluated"),
    }


def layer_table(recorder: Recorder, counters: Dict[str, float]
                ) -> Dict[str, float]:
    """Self times and counts of one traced region, by metric name."""
    self_times = recorder.self_times()
    table: Dict[str, float] = {
        f"{layer}.self_s": self_times.get(layer, 0.0)
        for layer in LAYERS}
    for name in ("spice.transient_calls", "spice.steps",
                 "golden.stage_sims", "golden.stage_retries",
                 "variation.draws", "characterization.points",
                 "buffering.searches"):
        table[name] = recorder.counts.get(name, 0.0)
    table.update(counters)
    table.update({name: 0.0 for name in SERVE_METRICS})
    table["unattributed_s"] = self_times.get(ROOT, 0.0)
    return table
