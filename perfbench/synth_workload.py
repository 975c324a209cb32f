"""`synth`: the Table III flow at 65 nm, in process, one worker.

One pass synthesizes VPROC and DVOPD under the Bakoglu ("original")
and the proposed model and evaluates each of the four topologies
under the proposed model, all through ``repro.noc``.  Every
``synthesize``/``evaluate_topology`` call builds its own
``LinkDesigner``, so each pass starts with a cold link memo; the disk
cache is off.

Why: about three quarters of a pass is link design → buffering search
→ kernel search, and no transient simulation runs.  It exposes the
search and is the no-change control for a faster golden engine.

Seed 0 uses the paper's floorplans; any other seed stretches each
floorplan by up to ``JITTER`` (1.5%), so link lengths and topologies differ a
little while every flow stays routable.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from harness import Outcome, median
from layers import search_plan
from passes import repeat

NODE = "65nm"

#: Largest floorplan stretch for seeds other than 0.
JITTER = 0.015

#: Lengths checked for ``design_batch`` == scalar ``design``.
BATCH_CHECK_LENGTHS = 12


@dataclass
class State:
    suite: Any
    specs: List[Any]
    seed: int


def _jittered(spec, rng: random.Random):
    """Stretch the whole floorplan by a small seeded factor.

    Every core moves and every link length changes, but equal
    distances stay equal, so the number of distinct link lengths, and
    with it the link-design work, stays that of the paper floorplan.
    Moving cores one by one makes nearly every pairwise distance
    distinct and doubles the work (measured: 219 → ~450 designs
    computed per pass); stretching the axes by different factors
    still adds ~40%.
    """
    from repro.noc.spec import CommunicationSpec

    stretch = 1.0 + rng.uniform(-1, 1) * JITTER
    moved = CommunicationSpec(name=spec.name, data_width=spec.data_width)
    for name in sorted(spec.cores):
        core = spec.cores[name]
        moved.add_core(name, core.x * stretch, core.y * stretch)
    for flow in spec.flows:
        moved.add_flow(flow.source, flow.dest, flow.bandwidth,
                       max_hops=flow.max_hops)
    return moved


def build_specs(seed: int, tech) -> List[Any]:
    """VPROC and DVOPD at ``tech``; jittered unless ``seed`` is 0."""
    from repro.noc.testcases import dual_vopd, vproc

    specs = []
    for factory in (vproc, dual_vopd):
        spec = factory(tech)
        if seed != 0:
            spec = _jittered(spec, random.Random(f"synth-{seed}-{spec.name}"))
        specs.append(spec)
    return specs


def setup(seed: int) -> State:
    """Imports, model suite and specs: what ``setup_s`` times."""
    from repro import runtime
    from repro.experiments.suite import ModelSuite
    import repro.noc.evaluation  # noqa: F401 - part of the timed import
    import repro.noc.synthesis  # noqa: F401

    runtime.configure(workers=1, cache_enabled=False)
    suite = ModelSuite.for_node(NODE)
    return State(suite=suite, specs=build_specs(seed, suite.tech),
                 seed=seed)


def _topology_record(topology, report) -> Dict[str, Any]:
    links = sorted((a[0], a[1], b[0], b[1], data["length"], data["load"])
                   for a, b, data in topology.links())
    routes = sorted((index, [list(node) for node in path])
                    for index, path in topology.routes.items())
    return {"links": links, "routes": routes,
            "report": [getattr(report, field)
                       for field in report.__dataclass_fields__]}


def run_pass(state: State, outcome: Outcome,
             span) -> Tuple[Dict[str, float], List[Any]]:
    """One Table III pass; returns (timings, per-topology records)."""
    import repro.noc.evaluation as evaluation
    import repro.noc.synthesis as synthesis

    suite = state.suite
    synth_s = eval_s = synth_cpu = eval_cpu = 0.0
    records = []
    started, started_cpu = time.perf_counter(), time.process_time()
    for spec in state.specs:
        for model_name in ("bakoglu", "proposed"):
            outcome.attempted += 2
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with span("synthesis"):
                    topology = synthesis.synthesize(
                        spec, getattr(suite, model_name), suite.tech)
            except synthesis.SynthesisError as exc:
                outcome.failed += 2
                outcome.check(f"{spec.name}/{model_name} routed", False,
                              str(exc))
                continue
            t1, c1 = time.perf_counter(), time.process_time()
            with span("evaluation"):
                report = evaluation.evaluate_topology(
                    topology, suite.proposed, suite.tech)
            t2, c2 = time.perf_counter(), time.process_time()
            synth_s += t1 - t0
            eval_s += t2 - t1
            synth_cpu += c1 - c0
            eval_cpu += c2 - c1
            records.append(_check_topology(spec, model_name, topology,
                                           report, suite, outcome))
    wall = time.perf_counter() - started
    return {"flow_s": wall, "synthesize_s": synth_s,
            "evaluate_s": eval_s, "flow_cpu_s": time.process_time() - started_cpu,
            "synthesize_cpu_s": synth_cpu,
            "evaluate_cpu_s": eval_cpu}, records


def _check_topology(spec, model_name, topology, report, suite,
                    outcome: Outcome) -> Dict[str, Any]:
    from repro.noc.synthesis import SynthesisConfig

    config = SynthesisConfig()
    capacity = (spec.data_width * suite.tech.clock_frequency
                * config.utilization)
    problems = topology.validate(capacity, max_ports=config.max_ports)
    if len(topology.routes) != len(spec.flows):
        problems.append("missing routes")
    outcome.check(f"{spec.name}/{model_name} routed", not problems,
                  "; ".join(problems[:3])
                  or f"{len(spec.flows)} flows routed")
    record = _topology_record(topology, report)
    record["case"] = f"{spec.name}/{model_name}"
    return record


def check_batch_equals_scalar(state: State, outcome: Outcome) -> None:
    """``design_batch`` must equal scalar ``design`` bit for bit."""
    from repro.noc.link import LinkDesigner

    suite = state.suite
    rng = random.Random(f"synth-batch-{state.seed}")
    spec = state.specs[0]
    names = sorted(spec.cores)
    lengths = []
    for _ in range(BATCH_CHECK_LENGTHS):
        a, b = rng.sample(names, 2)
        lengths.append(max(spec.cores[a].distance_to(spec.cores[b]),
                           0.2e-3))

    def designer():
        return LinkDesigner(suite.proposed, suite.tech, spec.data_width,
                            use_disk_cache=False)

    batch = designer().design_batch(lengths)
    scalar_designer = designer()
    scalar = [scalar_designer.design(length) for length in lengths]
    outcome.attempted += 1
    same = [(a.to_payload() if a else None) == (b.to_payload() if b else None)
            for a, b in zip(batch, scalar)]
    if not all(same):
        outcome.failed += 1
    outcome.check("design_batch equals scalar design", all(same),
                  f"{sum(same)}/{len(same)} lengths identical")


def run(state: State, seconds: float, traced: bool,
        outcome: Outcome) -> Dict[str, float]:
    """Passes until ``seconds`` are spent; returns metric values."""
    passes, layer = repeat(
        lambda span: run_pass(state, outcome, span), search_plan,
        seconds, traced, outcome, "flow_s")
    check_batch_equals_scalar(state, outcome)

    def med(key: str) -> float:
        return median([p[key] for p in passes])

    outcome.named.update({
        "synth.flow_s": (med("flow_s"), "s"),
        "synth.synthesize_s": (med("synthesize_s"), "s"),
        "synth.evaluate_s": (med("evaluate_s"), "s"),
        "synth.flow_cpu_s": (med("flow_cpu_s"), "s"),
        "synth.synthesize_cpu_s": (med("synthesize_cpu_s"), "s"),
        "synth.evaluate_cpu_s": (med("evaluate_cpu_s"), "s"),
    })
    outcome.details["passes"] = passes
    return {
        "primary_ms": med("flow_cpu_s") * 1e3,
        "secondary_ms": med("synthesize_cpu_s") * 1e3,
        "tertiary_ms": med("evaluate_cpu_s") * 1e3,
        **layer,
    }
