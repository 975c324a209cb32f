"""`signoff`: the golden side at 90 nm, in process, one worker.

One round runs three phases through the public APIs:

* ``table2``: the Table II sweep (``repro.experiments.table2.run``)
  of golden ``evaluate_buffered_line`` against the proposed model
  over the paper's lengths, SWSS style;
* ``mc``: a plain golden ``monte_carlo_line_delay`` on a 2 mm line
  (the ``repro mc`` defaults), seeded by the workload seed;
* ``characterize``: ``characterize_library`` on a reduced grid, then
  ``calibrate_from_library``.

Why: transient simulation does nearly all the work and search almost
none.  The phases use the simulator in two ways, RC-ladder stages
chained by slew and many tiny single-cell circuits, so a batching
scheme that speeds one and slows the other shows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from harness import Outcome, median
from layers import golden_plan, search_plan
from passes import repeat

NODE = "90nm"

#: Golden Monte-Carlo draws per round (plus one nominal evaluation).
MC_SAMPLES = 8

#: Table II accuracy gate: the paper reports the proposed model within
#: about 12% of sign-off; half a point of slack covers the "about".
TABLE2_LIMIT_PCT = 12.5

#: A model calibrated on the reduced grid must predict the 5 mm
#: Table II line within this fraction of the shipped calibration.
CALIBRATION_AGREEMENT = 0.05


@dataclass
class State:
    suite: Any
    mc_line: Any
    grid: Any
    seed: int


def setup(seed: int) -> State:
    """Imports, model suite, the MC line and the reduced grid."""
    from repro import runtime
    from repro.characterization.harness import CharacterizationGrid
    from repro.experiments.suite import ModelSuite
    import repro.experiments.table2  # noqa: F401 - part of the timed import
    import repro.models.calibration  # noqa: F401
    import repro.signoff.variation  # noqa: F401
    from repro.signoff.extraction import extract_buffered_line
    from repro.units import mm, ps

    runtime.configure(workers=1, cache_enabled=False)
    suite = ModelSuite.for_node(NODE)
    line = extract_buffered_line(suite.tech, suite.config, mm(2.0), 2, 24.0)
    grid = CharacterizationGrid(
        sizes=(4.0, 16.0, 64.0),
        input_slews=(ps(40), ps(150), ps(400)),
        load_factors=(2.0, 8.0, 32.0))
    return State(suite=suite, mc_line=line, grid=grid, seed=seed)


def run_round(state: State, outcome: Outcome,
              span) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """One round of the three phases; (timings, outputs)."""
    from repro.characterization.harness import characterize_library
    from repro.experiments import table2
    from repro.models.calibration import calibrate_from_library
    from repro.models.interconnect import BufferedInterconnectModel
    from repro.signoff.variation import monte_carlo_line_delay
    from repro.tech.design_styles import DesignStyle
    from repro.units import mm, ps

    outcome.attempted += 4
    t0, c0 = time.perf_counter(), time.process_time()
    sweep = table2.run(nodes=(NODE,), styles=(DesignStyle.SWSS,),
                       workers=1)
    t1, c1 = time.perf_counter(), time.process_time()
    with span("variation"):
        mc = monte_carlo_line_delay(state.mc_line, ps(100),
                                    samples=MC_SAMPLES, seed=state.seed,
                                    workers=1)
    t2, c2 = time.perf_counter(), time.process_time()
    with span("characterization"):
        library = characterize_library(state.suite.tech, grid=state.grid)
    with span("calibration"):
        calibration = calibrate_from_library(library)
    t3, c3 = time.perf_counter(), time.process_time()

    max_err = sweep.max_abs_error("proposed") * 100.0
    outcome.check("table2 proposed error within "
                  f"{TABLE2_LIMIT_PCT}%", max_err <= TABLE2_LIMIT_PCT,
                  f"max |error| {max_err:.3f}%")
    samples = list(mc.samples)
    mc_ok = (len(samples) == MC_SAMPLES and mc.nominal_delay > 0
             and all(math.isfinite(s) and s > 0 for s in samples)
             and mc.sigma > 0)
    outcome.check("golden MC draws finite and spread", mc_ok,
                  f"mean {mc.mean * 1e12:.2f} ps, "
                  f"sigma {mc.sigma * 1e12:.3f} ps")
    row = next(r for r in sweep.rows if abs(r.length - mm(5)) < 1e-12)
    refit = BufferedInterconnectModel(state.suite.tech, calibration,
                                      state.suite.config)
    shipped = state.suite.proposed.evaluate(
        row.length, row.num_repeaters, row.repeater_size, ps(300)).delay
    fitted = refit.evaluate(
        row.length, row.num_repeaters, row.repeater_size, ps(300)).delay
    agreement = abs(fitted - shipped) / shipped
    outcome.check("reduced-grid calibration agrees with shipped",
                  agreement <= CALIBRATION_AGREEMENT,
                  f"5 mm delay differs by {agreement * 100:.2f}%")

    outputs = {
        "table2": [[r.length, r.num_repeaters, r.repeater_size,
                    r.golden_delay, r.errors["bakoglu"],
                    r.errors["pamunuwa"], r.errors["proposed"]]
                   for r in sweep.rows],
        "mc": [mc.nominal_delay] + samples,
        "calibration": calibration.to_dict(),
    }
    timings = {"table2_s": t1 - t0, "mc_s": t2 - t1,
               "characterize_s": t3 - t2, "round_s": t3 - t0,
               "table2_cpu_s": c1 - c0, "mc_cpu_s": c2 - c1,
               "characterize_cpu_s": c3 - c2,
               "max_err_pct": max_err}
    return timings, outputs


def run(state: State, seconds: float, traced: bool,
        outcome: Outcome) -> Dict[str, float]:
    """Rounds until ``seconds`` are spent; returns metric values."""
    rounds, layer = repeat(
        lambda span: run_round(state, outcome, span),
        lambda: golden_plan() + search_plan(), seconds, traced, outcome,
        "round_s")

    def med(key: str) -> float:
        return median([r[key] for r in rounds])

    draws_per_s = median([MC_SAMPLES / r["mc_s"] for r in rounds])
    draws_per_cpu_s = median([MC_SAMPLES / r["mc_cpu_s"] for r in rounds])
    outcome.named.update({
        "signoff.table2_s": (med("table2_s"), "s"),
        "signoff.mc_draws_per_s": (draws_per_s, "1/s"),
        "signoff.characterize_s": (med("characterize_s"), "s"),
        "signoff.table2_cpu_s": (med("table2_cpu_s"), "s"),
        "signoff.mc_draws_per_cpu_s": (draws_per_cpu_s, "1/s"),
        "signoff.characterize_cpu_s": (med("characterize_cpu_s"), "s"),
        "signoff.table2_max_err_pct": (med("max_err_pct"), "%"),
    })
    outcome.details["rounds"] = rounds
    return {
        "primary_ms": med("table2_cpu_s") * 1e3,
        "secondary_ms": 1e3 / draws_per_cpu_s,
        "tertiary_ms": med("characterize_cpu_s") * 1e3,
        **layer,
    }
