"""Scalar-vs-kernel benchmarks: the repo's tracked perf trajectory.

``repro bench`` times the Monte-Carlo variation analysis the
vectorized kernels accelerate once on the scalar reference path
(the ``"model"`` engine) and once on the batched kernels, checks the
results agree (≤ :data:`EQUIVALENCE_RTOL` relative), and writes
``BENCH_kernels.json``:

.. code-block:: json

    {
      "schema": 1,
      "generated_at": "...",
      "node": "90nm",
      "quick": false,
      "env": {"python": "...", "platform": "...", "numpy": "..."},
      "results": [
        {"op": "monte_carlo", "n": 10000,
         "wall_s": {"scalar": 12.3, "kernel": 0.4},
         "speedup": 30.7, "max_rel_diff": 0.0, "equivalent": true}
      ]
    }

This file seeds the perf baseline later PRs are judged against; the
CI ``bench-smoke`` job runs the ``--quick`` variant and fails when
kernel/scalar equivalence drifts.

Timing uses ``time.perf_counter`` (a duration, not a wall clock) and
runs the scalar path at ``workers=1``, so the recorded speedup is the
single-process algorithmic win, not parallelism.  The harness here —
:class:`BenchResult`, :func:`time_pair` and :func:`max_rel_diff` — is
shared with the LUT-tier bench (:mod:`repro.bench_lut`).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bench_registry import BenchSample
from repro.units import mm, ps

#: Bump when the BENCH_kernels.json layout changes incompatibly.
BENCH_SCHEMA = 1

#: Maximum allowed scalar-vs-kernel relative difference.
EQUIVALENCE_RTOL = 1e-9

#: Monte-Carlo sample counts (full / --quick).
DEFAULT_SAMPLES = 10_000
QUICK_SAMPLES = 2_000


@dataclass(frozen=True)
class BenchResult:
    """One reference-vs-candidate timing comparison.

    ``scalar_wall_s`` times the reference path and ``kernel_wall_s``
    the candidate (the registry's ``op`` schema names; ``labels`` only
    changes how :meth:`format` prints them).  With ``reps > 1`` the
    wall times are means over the repetitions and the ``*_wall_se``
    fields carry the standard error of those means (from the per-rep
    timing histograms), which is what makes ``repro bench diff``'s
    noise gate meaningful.

    The gate is equivalence within :data:`EQUIVALENCE_RTOL` unless
    the suite brings its own: a result with ``gate_ok`` set (the LUT
    tier) passes when that gate holds and the speedup clears
    ``speedup_floor``.
    """

    op: str
    n: int
    scalar_wall_s: float
    kernel_wall_s: float
    max_rel_diff: float
    scalar_wall_se: float = 0.0
    kernel_wall_se: float = 0.0
    reps: int = 1
    gate_ok: Optional[bool] = None
    speedup_floor: float = 0.0
    labels: Tuple[str, str] = ("scalar", "kernel")

    @property
    def speedup(self) -> float:
        """Reference wall time over candidate wall time
        (dimensionless)."""
        return self.scalar_wall_s / self.kernel_wall_s

    @property
    def equivalent(self) -> bool:
        """Whether the two paths agreed within the tolerance."""
        return self.max_rel_diff <= EQUIVALENCE_RTOL

    @property
    def passed(self) -> bool:
        """The result's gate: its own, or equivalence."""
        if self.gate_ok is None:
            return self.equivalent
        return self.gate_ok and self.speedup >= self.speedup_floor

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "op": self.op,
            "n": self.n,
            "wall_s": {"scalar": self.scalar_wall_s,
                       "kernel": self.kernel_wall_s},
            "wall_se": {"scalar": self.scalar_wall_se,
                        "kernel": self.kernel_wall_se},
            "reps": self.reps,
            "speedup": self.speedup,
            "max_rel_diff": self.max_rel_diff,
        }
        if self.gate_ok is None:
            payload["equivalent"] = self.equivalent
        else:
            payload.update(speedup_floor=self.speedup_floor,
                           gate_ok=self.gate_ok, passed=self.passed)
        return payload

    def samples(self) -> List[BenchSample]:
        """This result as registry samples (``<op>.scalar`` /
        ``<op>.kernel``)."""
        return [BenchSample(name=f"{self.op}.{variant}", value=wall,
                            se=se, n=self.n)
                for variant, wall, se in (
                    ("scalar", self.scalar_wall_s, self.scalar_wall_se),
                    ("kernel", self.kernel_wall_s, self.kernel_wall_se))]

    def format(self) -> str:
        if self.passed:
            verdict = "ok"
        else:
            verdict = "DRIFT" if self.gate_ok is None else "FAIL"
        reference, candidate = self.labels
        return (f"{self.op:<14} n={self.n:<6d} "
                f"{reference} {self.scalar_wall_s:8.3f} s   "
                f"{candidate} {self.kernel_wall_s:8.3f} s   "
                f"{self.speedup:7.1f}x   "
                f"max rel diff {self.max_rel_diff:.2e} [{verdict}]")


def max_rel_diff(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Largest elementwise ``|candidate - reference| / |reference|``."""
    reference = np.asarray(reference, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    scale = np.maximum(np.abs(reference), 1e-300)
    return float(np.max(np.abs(candidate - reference) / scale))


def time_pair(metric: str, reference: Callable[[], Any],
              candidate: Callable[[], Any], reps: int = 1
              ) -> "Tuple[Any, Any, Dict[str, Any]]":
    """Time ``reference()`` then ``candidate()``, ``reps`` times each.

    Every duration is also observed into the
    ``bench.<metric>.<scalar|kernel>_seconds`` histogram.  Returns the
    last output of each side and the timing fields of a
    :class:`BenchResult` (per-rep means, their standard errors, and
    the rep count).
    """
    from repro.runtime.metrics import METRICS, Histogram

    walls = {"scalar": Histogram(), "kernel": Histogram()}
    outputs: Dict[str, Any] = {}
    for _ in range(max(1, reps)):
        for variant, run in (("scalar", reference),
                             ("kernel", candidate)):
            started = time.perf_counter()
            outputs[variant] = run()
            elapsed = time.perf_counter() - started
            walls[variant].observe(elapsed)
            METRICS.observe_keyed("bench", f"{metric}.{variant}_seconds",
                                  elapsed)
    timing = {"scalar_wall_s": walls["scalar"].mean,
              "kernel_wall_s": walls["kernel"].mean,
              "scalar_wall_se": walls["scalar"].standard_error(),
              "kernel_wall_se": walls["kernel"].standard_error(),
              "reps": walls["scalar"].count}
    return outputs["scalar"], outputs["kernel"], timing


def run_monte_carlo_bench(node: str = "90nm",
                          samples: int = DEFAULT_SAMPLES,
                          seed: int = 2010,
                          reps: int = 1) -> BenchResult:
    """Time the closed-form Monte-Carlo at ``workers=1``, both paths.

    The scalar path is the ``"model"`` engine (one Python stage chain
    per draw); the kernel path evaluates the same factor matrix in one
    batched call.  Both walk identical RNG streams, so the sample
    vectors must match bit-for-bit — any drift beyond
    :data:`EQUIVALENCE_RTOL` is a correctness failure.  ``reps``
    repeats each timing; means and standard errors come from the
    per-rep histograms.
    """
    from repro.experiments.suite import ModelSuite
    from repro.signoff.extraction import extract_buffered_line
    from repro.signoff.variation import monte_carlo_line_delay

    suite = ModelSuite.for_node(node)
    model = suite.proposed
    # A 10 mm global link (20 repeaters) — the long-wire end of the
    # paper's studied range, where per-draw scalar evaluation hurts.
    line = extract_buffered_line(model.tech, model.config, mm(10), 20,
                                 40.0)

    def run(engine: str):
        return lambda: monte_carlo_line_delay(
            line, ps(100), samples=samples, seed=seed, workers=1,
            engine=engine, model=model)

    scalar, kernel, timing = time_pair("monte_carlo", run("model"),
                                       run("kernel"), reps)
    diff = max_rel_diff(np.array(scalar.samples),
                        np.array(kernel.samples))
    diff = max(diff, max_rel_diff(scalar.nominal_delay,
                                  kernel.nominal_delay))
    return BenchResult(op="monte_carlo", n=samples, max_rel_diff=diff,
                       **timing)


def run_bench(node: str = "90nm", quick: bool = False,
              samples: Optional[int] = None,
              output: str = "BENCH_kernels.json",
              reps: int = 1,
              history: Optional[str] = None
              ) -> "Tuple[int, Dict[str, Any]]":
    """Run every benchmark, write ``output``, return (status, report).

    Status is 0 when every comparison stayed within
    :data:`EQUIVALENCE_RTOL` and 1 on drift — the bench doubles as the
    CI equivalence gate.  Besides the snapshot ``output``, the run
    appends one record to the benchmark registry history (``history``
    overrides the default ``benchmarks/results/history.jsonl``) for
    ``repro bench diff`` to gate on.
    """
    from repro import bench_registry
    from repro.runtime.manifest import run_environment, utc_timestamp

    if samples is None:
        samples = QUICK_SAMPLES if quick else DEFAULT_SAMPLES

    results: List[BenchResult] = [
        run_monte_carlo_bench(node, samples=samples, reps=reps),
    ]
    report: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "generated_at": utc_timestamp(),
        "node": node,
        "quick": quick,
        "env": run_environment(),
        "results": [result.to_payload() for result in results],
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    record = bench_registry.build_record(
        "kernels", node=node, quick=quick,
        config={"node": node, "quick": quick, "samples": samples,
                "reps": reps},
        samples=[sample for result in results
                 for sample in result.samples()],
        generated_at=report["generated_at"])
    history_path = bench_registry.append_record(record, history)
    # Human-readable lines for the CLI; not part of the JSON artifact.
    report["formatted"] = [result.format() for result in results]
    report["history_path"] = str(history_path)
    status = 0 if all(result.passed for result in results) else 1
    return status, report
