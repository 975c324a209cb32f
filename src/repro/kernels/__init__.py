"""Vectorized NumPy kernels for the closed-form models.

The scalar models in :mod:`repro.models` are the golden reference:
one Python call per repeater equation, readable and individually
testable.  The hot paths, however, evaluate those formulas thousands
of times with different arguments — Monte-Carlo variation draws,
repeater-count x size candidate grids, length sweeps.  This package
re-expresses the same closed forms as NumPy broadcasting over lanes,
so one ufunc-style call replaces thousands of scalar invocations:

* :mod:`repro.kernels.repeater` — the three repeater equations
  (delay, output slew, input capacitance) over arrays;
* :mod:`repro.kernels.wire` — the enhanced Pamunuwa wire RC/delay
  terms with the expensive per-meter parasitics hoisted out of the
  inner loop (:class:`~repro.kernels.wire.WireCoefficients`);
* :mod:`repro.kernels.line` — the composed buffered-line delay/power
  over ``(count, size, length)`` lanes
  (:func:`~repro.kernels.line.evaluate_line_batch`);
* :mod:`repro.kernels.search` — the Section III-D buffering search
  itself (its only implementation, run under every model):
  golden-section / bisection over all repeater-count lanes at once;
* :mod:`repro.kernels.variation` — perturbed line delay over a whole
  Monte-Carlo factor matrix in one call;
* :mod:`repro.kernels.lut` — batched trilinear interpolation over the
  characterization LUT tier (:mod:`repro.luts`), plus the first-order
  Monte-Carlo lane and the LUT-served line evaluation.

Contracts:

* **Equivalence** — every model kernel mirrors the scalar expressions
  operation-for-operation (same association order, sequential
  accumulation instead of ``np.sum``), so results match the scalar
  path elementwise to within a few ULP; the test suite asserts a
  1e-9 relative bound.
* **No RNG** — kernels are pure array transforms.  All random draws
  happen in the caller (which owns the ``SeedSequence`` streams) and
  arrive as arrays; ``repro lint`` enforces this.
* **Observability** — batch entry points record the
  ``kernels.batches`` / ``kernels.batch_size`` counters and the
  ``kernels.batch`` timer, from which the ``--stats`` footer derives
  ``kernels.throughput``, and open ``trace.span`` spans.
"""

from __future__ import annotations

from repro.kernels.line import LineBatch, evaluate_line_batch, \
    supports_model
from repro.kernels.lut import (
    evaluate_line_lut,
    interpolate_trilinear,
    line_delay_first_order,
    serves_model,
)
from repro.kernels.search import (
    minimize_power_under_delay_batch,
    optimize_buffering_batch,
)
from repro.kernels.variation import line_delay_batch
from repro.kernels.wire import WireCoefficients

__all__ = [
    "LineBatch",
    "WireCoefficients",
    "evaluate_line_batch",
    "evaluate_line_lut",
    "interpolate_trilinear",
    "line_delay_first_order",
    "line_delay_batch",
    "minimize_power_under_delay_batch",
    "optimize_buffering_batch",
    "serves_model",
    "supports_model",
]
