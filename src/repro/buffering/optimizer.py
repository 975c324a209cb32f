"""Search-based buffering optimization: the public entry points.

The optimizer works against *any* model exposing the
``evaluate(length, num_repeaters, repeater_size, input_slew, ...)``
interface (the proposed model and both baselines), which is exactly how
the paper swaps models inside COSI-OCC.  Swapping the model swaps only
how each probe is evaluated; the search itself — a golden-section
search over the repeater size, every repeater count a lane of one
lockstep search (Section III-D) — is the single implementation in
:mod:`repro.kernels.search`, looked up at call time.

The objective is the weighted product ``delay^w * power^(1-w)`` —
scale-free, so no normalization constants are needed; ``w = 1`` recovers
delay-optimal buffering and smaller ``w`` trades delay for power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.models.interconnect import InterconnectEstimate
from repro.units import ps

#: Default input slew assumed at the head of an optimized link.
DEFAULT_INPUT_SLEW = ps(100)

#: Practical repeater size cap — delay-optimal sizes beyond this are
#: "never used in practice" (Section III-D).
DEFAULT_MAX_SIZE = 128.0


@dataclass(frozen=True)
class BufferingSolution:
    """Result of a buffering optimization."""

    num_repeaters: int
    repeater_size: float
    estimate: InterconnectEstimate
    objective: float

    @property
    def delay(self) -> float:
        return self.estimate.delay

    @property
    def power(self) -> float:
        return self.estimate.total_power


def optimize_buffering(
    model,
    length: float,
    delay_weight: float = 0.5,
    input_slew: float = DEFAULT_INPUT_SLEW,
    max_repeaters: Optional[int] = None,
    max_size: float = DEFAULT_MAX_SIZE,
    bus_width: int = 1,
    counts: Optional[Sequence[int]] = None,
) -> BufferingSolution:
    """Best (count, size) for the weighted delay-power objective.

    ``counts`` overrides the repeater-count candidates; by default every
    count from 1 to ``max_repeaters`` (a heuristic cap derived from the
    line length) is tried.  Ties between counts go to the first.
    """
    if not 0.0 <= delay_weight <= 1.0:
        raise ValueError("delay_weight must lie in [0, 1]")
    if length <= 0:
        raise ValueError("length must be positive")

    if counts is None:
        if max_repeaters is None:
            # Generous cap: about four repeaters per millimeter.
            max_repeaters = max(2, int(length / 0.25e-3))
        counts = range(1, max_repeaters + 1)

    from repro.kernels.search import optimize_buffering_batch
    return optimize_buffering_batch(
        model, length, list(counts), delay_weight, input_slew,
        max_size, bus_width)


def minimize_power_under_delay(
    model,
    length: float,
    max_delay: float,
    input_slew: float = DEFAULT_INPUT_SLEW,
    max_size: float = DEFAULT_MAX_SIZE,
    bus_width: int = 1,
    counts: Optional[Sequence[int]] = None,
) -> Optional[BufferingSolution]:
    """Cheapest buffering whose delay meets ``max_delay``.

    Returns ``None`` when no configuration meets the bound (the link is
    infeasible at this length and clock) — which is exactly the
    feasibility check the NoC synthesizer performs per candidate link.
    ``counts`` defaults to a sparse candidate set sized to the length.
    """
    if max_delay <= 0:
        raise ValueError("max_delay must be positive")
    if counts is None:
        counts = _count_candidates(length)

    from repro.kernels.search import minimize_power_under_delay_batch
    return minimize_power_under_delay_batch(
        model, length, max_delay, input_slew, max_size, bus_width,
        list(counts))


def max_feasible_length(
    model,
    max_delay: float,
    input_slew: float = DEFAULT_INPUT_SLEW,
    upper_bound: float = 30e-3,
    max_size: float = DEFAULT_MAX_SIZE,
) -> float:
    """Longest line (meters) whose optimally buffered delay meets
    ``max_delay``.

    Used by the NoC synthesizer to prune candidate links; the paper
    observes that the optimistic original model admits "excessively
    long wires" that are not actually implementable.
    """
    def feasible(length: float) -> bool:
        solution = optimize_buffering(
            model, length, delay_weight=1.0, input_slew=input_slew,
            max_size=max_size,
            counts=_count_candidates(length))
        return solution.delay <= max_delay

    low = 0.1e-3
    if not feasible(low):
        return 0.0
    high = upper_bound
    if feasible(high):
        return high
    for _ in range(30):
        mid = 0.5 * (low + high)
        if feasible(mid):
            low = mid
        else:
            high = mid
    return low


def _count_candidates(length: float) -> Sequence[int]:
    """Sparse repeater-count candidates for fast feasibility checks."""
    dense = max(2, int(length / 0.25e-3))
    candidates = sorted({1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, dense})
    return [count for count in candidates if count <= dense]
