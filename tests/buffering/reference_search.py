"""Scalar reference for the Section III-D buffering search (test oracle).

A frozen copy of the original one-count-at-a-time search: a scalar
golden-section search over the repeater size per count, a strict-``<``
first-minimum sweep over counts, and a scalar bisection for the
min-power sizing.  The production search
(:mod:`repro.kernels.search`) runs every count as a lane of one
lockstep search; the tests compare its :class:`BufferingSolution`
results against this oracle with ``==`` for every model.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.buffering.optimizer import (
    DEFAULT_INPUT_SLEW,
    DEFAULT_MAX_SIZE,
    BufferingSolution,
)
from repro.models.interconnect import InterconnectEstimate

#: Golden-section ratio.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _weighted_objective(estimate: InterconnectEstimate,
                        delay_weight: float) -> float:
    """``delay^w * power^(1-w)`` (scale-free weighted product)."""
    if delay_weight >= 1.0:
        return estimate.delay
    if delay_weight <= 0.0:
        return estimate.total_power
    return (estimate.delay**delay_weight
            * estimate.total_power**(1.0 - delay_weight))


def _best_size_for_count(model, length: float, count: int,
                         input_slew: float, delay_weight: float,
                         max_size: float, bus_width: int
                         ) -> BufferingSolution:
    """Golden-section search over the repeater size for a fixed count."""
    def objective_at(size: float) -> "tuple[float, InterconnectEstimate]":
        estimate = model.evaluate(length, count, size, input_slew,
                                  bus_width=bus_width)
        return _weighted_objective(estimate, delay_weight), estimate

    low, high = 1.0, max_size
    x1 = high - _GOLDEN * (high - low)
    x2 = low + _GOLDEN * (high - low)
    f1, e1 = objective_at(x1)
    f2, e2 = objective_at(x2)
    for _ in range(40):
        if high - low < 0.25:
            break
        if f1 <= f2:
            high, x2, f2, e2 = x2, x1, f1, e1
            x1 = high - _GOLDEN * (high - low)
            f1, e1 = objective_at(x1)
        else:
            low, x1, f1, e1 = x1, x2, f2, e2
            x2 = low + _GOLDEN * (high - low)
            f2, e2 = objective_at(x2)
    if f1 <= f2:
        return BufferingSolution(count, x1, e1, f1)
    return BufferingSolution(count, x2, e2, f2)


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
    """Best (count, size) for the weighted delay-power objective."""
    if not 0.0 <= delay_weight <= 1.0:
        raise ValueError("delay_weight must lie in [0, 1]")
    if length <= 0:
        raise ValueError("length must be positive")

    if counts is None:
        if max_repeaters is None:
            # Generous cap: about four repeaters per millimeter.
            max_repeaters = max(2, int(length / 0.25e-3))
        counts = range(1, max_repeaters + 1)

    best: Optional[BufferingSolution] = None
    for count in counts:
        candidate = _best_size_for_count(
            model, length, count, input_slew, delay_weight, max_size,
            bus_width)
        if best is None or candidate.objective < best.objective:
            best = candidate
    assert best is not None
    return best


def minimize_power_under_delay(
    model,
    length: float,
    max_delay: float,
    input_slew: float = DEFAULT_INPUT_SLEW,
    max_size: float = DEFAULT_MAX_SIZE,
    bus_width: int = 1,
    counts: Optional[Sequence[int]] = None,
) -> Optional[BufferingSolution]:
    """Cheapest buffering whose delay meets ``max_delay``."""
    if max_delay <= 0:
        raise ValueError("max_delay must be positive")
    if counts is None:
        counts = _count_candidates(length)

    best: Optional[BufferingSolution] = None
    for count in counts:
        # Fastest configuration at this count: delay-weighted search.
        fastest = _best_size_for_count(
            model, length, count, input_slew, 1.0, max_size, bus_width)
        if fastest.delay > max_delay:
            continue
        # Shrink the size until the delay bound is met, minimizing
        # power: power decreases monotonically with size, so binary
        # search for the smallest size still meeting the bound.
        low, high = 1.0, fastest.repeater_size
        low_est = model.evaluate(length, count, low, input_slew,
                                 bus_width=bus_width)
        if low_est.delay <= max_delay:
            chosen, chosen_est = low, low_est
        else:
            for _ in range(40):
                if high - low < 0.25:
                    break
                mid = 0.5 * (low + high)
                estimate = model.evaluate(length, count, mid, input_slew,
                                          bus_width=bus_width)
                if estimate.delay <= max_delay:
                    high = mid
                else:
                    low = mid
            chosen = high
            chosen_est = model.evaluate(length, count, chosen, input_slew,
                                        bus_width=bus_width)
        candidate = BufferingSolution(
            count, chosen, chosen_est, chosen_est.total_power)
        if best is None or candidate.estimate.total_power < best.power:
            best = candidate
    return best


def max_feasible_length(
    model,
    max_delay: float,
    input_slew: float = DEFAULT_INPUT_SLEW,
    upper_bound: float = 30e-3,
    max_size: float = DEFAULT_MAX_SIZE,
) -> float:
    """Longest line (meters) whose optimally buffered delay meets
    ``max_delay``."""
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
