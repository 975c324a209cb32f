"""Scalar-vs-kernel micro-benchmarks with equivalence asserts.

Each benchmark times one vectorized hot path and first checks the
kernel agrees with the scalar reference (≤ 1e-9 relative — in
practice bit-exact; the buffering search is compared with its scalar
test oracle), so a perf regression hunt can never silently
trade away correctness.  The ``repro bench`` CLI covers the same
ground end-to-end; these isolate the kernel calls for
pytest-benchmark's statistics.
"""

import numpy as np
import pytest

from repro.bench import EQUIVALENCE_RTOL
from repro.units import mm, ps

SAMPLES = 2000


@pytest.fixture(scope="module")
def line90(suite90):
    from repro.signoff.extraction import extract_buffered_line
    model = suite90.proposed
    return extract_buffered_line(model.tech, model.config, mm(10), 20,
                                 40.0)


def test_line_batch_matches_scalar(benchmark, suite90):
    """One batched call over a size sweep == per-size scalar calls."""
    from repro.kernels import evaluate_line_batch
    model = suite90.proposed
    sizes = np.linspace(4.0, 96.0, 512)
    batch = evaluate_line_batch(model, mm(5), 8, sizes, ps(100))
    scalar = np.array([model.evaluate(mm(5), 8, size, ps(100)).delay
                       for size in sizes])
    np.testing.assert_allclose(batch.delay, scalar,
                               rtol=EQUIVALENCE_RTOL)

    benchmark(evaluate_line_batch, model, mm(5), 8, sizes, ps(100))


def test_monte_carlo_kernel_engine(benchmark, suite90, line90,
                                   save_artifact):
    """Kernel MC engine: bit-equal to the scalar model engine."""
    from repro.signoff.variation import monte_carlo_line_delay
    model = suite90.proposed

    def kernel_mc():
        return monte_carlo_line_delay(line90, ps(100), samples=SAMPLES,
                                      seed=2010, workers=1,
                                      engine="kernel", model=model)

    scalar = monte_carlo_line_delay(line90, ps(100), samples=SAMPLES,
                                    seed=2010, workers=1,
                                    engine="model", model=model)
    kernel = kernel_mc()
    np.testing.assert_allclose(np.array(kernel.samples),
                               np.array(scalar.samples),
                               rtol=EQUIVALENCE_RTOL)
    save_artifact("kernel_monte_carlo", kernel.format())

    benchmark(kernel_mc)


def test_batched_power_search(benchmark, suite90):
    """The lockstep min-power search returns the scalar reference
    search's answer."""
    from repro.buffering.optimizer import minimize_power_under_delay
    from tests.buffering import reference_search as reference
    model = suite90.proposed
    max_delay = suite90.tech.clock_period()
    assert minimize_power_under_delay(model, mm(5), max_delay) \
        == reference.minimize_power_under_delay(model, mm(5), max_delay)

    benchmark(minimize_power_under_delay, model, mm(5), max_delay)
