"""The lockstep buffering search against the scalar reference search.

:mod:`repro.kernels.search` is the only implementation of the
Section III-D search.  Every :class:`BufferingSolution` it returns —
for the proposed model (batched line kernel), the staggered proposed
model, and the models it evaluates lane by lane (Bakoglu, Pamunuwa,
the slew-aware sign-off model) — must equal (``==``) what the scalar
one-count-at-a-time search in ``tests/buffering/reference_search.py``
returns, fractional delay weights included.
"""

import pytest

from repro.buffering.optimizer import (
    max_feasible_length,
    minimize_power_under_delay,
    optimize_buffering,
)
from repro.experiments.suite import ModelSuite
from repro.models.extensions import SlewAwareInterconnectModel
from repro.runtime.metrics import METRICS
from repro.units import mm, ps
from tests.buffering import reference_search as reference

NODES = ("90nm", "65nm", "45nm")
MODELS = ("proposed", "staggered", "bakoglu", "pamunuwa", "slew_aware")
#: Line lengths per node; the longest (most repeater-count lanes, the
#: slowest reference) only at 65 nm, the node Table III synthesizes at.
LENGTHS_MM = {"90nm": (0.3, 2.5, 6.0), "65nm": (0.3, 2.5, 12.0),
              "45nm": (0.3, 2.5, 6.0)}
WEIGHTS = (0.0, 0.25, 0.5, 1.0)
BUS_WIDTHS = (1, 32)


@pytest.fixture(scope="module")
def model(suite90):
    return suite90.proposed


def _slew_aware(suite):
    return SlewAwareInterconnectModel(
        suite.tech, suite.proposed.calibration, suite.proposed.config)


def _model(suite, name):
    if name == "staggered":
        return suite.proposed.staggered()
    if name == "slew_aware":
        return _slew_aware(suite)
    return getattr(suite, name)


@pytest.fixture(scope="module", params=NODES)
def suite(request):
    return ModelSuite.for_node(request.param)


@pytest.fixture(params=MODELS)
def any_model(request, suite):
    return _model(suite, request.param)


class TestOptimizeBuffering:
    @pytest.mark.parametrize("weight", [1.0, 0.0])
    def test_pure_objectives_bit_equal(self, model, weight):
        assert optimize_buffering(model, mm(5), delay_weight=weight) \
            == reference.optimize_buffering(model, mm(5),
                                            delay_weight=weight)

    def test_weighted_objective_bit_equal(self, model):
        """The winner's objective is recomputed in floats from its
        estimate, so even ``pow`` of the weighted product matches."""
        assert optimize_buffering(model, mm(5), delay_weight=0.5) \
            == reference.optimize_buffering(model, mm(5),
                                            delay_weight=0.5)

    def test_every_model_matches_reference(self, any_model, suite):
        for length_mm in LENGTHS_MM[suite.tech.name]:
            for weight in WEIGHTS:
                got = optimize_buffering(any_model, mm(length_mm),
                                         delay_weight=weight)
                want = reference.optimize_buffering(
                    any_model, mm(length_mm), delay_weight=weight)
                assert got == want, (length_mm, weight)


class TestMinimizePowerUnderDelay:
    @pytest.mark.parametrize("max_delay_ps", [300.0, 500.0, 1000.0])
    def test_feasible_bounds_bit_equal(self, model, max_delay_ps):
        want = reference.minimize_power_under_delay(
            model, mm(5), ps(max_delay_ps))
        assert want is not None
        assert minimize_power_under_delay(model, mm(5),
                                          ps(max_delay_ps)) == want

    def test_infeasible_bound_is_none_for_both(self, model):
        assert reference.minimize_power_under_delay(
            model, mm(5), ps(150)) is None
        assert minimize_power_under_delay(model, mm(5), ps(150)) is None

    def test_every_model_matches_reference(self, any_model, suite):
        max_delay = suite.tech.clock_period()
        for length_mm in LENGTHS_MM[suite.tech.name]:
            for bus_width in BUS_WIDTHS:
                got = minimize_power_under_delay(
                    any_model, mm(length_mm), max_delay,
                    bus_width=bus_width)
                want = reference.minimize_power_under_delay(
                    any_model, mm(length_mm), max_delay,
                    bus_width=bus_width)
                assert got == want, (length_mm, bus_width)


class TestMaxFeasibleLength:
    def test_kernel_and_scalar_agree(self, model, suite90):
        max_delay = suite90.tech.clock_period()
        assert max_feasible_length(model, max_delay) \
            == reference.max_feasible_length(model, max_delay)

    @pytest.mark.parametrize("name", MODELS)
    def test_every_model_matches_reference_65nm(self, name):
        """Each feasibility probe is a full search, so one node."""
        suite = ModelSuite.for_node("65nm")
        candidate = _model(suite, name)
        max_delay = suite.tech.clock_period()
        assert max_feasible_length(candidate, max_delay) \
            == reference.max_feasible_length(candidate, max_delay)


class TestDispatchValidation:
    def test_unsupported_model_auto_falls_back(self, suite90,
                                               monkeypatch):
        """A model the line kernel cannot serve runs the same search,
        each lane through the model's own ``evaluate`` — no batched
        kernel calls, no option to pick it."""
        slew_aware = _slew_aware(suite90)
        calls = []
        evaluate = SlewAwareInterconnectModel.evaluate

        def counting_evaluate(self, length, num_repeaters, *args,
                              **kwargs):
            calls.append(num_repeaters)
            return evaluate(self, length, num_repeaters, *args, **kwargs)

        monkeypatch.setattr(SlewAwareInterconnectModel, "evaluate",
                            counting_evaluate)
        batches = METRICS.counters.get("kernels.batches", 0)
        solution = optimize_buffering(slew_aware, mm(5),
                                      counts=[2, 4, 8])
        assert METRICS.counters.get("kernels.batches", 0) == batches
        monkeypatch.undo()
        # Two initial probes per lane, then one per lane and iteration
        # (plus the winner's rebuild), with every count probed.
        assert set(calls) == {2, 4, 8}
        assert len(calls) % 3 == 1
        assert solution == reference.optimize_buffering(
            slew_aware, mm(5), counts=[2, 4, 8])
