"""The scalar↔batch parity registry (`kernel-parity` lint rule).

Every batched model kernel in :mod:`repro.kernels` mirrors a scalar
model path operation-for-operation — that is what makes the ≤1e-9
equivalence contract hold and lets the runtime swap engines freely.
This registry declares each pairing in machine-readable form so the
whole-program lint pass (:mod:`repro.analysis.checkers.kernel_parity`)
can compare both sides' arithmetic-operation multisets and numeric
constants on every run and flag drift *before* the statistical suites
notice it.

Each :class:`ParityPair` lists one or more functions per side (a
kernel often inlines what the scalar path splits across helpers — the
multisets of a side are merged before comparison), identified by
module-qualified name.  ``compare`` selects the contract:

``"exact"``
    Operation multisets *and* numeric-constant multisets must match.
``"ops"``
    Operation multisets only — used where the kernel deliberately
    hoists constant-bearing work to its caller (e.g. the Monte-Carlo
    factor draws), with the hoist justified in ``rationale``.

Functions in :data:`EXEMPT` are public kernel-module functions that
are predicates or sole implementations rather than batch mirrors; the
checker requires every *other* public kernel function to appear in a
pair, so adding a kernel without registering it is itself a finding.
The buffering search in :mod:`repro.kernels.search` is one of them:
it is the only implementation of the Section III-D search, with no
scalar twin to mirror.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple


@dataclass(frozen=True)
class ParityPair:
    """One scalar↔batch pairing, by module-qualified function names."""

    name: str
    kernel: Tuple[str, ...]
    scalar: Tuple[str, ...]
    compare: str = "exact"      # "exact" | "ops"
    rationale: str = ""


PARITY_PAIRS: Tuple[ParityPair, ...] = (
    # -- repeater stage model (Section III-A) --------------------------
    ParityPair(
        name="inverter-widths",
        kernel=("repro.kernels.repeater.inverter_widths",),
        scalar=("repro.tech.parameters.TechnologyParameters"
                ".inverter_widths",),
    ),
    ParityPair(
        name="transition-widths",
        kernel=("repro.kernels.repeater.transition_widths",),
        scalar=("repro.models.repeater.RepeaterModel.transition_width",),
    ),
    ParityPair(
        name="input-capacitance",
        kernel=("repro.kernels.repeater.input_capacitance",),
        scalar=("repro.models.repeater.RepeaterModel"
                ".input_capacitance",),
    ),
    ParityPair(
        name="intrinsic-delay",
        kernel=("repro.kernels.repeater.intrinsic_delay",),
        scalar=("repro.models.calibration.DirectionCoefficients"
                ".intrinsic_delay",),
    ),
    ParityPair(
        name="drive-resistance",
        kernel=("repro.kernels.repeater.drive_resistance",),
        scalar=("repro.models.calibration.DirectionCoefficients"
                ".drive_resistance",),
    ),
    ParityPair(
        name="output-slew",
        kernel=("repro.kernels.repeater.output_slew",),
        scalar=("repro.models.calibration.DirectionCoefficients"
                ".output_slew",),
    ),
    ParityPair(
        name="repeater-delay",
        kernel=("repro.kernels.repeater.delay",),
        scalar=("repro.models.calibration.DirectionCoefficients"
                ".delay",),
    ),
    # -- wire model (Section III-B) ------------------------------------
    ParityPair(
        name="wire-delay",
        kernel=("repro.kernels.wire.wire_delay",),
        # The scalar path splits the distributed-RC delay into its
        # component terms plus a summing property.
        scalar=("repro.models.wire.wire_delay_components",
                "repro.models.wire.WireDelayComponents.total"),
    ),
    ParityPair(
        name="effective-load-capacitance",
        kernel=("repro.kernels.wire.effective_load_capacitance",),
        scalar=("repro.models.wire.effective_load_capacitance",),
    ),
    ParityPair(
        name="switched-wire-capacitance",
        kernel=("repro.kernels.wire.switched_wire_capacitance",),
        scalar=("repro.models.wire.switched_wire_capacitance",),
    ),
    # -- composed line evaluation --------------------------------------
    ParityPair(
        name="line-evaluate",
        kernel=("repro.kernels.line.evaluate_line_batch",),
        # The kernel inlines the power/area arithmetic the scalar
        # path spreads over its helpers; wire_area is *called* by
        # both sides, so it appears on neither.
        scalar=("repro.models.interconnect.BufferedInterconnectModel"
                ".evaluate",
                "repro.models.interconnect.BufferedInterconnectModel"
                ".stage_delay",
                "repro.models.power.dynamic_power",
                "repro.models.power.leakage_power_from_coefficients",
                "repro.models.area.regression_repeater_area"),
    ),
    # -- process variation (Section IV) --------------------------------
    ParityPair(
        name="effective-widths",
        kernel=("repro.kernels.variation.effective_widths",),
        scalar=("repro.signoff.variation._effective_width",),
    ),
    ParityPair(
        name="clip-factors",
        kernel=("repro.kernels.variation.clip_factor_matrix",),
        scalar=("repro.signoff.variation._clip_drive",
                "repro.signoff.variation._clip_vth"),
    ),
    ParityPair(
        name="line-delay-mc",
        kernel=("repro.kernels.variation.line_delay_batch",),
        scalar=("repro.signoff.variation._model_sample_line_delay",),
        compare="ops",
        rationale=(
            "the scalar sampler draws its four per-stage factors "
            "(rng.normal(1.0, sigma)) inline while the kernel takes "
            "a precomputed factor matrix, so the draw constants live "
            "in the caller on the batched side"),
    ),
    # -- characterization LUT tier -------------------------------------
    ParityPair(
        name="lut-trilinear",
        kernel=("repro.kernels.lut.interpolate_trilinear",
                "repro.kernels.lut._bracket",
                "repro.kernels.lut._lerp"),
        scalar=("repro.luts.interp.trilinear",
                "repro.luts.interp.bracket",
                "repro.luts.interp._lerp"),
        compare="ops",
        rationale=(
            "same bracketing and lerp arithmetic, but the scalar "
            "bracket spells its clamps as min/max over bisect_right "
            "while the batched one uses searchsorted + numpy.clip, "
            "so the clamp constants sit in different positions"),
    ),
    ParityPair(
        name="lut-first-order",
        kernel=("repro.kernels.lut.line_delay_first_order",),
        scalar=("repro.luts.model.first_order_line_delay",),
        compare="ops",
        rationale=(
            "the scalar mirror accumulates per-stage terms with "
            "math.fsum over a generator while the kernel reduces "
            "with ndarray.sum; neither reduction appears in the op "
            "multiset, but the loop bookkeeping constants differ"),
    ),
    ParityPair(
        name="lut-line-evaluate",
        kernel=("repro.kernels.lut.evaluate_line_lut",),
        # The LUT lane interpolates timing (log lookup + exp) and
        # inlines the exact power/area closed forms the scalar model
        # spreads across its helpers, exactly as line-evaluate does.
        scalar=("repro.luts.model.LUTInterconnectModel"
                "._lookup_estimate",
                "repro.models.power.dynamic_power",
                "repro.models.power.leakage_power_from_coefficients",
                "repro.models.area.regression_repeater_area"),
        compare="ops",
        rationale=(
            "the batched lane carries the per-lane fallback and "
            "serving-mask orchestration (broadcasts, mask counts) "
            "that the scalar path expresses as control flow in "
            "LUTInterconnectModel.evaluate, so constants differ "
            "while the served arithmetic matches op-for-op"),
    ),
)

#: Public kernel-module functions that are not batch mirrors: pure
#: predicates and the buffering search, which has no scalar twin.
EXEMPT: FrozenSet[str] = frozenset({
    # type predicate, no arithmetic to mirror
    "repro.kernels.line.supports_model",
    # type predicate, no arithmetic to mirror
    "repro.kernels.lut.serves_model",
    # sole implementation, no scalar twin: the Section III-D search
    # exists only as the lockstep lane search
    "repro.kernels.search.optimize_buffering_batch",
    # sole implementation, no scalar twin (see above)
    "repro.kernels.search.minimize_power_under_delay_batch",
})
