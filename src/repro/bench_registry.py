"""Benchmark registry: env-keyed history + noise-aware regression diff.

``repro bench`` and ``repro bench yield`` historically wrote one-shot
``BENCH_*.json`` snapshots — a perf *point*, not a trajectory.  The
registry turns every bench run into an appended record in
``benchmarks/results/history.jsonl`` (one JSON object per line, append
only), and ``repro bench diff`` compares the latest record against a
reference with a noise-aware threshold, giving CI an actual perf gate.

Each record carries:

* ``suite`` — ``"kernels"``, ``"yield"``, ``"lut"``, ``"serve"`` or
  ``"lint"``;
* ``env`` / ``env_key`` — the shared environment block from
  :func:`repro.runtime.manifest.run_environment` and its fingerprint,
  so records from different machines/toolchains never get compared as
  if they were the same population;
* ``config`` / ``config_hash`` — the bench's full parameter set and
  the same :func:`repro.runtime.cache.fingerprint` hash manifests use,
  which is what links a history record to the ``manifest.json`` of the
  run that produced it;
* ``samples`` — named ``(value, se, n)`` measurements (seconds, lower
  is better).  The standard errors come from the per-rep timing
  histograms (:class:`repro.runtime.metrics.Histogram`), so the diff
  can ask "is this slowdown outside the noise?" instead of comparing
  bare means.

The regression rule: a sample regresses when its ratio to the
reference exceeds ``1 + rel_threshold`` *and* the absolute slowdown
exceeds ``noise_z`` combined standard errors.  With no recorded SEs
(single-rep benches) the noise gate degrades to the plain relative
threshold.  Samples whose workload size ``n`` differs from the
reference are skipped, not compared — a ``--quick`` run is a different
workload, not a regression.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Dict, List, Mapping, Optional, Sequence,
                    Union)

#: Bump when the history-record layout changes incompatibly.
REGISTRY_SCHEMA = 1

#: Where bench runs append their records (relative to the repo root /
#: current working directory).
DEFAULT_HISTORY = Path("benchmarks") / "results" / "history.jsonl"

#: Default regression gate: >20% slower than the reference.
DEFAULT_REL_THRESHOLD = 0.20

#: How many combined standard errors a slowdown must clear before it
#: counts as signal rather than timing noise.
DEFAULT_NOISE_Z = 3.0


@dataclass(frozen=True)
class BenchSample:
    """One named timing measurement (seconds, lower is better)."""

    name: str
    value: float
    se: float = 0.0
    n: int = 0

    def to_payload(self) -> Dict[str, Any]:
        return {"name": self.name, "value": self.value,
                "se": self.se, "n": self.n}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "BenchSample":
        return cls(name=str(payload["name"]),
                   value=float(payload["value"]),
                   se=float(payload.get("se", 0.0)),
                   n=int(payload.get("n", 0)))


def build_record(suite: str, *, node: str, quick: bool,
                 config: Mapping[str, Any],
                 samples: Sequence[BenchSample],
                 generated_at: Optional[str] = None) -> Dict[str, Any]:
    """Assemble one history record for a finished bench run."""
    from repro.runtime.cache import fingerprint
    from repro.runtime.manifest import run_environment, utc_timestamp

    env = run_environment()
    config = dict(config)
    return {
        "schema": REGISTRY_SCHEMA,
        "suite": suite,
        "generated_at": generated_at or utc_timestamp(),
        "node": node,
        "quick": quick,
        "env": env,
        "env_key": fingerprint(env),
        "config": config,
        "config_hash": fingerprint(config),
        "samples": [sample.to_payload() for sample in samples],
    }


def append_record(record: Mapping[str, Any],
                  history: Optional[Union[str, Path]] = None) -> Path:
    """Append ``record`` as one JSONL line; returns the history path."""
    path = Path(history) if history is not None else DEFAULT_HISTORY
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True,
                  separators=(",", ":"))
        handle.write("\n")
    return path


def load_history(history: Optional[Union[str, Path]] = None
                 ) -> List[Dict[str, Any]]:
    """Every record in the history file, oldest first.

    A missing file is an empty history; an unparseable line names its
    line number — an append-only log should never be half-garbage
    silently.
    """
    path = Path(history) if history is not None else DEFAULT_HISTORY
    if not path.exists():
        return []
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{number}: not valid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{number}: not a history record")
            records.append(record)
    return records


def latest_record(records: Sequence[Mapping[str, Any]], suite: str
                  ) -> Optional[Dict[str, Any]]:
    """The newest record of ``suite`` (appended last), if any."""
    for record in reversed(records):
        if record.get("suite") == suite:
            return dict(record)
    return None


def previous_record(records: Sequence[Mapping[str, Any]], suite: str
                    ) -> Optional[Dict[str, Any]]:
    """The newest same-suite, same-environment record *before* the
    latest one — what ``repro bench diff --against previous`` compares
    to.  Records from a different ``env_key`` are never offered as a
    comparison base."""
    latest = latest_record(records, suite)
    if latest is None:
        return None
    seen_latest = False
    for record in reversed(records):
        if record.get("suite") != suite:
            continue
        if not seen_latest:
            seen_latest = True
            continue
        if record.get("env_key") == latest.get("env_key"):
            return dict(record)
    return None


def record_samples(record: Mapping[str, Any]) -> List[BenchSample]:
    """The samples of one history record."""
    return [BenchSample.from_payload(entry)
            for entry in record.get("samples", [])]


def baseline_samples(report: Mapping[str, Any]) -> List[BenchSample]:
    """Samples extracted from a committed ``BENCH_*.json`` report.

    Handles every suite schema: kernels/LUT entries (``op`` + per-path
    ``wall_s``/``wall_se``) become ``<op>.scalar`` / ``<op>.kernel``
    samples; yield entries (``estimator`` + ``wall_s``) become
    ``<estimator>.wall`` samples; a serve report's ``load`` block
    (``latency_p50_s``/``latency_p99_s`` over ``expected_requests``)
    becomes ``latency_p50`` / ``latency_p99``, the names the serve
    bench records.  Reports written before the registry existed lack
    ``wall_se`` — their SEs read as zero.
    """
    samples: List[BenchSample] = []
    load = report.get("load", {})
    for name in ("latency_p50", "latency_p99"):
        if f"{name}_s" in load:
            samples.append(BenchSample(
                name=name, value=float(load[f"{name}_s"]),
                n=int(load.get("expected_requests", 0))))
    for entry in report.get("results", []):
        if "op" in entry:
            wall = entry.get("wall_s", {})
            se = entry.get("wall_se", {})
            for variant in ("scalar", "kernel"):
                if variant in wall:
                    samples.append(BenchSample(
                        name=f"{entry['op']}.{variant}",
                        value=float(wall[variant]),
                        se=float(se.get(variant, 0.0)),
                        n=int(entry.get("n", 0))))
        elif "estimator" in entry:
            samples.append(BenchSample(
                name=f"{entry['estimator']}.wall",
                value=float(entry.get("wall_s", 0.0)),
                se=0.0,
                n=int(entry.get("draws", 0))))
    return samples


@dataclass(frozen=True)
class DiffEntry:
    """One sample's comparison against the reference."""

    name: str
    current: float
    reference: float
    verdict: str        # "ok" | "regression" | "improved" | "skipped"
    detail: str = ""

    @property
    def ratio(self) -> float:
        if self.reference <= 0.0:
            return float("inf")
        return self.current / self.reference

    def format(self) -> str:
        if self.verdict == "skipped":
            return f"{self.name:<24} skipped ({self.detail})"
        return (f"{self.name:<24} {self.reference:9.4f} s -> "
                f"{self.current:9.4f} s  {self.ratio:6.2f}x "
                f"[{self.verdict}]"
                + (f" ({self.detail})" if self.detail else ""))


@dataclass
class DiffReport:
    """The full ``repro bench diff`` result for one suite."""

    suite: str
    entries: List[DiffEntry]
    reference_label: str = ""

    @property
    def regressions(self) -> List[DiffEntry]:
        return [entry for entry in self.entries
                if entry.verdict == "regression"]

    @property
    def compared(self) -> int:
        return sum(1 for entry in self.entries
                   if entry.verdict != "skipped")

    def format(self) -> str:
        lines = [f"-- bench diff: {self.suite} "
                 f"(vs {self.reference_label or 'reference'}) --"]
        lines.extend(entry.format() for entry in self.entries)
        if not self.entries:
            lines.append("no comparable samples")
        lines.append(f"{self.compared} compared, "
                     f"{len(self.regressions)} regression(s)")
        return "\n".join(lines)


def diff_samples(current: Sequence[BenchSample],
                 reference: Sequence[BenchSample], *,
                 rel_threshold: float = DEFAULT_REL_THRESHOLD,
                 noise_z: float = DEFAULT_NOISE_Z) -> List[DiffEntry]:
    """Compare samples pairwise by name with the noise-aware rule."""
    reference_by_name = {sample.name: sample for sample in reference}
    entries: List[DiffEntry] = []
    for sample in current:
        base = reference_by_name.get(sample.name)
        if base is None:
            entries.append(DiffEntry(sample.name, sample.value, 0.0,
                                     "skipped", "not in reference"))
            continue
        if base.n and sample.n and base.n != sample.n:
            entries.append(DiffEntry(
                sample.name, sample.value, base.value, "skipped",
                f"workload size differs (n={sample.n} vs {base.n})"))
            continue
        if base.value <= 0.0:
            entries.append(DiffEntry(sample.name, sample.value,
                                     base.value, "skipped",
                                     "non-positive reference"))
            continue
        ratio = sample.value / base.value
        noise = noise_z * math.sqrt(sample.se ** 2 + base.se ** 2)
        if ratio > 1.0 + rel_threshold \
                and (sample.value - base.value) > noise:
            entries.append(DiffEntry(sample.name, sample.value,
                                     base.value, "regression",
                                     f"> +{rel_threshold * 100:.0f}% "
                                     f"and > {noise_z:g} SE"))
        elif ratio < 1.0 - rel_threshold:
            entries.append(DiffEntry(sample.name, sample.value,
                                     base.value, "improved"))
        else:
            entries.append(DiffEntry(sample.name, sample.value,
                                     base.value, "ok"))
    return entries


def diff_latest(suite: str, *,
                history: Optional[Union[str, Path]] = None,
                baseline: Optional[Union[str, Path]] = None,
                against: str = "baseline",
                rel_threshold: float = DEFAULT_REL_THRESHOLD,
                noise_z: float = DEFAULT_NOISE_Z
                ) -> Optional[DiffReport]:
    """Diff the latest history record of ``suite`` against a reference.

    ``against="baseline"`` reads the committed ``BENCH_*.json``
    (``baseline`` overrides the per-suite default path);
    ``against="previous"`` uses the preceding same-environment history
    record.  Returns ``None`` when either side is missing — the CLI
    reports *which* side and exits with a usage error.
    """
    records = load_history(history)
    latest = latest_record(records, suite)
    if latest is None:
        return None
    if against == "previous":
        reference = previous_record(records, suite)
        if reference is None:
            return None
        reference_samples = record_samples(reference)
        label = f"previous record ({reference.get('generated_at')})"
    else:
        default = Path(f"BENCH_{suite}.json")
        path = Path(baseline) if baseline is not None else default
        if not path.exists():
            return None
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        reference_samples = baseline_samples(report)
        label = str(path)
    entries = diff_samples(record_samples(latest), reference_samples,
                           rel_threshold=rel_threshold,
                           noise_z=noise_z)
    return DiffReport(suite=suite, entries=entries,
                      reference_label=label)
