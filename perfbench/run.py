"""End-to-end benchmark of the reproduction: synth, signoff, serve.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload synth --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures and prints the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` wraps each layer's entry points in
spans and prints the per-layer metrics instead.  The last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); a failed output check exits 1.  Each run
also writes a record (environment fingerprint, every number, every
check) under ``.perfbench/runs/`` for ``perfbench/compare.py``.

Every run uses a fresh ``REPRO_CACHE_DIR`` under ``.perfbench/`` with
the disk cache off, and removes it afterwards.  BLAS runs one thread.

The gated times of ``synth`` and ``signoff``, and ``setup_s`` and the
cold-compute cost of ``serve``, are CPU time: the kernel charges a
task only while it runs and does not charge a virtual machine's stolen
time, so they move little with other processes' and other guests'
load, which moves wall time a great deal.  Wall times are printed
beside them (``perfbench/README.md``, "Why CPU time").
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

#: One BLAS/OpenMP thread in this process and every child it starts.
#: Multithreaded OpenBLAS spin-waits on the second core even for the
#: simulator's small solves, so a run would time the scheduler.  Set
#: before NumPy is first imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("synth", "signoff", "serve")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")


def _fail(message: str) -> "None":
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_spec() -> Dict[str, Any]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {path}: {exc}")


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed-0 run's output digest as "
                             "the reference later runs must match")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _prepare(tag: str) -> str:
    """Fresh work directory; points the program's cache at it."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        _fail(f"no program sources under {os.path.join(ROOT, 'src')}")
    work = os.path.join(ROOT, ".perfbench", f"work-{tag}-{os.getpid()}")
    os.makedirs(os.path.join(work, "cache"))
    os.environ["REPRO_CACHE_DIR"] = os.path.join(work, "cache")
    os.environ["REPRO_NO_CACHE"] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return work


def _reference_check(workload: str, seed: int, value: str,
                     fingerprint: Dict[str, Any], record: bool,
                     outcome) -> None:
    """Seed 0 outputs must match the digest recorded for them."""
    if seed != 0:
        return
    try:
        with open(REFERENCE, encoding="utf-8") as handle:
            reference = json.load(handle)
    except FileNotFoundError:
        reference = {"fingerprint": fingerprint, "digests": {}}
    if record:
        reference["fingerprint"] = fingerprint
        reference["digests"][workload] = value
        with open(REFERENCE, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=2, sort_keys=True)
            handle.write("\n")
    expected = reference["digests"].get(workload)
    if reference["fingerprint"] != fingerprint:
        outcome.check("seed-0 outputs match reference", True,
                      "skipped: reference recorded on another environment")
    else:
        outcome.check("seed-0 outputs match reference", value == expected,
                      f"digest {value[:16]} vs reference "
                      f"{(expected or 'none')[:16]}")


def run_workload(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    work = _prepare(args.workload)
    try:
        return _run_workload(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(args, spec, work) -> int:
    import harness

    outcome = harness.Outcome()
    traced = bool(args.trace)
    # (CPU s, wall s) of each set-up; setup_s is the median CPU time.
    setup_times: List[Tuple[float, float]] = []
    env = dict(os.environ)
    if args.workload == "serve":
        import serve_workload
        state = serve_workload.State(
            root=ROOT, env=env, seed=args.seed,
            log_path=os.path.join(work, "server.log"),
            connections=min(2, os.cpu_count() or 1))
        values = serve_workload.run(state, args.seconds, traced, outcome,
                                    setup_times)
    else:
        module_name = f"{args.workload}_workload"
        for _ in range(3):
            setup_times.append(harness.time_setup_in_child(
                module_name, args.seed, ROOT, env))
        module = __import__(module_name)
        state = module.setup(args.seed)
        values = module.run(state, args.seconds, traced, outcome)
        values["peak_rss_mb"] = harness.peak_rss_mb()
    values["setup_s"] = harness.median([cpu for cpu, _ in setup_times])
    outcome.named["setup_s"] = (values["setup_s"], "s")
    outcome.named["setup_wall_s"] = (
        harness.median([wall for _, wall in setup_times]), "s")
    outcome.named["peak_rss_mb"] = (values["peak_rss_mb"], "MB")
    outcome.named["fail_ratio"] = (outcome.failed / max(1, outcome.attempted),
                                   "ratio")

    fingerprint = harness.fingerprint()
    _reference_check(args.workload, args.seed, outcome.digest or "",
                     fingerprint, args.record_reference, outcome)

    kind = "per_layer" if traced else "end_to_end"
    metrics = {}
    for entry in spec[kind]:
        name = harness.check_metric_name(entry["name"])
        value = float(values[name])
        # End-to-end values must also be positive: a zero time or
        # size means the workload did not run.
        if not math.isfinite(value) or (kind == "end_to_end"
                                        and value <= 0):
            raise ValueError(f"metric {name} has no usable value: {value}")
        metrics[name] = {"value": value, "unit": entry["unit"]}

    _print_report(args, outcome, metrics, setup_times, fingerprint)
    _write_record(args, outcome, metrics, setup_times, fingerprint)
    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0 if outcome.correct else 1


def _print_report(args, outcome, metrics, setup_times, fingerprint) -> None:
    print(f"== {args.workload} seed {args.seed} "
          f"({args.seconds:g} s, trace {args.trace})")
    print("environment: " + json.dumps(fingerprint, sort_keys=True))
    print("setup runs (CPU/wall s): " + ", ".join(
        f"{cpu:.4f}/{wall:.4f}" for cpu, wall in setup_times))
    for step in outcome.details.get("steps", ()):
        print(f"  step {step['name']:<8} {step['rate_rps']:7.1f} rps "
              f"sent {step['sent']:5d} ok {step['succeeded']:5d} "
              f"failed {step['failed']:3d}  p50 {step['p50_ms']:7.2f} ms  "
              f"p{step['tail_pct']:g} {step['tail_ms']:8.2f} ms  "
              f"lag p50/max {step['lag_p50_ms']:.2f}/"
              f"{step['lag_max_ms']:.2f} ms  "
              f"{'pass' if step['passed'] else 'FAIL'}"
              f"{' backlog' if step['backlog_grew'] else ''}")
    print("workload metrics:")
    for name, (value, unit) in sorted(outcome.named.items()):
        print(f"  {name:<30} {value:14.6g} {unit}")
    print("checks:")
    for name, (ok, detail) in outcome.checks.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")
    print("reported metrics:")
    for name, entry in metrics.items():
        print(f"  {name:<30} {entry['value']:14.6g} {entry['unit']}")
    wall = metrics.get("traced_wall_s", {}).get("value")
    if wall:
        shares = [(name.rsplit(".", 1)[0], entry["value"] / wall)
                  for name, entry in metrics.items()
                  if name.endswith(".self_s") or name == "serve.busy_s"]
        shares = [item for item in shares if item[1] > 0]
        shares.append(("unattributed", metrics["unattributed_s"]["value"]
                       / wall))
        print("share of traced wall: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in
            sorted(shares, key=lambda item: -item[1])))


def _write_record(args, outcome, metrics, setup_times, fingerprint) -> None:
    runs = os.path.join(ROOT, ".perfbench", "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, f"{args.workload}-seed{args.seed}-"
                        f"trace{args.trace}-{time.time_ns()}")
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fingerprint, "correct": outcome.correct,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": metrics,
        "named": {k: {"value": v, "unit": u}
                  for k, (v, u) in outcome.named.items()},
        "setup_runs_cpu_wall_s": setup_times,
        "checks": {k: {"ok": ok, "detail": d}
                   for k, (ok, d) in outcome.checks.items()},
        "details": outcome.details,
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    if outcome.spans is not None:
        outcome.spans.write(stem + "-spans.jsonl")


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Every workload in turn (fresh processes), then all names."""
    status = 0
    named: Dict[str, Any] = {}
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        status = max(status, completed.returncode)
        record = _latest_record(workload, args)
        if record is not None:
            for name, entry in record["named"].items():
                key = name if "." in name else f"{workload}.{name}"
                named[key] = entry
    print("== all workloads")
    for name, entry in sorted(named.items()):
        print(f"  {name:<32} {entry['value']:14.6g} {entry['unit']}")
    return status


def _latest_record(workload: str, args) -> "Dict[str, Any] | None":
    runs = os.path.join(ROOT, ".perfbench", "runs")
    prefix = f"{workload}-seed{args.seed}-trace{args.trace}-"
    try:
        names = sorted(n for n in os.listdir(runs)
                       if n.startswith(prefix) and n.endswith(".json"))
    except FileNotFoundError:
        return None
    if not names:
        return None
    with open(os.path.join(runs, names[-1]), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: List[str]) -> int:
    args = _parse(argv)
    spec = _load_spec()
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
