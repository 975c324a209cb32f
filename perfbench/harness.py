"""Shared helpers: statistics, CPU clocks, environment fingerprint,
set-up timing.

Nothing here imports the program under test, so the helpers can be
tested (and the checkout validated) before ``src/`` is on the path.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: What every metric name must look like.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: The highest percentile a tail metric reports.
TAIL_CAP_PERCENT = 99

#: Samples a reported percentile must leave beyond it.
TAIL_BEYOND = 10


@dataclass
class Outcome:
    """What one workload run did, checked and measured.

    ``named`` holds the workload's own end-to-end numbers under their
    descriptive names (``synth.flow_s`` ...) with units; the gated
    values are returned separately under the names in
    ``BENCHMARK.json``.
    """

    attempted: int = 0
    failed: int = 0
    checks: Dict[str, Tuple[bool, str]] = field(default_factory=dict)
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)
    digest: Optional[str] = None
    spans: Any = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record a check; a failure under a name is never cleared."""
        previous = self.checks.get(name)
        if previous is not None and not previous[0]:
            return
        self.checks[name] = (bool(ok), detail)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(
            ok for ok, _ in self.checks.values())


def check_metric_name(name: str) -> str:
    """``name`` itself, or ``ValueError`` if it is not a legal name."""
    if not METRIC_NAME.fullmatch(name) or len(name) > 64:
        raise ValueError(f"illegal metric name {name!r}")
    return name


def tail_rank(count: int, cap: int = TAIL_CAP_PERCENT,
              beyond: int = TAIL_BEYOND) -> Optional[int]:
    """1-based nearest rank of the highest percentile (at most ``cap``)
    that leaves at least ``beyond`` samples above it, or ``None`` when
    that percentile would fall below the median.

    Integer arithmetic throughout, so 1000 samples give exactly rank
    990 (p99, ten samples beyond) with no float rounding.
    """
    if count <= 0:
        return None
    capped = -(-cap * count // 100)  # ceil(cap% of count)
    rank = min(count - beyond, capped)
    if rank < -(-count // 2):
        return None
    return rank


def tail(values: Iterable[float], cap: int = TAIL_CAP_PERCENT
         ) -> Optional[Tuple[float, float, int]]:
    """(percentile, value, sample count) of the tail, or ``None``."""
    ordered = sorted(values)
    rank = tail_rank(len(ordered), cap)
    if rank is None:
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1], len(ordered)


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample (a failure, ``inf``, counts)."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """This process's peak resident set size, megabytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, megabytes."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Direct children of a live process (Linux ``/proc``)."""
    children: List[int] = []
    task_dir = f"/proc/{pid}/task"
    for task in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{task}/children",
                      encoding="ascii") as handle:
                children.extend(int(p) for p in handle.read().split())
        except FileNotFoundError:
            continue
    return sorted(set(children))


def process_cpu_s(pid: int) -> float:
    """CPU seconds used so far by a live process (Linux CPU clock)."""
    # make_process_cpuclock(pid, CPUCLOCK_SCHED) in the kernel.
    return time.clock_gettime(((~pid) << 3) | 2)


def group_cpu_s(pgid: int) -> float:
    """CPU seconds used so far by the live processes of a group."""
    total = 0.0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                # Fields after the parenthesised command: state ppid pgrp.
                fields = handle.read().rsplit(")", 1)[1].split()
            if int(fields[2]) == pgid:
                total += process_cpu_s(int(entry))
        except (FileNotFoundError, ProcessLookupError, IndexError,
                OSError):
            continue
    return total


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    import numpy
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def fingerprint() -> Dict[str, Any]:
    """The environment a run's numbers depend on.

    Deliberately coarse: CPU model and count, Python, NumPy and BLAS.
    Kernel patch levels and host names are left out, so routine
    system updates do not make runs incomparable.
    """
    import numpy
    return {
        "cpu": _cpu_model(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
    }


def digest(payload: Any) -> str:
    """SHA-256 of a JSON rendering (floats as shortest round-trip)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def time_setup_in_child(module: str, seed: int, root: str,
                        env: Dict[str, str], timeout: float = 120.0
                        ) -> Tuple[float, float]:
    """(CPU seconds, wall seconds) a fresh interpreter spends in
    ``module.setup(seed)``.

    Both clocks start before any import of the program.  A fresh
    process is the only way to time the imports again inside one run.
    """
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    program = (
        "import time\nt0 = time.perf_counter()\nc0 = time.process_time()\n"
        "import sys\n"
        f"sys.path[:0] = [{os.path.join(root, 'src')!r}, {bench_dir!r}]\n"
        f"import {module}\n{module}.setup({seed!r})\n"
        "print(time.process_time() - c0, time.perf_counter() - t0)\n")
    completed = subprocess.run(
        [sys.executable, "-c", program], cwd=root, env=env,
        capture_output=True, text=True, timeout=timeout, check=False)
    if completed.returncode != 0:
        raise RuntimeError("set-up child failed:\n" + completed.stderr)
    cpu, wall = completed.stdout.strip().splitlines()[-1].split()
    return float(cpu), float(wall)
