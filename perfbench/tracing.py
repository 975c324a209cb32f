"""In-memory layer spans for the traced run.

The traced run wraps each layer's public entry points in the
benchmark's own code: :meth:`Recorder.patch` replaces a function on
the object the *caller* resolves it from (a module global, or a class
attribute for methods), so the program itself is not edited.  Spans
are kept in a list and written out once, after measuring.

A layer's self time is its spans' durations minus the time their
child spans cover.  The root span of a traced pass holds the time no
layer claimed, so the per-layer self times plus ``unattributed_s``
add up to the traced wall time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Name of the root layer whose self time is "unattributed".
ROOT = "unattributed"

#: Called after a wrapped call returns: (recorder, span id, args,
#: kwargs, result).
OnExit = Callable[["Recorder", int, tuple, dict, Any], None]


class Recorder:
    """Nested spans (layer, start, end, parent) plus named counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: [span id, parent id or -1, layer, start, end]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._children: Dict[Tuple[int, str], int] = defaultdict(int)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------

    def _open(self, layer: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0:
            self._children[(parent, layer)] += 1
        self.spans.append([span_id, parent, layer, self.clock(), None])
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int) -> None:
        self.spans[span_id][4] = self.clock()
        popped = self._stack.pop()
        if popped != span_id:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def span(self, layer: str) -> Iterator[int]:
        span_id = self._open(layer)
        try:
            yield span_id
        finally:
            self._close(span_id)

    def child_count(self, span_id: int, layer: str) -> int:
        """How many direct children of ``layer`` a span opened."""
        return self._children.get((span_id, layer), 0)

    # -- wrapping ---------------------------------------------------

    def wrap(self, layer: str, function: Callable,
             on_exit: Optional[OnExit] = None) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span_id = self._open(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(span_id)
            if on_exit is not None:
                on_exit(self, span_id, args, kwargs, result)
            return result
        return wrapper

    def patch(self, owner: Any, name: str, layer: str,
              on_exit: Optional[OnExit] = None) -> None:
        """Wrap ``owner.name`` until :meth:`unpatch`."""
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, self.wrap(layer, original, on_exit))

    def unpatch(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def patched(self, plan: List[tuple]) -> Iterator["Recorder"]:
        """Apply ``(owner, name, layer[, on_exit])`` patches for a block."""
        try:
            for entry in plan:
                self.patch(*entry)
            yield self
        finally:
            self.unpatch()

    # -- results ----------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer (``ROOT`` included)."""
        covered: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if end is None:
                raise RuntimeError("a span was never closed")
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for span_id, _, layer, start, end in self.spans:
            totals[layer] += (end - start) - covered[span_id]
        return dict(totals)

    def root_wall(self) -> float:
        """Summed duration of the top-level spans, seconds."""
        return sum(end - start for _, parent, _, start, end
                   in self.spans if parent < 0)

    def write(self, path: str) -> None:
        """All spans as JSON lines (written after measuring)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, layer, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer,
                    "start": start, "end": end}) + "\n")


def check_additivity(self_times: Dict[str, float], wall: float,
                     tolerance: float = 1e-6) -> None:
    """Per-layer self times (root included) must sum to ``wall``."""
    total = sum(self_times.values())
    if abs(total - wall) > tolerance * max(1.0, wall):
        raise RuntimeError(
            f"layer self times sum to {total:.6f} s but the traced "
            f"wall is {wall:.6f} s")
