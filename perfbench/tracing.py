"""Run-time spans around the service's public layer entry points.

The tracer wraps methods on their classes (no change to the program):
every call records a span — name, start, end, parent span and the
request id the harness set for the operation in flight (a submission
or chunk index).  Spans stay in memory until :meth:`Tracer.uninstall`;
:meth:`Tracer.dump` writes them out and :meth:`Tracer.summary` folds
them into per-name totals, where a span's *self* time is its duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import threading
import time
from pathlib import Path

import numpy as np


class Tracer:
    """Collects spans from wrapped methods; one per traced run."""

    def __init__(self) -> None:
        self.request_id = -1
        self._names: list[str] = []
        self._codes: dict[str, int] = {}
        #: One ``[name code, parent record, request, start, end]`` list
        #: per span (one atomic append per call, so threads are safe).
        self._spans: list[list] = []
        #: Counters filled by call hooks (bytes, claims, ...).
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._patched: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def wrap(self, cls, method: str, name: str, hook=None) -> None:
        """Time ``cls.method`` as span ``name``.

        ``hook(tracer, args, result)`` runs after the span has ended
        (its cost is outside the span) and may add to :attr:`counters`.
        """
        original = cls.__dict__[method]
        if name not in self._codes:
            self._codes[name] = len(self._names)
            self._names.append(name)
        code = self._codes[name]
        local = self._local
        spans = self._spans
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [
                code, stack[-1] if stack else None, tracer.request_id, 0, 0
            ]
            spans.append(record)
            stack.append(record)
            record[3] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        setattr(cls, method, traced)
        self._patched.append((cls, method, original))

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def uninstall(self) -> None:
        """Restore every wrapped method (idempotent)."""
        while self._patched:
            cls, method, original = self._patched.pop()
            setattr(cls, method, original)

    # ------------------------------------------------------------------
    def columns(self) -> dict[str, np.ndarray]:
        spans = [s for s in self._spans if s[4]]
        position = {id(s): i for i, s in enumerate(spans)}
        return {
            "name": np.asarray([s[0] for s in spans], dtype=np.int32),
            "parent": np.asarray(
                [-1 if s[1] is None else position.get(id(s[1]), -1)
                 for s in spans],
                dtype=np.int64,
            ),
            "request": np.asarray([s[2] for s in spans], dtype=np.int64),
            "start": np.asarray([s[3] for s in spans], dtype=np.int64),
            "end": np.asarray([s[4] for s in spans], dtype=np.int64),
        }

    def dump(self, path: Path, cols=None) -> None:
        """Write every span (names as a side table) to ``path`` (npz)."""
        cols = self.columns() if cols is None else cols
        np.savez_compressed(path, names=np.asarray(self._names), **cols)

    def summary(self, cols=None) -> dict:
        """Per span name: calls, total and self ns, per-call durations
        and self times (ns arrays) and span positions; plus the parent
        column and the run's summed self time under ``"_"`` keys."""
        cols = self.columns() if cols is None else cols
        duration = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        child_ns = np.bincount(
            parent[has_parent],
            weights=duration[has_parent],
            minlength=duration.size,
        )
        self_ns = duration - child_ns
        out = {}
        for code, name in enumerate(self._names):
            mask = cols["name"] == code
            out[name] = {
                "calls": int(mask.sum()),
                "total_ns": float(duration[mask].sum()),
                "self_ns": float(self_ns[mask].sum()),
                "durations": duration[mask],
                "self": self_ns[mask],
                "index": np.flatnonzero(mask),
            }
        out["_parent"] = parent
        out["_duration"] = duration
        out["_self_total_ns"] = float(self_ns.sum())
        return out
