"""Span ledger: times calls into the program's layers from the outside.

The program's own ``Tracer`` stays ``NULL_TRACER``.  Instead, a
:class:`Ledger` replaces chosen public methods and functions with thin
wrappers while it is installed, and restores the originals when it is
removed.  Each wrapper records one span: name, start, end, parent span
and trace id (the transaction id, inherited from the client span that
encloses the call).  A span's self time is its duration minus the time
its child spans cover.

Spans are aggregated as they close (count, inclusive and self time,
bytes, per span name); the first ``KEEP_SPANS`` of them are kept in
memory and written out once the run ends.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from pathlib import Path
from typing import Callable, Optional

#: Marks an attribute that the patched object did not hold itself (it
#: came from its class or a base class): restoring deletes the wrapper.
_INHERITED = object()
#: Spans kept in memory for the span file; later ones are only folded.
KEEP_SPANS = 50_000
#: Span-name prefix whose every duration is kept, for percentiles.
TIMED_PREFIX = "client."


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


class Ledger:
    """Installs span-recording wrappers and folds the spans they record."""

    def __init__(self) -> None:
        self.kept: list[tuple] = []
        self._targets: list[tuple] = []
        self._patches: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: One (aggregates, durations) pair per thread that recorded spans.
        self._per_thread: list[tuple[dict, dict]] = []

    # -- choosing what to wrap ---------------------------------------------

    def add(
        self,
        owner: object,
        attr: str,
        name: str,
        size_of: Optional[Callable[[tuple, object], int]] = None,
    ) -> None:
        """Wrap ``owner.attr`` (on a class, an instance or a module) as span
        ``name`` whenever the ledger is installed.  ``size_of(args,
        result)`` adds a byte count to the span."""
        self._targets.append((owner, attr, name, size_of))

    def install(self) -> None:
        for owner, attr, name, size_of in self._targets:
            own = vars(owner).get(attr, _INHERITED)
            original = getattr(owner, attr)
            if isinstance(owner, type) and own is not _INHERITED:
                original = own  # the plain function, so the wrapper binds
            setattr(owner, attr, self._wrap(name, original, size_of))
            self._patches.append((owner, attr, own))

    def remove(self) -> None:
        for owner, attr, own in reversed(self._patches):
            if own is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patches.clear()

    # -- recording ------------------------------------------------------------

    def _state(self) -> tuple[list, dict, dict]:
        local = self._local
        try:
            return local.state
        except AttributeError:
            local.state = ([], {}, {})
            with self._lock:
                self._per_thread.append(local.state[1:])
            return local.state

    def _wrap(self, name: str, fn: Callable, size_of: Optional[Callable]) -> Callable:
        clock = time.perf_counter_ns
        ids, kept, state = self._ids, self.kept, self._state
        timed = name.startswith(TIMED_PREFIX)

        def wrapper(*args, **kwargs):
            stack, agg, durations = state()
            parent = stack[-1] if stack else None
            if parent is not None:
                trace = parent[3]
            else:
                trace = getattr(args[0], "txn_id", None) if args else None
            # frame: [span id, start ns, child ns, trace id]
            frame = [next(ids), clock(), 0, trace]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if parent is not None:
                    parent[2] += duration
                row = agg.get(name)
                if row is None:
                    row = agg[name] = [0, 0, 0, 0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[2]
                if size_of is not None and result is not None:
                    row[3] += size_of(args, result)
                if timed:
                    durations.setdefault(name, []).append(duration)
                if len(kept) < KEEP_SPANS:
                    kept.append((frame[0], parent[0] if parent else 0, trace,
                                 name, frame[1], end))

        return wrapper

    # -- reading ----------------------------------------------------------------

    def totals(self) -> dict[str, list[int]]:
        """name -> [count, inclusive ns, self ns, bytes], over all threads."""
        merged: dict[str, list[int]] = {}
        with self._lock:
            per_thread = list(self._per_thread)
        for agg, _ in per_thread:
            for name, row in agg.items():
                into = merged.setdefault(name, [0, 0, 0, 0])
                for index, value in enumerate(row):
                    into[index] += value
        return merged

    def durations(self, name: str) -> list[int]:
        """Every duration (ns) of span ``name``, over all threads; kept
        only for names starting with ``TIMED_PREFIX``."""
        out: list[int] = []
        with self._lock:
            for _, durations in self._per_thread:
                out.extend(durations.get(name, ()))
        return out

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent, trace, name, start, end in self.kept:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "trace": trace,
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")
