"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the program at the points where their
callers look them up (a module attribute, a class attribute, a keyword
default, or a factory's return value), so no file of the program changes and
its own telemetry (``SimulationConfig(telemetry=...)``) stays off.  Every
wrapped call records one span: name, start, end and parent.  A layer's self
time is its span's duration minus the time its child spans cover.

Spans are kept in memory and written out once, at exit, as Chrome
trace-event JSON (``chrome://tracing`` / Perfetto) next to a per-layer table.
"""

from __future__ import annotations

import functools
import json
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

#: (id, name, start, end, parent id or -1) — one finished span.
Span = Tuple[int, str, float, float, int]


class Tracer:
    """Span recorder plus the patch list that installs and removes wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        # Open synchronous spans: [name, start, child seconds, id].
        self._stack: List[List[Any]] = []
        self._next_id = 0
        #: Id of the client request in flight (serve workload), the parent
        #: of every top-level span recorded while it is open.
        self.request_parent = -1
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- recording -------------------------------------------------------------
    def _open(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def _close(self) -> float:
        end = perf_counter()
        name, start, children, span_id = self._stack.pop()
        duration = end - start
        if self._stack:
            parent = self._stack[-1][3]
            self._stack[-1][2] += duration
        else:
            parent = self.request_parent
            if parent >= 0:
                self.counters["request_child_s"] += duration
        self.spans.append((span_id, name, start, end, parent))
        self.self_s[name] += duration - children
        self.total_s[name] += duration
        self.calls[name] += 1
        return duration

    def new_id(self) -> int:
        """Reserve a span id (for a span recorded later with :meth:`record`)."""
        self._next_id += 1
        return self._next_id - 1

    def record(self, span_id: int, name: str, start: float, end: float) -> None:
        """Record an already-timed top-level span that may have crossed
        ``await``s (a client request).  The spans it parents add up in the
        ``request_child_s`` counter, from which the caller derives its self
        time."""
        self.spans.append((span_id, name, start, end, -1))
        self.total_s[name] += end - start
        self.calls[name] += 1

    # -- wrapping --------------------------------------------------------------
    def wrap(self, name: str, fn: Callable[..., Any],
             after: Optional[Callable[..., None]] = None) -> Callable[..., Any]:
        """Synchronous wrapper; ``after(duration, args, kwargs, result)``
        may add counters once the call returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close()
            if after is not None:
                after(duration, args, kwargs, result)
            return result

        return traced

    def wrap_async(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrapper for a coroutine function whose body never awaits (the
        service's submit/status/cancel), so its span nests like a
        synchronous one."""
        tracer = self

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            tracer._open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer._close()

        return traced

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr`` until :meth:`uninstall`."""
        # A class or instance attribute may be inherited (restore by
        # deleting the override); a module global or a function's
        # ``__kwdefaults__`` is restored by assignment.
        present = isinstance(owner, (types.FunctionType, types.ModuleType)) or attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), present))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original, present = self._patches.pop()
            if present:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output ----------------------------------------------------------------
    def chrome_events(self) -> List[Dict[str, Any]]:
        """Chrome trace-event ``X`` slices; the parent index rides in args."""
        if not self.spans:
            return []
        origin = min(span[2] for span in self.spans)
        return [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, name, start, end, parent in self.spans
        ]


def write_trace(path: str, tracer: Tracer, table: List[Tuple[str, float, str]],
                meta: Dict[str, Any]) -> None:
    """Write the Chrome trace JSON (with the layer table in its metadata)."""
    payload = {
        "traceEvents": tracer.chrome_events(),
        "displayTimeUnit": "ms",
        "otherData": {
            **meta,
            "layers": [
                {"metric": name, "value": value, "unit": unit}
                for name, value, unit in table
            ],
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def format_table(table: List[Tuple[str, float, str]]) -> str:
    """Plain-text per-layer table."""
    width = max((len(name) for name, _, _ in table), default=10)
    lines = [f"{'metric'.ljust(width)}  {'value':>14}  unit"]
    for name, value, unit in table:
        lines.append(f"{name.ljust(width)}  {value:14.6f}  {unit}")
    return "\n".join(lines)
