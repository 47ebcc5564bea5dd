"""Structured JSONL tracing for the compile and simulate pipeline.

The pipeline is instrumented with *spans* (begin/end pairs wrapping a
phase: partitioning, predictor training, a nest's gate, one simulation)
and *points* (single events carrying counters: a window-size candidate's
predicted movement, a gate verdict, a simulator epoch snapshot).  Each
event is one JSON object per line:

    {"ev": "B", "name": "compile", "seq": 0, "t": 0.000012, "data": {...}}
    {"ev": "P", "name": "window.candidate", "seq": 7, "t": ..., "data": {"size": 3, "movement": 412}}
    {"ev": "E", "name": "compile", "seq": 31, "t": ..., "dur": 4.2, "data": {...}}

* ``ev``    — "B" (span begin), "E" (span end), "P" (point).
* ``seq``   — a per-tracer monotonic counter; consumers reconstruct span
  nesting from B/E order, so the stream needs no explicit parent ids.
* ``t``     — wall-clock seconds since the tracer was created; ``dur`` is
  the span's wall duration.  These are the *only* nondeterministic fields:
  two runs with the same seed produce identical streams once ``t``/``dur``
  are stripped (regression-tested by ``tests/test_obs_tracer.py``).
* ``data``  — JSON-safe payload (ints, floats, strings, small dicts).

Tracing is **off by default** and free when off: the module-level tracer
is :data:`NULL_TRACER`, whose methods are no-ops and whose ``enabled``
attribute is ``False`` so hot paths can skip payload construction with a
single attribute check.  Enabling tracing never changes simulation or
compilation results — the tracer only *reads* counters (the figure/table
equivalence is regression-tested).

Usage::

    from repro.obs import tracing

    with tracing("/tmp/run.jsonl"):
        NdpPartitioner(machine).partition(program)

or install a tracer explicitly with :func:`set_tracer` / restore with the
value it returns.  Per-instance firehose events (every statement split,
every load-balancer veto) are additionally gated behind ``debug=True``.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, IO, Iterator, List, Optional, Union


class _NullSpan:
    """Reusable no-op context manager handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def add(self, **_payload) -> None:
        """Ignore end-payload additions (tracing is off)."""

    def end(self) -> None:
        """No-op explicit close."""


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default, disabled tracer: every operation is a no-op.

    ``enabled`` and ``debug`` are both ``False`` so instrumentation sites
    can guard payload construction with one attribute read — the cost of
    tracing-off is a single predictable branch per site.
    """

    enabled: bool = False
    debug: bool = False

    def span(self, name: str, **payload) -> _NullSpan:
        """Return a no-op context manager."""
        return _NULL_SPAN

    def point(self, name: str, **payload) -> None:
        """Drop the event."""

    def close(self) -> None:
        """Nothing to flush."""


#: The process-wide disabled tracer (``get_tracer()``'s default).
NULL_TRACER = NullTracer()


class _Span:
    """Context manager emitting a B event on entry and an E event on exit.

    ``add(**payload)`` merges extra fields into the end event's ``data``
    (e.g. a measured accuracy known only once the phase finishes).
    """

    __slots__ = ("_tracer", "name", "_start", "_end_payload")

    def __init__(self, tracer: "Tracer", name: str, payload: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self._start = 0.0
        self._end_payload: Dict[str, Any] = {}
        tracer._emit("B", name, payload)
        self._start = tracer._now()

    def add(self, **payload) -> None:
        """Attach fields to the span's end event."""
        self._end_payload.update(payload)

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc) -> None:
        self.end()

    def end(self) -> None:
        """Emit the span's E event now (for non-``with`` call sites)."""
        tracer = self._tracer
        tracer._emit(
            "E", self.name, self._end_payload, dur=tracer._now() - self._start
        )


class Tracer:
    """Emits structured JSONL events to a text sink.

    Args:
        sink: a writable text file-like object (the tracer does not own
            it unless it was opened by :func:`tracing`).
        debug: also emit per-instance firehose events (statement splits,
            balancer vetoes).  Off by default — debug traces are large.

    Events are written eagerly, one line per event, with sorted keys so a
    byte comparison of two trace files is meaningful.

    Emission is serialized by a lock, so one tracer may be shared by
    concurrent threads (the ``repro.serve`` daemon traces every request
    handler through the process tracer): events never interleave
    mid-line and ``seq`` stays strictly monotonic.  The lock is
    uncontended on the single-threaded compile paths.
    """

    __slots__ = ("enabled", "debug", "_sink", "_seq", "_t0", "_lock")

    def __init__(self, sink: IO[str], debug: bool = False):
        self.enabled = True
        self.debug = debug
        self._sink = sink
        self._seq = 0
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _emit(
        self,
        ev: str,
        name: str,
        payload: Dict[str, Any],
        dur: Optional[float] = None,
    ) -> None:
        with self._lock:
            event: Dict[str, Any] = {
                "ev": ev,
                "name": name,
                "seq": self._seq,
                "t": round(self._now(), 9),
            }
            if dur is not None:
                event["dur"] = round(dur, 9)
            if payload:
                event["data"] = payload
            self._seq += 1
            self._sink.write(json.dumps(event, sort_keys=True) + "\n")

    def span(self, name: str, **payload) -> _Span:
        """Open a span; use as a context manager."""
        return _Span(self, name, payload)

    def point(self, name: str, **payload) -> None:
        """Emit a single instantaneous event."""
        self._emit("P", name, payload)

    def close(self) -> None:
        """Flush the sink (the caller owns closing the file itself)."""
        self._sink.flush()


#: The installed tracer; module state so deeply nested pipeline code can
#: reach it without threading a handle through every constructor.
_CURRENT: Union[Tracer, NullTracer] = NULL_TRACER


def get_tracer() -> Union[Tracer, NullTracer]:
    """The currently installed tracer (:data:`NULL_TRACER` when off)."""
    return _CURRENT


def set_tracer(tracer: Union[Tracer, NullTracer]) -> Union[Tracer, NullTracer]:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = tracer
    return previous


class tracing:
    """Context manager: trace the enclosed block to ``path`` (JSONL).

    ``path`` may also be an open text sink (e.g. ``io.StringIO``), in which
    case the caller keeps ownership and nothing is closed on exit::

        with tracing("/tmp/compile.jsonl", debug=False) as tracer:
            NdpPartitioner(machine).partition(program)
    """

    def __init__(self, path: Union[str, IO[str]], debug: bool = False):
        self._path = path
        self._debug = debug
        self._fh: Optional[IO[str]] = None
        self._tracer: Optional[Tracer] = None
        self._previous: Union[Tracer, NullTracer, None] = None

    def __enter__(self) -> Tracer:
        if isinstance(self._path, str):
            self._fh = open(self._path, "w")
            sink: IO[str] = self._fh
        else:
            sink = self._path
        self._tracer = Tracer(sink, debug=self._debug)
        self._previous = set_tracer(self._tracer)
        return self._tracer

    def __exit__(self, *exc) -> None:
        assert self._tracer is not None and self._previous is not None
        set_tracer(self._previous)
        self._tracer.close()
        if self._fh is not None:
            self._fh.close()


def read_events(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file back into a list of event dicts."""
    events: List[Dict[str, Any]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


#: Payload fields that carry host wall-clock seconds (the gate's per
#: candidate sub-phase costs); :func:`strip_wall_times` drops them too.
WALL_TIME_FIELDS = frozenset({"search_s", "schedule_s", "simulate_s"})


def strip_wall_times(events: Iterator[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Drop the nondeterministic ``t``/``dur`` fields from each event,
    and the :data:`WALL_TIME_FIELDS` from its payload.

    What remains is the deterministic event stream: two runs with the same
    seed must agree on it exactly.
    """
    stripped = []
    for event in events:
        clean = {k: v for k, v in event.items() if k not in ("t", "dur")}
        data = clean.get("data")
        if data and not WALL_TIME_FIELDS.isdisjoint(data):
            clean["data"] = {
                k: v for k, v in data.items() if k not in WALL_TIME_FIELDS
            }
        stripped.append(clean)
    return stripped
