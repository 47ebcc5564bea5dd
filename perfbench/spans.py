"""In-memory timing spans recorded around the repository's public callables.

The traced run installs wrappers from this file; nothing under ``src/`` is
edited.  Each span is ``(name, start, end, parent, tag)``: ``parent`` is
the index of the innermost open span on the same thread, ``tag`` the app
or request id the caller attached.  Spans stay in memory until the
benchmark writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional


class Span:
    """One timed call."""

    __slots__ = ("name", "start", "end", "parent", "tag")

    def __init__(self, name: str, start: float, parent: Optional[int], tag):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tag = tag

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; installs and removes the wrappers that make them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, tag=None):
        """Record the enclosed block as one span."""
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            record = Span(name, time.perf_counter(), stack[-1] if stack else None, tag)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def _timed(self, fn: Callable, name: str, tag_of: Optional[Callable]) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = tag_of(*args, **kwargs) if tag_of is not None else None
            with recorder.span(name, tag):
                return fn(*args, **kwargs)

        return wrapper

    def wrap_method(self, cls: type, attr: str, name: str, tag_of=None) -> None:
        """Time every call of ``cls.attr`` (plain method or classmethod)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._timed(raw.__func__, name, tag_of))
        else:
            replacement = self._timed(raw, name, tag_of)
        setattr(cls, attr, replacement)
        self._patches.append((cls, attr, raw, True))

    def wrap_instance(self, obj, attr: str, name: str) -> None:
        """Time every call of the bound method ``obj.attr``."""
        setattr(obj, attr, self._timed(getattr(obj, attr), name, None))
        self._patches.append((obj, attr, None, False))

    def uninstall(self) -> None:
        """Restore every wrapped callable (last wrapped, first restored)."""
        while self._patches:
            owner, attr, raw, is_class = self._patches.pop()
            if is_class:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def write_jsonl(self, path: str) -> None:
        """Write the spans out, one JSON object per line."""
        with open(path, "w") as fh:
            for index, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "tag": s.tag,
                        }
                    )
                    + "\n"
                )


def install_layers(recorder: Recorder) -> None:
    """Wrap the public callables of every measured layer.

    ``repro.noc``, ``repro.mem`` and ``repro.cache`` are not wrapped: they
    are measured through these callers.
    """
    from repro.baselines import DefaultPlacement
    from repro.core.window import WindowScheduler, WindowSizeSearch
    from repro.exec.backend import SimBackend
    from repro.exec.runtime import RuntimeBackend
    from repro.pipeline import PASS_REGISTRY, WorkerPool
    from repro.serve.daemon import CompileService
    from repro.serve.request import CompileRequest
    from repro.serve.store import ArtifactStore
    from repro.sim.engine import Simulator

    for name, pass_ in PASS_REGISTRY.items():
        recorder.wrap_instance(pass_, "run", f"pass.{name}")
    recorder.wrap_method(WindowSizeSearch, "search_sample", "window.search_sample")
    recorder.wrap_method(WindowSizeSearch, "search", "window.search")
    recorder.wrap_method(WindowScheduler, "schedule_nest", "window.schedule_nest")
    recorder.wrap_method(Simulator, "run", "sim.run")
    recorder.wrap_method(DefaultPlacement, "assignment", "placement.assignment")
    recorder.wrap_method(DefaultPlacement, "place", "placement.place")
    recorder.wrap_method(SimBackend, "run", "exec.sim")
    recorder.wrap_method(RuntimeBackend, "run", "exec.runtime")
    recorder.wrap_method(
        CompileRequest, "from_json", "serve.from_json", lambda cls, data: data.get("seed")
    )
    recorder.wrap_method(CompileRequest, "fingerprint", "serve.fingerprint")
    recorder.wrap_method(
        CompileService, "handle", "serve.handle", lambda self, data: data.get("seed")
    )
    recorder.wrap_method(ArtifactStore, "get", "store.get")
    recorder.wrap_method(ArtifactStore, "put", "store.put")
    recorder.wrap_method(WorkerPool, "call", "pool.call")


class SpanIndex:
    """Queries over a finished span list: ancestry, self time, sums."""

    def __init__(self, spans: List[Span]):
        self.spans = spans
        self.children: Dict[int, List[int]] = {}
        for index, s in enumerate(spans):
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(index)

    def named(self, name: str) -> Iterable[int]:
        return (i for i, s in enumerate(self.spans) if s.name == name)

    def ancestor(self, index: int, name: str) -> Optional[int]:
        """Index of the nearest enclosing span called ``name``."""
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return parent
            parent = self.spans[parent].parent
        return None

    def self_time(self, index: int) -> float:
        """Duration minus the part of it that child spans cover."""
        s = self.spans[index]
        covered = 0.0
        cursor = s.start
        for child in sorted(
            (self.spans[c] for c in self.children.get(index, ())), key=lambda c: c.start
        ):
            lo, hi = max(child.start, cursor), min(child.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return s.duration - covered

    def total(self, name: str, within: Optional[str] = None, self_only: bool = False):
        """(seconds, calls) of spans called ``name``, optionally only inside ``within``."""
        seconds, calls = 0.0, 0
        for i in self.named(name):
            if within is not None and self.ancestor(i, within) is None:
                continue
            seconds += self.self_time(i) if self_only else self.spans[i].duration
            calls += 1
        return seconds, calls
