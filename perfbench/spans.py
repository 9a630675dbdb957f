"""Outside-in wall-clock spans around the package's public functions.

A :class:`Tracer` replaces chosen functions and methods of the package with
timing wrappers, from the benchmark's side, and puts the originals back on
:meth:`Tracer.restore`. Nothing in the package changes or knows about it.

Every call through a wrapper records one span: name, start, end, thread
and the enclosing span on the same thread (the one that caused it). Spans
stay in memory until :meth:`Tracer.write_jsonl`. A span's *self time* is
its duration minus the time its child spans on the same thread cover, so
``nn.conv.fwd`` excludes the ``nn.im2col`` it calls. Spans on other
threads (the checkpoint writer, the serving thread) never nest under the
training thread's spans.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "SpanTotals"]

#: name -> [self seconds, calls, inclusive seconds]
SpanTotals = Dict[str, List[float]]


class _ThreadLog:
    """One thread's open-span stack and finished spans."""

    __slots__ = ("name", "stack", "spans")

    def __init__(self, name: str) -> None:
        self.name = name
        #: Open spans as [index into spans, seconds covered by children].
        self.stack: List[List[float]] = []
        #: Finished spans: (name, t0, t1, self seconds, parent index or -1).
        self.spans: List[Optional[Tuple[str, float, float, float, int]]] = []


class Tracer:
    """Records spans around wrapped callables; restores them afterwards."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------
    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._logs_lock:
                self._logs.append(log)
        return log

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        log = self._log()
        idx = len(log.spans)
        parent = int(log.stack[-1][0]) if log.stack else -1
        log.spans.append(None)
        frame = [idx, 0.0]
        log.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            log.stack.pop()
            dur = t1 - t0
            if log.stack:
                log.stack[-1][1] += dur
            log.spans[idx] = (name, t0, t1, dur - frame[1], parent)

    # -- patching ------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that records span ``name``.

        ``owner`` is a module or a class that defines ``attr`` itself (an
        inherited attribute is refused, so a renamed API fails loudly
        instead of silently recording nothing).
        """
        original = self._original(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, original, *args, **kwargs)

        self._patch(owner, attr, original, wrapper)

    def observe(self, owner: Any, attr: str, fn: Callable[..., None]) -> None:
        """Call ``fn(*args)`` before every call of ``owner.attr``, for
        measurements that need the arguments; records no span."""
        original = self._original(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            fn(*args)
            return original(*args, **kwargs)

        self._patch(owner, attr, original, wrapper)

    @staticmethod
    def _original(owner: Any, attr: str) -> Any:
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} defines no {attr!r} to wrap")
        return vars(owner)[attr]

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_overrides(self, base: type, attr: str, name: str) -> None:
        """Wrap ``attr`` on ``base`` and every subclass that overrides it."""
        seen = set()
        todo = [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if attr in vars(cls):
                self.wrap(cls, attr, name)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

    # -- reporting -----------------------------------------------------------
    def totals(self, under: Optional[str] = None) -> SpanTotals:
        """Self seconds, call count and inclusive seconds per span name,
        over all threads; with ``under``, only spans inside a span of that
        name (itself included)."""
        out: SpanTotals = {}
        with self._logs_lock:
            logs = list(self._logs)
        for log in logs:
            inside = [False] * len(log.spans)
            for idx, span in enumerate(log.spans):
                if span is None:  # still open
                    continue
                name, t0, t1, self_s, parent = span
                # A parent is appended before its children, so its flag is set.
                inside[idx] = name == under or (parent >= 0 and inside[parent])
                if under is not None and not inside[idx]:
                    continue
                entry = out.setdefault(name, [0.0, 0, 0.0])
                entry[0] += self_s
                entry[1] += 1
                entry[2] += t1 - t0
        return out

    def write_jsonl(self, path: str) -> None:
        """Write every finished span as one JSON object per line."""
        with self._logs_lock:
            logs = list(self._logs)
        with open(path, "w", encoding="utf-8") as fh:
            for log in logs:
                for idx, span in enumerate(log.spans):
                    if span is None:
                        continue
                    name, t0, t1, self_s, parent = span
                    fh.write(json.dumps({
                        "thread": log.name, "id": idx, "parent": parent,
                        "name": name, "t0": t0, "t1": t1, "self_s": self_s,
                    }) + "\n")
