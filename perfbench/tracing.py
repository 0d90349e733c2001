"""Spans recorded around calls into the program's layers.

A traced process installs wrappers (:meth:`Recorder.wrap`) around public
methods and functions of the program before it starts work.  Each call
becomes one span: name, start, end, parent span, request id and optional
attributes (counter deltas).  Spans stay in memory and are written out as
JSON when the process is told to (:meth:`Recorder.dump`); ``layers.py``
turns them into per-layer metrics.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import time
from contextlib import asynccontextmanager, contextmanager
from pathlib import Path

_PARENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_parent", default=None)
_REQUEST: contextvars.ContextVar = contextvars.ContextVar("perfbench_request", default=None)


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, request, span_id, attrs]`` rows.
        self.spans: list = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    @contextmanager
    def span(self, name: str, *, root: bool = False):
        span_id = next(self._ids)
        if root:
            request_token = _REQUEST.set(next(self._requests))
        parent = _PARENT.get()
        token = _PARENT.set(span_id)
        start = time.monotonic()
        row = [name, start, start, parent, _REQUEST.get(), span_id, {}]
        try:
            yield row[6]
        finally:
            row[2] = time.monotonic()
            _PARENT.reset(token)
            if root:
                _REQUEST.reset(request_token)
            self.spans.append(row)

    def wrap(self, owner, attribute: str, name: str, *, root: bool = False, measure=None):
        """Replace ``owner.attribute`` by a spanned version.

        ``measure(args, kwargs)`` may return a callable invoked after the
        call with ``(result, attrs)`` to record counter deltas on the span.
        Coroutine functions are awaited inside the span; async context
        managers (``SessionPool.acquire``) get a span around the wait for
        the resource only.
        """
        original = getattr(owner, attribute)
        recorder = self
        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                with recorder.span(name, root=root) as attrs:
                    after = measure(args, kwargs) if measure else None
                    result = await original(*args, **kwargs)
                    if after:
                        after(result, attrs)
                    return result
        elif _is_async_cm(original):
            @functools.wraps(original)
            @asynccontextmanager
            async def wrapper(*args, **kwargs):
                manager = original(*args, **kwargs)
                with recorder.span(name, root=root):
                    value = await manager.__aenter__()
                try:
                    yield value
                except BaseException as error:
                    if not await manager.__aexit__(type(error), error, error.__traceback__):
                        raise
                else:
                    await manager.__aexit__(None, None, None)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with recorder.span(name, root=root) as attrs:
                    after = measure(args, kwargs) if measure else None
                    result = original(*args, **kwargs)
                    if after:
                        after(result, attrs)
                    return result
        setattr(owner, attribute, wrapper)

    def dump(self, path: str | os.PathLike) -> None:
        """Write the spans recorded so far (atomically)."""
        rows = list(self.spans)
        target = Path(path)
        temporary = target.with_suffix(".tmp")
        temporary.write_text(json.dumps(rows))
        os.replace(temporary, target)


def _is_async_cm(function) -> bool:
    wrapped = getattr(function, "__wrapped__", None)
    return wrapped is not None and inspect.isasyncgenfunction(wrapped)
