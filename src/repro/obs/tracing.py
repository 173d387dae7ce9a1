"""Lightweight tracing spans with parent/child nesting and a trace ring.

:class:`span` is both a context manager and a decorator::

    with span("mining.regions", regions=26) as current:
        ...
        current.set(patterns=412)

Nesting is tracked through a :class:`contextvars.ContextVar`, so spans
compose across threads and asyncio tasks without any global mutable stack.
When a *root* span closes, its whole subtree is appended (as a JSON-ready
dict) to a bounded ring buffer readable through :func:`recent_traces`; every
span's duration is also observed into the ``repro_span_seconds`` histogram
of the global metrics registry, labelled by span name.

With :func:`repro.obs.runtime.enabled` off, entering a span yields a shared
no-op span and records nothing.
"""

from __future__ import annotations

import contextvars
import functools
import threading
import time
from collections import deque
from typing import Any, Callable, TypeVar

from repro.obs import runtime
from repro.obs.metrics import get_registry

__all__ = ["Span", "span", "recent_traces", "clear_traces", "TRACE_CAPACITY"]

F = TypeVar("F", bound=Callable[..., Any])

#: Root traces kept in the ring buffer before the oldest is dropped.
TRACE_CAPACITY = 256

_current_span: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)
_ring_lock = threading.Lock()
_ring: deque[dict[str, Any]] = deque(maxlen=TRACE_CAPACITY)


def _span_histogram():
    return get_registry().histogram(
        "repro_span_seconds", "Duration of named tracing spans in seconds.", ("span",)
    )


class Span:
    """One timed operation: name, attributes, duration, child spans."""

    __slots__ = ("name", "attributes", "started_at", "duration_seconds", "children", "_t0")

    def __init__(self, name: str, attributes: dict[str, Any] | None = None) -> None:
        self.name = name
        self.attributes = attributes if attributes is not None else {}
        self.started_at = time.time()
        self.duration_seconds: float | None = None
        self.children: list[Span] = []
        self._t0 = time.perf_counter()

    def set(self, **attributes: Any) -> None:
        """Attach or overwrite attributes mid-span."""
        self.attributes.update(attributes)

    def _close(self) -> None:
        self.duration_seconds = time.perf_counter() - self._t0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot of this span and its subtree."""
        payload: dict[str, Any] = {
            "name": self.name,
            "started_at": self.started_at,
            "duration_seconds": self.duration_seconds,
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload


class _NullSpan:
    """Shared do-nothing span handed out while observability is disabled."""

    __slots__ = ()

    def set(self, **attributes: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class span:
    """Context manager *and* decorator opening a named span."""

    def __init__(self, name: str, **attributes: Any) -> None:
        self._name = name
        self._attributes = attributes
        self._span: Span | None = None
        self._token: contextvars.Token | None = None

    def __enter__(self):
        if not runtime.enabled():
            return _NULL_SPAN
        current = Span(self._name, dict(self._attributes))
        parent = _current_span.get()
        if parent is not None:
            parent.children.append(current)
        self._span = current
        self._token = _current_span.set(current)
        return current

    def __exit__(self, exc_type, exc, tb) -> None:
        current = self._span
        token = self._token
        self._span = None
        self._token = None
        if current is None or token is None:
            return
        _current_span.reset(token)
        if exc_type is not None:
            current.attributes["error"] = exc_type.__name__
        current._close()
        if runtime.enabled():
            _span_histogram().observe(current.duration_seconds, span=current.name)
        if _current_span.get() is None:  # root span: publish the whole trace
            with _ring_lock:
                _ring.append(current.to_dict())

    def __call__(self, func: F) -> F:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any):
            with span(self._name, **self._attributes):
                return func(*args, **kwargs)

        return wrapper  # type: ignore[return-value]


def recent_traces(limit: int | None = None) -> list[dict[str, Any]]:
    """Most recent root-span trees, newest last; capped at *limit* if given."""
    with _ring_lock:
        traces = list(_ring)
    if limit is not None:
        traces = traces[-limit:]
    return traces


def clear_traces() -> None:
    """Empty the trace ring buffer (test isolation)."""
    with _ring_lock:
        _ring.clear()
