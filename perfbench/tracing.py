"""Spans around calls into the program's layers, recorded from the benchmark's side.

The program itself is not instrumented: :meth:`Tracer.install` replaces
public functions and methods with timing wrappers for the duration of a
``with`` block and puts the originals back afterwards, so an untraced run
executes exactly the program's own code.  Spans stay in memory; their
self times and per-name totals come from :func:`metrics.aggregate`.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from perfbench.metrics import LayerTotals, Span, aggregate

#: A span name, or a function of the wrapped call's first argument (``self``).
SpanName = Union[str, Callable[[Any], str]]
#: ``(owner, attribute, span name)``: what to wrap.
Target = Tuple[Any, str, SpanName]


class Tracer:
    """Records spans (with their parent span) per thread while ``active``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Tuple[List[int], Span]:
        stack = self._stack()
        span = Span(name, time.perf_counter(), float("nan"), stack[-1] if stack else None)
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(span)
        return stack, span

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a call the benchmark makes itself."""
        if not self.active:
            yield
            return
        stack, span = self._open(name)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        if self.active:
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, original: Callable, name: SpanName,
              on_result: Optional[Callable[["Tracer", Any, Any], None]]) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            stack, span = tracer._open(name if isinstance(name, str) else name(args[0]))
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(tracer, args[0], result)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def install(
        self,
        targets: Sequence[Target],
        on_result: Optional[Dict[str, Callable[["Tracer", Any, Any], None]]] = None,
    ) -> Iterator["Tracer"]:
        """Wrap every target while the block runs; restore the originals after.

        ``on_result`` maps an attribute's ``"<owner>.<attribute>"`` label to
        a callback given ``(tracer, self, result)`` after each traced call,
        for counts taken where the work happens.
        """
        hooks = on_result or {}
        saved = []
        try:
            for owner, attribute, name in targets:
                original = owner.__dict__[attribute]
                label = f"{getattr(owner, '__name__', owner)}.{attribute}"
                setattr(owner, attribute, self._wrap(original, name, hooks.get(label)))
                saved.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def totals(self) -> Dict[str, LayerTotals]:
        """Calls, total and self time per span name; call once tracing stopped."""
        with self._lock:
            spans = list(self.spans)
        if any(math.isnan(span.end) for span in spans):
            raise RuntimeError("a span is still open")
        return aggregate(spans)
