"""In-memory span recorder for the benchmark's traced runs.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index
of the enclosing span (``-1`` at the top) and ``run`` the id of the
run or request the span belongs to.  Spans are kept in a list while
the workload runs and written out once it ends.

The recorder wraps attributes of the program's modules and classes
from the benchmark's own files (``Tracer.wrap``): the program itself
is never edited.  A layer's *self time* is its span's duration minus
the part covered by its direct child spans, so the self times of all
spans under one root add up to that root's wall time exactly.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, int, int]


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.run_id = 0
        self._stack: List[int] = []
        self._child_time: List[float] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _open(self) -> Tuple[int, float]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(("", 0.0, 0.0, parent, self.run_id))
        self._stack.append(index)
        return index, time.perf_counter()

    def _close(self, index: int, name: str, start: float) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {name!r} closed out of order")
        self.spans[index] = (name, start, end, self.spans[index][3], self.run_id)

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    # -- attribute wrapping ---------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanned call of the original.

        ``after(result, *args, **kwargs)`` runs outside the span, so
        counting what a call did adds nothing to the layer's time.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            index, start = tracer._open()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index, name, start)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, spanned)

    def wrap_iter(self, owner: Any, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a generator function: every ``next``
        of the returned iterator is one span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def spanned(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = iter(original(*args, **kwargs))
            while True:
                index, start = tracer._open()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(index, name, start)
                yield item

        self._patched.append((owner, attr, original))
        setattr(owner, attr, spanned)

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = {}
        for i, (name, start, end, _parent, _run) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(e - s for n, s, e, _p, _r in self.spans if n == name)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "run": run}
                    )
                    + "\n"
                )


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_index", "_start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._index = -1
        self._start = 0.0

    def __enter__(self) -> "_SpanContext":
        self._index, self._start = self._tracer._open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._close(self._index, self._name, self._start)
