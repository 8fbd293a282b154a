"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded only from the benchmark's own files: ``Tracer.patch``
replaces a public entry point, in the module that calls it, with a wrapper
that opens a span around the call.  Every patch is undone by
``Tracer.restore``.  With tracing off nothing is patched, so untraced runs
execute the program exactly as a user would.

A span is (name, start, end, parent, job id, counters).  A layer's self
time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

from contextlib import contextmanager
import json
import time
from typing import Any, Callable, Dict, Iterator, List, Optional


class Span:
    """One timed call of a layer entry point."""

    __slots__ = ("name", "start", "end", "parent", "job", "counters",
                 "child_seconds")

    def __init__(self, name: str, start: float, parent: Optional["Span"],
                 job: Optional[int]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.counters: Dict[str, float] = {}
        self.child_seconds = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


class Job:
    """One closed-loop operation of a workload: an analyze, a request, a
    sweep.  ``home`` is false for the small probes of other families."""

    __slots__ = ("id", "family", "kind", "key", "home", "traced", "start",
                 "end")

    def __init__(self, job_id: int, family: str, kind: str, key: str,
                 home: bool, traced: bool) -> None:
        self.id = job_id
        self.family = family
        self.kind = kind
        self.key = key
        self.home = home
        self.traced = traced
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.jobs: List[Job] = []
        self._stack: List[Span] = []
        self._job: Optional[Job] = None
        self._patches: List[tuple] = []

    # -- jobs and spans -----------------------------------------------------

    @contextmanager
    def job(self, family: str, kind: str, home: bool,
            key: Optional[str] = None) -> Iterator[Job]:
        """Delimit one job; its wall time is recorded traced or not.
        ``key`` names the same job across repeated measurements."""
        record = Job(len(self.jobs), family, kind, key or kind, home,
                     self.enabled)
        self.jobs.append(record)
        self._job = record
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._job = None

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(),
                      parent, None if self._job is None else self._job.id)
        depth = len(self._stack)
        self._stack.append(record)
        try:
            yield record
        finally:
            # ``switch`` may have replaced the span opened here.
            self._close(self._stack[depth])

    def _close(self, record: Span) -> None:
        record.end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is record, "spans must nest"
        if record.parent is not None:
            record.parent.child_seconds += record.seconds
        self.spans.append(record)

    def switch(self, after: str, name: str) -> None:
        """If the innermost span is named ``after``, end it and open a
        sibling named ``name`` at the same instant (a phase change inside
        one call)."""
        if not self.enabled or not self._stack \
                or self._stack[-1].name != after:
            return
        current = self._stack[-1]
        self._close(current)
        successor = Span(name, current.end, current.parent, current.job)
        self._stack.append(successor)

    def count(self, key: str, value: float) -> None:
        """Add ``value`` to a counter of the innermost open span."""
        if self.enabled and self._stack:
            counters = self._stack[-1].counters
            counters[key] = counters.get(key, 0.0) + value

    # -- patching -----------------------------------------------------------

    def wrap(self, name: Callable[..., str] | str, fn: Callable,
             harvest: Optional[Callable[[Any, Any], None]] = None
             ) -> Callable:
        """``fn`` inside a span; ``harvest(result, tracer)`` adds counters
        read from the result before the span closes.  ``name`` may be a
        function of the call's arguments."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name(*args, **kwargs) if callable(name) else name
            with tracer.span(label):
                result = fn(*args, **kwargs)
                if harvest is not None:
                    harvest(result, tracer)
                return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(self, owner: Any, attr: str, name: Callable[..., str] | str,
              harvest: Optional[Callable[[Any, Any], None]] = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper (traced runs only)."""
        self.replace(owner, attr,
                     lambda original: self.wrap(name, original, harvest))

    def replace(self, owner: Any, attr: str,
                make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until ``restore``."""
        if not self.enabled:
            return
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write spans and jobs as JSON lines."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for job in self.jobs:
                handle.write(json.dumps({
                    "job": job.id, "family": job.family, "kind": job.kind,
                    "key": job.key, "home": job.home, "traced": job.traced,
                    "start": job.start, "end": job.end}) + "\n")
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "span": i, "name": span.name, "start": span.start,
                    "end": span.end, "job": span.job,
                    "parent": (None if span.parent is None
                               else index.get(id(span.parent))),
                    "self": span.self_seconds,
                    "counters": span.counters}) + "\n")
