"""In-memory spans around calls into clonedyn, recorded from the benchmark's side.

A span has a name, start, end, parent and run id.  Wrappers are installed
at the attribute each caller looks up (for example `clonedyn.cli.ingest`,
not `clonedyn.cohort.ingest`) and removed again when the traced run ends;
the program itself carries no tracing code.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator

# (tracer, args, kwargs, result) -> None; runs after the call's span has closed
Observer = Callable[["Tracer", tuple, dict, object], None]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return asdict(self)


class Tracer:
    """Single-threaded span recorder; the parent is the innermost open span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.errors: list[str] = []
        self._open: list[Span] = []

    @property
    def root(self) -> str | None:
        """Name of the outermost open span."""
        return self._open[0].name if self._open else None

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, time.perf_counter(), float("nan"), parent, self.run_id)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn: Callable, name: str, observe: Observer | None = None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                try:
                    observe(self, args, kwargs, result)
                except (AttributeError, TypeError, KeyError) as exc:
                    # a renamed field loses one count, not the traced run
                    self.errors.append(f"{name}: {exc!r}")
            return result

        traced.__wrapped__ = fn
        return traced


@contextmanager
def patched(tracer: Tracer, targets: Iterable[tuple[object, str, str, Observer | None]]):
    """Replace module.<dotted path> with a traced wrapper for the duration of the block.

    Yields the dotted paths that did not resolve, so a renamed function
    shows up as missing rather than silently untraced.
    """
    saved = []
    missing = []
    try:
        for module, path, name, observe in targets:
            *parents, attr = path.split(".")
            owner = module
            for part in parents:
                owner = getattr(owner, part, None)
            original = None if owner is None else getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module.__name__}.{path}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, observe))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out
