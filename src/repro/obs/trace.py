"""Hierarchical trace spans.

A *span* times one named unit of pipeline work.  Spans nest: entering a
span while another is open makes it a child, so a full CLI run yields a
tree (``cli.reproduce`` → ``build.topology`` … → ``experiment.fig9``).
Each span carries its wall time, free-form ``key=value`` attributes, and
any counters incremented while it was the innermost open span (see
:mod:`repro.obs.metrics`).

The hooks stay as cheap as the bare ``perf_counter`` pairs they replaced:
entering a span is one object construction plus a list append, exiting is
one subtraction and two dict updates.  Nothing here is thread-safe by
design — every process keeps its own stack, and the pipeline fans out
over processes, never threads, so the hot path stays lock-free.

Alongside the tree, a flat ``name → accumulated seconds`` aggregate is
maintained with the semantics of the retired ``repro.perf`` timings
(insertion-ordered by first completion, summed across repeats).
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "PERF_ENV",
    "RSS_ENV",
    "Span",
    "annotate",
    "current_span",
    "enabled",
    "reset_trace",
    "root_spans",
    "span",
    "timings",
]

PERF_ENV = "REPRO_PERF"

#: Opt-in per-span RSS stamping (set by perfbench's traced processes):
#: at span close the process high-water RSS is attached as an
#: ``rss_mb`` attribute, so the span tree shows which stage pushed the
#: high-water mark where.
RSS_ENV = "REPRO_SPAN_RSS"

#: Root spans that time one request or job of a long-lived process
#: (``repro serve`` and its pool workers, sweep workers).  Such a root
#: adds its time to the flat aggregate and is then dropped: nothing
#: reads those trees, and keeping them grew the process by one tree per
#: request.  Opened under another span, they are kept as children.
_UNKEPT_ROOTS = frozenset({"serve.request", "serve.job_at", "sweep.job"})

#: Completed top-level spans, in completion order.
_roots: list["Span"] = []
#: Open spans, outermost first.
_stack: list["Span"] = []
#: Flat per-name accumulated seconds (the legacy ``perf.timings`` view).
_aggregate: dict[str, float] = {}


def enabled() -> bool:
    """True when ``REPRO_PERF`` asks for a printed breakdown."""
    return os.environ.get(PERF_ENV, "") not in ("", "0")


def rss_stamping() -> bool:
    """True when ``REPRO_SPAN_RSS`` asks spans to record high-water RSS."""
    return os.environ.get(RSS_ENV, "") not in ("", "0")


def high_water_rss_mb() -> float:
    """The process's high-water RSS in MiB (0.0 where unsupported).

    ``ru_maxrss`` is KiB on Linux.  perfbench reads its per-round peak
    through this function too, so stamped spans and its ``peak_rss_mb``
    are directly comparable.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    """One timed, attributed unit of work."""

    name: str
    attrs: dict[str, object] = field(default_factory=dict)
    start: float = 0.0
    elapsed: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-ready node: name, seconds, attrs, counters, children."""
        node: dict[str, object] = {
            "name": self.name,
            "elapsed_s": round(self.elapsed, 6),
        }
        if self.attrs:
            node["attrs"] = dict(self.attrs)
        if self.counters:
            node["counters"] = dict(self.counters)
        if self.children:
            node["children"] = [child.as_dict() for child in self.children]
        return node


@contextmanager
def span(name: str, **attrs: object) -> Iterator[Span]:
    """Open a trace span around a block of pipeline work.

    Nested spans become children of the enclosing one; top-level spans
    accumulate in the trace's root list, except the per-request and
    per-job roots of long-lived processes (``_UNKEPT_ROOTS``), which
    only add to the flat timings.  Counter increments issued while
    the span is innermost are attributed to it.  With ``REPRO_PERF`` set,
    the span prints the same ``[perf] name: N.NNNs`` stderr line the old
    ``perf.stage`` printed, indented by nesting depth.
    """
    current = Span(name=name, attrs=dict(attrs))
    depth = len(_stack)
    _stack.append(current)
    current.start = time.perf_counter()
    try:
        yield current
    finally:
        current.elapsed = time.perf_counter() - current.start
        if rss_stamping():
            current.attrs["rss_mb"] = round(high_water_rss_mb(), 1)
        _stack.pop()
        if _stack:
            _stack[-1].children.append(current)
        elif name not in _UNKEPT_ROOTS:
            _roots.append(current)
        _aggregate[name] = _aggregate.get(name, 0.0) + current.elapsed
        if enabled():
            indent = "  " * depth
            print(
                f"[perf] {indent}{name}: {current.elapsed:.3f}s",
                file=sys.stderr,
            )


def current_span() -> Span | None:
    """The innermost open span, or None outside any span."""
    return _stack[-1] if _stack else None


def annotate(**attrs: object) -> None:
    """Attach ``key=value`` attributes to the innermost open span.

    A no-op outside any span, so library code can annotate
    unconditionally.
    """
    if _stack:
        _stack[-1].attrs.update(attrs)


def root_spans() -> list[Span]:
    """Completed top-level spans since the last :func:`reset_trace`."""
    return list(_roots)


def timings() -> dict[str, float]:
    """Accumulated seconds per span name (the legacy flat view)."""
    return dict(_aggregate)


def reset_trace() -> None:
    """Drop all completed spans and the flat aggregate.

    Open spans are untouched: a reset issued mid-span (e.g. by a test)
    must not corrupt the enclosing instrumentation's bookkeeping.
    """
    _roots.clear()
    _aggregate.clear()
