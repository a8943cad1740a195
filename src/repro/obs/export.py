"""Exporters: one observability state, three serialisations.

* :func:`snapshot` — a JSON-ready document (span tree + flat timings +
  metrics); ``--trace-json PATH`` on every CLI command writes it via
  :func:`write_json`.
* :func:`render_tree` — the human-readable span tree (what a person
  reads instead of raw JSON).
* :func:`render_flat` — one ``label value`` pair per line, the simplest
  scrape format: span seconds under ``span_seconds.<name>``, counters
  under ``counter.<name>``, gauges under ``gauge.<name>``.
"""

from __future__ import annotations

import json
from typing import TextIO

from repro.obs import metrics, trace

__all__ = ["SCHEMA_VERSION", "render_flat", "render_tree", "snapshot", "write_json"]

#: Bumped whenever the snapshot document shape changes.
SCHEMA_VERSION = 1


def snapshot(spans: bool = True) -> dict:
    """The complete observability state as a JSON-ready document.

    ``spans=False`` omits the span tree (the serve layer's ``/metrics``
    answers with timings and metrics only).
    """
    document: dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "timings_s": {
            name: round(seconds, 6)
            for name, seconds in trace.timings().items()
        },
        "metrics": {
            "counters": metrics.counters(),
            "gauges": metrics.gauges(),
        },
    }
    if spans:
        document["spans"] = [root.as_dict() for root in trace.root_spans()]
    return document


def write_json(path: str, spans: bool = True) -> None:
    """Serialise :func:`snapshot` to ``path`` as indented JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot(spans=spans), handle, indent=2, sort_keys=False)
        handle.write("\n")


def _render_span(span: trace.Span, depth: int, lines: list[str]) -> None:
    parts = [f"{'  ' * depth}{span.name}: {span.elapsed:.3f}s"]
    if span.attrs:
        parts.append(
            "[" + " ".join(f"{k}={v}" for k, v in span.attrs.items()) + "]"
        )
    if span.counters:
        parts.append(
            "(" + " ".join(f"{k}={v:g}" for k, v in span.counters.items()) + ")"
        )
    lines.append(" ".join(parts))
    for child in span.children:
        _render_span(child, depth + 1, lines)


def render_tree() -> str:
    """The span tree as indented human-readable text."""
    lines: list[str] = []
    for root in trace.root_spans():
        _render_span(root, 0, lines)
    return "\n".join(lines)


def render_flat() -> str:
    """Flat ``label value`` text: one metric or span total per line."""
    lines = [
        f"span_seconds.{name} {seconds:.6f}"
        for name, seconds in trace.timings().items()
    ]
    lines.extend(
        f"counter.{name} {value:g}"
        for name, value in metrics.counters().items()
    )
    lines.extend(
        f"gauge.{name} {value:g}" for name, value in metrics.gauges().items()
    )
    return "\n".join(lines)


def dump_tree(stream: TextIO) -> None:
    """Write :func:`render_tree` (with trailing newline) to ``stream``."""
    text = render_tree()
    if text:
        stream.write(text + "\n")
