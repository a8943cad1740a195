"""Declared paper findings: one statistic and one bound per claim.

Each paper artefact declares its ``FINDINGS`` next to its ``run`` and
``render``; the registry puts them on its ``ExperimentSpec``.  A
finding's ``statistic`` is a cheap, pure read of the artefact's ``run``
result, never of the world.  The shape tests, ``repro report``, ``repro
reproduce``, sweep and serve payloads, ``repro sweep report`` and
EXPERIMENTS.md's tables all evaluate these declarations.

A comparison of two measured values is declared as a margin against 0
(``a - 1.8 * b > 0``, not ``a / b > 1.8``), so no statistic divides by a
count that can be zero.  A statistic over an empty sample raises
``ValueError`` (``CDF.median`` of no ASes, ``max`` of nothing), and one
over a series that ends before the year it reads (a world observed
before 2022) raises ``KeyError``; the finding then reads ``n/a`` and
does not hold.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.experiments.common import text_table

__all__ = ["COLUMNS", "Finding", "Outcome", "evaluate", "format_measured", "render_table"]

#: The columns of the findings table (``repro report``, EXPERIMENTS.md).
COLUMNS = ("finding", "paper ref", "paper", "measured", "bound", "ok")

#: What ``op`` may be: a comparison with a number, or membership of a
#: closed (``"[]"``) or open (``"()"``) interval given as ``(low, high)``.
_OPS: dict[str, Callable[[float, Any], bool]] = {
    ">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le, "==": operator.eq,
    "[]": lambda value, bound: bound[0] <= value <= bound[1],
    "()": lambda value, bound: bound[0] < value < bound[1],
}


@dataclass(frozen=True)
class Finding:
    """One directional claim of the paper, checked on an artefact's result."""

    #: Stable identifier, ``<artefact>.<claim>``, e.g. ``fig5.small_rpki_bimodal``.
    id: str
    #: Where the paper states it, e.g. ``"Finding 8.1"``.
    paper_ref: str
    #: The paper's value, as quoted in EXPERIMENTS.md.
    paper: str
    #: The measured statistic, read from the artefact's ``run`` result.
    statistic: Callable[[Any], float]
    #: One of ``>``, ``>=``, ``<``, ``<=``, ``==``, ``[]``, ``()``.
    op: str
    #: A number, or ``(low, high)`` for the interval ops.
    bound: float | tuple[float, float]

    def bound_text(self) -> str:
        """The bound as printed, e.g. ``> 0`` or ``in [88, 99.5]``."""
        if self.op in ("[]", "()"):
            return f"in {self.op[0]}{self.bound[0]:g}, {self.bound[1]:g}{self.op[1]}"
        return f"{self.op} {self.bound:g}"


@dataclass(frozen=True)
class Outcome:
    """A finding evaluated on one result; ``measured`` is None for n/a."""

    finding: Finding
    measured: float | None

    @property
    def passed(self) -> bool:
        """Whether the statistic was computed and lies within the bound."""
        return self.measured is not None and _OPS[self.finding.op](self.measured, self.finding.bound)

    def cells(self) -> tuple[str, ...]:
        """The printed row, one cell per :data:`COLUMNS` entry."""
        finding = self.finding
        return (
            finding.id,
            finding.paper_ref,
            finding.paper,
            format_measured(self.measured),
            finding.bound_text(),
            "✓" if self.passed else "✗",
        )

    def row(self) -> dict:
        """The outcome as one JSON row of ``repro report --json``."""
        return {
            "id": self.finding.id,
            "paper_ref": self.finding.paper_ref,
            "paper": self.finding.paper,
            "measured": self.measured,
            "bound": self.finding.bound_text(),
            "passed": self.passed,
        }

    def line(self) -> str:
        """The ``✓``/``✗`` line ``repro reproduce`` prints under its artefact."""
        finding_id, _, paper, measured, bound, mark = self.cells()
        return f"{mark} {finding_id}: {measured} {bound}  (paper: {paper})"


def evaluate(findings: Iterable[Finding], result: Any) -> list[Outcome]:
    """Evaluate each finding on one ``run`` result, in declaration order."""
    outcomes = []
    for finding in findings:
        try:
            measured: float | None = float(finding.statistic(result))
        except (ValueError, LookupError):  # no sample, or no such year: no value
            measured = None
        outcomes.append(Outcome(finding, measured))
    return outcomes


def render_table(outcomes: Iterable[Outcome]) -> str:
    """The findings table ``repro report`` prints, one row per finding."""
    outcomes = list(outcomes)
    lines = text_table(COLUMNS, [outcome.cells() for outcome in outcomes])
    passed = sum(outcome.passed for outcome in outcomes)
    return "\n".join([*lines, f"-- {passed}/{len(outcomes)} findings hold"])


def format_measured(value: float | None) -> str:
    """A measured statistic as printed: an integer, 3 decimals, or n/a."""
    if value is None:
        return "n/a"
    if value.is_integer():
        return str(int(value))
    return f"{value:.3f}"
