"""Figure 9: MANRS preference score distribution by RPKI status.

The preference score (Equation 9) of a prefix-origin is the sum of
hegemony scores of its MANRS transit ASes minus that of its non-MANRS
transit ASes; positive means the announcement is more likely to cross
MANRS networks.  If MANRS networks collectively filter better, RPKI
Invalid announcements should skew negative relative to Valid/NotFound —
the paper's headline impact result (Finding 9.4).
"""

from __future__ import annotations

from repro.core.impact import preference_scores
from repro.core.stats import CDF, make_cdf
from repro.experiments.findings import Finding
from repro.scenario.world import World

__all__ = ["FINDINGS", "run", "render"]


def run(world: World) -> dict[str, CDF]:
    """Preference-score CDFs keyed by RPKI status group."""
    scores = preference_scores(world.ihr, world.members())
    return {status: make_cdf(values) for status, values in scores.items()}


def render(cdfs: dict[str, CDF]) -> str:
    """Summarise: fraction of prefix-origins preferring MANRS transit."""
    lines = [
        "Figure 9 — MANRS preference score by RPKI status",
        f"{'status':>10}  {'n':>7}  {'% preferring MANRS':>18}  {'median':>7}",
    ]
    for status in ("valid", "not_found", "invalid"):
        cdf = cdfs[status]
        if cdf.n == 0:
            continue
        lines.append(
            f"{status:>10}  {cdf.n:7d}  "
            f"{100 * cdf.fraction_above(0.0):17.1f}%  {cdf.median:7.3f}"
        )
    return "\n".join(lines)


def _preferring(cdfs: dict[str, CDF], status: str) -> float:
    """Fraction of ``status`` prefix-origins preferring MANRS transit."""
    return cdfs[status].fraction_above(0.0)


FINDINGS = (
    Finding("fig9.invalid_vs_valid", "Finding 9.4", "14% vs 34%",
            lambda cdfs: (_preferring(cdfs, "valid") - 0.10) - _preferring(cdfs, "invalid"),
            ">", 0),
    Finding("fig9.invalid_vs_not_found", "Finding 9.4", "14% vs 36%",
            lambda cdfs: (_preferring(cdfs, "not_found") - 0.10) - _preferring(cdfs, "invalid"),
            ">", 0),
    Finding("fig9.valid_vs_not_found", "§9.4", "34% vs 36%",
            lambda cdfs: abs(_preferring(cdfs, "valid") - _preferring(cdfs, "not_found")),
            "<", 0.15),
)
