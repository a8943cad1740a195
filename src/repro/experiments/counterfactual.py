"""Counterfactual: what if every MANRS member fully complied?

§10 asks how MANRS could "increase its positive influence on routing
security".  This experiment answers the quantitative half: rebuild the
world's import policies so that **every member deploys full ROV and
complete Action 1 filter coverage**, re-run propagation, and compare
the security metrics against the measured world:

* how many RPKI-Invalid announcements still reach the collectors;
* the total invalid transit (invalid prefix-origin pairs summed over
  transiting ASes);
* Figure 9's separation (invalid routes avoiding MANRS transit).

The gap between "measured" and "full compliance" is the enforcement
headroom the paper's discussion section is about.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.bgp.collector import collect_rib
from repro.core.impact import preference_scores
from repro.ihr.pipeline import build_ihr_dataset
from repro.ihr.records import RPKI_STATUSES, IHRDataset
from repro.scenario.world import World

__all__ = ["ComplianceScenario", "CounterfactualResult", "run", "render"]


@dataclass(frozen=True)
class ComplianceScenario:
    """Security metrics of one policy configuration."""

    label: str
    visible_invalid_announcements: int
    #: Invalid (prefix, transit) pairs where the transit is a member —
    #: the traffic MANRS networks themselves still carry.  Total pairs
    #: can *rise* under stricter filtering (invalids detour onto longer
    #: non-member paths), so the member-carried count is the honest
    #: metric.
    invalid_member_transit_pairs: int
    invalid_transit_pairs: int
    invalid_prefer_manrs: float


@dataclass(frozen=True)
class CounterfactualResult:
    """Measured world vs full-member-compliance world."""

    measured: ComplianceScenario
    full_compliance: ComplianceScenario

    @property
    def invalid_visibility_reduction(self) -> float:
        """Fractional drop in visible invalid announcements."""
        baseline = self.measured.visible_invalid_announcements
        if baseline == 0:
            return 0.0
        return 1.0 - self.full_compliance.visible_invalid_announcements / baseline


def run(world: World) -> CounterfactualResult:
    """Compare the measured world against full member compliance."""
    measured = _scenario("measured", world, world.ihr)

    # Derived from the world's engine, the route classes the stricter
    # policies leave alone (above all the unfiltered Valid/NotFound
    # class) keep their memoised paths.
    engine = world.engine.derive(
        policies={
            asn: replace(
                world.policies[asn],
                rov=True,
                filter_customers_rpki=True,
                filter_customers_irr=True,
                customer_filter_coverage=1.0,
            )
            for asn in world.members()
            if asn in world.policies
        }
    )
    rib = collect_rib(engine, world.rib.route_rows(), world.vantage_points)
    compliant = _scenario(
        "full compliance",
        world,
        build_ihr_dataset(rib, world.rov, world.irr, world.topology),
    )
    return CounterfactualResult(measured=measured, full_compliance=compliant)


def _scenario(
    label: str, world: World, dataset: IHRDataset
) -> ComplianceScenario:
    columns = dataset.arrays
    invalid = [status.is_invalid for status in RPKI_STATUSES]
    visible_invalid = sum(
        1 for code in columns["po_rpki"].tolist() if invalid[code]
    )
    members = world.members()
    rpki = columns["tg_rpki"].tolist()
    prefix_offsets = columns["tg_offsets"].tolist()
    transit_offsets = columns["tr_offsets"].tolist()
    transits = columns["tr_asn"].tolist()
    invalid_transit = 0
    invalid_member_transit = 0
    for group in range(len(prefix_offsets) - 1):
        group_transits = transits[
            transit_offsets[group]:transit_offsets[group + 1]
        ]
        member_transits = sum(1 for t in group_transits if t in members)
        for row in range(prefix_offsets[group], prefix_offsets[group + 1]):
            if invalid[rpki[row]]:
                invalid_transit += len(group_transits)
                invalid_member_transit += member_transits
    scores = preference_scores(dataset, world.members())
    invalid_scores = scores["invalid"]
    prefer = (
        sum(1 for s in invalid_scores if s > 0) / len(invalid_scores)
        if invalid_scores
        else 0.0
    )
    return ComplianceScenario(
        label=label,
        visible_invalid_announcements=visible_invalid,
        invalid_member_transit_pairs=invalid_member_transit,
        invalid_transit_pairs=invalid_transit,
        invalid_prefer_manrs=prefer,
    )


def render(result: CounterfactualResult) -> str:
    """Tabulate measured vs counterfactual."""
    lines = [
        "Counterfactual — full MANRS member compliance",
        f"{'scenario':>16}  {'visible invalids':>16}  "
        f"{'via members':>11}  {'via anyone':>10}  {'%invalid>0 pref':>15}",
    ]
    for scenario in (result.measured, result.full_compliance):
        lines.append(
            f"{scenario.label:>16}  "
            f"{scenario.visible_invalid_announcements:16d}  "
            f"{scenario.invalid_member_transit_pairs:11d}  "
            f"{scenario.invalid_transit_pairs:10d}  "
            f"{100 * scenario.invalid_prefer_manrs:14.1f}%"
        )
    lines.append(
        f"invalid visibility reduced by "
        f"{100 * result.invalid_visibility_reduction:.1f}%"
    )
    return "\n".join(lines)
