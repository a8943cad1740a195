"""Ablations for the design choices DESIGN.md §6 calls out.

* **ROV-deployment sensitivity** — Figure 9's separation between Invalid
  and Valid preference scores as a function of how many large MANRS
  transits deploy ROV.  Turning ROV off should erase the separation:
  the preference-score signal measures *filtering*, not membership.
* **Vantage-point sensitivity** — §11's "limited routing table
  visibility" limitation made quantitative: how Action 4 conformance
  estimates move as the collector's vantage-point set shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.bgp.collector import collect_rib
from repro.core.conformance import (
    is_action4_conformant,
    origination_stats,
)
from repro.core.impact import preference_scores
from repro.ihr.pipeline import build_ihr_dataset
from repro.manrs.actions import Program
from repro.scenario.world import World
from repro.topology.classify import SizeClass

__all__ = [
    "RovAblationPoint",
    "rov_deployment_ablation",
    "VisibilityPoint",
    "visibility_ablation",
    "render_rov_ablation",
    "render_visibility_ablation",
]


@dataclass(frozen=True)
class RovAblationPoint:
    """Figure 9 statistics at one large-member ROV deployment level."""

    deployed_large_members: int
    invalid_prefer_manrs: float
    valid_prefer_manrs: float

    @property
    def separation(self) -> float:
        """Valid minus Invalid MANRS-preference fraction."""
        return self.valid_prefer_manrs - self.invalid_prefer_manrs


def rov_deployment_ablation(
    world: World, levels: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0)
) -> list[RovAblationPoint]:
    """Recompute Figure 9 while sweeping ROV among large MANRS transits.

    Re-propagates the world's announcements under modified policies and
    rebuilds the transit dataset per level — the full measurement loop.
    Only route classes whose filter tables no ROV setting changes reuse
    the world's memoised paths, which is sound because equal tables
    propagate identically.
    """
    members = world.members()
    large_members = sorted(
        (
            asn
            for asn, size in world.size_of.items()
            if size is SizeClass.LARGE and asn in members
        ),
        key=lambda a: -len(world.topology.customer_cone(a)),
    )
    routes = world.rib.route_rows()
    points = []
    for level in levels:
        n_deployed = round(level * len(large_members))
        # Derived from the world's engine: the classes no ROV setting
        # touches keep their memoised paths.
        engine = world.engine.derive(
            policies={
                asn: replace(world.policies[asn], rov=index < n_deployed)
                for index, asn in enumerate(large_members)
            }
        )
        rib = collect_rib(engine, routes, world.vantage_points)
        dataset = build_ihr_dataset(rib, world.rov, world.irr, world.topology)
        scores = preference_scores(dataset, members)
        points.append(
            RovAblationPoint(
                deployed_large_members=n_deployed,
                invalid_prefer_manrs=_positive_fraction(scores["invalid"]),
                valid_prefer_manrs=_positive_fraction(scores["valid"]),
            )
        )
    return points


def _positive_fraction(values: list[float]) -> float:
    if not values:
        return 0.0
    return sum(1 for v in values if v > 0) / len(values)


@dataclass(frozen=True)
class VisibilityPoint:
    """Conformance estimate at one vantage-point count (§11)."""

    n_vantage_points: int
    visible_prefix_origins: int
    isp_conformance_pct: float


def visibility_ablation(
    world: World, fractions: tuple[float, ...] = (0.1, 0.25, 0.5, 1.0)
) -> list[VisibilityPoint]:
    """Shrink the vantage-point set and re-estimate ISP Action 4
    conformance.

    Fewer vantage points means fewer observed prefix-origins, so
    unconformant announcements can escape scrutiny — the overestimation
    §11 warns about.
    """
    member_isps = world.manrs.member_asns(
        as_of=world.snapshot_date, program=Program.ISP
    )
    routes = world.rib.route_rows()
    points = []
    for fraction in fractions:
        count = max(1, round(fraction * len(world.vantage_points)))
        vantage_points = world.vantage_points[:count]
        rib = collect_rib(world.engine, routes, vantage_points)
        dataset = build_ihr_dataset(rib, world.rov, world.irr, world.topology)
        stats = origination_stats(dataset)
        conformant = sum(
            1
            for asn in member_isps
            if is_action4_conformant(stats.get(asn), Program.ISP)
        )
        points.append(
            VisibilityPoint(
                n_vantage_points=count,
                visible_prefix_origins=len(dataset.arrays["po_origin"]),
                isp_conformance_pct=100.0 * conformant / len(member_isps)
                if member_isps
                else 100.0,
            )
        )
    return points


def render_rov_ablation(points: list[RovAblationPoint]) -> str:
    """Tabulate the ROV sweep."""
    lines = [
        "Ablation — Figure 9 separation vs large-member ROV deployment",
        f"{'deployed':>8}  {'%invalid>0':>10}  {'%valid>0':>8}  {'separation':>10}",
    ]
    for point in points:
        lines.append(
            f"{point.deployed_large_members:8d}  "
            f"{100 * point.invalid_prefer_manrs:9.1f}%  "
            f"{100 * point.valid_prefer_manrs:7.1f}%  "
            f"{100 * point.separation:9.1f}%"
        )
    return "\n".join(lines)


def render_visibility_ablation(points: list[VisibilityPoint]) -> str:
    """Tabulate the vantage-point sweep."""
    lines = [
        "Ablation — conformance estimate vs collector visibility (§11)",
        f"{'VPs':>4}  {'visible pfx-origins':>19}  {'ISP conformance':>15}",
    ]
    for point in points:
        lines.append(
            f"{point.n_vantage_points:4d}  {point.visible_prefix_origins:19d}  "
            f"{point.isp_conformance_pct:14.1f}%"
        )
    return "\n".join(lines)
