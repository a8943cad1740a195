"""Historical timeline: annual snapshots 2015–2022 and weekly churn.

The paper's longitudinal analyses need two time axes:

* **annual** (Figures 2, 4a, 4b, 6): membership grows along the join
  dates from the recruitment model, and the RPKI fills in along each AS's
  adoption year (ROA ``not_before`` dates), while the routing table is
  held at its final shape — exactly the approximation the paper makes
  when it overlays historical membership on contemporary prefix2as
  snapshots;
* **weekly** (§8.5, Finding 8.7): twelve weekly snapshots around the
  analysis date with light registration churn, producing the stable /
  flapping conformance split.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from repro import obs
from repro.core.conformance import origination_stats
from repro.core.impact import rpki_saturation
from repro.core.participation import members_by_rir, routed_space_share_by_rir
from repro.manrs.actions import Program, action4_threshold
from repro.registry.rir import RIR
from repro.rpki.rov import ROVValidator
from repro.rpki.validator import IncrementalRelyingParty
from repro.scenario.world import World
from repro.topology.generator import uniform_picks

__all__ = [
    "GrowthPoint",
    "PrefixChurn",
    "SaturationPoint",
    "Timeline",
    "WeeklyConformance",
    "flagship_prefix_churn",
    "weekly_member_conformance",
]


@dataclass(frozen=True)
class GrowthPoint:
    """MANRS size at the end of one year (Figure 2)."""

    year: int
    organizations: int
    asns: int


@dataclass(frozen=True)
class SaturationPoint:
    """RPKI saturation split at the end of one year (Figure 6)."""

    year: int
    manrs_saturation: float
    other_saturation: float


class Timeline:
    """Annual series derived from one built world.

    Each year's validator starts empty: the saturation sweep answers
    coverage from the validator's interval index in one vectorised
    probe, which leaves no per-route verdicts to carry between years.
    """

    def __init__(self, world: World):
        self._world = world
        self._rov_cache: dict[int, ROVValidator] = {}
        # One incremental relying party serves every year: per-ROA
        # validity windows are precomputed once, and each additional
        # year-end costs date comparisons only (objects whose windows the
        # year boundary does not cross keep their verdict for free).
        # Built on the first validation: growth and the RIR series never
        # read the repository.
        self._relying_party: IncrementalRelyingParty | None = None
        config = world.config
        self.years = list(
            range(config.first_year, config.snapshot_date.year + 1)
        )

    def _year_end(self, year: int) -> date:
        if year == self._world.config.snapshot_date.year:
            return self._world.config.snapshot_date
        return date(year, 12, 31)

    def rov_at(self, year: int) -> ROVValidator:
        """ROV validator over the VRPs published by the end of ``year``."""
        validator = self._rov_cache.get(year)
        if validator is None:
            if self._relying_party is None:
                self._relying_party = IncrementalRelyingParty(
                    self._world.rpki_repository
                )
            with obs.span("timeline.rov_at", year=year), obs.gc_paused():
                report = self._relying_party.validate(self._year_end(year))
                validator = ROVValidator(report.vrps)
            obs.add("timeline.rov_years_validated")
            self._rov_cache[year] = validator
        else:
            obs.add("timeline.rov_cache_hits")
        return validator

    def to_archive(self) -> "VRPArchive":
        """Materialise the annual VRP sets as a dated archive.

        This is the RIPE-style archive (§5.4) a downstream user would
        store on disk: one snapshot per year-end, reconstructable into a
        validator via :class:`~repro.rpki.rov.ROVValidator`.
        """
        from repro.rpki.archive import VRPArchive

        archive = VRPArchive()
        for year in self.years:
            archive.add_snapshot(
                self._year_end(year), list(self.rov_at(year).all_vrps())
            )
        return archive

    def growth(self) -> list[GrowthPoint]:
        """Figure 2: MANRS organisations and ASes per year."""
        points = []
        for year in self.years:
            as_of = self._year_end(year)
            points.append(
                GrowthPoint(
                    year=year,
                    organizations=len(self._world.manrs.member_orgs(as_of=as_of)),
                    asns=len(self._world.manrs.member_asns(as_of=as_of)),
                )
            )
        return points

    def members_by_rir_series(self) -> dict[RIR, list[tuple[int, int]]]:
        """Figure 4a: member AS counts per RIR per year."""
        series: dict[RIR, list[tuple[int, int]]] = {rir: [] for rir in RIR}
        for year in self.years:
            counts = members_by_rir(
                self._world.topology, self._world.manrs, self._year_end(year)
            )
            for rir, count in counts.items():
                series[rir].append((year, count))
        return series

    def routed_share_series(self) -> dict[RIR, list[tuple[int, float]]]:
        """Figure 4b: % of routed IPv4 space announced by members, per RIR."""
        series: dict[RIR, list[tuple[int, float]]] = {rir: [] for rir in RIR}
        for year in self.years:
            shares = routed_space_share_by_rir(
                self._world.topology,
                self._world.manrs,
                self._world.prefix2as,
                self._year_end(year),
            )
            for rir, share in shares.items():
                series[rir].append((year, share))
        return series

    def saturation_series(self) -> list[SaturationPoint]:
        """Figure 6: RPKI saturation of member vs non-member space."""
        points = []
        # The per-year sweeps churn through large transient prefix lists;
        # none of it is cyclic, so collection is paused for the batch.
        with obs.span("timeline.saturation_series"), obs.gc_paused():
            for year in self.years:
                members = self._world.manrs.member_asns(
                    as_of=self._year_end(year)
                )
                manrs_report, other_report = rpki_saturation(
                    self._world.prefix2as, self.rov_at(year), members
                )
                points.append(
                    SaturationPoint(
                        year=year,
                        manrs_saturation=manrs_report.saturation,
                        other_saturation=other_report.saturation,
                    )
                )
        return points


@dataclass(frozen=True)
class PrefixChurn:
    """Prefix-level churn of one network over the weekly window (§8.5).

    The paper's CDN1 stopped announcing 80 prefixes, announced 141 new
    ones, and kept 3,822 stable-and-conformant over its three months.
    """

    asn: int
    stable: int
    withdrawn: int
    added: int
    #: Of the stable prefixes, how many changed conformance status.
    status_changes: int


def flagship_prefix_churn(
    world: World,
    n_weeks: int = 12,
    withdraw_rate: float = 0.02,
    add_rate: float = 0.035,
    seed: int = 0,
) -> dict[int, PrefixChurn]:
    """Prefix-level churn for the biggest CDN originators.

    Rates are per window (not per week): a big content network grows its
    announcement set a few percent per quarter while retiring a smaller
    share, and almost no active prefix changes conformance status —
    matching the per-prefix stability §8.5 reports.

    A network's prefix count is its rows in the RIB, which holds one
    row per announced route whether or not a vantage point saw it.
    """
    rng = np.random.default_rng(seed)
    members = world.manrs.member_asns(
        as_of=world.snapshot_date, program=Program.CDN
    )
    origins, routes = np.unique(world.rib.row_origins(), return_counts=True)
    announced = dict(zip(origins.tolist(), routes.tolist()))
    counts = {asn: announced[asn] for asn in members if asn in announced}
    flagships = sorted(counts, key=counts.get, reverse=True)[:3]
    churn: dict[int, PrefixChurn] = {}
    for asn in flagships:
        total = counts[asn]
        withdrawn = int(rng.binomial(total, withdraw_rate))
        added = int(rng.binomial(total, add_rate))
        stable = total - withdrawn
        # Conformance status flips are rare: registrations barely change
        # over three months (the paper saw 0–2 per CDN).
        status_changes = int(rng.binomial(stable, 0.002))
        churn[asn] = PrefixChurn(
            asn=asn,
            stable=stable,
            withdrawn=withdrawn,
            added=added,
            status_changes=status_changes,
        )
    return churn


@dataclass
class WeeklyConformance:
    """Weekly Action 4 conformance series for member ASes (§8.5)."""

    dates: list[date]
    #: Per week, OG_conformant percent per member AS.
    percentages: list[dict[int, float]]
    #: Per week, threshold verdict per member AS.
    verdicts: list[dict[int, bool]]
    #: ASNs whose conformance was deliberately perturbed.
    flapped: frozenset[int]


def weekly_member_conformance(
    world: World,
    n_weeks: int = 12,
    flap_fraction: float = 0.02,
    seed: int = 0,
) -> WeeklyConformance:
    """Generate weekly conformance snapshots with registration churn.

    The base week reproduces the world's snapshot; a small fraction of
    otherwise-conformant member ASes suffer a transient registration
    problem (an expired/changed route object) for a contiguous run of
    weeks — the paper's 11 flapping ASes.  Consistently unconformant ASes
    stay unconformant throughout, as §8.5 observed.
    """
    rng = np.random.default_rng(seed)
    snapshot = world.snapshot_date
    dates = [snapshot - timedelta(weeks=n_weeks - 1 - i) for i in range(n_weeks)]
    stats = origination_stats(world.ihr)
    members = sorted(world.members())

    base: dict[int, float] = {}
    totals: dict[int, int] = {}
    for asn in members:
        as_stats = stats.get(asn)
        if as_stats is None or as_stats.total == 0:
            continue  # trivially conformant ASes have no weekly series
        base[asn] = as_stats.og_conformant
        totals[asn] = as_stats.total

    thresholds = {
        asn: action4_threshold(
            world.manrs.program_of(asn, snapshot) or Program.ISP
        )
        for asn in base
    }
    conformant_asns = [
        asn for asn, pct in base.items() if pct >= thresholds[asn]
    ]
    n_flap = int(round(flap_fraction * len(conformant_asns)))
    flapped = {
        conformant_asns[i]
        for i in uniform_picks(rng, len(conformant_asns), n_flap)
    }
    # Each flap is an event pair — the registration problem appearing
    # (+1) and clearing (-1) — replayed in week order against a set of
    # active dips, the same stream-of-changes shape the delta layer uses
    # for full worlds.  Draw order matches the old per-AS window loop, so
    # the series is numerically identical.
    dip_events: list[tuple[int, int, int]] = []
    for asn in flapped:
        start = int(rng.integers(0, max(1, n_weeks - 2)))
        length = int(rng.integers(1, 4))
        dip_events.append((start, asn, +1))
        dip_events.append((min(n_weeks, start + length), asn, -1))
    dip_events.sort()

    percentages: list[dict[int, float]] = []
    verdicts: list[dict[int, bool]] = []
    active: set[int] = set()
    cursor = 0
    for week in range(n_weeks):
        while cursor < len(dip_events) and dip_events[cursor][0] <= week:
            _, asn, direction = dip_events[cursor]
            if direction > 0:
                active.add(asn)
            else:
                active.discard(asn)
            cursor += 1
        week_pct: dict[int, float] = {}
        for asn, pct in base.items():
            if asn in active:
                # Enough prefixes lose registration to dip under the bar.
                total = totals[asn]
                deficit = max(1, int(np.ceil(total * 0.15)))
                pct = max(0.0, 100.0 * (round(pct / 100.0 * total) - deficit) / total)
            week_pct[asn] = pct
        percentages.append(week_pct)
        verdicts.append(
            {asn: pct >= thresholds[asn] for asn, pct in week_pct.items()}
        )
    return WeeklyConformance(
        dates=dates,
        percentages=percentages,
        verdicts=verdicts,
        flapped=frozenset(flapped),
    )
