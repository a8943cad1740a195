"""MANRS recruitment model: who joins, when, and with which ASNs.

Reproduces the growth dynamics the paper highlights (§7, Figures 2/4):

* slow early growth from 2015, acceleration from 2019;
* a 2020 wave of small LACNIC (Brazilian) networks driven by NIC.br
  outreach — many member ASes, little address space;
* the CDN & Cloud Provider program launching in 2020, pulling in the
  large content networks (the ARIN address-space jump);
* one very large APNIC transit provider joining in 2020 (the China
  Telecom analogue behind the APNIC address-space jump).

Organisations register all their ASNs with probability ~0.70 and a proper
subset otherwise (Finding 7.0); a registered subset occasionally misses
the announcing AS entirely (the paper found 8 such organisations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np

from repro.manrs.actions import Program
from repro.manrs.registry import MANRSRegistry, Participant
from repro.registry.rir import RIR
from repro.topology.generator import WeightedPick, uniform_picks
from repro.topology.model import ASCategory, ASTopology, Organization

__all__ = ["RecruitmentConfig", "recruit"]


@dataclass
class RecruitmentConfig:
    """Probabilities and waves driving MANRS membership growth."""

    #: Probability an org has joined by the final year, by the category of
    #: its primary AS.
    join_probability: dict[ASCategory, float] = field(
        default_factory=lambda: {
            ASCategory.LARGE_TRANSIT: 0.40,
            ASCategory.MEDIUM_ISP: 0.34,
            ASCategory.SMALL_ISP: 0.28,
            ASCategory.STUB: 0.022,
            ASCategory.CDN: 0.65,
            ASCategory.IXP: 0.0,
        }
    )
    #: Join-year weights for ordinary (non-wave) participants, 2015..2022.
    year_weights: tuple[float, ...] = (0.03, 0.03, 0.04, 0.06, 0.12, 0.30, 0.26, 0.16)
    first_year: int = 2015
    last_year: int = 2022
    #: Extra probability for small Brazilian orgs, all joining in the 2020
    #: NIC.br wave.
    brazil_wave_probability: float = 0.12
    brazil_wave_year: int = 2020
    #: The CDN program only exists from this year.
    cdn_program_start: int = 2020
    #: Probability that a joining org (with several ASNs) registers *all*
    #: of them; calibrated so that ~70% of member orgs end up fully
    #: registered overall (Finding 7.0), counting single-AS orgs.
    register_all_probability: float = 0.25
    #: Probability that a registered subset misses the primary AS.
    miss_primary_probability: float = 0.05


def recruit(
    topology: ASTopology,
    config: RecruitmentConfig | None = None,
    seed: int = 0,
) -> MANRSRegistry:
    """Build the MANRS registry for ``topology`` (deterministic by seed)."""
    config = config or RecruitmentConfig()
    rng = np.random.default_rng(seed)
    registry = MANRSRegistry()
    years = list(range(config.first_year, config.last_year + 1))
    year_pick = WeightedPick(config.year_weights)

    flagship = _flagship_apnic_transit(topology)

    for org in topology.organizations:
        if not org.asns:
            continue
        primary = org.asns[0]
        category = topology.get_as(primary).category
        program = Program.CDN if category is ASCategory.CDN else Program.ISP

        joins = rng.random() < config.join_probability.get(category, 0.0)
        join_year: int | None = None
        if org.org_id == flagship:
            joins, join_year = True, config.brazil_wave_year
        elif (
            not joins
            and org.country == "BR"
            and category in (ASCategory.STUB, ASCategory.SMALL_ISP)
            and rng.random() < config.brazil_wave_probability
        ):
            joins, join_year = True, config.brazil_wave_year
        if not joins:
            continue

        if join_year is None:
            join_year = years[year_pick.one(rng)]
        if program is Program.CDN:
            join_year = max(join_year, config.cdn_program_start)
        joined = date(join_year, 1, 1) + timedelta(days=int(rng.integers(0, 364)))

        asns = _registered_subset(org, rng, config)
        registry.add(
            Participant(org_id=org.org_id, program=program, asns=asns, joined=joined)
        )
    return registry


def _registered_subset(
    org: Organization,
    rng: np.random.Generator,
    config: RecruitmentConfig,
) -> tuple[int, ...]:
    """Which of the org's ASNs get registered."""
    asns = sorted(org.asns)
    if len(asns) == 1 or rng.random() < config.register_all_probability:
        return tuple(asns)
    keep = max(1, int(rng.integers(1, len(asns))))
    if rng.random() < config.miss_primary_probability and len(asns) > 1:
        pool = asns[1:]  # skip the primary (announcing) AS entirely
    else:
        pool = asns
        if keep < len(asns):
            # The primary AS is always among the registered ones in the
            # common case: members register their main network first.
            chosen = {asns[0]}
            chosen.update(
                asns[1 + i] for i in uniform_picks(rng, len(asns) - 1, keep - 1)
            )
            return tuple(sorted(chosen))
    keep = min(keep, len(pool))
    return tuple(sorted(pool[i] for i in uniform_picks(rng, len(pool), keep)))


def _flagship_apnic_transit(topology: ASTopology) -> str | None:
    """The org id of the largest APNIC large-transit AS (by customer cone).

    This org is forced to join in the wave year, reproducing the APNIC
    address-space jump of Figure 4b.
    """
    candidates = [
        asn
        for asn in topology.asns
        if topology.get_as(asn).category is ASCategory.LARGE_TRANSIT
        and topology.get_as(asn).rir is RIR.APNIC
    ]
    if not candidates:
        return None
    best = max(candidates, key=lambda asn: len(topology.customer_cone(asn)))
    return topology.get_as(best).org_id
