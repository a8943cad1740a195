"""World builder: ground truth → registries → measurement pipeline.

``build_world`` is the single entry point most examples, tests and
benchmarks use.  It wires together every substrate in dependency order:

1. generate the AS topology and MANRS membership;
2. sample per-AS registration/filtering behaviour (conditioned on size
   class and membership, per the calibration in ``scenario.config``);
3. allocate address space and decide what every AS announces;
4. populate the RPKI (certificates + ROAs, including misconfigurations)
   and the IRR (route objects, including stale ones);
5. run the relying party, assign import policies, propagate all
   announcements to the collector vantage points;
6. derive the IHR datasets and prefix2as mapping.

Steps 5–6 are :func:`derive_measurements`, the derived half of a world.
:func:`repro.delta.rebuild.cold_rebuild` runs the same function over
event-mutated inputs, so a build and a rebuild derive one way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date, timedelta
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro import config as _runtime_config
from repro import obs
from repro.config import RuntimeConfig
from repro.bgp.collector import (
    RibSnapshot,
    RouteRows,
    collect_rib,
    select_vantage_points,
)
from repro.bgp.policy import ASPolicy
from repro.bgp.propagation import PropagationEngine
from repro.bgp.table import Prefix2AS
from repro.errors import AllocationError
from repro.ihr.pipeline import build_ihr_dataset
from repro.ihr.records import IHRDataset
from repro.irr.database import IRRCollection, IRRDatabase, route_rows
from repro.irr.objects import AsSetObject, AutNumObject, as_set_member
from repro.irr.validation import validate_irr_rows
from repro.kernels.intervals import (
    INVALID_LENGTH,
    INVALID_ORIGIN,
    route_key_columns,
)
from repro.manrs.actions import Program
from repro.manrs.recruitment import RecruitmentConfig, recruit
from repro.manrs.registry import MANRSRegistry
from repro.net.prefix import Prefix
from repro.registry.allocation import AddressSpace
from repro.registry.rir import RIR
from repro.rpki.ca import ResourceCertificate, RPKIRepository
from repro.rpki.roa import ROA
from repro.rpki.rov import ROVValidator
from repro.rpki.validator import RelyingParty
from repro.scenario.config import ScenarioConfig
from repro.scenario.world import ASBehavior, Origination, World, derive_policies
from repro.topology.as2org import As2Org
from repro.topology.classify import SizeClass, classify_all
from repro.topology.generator import (
    TopologyConfig,
    WeightedPick,
    generate_topology,
)
from repro.topology.model import ASCategory, ASTopology

__all__ = ["Measurements", "build_world", "derive_measurements", "route_table"]

_RADB = "RADB"


def build_world(
    scale: float = 1.0,
    seed: int = 0,
    config: ScenarioConfig | None = None,
    topology_config: TopologyConfig | None = None,
    recruitment_config: RecruitmentConfig | None = None,
    runtime: RuntimeConfig | None = None,
) -> World:
    """Build a complete world.

    ``scale`` multiplies the topology population counts: 1.0 is the
    paper-shaped default (~10k ASes), small values (0.05–0.2) build
    test-sized worlds in well under a second.

    ``runtime`` installs a :class:`repro.config.RuntimeConfig` for the
    duration of the build.  No build stage reads a knob: the build runs
    in this process, in bounded batches (DESIGN §18).
    """
    with _runtime_config.use(runtime), obs.gc_paused(freeze=True):
        return _build_world(
            scale, seed, config, topology_config, recruitment_config
        )


def _build_world(
    scale: float,
    seed: int,
    config: ScenarioConfig | None,
    topology_config: TopologyConfig | None,
    recruitment_config: RecruitmentConfig | None,
) -> World:
    config = config or ScenarioConfig()
    topology_config = (topology_config or TopologyConfig()).scaled(scale)
    rng = np.random.default_rng(seed)

    with obs.span("build.topology", scale=scale, seed=seed):
        generated = generate_topology(topology_config, seed=seed)
        topology = generated.topology
        manrs = recruit(topology, recruitment_config, seed=seed + 1)
        as2org = As2Org.from_topology(topology)
        size_of = classify_all(topology)
        obs.add("build.ases", len(topology.asns))
        obs.add("build.participants", len(manrs.participants))

    ctx = _BuildContext(
        config=config,
        rng=rng,
        topology=topology,
        quiescent=generated.quiescent,
        manrs=manrs,
        size_of=size_of,
    )
    with obs.span("build.behaviors"):
        ctx.pick_special_orgs()
        ctx.sample_behaviors()
        ctx.assign_rov_by_rank()
        obs.add(
            "build.rov_deployers",
            sum(1 for b in ctx.behaviors.values() if b.rov),
        )
    with obs.span("build.originations"):
        ctx.allocate_originations()
        obs.add(
            "build.originations",
            sum(len(o) for o in ctx.originations.values()),
        )
    with obs.span("build.rpki"):
        ctx.populate_rpki()
        obs.add("build.roas", len(ctx.rpki_repository.roas))
    with obs.span("build.irr"):
        ctx.populate_irr()
        obs.add("build.irr_routes", ctx.irr.route_count)

    with obs.span("build.policies"):
        policies = derive_policies(topology, ctx.behaviors)
    with obs.span("build.vantage_points"):
        vantage_points = select_vantage_points(
            topology,
            n_medium=config.n_medium_vantage_points,
            n_small=config.n_small_vantage_points,
            seed=seed + 2,
        )
    measured = derive_measurements(
        topology=topology,
        policies=policies,
        repository=ctx.rpki_repository,
        irr=ctx.irr,
        originations=ctx.originations,
        vantage_points=vantage_points,
        snapshot=config.snapshot_date,
    )
    return World(
        config=config,
        seed=seed,
        topology=topology,
        quiescent=generated.quiescent,
        as2org=as2org,
        size_of=size_of,
        manrs=manrs,
        address_space=ctx.address_space,
        originations={a: tuple(o) for a, o in ctx.originations.items()},
        behaviors=ctx.behaviors,
        policies=policies,
        rpki_repository=ctx.rpki_repository,
        irr=ctx.irr,
        vantage_points=vantage_points,
        scale=scale,
        **measured._asdict(),
    )


class Measurements(NamedTuple):
    """The derived half of a world: what the measurement pipeline
    computes from its registries, topology and policies."""

    engine: PropagationEngine
    rov: ROVValidator
    rib: RibSnapshot
    ihr: IHRDataset
    prefix2as: Prefix2AS


def route_table(
    originations: Mapping[int, Sequence[Origination]],
) -> list[tuple[Prefix, int]]:
    """Every announced (prefix, origin) pair, in classify order.

    Events change registries and policies, never what is announced, so
    the builder, the live world and its cover index share this table.
    """
    return [
        (origination.prefix, asn)
        for asn in sorted(originations)
        for origination in originations[asn]
    ]


def derive_measurements(
    *,
    topology: ASTopology,
    policies: Mapping[int, ASPolicy],
    repository: RPKIRepository,
    irr: IRRCollection,
    originations: Mapping[int, Sequence[Origination]],
    vantage_points: Sequence[int],
    snapshot: date,
) -> Measurements:
    """Run the measurement pipeline over a world's inputs.

    Relying party → ROV/IRR classification → propagation engine →
    collector RIB → prefix2as → IHR, under the ``build.*`` spans.
    :func:`build_world` runs it over freshly generated inputs and
    :func:`repro.delta.rebuild.cold_rebuild` over event-mutated ones.
    """
    with obs.span("build.relying_party"):
        rov = ROVValidator(RelyingParty(repository).validate(snapshot).vrps)

    with obs.span("build.classify"):
        # Each route is a row of one integer table, from classification
        # to the stored RIB.  Classification also warms the validators'
        # per-route memos, which the IHR pipeline re-queries for the
        # visible routes below.
        routes = route_table(originations)
        columns = route_key_columns(routes)
        rpki = rov.validate_rows(routes, columns)
        irr_codes = validate_irr_rows(irr, routes, columns)
        rows = RouteRows(
            *columns,
            rpki >= INVALID_LENGTH,
            irr_codes == INVALID_ORIGIN,
            [prefix for prefix, _ in routes],
        )
        obs.add("build.routes_classified", len(routes))
        obs.add("build.routes_rpki_invalid", int(rows.rpki_invalid.sum()))
        obs.add("build.routes_irr_invalid", int(rows.irr_invalid.sum()))

    with obs.span("build.collect_rib"):
        engine = PropagationEngine(topology, policies)
        rib = collect_rib(engine, rows, vantage_points)
        # The memo now holds views over the batches' path columns; held
        # as views over the RIB instead, no batch outlives the build.
        engine.seed_cache(
            rib.vantage_points,
            zip(rib.arrays["rib_origin"].tolist(), rib.route_classes()),
            rib.group_paths(),
        )
    prefix2as = Prefix2AS.from_rib(rib)
    with obs.span("build.ihr"):
        ihr = build_ihr_dataset(rib, rov, irr, topology)
    return Measurements(
        engine=engine, rov=rov, rib=rib, ihr=ihr, prefix2as=prefix2as
    )


@dataclass
class _BuildContext:
    """Mutable state threaded through the build steps."""

    config: ScenarioConfig
    rng: np.random.Generator
    topology: ASTopology
    quiescent: frozenset[int]
    manrs: MANRSRegistry
    size_of: dict[int, SizeClass]

    def __post_init__(self) -> None:
        self.address_space = AddressSpace()
        self.originations: dict[int, list[Origination]] = {}
        self.behaviors: dict[int, ASBehavior] = {}
        self.rpki_repository = RPKIRepository()
        self.irr = IRRCollection()
        self.org_certs: dict[str, ResourceCertificate] = {}
        #: ASNs of the CDN flagships (Table 1's CDN1..CDN3 analogues).
        self.flagship_cdns: tuple[int, ...] = ()
        #: ASN of the APNIC flagship transit (China Telecom analogue).
        self.flagship_transit: int | None = None
        #: Registered member ASNs of the "ISP1" analogue: a big multi-AS
        #: member whose neglected sibling ASes stay unconformant (§8.3).
        self.neglected_siblings: frozenset[int] = frozenset()
        #: Prefixes per AS that got a correct ROA (filled by populate_rpki,
        #: consumed by populate_irr to couple the two registrations).
        self.roa_prefixes: dict[int, set[Prefix]] = {}
        #: The primary AS of the ISP1 analogue (kept off ROV so its
        #: siblings' RPKI-Invalid announcements are observable, as the
        #: paper's Table 1 shows for the real ISP1).
        self.isp1_primary: int | None = None

    # -- step 1: special organisations -------------------------------------

    def pick_special_orgs(self) -> None:
        """Designate flagship CDNs, the APNIC flagship, and ISP1."""
        snapshot = self.config.snapshot_date
        cdn_members = [
            p
            for p in self.manrs.participants_in(Program.CDN)
            if p.joined <= snapshot
        ]
        flagships: list[int] = []
        for participant in sorted(cdn_members, key=lambda p: p.org_id)[:3]:
            announcing = [a for a in participant.asns if a not in self.quiescent]
            if announcing:
                flagships.append(min(announcing))
        self.flagship_cdns = tuple(flagships)

        transits = [
            asn
            for asn in self.topology.asns
            if self.topology.get_as(asn).category is ASCategory.LARGE_TRANSIT
            and self.topology.get_as(asn).rir is RIR.APNIC
        ]
        if transits:
            self.flagship_transit = max(
                transits, key=lambda a: len(self.topology.customer_cone(a))
            )

        isp_members = [
            p
            for p in self.manrs.participants_in(Program.ISP)
            if p.joined <= snapshot and len(p.asns) >= 4
        ]
        if isp_members:
            def announcing_siblings(participant):
                primary = self.topology.get_org(participant.org_id).asns[0]
                return [
                    asn
                    for asn in participant.asns
                    if asn != primary and asn not in self.quiescent
                ]

            isp1 = max(isp_members, key=lambda p: len(announcing_siblings(p)))
            self.neglected_siblings = frozenset(announcing_siblings(isp1))
            self.isp1_primary = self.topology.get_org(isp1.org_id).asns[0]

    # -- step 2: behaviours --------------------------------------------------

    def sample_behaviors(self) -> None:
        snapshot = self.config.snapshot_date
        behavior_config = self.config.behavior
        # Adoption-year picks (offsets from first_year), one per
        # membership arm.
        adoption_picks = {
            True: WeightedPick(self.config.member_adoption_weights),
            False: WeightedPick(self.config.nonmember_adoption_weights),
        }
        for asn in self.topology.asns:
            member = self.manrs.is_member(asn, snapshot)
            program = self.manrs.program_of(asn, snapshot)
            size = self.size_of[asn]
            is_cdn_member = member and program is Program.CDN
            if is_cdn_member:
                registration = behavior_config.cdn_member_registration
            else:
                registration = behavior_config.registration[(size, member)]
            filtering = behavior_config.filtering[(size, member)]

            rpki_fraction = self._sample_fraction(
                registration.rpki_all,
                registration.rpki_none,
                registration.rpki_partial_range,
            )
            irr_fraction = self._sample_fraction(
                registration.irr_all,
                registration.irr_none,
                registration.irr_partial_range,
            )
            misconfig_count = 0
            if self.rng.random() < registration.rpki_misconfig:
                misconfig_count = 1 + int(
                    self.rng.poisson(max(registration.rpki_misconfig_mean - 1, 0))
                )
            stale_fraction = 0.0
            if self.rng.random() < registration.irr_stale:
                stale_fraction = min(
                    1.0,
                    registration.irr_stale_fraction
                    * (0.5 + self.rng.random()),
                )
            if member and rpki_fraction == 0.0:
                # Members relying on the IRR alone tend to keep it
                # accurate — staleness concentrates in RPKI adopters
                # whose IRR records rot (§8.2's explanation).
                stale_fraction *= 0.25
            adoption_pick = adoption_picks[member]
            adoption_year = self.config.first_year + adoption_pick.one(self.rng)
            if is_cdn_member:
                adoption_year = max(adoption_year, 2020)

            filters = self.rng.random() < filtering.filter_customers
            low, high = filtering.filter_coverage
            coverage = (
                float(low + (high - low) * self.rng.random()) if filters else 0.0
            )
            behavior = ASBehavior(
                member=member,
                program=program,
                rpki_fraction=rpki_fraction,
                rpki_misconfig_count=misconfig_count,
                irr_fraction=irr_fraction,
                irr_stale_fraction=stale_fraction,
                rov=self.rng.random() < filtering.rov,
                filter_customers=filters,
                filter_coverage=coverage,
                rpki_adoption_year=adoption_year,
            )
            self.behaviors[asn] = self._apply_overrides(asn, behavior)

    def assign_rov_by_rank(self) -> None:
        """Re-assign ROV deployment among large ASes by hegemony rank.

        Measurement studies ([56], [7]) found ROV concentrated in the very
        largest MANRS transit providers; giving ROV to the top-cone MANRS
        larges (rather than a uniform sample) is what produces Figure 9's
        separation — RPKI Invalid routes must detour around exactly the
        networks most likely to be on any path.
        """
        filtering = self.config.behavior.filtering
        larges = [
            asn for asn, size in self.size_of.items() if size is SizeClass.LARGE
        ]
        member_larges = sorted(
            (a for a in larges if self.behaviors[a].member),
            key=lambda a: -len(self.topology.customer_cone(a)),
        )
        other_larges = [a for a in larges if not self.behaviors[a].member]
        self.rng.shuffle(other_larges)
        member_rate = filtering[(SizeClass.LARGE, True)].rov
        other_rate = filtering[(SizeClass.LARGE, False)].rov
        rov_set = set(member_larges[: round(member_rate * len(member_larges))])
        rov_set.update(other_larges[: round(other_rate * len(other_larges))])
        if self.isp1_primary is not None:
            rov_set.discard(self.isp1_primary)
        for asn in larges:
            behavior = self.behaviors[asn]
            wanted = asn in rov_set
            if behavior.rov != wanted:
                self.behaviors[asn] = replace(behavior, rov=wanted)
        if (
            self.isp1_primary is not None
            and self.behaviors[self.isp1_primary].rov
        ):
            self.behaviors[self.isp1_primary] = replace(
                self.behaviors[self.isp1_primary], rov=False
            )

    def _apply_overrides(self, asn: int, behavior: ASBehavior) -> ASBehavior:
        """Force the case-study behaviours onto the designated ASes."""
        if asn in self.flagship_cdns:
            # Table 1 CDNs: overwhelmingly conformant with a small IRR
            # leak (stale sibling-origin objects, RPKI NotFound).
            return replace(
                behavior,
                rpki_fraction=0.7,
                rpki_misconfig_count=0,
                irr_fraction=1.0,
                irr_stale_fraction=0.012,
                rpki_adoption_year=max(behavior.rpki_adoption_year, 2020),
            )
        if asn == self.flagship_transit:
            # The China Telecom analogue: registers most of its large
            # address space in the RPKI when it joins MANRS in 2020 —
            # this is what moves Figure 6's MANRS curve that year.
            return replace(
                behavior,
                rpki_fraction=max(behavior.rpki_fraction, 0.8),
                rpki_adoption_year=2020,
            )
        if asn in self.neglected_siblings:
            # ISP1's neglected member stubs: registered long ago, never
            # maintained — all their prefixes end up unconformant.  The
            # lowest-numbered two also carry a forgotten ROA pointing at
            # the old origin, giving Table 1 its RPKI-Invalid rows.
            misconfigs = 1 if asn in sorted(self.neglected_siblings)[:2] else 0
            return replace(
                behavior,
                rpki_fraction=0.0,
                rpki_misconfig_count=misconfigs,
                irr_fraction=1.0,
                irr_stale_fraction=1.0,
            )
        return behavior

    def _sample_fraction(
        self,
        p_all: float,
        p_none: float,
        partial_range: tuple[float, float],
    ) -> float:
        roll = self.rng.random()
        if roll < p_all:
            return 1.0
        if roll < p_all + p_none:
            return 0.0
        low, high = partial_range
        return float(low + (high - low) * self.rng.random())

    # -- step 3: address space and originations ------------------------------

    def allocate_originations(self) -> None:
        origination_config = self.config.origination
        allocated_on = date(2012, 1, 1)
        v6_lengths = origination_config.v6_lengths
        # Per-category prefix-length picks, built once.
        length_picks: dict[str, WeightedPick] = {}
        for asn in self.topology.asns:
            record = self.topology.get_as(asn)
            if asn in self.quiescent:
                self.originations[asn] = []
                continue
            key = record.category.value
            if asn == self.flagship_transit:
                key = "flagship_transit"
            elif asn in self.flagship_cdns:
                key = "flagship_cdn"
            low, high = origination_config.count_range.get(key, (1, 3))
            count = int(self.rng.integers(low, high + 1))
            lengths, weights = origination_config.prefix_lengths.get(
                key, ((22, 23, 24), (0.3, 0.3, 0.4))
            )
            length_pick = length_picks.get(key)
            if length_pick is None:
                length_pick = length_picks[key] = WeightedPick(weights)
            originations: list[Origination] = []
            org_id = record.org_id
            # Legacy space predates the RIR system and sits almost
            # entirely with old, large organisations; small/stub networks
            # hold recent (certifiable) allocations.  Keeping legacy out
            # of the edge preserves Figure 5a's clean bimodality.
            legacy_scale = (
                1.0
                if record.category
                in (
                    ASCategory.MEDIUM_ISP,
                    ASCategory.LARGE_TRANSIT,
                    ASCategory.CDN,
                )
                else 0.1
            )
            legacy_chance = legacy_scale * origination_config.legacy_probability.get(
                record.rir.value, 0.0
            )
            for _ in range(count):
                length = lengths[length_pick.one(self.rng)]
                legacy = self.rng.random() < legacy_chance
                block = self._allocate_block(
                    record.rir, length, org_id, allocated_on, legacy
                )
                if block is None:
                    continue
                deaggregated = (
                    block.prefix.length < block.prefix.bits
                    and self.rng.random()
                    < origination_config.deaggregation_probability
                )
                announced = (
                    Prefix(
                        block.prefix.value,
                        block.prefix.length + 1,
                        block.prefix.version,
                    )
                    if deaggregated
                    else block.prefix
                )
                originations.append(
                    Origination(
                        asn=asn,
                        prefix=announced,
                        block=block.prefix,
                        legacy=legacy,
                        deaggregated=deaggregated,
                    )
                )
            if self.rng.random() < origination_config.v6_probability.get(key, 0.0):
                low6, high6 = origination_config.v6_count_range
                for _ in range(int(self.rng.integers(low6, high6 + 1))):
                    length = v6_lengths[self.rng.integers(0, len(v6_lengths))]
                    try:
                        block = self.address_space.allocate(
                            record.rir, length, org_id, allocated_on, version=6
                        )
                    except AllocationError:
                        break
                    originations.append(
                        Origination(
                            asn=asn,
                            prefix=block.prefix,
                            block=block.prefix,
                            legacy=False,
                            deaggregated=False,
                        )
                    )
            self.originations[asn] = originations

    def _allocate_block(
        self,
        rir: RIR,
        length: int,
        org_id: str,
        allocated_on: date,
        legacy: bool,
    ):
        """Allocate with graceful fallback to longer prefixes when a pool
        runs dry."""
        for attempt_length in range(length, min(length + 6, 25)):
            try:
                return self.address_space.allocate(
                    rir, attempt_length, org_id, allocated_on, legacy=legacy
                )
            except AllocationError:
                continue
        return None

    # -- step 4: RPKI ----------------------------------------------------------

    def populate_rpki(self) -> None:
        not_before = date(2011, 1, 1)
        not_after = date(2032, 1, 1)
        for rir in RIR:
            self.rpki_repository.add_trust_anchor(rir, not_before, not_after)
        trust_anchors = {
            rir: self.rpki_repository.certificates[f"TA-{rir.value}"] for rir in RIR
        }
        for asn in sorted(self.originations):
            originations = self.originations[asn]
            if not originations:
                continue
            behavior = self.behaviors[asn]
            certifiable = [o for o in originations if not o.legacy]
            if not certifiable or behavior.rpki_fraction == 0.0:
                if behavior.rpki_misconfig_count == 0:
                    continue
            record = self.topology.get_as(asn)
            certificate = self._org_certificate(
                record.org_id, record.rir, trust_anchors[record.rir]
            )
            roa_start = date(behavior.rpki_adoption_year, 1, 1) + timedelta(
                days=int(self.rng.integers(0, 330))
            )
            n_registered = int(round(behavior.rpki_fraction * len(certifiable)))
            order = self.rng.permutation(len(certifiable)).tolist()
            registered = [certifiable[i] for i in order[:n_registered]]
            victims = registered[: behavior.rpki_misconfig_count]
            if behavior.rpki_misconfig_count and not victims:
                victims = certifiable[: behavior.rpki_misconfig_count]
            victim_set = {id(v) for v in victims}
            covered = self.roa_prefixes.setdefault(asn, set())
            for origination in registered:
                if id(origination) in victim_set:
                    continue
                self.rpki_repository.add_roa(
                    ROA(
                        prefix=origination.block,
                        asn=asn,
                        max_length=origination.prefix.length,
                        certificate_id=certificate.certificate_id,
                        not_before=roa_start,
                        not_after=not_after,
                    )
                )
                covered.add(origination.prefix)
            for origination in victims:
                self.rpki_repository.add_roa(
                    self._misconfigured_roa(
                        asn, origination, certificate, roa_start, not_after
                    )
                )

    def _org_certificate(
        self, org_id: str, rir: RIR, trust_anchor: ResourceCertificate
    ) -> ResourceCertificate:
        certificate = self.org_certs.get(org_id)
        if certificate is None:
            # Legacy space cannot be certified (no RIR service agreement),
            # which is what caps RPKI saturation below 100% (§8.6).
            resources = tuple(
                delegation.prefix
                for delegation in self.address_space.delegations_for(org_id)
                if not delegation.legacy
            )
            certificate = self.rpki_repository.issue_certificate(
                issuer=trust_anchor,
                subject=org_id,
                resources=resources,
                not_before=date(2012, 1, 1),
                not_after=date(2032, 1, 1),
            )
            self.org_certs[org_id] = certificate
        return certificate

    def _misconfigured_roa(
        self,
        asn: int,
        origination: Origination,
        certificate: ResourceCertificate,
        roa_start: date,
        not_after: date,
    ) -> ROA:
        """A ROA that makes the announcement RPKI Invalid."""
        roll = self.rng.random()
        if roll < 0.15:
            wrong_asn = 0  # AS0: "do not announce" (the §8.1 case study)
        else:
            wrong_asn = self._wrong_origin(asn)
        if (
            roll >= 0.55
            and origination.prefix.length > origination.block.length
        ):
            # maxLength too short for the announced more-specific.
            return ROA(
                prefix=origination.block,
                asn=asn,
                max_length=origination.prefix.length - 1,
                certificate_id=certificate.certificate_id,
                not_before=roa_start,
                not_after=not_after,
            )
        return ROA(
            prefix=origination.block,
            asn=wrong_asn,
            max_length=origination.prefix.length,
            certificate_id=certificate.certificate_id,
            not_before=roa_start,
            not_after=not_after,
        )

    def _wrong_origin(self, asn: int) -> int:
        """Pick whom a stale record points at (Table 1 attribution mix)."""
        behavior_config = self.config.behavior
        roll = self.rng.random()
        siblings = sorted(self.topology.siblings(asn))
        if roll < behavior_config.wrong_origin_sibling and siblings:
            return siblings[int(self.rng.integers(0, len(siblings)))]
        neighbors = sorted(
            self.topology.providers_of(asn) | self.topology.customers_of(asn)
        )
        if (
            roll < behavior_config.wrong_origin_sibling + behavior_config.wrong_origin_neighbor
            and neighbors
        ):
            return neighbors[int(self.rng.integers(0, len(neighbors)))]
        candidates = self.topology.asns
        wrong = asn
        while wrong == asn:
            wrong = candidates[int(self.rng.integers(0, len(candidates)))]
        return wrong

    # -- step 5: IRR -------------------------------------------------------------

    def populate_irr(self) -> None:
        for rir in RIR:
            self.irr.add_database(IRRDatabase(rir.value, authoritative_for=rir))
        self.irr.add_database(IRRDatabase(_RADB))
        created = date(2016, 1, 1)
        # Dates as ordinals: stale objects were last modified when
        # created, fresh ones on the snapshot date.
        created_on = created.toordinal()
        fresh_on = self.config.snapshot_date.toordinal()
        # Each database's route rows, field by field, inserted in one
        # call at the end: prefixes, origins, last-modified ordinals and
        # [mnt_by, descr] strings.
        rows: dict[str, tuple[list, list, list, list]] = {
            database.name: ([], [], [], []) for database in self.irr.databases
        }
        for asn in sorted(self.originations):
            originations = self.originations[asn]
            record = self.topology.get_as(asn)
            rir_name = record.rir.value
            behavior = self.behaviors[asn]
            # aut-num objects: contact info for MANRS Action 3.
            if self.rng.random() < 0.9:
                database = self.irr.database(rir_name)
                # Contact freshness varies: members touch their objects
                # when joining; the long tail never updates after creation
                # (feeds the Action 3 extension check).
                age_span = (self.config.snapshot_date - created).days
                modified = created + timedelta(
                    days=int(self.rng.integers(0, age_span))
                )
                database.add_aut_num(
                    AutNumObject(
                        asn=asn,
                        as_name=f"AS-NAME-{asn}",
                        source=rir_name,
                        admin_c=f"ADM-{asn}",
                        tech_c=f"TEC-{asn}",
                        last_modified=modified,
                    )
                )
            if not originations or behavior.irr_fraction == 0.0:
                continue
            n_registered = max(
                1, int(round(behavior.irr_fraction * len(originations)))
            ) if behavior.irr_fraction > 0 else 0
            order = self.rng.permutation(len(originations)).tolist()
            if behavior.member:
                # Members register the union: IRR objects go to prefixes
                # missing from the RPKI first, so partial coverage in both
                # registries still meets the Action 4 bar.
                roa_covered = self.roa_prefixes.get(asn, set())
                order.sort(
                    key=lambda i: originations[i].prefix in roa_covered
                )
            registered = [originations[i] for i in order[:n_registered]]
            n_stale = int(round(behavior.irr_stale_fraction * len(registered)))
            stale_order = list(range(len(registered)))
            if asn in self.flagship_cdns:
                # The flagship leak is precisely the prefixes covered by
                # neither registry (Table 1: IRR Invalid & RPKI NotFound).
                roa_covered = self.roa_prefixes.get(asn, set())
                stale_order.sort(
                    key=lambda i: registered[i].prefix in roa_covered
                )
            elif behavior.member:
                # For other members, rot concentrates on RPKI-covered
                # prefixes (§8.2: RPKI adopters let the IRR decay) — it
                # does not cost them conformance.
                roa_covered = self.roa_prefixes.get(asn, set())
                stale_order.sort(
                    key=lambda i: registered[i].prefix not in roa_covered
                )
            stale_set = set(stale_order[:n_stale])
            mnt_by, descr = f"MAINT-{record.org_id}", f"route of AS{asn}"
            for index, origination in enumerate(registered):
                stale = index in stale_set
                origin = self._wrong_origin(asn) if stale else asn
                source = rir_name if self.rng.random() < 0.55 else _RADB
                prefixes, origins, modified, strings = rows[source]
                prefixes.append(origination.block)
                origins.append(origin)
                modified.append(created_on if stale else fresh_on)
                strings.append([mnt_by, descr])
        for source, (prefixes, origins, modified, strings) in rows.items():
            self.irr.database(source).insert_rows(
                source,
                route_rows(
                    prefixes, origins, [created_on] * len(prefixes), modified
                ),
                strings,
            )
        self._populate_as_sets()

    def _populate_as_sets(self) -> None:
        """as-sets for transit networks listing their customer ASNs."""
        radb = self.irr.database(_RADB)
        for asn in self.topology.asns:
            customers = self.topology.customers_of(asn)
            if not customers or self.rng.random() > 0.5:
                continue
            members = [as_set_member(c) for c in sorted(customers)]
            radb.add_as_set(
                AsSetObject(
                    name=f"AS-{asn}-CUSTOMERS",
                    members=tuple(members),
                    source=_RADB,
                )
            )
