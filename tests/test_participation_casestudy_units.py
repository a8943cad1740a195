"""Direct unit tests for participation (§6.3) and Table-1 attribution,
on hand-built inputs where every expected number is known exactly."""

from __future__ import annotations

from datetime import date

from repro.bgp.table import Prefix2AS
from repro.core.casestudy import attribute_unconformant
from repro.core.participation import (
    members_by_rir,
    registration_completeness,
    routed_space_share_by_rir,
)
from repro.irr.database import IRRDatabase
from repro.irr.objects import RouteObject
from repro.irr.validation import IRRStatus
from repro.manrs.actions import Program
from repro.manrs.registry import MANRSRegistry, Participant
from repro.net.prefix import Prefix
from repro.registry.rir import RIR
from repro.rpki.roa import VRP
from repro.rpki.rov import ROVValidator, RPKIStatus
from repro.topology.as2org import As2Org
from repro.topology.model import (
    ASCategory,
    ASTopology,
    AutonomousSystem,
    Organization,
    Relationship,
)
from tests.ihr_tables import ihr_dataset

MAY = date(2022, 5, 1)


def _p(text: str) -> Prefix:
    return Prefix.parse(text)


def build_fixture():
    """Two orgs: O1 owns AS1 (announcing) + AS2 (quiescent, unregistered);
    O2 owns AS3 (announcing, unregistered in MANRS)."""
    topo = ASTopology()
    topo.add_org(Organization("O1", "One", "US"))
    topo.add_org(Organization("O2", "Two", "DE"))
    topo.add_as(AutonomousSystem(1, "O1", "US", RIR.ARIN, ASCategory.STUB))
    topo.add_as(AutonomousSystem(2, "O1", "US", RIR.ARIN, ASCategory.STUB))
    topo.add_as(AutonomousSystem(3, "O2", "DE", RIR.RIPE, ASCategory.STUB))
    topo.add_link(1, 3, Relationship.PROVIDER_CUSTOMER)

    manrs = MANRSRegistry()
    manrs.add(Participant("O1", Program.ISP, (1,), date(2020, 1, 1)))
    manrs.add(Participant("O2", Program.ISP, (3,), date(2021, 1, 1)))

    prefix2as = Prefix2AS(
        {
            _p("12.0.0.0/16"): frozenset({1}),
            _p("31.0.0.0/16"): frozenset({3}),
        }
    )
    return topo, manrs, prefix2as


class TestParticipationUnits:
    def test_members_by_rir(self):
        topo, manrs, _ = build_fixture()
        counts = members_by_rir(topo, manrs, MAY)
        assert counts[RIR.ARIN] == 1
        assert counts[RIR.RIPE] == 1
        assert counts[RIR.APNIC] == 0
        # before O2 joined:
        early = members_by_rir(topo, manrs, date(2020, 6, 1))
        assert early[RIR.RIPE] == 0

    def test_routed_space_share(self):
        topo, manrs, prefix2as = build_fixture()
        shares = routed_space_share_by_rir(topo, manrs, prefix2as, MAY)
        # two /16s routed; each member announces one
        assert shares[RIR.ARIN] == 50.0
        assert shares[RIR.RIPE] == 50.0
        assert shares[RIR.LACNIC] == 0.0

    def test_completeness_counts(self):
        topo, manrs, prefix2as = build_fixture()
        report = registration_completeness(topo, manrs, prefix2as, MAY)
        assert report.total_orgs == 2
        # O2 registered its only AS; O1 left AS2 out.
        assert report.all_asns_registered == 1
        # AS2 is quiescent, so both orgs announce only via registered ASNs.
        assert report.all_space_via_registered == 2
        assert report.quiescent_unregistered_only == 1
        assert report.partial_announcers == 0

    def test_completeness_with_unregistered_announcer(self):
        topo, manrs, _ = build_fixture()
        prefix2as = Prefix2AS(
            {
                _p("12.0.0.0/16"): frozenset({1}),
                _p("12.1.0.0/16"): frozenset({2}),  # AS2 announces too
            }
        )
        report = registration_completeness(topo, manrs, prefix2as, MAY)
        assert report.partial_announcers == 1
        assert report.only_unregistered_announcers == 0

    def test_completeness_only_unregistered_announcer(self):
        topo, manrs, _ = build_fixture()
        prefix2as = Prefix2AS({_p("12.1.0.0/16"): frozenset({2})})
        report = registration_completeness(topo, manrs, prefix2as, MAY)
        assert report.only_unregistered_announcers == 1


class TestCaseStudyUnits:
    def _environment(self):
        topo, _, _ = build_fixture()
        as2org = As2Org.from_topology(topo)
        # AS1's announcement conflicts with registrations naming AS2
        # (sibling) and AS99 (unrelated).
        rov = ROVValidator(
            [VRP(_p("12.0.0.0/16"), 2, 16, RIR.ARIN)]  # sibling's ROA
        )
        irr = IRRDatabase("RADB")
        irr.add_route(RouteObject(_p("12.1.0.0/16"), 99, "RADB"))  # unrelated
        irr.add_route(RouteObject(_p("12.2.0.0/16"), 3, "RADB"))  # customer
        dataset = ihr_dataset(
            [
                (
                    1,
                    5,
                    [
                        (
                            _p("12.0.0.0/16"),
                            RPKIStatus.INVALID_ASN,
                            IRRStatus.NOT_FOUND,
                        ),
                        (
                            _p("12.1.0.0/16"),
                            RPKIStatus.NOT_FOUND,
                            IRRStatus.INVALID_ORIGIN,
                        ),
                        (
                            _p("12.2.0.0/16"),
                            RPKIStatus.NOT_FOUND,
                            IRRStatus.INVALID_ORIGIN,
                        ),
                        # conformant, must be ignored
                        (_p("12.3.0.0/16"), RPKIStatus.VALID, IRRStatus.VALID),
                    ],
                    [],
                )
            ]
        )
        return dataset, rov, irr, topo, as2org

    def test_attribution_buckets(self):
        dataset, rov, irr, topo, as2org = self._environment()
        row = attribute_unconformant(
            "ISP1", (1,), dataset, rov, irr, topo, as2org
        )
        # RPKI Invalid prefix names sibling AS2 -> Sibling/C-P
        assert row.rpki_invalid == 1
        assert row.rpki_sibling_cp == 1
        assert row.rpki_unrelated == 0
        # IRR invalids: AS99 unrelated; AS3 is AS1's customer -> C-P
        assert row.irr_invalid == 2
        assert row.irr_sibling_cp == 1
        assert row.irr_unrelated == 1
        assert row.total_attributed == 3
        assert row.sibling_cp_fraction == 2 / 3

    def test_other_origins_ignored(self):
        dataset, rov, irr, topo, as2org = self._environment()
        row = attribute_unconformant(
            "OTHER", (3,), dataset, rov, irr, topo, as2org
        )
        assert row.total_attributed == 0
