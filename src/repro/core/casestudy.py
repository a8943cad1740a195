"""Case-study attribution of unconformant prefix-origins (§8.4, Table 1).

For each unconformant prefix-origin of a network under study, the paper
asks *whom the mismatching RPKI/IRR registration points at*: a sibling AS
of the same organisation, an AS in a direct customer-provider relationship
(the two are merged into one "Sibling/C-P" column), or an unrelated AS.
A majority in Sibling/C-P means the unconformance stems from internal
misconfiguration or business churn — i.e. it is easily fixable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.classification import is_unconformant
from repro.ihr.records import IHRDataset
from repro.irr.database import IRRCollection, IRRDatabase
from repro.rpki.rov import ROVValidator
from repro.topology.as2org import As2Org
from repro.topology.model import ASTopology

__all__ = ["CaseStudyRow", "attribute_unconformant"]


@dataclass(frozen=True)
class CaseStudyRow:
    """One Table 1 row: attribution counts for one network."""

    label: str
    asns: tuple[int, ...]
    #: Prefix-origins that are RPKI Invalid.
    rpki_invalid: int
    rpki_sibling_cp: int
    rpki_unrelated: int
    #: Prefix-origins that are IRR Invalid while RPKI NotFound.
    irr_invalid: int
    irr_sibling_cp: int
    irr_unrelated: int

    @property
    def total_attributed(self) -> int:
        """All attributed unconformant prefix-origins."""
        return self.rpki_invalid + self.irr_invalid

    @property
    def sibling_cp_fraction(self) -> float:
        """Share of attributed prefix-origins in the Sibling/C-P bucket."""
        total = self.total_attributed
        if not total:
            return 0.0
        return (self.rpki_sibling_cp + self.irr_sibling_cp) / total


def attribute_unconformant(
    label: str,
    asns: tuple[int, ...],
    dataset: IHRDataset,
    rov: ROVValidator,
    irr: IRRCollection | IRRDatabase,
    topology: ASTopology,
    as2org: As2Org,
) -> CaseStudyRow:
    """Build one Table 1 row for the given network's ASNs."""
    asn_set = set(asns)
    rpki_invalid = rpki_sibling_cp = rpki_unrelated = 0
    irr_invalid = irr_sibling_cp = irr_unrelated = 0
    records = [
        record
        for asn in sorted(asn_set)
        for record in dataset.records_of(asn)
        if is_unconformant(record.rpki, record.irr)
    ]
    # The IRR-attributed records' covering route objects, in one lookup.
    covering = irr.routes_covering_many(
        record.prefix for record in records if not record.rpki.is_invalid
    )
    for record in records:
        if record.rpki.is_invalid:
            registered = {
                vrp.asn
                for vrp in rov.covering_vrps(record.prefix)
                if vrp.asn != record.origin
            }
            rpki_invalid += 1
            if _any_related(record.origin, registered, topology, as2org):
                rpki_sibling_cp += 1
            else:
                rpki_unrelated += 1
        else:
            # RPKI NotFound and IRR Invalid: attribute via route objects.
            registered = {
                obj.origin
                for obj in covering[record.prefix]
                if obj.origin != record.origin
            }
            irr_invalid += 1
            if _any_related(record.origin, registered, topology, as2org):
                irr_sibling_cp += 1
            else:
                irr_unrelated += 1
    return CaseStudyRow(
        label=label,
        asns=tuple(sorted(asn_set)),
        rpki_invalid=rpki_invalid,
        rpki_sibling_cp=rpki_sibling_cp,
        rpki_unrelated=rpki_unrelated,
        irr_invalid=irr_invalid,
        irr_sibling_cp=irr_sibling_cp,
        irr_unrelated=irr_unrelated,
    )


def _any_related(
    origin: int,
    registered: set[int],
    topology: ASTopology,
    as2org: As2Org,
) -> bool:
    """Is any mismatching registered origin a sibling or direct C-P?

    AS0 registrations (RFC 7607 "do not announce") are treated as
    self-inflicted, i.e. Sibling — the §8.1 Indonesian-ISP case, where the
    holder's own AS0 ROA collided with its RADB registration.
    """
    if 0 in registered:
        return True
    neighbors = topology.providers_of(origin) | topology.customers_of(origin)
    for candidate in registered:
        if as2org.same_org(origin, candidate):
            return True
        if candidate in neighbors:
            return True
    return False
