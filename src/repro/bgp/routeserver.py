"""IXP route servers with IRR-based ingress filtering.

The paper focuses on the ISP and CDN programs and leaves the MANRS IXP
program to future work (§12); §2.2 notes that IXPs use ``as-set`` objects
to decide which announcements to accept.  This module implements that: a
route server builds, per member, a prefix filter from the member's own
route objects plus its customer ``as-set`` (through
:func:`repro.irr.filtergen.origin_filter`) and drops
everything else — the IXP program's equivalent of Action 1.

Route servers at large IXPs increasingly run ROV on top of (or instead
of) IRR filtering ("Keep Your Friends Close", PAPERS.md).  Passing a
``rov`` validator enables that: RPKI-invalid announcements are rejected
before the IRR checks, for every member at once — one deployment point
covering the whole fabric.  ``irr_filtering=False`` models a transparent
route server that reflects everything (the pre-filtering baseline the
routeserver-ROV scenario compares against).  Both knobs default to the
historical behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.bgp.announcement import Announcement
from repro.irr.asset import expand_as_set
from repro.irr.database import IRRCollection, IRRDatabase
from repro.irr.filtergen import PrefixFilter, origin_filter

if TYPE_CHECKING:
    from repro.rpki.rov import ROVValidator

__all__ = ["RouteServerVerdict", "RouteServerReport", "RouteServer"]


@dataclass(frozen=True)
class RouteServerVerdict:
    """One announcement's fate at the route server."""

    member: int
    announcement: Announcement
    accepted: bool
    reason: str


@dataclass
class RouteServerReport:
    """Aggregate outcome of one evaluation batch."""

    verdicts: list[RouteServerVerdict] = field(default_factory=list)

    @property
    def accepted(self) -> int:
        """Number of accepted announcements."""
        return sum(1 for v in self.verdicts if v.accepted)

    @property
    def rejected(self) -> int:
        """Number of rejected announcements."""
        return len(self.verdicts) - self.accepted

    @property
    def acceptance_rate(self) -> float:
        """Fraction accepted (1.0 for an empty batch)."""
        if not self.verdicts:
            return 1.0
        return self.accepted / len(self.verdicts)


class RouteServer:
    """A filtering route server for one IXP.

    Each member's import filter is the union of:

    * the member's own registered route objects, and
    * the route objects of every ASN in the member's customer ``as-set``
      (named ``AS-<asn>-CUSTOMERS`` by convention, as our scenario and
      many real operators do),

    with the usual ``upto`` de-aggregation allowance.
    """

    def __init__(
        self,
        irr: IRRCollection | IRRDatabase,
        members: tuple[int, ...],
        upto: int = 24,
        rov: "ROVValidator | None" = None,
        irr_filtering: bool = True,
    ):
        self._irr = irr
        self._members = tuple(sorted(set(members)))
        self._upto = upto
        self._rov = rov
        self._irr_filtering = irr_filtering
        self._filters: dict[int, PrefixFilter] = {}
        self._allowed_origins: dict[int, frozenset[int]] = {}

    @property
    def members(self) -> tuple[int, ...]:
        """The member ASNs peering with this route server."""
        return self._members

    def filter_for(self, member: int) -> PrefixFilter:
        """The (cached) import filter applied to one member's session."""
        cached = self._filters.get(member)
        if cached is not None:
            return cached
        origins = {member} | set(
            expand_as_set(self._irr, f"AS-{member}-CUSTOMERS")
        )
        prefix_filter = origin_filter(self._irr, origins, self._upto)
        self._filters[member] = prefix_filter
        self._allowed_origins[member] = frozenset(origins)
        return prefix_filter

    def evaluate(
        self, member: int, announcement: Announcement
    ) -> RouteServerVerdict:
        """Apply the member's filter to one announcement."""
        if member not in self._members:
            return RouteServerVerdict(
                member, announcement, False, "not a member"
            )
        if self._rov is not None:
            status = self._rov.validate(
                announcement.prefix, announcement.origin
            )
            if status.is_invalid:
                return RouteServerVerdict(
                    member,
                    announcement,
                    False,
                    f"RPKI {status.value}",
                )
        if not self._irr_filtering:
            return RouteServerVerdict(
                member, announcement, True, "transparent"
            )
        prefix_filter = self.filter_for(member)
        if announcement.origin not in self._allowed_origins[member]:
            return RouteServerVerdict(
                member,
                announcement,
                False,
                f"origin AS{announcement.origin} not in AS-{member}-CUSTOMERS",
            )
        if not prefix_filter.admits(
            announcement.prefix, origin=announcement.origin
        ):
            return RouteServerVerdict(
                member,
                announcement,
                False,
                f"{announcement.prefix} not registered for "
                f"AS{announcement.origin}",
            )
        return RouteServerVerdict(member, announcement, True, "registered")

    def evaluate_batch(
        self, batch: list[tuple[int, Announcement]]
    ) -> RouteServerReport:
        """Evaluate many (member, announcement) pairs."""
        report = RouteServerReport()
        for member, announcement in batch:
            report.verdicts.append(self.evaluate(member, announcement))
        return report
