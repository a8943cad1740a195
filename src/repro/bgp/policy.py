"""Per-AS import policy: which routes an AS refuses to install.

The propagation engine classifies every prefix-origin into a
:class:`RouteClass` — whether it is RPKI Invalid (per RFC 6811) and whether
it is IRR Invalid — before propagation, because those two bits are all that
import filters act on:

* ROV (route origin validation) deployment drops RPKI-Invalid routes from
  *all* neighbours (RFC 6811 makes no distinction by neighbour type).
* MANRS Action 1 filtering checks *customer* announcements against the
  IRR/RPKI; the CDN program additionally recommends filtering peers.

Note the deliberate asymmetry with the paper's conformance definition: per
§3 the paper treats IRR *invalid-prefix-length* as conformant (traffic
engineering de-aggregation), so the ``irr_invalid`` bit here is true only
for genuine origin mismatches.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = [
    "NeighborKind",
    "RouteClass",
    "ASPolicy",
    "CONFORMANT_CLASS",
    "ROUTE_CLASSES",
    "covers_session",
]


class NeighborKind(str, Enum):
    """Who a route was learned from, from the importing AS's viewpoint."""

    CUSTOMER = "customer"
    PEER = "peer"
    PROVIDER = "provider"


@dataclass(frozen=True)
class RouteClass:
    """Filter-relevant classification of a prefix-origin pair."""

    rpki_invalid: bool = False
    irr_invalid: bool = False


#: The whole (rpki_invalid, irr_invalid) space: four frozen value-equal
#: instances.  Every per-route stream (classify → collect, checkpoint
#: replay, live regrouping) looks its class up here instead of
#: allocating one RouteClass per route.
ROUTE_CLASSES: dict[tuple[bool, bool], RouteClass] = {
    (rpki, irr): RouteClass(rpki_invalid=rpki, irr_invalid=irr)
    for rpki in (False, True)
    for irr in (False, True)
}

#: Routes that no filter in the model ever drops.
CONFORMANT_CLASS = ROUTE_CLASSES[(False, False)]


def covers_session(provider: int, customer: int, coverage: float) -> bool:
    """Is the (provider, customer) BGP session subject to customer filters?

    Filter deployment is rarely complete: operators roll prefix-lists out
    session by session and legacy sessions linger (two operators told the
    authors exactly this, §10).  ``coverage`` is the fraction of customer
    sessions filtered; which sessions those are is a deterministic hash of
    the AS pair, so propagation stays reproducible without per-session
    state.
    """
    if coverage >= 1.0:
        return True
    if coverage <= 0.0:
        return False
    # Knuth-style multiplicative hash over the ordered pair.
    mixed = (provider * 2654435761 + customer * 40503 + 12345) & 0xFFFFFFFF
    mixed ^= mixed >> 16
    return (mixed % 10_000) < coverage * 10_000


@dataclass(frozen=True)
class ASPolicy:
    """Import-filtering behaviour of one AS.

    The default policy accepts everything, matching the long tail of
    networks that deploy no route filtering at all.
    """

    #: Full ROV: drop RPKI-Invalid routes from every neighbour.
    rov: bool = False
    #: MANRS Action 1 style filtering of customer announcements.
    filter_customers_rpki: bool = False
    filter_customers_irr: bool = False
    #: Fraction of customer sessions the Action 1 filters actually cover.
    customer_filter_coverage: float = 1.0
    #: Customer ASNs whose sessions bypass the Action 1 filters entirely —
    #: in practice, an organisation's own sibling ASes (internal sessions
    #: are rarely prefix-filtered, which is how ISP1's neglected stubs
    #: leak their stale announcements into BGP, §8.3/Table 1).
    unfiltered_customers: frozenset[int] = frozenset()
    #: CDN-program style ingress filtering on peers.
    filter_peers_rpki: bool = False
    filter_peers_irr: bool = False

    def accepts(
        self,
        route_class: RouteClass,
        learned_from: NeighborKind,
        neighbor: int | None = None,
        importer: int | None = None,
    ) -> bool:
        """Would this AS install a route of ``route_class`` from
        ``learned_from``?

        For customer-learned routes, pass ``importer`` (this AS) and
        ``neighbor`` (the customer) so partial filter coverage can decide
        whether this particular session is filtered; without them,
        coverage is treated as full.
        """
        if route_class.rpki_invalid and self.rov:
            return False
        if learned_from is NeighborKind.CUSTOMER and (
            route_class.rpki_invalid
            and self.filter_customers_rpki
            or route_class.irr_invalid
            and self.filter_customers_irr
        ):
            if neighbor is not None and neighbor in self.unfiltered_customers:
                return True
            if neighbor is None or importer is None:
                return False
            return not covers_session(
                importer, neighbor, self.customer_filter_coverage
            )
        if learned_from is NeighborKind.PEER:
            if route_class.rpki_invalid and self.filter_peers_rpki:
                return False
            if route_class.irr_invalid and self.filter_peers_irr:
                return False
        return True

    @property
    def filters_anything(self) -> bool:
        """True if any filter flag is set (used to fast-path propagation)."""
        return (
            self.rov
            or self.filter_customers_rpki
            or self.filter_customers_irr
            or self.filter_peers_rpki
            or self.filter_peers_irr
        )
