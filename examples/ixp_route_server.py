#!/usr/bin/env python3
"""IXP route server: as-set-based ingress filtering (§2.2 / IXP program).

Builds a world, stands up a route server whose members are the transit
networks that publish customer as-sets, and replays every member's (and
its customers') announcements through the server's IRR-derived filters —
the workflow §2.2 attributes to IXPs and cloud providers, and the core of
the MANRS IXP program the paper leaves to future work.

Announcements rejected at the route server are precisely the
registration gaps the Action 4 analysis flags, which is the practical
incentive loop MANRS relies on: unregistered routes lose reachability.

Usage::

    python examples/ixp_route_server.py [scale] [seed]
"""

from __future__ import annotations

import sys

from repro.bgp.announcement import Announcement
from repro.bgp.routeserver import RouteServer
from repro.core.classification import is_conformant
from repro.scenario import build_world


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.2
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 9
    world = build_world(scale=scale, seed=seed)

    radb = world.irr.database("RADB")
    members = tuple(
        asn
        for asn in world.topology.asns
        if radb.as_set(f"AS-{asn}-CUSTOMERS") is not None
    )[:25]
    server = RouteServer(world.irr, members=members)

    batch = []
    for member in members:
        for origination in world.originations.get(member, ()):
            batch.append((member, Announcement(origination.prefix, member)))
        for customer in sorted(world.topology.customers_of(member))[:5]:
            for origination in world.originations.get(customer, ())[:2]:
                batch.append(
                    (member, Announcement(origination.prefix, customer))
                )
    report = server.evaluate_batch(batch)

    print(
        f"route server with {len(members)} members evaluated "
        f"{len(report.verdicts)} announcements"
    )
    print(
        f"accepted {report.accepted}, rejected {report.rejected} "
        f"({100 * report.acceptance_rate:.1f}% acceptance)"
    )
    print()
    print("sample rejections:")
    statuses = {
        (record.prefix, record.origin): (record.rpki, record.irr)
        for record in world.ihr.prefix_origins()
    }
    shown = 0
    for verdict in report.verdicts:
        if verdict.accepted:
            continue
        key = (verdict.announcement.prefix, verdict.announcement.origin)
        conformant = (
            is_conformant(*statuses[key]) if key in statuses else None
        )
        print(
            f"  member AS{verdict.member}: {verdict.announcement} "
            f"-> {verdict.reason} "
            f"(Action 4 conformant: {conformant})"
        )
        shown += 1
        if shown == 10:
            break
    if shown == 0:
        print("  (none — every announcement was registered)")


if __name__ == "__main__":
    main()
