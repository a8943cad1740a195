"""BGP substrate: announcements, policy, propagation, collectors, hijacks."""

from repro.bgp.announcement import Announcement
from repro.bgp.collector import (
    RibSnapshot,
    assemble_rib,
    collect_rib,
    select_vantage_points,
)
from repro.bgp.leak import LeakOutcome, simulate_leak
from repro.bgp.hijack import HijackKind, HijackOutcome, simulate_hijack
from repro.bgp.policy import CONFORMANT_CLASS, ASPolicy, NeighborKind, RouteClass
from repro.bgp.propagation import PropagationEngine, Route, RouteKind
from repro.bgp.routeserver import RouteServer, RouteServerReport, RouteServerVerdict
from repro.bgp.table import Prefix2AS, parse_prefix2as, serialize_prefix2as

__all__ = [
    "Announcement",
    "ASPolicy",
    "CONFORMANT_CLASS",
    "HijackKind",
    "HijackOutcome",
    "LeakOutcome",
    "NeighborKind",
    "Prefix2AS",
    "PropagationEngine",
    "RibSnapshot",
    "Route",
    "RouteClass",
    "RouteServer",
    "RouteServerReport",
    "RouteServerVerdict",
    "RouteKind",
    "assemble_rib",
    "collect_rib",
    "parse_prefix2as",
    "select_vantage_points",
    "serialize_prefix2as",
    "simulate_hijack",
    "simulate_leak",
]
