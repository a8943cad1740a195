"""The BGP announcement value type.

An :class:`Announcement` is what an origin AS injects into the routing
system: a prefix plus the originating ASN.  What the collectors' vantage
points end up with after propagation is a
:class:`~repro.bgp.collector.RibSnapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.asn import validate_asn
from repro.net.prefix import Prefix

__all__ = ["Announcement"]


@dataclass(frozen=True)
class Announcement:
    """A (prefix, origin AS) pair injected into BGP."""

    prefix: Prefix
    origin: int

    def __post_init__(self) -> None:
        validate_asn(self.origin)

    def __str__(self) -> str:
        return f"{self.prefix} origin AS{self.origin}"
