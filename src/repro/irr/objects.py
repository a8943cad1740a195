"""RPSL object model (RFC 2622 subset).

The IRR consists of databases of RPSL objects.  We model the object
classes the paper's analyses touch: ``route``/``route6`` (the prefix-origin
registrations Action 4 checks), ``aut-num`` (per-AS policy and contact),
``as-set`` (customer-AS expansion used by IXPs/cloud providers for
filtering, §2.2), and ``mntner`` (authorisation handles, kept for
realism of the database model).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

from repro.errors import RPSLError
from repro.net.asn import format_asn, validate_asn
from repro.net.prefix import Prefix

__all__ = [
    "RouteObject",
    "AutNumObject",
    "AsSetObject",
    "MntnerObject",
    "RPSL_CLASSES",
]

_AS_SET_NAME_PREFIX = "AS-"


@dataclass(frozen=True)
class RouteObject:
    """A ``route`` (or ``route6``) object: prefix + intended origin AS."""

    prefix: Prefix
    origin: int
    source: str                # database name, e.g. "RIPE" or "RADB"
    mnt_by: str = "MAINT-NONE"
    descr: str = ""
    created: date | None = None
    last_modified: date | None = None

    def __post_init__(self) -> None:
        validate_asn(self.origin)
        if not self.source:
            raise RPSLError("route object requires a source attribute")

    @property
    def rpsl_class(self) -> str:
        """``route`` for IPv4, ``route6`` for IPv6."""
        return "route" if self.prefix.version == 4 else "route6"


@dataclass(frozen=True)
class AutNumObject:
    """An ``aut-num`` object: AS policy and contact registration.

    ``admin_c``/``tech_c`` being present and fresh is what MANRS Action 3
    (maintain contact information) checks.
    """

    asn: int
    as_name: str
    source: str
    mnt_by: str = "MAINT-NONE"
    admin_c: str = ""
    tech_c: str = ""
    import_lines: tuple[str, ...] = ()
    export_lines: tuple[str, ...] = ()
    last_modified: date | None = None

    def __post_init__(self) -> None:
        validate_asn(self.asn)

    @property
    def has_contact(self) -> bool:
        """True when at least one contact handle is registered."""
        return bool(self.admin_c or self.tech_c)


@dataclass(frozen=True)
class AsSetObject:
    """An ``as-set``: a named set of ASNs and/or other as-sets."""

    name: str
    members: tuple[str, ...]   # "AS65001" or nested "AS-CUSTOMERS"
    source: str
    mnt_by: str = "MAINT-NONE"

    def __post_init__(self) -> None:
        if not self.name.upper().startswith(_AS_SET_NAME_PREFIX):
            raise RPSLError(f"as-set name must start with AS-: {self.name!r}")

    @property
    def direct_asns(self) -> tuple[int, ...]:
        """Member ASNs listed directly (not via nested sets)."""
        asns = []
        for member in self.members:
            if not member.upper().startswith(_AS_SET_NAME_PREFIX):
                asns.append(int(member[2:]) if member.upper().startswith("AS") else int(member))
        return tuple(asns)

    @property
    def nested_sets(self) -> tuple[str, ...]:
        """Member as-set names."""
        return tuple(
            member
            for member in self.members
            if member.upper().startswith(_AS_SET_NAME_PREFIX)
        )


@dataclass(frozen=True)
class MntnerObject:
    """A ``mntner``: the authorisation object protecting other objects."""

    name: str
    admin_c: str = ""
    auth: str = "CRYPT-PW dummy"
    source: str = "RADB"


RPSL_CLASSES = ("route", "route6", "aut-num", "as-set", "mntner")


def as_set_member(asn_or_set: int | str) -> str:
    """Canonical member token: ints become ``AS<digits>``."""
    if isinstance(asn_or_set, int):
        return format_asn(asn_or_set)
    return asn_or_set
