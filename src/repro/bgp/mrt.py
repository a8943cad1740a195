"""RIB dump serialisation in a `bgpdump -m`-style line format.

RouteViews and RIS publish MRT files usually consumed through
``bgpdump -m`` one-line records; we serialise :class:`RibSnapshot` in the
same spirit so collector output can be stored, diffed and re-loaded:

``TABLE_DUMP2|<unix-ts>|B|<peer-ip>|<peer-as>|<prefix>|<as-path>|IGP``

The peer IP is synthesised from the vantage-point ASN (the analyses key
on the peer AS, as the paper's do).
"""

from __future__ import annotations

from datetime import date, datetime, timezone

from repro.bgp.collector import RibSnapshot, RouteGroup
from repro.bgp.policy import RouteClass
from repro.errors import DatasetError
from repro.net.asn import format_as_path, parse_as_path
from repro.net.prefix import Prefix

__all__ = ["serialize_rib", "parse_rib"]

_PREFIX_FIELDS = 8


def _peer_ip(asn: int) -> str:
    """A stable fake peer address for a vantage-point ASN."""
    return f"10.{(asn >> 16) & 0xFF}.{(asn >> 8) & 0xFF}.{asn & 0xFF}"


def serialize_rib(snapshot: RibSnapshot, snapshot_date: date) -> str:
    """Render every RIB entry as one TABLE_DUMP2-style line."""
    timestamp = int(
        datetime(
            snapshot_date.year,
            snapshot_date.month,
            snapshot_date.day,
            tzinfo=timezone.utc,
        ).timestamp()
    )
    lines = []
    for entry in snapshot.iter_entries():
        lines.append(
            "TABLE_DUMP2|"
            f"{timestamp}|B|{_peer_ip(entry.vantage_point)}|"
            f"{entry.vantage_point}|{entry.prefix}|"
            f"{format_as_path(entry.path)}|IGP"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_rib(text: str) -> RibSnapshot:
    """Parse the format produced by :func:`serialize_rib`.

    Entries are regrouped by (origin, path-identity); the filter classes
    are unknown from a dump, so groups carry the default
    :class:`RouteClass` — statuses get recomputed downstream against the
    registries, exactly as the IHR does with real MRT data.
    """
    paths_by_announcement: dict[tuple[int, Prefix], dict[int, tuple[int, ...]]] = {}
    vantage_points: set[int] = set()
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split("|")
        if len(fields) != _PREFIX_FIELDS or fields[0] != "TABLE_DUMP2":
            raise DatasetError(f"bad RIB record at line {line_number}")
        try:
            vantage_point = int(fields[4])
            prefix = Prefix.parse(fields[5])
            path = parse_as_path(fields[6])
        except ValueError as exc:
            raise DatasetError(
                f"bad RIB record at line {line_number}: {line!r}"
            ) from exc
        if not path or path[0] != vantage_point:
            raise DatasetError(
                f"AS path does not start at peer AS at line {line_number}"
            )
        origin = path[-1]
        vantage_points.add(vantage_point)
        paths_by_announcement.setdefault((origin, prefix), {})[
            vantage_point
        ] = path
    # Prefixes of one origin with identical path maps share one group
    # (the same batching the live collector produces).
    by_signature: dict[
        tuple[int, tuple[tuple[int, tuple[int, ...]], ...]], list[Prefix]
    ] = {}
    for (origin, prefix), paths in paths_by_announcement.items():
        signature = (origin, tuple(sorted(paths.items())))
        by_signature.setdefault(signature, []).append(prefix)
    groups = [
        RouteGroup(
            origin=origin,
            route_class=RouteClass(),
            prefixes=tuple(sorted(prefixes)),
            paths=dict(path_items),
        )
        for (origin, path_items), prefixes in sorted(
            by_signature.items(), key=lambda item: (item[0][0], item[1][0])
        )
    ]
    return RibSnapshot(
        vantage_points=tuple(sorted(vantage_points)), groups=groups
    )
