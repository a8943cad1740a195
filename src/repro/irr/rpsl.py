"""RPSL text parsing and serialisation.

RPSL objects are blocks of ``attribute: value`` lines separated by blank
lines; a line starting with whitespace or ``+`` continues the previous
attribute (RFC 2622 §2).  The parser produces attribute lists preserving
order and repetition, and the typed codecs below convert between blocks
and the dataclasses in :mod:`repro.irr.objects`.
"""

from __future__ import annotations

from datetime import date

from repro.errors import RPSLError
from repro.irr.objects import (
    AsSetObject,
    AutNumObject,
    MntnerObject,
    RouteObject,
)
from repro.net.asn import format_asn, parse_asn
from repro.net.prefix import Prefix

__all__ = [
    "parse_rpsl_blocks",
    "serialize_object",
    "parse_object",
    "serialize_database",
    "parse_database",
]

RPSLObject = RouteObject | AutNumObject | AsSetObject | MntnerObject

#: ``attribute:`` padded so values start in column 17 (at least one
#: space after the colon), for every attribute :func:`serialize_object`
#: writes.
_LABELS = {
    attribute: f"{attribute}:".ljust(15) + " "
    for attribute in (
        "route", "route6", "descr", "origin", "mnt-by", "created",
        "last-modified", "source", "aut-num", "as-name", "import",
        "export", "admin-c", "tech-c", "as-set", "members", "mntner",
        "auth",
    )
}


def parse_rpsl_blocks(text: str) -> list[list[tuple[str, str]]]:
    """Split RPSL text into blocks of (attribute, value) pairs."""
    blocks: list[list[tuple[str, str]]] = []
    current: list[tuple[str, str]] = []
    for raw_line in text.splitlines():
        if not raw_line.strip():
            if current:
                blocks.append(current)
                current = []
            continue
        if raw_line.startswith("%") or raw_line.startswith("#"):
            continue  # comment lines used by whois output
        if raw_line[0] in (" ", "\t", "+"):
            if not current:
                raise RPSLError(f"continuation line outside object: {raw_line!r}")
            attribute, value = current[-1]
            continuation = raw_line.lstrip(" \t+").strip()
            current[-1] = (attribute, f"{value} {continuation}".strip())
            continue
        if ":" not in raw_line:
            raise RPSLError(f"malformed RPSL line: {raw_line!r}")
        attribute, _, value = raw_line.partition(":")
        current.append((attribute.strip().lower(), value.strip()))
    if current:
        blocks.append(current)
    return blocks


def _first(block: list[tuple[str, str]], attribute: str, default: str | None = None) -> str:
    for name, value in block:
        if name == attribute:
            return value
    if default is None:
        raise RPSLError(f"missing mandatory attribute {attribute!r}")
    return default


def _all(block: list[tuple[str, str]], attribute: str) -> tuple[str, ...]:
    return tuple(value for name, value in block if name == attribute)


def _parse_date(value: str) -> date | None:
    if not value:
        return None
    try:
        return date.fromisoformat(value)
    except ValueError as exc:
        raise RPSLError(f"bad date attribute: {value!r}") from exc


def parse_object(block: list[tuple[str, str]]) -> RPSLObject:
    """Convert one parsed block into its typed object.

    All value errors (bad prefixes, bad ASNs, bad dates) surface as
    :class:`~repro.errors.RPSLError`.
    """
    if not block:
        raise RPSLError("empty RPSL block")
    try:
        return _parse_object_inner(block)
    except RPSLError:
        raise
    except ValueError as exc:  # PrefixError / ASNError are ValueErrors
        raise RPSLError(f"bad RPSL value in {block[0][0]!r} object: {exc}") from exc


def _parse_object_inner(block: list[tuple[str, str]]) -> RPSLObject:
    object_class = block[0][0]
    if object_class in ("route", "route6"):
        return RouteObject(
            prefix=Prefix.parse(block[0][1]),
            origin=parse_asn(_first(block, "origin")),
            source=_first(block, "source"),
            mnt_by=_first(block, "mnt-by", "MAINT-NONE"),
            descr=_first(block, "descr", ""),
            created=_parse_date(_first(block, "created", "")),
            last_modified=_parse_date(_first(block, "last-modified", "")),
        )
    if object_class == "aut-num":
        return AutNumObject(
            asn=parse_asn(block[0][1]),
            as_name=_first(block, "as-name", ""),
            source=_first(block, "source"),
            mnt_by=_first(block, "mnt-by", "MAINT-NONE"),
            admin_c=_first(block, "admin-c", ""),
            tech_c=_first(block, "tech-c", ""),
            import_lines=_all(block, "import"),
            export_lines=_all(block, "export"),
            last_modified=_parse_date(_first(block, "last-modified", "")),
        )
    if object_class == "as-set":
        members: list[str] = []
        for value in _all(block, "members"):
            members.extend(
                token.strip() for token in value.split(",") if token.strip()
            )
        return AsSetObject(
            name=block[0][1],
            members=tuple(members),
            source=_first(block, "source"),
            mnt_by=_first(block, "mnt-by", "MAINT-NONE"),
        )
    if object_class == "mntner":
        return MntnerObject(
            name=block[0][1],
            admin_c=_first(block, "admin-c", ""),
            auth=_first(block, "auth", "CRYPT-PW dummy"),
            source=_first(block, "source", "RADB"),
        )
    raise RPSLError(f"unsupported RPSL class {object_class!r}")


def serialize_object(obj: RPSLObject) -> str:
    """Render one typed object as RPSL text (empty attributes omitted)."""
    labels = _LABELS
    if isinstance(obj, RouteObject):
        # Route objects fill whole database dumps, so their lines are
        # written straight from the padded labels.
        lines = [labels[obj.rpsl_class] + str(obj.prefix)]
        if obj.descr:
            lines.append(labels["descr"] + obj.descr)
        lines.append(labels["origin"] + format_asn(obj.origin))
        if obj.mnt_by:
            lines.append(labels["mnt-by"] + obj.mnt_by)
        if obj.created:
            lines.append(labels["created"] + obj.created.isoformat())
        if obj.last_modified:
            lines.append(
                labels["last-modified"] + obj.last_modified.isoformat()
            )
        if obj.source:
            lines.append(labels["source"] + obj.source)
        return "\n".join(lines) + "\n"
    lines = []

    def put(attribute: str, value: str) -> None:
        if value:
            lines.append(labels[attribute] + value)

    if isinstance(obj, AutNumObject):
        put("aut-num", format_asn(obj.asn))
        put("as-name", obj.as_name or "UNNAMED")
        for line in obj.import_lines:
            put("import", line)
        for line in obj.export_lines:
            put("export", line)
        put("admin-c", obj.admin_c)
        put("tech-c", obj.tech_c)
        put("mnt-by", obj.mnt_by)
        if obj.last_modified:
            put("last-modified", obj.last_modified.isoformat())
        put("source", obj.source)
    elif isinstance(obj, AsSetObject):
        put("as-set", obj.name)
        if obj.members:
            put("members", ", ".join(obj.members))
        put("mnt-by", obj.mnt_by)
        put("source", obj.source)
    elif isinstance(obj, MntnerObject):
        put("mntner", obj.name)
        put("admin-c", obj.admin_c)
        put("auth", obj.auth)
        put("source", obj.source)
    else:
        raise RPSLError(f"cannot serialise {type(obj).__name__}")
    return "\n".join(lines) + "\n"


def serialize_database(objects: list[RPSLObject]) -> str:
    """Render a whole database dump (objects separated by blank lines)."""
    return "\n".join(serialize_object(obj) for obj in objects)


def parse_database(text: str) -> list[RPSLObject]:
    """Parse a full database dump into typed objects."""
    return [parse_object(block) for block in parse_rpsl_blocks(text)]
