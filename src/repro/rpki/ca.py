"""RPKI certification tree: trust anchors and resource certificates.

Each RIR is a trust anchor for the address space it administers (§2.3).
Resource holders get CA certificates listing their resources and sign ROAs
under them.  The model keeps the parts that matter for validation
semantics — resource containment down the chain, validity windows,
revocation — and drops actual cryptography (signatures are assumed
correct; what the paper measures is registration data quality, not
crypto failures).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property

from repro.errors import RPKIError
from repro.net.prefix import Prefix
from repro.registry.rir import RIR
from repro.rpki.roa import ROA

__all__ = ["ResourceCertificate", "RPKIRepository"]


@dataclass(frozen=True)
class ResourceCertificate:
    """A CA certificate binding a subject to a set of address resources."""

    certificate_id: str
    subject: str
    resources: tuple[Prefix, ...]
    issuer_id: str | None  # None for a trust-anchor certificate
    trust_anchor: RIR
    not_before: date
    not_after: date
    revoked: bool = False

    def __post_init__(self) -> None:
        if self.not_after < self.not_before:
            raise RPKIError(
                f"certificate {self.certificate_id} validity window inverted"
            )

    def is_current(self, as_of: date) -> bool:
        """True if unexpired, already valid, and not revoked."""
        return (
            not self.revoked and self.not_before <= as_of <= self.not_after
        )

    @cached_property
    def _coverage(self) -> dict[int, tuple[list[int], list[int]]]:
        # Per version: resource ranges sorted by first address, paired
        # with the running maximum of last addresses.  A CIDR block is
        # contained in another iff its address range is, so "some
        # resource contains prefix" reduces to "the widest-reaching
        # resource starting at or below prefix.first reaches prefix.last".
        by_version: dict[int, list[tuple[int, int]]] = {}
        for resource in self.resources:
            by_version.setdefault(resource.version, []).append(
                (resource.first, resource.last)
            )
        coverage: dict[int, tuple[list[int], list[int]]] = {}
        for version, spans in by_version.items():
            spans.sort()
            firsts: list[int] = []
            reach: list[int] = []
            furthest = -1
            for first, last in spans:
                if last > furthest:
                    furthest = last
                firsts.append(first)
                reach.append(furthest)
            coverage[version] = (firsts, reach)
        return coverage

    def covers(self, prefix: Prefix) -> bool:
        """True if ``prefix`` is within this certificate's resources."""
        entry = self._coverage.get(prefix.version)
        if entry is None:
            return False
        firsts, reach = entry
        index = bisect_right(firsts, prefix.first) - 1
        return index >= 0 and reach[index] >= prefix.last


@dataclass
class RPKIRepository:
    """The global RPKI as published: certificates and ROAs by id.

    The repository is *untrusted input* to the relying party — it may
    contain expired certificates, ROAs outside their certificate's
    resources, or orphaned objects.  All of that is filtered during
    validation, never at insert time (matching how the real RPKI works:
    anyone can publish garbage; RPs discard it).
    """

    certificates: dict[str, ResourceCertificate] = field(default_factory=dict)
    roas: list[ROA] = field(default_factory=list)
    _next_cert: int = 0
    #: Bumped on every mutation; relying parties key their plans on it.
    _version: int = field(default=0, init=False, repr=False, compare=False)

    def add_trust_anchor(
        self,
        rir: RIR,
        not_before: date,
        not_after: date,
    ) -> ResourceCertificate:
        """Create the self-signed trust-anchor certificate for ``rir``."""
        resources = rir.v4_pools + (rir.v6_pool,)
        certificate = ResourceCertificate(
            certificate_id=f"TA-{rir.value}",
            subject=rir.value,
            resources=resources,
            issuer_id=None,
            trust_anchor=rir,
            not_before=not_before,
            not_after=not_after,
        )
        self._store(certificate)
        return certificate

    def issue_certificate(
        self,
        issuer: ResourceCertificate,
        subject: str,
        resources: tuple[Prefix, ...],
        not_before: date,
        not_after: date,
    ) -> ResourceCertificate:
        """Issue a CA certificate under ``issuer``.

        Resource containment is *not* enforced here — an RIR hosting
        system would enforce it, but modelling over-claiming certificates
        lets tests exercise the relying party's rejection path.
        """
        certificate = ResourceCertificate(
            certificate_id=f"CERT-{self._next_cert:06d}",
            subject=subject,
            resources=resources,
            issuer_id=issuer.certificate_id,
            trust_anchor=issuer.trust_anchor,
            not_before=not_before,
            not_after=not_after,
        )
        self._next_cert += 1
        self._store(certificate)
        return certificate

    def _store(self, certificate: ResourceCertificate) -> None:
        if certificate.certificate_id in self.certificates:
            raise RPKIError(f"duplicate certificate {certificate.certificate_id}")
        self.certificates[certificate.certificate_id] = certificate
        self._version += 1

    def revoke(self, certificate_id: str) -> None:
        """Mark a certificate revoked (its ROAs stop validating)."""
        certificate = self.certificates.get(certificate_id)
        if certificate is None:
            raise RPKIError(f"unknown certificate {certificate_id}")
        self.certificates[certificate_id] = ResourceCertificate(
            certificate_id=certificate.certificate_id,
            subject=certificate.subject,
            resources=certificate.resources,
            issuer_id=certificate.issuer_id,
            trust_anchor=certificate.trust_anchor,
            not_before=certificate.not_before,
            not_after=certificate.not_after,
            revoked=True,
        )
        self._version += 1

    def add_roa(self, roa: ROA) -> None:
        """Publish a ROA (validated later by the relying party)."""
        self.roas.append(roa)
        self._version += 1

    def remove_roa(self, roa: ROA) -> bool:
        """Withdraw one published copy of ``roa``; True if it was present."""
        try:
            self.roas.remove(roa)
        except ValueError:
            return False
        self._version += 1
        return True

    @property
    def version(self) -> int:
        """Mutation counter for cache invalidation."""
        return self._version

    def chain_of(
        self, certificate: ResourceCertificate
    ) -> list[ResourceCertificate]:
        """The certificate chain up to (and including) the trust anchor.

        Raises :class:`RPKIError` on a broken or cyclic chain.
        """
        chain = [certificate]
        seen = {certificate.certificate_id}
        current = certificate
        while current.issuer_id is not None:
            parent = self.certificates.get(current.issuer_id)
            if parent is None:
                raise RPKIError(
                    f"certificate {current.certificate_id} has unknown issuer"
                )
            if parent.certificate_id in seen:
                raise RPKIError("certificate chain contains a cycle")
            chain.append(parent)
            seen.add(parent.certificate_id)
            current = parent
        return chain
