"""Relying-party validation: repository → validated ROA payloads.

The RP walks every published ROA's certificate chain to a trust anchor,
checking at each step that the certificate is current (unexpired, not
revoked) and that resources are contained in the issuer's resources, and
that the ROA itself is current and within its certificate's resources.
Surviving ROAs become :class:`~repro.rpki.roa.VRP` objects — the input to
route origin validation.

:class:`IncrementalRelyingParty` serves repeated validations of one
repository at many dates (annual timelines, VRP archives).  A ROA's
verdict depends on static facts (orphanhood, resource containment, chain
resolution) and on date windows (its own and its chain's not_before /
not_after); precomputing both reduces each additional validation run to
one pair of date comparisons per ROA.  Only objects whose validity
window is crossed between two query dates can change verdict — the full
walk is repeated only after the repository's mutation counter moves.
The same per-ROA plan also answers for one ROA alone
(:meth:`IncrementalRelyingParty.vrp_at`), which is how the live world
follows a publication or withdrawal without a full run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date

from repro import obs
from repro.errors import RPKIError
from repro.rpki.ca import RPKIRepository, ResourceCertificate
from repro.rpki.roa import ROA, VRP

__all__ = ["ValidationReport", "RelyingParty", "IncrementalRelyingParty"]


@dataclass
class ValidationReport:
    """Outcome of one RP run: VRPs plus per-reason rejection counts."""

    vrps: list[VRP] = field(default_factory=list)
    rejected: dict[str, int] = field(default_factory=dict)

    def _reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    @property
    def rejected_total(self) -> int:
        """Number of ROAs that did not validate."""
        return sum(self.rejected.values())


class RelyingParty:
    """Validates an :class:`RPKIRepository` as of a given date."""

    def __init__(self, repository: RPKIRepository):
        self._repository = repository

    def validate(self, as_of: date) -> ValidationReport:
        """Produce the VRP set a router would receive on ``as_of``."""
        report = ValidationReport()
        chain_ok: dict[str, bool] = {}
        for roa in self._repository.roas:
            certificate = self._repository.certificates.get(roa.certificate_id)
            if certificate is None:
                report._reject("orphan_roa")
                continue
            if not roa.is_current(as_of):
                report._reject("roa_expired")
                continue
            if not certificate.covers(roa.prefix):
                report._reject("roa_outside_certificate")
                continue
            if not self._chain_valid(certificate, as_of, chain_ok):
                report._reject("bad_certificate_chain")
                continue
            report.vrps.append(
                VRP(
                    prefix=roa.prefix,
                    asn=roa.asn,
                    max_length=roa.max_length,
                    trust_anchor=certificate.trust_anchor,
                )
            )
        obs.add("rpki.rp_runs")
        obs.add("rpki.vrps_emitted", len(report.vrps))
        obs.add("rpki.roas_rejected", report.rejected_total)
        return report

    def _chain_valid(
        self,
        certificate: ResourceCertificate,
        as_of: date,
        cache: dict[str, bool],
    ) -> bool:
        cached = cache.get(certificate.certificate_id)
        if cached is not None:
            return cached
        try:
            chain = self._repository.chain_of(certificate)
        except RPKIError:
            cache[certificate.certificate_id] = False
            return False
        valid = all(link.is_current(as_of) for link in chain)
        if valid:
            # Child resources must be contained in the parent's resources
            # all the way up (over-claiming certificates are rejected).
            for child, parent in zip(chain, chain[1:]):
                if not all(
                    parent.covers(resource) for resource in child.resources
                ):
                    valid = False
                    break
        cache[certificate.certificate_id] = valid
        return valid


#: Sentinel windows for "never valid" plans.
_NEVER = (date.max, date.min)


@dataclass(frozen=True)
class _RoaPlan:
    """Date-independent facts about one ROA plus its validity windows.

    Evaluating a plan at a date replays exactly the checks (and check
    order, hence rejection-reason attribution) of
    :meth:`RelyingParty.validate`: orphan, ROA currency, certificate
    coverage, chain validity.
    """

    #: Rejection reason decided without looking at the date, or None.
    static_reason: str | None
    #: The ROA's own [not_before, not_after] window.
    roa_window: tuple[date, date]
    #: Reason checked after ROA currency but before the chain, or None.
    coverage_reason: str | None
    #: Intersection of the chain's windows; ``_NEVER`` when the chain is
    #: unresolvable or over-claiming (statically invalid).
    chain_window: tuple[date, date]
    #: The VRP emitted whenever every check passes.
    vrp: VRP


def _run_plans(plans: list[_RoaPlan], as_of: date) -> ValidationReport:
    """Evaluate ``plans`` at ``as_of``: VRPs in plan order, plus the
    rejection reason of every other plan."""
    report = ValidationReport()
    vrps = report.vrps
    for plan in plans:
        if plan.static_reason is not None:
            report._reject(plan.static_reason)
            continue
        low, high = plan.roa_window
        if not low <= as_of <= high:
            report._reject("roa_expired")
            continue
        if plan.coverage_reason is not None:
            report._reject(plan.coverage_reason)
            continue
        low, high = plan.chain_window
        if not low <= as_of <= high:
            report._reject("bad_certificate_chain")
            continue
        vrps.append(plan.vrp)
    return report


class IncrementalRelyingParty:
    """Relying party specialised for many validations at many dates.

    Results are identical to ``RelyingParty(repository).validate(as_of)``
    (asserted in the equivalence tests); the precomputed per-ROA plans
    are keyed on the repository's mutation counter, so any publication,
    withdrawal or revocation invalidates them.
    """

    def __init__(self, repository: RPKIRepository):
        self._repository = repository
        self._plans: list[_RoaPlan] = []
        self._plans_version = -1

    def validate(self, as_of: date) -> ValidationReport:
        """Produce the VRP set a router would receive on ``as_of``."""
        if self._plans_version != self._repository.version:
            self._plans = self._build_plans()
            self._plans_version = self._repository.version
        report = _run_plans(self._plans, as_of)
        obs.add("rpki.rp_runs")
        obs.add("rpki.vrps_emitted", len(report.vrps))
        obs.add("rpki.roas_rejected", report.rejected_total)
        return report

    def vrp_at(self, roa: ROA, as_of: date) -> VRP | None:
        """The VRP ``roa`` contributes to :meth:`validate` at ``as_of``.

        None when the ROA is rejected.  The verdict comes from the same
        per-ROA plan a full run builds, against the repository's current
        certificates, without planning any other ROA — what a delta
        consumer needs to follow one publication or withdrawal.
        """
        vrps = _run_plans([self._plan(roa, {})], as_of).vrps
        return vrps[0] if vrps else None

    def _build_plans(self) -> list[_RoaPlan]:
        chain_windows: dict[str, tuple[date, date]] = {}
        return [
            self._plan(roa, chain_windows) for roa in self._repository.roas
        ]

    def _plan(
        self, roa: ROA, chain_windows: dict[str, tuple[date, date]]
    ) -> _RoaPlan:
        """One ROA's plan; ``chain_windows`` caches windows by certificate."""
        certificate = self._repository.certificates.get(roa.certificate_id)
        if certificate is None:
            return _RoaPlan("orphan_roa", _NEVER, None, _NEVER, None)
        coverage_reason = (
            None
            if certificate.covers(roa.prefix)
            else "roa_outside_certificate"
        )
        chain_window = chain_windows.get(certificate.certificate_id)
        if chain_window is None:
            chain_window = self._chain_window(certificate)
            chain_windows[certificate.certificate_id] = chain_window
        return _RoaPlan(
            None,
            (roa.not_before, roa.not_after),
            coverage_reason,
            chain_window,
            VRP(
                prefix=roa.prefix,
                asn=roa.asn,
                max_length=roa.max_length,
                trust_anchor=certificate.trust_anchor,
            ),
        )

    def _chain_window(
        self, certificate: ResourceCertificate
    ) -> tuple[date, date]:
        """Dates at which the chain validates, as one closed interval.

        Every link must be simultaneously current, so the window is the
        intersection of the links' windows; resolution failures and
        over-claiming (both date-independent) collapse it to ``_NEVER``.
        """
        try:
            chain = self._repository.chain_of(certificate)
        except RPKIError:
            return _NEVER
        if any(link.revoked for link in chain):
            return _NEVER
        for child, parent in zip(chain, chain[1:]):
            if not all(
                parent.covers(resource) for resource in child.resources
            ):
                return _NEVER
        low = max(link.not_before for link in chain)
        high = min(link.not_after for link in chain)
        if low > high:
            return _NEVER
        return (low, high)
