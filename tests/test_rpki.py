"""Unit and property tests for the RPKI substrate."""

from __future__ import annotations

from datetime import date

import pytest
from hypothesis import given, strategies as st

from repro.errors import DatasetError, RPKIError
from repro.net.prefix import Prefix
from repro.registry.rir import RIR
from repro.rpki.archive import VRPArchive, parse_vrps, serialize_vrps
from repro.rpki.ca import RPKIRepository
from repro.rpki.roa import ROA, VRP
from repro.rpki.rov import ROVValidator, RPKIStatus
from repro.rpki.validator import RelyingParty

T0 = date(2020, 1, 1)
T1 = date(2030, 1, 1)
NOW = date(2022, 5, 1)


def _p(text: str) -> Prefix:
    return Prefix.parse(text)


def make_repo() -> tuple[RPKIRepository, str]:
    repo = RPKIRepository()
    anchor = repo.add_trust_anchor(RIR.ARIN, T0, T1)
    cert = repo.issue_certificate(
        anchor, "ORG-1", (_p("12.0.0.0/8"),), T0, T1
    )
    return repo, cert.certificate_id


class TestROA:
    def test_rejects_bad_maxlen(self):
        with pytest.raises(RPKIError):
            ROA(_p("12.0.0.0/16"), 65001, 8, "C", T0, T1)
        with pytest.raises(RPKIError):
            ROA(_p("12.0.0.0/16"), 65001, 33, "C", T0, T1)

    def test_rejects_inverted_window(self):
        with pytest.raises(RPKIError):
            ROA(_p("12.0.0.0/16"), 65001, 24, "C", T1, T0)

    def test_is_current(self):
        roa = ROA(_p("12.0.0.0/16"), 65001, 24, "C", T0, T1)
        assert roa.is_current(NOW)
        assert not roa.is_current(date(2019, 1, 1))


class TestRepository:
    def test_remove_roa_withdraws_the_first_equal_copy(self):
        """``remove_roa`` removes the first ROA equal to its argument,
        also when it holds another object, leaves later duplicates and
        other ROAs in order, and bumps the version once per removal."""
        repo, cert_id = make_repo()
        kept = ROA(_p("12.1.0.0/16"), 65001, 16, cert_id, T0, T1)
        other_asn = ROA(_p("12.2.0.0/16"), 65002, 24, cert_id, T0, T1)
        first = ROA(_p("12.2.0.0/16"), 65001, 24, cert_id, T0, T1)
        second = ROA(_p("12.2.0.0/16"), 65001, 24, cert_id, T0, T1)
        for roa in (kept, other_asn, first, second):
            repo.add_roa(roa)
        version = repo.version
        equal = ROA(
            Prefix(first.prefix.value, 16), 65001, 24, cert_id, T0, T1
        )
        assert equal == first
        assert equal is not first and equal.prefix is not first.prefix
        assert repo.remove_roa(equal)
        assert repo.roas == [kept, other_asn, second]
        assert repo.roas[2] is second
        assert repo.version == version + 1
        assert repo.remove_roa(equal)
        assert repo.roas == [kept, other_asn]
        assert repo.version == version + 2

    def test_remove_absent_roa_changes_nothing(self):
        repo, cert_id = make_repo()
        held = ROA(_p("12.1.0.0/16"), 65001, 24, cert_id, T0, T1)
        repo.add_roa(held)
        version = repo.version
        for absent in (
            ROA(_p("12.1.0.0/16"), 65001, 25, cert_id, T0, T1),
            ROA(_p("12.1.0.0/16"), 65002, 24, cert_id, T0, T1),
            ROA(_p("12.1.0.0/17"), 65001, 24, cert_id, T0, T1),
        ):
            assert not repo.remove_roa(absent)
        assert repo.roas == [held]
        assert repo.version == version


class TestVRP:
    def test_matches(self):
        vrp = VRP(_p("12.0.0.0/16"), 65001, 24, RIR.ARIN)
        assert vrp.matches(_p("12.0.1.0/24"), 65001)
        assert not vrp.matches(_p("12.0.1.0/24"), 65002)
        assert not vrp.matches(_p("12.0.0.0/25"), 65001)  # beyond maxlen
        assert not vrp.matches(_p("13.0.0.0/24"), 65001)  # not covered

    def test_as0_never_matches(self):
        vrp = VRP(_p("12.0.0.0/16"), 0, 24, RIR.ARIN)
        assert not vrp.matches(_p("12.0.0.0/16"), 0)


class TestRelyingParty:
    def test_valid_roa_becomes_vrp(self):
        repo, cert_id = make_repo()
        repo.add_roa(ROA(_p("12.1.0.0/16"), 65001, 24, cert_id, T0, T1))
        report = RelyingParty(repo).validate(NOW)
        assert len(report.vrps) == 1
        assert report.vrps[0].trust_anchor is RIR.ARIN
        assert report.rejected_total == 0

    def test_expired_roa_rejected(self):
        repo, cert_id = make_repo()
        repo.add_roa(
            ROA(_p("12.1.0.0/16"), 65001, 24, cert_id, T0, date(2021, 1, 1))
        )
        report = RelyingParty(repo).validate(NOW)
        assert not report.vrps
        assert report.rejected == {"roa_expired": 1}

    def test_orphan_roa_rejected(self):
        repo, _ = make_repo()
        repo.add_roa(ROA(_p("12.1.0.0/16"), 65001, 24, "NOPE", T0, T1))
        report = RelyingParty(repo).validate(NOW)
        assert report.rejected == {"orphan_roa": 1}

    def test_roa_outside_certificate_rejected(self):
        repo, cert_id = make_repo()
        repo.add_roa(ROA(_p("13.0.0.0/16"), 65001, 24, cert_id, T0, T1))
        report = RelyingParty(repo).validate(NOW)
        assert report.rejected == {"roa_outside_certificate": 1}

    def test_revoked_certificate_invalidates_roas(self):
        repo, cert_id = make_repo()
        repo.add_roa(ROA(_p("12.1.0.0/16"), 65001, 24, cert_id, T0, T1))
        repo.revoke(cert_id)
        report = RelyingParty(repo).validate(NOW)
        assert report.rejected == {"bad_certificate_chain": 1}

    def test_overclaiming_certificate_rejected(self):
        repo = RPKIRepository()
        anchor = repo.add_trust_anchor(RIR.ARIN, T0, T1)
        # claims RIPE space from the ARIN anchor
        cert = repo.issue_certificate(
            anchor, "EVIL", (_p("31.0.0.0/8"),), T0, T1
        )
        repo.add_roa(ROA(_p("31.1.0.0/16"), 65001, 24, cert.certificate_id, T0, T1))
        report = RelyingParty(repo).validate(NOW)
        assert report.rejected == {"bad_certificate_chain": 1}

    def test_expired_parent_breaks_chain(self):
        repo = RPKIRepository()
        anchor = repo.add_trust_anchor(RIR.ARIN, T0, date(2021, 6, 1))
        cert = repo.issue_certificate(anchor, "ORG", (_p("12.0.0.0/8"),), T0, T1)
        repo.add_roa(ROA(_p("12.1.0.0/16"), 65001, 24, cert.certificate_id, T0, T1))
        report = RelyingParty(repo).validate(NOW)
        assert report.rejected == {"bad_certificate_chain": 1}

    def test_revoke_unknown_certificate_raises(self):
        repo, _ = make_repo()
        with pytest.raises(RPKIError):
            repo.revoke("missing")


class TestROV:
    def _validator(self) -> ROVValidator:
        return ROVValidator(
            [
                VRP(_p("12.0.0.0/16"), 65001, 20, RIR.ARIN),
                VRP(_p("20.0.0.0/8"), 0, 8, RIR.ARIN),  # AS0
            ]
        )

    def test_valid(self):
        assert self._validator().validate(_p("12.0.0.0/18"), 65001) is RPKIStatus.VALID

    def test_invalid_asn(self):
        assert (
            self._validator().validate(_p("12.0.0.0/18"), 65002)
            is RPKIStatus.INVALID_ASN
        )

    def test_invalid_length(self):
        assert (
            self._validator().validate(_p("12.0.0.0/24"), 65001)
            is RPKIStatus.INVALID_LENGTH
        )

    def test_not_found(self):
        assert (
            self._validator().validate(_p("99.0.0.0/8"), 65001)
            is RPKIStatus.NOT_FOUND
        )

    def test_as0_makes_invalid(self):
        assert (
            self._validator().validate(_p("20.1.0.0/16"), 20)
            is RPKIStatus.INVALID_ASN
        )

    def test_second_vrp_can_rescue(self):
        validator = ROVValidator(
            [
                VRP(_p("12.0.0.0/16"), 65001, 16, RIR.ARIN),
                VRP(_p("12.0.0.0/16"), 65002, 24, RIR.ARIN),
            ]
        )
        assert validator.validate(_p("12.0.0.0/20"), 65002) is RPKIStatus.VALID
        # 65001 matches ASN but not length -> invalid length, not ASN
        assert (
            validator.validate(_p("12.0.0.0/20"), 65001)
            is RPKIStatus.INVALID_LENGTH
        )

    def test_is_invalid_property(self):
        assert RPKIStatus.INVALID_ASN.is_invalid
        assert RPKIStatus.INVALID_LENGTH.is_invalid
        assert not RPKIStatus.VALID.is_invalid
        assert not RPKIStatus.NOT_FOUND.is_invalid

    def test_covered_space(self):
        validator = self._validator()
        prefixes = [_p("12.0.5.0/24"), _p("99.0.0.0/24")]
        assert validator.covered_space(prefixes) == [_p("12.0.5.0/24")]

    def test_all_vrps_roundtrip(self):
        validator = self._validator()
        assert len(validator.all_vrps()) == len(validator) == 2


class TestArchive:
    def test_snapshot_lookup(self):
        archive = VRPArchive()
        vrps = [VRP(_p("12.0.0.0/16"), 65001, 16, RIR.ARIN)]
        archive.add_snapshot(date(2022, 1, 1), vrps)
        archive.add_snapshot(date(2022, 2, 1), [])
        assert archive.snapshot(date(2022, 1, 1)) == tuple(vrps)
        assert archive.latest_at(date(2022, 1, 15)) == tuple(vrps)
        assert archive.latest_at(date(2022, 3, 1)) == ()

    def test_duplicate_snapshot_rejected(self):
        archive = VRPArchive()
        archive.add_snapshot(date(2022, 1, 1), [])
        with pytest.raises(DatasetError):
            archive.add_snapshot(date(2022, 1, 1), [])

    def test_lookup_before_first_raises(self):
        archive = VRPArchive()
        archive.add_snapshot(date(2022, 1, 1), [])
        with pytest.raises(DatasetError):
            archive.latest_at(date(2021, 1, 1))
        with pytest.raises(DatasetError):
            archive.snapshot(date(2021, 1, 1))

    def test_csv_roundtrip(self):
        vrps = [
            VRP(_p("12.0.0.0/16"), 65001, 20, RIR.ARIN),
            VRP(_p("31.0.0.0/12"), 65002, 12, RIR.RIPE),
        ]
        recovered = parse_vrps(serialize_vrps(vrps, NOW))
        assert sorted(recovered, key=str) == sorted(vrps, key=str)

    def test_parse_requires_header(self):
        with pytest.raises(DatasetError):
            parse_vrps("no header\n")


# -- RFC 6811 invariants (property-based) -----------------------------------

vrp_strategy = st.builds(
    lambda value, length, asn, extra: VRP(
        Prefix.from_host(value, length, 4),
        asn,
        min(32, length + extra),
        RIR.ARIN,
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=8, max_value=24),
    st.integers(min_value=0, max_value=70000),
    st.integers(min_value=0, max_value=8),
)

route_strategy = st.tuples(
    st.builds(
        lambda value, length: Prefix.from_host(value, length, 4),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=8, max_value=32),
    ),
    st.integers(min_value=1, max_value=70000),
)


@given(st.lists(vrp_strategy, max_size=20), route_strategy)
def test_rov_status_matches_rfc6811_oracle(vrps, route):
    prefix, origin = route
    validator = ROVValidator(vrps)
    covering = [v for v in vrps if v.prefix.contains(prefix)]
    if not covering:
        expected = RPKIStatus.NOT_FOUND
    elif any(v.matches(prefix, origin) for v in covering):
        expected = RPKIStatus.VALID
    elif any(v.asn == origin and v.asn != 0 for v in covering):
        expected = RPKIStatus.INVALID_LENGTH
    else:
        expected = RPKIStatus.INVALID_ASN
    assert validator.validate(prefix, origin) is expected


@given(st.lists(vrp_strategy, max_size=20), route_strategy)
def test_adding_vrps_never_unvalidates(vrps, route):
    """Monotonicity: a VALID route stays VALID when more VRPs appear."""
    prefix, origin = route
    if ROVValidator(vrps).validate(prefix, origin) is RPKIStatus.VALID:
        more = vrps + [VRP(_p("0.0.0.0/0"), 64512, 32, RIR.ARIN)]
        assert ROVValidator(more).validate(prefix, origin) is RPKIStatus.VALID
