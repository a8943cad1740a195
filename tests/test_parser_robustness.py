"""Fuzz tests: every parser either parses or raises its typed error.

The dataset codecs consume text that, in a real deployment, comes from
external sources.  Whatever bytes arrive, they must fail *predictably* —
with the module's own exception type — never with a stray ``KeyError`` or
``IndexError`` from deep inside.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from repro.bgp.table import parse_prefix2as
from repro.errors import (
    AllocationError,
    DatasetError,
    PrefixError,
    RPSLError,
)
from repro.irr.rpsl import parse_database
from repro.manrs.contacts import PeeringDBLike
from repro.manrs.registry import parse_participants
from repro.net.prefix import Prefix
from repro.registry.allocation import parse_delegations
from repro.rpki.archive import parse_vrps
from repro.topology.as2org import parse_as2org
from repro.topology.relationships import parse_relationships

# Arbitrary unicode garbage; the formats' own separators show up often
# enough through the explicit @example seeds below.
fuzz_text = st.text(max_size=300)


class TestParsersNeverCrash:
    @given(fuzz_text)
    @example("route: x\n")
    @example("10.0.0.0\t8\t1\n")
    def test_rpsl(self, text):
        try:
            parse_database(text)
        except RPSLError:
            pass
        except PrefixError:
            pytest.fail("PrefixError escaped the RPSL parser")

    @given(fuzz_text)
    def test_prefix2as(self, text):
        try:
            parse_prefix2as(text)
        except DatasetError:
            pass

    @given(fuzz_text)
    def test_vrps(self, text):
        try:
            parse_vrps(text)
        except DatasetError:
            pass

    @given(fuzz_text)
    def test_as2org(self, text):
        try:
            parse_as2org(text)
        except DatasetError:
            pass

    @given(fuzz_text)
    def test_relationships(self, text):
        try:
            parse_relationships(text)
        except DatasetError:
            pass

    @given(fuzz_text)
    def test_participants(self, text):
        try:
            parse_participants(text)
        except DatasetError:
            pass

    @given(fuzz_text)
    def test_delegations(self, text):
        try:
            parse_delegations(text)
        except AllocationError:
            pass

    @given(fuzz_text)
    def test_contacts(self, text):
        try:
            PeeringDBLike.parse(text)
        except DatasetError:
            pass

    @given(fuzz_text)
    def test_prefix_parse(self, text):
        try:
            Prefix.parse(text)
        except PrefixError:
            pass
