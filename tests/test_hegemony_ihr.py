"""Unit tests for AS-Hegemony scores and the IHR pipeline."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.bgp.collector import RouteRows, collect_rib
from repro.bgp.policy import RouteClass
from repro.bgp.propagation import PropagationEngine
from repro.hegemony.scores import hegemony_scores
from repro.ihr.pipeline import build_ihr_dataset
from repro.irr.database import IRRDatabase
from repro.irr.objects import RouteObject
from repro.irr.validation import IRRStatus
from repro.net.prefix import Prefix
from repro.registry.rir import RIR
from repro.rpki.roa import VRP
from repro.rpki.rov import ROVValidator, RPKIStatus
from repro.topology.model import (
    ASCategory,
    ASTopology,
    AutonomousSystem,
    Organization,
    Relationship,
)


class TestHegemonyScores:
    def test_empty(self):
        assert hegemony_scores([]) == {}

    def test_transit_on_all_paths_scores_one(self):
        paths = [(vp, 9, 1) for vp in range(10, 20)]
        scores = hegemony_scores(paths)
        assert scores[9] == 1.0

    def test_endpoints_excluded(self):
        paths = [(10, 9, 1)]
        scores = hegemony_scores(paths, trim=0.0)
        assert 10 not in scores and 1 not in scores

    def test_prepending_collapsed(self):
        paths = [(10, 9, 9, 9, 1), (11, 9, 1)]
        assert hegemony_scores(paths, trim=0.0)[9] == 1.0

    def test_trim_discounts_rare_appearances(self):
        # AS 9 on 1 of 10 paths; 10% trim removes its single appearance.
        paths = [(10, 9, 1)] + [(vp, 8, 1) for vp in range(11, 20)]
        scores = hegemony_scores(paths, trim=0.1)
        assert 9 not in scores
        assert scores[8] == pytest.approx(1.0)

    def test_untrimmed_fraction(self):
        paths = [(10, 9, 1), (11, 9, 1), (12, 8, 1), (13, 8, 1)]
        scores = hegemony_scores(paths, trim=0.0)
        assert scores[9] == pytest.approx(0.5)
        assert scores[8] == pytest.approx(0.5)

    def test_invalid_trim_rejected(self):
        with pytest.raises(ValueError):
            hegemony_scores([(1, 2, 3)], trim=0.5)

    @given(
        st.lists(
            st.lists(
                st.integers(min_value=1, max_value=30), min_size=2, max_size=6
            ).map(tuple),
            min_size=1,
            max_size=20,
        )
    )
    def test_scores_bounded(self, paths):
        for score in hegemony_scores(paths).values():
            assert 0.0 < score <= 1.0


def _star_topology() -> ASTopology:
    """origin 5 under transit 2; transit 2 under tier1 1; VPs 3, 4."""
    topo = ASTopology()
    topo.add_org(Organization("O", "Org", "US"))
    for asn in (1, 2, 3, 4, 5):
        topo.add_as(AutonomousSystem(asn, "O", "US", RIR.ARIN, ASCategory.STUB))
    topo.add_link(1, 2, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(2, 5, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(1, 3, Relationship.PROVIDER_CUSTOMER)
    topo.add_link(1, 4, Relationship.PROVIDER_CUSTOMER)
    return topo


def _transits(dataset, group: int = 0) -> dict[int, tuple[float, bool]]:
    """One transit group's ``{asn: (hegemony, from_customer)}``."""
    columns = dataset.arrays
    begin, end = columns["tr_offsets"].tolist()[group:group + 2]
    return {
        asn: (hegemony, from_customer)
        for asn, hegemony, from_customer in zip(
            columns["tr_asn"][begin:end].tolist(),
            columns["tr_hegemony"][begin:end].tolist(),
            columns["tr_from_customer"][begin:end].tolist(),
        )
    }


class TestIHRPipeline:
    def _build(self):
        topo = _star_topology()
        engine = PropagationEngine(topo)
        prefix = Prefix.parse("12.0.0.0/16")
        routes = RouteRows.of([(prefix, 5, RouteClass())])
        rib = collect_rib(engine, routes, [3, 4])
        rov = ROVValidator([VRP(prefix, 5, 16, RIR.ARIN)])
        irr = IRRDatabase("RADB")
        irr.add_route(RouteObject(prefix, 5, "RADB"))
        return build_ihr_dataset(rib, rov, irr, topo), prefix

    def test_prefix_origin_record(self):
        dataset, prefix = self._build()
        records = dataset.prefix_origins()
        assert len(records) == 1
        record = records[0]
        assert record.prefix == prefix
        assert record.origin == 5
        assert record.rpki is RPKIStatus.VALID
        assert record.irr is IRRStatus.VALID
        assert record.visibility == 2
        assert record.hegemony == 1.0

    def test_transit_group_contains_transits_not_endpoints(self):
        dataset, _ = self._build()
        assert dataset.arrays["tg_origin"].tolist() == [5]
        assert dataset.arrays["tg_offsets"].tolist() == [0, 1]
        transits = _transits(dataset)
        # paths: (3,1,2,5) and (4,1,2,5): transits are 1 and 2
        assert set(transits) == {1, 2}
        assert transits[1][0] == pytest.approx(1.0)
        assert transits[2][0] == pytest.approx(1.0)

    def test_from_customer_flags(self):
        dataset, _ = self._build()
        transits = _transits(dataset)
        assert transits[1][1]  # 1 learned from customer 2
        assert transits[2][1]  # 2 learned from customer 5

    def test_peer_learned_route_not_from_customer(self):
        topo = ASTopology()
        topo.add_org(Organization("O", "Org", "US"))
        for asn in (1, 2, 3):
            topo.add_as(
                AutonomousSystem(asn, "O", "US", RIR.ARIN, ASCategory.STUB)
            )
        topo.add_link(1, 2, Relationship.PEER)      # 1 peers with origin 2
        topo.add_link(1, 3, Relationship.PROVIDER_CUSTOMER)  # VP 3 below 1
        engine = PropagationEngine(topo)
        prefix = Prefix.parse("12.0.0.0/16")
        rib = collect_rib(engine, RouteRows.of([(prefix, 2, RouteClass())]), [3])
        dataset = build_ihr_dataset(
            rib, ROVValidator([]), IRRDatabase("RADB"), topo
        )
        assert not _transits(dataset)[1][1]

    def test_origins_and_records_of(self, small_world):
        dataset = small_world.ihr
        origins = set(dataset.arrays["po_origin"].tolist())
        assert origins
        some_origin = next(iter(origins))
        records = dataset.records_of(some_origin)
        assert records
        assert all(r.origin == some_origin for r in records)
