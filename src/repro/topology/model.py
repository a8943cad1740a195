"""AS-level topology model: ASes, organisations, and business relationships.

The model follows the standard Gao–Rexford abstraction used by CAIDA's
AS-relationship dataset: every inter-AS link is either *customer-provider*
(the customer pays the provider for transit) or *peer-peer* (settlement-free
exchange of customer routes).  The paper's analyses consume exactly the
artefacts this module computes: customer degree (size classes, §6.2),
customer cone (AS rank), direct-customer sets (Action 1, §6.4), and the
as2org sibling structure (§7, Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from repro.errors import TopologyError
from repro.net.asn import validate_asn
from repro.registry.rir import RIR

__all__ = [
    "ASCategory",
    "AutonomousSystem",
    "Organization",
    "Relationship",
    "ASTopology",
    "TopologyCSR",
]


class TopologyCSR:
    """The AS graph frozen into compressed-sparse-row edge arrays.

    One row per AS in ascending-ASN order; per relationship kind an
    ``(indptr, indices)`` pair where ``indices[indptr[i]:indptr[i+1]]``
    are the row numbers of AS ``asns[i]``'s neighbours, themselves in
    ascending-ASN order (matching the sorted-neighbour iteration the
    propagation engine uses).  Built once per topology state and reused
    by every columnar kernel that walks adjacency.
    """

    __slots__ = (
        "asns",
        "index_of",
        "provider_indptr",
        "provider_indices",
        "customer_indptr",
        "customer_indices",
        "peer_indptr",
        "peer_indices",
        "_customer_edge_keys",
    )

    def __init__(
        self,
        ases: dict[int, set[int]] | list[int],
        providers: dict[int, set[int]],
        customers: dict[int, set[int]],
        peers: dict[int, set[int]],
    ):
        asns = sorted(ases)
        self.asns = np.array(asns, dtype=np.int64)
        self.index_of = {asn: i for i, asn in enumerate(asns)}
        for name, adjacency in (
            ("provider", providers),
            ("customer", customers),
            ("peer", peers),
        ):
            indptr = np.zeros(len(asns) + 1, dtype=np.int32)
            flat: list[int] = []
            for i, asn in enumerate(asns):
                flat.extend(self.index_of[n] for n in sorted(adjacency[asn]))
                indptr[i + 1] = len(flat)
            setattr(self, f"{name}_indptr", indptr)
            setattr(
                self, f"{name}_indices", np.array(flat, dtype=np.int32)
            )
        self._customer_edge_keys: np.ndarray | None = None

    def customer_edge_keys(self) -> np.ndarray:
        """Sorted packed ``provider<<32 | customer`` ASN keys, one per
        provider→customer edge — the membership table the hegemony
        kernel probes for learned-from-customer flags.  Built once per
        CSR and shared by every consumer (every hegemony partition of a
        build probes the same table)."""
        keys = self._customer_edge_keys
        if keys is None:
            provider_rows = np.repeat(
                np.arange(len(self.asns), dtype=np.int64),
                np.diff(self.customer_indptr),
            )
            keys = (
                self.asns[provider_rows].astype(np.uint64) << np.uint64(32)
            ) | self.asns[self.customer_indices].astype(np.uint64)
            keys.sort()
            self._customer_edge_keys = keys
        return keys

    def neighbors(self, kind: str, row: int) -> np.ndarray:
        """Neighbour rows of ``row`` for ``kind`` in {provider, customer,
        peer} (ascending-ASN order)."""
        indptr = getattr(self, f"{kind}_indptr")
        indices = getattr(self, f"{kind}_indices")
        return indices[indptr[row] : indptr[row + 1]]


class ASCategory(str, Enum):
    """Coarse business type of an AS, used by the behaviour model."""

    STUB = "stub"              # enterprise / edge network, no customers
    SMALL_ISP = "small_isp"    # access ISP with a handful of customers
    MEDIUM_ISP = "medium_isp"  # regional ISP
    LARGE_TRANSIT = "large_transit"  # tier-1 style transit provider
    CDN = "cdn"                # content/cloud provider (MANRS CDN program)
    IXP = "ixp"                # route-server AS at an exchange point


@dataclass(frozen=True)
class AutonomousSystem:
    """A single AS: the unit of routing policy and MANRS membership."""

    asn: int
    org_id: str
    country: str
    rir: RIR
    category: ASCategory

    def __post_init__(self) -> None:
        validate_asn(self.asn)


@dataclass
class Organization:
    """An organisation owning one or more ASes (as2org granularity)."""

    org_id: str
    name: str
    country: str
    asns: list[int] = field(default_factory=list)


class Relationship(int, Enum):
    """CAIDA AS-relationship encoding: -1 = provider-to-customer, 0 = peer."""

    PROVIDER_CUSTOMER = -1
    PEER = 0


class ASTopology:
    """The AS graph with typed edges and derived metrics.

    Edges are stored per AS in adjacency sets so the propagation engine can
    iterate neighbours without allocating.  The topology is append-only;
    derived data (customer cones, AS rank) is computed lazily and cached,
    and the cache is invalidated on mutation.
    """

    def __init__(self) -> None:
        self._ases: dict[int, AutonomousSystem] = {}
        self._orgs: dict[str, Organization] = {}
        self._providers: dict[int, set[int]] = {}
        self._customers: dict[int, set[int]] = {}
        self._peers: dict[int, set[int]] = {}
        self._cone_cache: dict[int, frozenset[int]] | None = None
        self._rank_cache: dict[int, int] | None = None
        self._csr_cache: TopologyCSR | None = None

    # -- construction ------------------------------------------------------

    def add_org(self, org: Organization) -> None:
        """Register an organisation (before adding its ASes)."""
        if org.org_id in self._orgs:
            raise TopologyError(f"duplicate org {org.org_id}")
        self._orgs[org.org_id] = org

    def add_as(self, asys: AutonomousSystem) -> None:
        """Register an AS under an already-registered organisation."""
        if asys.asn in self._ases:
            raise TopologyError(f"duplicate AS{asys.asn}")
        if asys.org_id not in self._orgs:
            raise TopologyError(f"unknown org {asys.org_id} for AS{asys.asn}")
        self._ases[asys.asn] = asys
        self._orgs[asys.org_id].asns.append(asys.asn)
        self._providers[asys.asn] = set()
        self._customers[asys.asn] = set()
        self._peers[asys.asn] = set()
        self._invalidate()

    def add_link(self, a: int, b: int, relationship: Relationship) -> None:
        """Add a typed edge; for PROVIDER_CUSTOMER, ``a`` is the provider."""
        if a not in self._ases or b not in self._ases:
            raise TopologyError(f"link references unknown AS ({a}, {b})")
        if a == b:
            raise TopologyError(f"self-link on AS{a}")
        if self._linked(a, b):
            raise TopologyError(f"duplicate link AS{a}-AS{b}")
        if relationship is Relationship.PROVIDER_CUSTOMER:
            self._customers[a].add(b)
            self._providers[b].add(a)
        else:
            self._peers[a].add(b)
            self._peers[b].add(a)
        self._invalidate()

    def _linked(self, a: int, b: int) -> bool:
        return (
            b in self._customers[a]
            or b in self._providers[a]
            or b in self._peers[a]
        )

    def linked(self, a: int, b: int) -> bool:
        """True if any relationship already exists between ``a`` and ``b``."""
        if a not in self._ases or b not in self._ases:
            raise TopologyError(f"link query references unknown AS ({a}, {b})")
        return self._linked(a, b)

    def copy(self) -> "ASTopology":
        """An independent topology sharing the immutable AS/org records.

        Adjacency sets are copied so mutations (``add_link``) on the copy
        never leak into the original; :class:`AutonomousSystem` and
        :class:`Organization` records are shared (append-only worlds never
        replace them).  Derived caches start cold on the copy.
        """
        clone = ASTopology()
        clone._ases = dict(self._ases)
        clone._orgs = dict(self._orgs)
        clone._providers = {asn: set(s) for asn, s in self._providers.items()}
        clone._customers = {asn: set(s) for asn, s in self._customers.items()}
        clone._peers = {asn: set(s) for asn, s in self._peers.items()}
        return clone

    def _invalidate(self) -> None:
        self._cone_cache = None
        self._rank_cache = None
        self._csr_cache = None

    def csr(self) -> TopologyCSR:
        """The topology's edge arrays (cached; rebuilt after mutation)."""
        if self._csr_cache is None:
            self._csr_cache = TopologyCSR(
                self._ases, self._providers, self._customers, self._peers
            )
        return self._csr_cache

    # -- lookups -----------------------------------------------------------

    def __contains__(self, asn: int) -> bool:
        return asn in self._ases

    def __len__(self) -> int:
        return len(self._ases)

    @property
    def asns(self) -> list[int]:
        """All ASNs, sorted."""
        return sorted(self._ases)

    @property
    def organizations(self) -> list[Organization]:
        """All organisations, in insertion order."""
        return list(self._orgs.values())

    def get_as(self, asn: int) -> AutonomousSystem:
        """The AS record for ``asn`` (raises if unknown)."""
        try:
            return self._ases[asn]
        except KeyError as exc:
            raise TopologyError(f"unknown AS{asn}") from exc

    def get_org(self, org_id: str) -> Organization:
        """The organisation record for ``org_id`` (raises if unknown)."""
        try:
            return self._orgs[org_id]
        except KeyError as exc:
            raise TopologyError(f"unknown org {org_id}") from exc

    def org_of(self, asn: int) -> Organization:
        """The organisation owning ``asn``."""
        return self.get_org(self.get_as(asn).org_id)

    def siblings(self, asn: int) -> set[int]:
        """Other ASNs owned by the same organisation."""
        org = self.org_of(asn)
        return {sibling for sibling in org.asns if sibling != asn}

    def providers_of(self, asn: int) -> frozenset[int]:
        """Direct transit providers of ``asn``."""
        return frozenset(self._providers[asn])

    def customers_of(self, asn: int) -> frozenset[int]:
        """Direct customers of ``asn``."""
        return frozenset(self._customers[asn])

    def peers_of(self, asn: int) -> frozenset[int]:
        """Settlement-free peers of ``asn``."""
        return frozenset(self._peers[asn])

    def customer_degree(self, asn: int) -> int:
        """Number of direct AS-level customers (the §6.2 size metric)."""
        return len(self._customers[asn])

    def neighbors(self, asn: int) -> Iterator[int]:
        """All neighbours regardless of relationship type."""
        yield from self._providers[asn]
        yield from self._customers[asn]
        yield from self._peers[asn]

    def edges(self) -> Iterator[tuple[int, int, Relationship]]:
        """Every edge once: (provider, customer, -1) or (a, b, 0) with a<b."""
        for asn in sorted(self._customers):
            for customer in sorted(self._customers[asn]):
                yield asn, customer, Relationship.PROVIDER_CUSTOMER
        for asn in sorted(self._peers):
            for peer in sorted(self._peers[asn]):
                if asn < peer:
                    yield asn, peer, Relationship.PEER

    # -- derived metrics ----------------------------------------------------

    def customer_cone(self, asn: int) -> frozenset[int]:
        """The AS's customer cone: itself plus everything reachable by
        repeatedly following customer links (CAIDA's AS-rank metric)."""
        if self._cone_cache is None:
            self._compute_cones()
        assert self._cone_cache is not None
        return self._cone_cache[asn]

    def _compute_cones(self) -> None:
        """Compute all customer cones bottom-up.

        The provider-customer digraph may contain cycles in pathological
        inputs; we tolerate them with an iterative fixed point (cones only
        grow, so it terminates).
        """
        cones: dict[int, set[int]] = {asn: {asn} for asn in self._ases}
        changed = True
        while changed:
            changed = False
            for asn in self._ases:
                cone = cones[asn]
                before = len(cone)
                for customer in self._customers[asn]:
                    cone |= cones[customer]
                if len(cone) != before:
                    changed = True
        self._cone_cache = {asn: frozenset(cone) for asn, cone in cones.items()}

    def as_rank(self, asn: int) -> int:
        """CAIDA-style AS rank: 1 = largest customer cone."""
        if self._rank_cache is None:
            if self._cone_cache is None:
                self._compute_cones()
            assert self._cone_cache is not None
            ordered = sorted(
                self._ases,
                key=lambda a: (-len(self._cone_cache[a]), a),
            )
            self._rank_cache = {a: i + 1 for i, a in enumerate(ordered)}
        return self._rank_cache[asn]

    def validate(self) -> None:
        """Check structural invariants; raises TopologyError on violation."""
        for asn in self._ases:
            if self._providers[asn] & self._customers[asn]:
                raise TopologyError(f"AS{asn} is both provider and customer")
            if self._peers[asn] & (self._providers[asn] | self._customers[asn]):
                raise TopologyError(f"AS{asn} has conflicting peer link")
        for org_id, org in self._orgs.items():
            for asn in org.asns:
                if self._ases[asn].org_id != org_id:
                    raise TopologyError(
                        f"AS{asn} listed under org {org_id} but records "
                        f"{self._ases[asn].org_id}"
                    )
