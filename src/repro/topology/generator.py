"""Synthetic AS-level Internet topology generator.

Builds a Gao–Rexford-consistent hierarchy:

* a clique of *large transit* providers (tier-1 style) peering with each
  other;
* *medium ISPs* buying transit from large providers (preferentially, so a
  few large ASes accumulate the >180-customer degree of the paper's
  "large" class) and peering among themselves;
* *small ISPs* buying transit from medium/large providers;
* *stub* ASes (the bulk of the Internet) homing to 1–3 providers;
* *CDNs* with a couple of transit providers and a wide peering mesh.

Organisations may own several ASes — the extra ("sibling") ASes are stubs
attached below the organisation's main AS, which is what produces the
partial-registration behaviour of Finding 7.0 and the Sibling column of
Table 1.

Everything is driven by a seeded ``numpy`` generator, so a (config, seed)
pair always yields the same topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TopologyError
from repro.registry.rir import rir_for_country
from repro.topology.model import (
    ASCategory,
    ASTopology,
    AutonomousSystem,
    Organization,
    Relationship,
)

__all__ = ["TopologyConfig", "GeneratedTopology", "generate_topology"]

#: Country weights per category: large networks concentrate in ARIN/RIPE
#: (as §7 observes), small networks are spread worldwide with a strong
#: LACNIC (Brazil) contingent.
_COUNTRY_POOL = {
    "core": (("US", 0.42), ("DE", 0.13), ("GB", 0.11), ("JP", 0.09),
             ("CN", 0.09), ("FR", 0.06), ("NL", 0.05), ("BR", 0.05)),
    "edge": (("US", 0.17), ("BR", 0.16), ("DE", 0.09), ("RU", 0.08),
             ("IN", 0.08), ("GB", 0.07), ("ID", 0.07), ("CN", 0.06),
             ("AR", 0.06), ("ZA", 0.05), ("NG", 0.04), ("AU", 0.04),
             ("MX", 0.03)),
}


@dataclass
class TopologyConfig:
    """Knobs controlling topology size and shape.

    The defaults produce a ~10,000-AS Internet: large enough for the paper's
    size classes to be populated (including >180-customer "large" ASes) and
    small enough for full route propagation in pure Python.
    """

    n_large_transit: int = 18
    n_cdn: int = 30
    n_medium_isp: int = 260
    n_small_isp: int = 700
    n_stub: int = 5200
    #: Virtual head-start degree for large transit ASes in preferential
    #: attachment; keeps the degree distribution top-heavy enough that the
    #: >180-customer "large" size class (§6.2) is well populated.
    large_weight_bias: float = 60.0
    #: Fraction of organisations that own more than one AS.
    multi_as_org_fraction: float = 0.35
    #: Mean number of extra sibling ASes for a multi-AS org (geometric).
    sibling_mean: float = 2.0
    #: Large transit orgs always own several ASes (like the paper's ISP1
    #: whose 24 ASes appear in Finding 8.4).
    large_sibling_mean: float = 5.0
    #: Probability that a sibling AS is quiescent (announces nothing).
    quiescent_sibling_fraction: float = 0.35
    #: Preferential-attachment strength for provider selection: weight of a
    #: candidate provider is (customer_degree + 1) ** alpha.
    alpha: float = 1.35
    first_asn: int = 100

    def scaled(self, factor: float) -> "TopologyConfig":
        """A copy with all population counts multiplied by ``factor``."""
        return TopologyConfig(
            n_large_transit=max(3, round(self.n_large_transit * factor)),
            n_cdn=max(2, round(self.n_cdn * factor)),
            n_medium_isp=max(5, round(self.n_medium_isp * factor)),
            n_small_isp=max(5, round(self.n_small_isp * factor)),
            n_stub=max(10, round(self.n_stub * factor)),
            large_weight_bias=self.large_weight_bias,
            multi_as_org_fraction=self.multi_as_org_fraction,
            sibling_mean=self.sibling_mean,
            large_sibling_mean=self.large_sibling_mean,
            quiescent_sibling_fraction=self.quiescent_sibling_fraction,
            alpha=self.alpha,
            first_asn=self.first_asn,
        )


@dataclass
class _Builder:
    config: TopologyConfig
    rng: np.random.Generator
    topology: ASTopology = field(default_factory=ASTopology)
    next_asn: int = 0
    next_org: int = 0
    #: ASNs per category for provider selection.
    by_category: dict[ASCategory, list[int]] = field(default_factory=dict)
    #: Running customer degree for preferential attachment.
    degree: dict[int, int] = field(default_factory=dict)
    #: Memoised attachment weight per AS — recomputed only on a degree
    #: bump (~one per edge) instead of per candidate scan (~one per
    #: candidate per choose_providers call).  Each cached value comes
    #: from the same scalar expression the scan used, so the sampling
    #: probabilities (and hence every rng draw) are bit-identical.
    weight_of: dict[int, float] = field(default_factory=dict)
    #: The same weights as parallel per-category lists (aligned with
    #: ``by_category``), so sampling from a whole category pool skips
    #: the per-candidate dict walk.
    weight_lists: dict[ASCategory, list[float]] = field(default_factory=dict)
    #: AS → (category, index into its ``by_category`` list).
    _cat_pos: dict[int, tuple[ASCategory, int]] = field(default_factory=dict)
    #: ASNs that exist only as quiescent siblings.
    quiescent: set[int] = field(default_factory=set)
    _country_cache: dict[str, tuple[list[str], np.ndarray]] = field(
        default_factory=dict
    )

    def pick_country(self, pool: str) -> str:
        cached = self._country_cache.get(pool)
        if cached is None:
            names = [c for c, _ in _COUNTRY_POOL[pool]]
            weights = np.array([w for _, w in _COUNTRY_POOL[pool]])
            p = weights / weights.sum()
            # rng.choice(names, p=p) draws one uniform double and inverts
            # it through p's cdf; doing that directly skips choice's
            # per-call validation while consuming the same bit-stream.
            cdf = p.cumsum()
            cdf /= cdf[-1]
            cached = (names, cdf)
            self._country_cache[pool] = cached
        names, cdf = cached
        return names[int(cdf.searchsorted(self.rng.random(), side="right"))]

    def new_org(self, name_prefix: str, country: str) -> Organization:
        org = Organization(f"ORG-{self.next_org:05d}", f"{name_prefix}-{self.next_org}", country)
        self.next_org += 1
        self.topology.add_org(org)
        return org

    def new_as(self, org: Organization, category: ASCategory) -> int:
        asn = self.config.first_asn + self.next_asn
        self.next_asn += 1
        record = AutonomousSystem(
            asn=asn,
            org_id=org.org_id,
            country=org.country,
            rir=rir_for_country(org.country),
            category=category,
        )
        self.topology.add_as(record)
        pool = self.by_category.setdefault(category, [])
        self._cat_pos[asn] = (category, len(pool))
        pool.append(asn)
        self.degree[asn] = 0
        weight = self._weight(asn)
        self.weight_of[asn] = weight
        self.weight_lists.setdefault(category, []).append(weight)
        return asn

    def add_provider(self, provider: int, customer: int) -> None:
        self.topology.add_link(provider, customer, Relationship.PROVIDER_CUSTOMER)
        self.degree[provider] += 1
        weight = self._weight(provider)
        self.weight_of[provider] = weight
        category, position = self._cat_pos[provider]
        self.weight_lists[category][position] = weight

    def _weight(self, asn: int) -> float:
        bias = 1.0
        if self.topology.get_as(asn).category is ASCategory.LARGE_TRANSIT:
            bias = self.config.large_weight_bias
        return (self.degree[asn] + bias) ** self.config.alpha

    def choose_providers(self, candidates: list[int], count: int) -> list[int]:
        """Preferentially sample ``count`` distinct providers."""
        if not candidates:
            raise TopologyError("no provider candidates available")
        count = min(count, len(candidates))
        for category, pool in self.by_category.items():
            if candidates is pool:
                weights = np.array(self.weight_lists[category])
                break
        else:
            weight_of = self.weight_of
            weights = np.array([weight_of[c] for c in candidates])
        picks = self.rng.choice(
            len(candidates), size=count, replace=False, p=weights / weights.sum()
        )
        return [candidates[int(i)] for i in picks]


def _geometric_extra(rng: np.random.Generator, mean: float) -> int:
    """Sample a non-negative count with the given mean (geometric)."""
    if mean <= 0:
        return 0
    p = 1.0 / (1.0 + mean)
    return int(rng.geometric(p)) - 1


@dataclass(frozen=True)
class GeneratedTopology:
    """A generated topology plus generation metadata.

    ``quiescent`` lists sibling ASNs that are registered to an organisation
    but never announce anything — the paper's "quiescent ASes" (§7).
    """

    topology: ASTopology
    quiescent: frozenset[int]


def generate_topology(
    config: TopologyConfig | None = None, seed: int = 0
) -> GeneratedTopology:
    """Generate a full topology from ``config`` with deterministic ``seed``."""
    config = config or TopologyConfig()
    builder = _Builder(config=config, rng=np.random.default_rng(seed))

    _make_large_transit(builder)
    _make_cdns(builder)
    _make_medium_isps(builder)
    _make_small_isps(builder)
    _make_stubs(builder)
    _attach_siblings(builder)

    builder.topology.validate()
    return GeneratedTopology(builder.topology, frozenset(builder.quiescent))


def _make_large_transit(builder: _Builder) -> None:
    """Tier-1 clique: every large transit peers with every other."""
    for _ in range(builder.config.n_large_transit):
        org = builder.new_org("Transit", builder.pick_country("core"))
        builder.new_as(org, ASCategory.LARGE_TRANSIT)
    larges = builder.by_category[ASCategory.LARGE_TRANSIT]
    for i, a in enumerate(larges):
        for b in larges[i + 1:]:
            builder.topology.add_link(a, b, Relationship.PEER)


def _make_cdns(builder: _Builder) -> None:
    """CDNs: 1–2 transit providers plus a wide peering mesh."""
    larges = builder.by_category[ASCategory.LARGE_TRANSIT]
    for _ in range(builder.config.n_cdn):
        org = builder.new_org("CDN", builder.pick_country("core"))
        asn = builder.new_as(org, ASCategory.CDN)
        for provider in builder.choose_providers(larges, int(builder.rng.integers(1, 3))):
            builder.add_provider(provider, asn)
        n_peerings = int(builder.rng.integers(3, min(10, len(larges)) + 1))
        peer_pool = [p for p in larges if p not in builder.topology.providers_of(asn)]
        for peer in builder.rng.choice(peer_pool, size=min(n_peerings, len(peer_pool)), replace=False):
            builder.topology.add_link(asn, int(peer), Relationship.PEER)


def _make_medium_isps(builder: _Builder) -> None:
    larges = builder.by_category[ASCategory.LARGE_TRANSIT]
    mediums: list[int] = []
    for _ in range(builder.config.n_medium_isp):
        org = builder.new_org("ISP", builder.pick_country("edge"))
        asn = builder.new_as(org, ASCategory.MEDIUM_ISP)
        n_providers = int(builder.rng.integers(1, 4))
        for provider in builder.choose_providers(larges, n_providers):
            builder.add_provider(provider, asn)
        # Sparse peering among mediums (regional IXP-style meshes).
        if mediums and builder.rng.random() < 0.45:
            peer = mediums[int(builder.rng.integers(0, len(mediums)))]
            if peer not in builder.topology.neighbors(asn) and peer != asn:
                builder.topology.add_link(asn, peer, Relationship.PEER)
        mediums.append(asn)


def _make_small_isps(builder: _Builder) -> None:
    larges = builder.by_category[ASCategory.LARGE_TRANSIT]
    mediums = builder.by_category[ASCategory.MEDIUM_ISP]
    for _ in range(builder.config.n_small_isp):
        org = builder.new_org("Access", builder.pick_country("edge"))
        asn = builder.new_as(org, ASCategory.SMALL_ISP)
        n_providers = int(builder.rng.integers(1, 3))
        # Small ISPs mostly buy from mediums, sometimes straight from a
        # large transit (keeps large-AS degrees growing).
        pool = mediums if builder.rng.random() < 0.6 else larges
        for provider in builder.choose_providers(pool, n_providers):
            builder.add_provider(provider, asn)


def _make_stubs(builder: _Builder) -> None:
    larges = builder.by_category[ASCategory.LARGE_TRANSIT]
    mediums = builder.by_category[ASCategory.MEDIUM_ISP]
    smalls = builder.by_category[ASCategory.SMALL_ISP]
    for _ in range(builder.config.n_stub):
        org = builder.new_org("Net", builder.pick_country("edge"))
        asn = builder.new_as(org, ASCategory.STUB)
        n_providers = 1 + (builder.rng.random() < 0.35) + (builder.rng.random() < 0.1)
        roll = builder.rng.random()
        if roll < 0.45:
            pool = larges
        elif roll < 0.90:
            pool = mediums
        else:
            pool = smalls
        for provider in builder.choose_providers(pool, n_providers):
            builder.add_provider(provider, asn)


def _attach_siblings(builder: _Builder) -> None:
    """Give some organisations extra sibling ASes.

    Siblings are stubs homed under the org's primary AS (if it can carry
    customers) or under the primary AS's first provider.  A fraction are
    quiescent — registered but never announcing — which drives the
    registration-completeness statistics of Finding 7.0.
    """
    config = builder.config
    primaries = [
        (org, org.asns[0])
        for org in builder.topology.organizations
        if org.asns
    ]
    for org, primary in primaries:
        category = builder.topology.get_as(primary).category
        if category is ASCategory.LARGE_TRANSIT:
            extra = _geometric_extra(builder.rng, config.large_sibling_mean)
        elif builder.rng.random() < config.multi_as_org_fraction:
            extra = 1 + _geometric_extra(builder.rng, config.sibling_mean - 1.0)
        else:
            extra = 0
        for _ in range(extra):
            asn = builder.new_as(org, ASCategory.STUB)
            if category is ASCategory.STUB:
                providers = builder.topology.providers_of(primary)
                parent = min(providers) if providers else primary
            else:
                parent = primary
            if parent != asn:
                builder.add_provider(parent, asn)
            if builder.rng.random() < config.quiescent_sibling_fraction:
                builder.quiescent.add(asn)
