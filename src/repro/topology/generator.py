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
pair always yields the same topology.  Weighted and uniform picks go
through :class:`WeightedPick` and :func:`uniform_picks`, which make the
draws ``Generator.choice`` makes for them; the rest of the world's
synthesis picks through them too.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

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

__all__ = [
    "TopologyConfig",
    "GeneratedTopology",
    "WeightedPick",
    "generate_topology",
    "uniform_picks",
]

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


#: How far from 1 ``choice`` lets the probabilities sum.
_SUM_TOLERANCE = math.sqrt(np.finfo(np.float64).eps)


def _cdf(probabilities: np.ndarray) -> np.ndarray:
    """The cumulative sums of ``probabilities`` scaled to end at 1, as
    ``choice`` normalises them."""
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return cdf


class WeightedPick:
    """Weighted picks of indices that draw what ``Generator.choice`` draws.

    ``WeightedPick(weights)`` stands for ``p = weights / weights.sum()``.
    :meth:`one` returns what ``rng.choice(len(p), p=p)`` returns, and
    :meth:`distinct` what ``rng.choice(len(p), size=k, replace=False,
    p=p)`` returns; each makes the same draws, so ``rng`` ends where that
    call leaves it.  They run numpy's algorithm without its per-call
    validation, copies and ``np.unique``, and the cdf of one set of
    weights is built once for any number of picks.  The constructor and
    :meth:`distinct` raise :class:`ValueError` where ``choice`` would:
    when ``p`` is not a probability vector (a NaN or infinite weight,
    weights of both signs, a zero or overflowing total) or has fewer
    positive entries than picks.
    """

    __slots__ = ("_probabilities", "_cdf", "_cdf_list")

    def __init__(self, weights: Sequence[float] | np.ndarray) -> None:
        weights = np.asarray(weights, dtype=float)
        probabilities = weights / weights.sum()
        # choice's checks of p, in an order that needs no special case
        # for an empty or NaN p.
        if not (
            abs(probabilities.sum() - 1.0) <= _SUM_TOLERANCE
            and probabilities.min() >= 0
        ):
            raise ValueError(f"weights do not normalise to probabilities: {weights}")
        self._probabilities = probabilities
        self._cdf = _cdf(probabilities)
        self._cdf_list: list[float] | None = None

    def one(self, rng: np.random.Generator) -> int:
        """One index: a uniform double inverted through the cdf (as
        ``searchsorted(side="right")`` inverts it)."""
        if self._cdf_list is None:
            # Bisecting a list beats an array search for one value.
            self._cdf_list = self._cdf.tolist()
        return bisect_right(self._cdf_list, rng.random())

    def distinct(self, rng: np.random.Generator, count: int) -> list[int]:
        """``count`` distinct indices, in the order ``choice`` returns.

        Each round draws one uniform per missing pick, inverts them
        through the cdf of the weights not yet picked and keeps each new
        index at its first occurrence; a repeat leaves its pick to the
        next round, which zeroes the found weights first.
        """
        if not 0 <= count <= np.count_nonzero(self._probabilities):
            raise ValueError(
                f"cannot pick {count} distinct indices of "
                f"{np.count_nonzero(self._probabilities)} positive weights"
            )
        cdf = self._cdf
        picks: list[int] = []
        while len(picks) < count:
            draws = rng.random(count - len(picks))
            if picks:
                rest = self._probabilities.copy()
                rest[picks] = 0.0
                cdf = _cdf(rest)
            for index in cdf.searchsorted(draws, side="right").tolist():
                if index not in picks:
                    picks.append(index)
        return picks


def uniform_picks(
    rng: np.random.Generator, population: int, count: int
) -> list[int]:
    """``count`` distinct indices below ``population``, uniformly: what
    ``rng.choice(population, size=count, replace=False)`` returns, from
    the same draws.

    numpy runs Floyd's algorithm and shuffles its picks, or, when more
    than a fiftieth of a population above 10,000 is picked, shuffles the
    tail of ``range(population)``.  Every draw of either is a bounded
    integer whose bound is known before the first, so one
    ``integers(0, highs)`` call makes them all, in order.
    """
    if not 0 <= count <= population:
        raise ValueError(
            f"cannot pick {count} of {population} without replacement"
        )
    if not count:
        return []
    if population > 10_000 and count > population // 50:
        first = max(population - count, 1)
        order = list(range(population))
        highs = np.arange(population, first, -1)
        for i, j in zip(
            range(population - 1, first - 1, -1),
            rng.integers(0, highs).tolist(),
        ):
            order[i], order[j] = order[j], order[i]
        return order[population - count:]
    # Floyd's draws are integers(0, j + 1) for j = population - count ..
    # population - 1, the shuffle's integers(0, i + 1) for i = count - 1
    # down to 1.
    highs = np.concatenate(
        [
            np.arange(population - count + 1, population + 1),
            np.arange(count, 1, -1),
        ]
    )
    draws = rng.integers(0, highs).tolist()
    picks: list[int] = []
    seen: set[int] = set()
    for j, value in zip(range(population - count, population), draws):
        if value in seen:
            value = j
        seen.add(value)
        picks.append(value)
    for i, j in zip(range(count - 1, 0, -1), draws[count:]):
        picks[i], picks[j] = picks[j], picks[i]
    return picks


#: One pick per country pool, in ``_COUNTRY_POOL`` order.
_COUNTRY_PICKS = {
    pool: WeightedPick([weight for _, weight in countries])
    for pool, countries in _COUNTRY_POOL.items()
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
    #: Each category's attachment weights, aligned with ``by_category``
    #: and recomputed only on a degree bump (~one per edge) instead of
    #: per candidate scan.
    weight_lists: dict[ASCategory, list[float]] = field(default_factory=dict)
    #: AS → (category, index into its ``by_category`` list).
    _cat_pos: dict[int, tuple[ASCategory, int]] = field(default_factory=dict)
    #: ASNs that exist only as quiescent siblings.
    quiescent: set[int] = field(default_factory=set)

    def pick_country(self, pool: str) -> str:
        country, _ = _COUNTRY_POOL[pool][_COUNTRY_PICKS[pool].one(self.rng)]
        return country

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
        self.weight_lists.setdefault(category, []).append(self._weight(asn))
        return asn

    def add_provider(self, provider: int, customer: int) -> None:
        self.topology.add_link(provider, customer, Relationship.PROVIDER_CUSTOMER)
        self.degree[provider] += 1
        category, position = self._cat_pos[provider]
        self.weight_lists[category][position] = self._weight(provider)

    def _weight(self, asn: int) -> float:
        bias = 1.0
        if self.topology.get_as(asn).category is ASCategory.LARGE_TRANSIT:
            bias = self.config.large_weight_bias
        return (self.degree[asn] + bias) ** self.config.alpha

    def choose_providers(self, candidates: list[int], count: int) -> list[int]:
        """Preferentially sample ``count`` distinct providers from one
        category's pool (a list of ``by_category``)."""
        if not candidates:
            raise TopologyError("no provider candidates available")
        for category, pool in self.by_category.items():
            if candidates is pool:
                weights = self.weight_lists[category]
                break
        else:
            raise TopologyError("provider candidates must be a category pool")
        picks = WeightedPick(weights).distinct(
            self.rng, min(count, len(candidates))
        )
        return [candidates[i] for i in picks]


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
        for i in uniform_picks(
            builder.rng, len(peer_pool), min(n_peerings, len(peer_pool))
        ):
            builder.topology.add_link(asn, peer_pool[i], Relationship.PEER)


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
