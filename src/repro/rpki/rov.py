"""Route Origin Validation per RFC 6811 (and §6.1 of the paper).

Given the VRP set, classify a route (prefix, origin AS):

* **NOT_FOUND** — no VRP covers the prefix;
* **VALID** — some covering VRP matches both the origin ASN and the
  prefix length (≤ maxLength);
* **INVALID_LENGTH** — at least one covering VRP matches the ASN but the
  announced prefix is more specific than its maxLength allows;
* **INVALID_ASN** — covering VRPs exist but none matches the origin ASN
  (this includes AS0 ROAs, which can never match).

Bulk classification (:meth:`ROVValidator.validate_many`) runs the
``searchsorted`` interval kernel over the whole VRP set; the per-route
:meth:`ROVValidator.validate` walks the radix trie, which makes it the
reference the kernel is tested against.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from repro import obs
from repro.kernels.intervals import RouteIntervalIndex
from repro.net.prefix import Prefix, address_key
from repro.net.radix import RadixTree
from repro.rpki.roa import VRP

__all__ = ["RPKIStatus", "ROVValidator"]


class RPKIStatus(str, Enum):
    """RFC 6811 route validation outcome."""

    VALID = "valid"
    INVALID_ASN = "invalid_asn"
    INVALID_LENGTH = "invalid_length"
    NOT_FOUND = "not_found"

    @property
    def is_invalid(self) -> bool:
        """True for either invalid flavour."""
        return self in (RPKIStatus.INVALID_ASN, RPKIStatus.INVALID_LENGTH)


def _classify(covering: list[VRP], prefix: Prefix, origin: int) -> RPKIStatus:
    """RFC 6811 classification given the covering VRPs."""
    if not covering:
        return RPKIStatus.NOT_FOUND
    asn_match = False
    for vrp in covering:
        if vrp.asn == origin and vrp.asn != 0:
            if prefix.length <= vrp.max_length:
                return RPKIStatus.VALID
            asn_match = True
    return RPKIStatus.INVALID_LENGTH if asn_match else RPKIStatus.INVALID_ASN


#: Interval-kernel verdict code → RFC 6811 status (see kernels.intervals).
_STATUS_BY_CODE = (
    RPKIStatus.NOT_FOUND,
    RPKIStatus.VALID,
    RPKIStatus.INVALID_LENGTH,
    RPKIStatus.INVALID_ASN,
)


class ROVValidator:
    """Stateful validator over a fixed VRP set.

    The VRP set is frozen at construction, so per-route verdicts are
    memoised: within one snapshot the same (prefix, origin) is typically
    classified several times (announcement classing, the IHR pipeline,
    conformance analyses) and only the first lookup classifies it.
    """

    def __init__(self, vrps: Iterable[VRP]):
        self._vrps: list[VRP] = list(vrps)
        self._count = len(self._vrps)
        # Both lookup structures are lazy: the radix trie backs
        # per-route validation and covering queries, the interval index
        # backs bulk validation and coverage.  A validator used only
        # through one path never builds the other.
        self._tree: RadixTree[VRP] | None = None
        self._index: RouteIntervalIndex | None = None
        obs.add("rov.validators_built")
        obs.add("rov.vrps_loaded", self._count)
        self._memo: dict[tuple[Prefix, int], RPKIStatus] = {}

    def __len__(self) -> int:
        """Number of VRPs loaded."""
        return self._count

    def _trie(self) -> RadixTree[VRP]:
        tree = self._tree
        if tree is None:
            tree = RadixTree()
            # Pause cyclic GC for the node burst: timeline sweeps
            # construct a validator per year inside an already-large
            # process, where every few hundred node allocations would
            # otherwise trigger a full generation-0 scan of the world.
            with obs.gc_paused():
                for vrp in self._vrps:
                    tree.insert(vrp.prefix, vrp)
            self._tree = tree
        return tree

    def interval_index(self) -> RouteIntervalIndex:
        """The searchsorted form of the VRP set (built on first use)."""
        index = self._index
        if index is None:
            index = RouteIntervalIndex(
                (vrp.prefix, vrp.asn, vrp.max_length) for vrp in self._vrps
            )
            self._index = index
        return index

    def all_vrps(self) -> list[VRP]:
        """Every loaded VRP, in address order.

        The order the trie would list them in — address order, equal
        prefixes in load order — from one stable key sort, so listing
        never builds the trie.
        """
        return sorted(self._vrps, key=lambda vrp: address_key(vrp.prefix))

    def covering_vrps(self, prefix: Prefix) -> list[VRP]:
        """All VRPs whose prefix contains ``prefix``."""
        return self._trie().covering(prefix)

    def validate(self, prefix: Prefix, origin: int) -> RPKIStatus:
        """Classify one route against the loaded VRPs."""
        key = (prefix, origin)
        status = self._memo.get(key)
        if status is None:
            status = _classify(self._trie().covering(prefix), prefix, origin)
            self._memo[key] = status
        return status

    def _classify_pending(
        self, pending: list[tuple[Prefix, int]]
    ) -> list[RPKIStatus]:
        """Bulk-classify not-yet-memoised routes, aligned with ``pending``."""
        codes = self.interval_index().classify_routes(pending)
        return [_STATUS_BY_CODE[code] for code in codes.tolist()]

    def validate_many(
        self, routes: Iterable[tuple[Prefix, int]]
    ) -> dict[tuple[Prefix, int], RPKIStatus]:
        """Classify a batch of routes with one interval-kernel pass.

        Equivalent to calling :meth:`validate` per route, but every
        not-yet-memoised route is classified in one ``searchsorted``
        sweep over the VRP intervals.
        """
        routes = set(routes)
        results: dict[tuple[Prefix, int], RPKIStatus] = {}
        pending: list[tuple[Prefix, int]] = []
        for key in routes:
            status = self._memo.get(key)
            if status is None:
                pending.append(key)
            else:
                results[key] = status
        if pending:
            statuses = self._classify_pending(pending)
            tallies: dict[RPKIStatus, int] = {}
            for key, status in zip(pending, statuses):
                self._memo[key] = status
                results[key] = status
                tallies[status] = tallies.get(status, 0) + 1
            for status, tally in tallies.items():
                obs.add(f"rov.verdict.{status.value}", tally)
        obs.add("rov.memo_hits", len(routes) - len(pending))
        obs.add("rov.memo_misses", len(pending))
        return results

    def with_vrp(self, vrp: VRP) -> "ROVValidator":
        """A new validator over this VRP list with ``vrp`` appended."""
        return ROVValidator([*self._vrps, vrp])

    def without_vrp(self, vrp: VRP) -> "ROVValidator":
        """A new validator over this VRP list minus one copy of ``vrp``.

        Raises ``ValueError`` when no equal VRP is loaded.
        """
        vrps = list(self._vrps)
        vrps.remove(vrp)
        return ROVValidator(vrps)

    def seed_memo(
        self, verdicts: dict[tuple[Prefix, int], RPKIStatus]
    ) -> None:
        """Pre-populate the verdict memo with known verdicts.

        The caller vouches that each verdict is this VRP set's, as the
        live world does for its route table (see :mod:`repro.delta`).
        """
        self._memo.update(verdicts)

    def covered_space(self, prefixes: Iterable[Prefix]) -> list[Prefix]:
        """Subset of ``prefixes`` that have at least one covering VRP.

        This is the paper's "ROA covered ... address space" numerator for
        RPKI saturation (Equation 7/8), answered by the interval index in
        one vectorised probe.
        """
        if not isinstance(prefixes, (list, tuple)):
            prefixes = list(prefixes)
        mask = self.interval_index().covers_prefixes(prefixes)
        return [p for p, hit in zip(prefixes, mask.tolist()) if hit]

