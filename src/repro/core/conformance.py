"""Per-AS conformance metrics: Formulas 1–6 and the action thresholds.

Origination metrics (§6.4, Action 4):

* ``OG_rpki_valid``  — % of originated prefixes RPKI Valid (Formula 1);
* ``OG_irr_valid``   — % IRR Valid (Formula 2);
* ``OG_conformant``  — % MANRS-conformant (Formula 3).

Propagation metrics (Action 1), computed over the IHR transit dataset:

* ``PG_rpki_invalid`` — % of propagated prefixes RPKI Invalid or Invalid
  Length (Formula 4);
* ``PG_irr_invalid``  — % IRR Invalid (Formula 5);
* ``PG_unconformant`` — % MANRS-unconformant among prefixes learned from
  direct customers (Formula 6).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import astuple, dataclass
from itertools import product

import numpy as np

from repro.core.classification import is_conformant, is_unconformant
from repro.ihr.records import IRR_STATUSES, RPKI_STATUSES, IHRDataset
from repro.irr.validation import IRRStatus
from repro.manrs.actions import Program, action4_threshold
from repro.rpki.rov import RPKIStatus

__all__ = [
    "OriginationStats",
    "PropagationStats",
    "origination_stats",
    "propagation_stats",
    "is_action4_conformant",
    "is_action1_fully_conformant",
]


@dataclass
class OriginationStats:
    """Counts over the prefixes one AS originates."""

    total: int = 0
    rpki_valid: int = 0
    rpki_invalid: int = 0       # both invalid flavours
    rpki_not_found: int = 0
    irr_valid: int = 0
    irr_invalid_origin: int = 0
    irr_invalid_length: int = 0
    irr_not_found: int = 0
    conformant: int = 0
    unconformant: int = 0

    def add(self, rpki: RPKIStatus, irr: IRRStatus) -> None:
        """Account one originated prefix with these statuses."""
        self.total += 1
        if rpki is RPKIStatus.VALID:
            self.rpki_valid += 1
        elif rpki.is_invalid:
            self.rpki_invalid += 1
        else:
            self.rpki_not_found += 1
        if irr is IRRStatus.VALID:
            self.irr_valid += 1
        elif irr is IRRStatus.INVALID_ORIGIN:
            self.irr_invalid_origin += 1
        elif irr is IRRStatus.INVALID_LENGTH:
            self.irr_invalid_length += 1
        else:
            self.irr_not_found += 1
        if is_conformant(rpki, irr):
            self.conformant += 1
        if is_unconformant(rpki, irr):
            self.unconformant += 1

    def _pct(self, count: int) -> float:
        return 100.0 * count / self.total if self.total else 0.0

    @property
    def og_rpki_valid(self) -> float:
        """Formula 1 (percent)."""
        return self._pct(self.rpki_valid)

    @property
    def og_irr_valid(self) -> float:
        """Formula 2 (percent)."""
        return self._pct(self.irr_valid)

    @property
    def og_conformant(self) -> float:
        """Formula 3 (percent)."""
        return self._pct(self.conformant)

    @property
    def only_rpki_valid(self) -> bool:
        """All originated prefixes RPKI Valid (Figure 5a's right mode)."""
        return self.total > 0 and self.rpki_valid == self.total

    @property
    def no_rpki_valid(self) -> bool:
        """No originated prefix RPKI Valid (Figure 5a's left mode)."""
        return self.total > 0 and self.rpki_valid == 0

    @property
    def irr_only_registration(self) -> bool:
        """Registered in the IRR but entirely absent from the RPKI (§8.2)."""
        return (
            self.total > 0
            and self.rpki_not_found == self.total
            and self.irr_not_found < self.total
        )


@dataclass
class PropagationStats:
    """Counts over the prefixes one AS provides transit for."""

    total: int = 0
    rpki_invalid: int = 0
    irr_invalid: int = 0
    customer_total: int = 0
    customer_unconformant: int = 0

    def add(self, rpki: RPKIStatus, irr: IRRStatus, from_customer: bool) -> None:
        """Account one propagated prefix with these statuses."""
        self.total += 1
        if rpki.is_invalid:
            self.rpki_invalid += 1
        if irr is IRRStatus.INVALID_ORIGIN:
            self.irr_invalid += 1
        if from_customer:
            self.customer_total += 1
            if is_unconformant(rpki, irr):
                self.customer_unconformant += 1

    @property
    def pg_rpki_invalid(self) -> float:
        """Formula 4 (percent)."""
        return 100.0 * self.rpki_invalid / self.total if self.total else 0.0

    @property
    def pg_irr_invalid(self) -> float:
        """Formula 5 (percent)."""
        return 100.0 * self.irr_invalid / self.total if self.total else 0.0

    @property
    def pg_unconformant(self) -> float:
        """Formula 6 (percent, customer announcements only)."""
        if not self.customer_total:
            return 0.0
        return 100.0 * self.customer_unconformant / self.customer_total


def _per_code(stats_class, *flags) -> np.ndarray:
    """What ``stats_class.add`` counts for one prefix of each status
    pair: row ``rpki * len(IRR_STATUSES) + irr``, one column per field.
    The tallies below only gather and sum these rows."""
    rows = []
    for rpki, irr in product(RPKI_STATUSES, IRR_STATUSES):
        stats = stats_class()
        stats.add(rpki, irr, *flags)
        rows.append(astuple(stats))
    return np.array(rows, dtype=np.int64)


_ORIGINATION_COUNTS = _per_code(OriginationStats)
#: A transit's counts for a prefix learned from a customer, then from anyone else.
_PROPAGATION_COUNTS = np.hstack([_per_code(PropagationStats, c) for c in (True, False)])


class _Tally(Mapping):
    """Per-key stats, read-only, a key's ``stats_class`` built when the
    key is first read.

    Keys iterate in first-seen order; ``sums`` holds each key's field
    sums, row for row.  Most readers look up a few hundred of the
    thousands of keys, so the rest never become objects.
    """

    __slots__ = ("_stats_class", "_rows", "_sums", "_built")

    def __init__(self, stats_class, keys: list, sums: np.ndarray):
        self._stats_class = stats_class
        self._rows = dict(zip(keys, range(len(keys))))
        self._sums = sums
        self._built: dict = {}

    def __getitem__(self, key):
        stats = self._built.get(key)
        if stats is None:
            stats = self._stats_class(*self._sums[self._rows[key]].tolist())
            self._built[key] = stats
        return stats

    def __contains__(self, key) -> bool:
        return key in self._rows

    def __iter__(self) -> Iterator:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def _tally(stats_class, keys: np.ndarray, counts: np.ndarray) -> _Tally:
    """A ``stats_class`` per distinct key, in first-seen order, holding
    the sums of the key's rows of ``counts`` (one bincount per field;
    its float64 sums of counts are exact below 2**53)."""
    unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    sums = np.column_stack(
        [np.bincount(inverse, column, len(unique)) for column in counts.T]
    ).astype(np.int64)
    order = np.argsort(first)
    return _Tally(stats_class, unique[order].tolist(), sums[order])


def origination_stats(dataset: IHRDataset) -> Mapping[int, OriginationStats]:
    """Per-origin statistics over the IHR prefix-origin dataset, origins
    in the order of their first row (a read-only mapping that builds an
    origin's stats when it is read)."""
    columns = dataset.arrays
    codes = columns["po_rpki"] * len(IRR_STATUSES) + columns["po_irr"]
    return _tally(OriginationStats, columns["po_origin"], _ORIGINATION_COUNTS[codes])


def propagation_stats(dataset: IHRDataset) -> Mapping[int, PropagationStats]:
    """Per-transit statistics over the IHR transit dataset, as a
    read-only mapping that builds a transit's stats when it is read.

    Every transit of a group sees the same prefix statuses, so a
    group's counts are differences of the cumulative row counts at its
    prefix offsets.  Each of the group's transit rows takes the counts
    for how it learned the route (from a customer or not), and they are
    summed per transit in first-seen order.  A group with no prefix rows
    adds no transit.
    """
    columns = dataset.arrays
    codes = columns["tg_rpki"] * len(IRR_STATUSES) + columns["tg_irr"]
    cumulative = np.pad(np.cumsum(_PROPAGATION_COUNTS[codes], 0), ((1, 0), (0, 0)))
    offsets = columns["tg_offsets"]
    per_group = cumulative[offsets[1:]] - cumulative[offsets[:-1]]
    group = np.repeat(np.arange(len(per_group)), np.diff(columns["tr_offsets"]))
    rows = np.flatnonzero(np.diff(offsets)[group] > 0)
    customer, other = np.hsplit(per_group[group[rows]], 2)
    per_transit = np.where(columns["tr_from_customer"][rows, None], customer, other)
    return _tally(PropagationStats, columns["tr_asn"][rows], per_transit)


def is_action4_conformant(stats: OriginationStats | None, program: Program) -> bool:
    """Action 4 verdict for one AS under its program's threshold (§8.3).

    ASes that originate nothing are trivially conformant (``stats`` None
    or zero total), matching the paper's treatment of quiescent member
    ASNs.
    """
    if stats is None or stats.total == 0:
        return True
    return stats.og_conformant >= action4_threshold(program)


def is_action1_fully_conformant(stats: PropagationStats | None) -> bool:
    """Action 1 verdict: no MANRS-unconformant customer announcement
    propagated (§9.3).  ASes propagating nothing are trivially conformant.
    """
    if stats is None or stats.customer_total == 0:
        return True
    return stats.customer_unconformant == 0
