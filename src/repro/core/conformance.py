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

from collections import Counter
from dataclasses import dataclass

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

    def add(self, rpki: RPKIStatus, irr: IRRStatus, count: int = 1) -> None:
        """Account ``count`` originated prefixes with these statuses."""
        self.total += count
        if rpki is RPKIStatus.VALID:
            self.rpki_valid += count
        elif rpki.is_invalid:
            self.rpki_invalid += count
        else:
            self.rpki_not_found += count
        if irr is IRRStatus.VALID:
            self.irr_valid += count
        elif irr is IRRStatus.INVALID_ORIGIN:
            self.irr_invalid_origin += count
        elif irr is IRRStatus.INVALID_LENGTH:
            self.irr_invalid_length += count
        else:
            self.irr_not_found += count
        if is_conformant(rpki, irr):
            self.conformant += count
        if is_unconformant(rpki, irr):
            self.unconformant += count

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

    def add(
        self,
        rpki: RPKIStatus,
        irr: IRRStatus,
        from_customer: bool,
        count: int = 1,
    ) -> None:
        """Account ``count`` propagated prefixes with these statuses."""
        self.total += count
        if rpki.is_invalid:
            self.rpki_invalid += count
        if irr is IRRStatus.INVALID_ORIGIN:
            self.irr_invalid += count
        if from_customer:
            self.customer_total += count
            if is_unconformant(rpki, irr):
                self.customer_unconformant += count

    def add_tally(self, tally: "PropagationStats", from_customer: bool) -> None:
        """Account every prefix counted in ``tally`` at once.

        ``tally`` counts its prefixes as learned from a customer; its
        customer counts carry over only when ``from_customer`` holds.
        """
        self.total += tally.total
        self.rpki_invalid += tally.rpki_invalid
        self.irr_invalid += tally.irr_invalid
        if from_customer:
            self.customer_total += tally.customer_total
            self.customer_unconformant += tally.customer_unconformant

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


def origination_stats(dataset: IHRDataset) -> dict[int, OriginationStats]:
    """Per-origin statistics over the IHR prefix-origin dataset.

    Rows are tallied per ``(origin, rpki, irr)`` code triple and each
    combination is added once with its count.  The tally keeps
    first-seen order, so origins keep the order of their first row.
    """
    columns = dataset.arrays
    tally = Counter(
        zip(
            columns["po_origin"].tolist(),
            columns["po_rpki"].tolist(),
            columns["po_irr"].tolist(),
        )
    )
    stats: dict[int, OriginationStats] = {}
    for (origin, rpki, irr), count in tally.items():
        stats.setdefault(origin, OriginationStats()).add(
            RPKI_STATUSES[rpki], IRR_STATUSES[irr], count
        )
    return stats


def propagation_stats(dataset: IHRDataset) -> dict[int, PropagationStats]:
    """Per-transit statistics over the IHR transit dataset.

    Every transit of a group sees the same prefix statuses, so each
    group's ``(rpki, irr)`` combinations are counted once and the group's
    totals are added to every transit, in the group's transit order.
    """
    columns = dataset.arrays
    rpki = columns["tg_rpki"].tolist()
    irr = columns["tg_irr"].tolist()
    prefix_offsets = columns["tg_offsets"].tolist()
    transit_offsets = columns["tr_offsets"].tolist()
    transits = columns["tr_asn"].tolist()
    from_customer = columns["tr_from_customer"].tolist()
    stats: dict[int, PropagationStats] = {}
    for group in range(len(prefix_offsets) - 1):
        begin, end = prefix_offsets[group], prefix_offsets[group + 1]
        if begin == end:
            continue
        tally = PropagationStats()
        for (rpki_code, irr_code), count in Counter(
            zip(rpki[begin:end], irr[begin:end])
        ).items():
            tally.add(RPKI_STATUSES[rpki_code], IRR_STATUSES[irr_code], True, count)
        rows = slice(transit_offsets[group], transit_offsets[group + 1])
        for transit, customer in zip(transits[rows], from_customer[rows]):
            entry = stats.get(transit)
            if entry is None:
                entry = stats[transit] = PropagationStats()
            entry.add_tally(tally, customer)
    return stats


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
